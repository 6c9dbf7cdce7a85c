"""Brute-force list decoding, certification, and the outer code.

Everything here is exact.  List decoding and certification check every
codeword, certification on a packed LCS table with one lane per
codeword.  The outer code is a plain Reed-Solomon evaluation code over
a prime field whose list recovery tests every codeword at once: its
codebook, in lexicographic order, is packed once into bit planes, one
lane per codeword, and a recovery counts every lane's agreements with
the position lists in a few big-integer operations per listed symbol.
The flagged lanes then name the recovered codewords in sorted order.
The lexicographic codebook is the span of the systematic generator
(the Lagrange basis of the first K points), because any K symbols fix
a codeword; the column builder a sampled linear code uses
(codes._linear_span) lists it.  That stands in, interface-compatibly,
for the fast list-recoverable codes the concatenated construction
assumes, whose algebraic decoding internals are out of scope at desk
scale.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

from .codes import Code, PhiloxStream, Seed, _is_prime, _linear_span, philox_generator
from .codes import sample_random_code
from .core import CapacityError, DomainError, FractionLike, Word, _PlaneTable, _flagged_lanes
from .core import _frac, _lane_agreements, _lane_budget, _lane_gate, _lane_width, _lcs_steps
from .core import _packed_match_table, _packed_plane_table, _power_exceeds, format_word
from .core import _whole, insdel_distance

_CERTIFY_CENTER_LIMIT = 10 ** 7
_RECOVER_SPAN_LIMIT = 10 ** 6
_RECOVER_SYMBOL_LIMIT = 10 ** 7
_INT64_DRAW_LIMIT = 2 ** 63  # largest exclusive bound numpy's int64 integers takes

PositionLists = Sequence[frozenset[int]]


@dataclass(frozen=True)
class DecodeResult:
    """Codewords within the queried radius, in lexicographic order."""

    candidates: tuple[Word, ...]
    radius: int


class CertifyResult(NamedTuple):
    ok: bool
    witness: Word | None


def _check_recovery_size(p: int, k: int, n: int) -> None:
    """Raise CapacityError when list recovery over RS(p, K = k, N = n) is too large.

    Recovery enumerates the codebook: p**K codewords, at most
    _RECOVER_SPAN_LIMIT of them, of N symbols each, at most
    _RECOVER_SYMBOL_LIMIT symbols in all.  Nothing is built first.
    """
    if _power_exceeds(p, k, _RECOVER_SPAN_LIMIT):
        raise CapacityError(f"p**K = {p}**{k} exceeds the enumeration limit {_RECOVER_SPAN_LIMIT}")
    if p ** k * n > _RECOVER_SYMBOL_LIMIT:
        raise CapacityError(
            f"a codebook of {p}**{k} words of length {n} exceeds {_RECOVER_SYMBOL_LIMIT} symbols"
        )


@dataclass(frozen=True)
class RSCode:
    """Reed-Solomon evaluation code over F_p: p prime, K <= N <= p."""

    p: int
    k: int
    points: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _whole(self.p, "field order"))
        object.__setattr__(self, "k", _whole(self.k, "dimension K"))
        object.__setattr__(
            self, "points", tuple([_whole(x, "evaluation point") for x in self.points])
        )
        if not _is_prime(self.p):
            raise DomainError(f"field order {self.p} is not prime")
        if len(set(self.points)) != len(self.points):
            raise DomainError("evaluation points must be distinct")
        if any(not 0 <= x < self.p for x in self.points):
            raise DomainError("evaluation points must lie in the field")
        if not 1 <= self.k <= len(self.points) <= self.p:
            raise DomainError(
                f"need 1 <= K <= N <= p, got K={self.k}, N={len(self.points)}, p={self.p}"
            )

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def sorted_codebook(self) -> tuple[tuple[int, ...], ...]:
        """Every codeword, in lexicographic order; built on first use.

        Any K symbols fix a codeword, so lexicographic order is the
        product order of the first K symbols.  Built by
        codes._linear_span over the Lagrange basis L_0..L_{K-1} of the
        first K points (the systematic generator): symbol j of the
        codeword whose first K symbols are m is sum(m[i] * L_i(x_j)) mod
        p, so entry k holds the codeword whose first K symbols are k's
        base-p digits.  Raises CapacityError, before building anything,
        past the recovery limits (_check_recovery_size).  Holds p**K
        tuples of N ints: at most p**K * (48 + 36 * N) + 40 bytes on a
        64-bit CPython, and p**K * (48 + 8 * N) + 40 when p <= 257, as
        every symbol is then a shared small int.
        """
        _check_recovery_size(self.p, self.k, self.n)
        p, firsts = self.p, self.points[: self.k]
        weights = [pow(math.prod(a - b for b in firsts if b != a), -1, p) for a in firsts]
        basis = [
            [math.prod(x - b for b in firsts if b != a) * w % p for x in self.points]
            for a, w in zip(firsts, weights)
        ]
        return _linear_span(p, self.n, basis)

    @cached_property
    def codebook_planes(self) -> _PlaneTable:
        """sorted_codebook as packed bit planes, entry k in lane k; built on first use.

        (p - 1).bit_length() planes and the lane-ones int, each of
        p**K * (N + 1) bits, are at most ((p - 1).bit_length() + 1) *
        (p**K * (N + 1) // 7 + 64) + 120 bytes, well under the tuples.
        Raises CapacityError as sorted_codebook does.
        """
        return _packed_plane_table(self.sorted_codebook, self.n, self.p)


def brute_force_list_decode(c: Code, r: Word, radius: int) -> DecodeResult:
    """All codewords within the radius of r, sorted lexicographically."""
    if radius < 0:
        raise DomainError("radius must be nonnegative")
    hits = [w for w in c.sorted_words() if insdel_distance(w, r) <= radius]
    return DecodeResult(candidates=tuple(hits), radius=radius)


def _admissible_lengths(n: int, tau_n: int) -> range:
    return range(max(0, n - tau_n), n + tau_n + 1)


def _draw_below(rng: PhiloxStream, total: int) -> int:
    """Uniform integer in [0, total), exact for any positive total.

    Totals within numpy's int64 range keep the ``rng.integers`` stream;
    larger ones are drawn from whole random bytes with rejection.  The
    split is part of the seeded stream, so it stays at 2**63.
    """
    if total <= _INT64_DRAW_LIMIT:
        return rng.integers(0, total)
    nbits = total.bit_length()
    nbytes = (nbits + 7) // 8
    while True:
        ticket = int.from_bytes(rng.bytes(nbytes), "little") >> (8 * nbytes - nbits)
        if ticket < total:
            return ticket


def certify_list_decodable(
    c: Code,
    tau_n: int,
    L: int,
    mode: str = "exhaustive",
    samples: int = 1000,
    seed: Seed | None = None,
) -> CertifyResult:
    """Check that every radius-tau_n ball holds at most L codewords.

    Exhaustive mode scans every center of every admissible length
    m in [max(0, n - tau_n), n + tau_n] in length-then-lexicographic
    order, so a returned witness is the first violation in that order.
    Sampled mode draws centers with lengths weighted by q**m (matching
    the enumeration space) and requires a seed.  Either mode raises
    CapacityError past 10^7 centers: exhaustive mode on the size of the
    center space, sampled mode on samples.  Every refusal (mode, seed,
    sample count and both limits) comes before the table is built.

    Both modes build one packed LCS table with a lane per codeword; each
    center then costs one LCS-counting recurrence and one lane gate, and
    violates when the gate flags more than L codewords within tau_n of it.
    """
    if tau_n < 0 or L < 1:
        raise DomainError("need tau_n >= 0 and L >= 1")
    q, n = c.q, c.n
    lengths = _admissible_lengths(n, tau_n)
    first, longest = lengths[0], lengths[-1]
    if mode == "exhaustive":
        # q**longest bounds the total below, so a huge total is refused unbuilt.
        if _power_exceeds(q, longest, _CERTIFY_CENTER_LIMIT) or (
            sum(q ** m for m in lengths) > _CERTIFY_CENTER_LIMIT
        ):
            raise CapacityError(
                f"centers of lengths {first}..{longest} over q = {q} exceed the "
                f"exhaustive limit {_CERTIFY_CENTER_LIMIT}; use mode='sampled'"
            )
    else:
        if mode != "sampled":
            raise DomainError(f"unknown mode {mode!r}; use 'exhaustive' or 'sampled'")
        if seed is None:
            raise DomainError("sampled mode requires a seed")
        if samples < 1:
            raise DomainError("need at least one sample")
        if samples > _CERTIFY_CENTER_LIMIT:
            raise CapacityError(
                f"{samples} samples exceed the center limit {_CERTIFY_CENTER_LIMIT}"
            )
    words = [w.symbols for w in c.words]
    table = _packed_match_table(words, n)
    addends, top = _lane_gate(table, [_lane_budget(tau_n, n, m) for m in lengths])

    def violates(center: tuple[int, ...]) -> bool:
        for counts in _lcs_steps(center, table):
            pass
        return ((counts + addends[len(center) - first]) & top).bit_count() > L

    if mode == "exhaustive":
        for m in lengths:
            for center in itertools.product(range(q), repeat=m):
                if violates(center):
                    return CertifyResult(ok=False, witness=Word(center, q))
        return CertifyResult(ok=True, witness=None)

    rng = philox_generator(seed)
    # A ticket picks the first length whose running total of q**m exceeds it.
    ends = list(itertools.accumulate(q ** m for m in lengths))
    for _ in range(samples):
        m = lengths[bisect.bisect_right(ends, _draw_below(rng, ends[-1]))]
        center = tuple(rng.integers(0, q, size=m))
        if violates(center):
            return CertifyResult(ok=False, witness=Word(center, q))
    return CertifyResult(ok=True, witness=None)


def monte_carlo_rate_experiment(
    q: int,
    n: int,
    gamma: float,
    kappa: float,
    epsilon: float,
    trials: int,
    seed: Seed,
    samples: int = 200,
) -> dict:
    """Sampled certification of random codes at the formula rate.

    Qualitative by design: the underlying statement is asymptotic, so
    the report records the failure fraction without asserting any
    threshold.  Codes are drawn at rate from the matching fixed-split
    formula, the radius is floor((gamma+kappa)*n), and the list size is
    the ceil((1+tau)/epsilon) - 1 rule.
    """
    from .bounds import _fixed_split_rate, large_q_list_size

    if trials < 1:
        raise DomainError("need at least one trial")
    if epsilon <= 0:
        raise DomainError("epsilon must be positive for the list-size rule")
    point = _fixed_split_rate(q, gamma, kappa, epsilon)
    tau = gamma + kappa
    radius = math.floor(tau * n)
    L = large_q_list_size(tau, epsilon)
    size = max(1, min(q ** n, math.floor(q ** (point.rate * n))))
    master = philox_generator(seed)
    failures = 0
    witnesses: list[str] = []
    for _ in range(trials):
        code_seed = master.integers(0, 2 ** 63)
        certify_seed = master.integers(0, 2 ** 63)
        code = sample_random_code(q, n, size, code_seed)
        result = certify_list_decodable(
            code, radius, L, mode="sampled", samples=samples, seed=certify_seed
        )
        if not result.ok:
            failures += 1
            witnesses.append(format_word(result.witness))
    return {
        "params": {
            "q": q,
            "n": n,
            "gamma": gamma,
            "kappa": kappa,
            "epsilon": epsilon,
            "rate": point.rate,
            "code_size": size,
            "radius": radius,
            "list_size": L,
            "samples_per_trial": samples,
        },
        "trials": trials,
        "failures": failures,
        "failure_fraction": failures / trials,
        "witnesses": witnesses,
        "seed": seed,
    }


def rs_encode(code: RSCode, message: Sequence[int]) -> tuple[int, ...]:
    """Evaluate the degree-<K message polynomial (ints in the field) at the code's points."""
    if len(message) != code.k:
        raise DomainError(f"message length {len(message)} differs from K={code.k}")
    if any(not 0 <= _whole(m, "a message symbol") < code.p for m in message):
        raise DomainError("message symbols must lie in the field")
    out = []
    for x in code.points:
        acc = 0
        for coeff in reversed(message):
            acc = (acc * x + coeff) % code.p
        out.append(acc)
    return tuple(out)


def brute_force_list_recover(
    code: RSCode,
    lists: PositionLists,
    alpha: FractionLike,
    ell: int | None = None,
) -> list[tuple[int, ...]]:
    """All codewords agreeing with the position lists on >= alpha*N spots.

    Every one of the p**K codewords is tested at once on the code's
    packed bit planes (RSCode.codebook_planes): one count of each
    lane's agreements with the lists, one lane gate, and the flagged
    lanes looked up in RSCode.sorted_codebook.  Lane k holds entry k,
    so the output comes out sorted lexicographically, with no sort.
    Exact and deterministic.  Every list symbol must be an int (see
    core._whole) in the field.  alpha is taken as an exact
    rational, so a codeword is kept when it agrees on at least
    ceil(alpha*N) positions.  When ell is given, the total list mass
    sum(|A_i|) is checked against it up front, before any symbol is
    checked or the codebook built; a code past the recovery limits
    raises CapacityError.
    """
    exact = _frac(alpha, "alpha")
    if not 0 <= exact <= 1:
        raise DomainError(f"agreement fraction {alpha} outside [0,1]")
    if len(lists) != code.n:
        raise DomainError(f"got {len(lists)} position lists for N={code.n}")
    mass = sum(len(entries) for entries in lists)
    if ell is not None and mass > ell:
        raise DomainError(f"total list mass {mass} exceeds the budget ell = {ell}")
    for i, entries in enumerate(lists):
        if any(not 0 <= _whole(s, "a position list symbol") < code.p for s in entries):
            raise DomainError(f"position list {i} holds symbols outside the field")
    table = code.codebook_planes
    threshold = math.ceil(exact * code.n)
    (addend,), top = _lane_gate(table, [code.n - threshold])
    flags = (_lane_agreements(table, lists) + addend) & top
    return list(map(code.sorted_codebook.__getitem__, _flagged_lanes(flags, _lane_width(code.n))))
