"""Indexed concatenation codes: encoding, window grids, list decoding.

The construction concatenates a Reed-Solomon outer code with a small
random inner code whose encoder takes (index, outer symbol) pairs.  The
index is the block position reduced to a short cyclic counter, which is
what lets the decoder place a locally decoded symbol into the right
outer positions.  Decoding scans a grid of candidate windows over the
received word, list-decodes each window against the inner encoder's
whole domain, and narrows the admissible block positions for every hit
window to one interval by exact arithmetic before handing the
accumulated position lists to exhaustive outer list recovery.

ConcatParams is the parameter record, keyed like its JSON form: it
checks each field once, then builds the outer and inner codes from them.

Every edit count is an integer, so ConcatParams turns its rational
radii into whole edit counts once (radius, inner_radius) and the
per-window feasibility and inner-radius tests compare ints only.  The
window grid is whole numbers too: its bounds and census cap are
computed once per ConcatParams (window_grid, window_cap), and
build_windows returns them as a WindowGrid, a record of five ints whose
len() is the window census.  Fractions appear only at construction and
in the once-per-decode list-mass cap.
Rational parameters may be given as Fraction, int, or string ("2/5");
floats are accepted and converted via their shortest decimal
representation.

The decoder computes each invariant at the level where it stops
changing: one LCS match table over every inner-domain word, each word
in its own lane of a big integer, its S-gram table holding every
S-gram a received word can have, and every block position's
inner-word symbol tuples, once per ConcatParams; the outer code's
lexicographic codebook and its packed bit planes once per RSCode.
Each listed word is built once per ConcatParams: a word missing from
the params' memo is built in one batch from the block symbol tuples,
without re-validating symbols that come from already-validated inner
words, and stored with an int key whose order is the words' symbol
order, so the list is sorted by key.
The scan walks the grid's (lam, mu) ranges directly, after checking its
work (starts * longest window * lane bits) against _SCAN_WORK_LIMIT.
It runs one bit-parallel LCS recurrence per S consecutive window
starts, over the longest window content of each, which counts the LCS
of every domain word against S starts at once: the inner lane table is
repeated S times side by side, and each step reads one S-gram of the
received word (the multiple-text packing of Hyyrö, Fredriksson &
Navarro).  S is the largest count with (q + 1)**S <= _SCAN_GRAM_LIMIT:
4 at q = 4, 6 at q = 2.  Then it gates one window length L at a time
across every recurrence, S starts per add, each start's counter after
L symbols against the inner radius at L.  The edge rule: a window is
gated at its nominal length even where it runs past the end of the
received word.  Past the end a start reads sentinels that match
nothing, so each missing symbol costs one edit.  Only a window inside
the word is feasible for any block position (feasible_jN), so the rule
decides which windows count in the report's two match counters, never
a position list.  The list mass only grows during the scan, so it is
checked against ell_out after each batch of recurrences.  A start's
flags are split out of its recurrence's only when those are nonzero.
The feasible block positions of a window depend only on (lam, mu, M),
so they are cached per ConcatParams and received length M
(length_tables), on hit windows only: a window's first hit costs the
one feasible_jN call it would make without the cache, and later hits
read the slot.  Only decodable lengths reach the cache, so it holds at
most 2 * radius + 1 lengths, each with one slot per window of its
census.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from itertools import compress, cycle
from operator import itemgetter
from typing import Sequence

from .codes import Seed, check_seed, sample_word_sequence
from .core import BoundViolationError, CapacityError, DomainError, RegimeWarning, Word
from .core import FractionLike, _LaneTable, _flagged_lanes, _frac, _gram_keys, _gram_table
from .core import _lane_blocks, _lane_budget, _lane_gate, _lane_width, _lcs_steps
from .core import _packed_match_table, _repeat_groups, _split_groups, _whole
from .decode import RSCode, _check_recovery_size, brute_force_list_recover, rs_encode

# ConcatParams refuses an inner encoder of more symbols than this
# (index count * p words of length n) before sampling it, so each of the
# decoder's packed LCS counters holds at most about this many bits.
_INNER_SYMBOL_LIMIT = 10 ** 5
# The decoder holds the LCS rows of about this many bits of counters at
# once, and one start's row when that alone is larger.
_SCAN_BATCH_BITS = 1 << 25
# The decoder refuses, before building its lane or gram tables, a scan of
# more lane bits than this: window starts * longest window * inner words *
# (n + 1), one recurrence step per start and symbol over every lane.
_SCAN_WORK_LIMIT = 1 << 32
# The decoder runs S window starts in one recurrence, S the largest count
# with (q + 1)**S grams at most this (and at least 1).
_SCAN_GRAM_LIMIT = 1 << 10


@dataclass(frozen=True)
class ConcatParams:
    """The parameter record; the outer RS code and inner words are built from it.

    The init fields are the params JSON keys.  __post_init__ checks each
    once (counts by core._whole, rationals by core._frac) and, before
    anything is built, N <= p for the default points 0..N-1, at most
    _INNER_SYMBOL_LIMIT inner symbols (else CapacityError) and N given
    points.  Then it builds outer (points keeps the tuple outer
    normalises), refuses a codebook past the recovery limits with
    CapacityError and samples inner from inner_seed; neither is printed
    or compared.  inner is the inner encoder: eps_cont_N * p distinct
    words of length n over q, word k encoding (index, sym) with
    divmod(k, p) = (index - 1, sym).

    Derived quantities, each computed once per instance: tau_hat =
    tau_in - tau_star is the alignment grid pitch (tau_hat_n = tau_hat * n
    must be a positive integer), eps_cont_N = eps_cont * N is the number
    of encoder indices, and tau = (1 - alpha_out) * tau_in - eps_conc is
    the decoding radius as a fraction of the total length n*N.  In whole
    edits, radius = floor(tau * n * N) is the decoding radius and
    inner_radius = floor(tau_in * n) the inner list-decoding radius; an
    integer edit count exceeds a rational bound exactly when it exceeds
    the bound's floor, so the decoder compares against these two ints.
    The decoder's listed words are memoized per instance (listed_words):
    each is built once, and the list is ordered by its int key.  The
    feasible block positions of each hit window are cached per received
    length (length_tables): at most 2 * radius + 1 lengths, and a
    feasibility miss costs only the feasible_jN call the decoder would
    make without the cache.
    """

    N: int
    n: int
    q: int
    p: int
    K: int
    eps_cont: Fraction
    eps_in: Fraction
    eps_out: Fraction
    eps_conc: Fraction
    tau_in: Fraction
    tau_star: Fraction
    alpha_out: Fraction
    ell_out: int
    inner_seed: Seed
    points: tuple[int, ...] | None = None
    outer: RSCode = field(init=False, repr=False, compare=False)
    inner: tuple[Word, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("N", "n", "q", "p", "K", "ell_out", "inner_seed"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        for name in ("eps_cont", "eps_in", "eps_out", "eps_conc", "tau_in",
                     "tau_star", "alpha_out"):
            object.__setattr__(self, name, _frac(getattr(self, name), name))
        N, n, p = self.N, self.n, self.p
        if N < 1 or n < 1:
            raise DomainError("outer and inner lengths must be positive")
        if self.q < 2:
            raise DomainError("alphabet size must be at least 2")
        if self.ell_out < 0:
            raise DomainError("outer list-mass budget must be nonnegative")
        for name in ("eps_in", "eps_out", "eps_conc"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be nonnegative")
        if not 0 < self.alpha_out <= 1:
            raise DomainError("agreement fraction alpha_out must be in (0, 1]")
        if not 0 < self.tau_star < self.tau_in:
            raise DomainError("need 0 < tau_star < tau_in")
        if not 0 < self.eps_cont <= 1:
            raise DomainError("eps_cont must be in (0, 1]")
        if (self.eps_cont * N).denominator != 1 or self.eps_cont * N < 1:
            raise DomainError("eps_cont * N must be a positive integer")
        step = self.tau_hat * n
        if step.denominator != 1 or step < 1:
            raise DomainError("(tau_in - tau_star) * n must be a positive integer")
        if self.tau < 0:
            raise DomainError(
                "decoding radius (1 - alpha_out) * tau_in - eps_conc is negative"
            )
        check_seed(self.inner_seed)
        if self.points is None and N > p:
            raise DomainError(f"need N <= p for the default evaluation points, got N={N}, p={p}")
        if self.eps_cont_N * p * n > _INNER_SYMBOL_LIMIT:
            raise CapacityError(
                f"an inner encoder of {self.eps_cont_N} * {p} words of length {n} exceeds "
                f"{_INNER_SYMBOL_LIMIT} symbols"
            )
        points = range(N) if self.points is None else self.points
        if len(points) != N:
            raise DomainError(f"outer code length {len(points)} differs from N={N}")
        outer = RSCode(p=p, k=self.K, points=points)
        _check_recovery_size(p, self.K, N)
        object.__setattr__(self, "points", outer.points)
        object.__setattr__(self, "outer", outer)
        words = sample_word_sequence(self.q, n, self.eps_cont_N * p, self.inner_seed)
        object.__setattr__(self, "inner", tuple(words))
        if self.alpha_out < 1:
            needed = self.tau_in - self.eps_conc / (1 - self.alpha_out)
            if self.tau_star < needed:
                warnings.warn(
                    "tau_star below tau_in - eps_conc/(1 - alpha_out); the "
                    "decoding guarantee needs the good-block threshold to "
                    "absorb the whole budget",
                    RegimeWarning,
                    stacklevel=2,
                )

    @cached_property
    def tau_hat(self) -> Fraction:
        return self.tau_in - self.tau_star

    @cached_property
    def tau_hat_n(self) -> int:
        return int(self.tau_hat * self.n)

    @cached_property
    def eps_cont_N(self) -> int:
        return int(self.eps_cont * self.N)

    @cached_property
    def tau(self) -> Fraction:
        return (1 - self.alpha_out) * self.tau_in - self.eps_conc

    @cached_property
    def radius(self) -> int:
        return math.floor(self.tau * self.n * self.N)

    @cached_property
    def inner_radius(self) -> int:
        return math.floor(self.tau_in * self.n)

    @cached_property
    def window_grid(self) -> tuple[int, int, int]:
        """Whole-number window grid bounds (shrunk, mu_lo, mu_hi).

        shrunk = ceil(max(0, 1 - tau_star) * n) is the shortest content a
        block can shrink to.  Window lengths mu * step run over mu_lo =
        ceil(shrunk / step) .. mu_hi = floor(1 + (1 + tau_star) * n / step),
        and over a received word of length M the window starts lam * step
        run over lam = 0 .. 1 + (M - shrunk) // step.  Each is the floor
        or ceiling of a rational grid bound, exact because M and step are
        whole numbers.
        """
        step = self.tau_hat_n
        tau_star_n = math.floor(self.tau_star * self.n)
        shrunk = max(0, self.n - tau_star_n)
        return shrunk, -(-shrunk // step), 1 + (self.n + tau_star_n) // step

    @cached_property
    def window_cap(self) -> int:
        """Linear-size cap on the window census of a decodable received word.

        (width / tau_hat + 2) * (lengths / tau_hat + 2) with width =
        (1 + tau) * N - max(0, 1 - tau_star) and lengths = min(2 * tau_star,
        1 + tau_star); a whole count exceeds it exactly when it exceeds
        its floor.
        """
        width = (1 + self.tau) * self.N - max(Fraction(0), 1 - self.tau_star)
        lengths = min(2 * self.tau_star, 1 + self.tau_star)
        return math.floor((width / self.tau_hat + 2) * (lengths / self.tau_hat + 2))

    @cached_property
    def block_symbols(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per block position i (0-based), the symbols of its p inner words.

        Block i carries encoder index i mod eps_cont_N + 1, so
        block_symbols[i][sym] is the symbol tuple of the inner word of
        (i mod eps_cont_N + 1, sym), the word's own tuple, so the table
        adds N * (8 * p + 48) + 48 bytes at most on a 64-bit CPython.
        Built on first use.
        """
        words, E, p = self.inner, self.eps_cont_N, self.p
        return tuple(
            tuple(w.symbols for w in words[(i % E) * p : (i % E + 1) * p]) for i in range(self.N)
        )

    @cached_property
    def inner_grams(self) -> tuple[int, _LaneTable, list[int], list[int]]:
        """(S, table, addends, tops): the scan's LCS table and gate over every inner word.

        S is the largest count with (q + 1)**S <= _SCAN_GRAM_LIMIT, and at
        least 1.  Lane k of the packed LCS table (core._packed_match_table)
        holds inner[k]; the gram table holds S copies of those lanes side
        by side, copy s at bit s * G with G = inner words * (n + 1), and
        its match dict holds the entry of every S-gram key a received word
        can have (core._gram_table): at most (q**(S + 1) - 1) // (q - 1)
        - 1 entries, 126 on DESK and 340 on SHARP, and at S = 1 one per
        symbol of the inner words, however large q is.  For every window
        length L up to mu_hi * tau_hat_n, (counts + addends[L]) & tops[k]
        flags, in each of the first k copies, the lanes within
        inner_radius of a length-L window with LCS counter counts.  With
        m such lengths and g entries, its ints of at most S * G bits take
        (g + m + S + 3) * (S * G // 7 + 64) + g * (8 * S + 120) + 512
        bytes at most on a 64-bit CPython.  Built on the first decode,
        then shared by every decode.
        """
        words, n = [w.symbols for w in self.inner], self.n
        table = _packed_match_table(words, n)
        lengths = range(self.window_grid[2] * self.tau_hat_n + 1)
        addends, top = _lane_gate(table, [_lane_budget(self.inner_radius, n, L) for L in lengths])
        S = 1
        while (self.q + 1) ** (S + 1) <= _SCAN_GRAM_LIMIT:
            S += 1
        G = len(words) * _lane_width(n)
        return (
            S,
            _gram_table(table, self.q, S, G),
            [_repeat_groups(addend, S, G) for addend in addends],
            [_repeat_groups(top, k, G) for k in range(S + 1)],
        )

    @cached_property
    def listed_words(
        self,
    ) -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, ...], tuple[int, Word]]]:
        """(digits, memo): the decoder's memo of listed concatenated words.

        digits[i][sym] is the lexicographic rank of block i's inner word
        for sym, times p**(N - 1 - i), so sum(digits[i][c[i]]) is one int
        key per outer codeword c.  Every block is n symbols long and a
        block's p words are distinct, so integer order of the keys is
        symbol order of the concatenated words.  memo maps an outer
        codeword to (key, concatenated word); the decoder fills it with
        recovered codebook members only, so it never holds more than
        p**K entries.  Its keys are the recovered codeword tuples
        themselves, so an entry costs its key int, pair, word and dict
        slot: with the N * p digits counted as entries too, both hold at
        most (p**K + N * p) * (8 * n * N + N * p.bit_length() // 7 + 320)
        bytes on a 64-bit CPython.  Built on first use, then shared by
        every decode.
        """
        p, N = self.p, self.N
        digits = []
        for i, block in enumerate(self.block_symbols):
            scale, digit = p ** (N - 1 - i), [0] * p
            for rank, sym in enumerate(sorted(range(p), key=block.__getitem__)):
                digit[sym] = rank * scale
            digits.append(tuple(digit))
        return tuple(digits), {}

    @cached_property
    def length_tables(self) -> tuple[dict[int, list[list[range | None]]], dict[range, range]]:
        """(tables, shared): the decoder's feasibility slots per received length M.

        tables[M] is built by the first decode of a length-M word:
        tables[M][mu - mu_lo][lam] is feasible_jN(lam, mu, self, M), or
        None until a decode first finds a hit in window (lam, mu), so a
        window without hits never calls feasible_jN.  shared keeps one
        copy of every range.  Only decodable lengths are kept, at most
        2 * radius + 1.  A length of W windows and m window lengths holds
        8 * W + 64 * m + 512 bytes of lists at most, and shared 256 bytes
        per range, on a 64-bit CPython.  Built on first use, then shared
        by every decode.
        """
        return {}, {}


@dataclass(frozen=True)
class ConcatDecodeReport:
    """Decoder output plus the bookkeeping the runtime bounds refer to."""

    codewords: tuple[Word, ...]
    outer_codewords: tuple[tuple[int, ...], ...]
    position_lists: tuple[frozenset[int], ...]
    window_count: int
    inner_match_total: int
    max_inner_list: int
    list_mass: int
    # Scan and listing statistics, kept out of the printed and compared
    # report.  listed_word_misses counts the words this decode built.
    scan_recurrences: int = field(repr=False, compare=False)
    starts_per_recurrence: int = field(repr=False, compare=False)
    listed_word_misses: int = field(repr=False, compare=False)


def make_concat_params(
    N: int,
    n: int,
    q: int,
    p: int,
    K: int,
    eps_cont: FractionLike,
    eps_in: FractionLike,
    eps_out: FractionLike,
    eps_conc: FractionLike,
    tau_in: FractionLike,
    tau_star: FractionLike,
    alpha_out: FractionLike,
    ell_out: int,
    inner_seed: Seed,
    points: Sequence[int] | None = None,
) -> ConcatParams:
    """Build params, sampling the inner encoder from the given seed.

    A keyword pass-through to ConcatParams, which checks every field
    before it builds the outer code or samples the inner encoder.
    """
    return ConcatParams(
        N=N, n=n, q=q, p=p, K=K, eps_cont=eps_cont, eps_in=eps_in, eps_out=eps_out,
        eps_conc=eps_conc, tau_in=tau_in, tau_star=tau_star, alpha_out=alpha_out,
        ell_out=ell_out, inner_seed=inner_seed, points=points,
    )


def concat_encode(params: ConcatParams, outer_codeword: Sequence[int]) -> Word:
    """Concatenate the inner encodings of an outer codeword (ints in [0, p)), block by block."""
    if len(outer_codeword) != params.N:
        raise DomainError(
            f"outer codeword length {len(outer_codeword)} differs from N={params.N}"
        )
    p = params.p
    for sym in outer_codeword:
        if not 0 <= _whole(sym, "an outer symbol") < p:
            raise DomainError(f"outer symbol {sym} outside [0, {p})")
    return _concat_words(params, [outer_codeword])[0]


def _concat_words(params: ConcatParams, outer_codewords: Sequence[Sequence[int]]) -> list[Word]:
    """The concatenated words of outer codewords already checked to lie in [0, p)^N.

    Each word joins the block symbol tuples its symbols pick out of
    params.block_symbols; the blocks are inner encoder words over q, so
    the result needs no re-validation.
    """
    blocks, q = params.block_symbols, params.q
    out = []
    for cw in outer_codewords:
        symbols: list[int] = []
        for block in map(tuple.__getitem__, blocks, cw):
            symbols += block
        out.append(Word._unchecked(tuple(symbols), q))
    return out


def concat_encode_message(params: ConcatParams, message: Sequence[int]) -> Word:
    """Encode an outer message: Reed-Solomon first, then concatenation."""
    return concat_encode(params, rs_encode(params.outer, message))


@dataclass(frozen=True, slots=True)
class WindowGrid:
    """The grid windows over a received word of length M, as five ints.

    Window (lam, mu) starts at phi = lam * step and spans mu * step
    symbols, for lam in 0..lam_hi and mu in mu_lo..mu_hi; a window may
    run past the end of the received word (see the module docstring for
    how it is gated).  len() is the window census, the closed-form size
    of that rectangle.
    """

    step: int
    M: int
    lam_hi: int
    mu_lo: int
    mu_hi: int

    def __len__(self) -> int:
        return max(0, self.lam_hi + 1) * max(0, self.mu_hi - self.mu_lo + 1)


def build_windows(params: ConcatParams, M: int) -> WindowGrid:
    """The grid of windows over a received word of length M.

    Start offsets are lam * step for lam in a range wide enough to reach
    the end of the received word; nominal lengths are mu * step with mu
    spanning every length an inner block can stretch or shrink to on the
    grid.  Windows running past the right edge are kept, so the grid
    coordinate ranges stay rectangular.  The bounds are whole numbers
    computed once per params (ConcatParams.window_grid); when M is within
    the decoding radius of n * N, the census is checked against
    ConcatParams.window_cap.
    """
    if M < 0:
        raise DomainError("received length must be nonnegative")
    step = params.tau_hat_n
    shrunk, mu_lo, mu_hi = params.window_grid
    grid = WindowGrid(step=step, M=M, lam_hi=1 + (M - shrunk) // step, mu_lo=mu_lo, mu_hi=mu_hi)
    if abs(M - params.n * params.N) <= params.radius and len(grid) > params.window_cap:
        raise BoundViolationError("window census exceeded its linear-size cap")
    return grid


def feasible_jN(lam: int, mu: int, params: ConcatParams, M: int) -> range:
    """Zero-based block positions a window can speak about.

    Position j carries encoder index j mod eps_cont_N + 1, so the hits
    of every index share one interval.  The closed-form interval is
    guarded by the window-level feasibility gates (inner radius,
    window-in-word, and the budget's emptiness condition), which makes
    the result match a direct scan of the per-position requirements;
    positions outside [0, N - 1] are dropped.

    Every quantity here is a whole number of edits, so each comparison
    with the rational radius tau * n * N uses its floor, params.radius,
    and the interval ends are integer ceil/floor divisions.
    """
    if lam < 0 or mu < 0 or M < 0:
        raise DomainError("feasibility inputs must be nonnegative")
    n, N = params.n, params.N
    radius = params.radius
    step = params.tau_hat_n
    sp = lam * step
    length = mu * step
    stretch = n - length
    if abs(stretch) > params.inner_radius:
        return range(0)
    if sp > M - length:
        return range(0)
    if abs((M - n * N) + stretch) + abs(stretch) > radius:
        return range(0)
    base = n * N - M + 2 * sp
    first = max(0, -((radius - base + 2 * min(stretch, 0)) // (2 * n)))
    last = min((base - 2 * max(stretch, 0) + radius) // (2 * n), N - 1)
    if (last - first) * n > radius:
        raise BoundViolationError("feasible block positions span more than radius / n")
    return range(first, last + 1)


def list_decode_concat_detailed(params: ConcatParams, r: Word) -> ConcatDecodeReport:
    """Window-scan list decoding with full bookkeeping.

    Every grid window is list-decoded against the inner encoder's whole
    domain; each hit contributes its outer symbol to the position lists
    of every feasible block position.  Outer recovery tests every outer
    codeword at once on the code's packed bit planes.
    In the regime tau_star >= tau_in - eps_conc / (1 - alpha_out), or
    alpha_out = 1: if the received word is within (1 - alpha_out) *
    tau_in - eps_conc of a codeword (as a fraction of n*N), that
    codeword is in the output.  ConcatParams raises RegimeWarning
    outside the regime, where a codeword within that radius can be
    missed.  A scan of more than _SCAN_WORK_LIMIT lane bits (see there)
    raises CapacityError before the inner lane tables are built, and a
    list mass over ell_out raises DomainError as soon as the scan
    reaches it.
    """
    if r.q != params.q:
        raise DomainError(f"received word alphabet {r.q} differs from q={params.q}")
    M = len(r)
    total = params.n * params.N
    if abs(M - total) > params.radius:
        raise DomainError(
            f"received length {M} outside the decodable range "
            f"[{max(0, total - params.radius)}, {total + params.radius}]"
        )
    windows = build_windows(params, M)
    step, mu_lo, mu_hi = windows.step, windows.mu_lo, windows.mu_hi
    mus = range(mu_lo, mu_hi + 1)
    starts = range(0, (windows.lam_hi + 1) * step, step)
    longest = mu_hi * step
    width = _lane_width(params.n)
    lane_bits = len(params.inner) * width
    work = len(starts) * longest * lane_bits
    if work > _SCAN_WORK_LIMIT:
        raise CapacityError(f"a window scan of {work} lane bits exceeds {_SCAN_WORK_LIMIT}")
    E, p = params.eps_cont_N, params.p
    S, grams, addends, tops = params.inner_grams
    # Recurrence h runs starts h*S .. h*S + S - 1 at once, start h*S + s in
    # group s, over the longest window from its first start: step t reads
    # the S-gram key at heads[h] + t.  Every window is gated at its nominal
    # length (see the module docstring); the last recurrence keeps the gate
    # bits of its real starts only.
    heads = starts[::S]
    gate_tops = [tops[S]] * (len(heads) - 1) + [tops[(len(starts) - 1) % S + 1]]
    keys = _gram_keys(r.symbols, params.q, step, S, starts.stop + longest)
    tables, shared = params.length_tables
    by_mu = tables.get(M)
    if by_mu is None:
        by_mu = tables[M] = [[None] * len(starts) for _ in mus]
    # hit_lanes[j] gathers the gate flags of every (index, sym) lane hit
    # by a window that position j is feasible for, whatever the index;
    # position j keeps the lanes of the index it carries, j mod E, whose
    # gate bits are index_gates[j % E].
    hit_lanes = [0] * params.N
    index_gates = _lane_blocks(tops[1], width, p, E)
    match_total = max_inner_list = mass = 0
    # Rows are held for a batch of recurrences at a time: about
    # _SCAN_BATCH_BITS of counters, and never less than one recurrence's row.
    row_bits = (longest + 1) * S * lane_bits
    batch = max(1, _SCAN_BATCH_BITS // row_bits)
    for first in range(0, len(heads), batch):
        # rows[k][L] is the counter of recurrence first + k after L symbols.
        rows = [
            list(_lcs_steps(keys[phi : phi + longest], grams)) for phi in heads[first : first + batch]
        ]
        batch_tops = gate_tops[first : first + batch]
        for mu, positions in zip(mus, by_mu):
            L = mu * step
            addend = addends[L]
            flags = [(row[L] + addend) & top for row, top in zip(rows, batch_tops)]
            counts = list(map(int.bit_count, flags))
            match_total += sum(counts)
            # Split the recurrences with a hit: groups[i] holds the flags of
            # start lams[i].  A start flags at most its recurrence's count.
            hit = list(compress(range(first, first + len(flags)), flags))
            groups = _split_groups(compress(flags, flags), S, lane_bits)
            lams = [lam for h in hit for lam in range(h * S, h * S + S)]
            if max(counts) > max_inner_list:
                max_inner_list = max(max_inner_list, max(map(int.bit_count, groups)))
            for lam, bits in compress(zip(lams, groups), groups):
                span = positions[lam]
                if span is None:
                    span = feasible_jN(lam, mu, params, M)
                    span = positions[lam] = shared.setdefault(span, span)
                for j in span:
                    hit_lanes[j] |= bits
        # hit_lanes only gains bits, so the list mass only grows, and after
        # the last batch it is the exact mass.
        mass = sum(map(int.bit_count, map(int.__and__, hit_lanes, cycle(index_gates))))
        if mass > params.ell_out:
            raise DomainError(
                f"the position lists hold at least {mass} entries, over the budget "
                f"ell_out = {params.ell_out}"
            )

    lists = [
        [k % p for k in _flagged_lanes(bits & gate, width)]
        for bits, gate in zip(hit_lanes, cycle(index_gates))
    ]
    cap = len(windows) * max_inner_list * (params.tau / params.eps_cont + 1)
    if mass > cap:
        raise BoundViolationError("position-list mass exceeded the window-count bound")
    # A frozenset prints colliding symbols in insertion order; inserting
    # in sorted order makes the printed report independent of scan order.
    frozen = tuple([frozenset(sorted(entries)) for entries in lists])
    outer_hits = brute_force_list_recover(params.outer, frozen, params.alpha_out)
    # Each listed word is built once per params; the list is ordered by
    # its unique int key, which orders it by symbols.
    digits, memo = params.listed_words
    entries = list(map(memo.get, outer_hits))
    misses = []
    if None in entries:
        misses = [cw for cw, entry in zip(outer_hits, entries) if entry is None]
        for cw, word in zip(misses, _concat_words(params, misses)):
            memo[cw] = (sum(map(tuple.__getitem__, digits, cw)), word)
        entries = list(map(memo.__getitem__, outer_hits))
    entries.sort(key=itemgetter(0))
    return ConcatDecodeReport(
        codewords=tuple([word for _, word in entries]),
        outer_codewords=tuple(outer_hits),
        position_lists=frozen,
        window_count=len(windows),
        inner_match_total=match_total,
        max_inner_list=max_inner_list,
        list_mass=mass,
        scan_recurrences=len(heads),
        starts_per_recurrence=S,
        listed_word_misses=len(misses),
    )


def list_decode_concat(params: ConcatParams, r: Word) -> list[Word]:
    """All concatenated codewords the window-scan decoder can account for."""
    return list(list_decode_concat_detailed(params, r).codewords)


def concat_stats(params: ConcatParams) -> dict:
    """Rate bookkeeping: overall rate vs the outer/inner product.

    The indexing overhead costs exactly K * log_q(index_count) / (n*N),
    so rate = r_out * r_in - overhead with overhead nonnegative.
    """
    n_total = params.n * params.N
    rate = params.K * math.log(params.p, params.q) / n_total
    r_out = params.K / params.N
    r_in = math.log(params.eps_cont_N * params.p, params.q) / params.n
    return {
        "rate": rate,
        "r_out": r_out,
        "r_in": r_in,
        "epsilon": r_out * r_in - rate,
        "code_size": params.p ** params.K,
        "length": n_total,
    }


def params_to_json_dict(params: ConcatParams) -> dict:
    """JSON-ready parameter record, one key per ConcatParams field; rationals serialize as strings."""
    return {
        "N": params.N,
        "n": params.n,
        "q": params.q,
        "p": params.p,
        "K": params.K,
        "points": list(params.points),
        "eps_cont": str(params.eps_cont),
        "eps_in": str(params.eps_in),
        "eps_out": str(params.eps_out),
        "eps_conc": str(params.eps_conc),
        "tau_in": str(params.tau_in),
        "tau_star": str(params.tau_star),
        "alpha_out": str(params.alpha_out),
        "ell_out": params.ell_out,
        "inner_seed": params.inner_seed,
    }


def params_from_json_dict(data: dict) -> ConcatParams:
    """Rebuild params from a JSON record, resampling the inner encoder.

    The fields go to make_concat_params as they are, so ConcatParams
    checks each once: integer fields and evaluation points must be JSON
    integers (8.5, 8.0, "8" and true are refused, see core._whole).  A
    missing field, or any field ConcatParams refuses with DomainError,
    raises DomainError naming the record; CapacityError passes through.
    """
    names = [f.name for f in fields(ConcatParams) if f.init and f.name != "points"]
    try:
        return make_concat_params(**{name: data[name] for name in names}, points=data.get("points"))
    except KeyError as exc:
        raise DomainError(f"parameter record is missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:  # DomainError is a ValueError
        raise DomainError(f"parameter record has a malformed field: {exc}") from exc
