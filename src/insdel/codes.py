"""Code containers and seeded constructions: random, random linear, greedy.

Random sampling is backed by the Philox counter-based generator from
numpy so that a seed fully determines the sampled code, independent of
platform and call history.  Tests pin content digests of sampled codes.
numpy is imported only when a generator is built, so the rest of the
package loads without it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .core import (
    CapacityError,
    DomainError,
    Word,
    _power_exceeds,
    format_word,
    insdel_distance,
    iter_words,
)

if TYPE_CHECKING:
    import numpy as np

Seed = int

_GREEDY_SPACE_LIMIT = 200_000
_LINEAR_SPAN_LIMIT = 10 ** 6
# Sampling refuses to draw or list more symbols than this in one call.
_SAMPLE_SYMBOL_LIMIT = 10 ** 7
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIMALITY_LIMIT = 3317044064679887385961981


@dataclass(frozen=True)
class Code:
    """Set of distinct equal-length words over {0, ..., q-1}."""

    q: int
    n: int
    words: frozenset[Word]

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", frozenset(self.words))
        for w in self.words:
            if w.q != self.q:
                raise DomainError("codeword alphabet does not match the code")
            if len(w) != self.n:
                raise DomainError(f"codeword length {len(w)} differs from n={self.n}")

    def __len__(self) -> int:
        return len(self.words)

    def sorted_words(self) -> list[Word]:
        """Codewords in lexicographic order (the canonical listing)."""
        return sorted(self.words, key=lambda w: w.symbols)


@dataclass(frozen=True)
class LinearCode(Code):
    """Span of independent generators over a prime field, stored explicitly."""

    generators: tuple[Word, ...]


@dataclass(frozen=True)
class CodeStats:
    size: int
    rate: float
    min_distance: int
    relative_distance: float


def check_seed(seed: Seed) -> None:
    """Raise DomainError unless 0 <= seed < 2**128; every seeded stream checks here."""
    if not 0 <= seed < 2 ** 128:
        raise DomainError("seed must be a nonnegative integer below 2**128")


def philox_generator(seed: Seed) -> np.random.Generator:
    """numpy Generator over the Philox4x64 counter-based bit stream.

    The seed is used directly as the Philox key, so equal seeds give
    equal streams regardless of what was sampled before.
    """
    import numpy as np

    check_seed(seed)
    return np.random.Generator(np.random.Philox(key=seed))


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 primes as bases.

    Exact for every p below _PRIMALITY_LIMIT = 3317044064679887385961981
    (Sorenson and Webster, Math. Comp. 2017); larger p raise
    CapacityError, since no base set here proves them prime.
    """
    if p >= _PRIMALITY_LIMIT:
        raise CapacityError(
            f"primality of a {p.bit_length()}-bit number is not decided at or above "
            f"{_PRIMALITY_LIMIT}"
        )
    if p < 2:
        return False
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    # p - 1 = d * 2**s with d odd; (p - 1) & (1 - p) is its lowest set bit.
    s = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_sample_symbols(size: int, n: int) -> None:
    """Raise CapacityError if size words of length n exceed _SAMPLE_SYMBOL_LIMIT symbols."""
    if size * n > _SAMPLE_SYMBOL_LIMIT:
        raise CapacityError(
            f"sampling {size} words of length {n} exceeds {_SAMPLE_SYMBOL_LIMIT} symbols"
        )


def sample_word_sequence(q: int, n: int, size: int, seed: Seed) -> list[Word]:
    """Sample `size` distinct uniform words of length n, in draw order.

    Duplicates are rejected and redrawn, so the result is a uniformly
    random ordered sample without replacement.  Deterministic per seed.
    More than _SAMPLE_SYMBOL_LIMIT symbols (size * n) raise
    CapacityError before anything is drawn.
    """
    if q < 2 or n < 0 or size < 0:
        raise DomainError("need q >= 2, n >= 0, size >= 0")
    _check_sample_symbols(size, n)
    if size and not _power_exceeds(q, n, size - 1):
        raise CapacityError(f"cannot pick {size} distinct words from q^n = {q ** n}")
    rng = philox_generator(seed)
    seen: set[tuple[int, ...]] = set()
    out: list[Word] = []
    while len(out) < size:
        syms = tuple(int(v) for v in rng.integers(0, q, size=n))
        if syms not in seen:
            seen.add(syms)
            out.append(Word(syms, q))
    return out


def sample_random_code(q: int, n: int, size: int, seed: Seed) -> Code:
    """Uniformly sampled code of `size` distinct words; deterministic per seed."""
    return Code(q, n, frozenset(sample_word_sequence(q, n, size, seed)))


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    # Gaussian elimination over F_p; rows is modified in place.
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _linear_span(p: int, n: int, rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Every codeword of the span of rows over F_p, in itertools.product message order.

    Each of the k rows holds n values; symbol j of message m's codeword
    is sum(m[i] * rows[i][j]) mod p.  Built by linearity: position j's
    column over all messages grows one message symbol at a time, each
    step adding that symbol's p multiples of rows[i][j] to every entry
    so far, and the columns are zipped into codewords.  At k = 0 that
    is the single word 0^n, and at n = 0 every message has the empty
    codeword.  The caller bounds p**k * n first.
    """
    columns = []
    for j in range(n):
        column = [0]
        for row in rows:
            terms = [m * row[j] % p for m in range(p)]
            column = [(c + t) % p for c in column for t in terms]
        columns.append(column)
    return tuple(zip(*columns)) if n else ((),) * p ** len(rows)


def sample_random_linear_code(q: int, n: int, k: int, seed: Seed) -> LinearCode:
    """Sample k independent generators over F_q and return their span.

    Generator matrices are redrawn whole until the rank is k.  Restricted
    to prime q: linearity needs field structure and nothing in this
    package requires extension fields.  A span of more than
    _LINEAR_SPAN_LIMIT words, or of more than _SAMPLE_SYMBOL_LIMIT
    symbols (q^k * n), raises CapacityError before anything is drawn.
    """
    if not 0 <= k <= n:
        raise DomainError(f"dimension k={k} must lie in [0, n={n}]")
    # A span too large to list is refused before q is tested for primality.
    if q >= 2:
        if _power_exceeds(q, k, _LINEAR_SPAN_LIMIT):
            raise CapacityError(f"span size q^k = {q}^{k} exceeds limit {_LINEAR_SPAN_LIMIT}")
        _check_sample_symbols(q ** k, n)
    if not _is_prime(q):
        raise DomainError(f"linear codes need a prime alphabet size, got {q}")
    rng = philox_generator(seed)
    while True:
        matrix = [[int(v) for v in rng.integers(0, q, size=n)] for _ in range(k)]
        if k == 0 or _rank_mod_p([row[:] for row in matrix], q) == k:
            break
    span = frozenset(Word._unchecked(syms, q) for syms in _linear_span(q, n, matrix))
    generators = tuple(Word(tuple(row), q) for row in matrix)
    return LinearCode(q=q, n=n, words=span, generators=generators)


def greedy_gv_code(q: int, n: int, d: int) -> Code:
    """Greedy code construction seeded with all q repetition words.

    Scans Sigma_q^n in lexicographic order and admits every word at
    insdel distance >= d from all current members.  The repetition words
    are pairwise at distance 2n, so they are always a valid seed set.
    """
    if q < 2:
        raise DomainError(f"alphabet size must be at least 2, got {q}")
    if n < 1:
        raise DomainError("greedy construction needs n >= 1")
    if not 0 < d <= 2 * n:
        raise DomainError(f"need 0 < d <= 2n, got d={d}, n={n}")
    if _power_exceeds(q, n, _GREEDY_SPACE_LIMIT):
        raise CapacityError(f"q^n = {q}^{n} exceeds greedy scan limit {_GREEDY_SPACE_LIMIT}")
    members = [Word((a,) * n, q) for a in range(q)]
    member_set = set(members)
    for cand in iter_words(q, n):
        if cand in member_set:
            continue
        if all(insdel_distance(cand, m) >= d for m in members):
            members.append(cand)
            member_set.add(cand)
    return Code(q, n, frozenset(member_set))


def code_stats(c: Code) -> CodeStats:
    """Rate, minimum insdel distance, and relative distance d/(2n)."""
    size = len(c.words)
    if size < 2:
        raise DomainError("minimum distance is undefined for codes with fewer than 2 words")
    if c.n < 1:
        raise DomainError("rate is undefined for n = 0")
    rate = math.log(size) / (c.n * math.log(c.q))
    listing = c.sorted_words()
    min_distance = min(
        insdel_distance(a, b) for a, b in itertools.combinations(listing, 2)
    )
    return CodeStats(
        size=size,
        rate=rate,
        min_distance=min_distance,
        relative_distance=min_distance / (2 * c.n),
    )


def code_digest(c: Code) -> str:
    """Stable content hash of a code (sha256 over the canonical listing)."""
    payload = "\n".join(
        [f"q={c.q}", f"n={c.n}"] + [format_word(w) for w in c.sorted_words()]
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def code_to_json_dict(c: Code) -> dict:
    """JSON-ready form {q, n, words:[...]} using the shared word syntax."""
    return {"q": c.q, "n": c.n, "words": [format_word(w) for w in c.sorted_words()]}
