"""Code containers and seeded constructions: random, random linear, greedy.

Random sampling is backed by a Philox4x64-10 counter-based stream
(PhiloxStream, Salmon, Moraes, Dror & Shaw, SC 2011) written on the
standard library, so that a seed fully determines the sampled code,
independent of platform and call history.  It reproduces numpy's
``Generator(Philox(key=seed))`` draw for draw, which the tests check
against numpy itself, and tests pin content digests of sampled codes.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from array import array
from dataclasses import dataclass
from typing import Sequence

from .core import (
    CapacityError,
    DomainError,
    Word,
    _power_exceeds,
    format_word,
    insdel_distance,
    iter_words,
)

Seed = int

_GREEDY_SPACE_LIMIT = 200_000
_LINEAR_SPAN_LIMIT = 10 ** 6
# Sampling refuses to draw or list more symbols than this in one call.
_SAMPLE_SYMBOL_LIMIT = 10 ** 7
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIMALITY_LIMIT = 3317044064679887385961981

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
# Philox4x64-10: the two round multipliers, the two Weyl key increments.
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_KEY_STEPS = tuple((r * _PHILOX_W0, r * _PHILOX_W1) for r in range(_PHILOX_ROUNDS))
# Most blocks one batch computes, one per 128-bit lane of a big int.
_PHILOX_LANES = 256


@functools.lru_cache(maxsize=None)
def _lane_constants(count: int) -> tuple[int, int, int]:
    """1 in each of count 128-bit lanes, lane j holding j + 1, and 2**64 - 1 in each."""
    ones = sum(1 << 128 * j for j in range(count))
    steps = sum((j + 1) << 128 * j for j in range(count))
    return ones, steps, ones * _M64


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


class PhiloxStream:
    """Philox4x64-10 draws, equal to numpy's Generator(Philox(key=key)) draw for draw.

    Built by philox_generator, or from a _seed_sequence_key.  Block b (from 1)
    encrypts the counter (b, 0, 0, 0) under the 128-bit key, and its
    four 64-bit words are read in order.  numpy increments its 256-bit
    counter from 0 before each block, so the upper three words would
    need 2**64 blocks to leave 0.  A 32-bit draw reads a word's low half
    and buffers its high half for the next 32-bit draw; a 64-bit draw
    reads the next whole word and leaves that buffer alone.  Blocks are
    computed in batches, one per 128-bit lane of a big int, ahead of the
    draws; the halves are kept in order, so reading ahead changes no
    draw.
    """

    __slots__ = ("_lane_keys", "_blocks", "_halves", "_at")

    def __init__(self, key: int) -> None:
        k0, k1 = key & _M64, key >> 64
        # The round keys, repeated in each lane of a batch of that many blocks.
        self._lane_keys = {1: [((k0 + a) & _M64, (k1 + b) & _M64) for a, b in _KEY_STEPS]}
        self._blocks = 0
        # 32-bit halves of the words computed so far, low half first, from
        # a word boundary.  _at is the next unread one, so it is odd while
        # a high half is buffered.
        self._halves: list[int] = []
        self._at = 0

    def _batch(self, count: int) -> tuple[int, ...]:
        """The 32-bit halves of the next count blocks, computed in lanes.

        Each round multiplies the count lanes of two big ints by one
        constant each.  Lane products keep their high word, so the two
        words a round carries over are read from them as they are used,
        with one mask each.
        """
        ones, steps, mask = _lane_constants(count)
        keys = self._lane_keys.get(count)
        if keys is None:
            keys = [(k0 * ones, k1 * ones) for k0, k1 in self._lane_keys[1]]
            self._lane_keys[count] = keys
        x0 = self._blocks * ones + steps
        x2 = prod0 = prod2 = 0
        for k0, k1 in keys:
            new0, new2 = x0 * _PHILOX_M0, x2 * _PHILOX_M1
            x0 = ((new2 >> 64) ^ prod2) & mask ^ k0
            x2 = ((new0 >> 64) ^ prod0) & mask ^ k1
            prod0, prod2 = new0, new2
        self._blocks += count
        if count == 1:
            return struct.unpack("<8I", struct.pack("<4Q", x0, prod2 & mask, x2, prod0 & mask))
        # Lane j of low holds words 0 and 1 of block j, and of high words 2 and 3.
        low = array("Q", (x0 | (prod2 & mask) << 64).to_bytes(16 * count, "little"))
        high = array("Q", (x2 | (prod0 & mask) << 64).to_bytes(16 * count, "little"))
        words = array("Q", bytes(32 * count))
        words[0::4], words[1::4] = low[0::2], low[1::2]
        words[2::4], words[3::4] = high[0::2], high[1::2]
        return struct.unpack(f"<{8 * count}I", words)

    def _reserve(self, end: int) -> None:
        """Compute blocks until _halves reaches index end, dropping whole words read.

        A batch is a power of two of blocks, at least as many as are
        missing and as were computed before, and at most _PHILOX_LANES.
        """
        start = self._at & ~1
        halves = self._halves[start:]
        self._at -= start
        end -= start
        while len(halves) < end:
            need = max(-(-(end - len(halves)) // 8), self._blocks)
            halves.extend(self._batch(min(1 << (need - 1).bit_length(), _PHILOX_LANES)))
        self._halves = halves

    def _draw32(self, count: int) -> list[int]:
        if self._at + count > len(self._halves):
            self._reserve(self._at + count)
        start = self._at
        self._at = start + count
        return self._halves[start : start + count]

    def _draw64(self, count: int) -> list[int]:
        buffered = self._at & 1
        start = self._at + buffered
        if start + 2 * count > len(self._halves):
            self._reserve(start + 2 * count)
            start = self._at + buffered
        h = self._halves[start : start + 2 * count]
        if buffered:
            del self._halves[start : start + 2 * count]
        else:
            self._at = start + 2 * count
        return [lo | hi << 32 for lo, hi in zip(h[0::2], h[1::2])]

    def integers(self, low: int, high: int, size: int | None = None) -> int | list[int]:
        """Uniform integers in [low, high): one int, or a list of size ints.

        numpy's bounded draw (Lemire, ACM TOMACS 2019): with
        r = high - 1 - low, r = 0 draws nothing, r < 2**32 draws 32-bit
        halves and larger r 64-bit words.  A draw x is scaled to
        x * (r + 1) and rejected while its low part is below
        2**bits mod (r + 1); the high part is the value.  At r = 2**32 - 1
        that is the raw half.  A vector filters its halves in order, so
        each rejected one is skipped and the next one is used.  As numpy's
        default int64 draws, the range must be nonempty and within int64.
        """
        if not -(2 ** 63) <= low < high <= 2 ** 63:
            raise ValueError(f"[{low}, {high}) is empty or outside the int64 range")
        r = high - 1 - low
        if r == 0:
            return low if size is None else [low] * size
        bits, draw = (32, self._draw32) if r <= _M32 else (64, self._draw64)
        s = r + 1
        mask = (1 << bits) - 1
        if size is None:
            m = draw(1)[0] * s
            if m & mask < s:
                cut = (1 << bits) % s
                while m & mask < cut:
                    m = draw(1)[0] * s
            return low + (m >> bits)
        cut = (1 << bits) % s
        # Without a cut s is a power of two, so v * s >> bits is a shift.
        shift = bits + 1 - s.bit_length()
        out: list[int] = []
        while len(out) < size:
            # At most one batch of halves is held at a time, whatever the size.
            drawn = draw(min(size - len(out), 8 * _PHILOX_LANES))
            if cut:
                out += [m >> bits for v in drawn if (m := v * s) & mask >= cut]
            else:
                out += [v >> shift for v in drawn]
        return [low + v for v in out] if low else out

    def bytes(self, n: int) -> bytes:
        """n random bytes: 32-bit draws little-endian, as numpy's Generator.bytes.

        That is ceil(n / 4) draws, and one at n = 0 (numpy's C division).
        """
        count = max(1, -(-n // 4))
        return struct.pack(f"<{count}I", *self._draw32(count))[:n]


def philox_generator(seed: Seed) -> PhiloxStream:
    """The Philox4x64-10 stream keyed directly by the seed.

    Returns a PhiloxStream whose two methods, integers(low, high,
    size=None) and bytes(n), give what numpy's
    ``Generator(Philox(key=seed))`` gives, as Python ints and bytes.
    Equal seeds give equal streams regardless of what was sampled before.
    """
    check_seed(seed)
    return PhiloxStream(seed)


# numpy's SeedSequence hash (bit_generator.pyx): pool of four 32-bit words.
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_ENTROPY_WORDS = 8


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """(xor, multiplier) of each of count successive hashmix calls from init.

    hashmix xors the value with its running constant, then multiplies
    the constant and the value by it; the constants never depend on the
    data, so every call's pair is fixed in advance.
    """
    out = []
    for _ in range(count):
        out.append((init, init * mult & _M32))
        init = init * mult & _M32
    return out


def _mix_schedule() -> tuple:
    """The hashmix pairs of SeedSequence.mix_entropy, in call order.

    The pool fill takes one call per pool word, the cross-mix one per
    ordered pair (src, dst) of distinct pool words, and each entropy
    word past the pool one per pool word.  Seed < 2**128 and a block
    index < 2**128 give at most _ENTROPY_WORDS words.
    """
    calls = _POOL_SIZE ** 2 + _POOL_SIZE * (_ENTROPY_WORDS - _POOL_SIZE)
    pairs = iter(_hash_constants(_HASH_INIT_A, _HASH_MULT_A, calls))
    fill = [next(pairs) for _ in range(_POOL_SIZE)]
    cross = [
        (src, dst, *next(pairs))
        for src in range(_POOL_SIZE)
        for dst in range(_POOL_SIZE)
        if src != dst
    ]
    extra = [
        [(dst, *next(pairs)) for dst in range(_POOL_SIZE)]
        for _ in range(_ENTROPY_WORDS - _POOL_SIZE)
    ]
    return fill, cross, extra


_FILL_MIX, _CROSS_MIX, _EXTRA_MIX = _mix_schedule()
_STATE_MIX = _hash_constants(_HASH_INIT_B, _HASH_MULT_B, _POOL_SIZE)


def _seed_sequence_key(*entropy: int) -> int:
    """The Philox key of numpy's ``Philox(SeedSequence(entropy))`` for nonnegative ints.

    Each int is split into 32-bit words, low first (0 is one word 0).
    The first four words fill the pool (missing ones hash as 0), the
    pool words are mixed into each other, and any further word is mixed
    into every pool word; ``generate_state(2, uint64)`` of the pool is
    the key.  More than _ENTROPY_WORDS words raise IndexError.
    """
    words = []
    for v in entropy:
        words.append(v & _M32)
        while v > _M32:
            v >>= 32
            words.append(v & _M32)
    words += [0] * (_POOL_SIZE - len(words))
    pool = []
    for w, (xor, mult) in zip(words, _FILL_MIX):
        v = (w ^ xor) * mult & _M32
        pool.append(v ^ v >> 16)
    for src, dst, xor, mult in _CROSS_MIX:
        v = (pool[src] ^ xor) * mult & _M32
        v = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (v ^ v >> 16)) & _M32
        pool[dst] = v ^ v >> 16
    for k, w in enumerate(words[_POOL_SIZE:]):
        for dst, xor, mult in _EXTRA_MIX[k]:
            v = (w ^ xor) * mult & _M32
            v = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (v ^ v >> 16)) & _M32
            pool[dst] = v ^ v >> 16
    key = 0
    for i, (w, (xor, mult)) in enumerate(zip(pool, _STATE_MIX)):
        v = (w ^ xor) * mult & _M32
        key |= (v ^ v >> 16) << (32 * i)
    return key


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
        syms = tuple(rng.integers(0, q, size=n))
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
        matrix = [rng.integers(0, q, size=n) for _ in range(k)]
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
    import hashlib  # loads OpenSSL; only a digest needs it

    payload = "\n".join(
        [f"q={c.q}", f"n={c.n}"] + [format_word(w) for w in c.sorted_words()]
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def code_to_json_dict(c: Code) -> dict:
    """JSON-ready form {q, n, words:[...]} using the shared word syntax."""
    return {"q": c.q, "n": c.n, "words": [format_word(w) for w in c.sorted_words()]}
