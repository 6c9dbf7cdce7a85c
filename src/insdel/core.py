"""Words over integer alphabets and the insertion-deletion metric.

The distance used throughout this package is the minimum number of
single-symbol insertions and deletions that turn one word into another.
It is computed from the longest common subsequence:

    dist(a, b) = len(a) + len(b) - 2 * lcs(a, b)

One bit-parallel kernel computes it: a match table over equal-length
words, each in its own lane of a big int, and one recurrence that
advances a word against every lane.  The distance uses a one-lane table;
certification and the concat scan gate many lanes against one radius.

Deletion neighborhoods of a word are governed by its run-length
structure, so the run decomposition helpers live here too.  A word is
decomposed around its nonzero symbols: ``w`` counts them, and ``t``
counts the empty gaps between consecutive nonzeros (including the gaps
before the first and after the last nonzero, and capped at ``w`` so the
bounds below stay meaningful for words with no zero symbol at all).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence


class InsdelError(Exception):
    """Base class for every error raised by this package."""


class AlphabetMismatchError(InsdelError):
    """Words over different alphabets were combined."""


class DomainError(InsdelError, ValueError):
    """A numeric argument lies outside the documented domain."""


class OutOfRegimeError(DomainError):
    """Arguments are individually valid but outside a formula's regime."""


class CapacityError(InsdelError):
    """An exhaustive operation would exceed its documented size limit."""


class BoundViolationError(InsdelError):
    """A proven runtime bound was exceeded; this signals a bug, not bad input."""


class ScriptError(DomainError):
    """An edit script does not apply to the word it was given."""


class RegimeWarning(UserWarning):
    """A formula was evaluated outside its guaranteed parameter regime."""


FractionLike = Fraction | int | float | str


def _frac(value: FractionLike, name: str) -> Fraction:
    """Exact rational from a Fraction, int or string; floats via their decimal string."""
    try:
        if isinstance(value, float):
            return Fraction(str(value))
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DomainError(f"{name} is not a valid rational: {value!r}") from exc


def _power_exceeds(base: int, exponent: int, limit: int) -> bool:
    """Whether base**exponent > limit (base >= 2), never building more than limit * base."""
    value = 1
    for _ in range(exponent):
        value *= base
        if value > limit:
            return True
    return False


@dataclass(frozen=True)
class Word:
    """Immutable word over the alphabet {0, ..., q-1}.

    The alphabet is identified by its size ``q``.  Symbols are stored as
    a tuple of ints; the empty word is valid.
    """

    symbols: tuple[int, ...]
    q: int

    def __post_init__(self) -> None:
        # From a list, not a generator: tuple(genexpr) reaches its size by
        # resizing, and a resized small tuple is freed into a CPython
        # freelist it was never taken from, which only a full GC drains.
        object.__setattr__(self, "symbols", tuple([int(s) for s in self.symbols]))
        if self.q < 2:
            raise DomainError(f"alphabet size must be at least 2, got {self.q}")
        for s in self.symbols:
            if not 0 <= s < self.q:
                raise DomainError(f"symbol {s} outside alphabet of size {self.q}")

    @classmethod
    def _unchecked(cls, symbols: tuple[int, ...], q: int) -> "Word":
        """Build a word from symbols already validated as a tuple of ints below q."""
        w = object.__new__(cls)
        object.__setattr__(w, "symbols", symbols)
        object.__setattr__(w, "q", q)
        return w

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word._unchecked(self.symbols[item], self.q)
        return self.symbols[item]

    def __str__(self) -> str:
        return format_word(self)


@dataclass(frozen=True)
class RunProfile:
    """Nonzero count ``w``, empty-gap count ``t``, and run count ``phi``."""

    w: int
    t: int
    phi: int


def word(symbols: Iterable[int], q: int) -> Word:
    """Convenience constructor accepting any iterable of symbols."""
    return Word(tuple(symbols), q)


def format_word(w: Word) -> str:
    """Serialize a word: digit string for q <= 10, comma-separated ints above."""
    if w.q <= 10:
        return "".join(str(s) for s in w.symbols)
    return ",".join(str(s) for s in w.symbols)


def parse_word(text: str, q: int) -> Word:
    """Parse the serialization produced by :func:`format_word`.

    The empty string denotes the empty word for either alphabet size.
    Raises :class:`DomainError` on malformed input or out-of-range symbols.
    """
    text = text.strip()
    if not text:
        return Word((), q)
    try:
        if q <= 10:
            syms = tuple(int(ch) for ch in text)
        else:
            syms = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse word {text!r} over alphabet {q}") from exc
    return Word(syms, q)


def iter_words(q: int, length: int) -> Iterator[Word]:
    """Iterate all q**length words of the given length in lexicographic order."""
    for syms in itertools.product(range(q), repeat=length):
        yield Word(syms, q)


def _lane_width(n: int) -> int:
    """Bits per lane for words of length n: the least power of two >= max(n+1, 8).

    Bit n of every lane stays clear, so it absorbs the one carry a lane's
    addition can produce, and whole bytes per lane let the lane popcount
    of :func:`_lane_gate` start from byte counts.
    """
    return 1 << (n | 7).bit_length()


def _lane_ones(width: int, lanes: int) -> int:
    """The integer with bit k*width set for each k below lanes."""
    return ((1 << width * lanes) - 1) // ((1 << width) - 1)


def _packed_match_table(
    words: Sequence[tuple[int, ...]], n: int
) -> tuple[dict[int, int], int]:
    """The LCS match table over words of length n, word k in lane k.

    The package's only table layout.  Lane k is bits [k*P, k*P + n) with
    P = _lane_width(n): match[y] has bit k*P + j set iff words[k][j] == y,
    and mask covers the n low bits of every lane.  One run of
    :func:`_lcs_steps` over xs then advances the recurrence of xs against
    every word at once: masking after each step drops the carry into bit
    n of a lane, which goes no further because bit n is clear in both
    summands, and v - u never borrows because u is a subset of v.  A
    single word is the one-lane case, the table :func:`insdel_distance` uses.
    """
    width = _lane_width(n)
    match: dict[int, int] = {}
    start = 0
    for ys in words:
        if len(ys) != n:
            raise BoundViolationError(f"packed word {start // width} has length {len(ys)}, not {n}")
        for j, y in enumerate(ys, start):
            match[y] = match.get(y, 0) | 1 << j
        start += width
    # _lane_ones(width, len(words)) inlined: insdel_distance builds a
    # one-lane table per call.
    return match, ((1 << n) - 1) * ((1 << start) - 1) // ((1 << width) - 1)


def _lane_budget(radius: int, n: int, length: int) -> int:
    """The gate budget that flags the lane words within radius of a length-`length` xs.

    A lane word is n + length - 2*lcs from xs and its lane holds n - lcs set bits.
    """
    return (radius + n - length) // 2


def _lane_gate(n: int, lanes: int) -> Callable[[int, int], int]:
    """Test every lane of a packed LCS vector against one set-bit budget.

    The returned gate(v, most) has the top bit of lane k set exactly
    when lane k of v holds at most `most` set bits, i.e. when
    n - lcs(words[k], xs) <= most for the xs that produced v.  It
    counts each lane's bits by sideways addition (byte counts, then
    log2(P/8) folds that add neighbouring halves) and adds the bias
    2**(P-1) - 1 - most to every lane, whose top bit is then set
    exactly when the count exceeds `most`.  No sum leaves its lane:
    counts stay at most n and the bias below 2**(P-1).
    """
    width = _lane_width(n)
    bits = width * lanes
    ones = _lane_ones(width, lanes)
    top = ones << width - 1
    half = (1 << width - 1) - 1
    bytes_ = _lane_ones(8, bits // 8)
    m1, m2, m4 = 0x55 * bytes_, 0x33 * bytes_, 0x0F * bytes_
    # Fold s adds the high half of each 2s-bit block into its low half.
    folds = [
        (s, ((1 << s) - 1) * _lane_ones(2 * s, bits // (2 * s)))
        for s in (8 << i for i in range((width // 8).bit_length() - 1))
    ]

    def gate(v: int, most: int) -> int:
        if most < 0:
            return 0
        if most >= n:
            return top
        v -= (v >> 1) & m1
        v = (v & m2) + ((v >> 2) & m2)
        v = (v + (v >> 4)) & m4
        for shift, keep in folds:
            v = (v + (v >> shift)) & keep
        return ~(v + (half - most) * ones) & top

    return gate


def _flagged_lanes(flags: int, width: int) -> Iterator[int]:
    """Lane numbers, ascending, of the set bits of flags (one per lane)."""
    while flags:
        low = flags & -flags
        yield (low.bit_length() - 1) // width
        flags ^= low


def _lcs_steps(xs: tuple[int, ...], table: tuple[dict[int, int], int]) -> Iterator[int]:
    """Bit vector V of xs[:L] against the table's word(s), for L = 0..len(xs).

    The one Hyyrö step of the package (Allison-Dix, Hyyrö): each symbol
    of xs costs a mask, an addition, a subtraction and an or on the whole
    vector.  Bit j of a lane of V is clear iff ys[j] raises the LCS over
    ys[:j], where ys is that lane's word, so LCS(xs[:L], ys[:j]) =
    j - (lane & (2**j - 1)).bit_count() for every j.
    """
    match, mask = table
    v = mask
    yield v
    for x in xs:
        u = v & match.get(x, 0)
        v = ((v + u) | (v - u)) & mask
        yield v


def lcs_length(a: Word, b: Word) -> int:
    """Length of the longest common subsequence of two words.

    Both words must live over the same alphabet.  The empty word has an
    LCS of 0 with everything.
    """
    return (len(a.symbols) + len(b.symbols) - insdel_distance(a, b)) // 2


def insdel_distance(a: Word, b: Word) -> int:
    """Minimum number of insertions plus deletions turning ``a`` into ``b``.

    Equals ``len(a) + len(b) - 2 * lcs_length(a, b)``.  This is a metric;
    for words of equal length it is always even, and in general it is
    bounded between ``abs(len(a) - len(b))`` and ``len(a) + len(b)``.
    """
    if a.q != b.q:
        raise AlphabetMismatchError(f"alphabet sizes differ: {a.q} vs {b.q}")
    # The kernel loops over its first argument, so hand it the shorter word.
    xs, ys = a.symbols, b.symbols
    if len(xs) > len(ys):
        xs, ys = ys, xs
    n = len(ys)
    for v in _lcs_steps(xs, _packed_match_table((ys,), n)):
        pass
    # ys has n - lcs bits set in v, and len(xs) + n - 2 * lcs = the distance.
    return len(xs) - n + 2 * v.bit_count()


def count_runs(w: Word) -> int:
    """Number of maximal runs of equal symbols; 0 for the empty word."""
    return sum(1 for _ in itertools.groupby(w.symbols))


def run_profile(w: Word) -> RunProfile:
    """Compute the run profile (w, t, phi) of a word.

    ``w`` is the number of nonzero symbols.  Writing the word as
    zero blocks interleaved with its nonzero symbols,

        (0,)*a1, x1, (0,)*a2, x2, ..., xw, (0,)*a_{w+1}

    ``t`` counts the gap lengths ``a_i`` equal to zero, capped at ``w``
    (an all-nonzero word has w+1 empty gaps but t is reported as w, which
    keeps the run-count bounds valid).  ``phi`` is the run count.
    """
    nonzero_positions = [i for i, s in enumerate(w.symbols) if s != 0]
    weight = len(nonzero_positions)
    if weight == 0:
        t = 0
    else:
        gaps = []
        prev = -1
        for i in nonzero_positions:
            gaps.append(i - prev - 1)
            prev = i
        gaps.append(len(w) - 1 - prev)
        t = min(sum(1 for g in gaps if g == 0), weight)
    return RunProfile(w=weight, t=t, phi=count_runs(w))


def is_repetition(w: Word) -> bool:
    """True if all symbols are equal (the empty word counts as a repetition)."""
    return len(set(w.symbols)) <= 1


def hamming_weight(w: Word) -> int:
    """Number of nonzero symbols."""
    return sum(1 for s in w.symbols if s != 0)
