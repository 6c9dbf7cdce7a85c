"""Words over integer alphabets and the insertion-deletion metric.

The distance used throughout this package is the minimum number of
single-symbol insertions and deletions that turn one word into another.
It is computed from the longest common subsequence:

    dist(a, b) = len(a) + len(b) - 2 * lcs(a, b)

One bit-parallel kernel computes it: a match table over equal-length
words, each in its own (n+1)-bit lane of a big int, and one recurrence
that advances a word against every lane and counts each lane's LCS in
a packed counter.  The distance reads a one-lane counter; certification
and the concat scan test every lane of a counter against one radius
with one add.  The concat scan also runs several texts in one
recurrence: a gram table repeats the lanes once per text, side by
side, and is keyed by grams, tuples holding one symbol of each text,
so the same recurrence advances every text against every word.  The
same lanes hold a Reed-Solomon codebook as bit planes, and the same add
tests every lane's count of agreements with a list recovery's position
lists.

Deletion neighborhoods of a word are governed by its run-length
structure, so the run decomposition helpers live here too.  A word is
decomposed around its nonzero symbols: ``w`` counts them, and ``t``
counts the empty gaps between consecutive nonzeros (including the gaps
before the first and after the last nonzero, and capped at ``w`` so the
bounds below stay meaningful for words with no zero symbol at all).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence


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


def _whole(value: object, name: str) -> int:
    """value as an int, through operator.index; a bool or non-integer raises DomainError.

    Refuses 1.9 and 1.0 where int() would truncate or pass them, and
    True where it would read 1.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


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
        # operator.index refuses 1.9 and "1", which int() would truncate or
        # parse.  From a list: tuple(iterator) reaches its size by resizing,
        # and a resized small tuple is freed into a CPython freelist it was
        # never taken from, which only a full GC drains.
        try:
            symbols = tuple([*map(operator.index, self.symbols)])
        except TypeError as exc:
            raise DomainError(f"word symbols must be integers: {exc}") from exc
        object.__setattr__(self, "symbols", symbols)
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
    """Iterate all q**length words of the given length in lexicographic order.

    Bad arguments raise DomainError at the call, before anything is iterated.
    """
    if q < 2:
        raise DomainError(f"alphabet size must be at least 2, got {q}")
    if length < 0:
        raise DomainError(f"word length must be nonnegative, got {length}")
    return (Word(syms, q) for syms in itertools.product(range(q), repeat=length))


# Maps the digits b"0" and b"1" to the bytes 0 and 1, false and true.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _lane_width(n: int) -> int:
    """Bits per lane for words of length n: n + 1.

    Bits 0..n-1 of a lane hold the recurrence's bit vector; bit n stays
    clear there and takes the one carry a lane's addition can produce.
    A lane of the packed LCS counter holds at most n, so it fits too.
    """
    return n + 1


def _pack_lanes(values: Sequence[int], width: int) -> int:
    """sum(values[k] << k * width): each value, below 2**width, in lane k.

    Neighbours are joined pairwise, doubling the width each round, so
    every round touches each bit once and the whole join costs
    O(bits * log(lanes)) instead of the quadratic cost of or-ing each
    lane into one growing int.
    """
    values = list(values)
    while len(values) > 1:
        if len(values) % 2:
            values.append(0)
        values = [lo | hi << width for lo, hi in zip(values[::2], values[1::2])]
        width *= 2
    return values[0] if values else 0


# A packed LCS table (match, mask, ones, n), as _packed_match_table builds it;
# a gram table (_gram_table) keys match by grams instead of symbols.
_LaneTable = tuple[dict[int, int], int, int, int]


def _packed_match_table(words: Sequence[tuple[int, ...]], n: int) -> _LaneTable:
    """The LCS match table over words of length n, word k in lane k.

    The package's LCS table layout: (match, mask, ones, n).  Lane k is
    bits [k*P, k*P + n] with P = _lane_width(n): match[y] has bit
    k*P + j set iff words[k][j] == y, mask covers the n low bits of
    every lane and ones bit 0 of every lane.  One run of
    :func:`_lcs_steps` over xs then advances the recurrence of xs
    against every word at once.  A single word is the one-lane case,
    the table :func:`insdel_distance` uses.
    """
    width = _lane_width(n)
    rows: list[dict[int, int]] = []
    for ys in words:
        if len(ys) != n:
            raise BoundViolationError(f"packed word {len(rows)} has length {len(ys)}, not {n}")
        row: dict[int, int] = {}
        for j, y in enumerate(ys):
            row[y] = row.get(y, 0) | 1 << j
        rows.append(row)
    symbols = dict.fromkeys(y for row in rows for y in row)
    match = {y: _pack_lanes([row.get(y, 0) for row in rows], width) for y in symbols}
    ones = ((1 << len(rows) * width) - 1) // ((1 << width) - 1)
    return match, ((1 << n) - 1) * ones, ones, n


# A packed bit-plane table (planes, ones, n), as _packed_plane_table builds
# it: ones and n as in _LaneTable.
_PlaneTable = tuple[list[int], int, int]


def _packed_plane_table(words: Sequence[tuple[int, ...]], n: int, q: int) -> _PlaneTable:
    """Bit planes of words of length n over {0..q-1}, word k in lane k.

    Lanes are laid out as in :func:`_packed_match_table`, but a symbol is
    stored by its bits: planes[b] has bit k*P + j set iff bit b of
    words[k][j] is set, for b below the bit length of q - 1.  That is
    log2(q) planes where a match table would hold q ints.  Each word is
    first spread into one int holding all of its planes, plane b at bit
    b*P, from a per-symbol table; each plane is then cut out of those
    ints and its lanes joined by :func:`_pack_lanes`.
    """
    width = _lane_width(n)
    depth = (q - 1).bit_length()
    spread = [
        sum((y >> b & 1) << b * width for b in range(depth)) for y in range(q)
    ]
    shifts = range(n)
    rows = [sum(map(operator.lshift, map(spread.__getitem__, ys), shifts)) for ys in words]
    lane = (1 << width) - 1
    planes = [
        _pack_lanes([row >> b * width & lane for row in rows], width) for b in range(depth)
    ]
    ones = ((1 << len(rows) * width) - 1) // ((1 << width) - 1)
    return planes, ones, n


def _lane_agreements(table: _PlaneTable, lists: Sequence[Iterable[int]]) -> int:
    """Packed per-lane count of the positions j whose symbol lies in lists[j].

    For each symbol s any list holds, the planes (where s has a one
    bit) and their complements (where it has a zero) are anded,
    starting from the lanes' bits of the positions whose list holds s;
    what is left marks the lanes and positions holding s.  Or-ing those
    marks over every s and adding the n slices shifted to bit 0 counts
    each lane's agreements, at most n, in its lane.  A symbol with a
    bit above the planes is held by no word and agrees nowhere.
    """
    planes, ones, n = table
    positions: dict[int, int] = {}
    for j, entries in enumerate(lists):
        for s in entries:
            positions[s] = positions.get(s, 0) | 1 << j
    agree = 0
    for s, where in positions.items():
        if s >> len(planes):
            continue
        marks = where * ones
        for b, plane in enumerate(planes):
            # marks & ~plane without building the negative int ~plane.
            marks = marks & plane if s >> b & 1 else marks ^ (marks & plane)
        agree |= marks
    counts = 0
    for j in range(n):
        counts += agree >> j & ones
    return counts


def _lane_budget(radius: int, n: int, length: int) -> int:
    """The gate budget that flags the lane words within radius of a length-`length` xs.

    A lane word is n + length - 2*lcs from xs: within radius iff n - lcs <= budget.
    """
    return (radius + n - length) // 2


def _lane_gate(table: _LaneTable | _PlaneTable, budgets: Sequence[int]) -> tuple[list[int], int]:
    """The lane test of a packed table's per-lane counters, once per budget.

    A counter holds c_k <= n in lane k: an LCS from :func:`_lcs_steps`
    or an agreement count from :func:`_lane_agreements`.  Returns
    (addends, top): (counts + addends[i]) & top has bit n of lane k set
    exactly when n - c_k <= budgets[i], i.e. c_k >= t for t = n -
    budgets[i] clamped to [0, n + 1].  One add of 2**n - t in every lane
    carries lane k into bit n exactly then, and one and keeps those
    bits.  No sum leaves its lane, as c_k <= n < 2**n and 2**n - t >= 0.
    """
    ones, n = table[-2:]
    return [((1 << n) - min(max(n - most, 0), n + 1)) * ones for most in budgets], ones << n


def _lane_blocks(value: int, width: int, lanes: int, count: int) -> list[int]:
    """value cut into `count` blocks of `lanes` lanes each, every block kept in place.

    Entry i holds the bits of lanes i*lanes .. (i+1)*lanes - 1 of value
    and no other bit, so and-ing a lane gate's flags with it keeps the
    flags of those lanes.
    """
    run = lanes * width
    block = (1 << run) - 1
    return [value & block << i * run for i in range(count)]


def _flagged_lanes(flags: int, width: int) -> Iterator[int]:
    """Lane numbers, ascending, of the lanes whose gate bit (width - 1) is set.

    flags is a lane gate's output, (counts + addend) & top, so no other
    bit is set.  Its lowest set bit is the gate bit of the first flagged
    lane; shifted down to it, the gate bit of lane first + k sits at bit
    k * width, so the binary string read from its last character back
    at stride width holds the gate bits from the first flagged lane to
    the last, in lane order, and one compress over it keeps the set
    ones.  The cost is linear in the bits between the first and the
    last flagged lane, and no Python step runs per lane.
    """
    low = max((flags & -flags).bit_length() - 1, 0)
    gates = format(flags >> low, "b")[::-width]
    first = low // width
    return itertools.compress(
        range(first, first + len(gates)), gates.encode().translate(_BIT_BYTES)
    )


def _lcs_steps(xs: tuple[int, ...], table: _LaneTable) -> Iterator[int]:
    """Packed LCS counter of xs[:L] against the table's word(s), for L = 0..len(xs).

    The one Hyyrö step of the package (Allison-Dix; Crochemore,
    Iliopoulos, Pinzon & Reid; Hyyrö): each symbol of xs advances the
    bit vector V of every lane with a mask, an addition, a subtraction
    and an or.  A lane's LCS grows by one exactly when its addition
    carries out of bit n - 1 into the lane's spare bit n, so three more
    operations (shift, and, add) count it: lane k of the yielded
    counter holds lcs(xs[:L], words[k]).  V stays internal.  Masking
    after each step drops the carry, which goes no further because bit n
    is clear in both summands, and v - u never borrows because u is a
    subset of v.
    """
    match, mask, ones, n = table
    v = mask
    counts = 0
    yield counts
    for x in xs:
        u = v & match.get(x, 0)
        s = v + u
        counts += (s >> n) & ones
        v = (s | (v - u)) & mask
        yield counts


def _repeat_groups(value: int, groups: int, width: int) -> int:
    """value, below 2**width, in each of `groups` groups: group s at bit s*width."""
    return value * _pack_lanes([1] * groups, width)


def _gram_table(table: _LaneTable, q: int, groups: int, width: int) -> _LaneTable:
    """An LCS table for `groups` texts over q symbols at once against table's words.

    The multiple-text packing of Hyyrö, Fredriksson & Navarro: group s
    is a copy of table's lanes at bit s*width, width being the table's
    bit width, and runs against text s.  The match dict is keyed by
    gram keys (:func:`_gram_keys`), so one run of :func:`_lcs_steps`
    over a key sequence advances every group's recurrence at once.  A
    gram's entry holds, in group s, table's match entry of the gram's
    symbol s; a symbol without one, such as the sentinel q, matches
    nothing.  Past the end of a text a gram's sentinels form a suffix,
    so a key is j <= groups symbols below q followed by groups - j
    sentinels: (q**(groups + 1) - 1) // (q - 1) grams in all.  Every
    one is built here, and those matching nothing, the all-sentinel
    gram among them, are not stored.  At one group only table's symbols
    are tried, so q may be huge; callers pack more groups at small q only.
    """
    match, mask, ones, n = table
    symbols = range(q) if groups > 1 else sorted(match)
    grams = {}
    for j in range(groups + 1):
        tail = (q,) * (groups - j)
        for head in itertools.product(symbols, repeat=j):
            entry = _pack_lanes([match.get(symbol, 0) for symbol in head], width)
            if entry:
                grams[head + tail] = entry
    return grams, _repeat_groups(mask, groups, width), _repeat_groups(ones, groups, width), n


def _gram_keys(
    xs: Sequence[int], q: int, step: int, groups: int, length: int
) -> list[tuple[int, ...]]:
    """The `groups`-gram of xs at each position i < length, as a match key.

    The gram at i is (xs[i], xs[i + step], ..., xs[i + (groups-1)*step]),
    with the sentinel q standing for every symbol past the end of xs.
    Run from position i in a gram table, group s reads xs from
    i + s*step; a sentinel matches nothing, so a group's counter stops
    at the last symbol of xs, and a gate at a length past the end
    charges each missing symbol as one edit.
    """
    length = max(0, length)
    padded = tuple(xs) + (q,) * (length + (groups - 1) * step - len(xs))
    return list(zip(*[padded[s * step : s * step + length] for s in range(groups)]))


def _split_groups(words: Iterable[int], groups: int, width: int) -> list[int]:
    """The width-bit groups of each word, each shifted to bit 0, in one list.

    Entry k*groups + s is group s (at bit s*width) of the k-th word.
    """
    group = (1 << width) - 1
    shifts = range(0, groups * width, width)
    return [word >> shift & group for word in words for shift in shifts]


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
    for lcs in _lcs_steps(xs, _packed_match_table((ys,), n)):
        pass
    return len(xs) + n - 2 * lcs


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
