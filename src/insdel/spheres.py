"""Exact neighborhoods under the insertion-deletion metric.

Insertion spheres have a center-independent closed-form size.  Deletion
spheres do not; their size is sandwiched by binomial expressions in the
run count of the center.  Fixed-length ball slices are enumerated either
by exhaustive scan (oracle mode) or by one deletion sphere followed by
insertions (fast mode), and bounded analytically through the run
profile of the center; fast mode bounds its own levels, not q**n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .core import (
    CapacityError,
    DomainError,
    OutOfRegimeError,
    RunProfile,
    Word,
    _power_exceeds,
    insdel_distance,
    iter_words,
)

_ENUM_LIMIT = 10 ** 6


@dataclass(frozen=True)
class BallQuery:
    """Ball slice query: words of length target_len within radius of center."""

    center: Word
    radius: int
    target_len: int

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise DomainError(f"radius must be nonnegative, got {self.radius}")
        if self.target_len < 0:
            raise DomainError(f"target length must be nonnegative, got {self.target_len}")


def _binom(a: int, b: int) -> int:
    """C(a, b), defined as 0 whenever a < 0 or b < 0 or b > a."""
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


def insertion_sphere_size(n1: int, n2: int, q: int) -> int:
    """Number of length-(n1+n2) supersequences of any length-n1 word.

    Center independence is what makes the closed form possible:

        sum_{i=0}^{n2} C(n1+n2, i) * (q-1)**i

    Exact arbitrary-precision integer.
    """
    if n1 < 0 or n2 < 0 or q < 2:
        raise DomainError("need n1 >= 0, n2 >= 0, q >= 2")
    return sum(_binom(n1 + n2, i) * (q - 1) ** i for i in range(n2 + 1))


def _edit_levels(level: set[tuple], steps: int, pieces: list[tuple], cut: int) -> set[tuple]:
    """Every tuple `steps` edits away from level, one BFS level (a set) per edit.

    An edit turns syms into syms[:pos] + piece + syms[pos + cut:]: with
    cut = 0 the one-symbol pieces insert, with cut = 1 the piece () deletes.
    """
    for _ in range(steps):
        level = {
            syms[:pos] + piece + syms[pos + cut:]
            for syms in level
            for pos in range(len(syms) + 1 - cut)
            for piece in pieces
        }
    return level


def enumerate_insertion_sphere(s: Word, n2: int) -> set[Word]:
    """All distinct words obtained from s by exactly n2 insertions."""
    if n2 < 0:
        raise DomainError("insertion count must be nonnegative")
    # The closed form is q**n2 for the empty word and grows with len(s),
    # so q**n2 refuses a huge sphere before its closed form is summed.
    if _power_exceeds(s.q, n2, _ENUM_LIMIT) or insertion_sphere_size(len(s), n2, s.q) > _ENUM_LIMIT:
        raise CapacityError(f"{n2} insertions exceed the {_ENUM_LIMIT} element limit")
    level = _edit_levels({s.symbols}, n2, [(a,) for a in range(s.q)], 0)
    return {Word._unchecked(syms, s.q) for syms in level}


def _deletion_sphere_rows(s: Word, n2: int) -> Iterator[list[int]]:
    """Deletion-sphere sizes of radius 0..n2 of every prefix of s, shortest first.

    Row i holds the number of distinct length-(i-d) subsequences of
    s[:i] for d = 0..n2, counted with the last-occurrence recurrence; the
    last row is the sphere sizes of s itself.  A subsequence of s[:i]
    with d deletions is one of s[:i-1] with d - 1 deletions, or one of
    s[:i-1] with d deletions followed by x = s[i-1].  The two kinds
    share the words that can already end at p, the previous occurrence
    of x: those of s[:p-1] with d - (i - p) deletions, followed by x,
    which are subtracted once.  O(|s| * n2) big-int additions, keeping
    one row per symbol.
    """
    row = [1] + [0] * n2  # the empty prefix
    yield row
    before: dict[int, tuple[int, list[int]]] = {}
    for i, x in enumerate(s.symbols, 1):
        new = [row[0]] + [row[d - 1] + row[d] for d in range(1, n2 + 1)]
        if x in before:
            p, old = before[x]
            for d in range(i - p, n2 + 1):
                new[d] -= old[d - (i - p)]
        before[x] = (i, row)
        row = new
        yield row


def enumerate_deletion_sphere(s: Word, n2: int) -> set[Word]:
    """All distinct length-(|s|-n2) subsequences of s."""
    if not 0 <= n2 <= len(s):
        raise DomainError(f"cannot delete {n2} symbols from a word of length {len(s)}")
    # The BFS holds the sphere of every radius up to n2 in turn.  A
    # subsequence of s[:i] with d deletions, extended by s[i:], is a
    # distinct one of s, so each prefix row bounds the sphere sizes from
    # below and the first row above the limit already refuses.
    if any(max(row) > _ENUM_LIMIT for row in _deletion_sphere_rows(s, n2)):
        raise CapacityError(
            f"{n2} deletions pass through a sphere above the {_ENUM_LIMIT} element limit"
        )
    level = _edit_levels({s.symbols}, n2, [()], 1)
    return {Word._unchecked(syms, s.q) for syms in level}


def deletion_sphere_bounds(phi: int, n2: int) -> tuple[int, int]:
    """Sandwich for the deletion-sphere size of a center with phi runs.

    lower = sum_{i=0}^{n2} C(phi-n2, i), upper = C(phi+n2-1, n2); both
    depend on the center only through its run count.  Binomials with a
    negative top vanish, so large n2 degrades the lower bound to 0
    gracefully.  At n2 = 1 both bounds equal phi.
    """
    if phi < 1 or n2 < 0:
        raise DomainError("need phi >= 1 and n2 >= 0")
    lower = sum(_binom(phi - n2, i) for i in range(n2 + 1))
    upper = _binom(phi + n2 - 1, n2)
    return lower, upper


def enumerate_ball_fixed_length(qy: BallQuery, mode: str = "fast") -> set[Word]:
    """Words of length target_len within insdel distance radius of the center.

    Empty in either mode when |m - target_len| > radius.  Oracle mode
    scans all of Sigma_q^target_len, refused past _ENUM_LIMIT words, and
    filters by distance.  Fast mode composes one deletion sphere with
    one insertion BFS: it deletes the most symbols the radius allows,
    g_hi = min(m, (radius + m - target_len) // 2), and inserts
    g_hi + target_len - m; a word within the radius shares a subsequence
    of length m - g_hi with the center, so fewer deletions reach no
    further member.  It bounds its own levels: the deletion sphere
    counts them exactly, and an insertion level holds at most |shrunk| *
    insertion_sphere_size(m - g_hi, inserts, q) words.  The two modes
    agree exactly; tests rely on that.
    """
    if mode not in ("fast", "oracle"):
        raise DomainError(f"unknown mode {mode!r}; use 'fast' or 'oracle'")
    center, radius, n = qy.center, qy.radius, qy.target_len
    m, q = len(center), center.q
    if abs(m - n) > radius:
        return set()
    if mode == "oracle":
        if _power_exceeds(q, n, _ENUM_LIMIT):
            raise CapacityError(
                f"q**target_len = {q}**{n} exceeds the enumeration limit {_ENUM_LIMIT}"
            )
        return {x for x in iter_words(q, n) if insdel_distance(center, x) <= radius}
    g_hi = min(m, (radius + m - n) // 2)
    shrunk = {w.symbols for w in enumerate_deletion_sphere(center, g_hi)}
    inserts = g_hi + n - m
    # The insertion sphere is at least q**inserts, so that check bounds its sum.
    if (
        _power_exceeds(q, inserts, _ENUM_LIMIT)
        or len(shrunk) * insertion_sphere_size(m - g_hi, inserts, q) > _ENUM_LIMIT
    ):
        raise CapacityError(
            f"{inserts} insertions into a deletion sphere of {len(shrunk)} exceed the "
            f"{_ENUM_LIMIT} element limit"
        )
    out = _edit_levels(shrunk, inserts, [(a,) for a in range(q)], 0)
    return {Word._unchecked(syms, q) for syms in out}


def repetition_ball_exact(m: int, n: int, tau_n: int, q: int) -> int:
    """Exact count of length-n words within tau_n of a repetition center.

    Around (alpha,)*m the distance to x of length n is max(n-m, m-n+2w)
    where w is the number of non-alpha symbols in x, which yields

        sum_{w=0}^{floor((tau_n+n-m)/2)} C(n, w) * (q-1)**w

    The center's symbol does not matter by symmetry.
    """
    if m < 0 or n < 0 or q < 2:
        raise DomainError("need m >= 0, n >= 0, q >= 2")
    if tau_n < abs(n - m):
        raise DomainError(
            f"radius {tau_n} below |n-m| = {abs(n - m)}; the slice is empty and "
            "the closed form does not apply"
        )
    top = min(n, (tau_n + n - m) // 2)
    return sum(_binom(n, w) * (q - 1) ** w for w in range(top + 1))


def ball_size_upper_bound(
    profile: RunProfile, m: int, n: int, tau, q: int, slack: float = 2.0
) -> float:
    """Upper-bound exponent (base-q log) of a fixed-length ball slice.

    Bounds log_q of the number of length-n words within floor(tau*n) of
    a non-repetition center of length m with the given run profile.  The
    exponent is assembled from the deletion phase (run-count binomial)
    and the insertion phase (entropy volume), writing

        g = (floor(tau*n) - n + m) / 2         deletions from the center
        kappa_star = (floor(tau*n) + n - m) / (2n)   insertion fraction

    with base B = 2w - t for q >= 3 and B = 2(w - t) + 2 for q = 2, plus
    an explicit slack term slack * log_q(n) standing in for the
    polylogarithmic factors.  The exhaustive desk-scale sweep in the
    tests validates the default slack of 2 with room to spare.
    """
    if q < 2:
        raise DomainError("need q >= 2")
    if n < 1:
        raise DomainError("target length must be at least 1")
    if profile.phi <= 1:
        raise DomainError(
            "bound applies to non-repetition centers; use repetition_ball_exact"
        )
    radius = math.floor(tau * n)
    if not n - radius <= m <= n + radius:
        raise DomainError(
            f"center length {m} outside [n - tau*n, n + tau*n] = "
            f"[{n - radius}, {n + radius}]"
        )
    kappa_star = (radius + n - m) / (2 * n)
    if kappa_star >= (q - 1) / q:
        raise OutOfRegimeError(
            f"kappa* = {kappa_star:.4f} is at or above (q-1)/q; the entropy "
            "volume argument fails"
        )
    g = (radius - n + m) / 2
    base = 2 * profile.w - profile.t if q >= 3 else 2 * (profile.w - profile.t) + 2
    from .bounds import entropy_q

    exponent = slack * (math.log(n) / math.log(q))
    if g > 0:
        exponent += (base + g) * entropy_q(q, min(1.0, g / (base + g)))
        if q >= 3:
            exponent -= g * (math.log(q - 1) / math.log(q))
    exponent += n * entropy_q(q, kappa_star)
    return exponent
