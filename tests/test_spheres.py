"""Sphere enumeration, closed forms, and the ball-size exponent."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from insdel.core import (
    CapacityError,
    DomainError,
    OutOfRegimeError,
    count_runs,
    insdel_distance,
    iter_words,
    run_profile,
    word,
)
from insdel.spheres import (
    BallQuery,
    ball_size_upper_bound,
    deletion_sphere_bounds,
    enumerate_ball_fixed_length,
    enumerate_deletion_sphere,
    enumerate_insertion_sphere,
    insertion_sphere_size,
    repetition_ball_exact,
    _deletion_sphere_rows,
)
from insdel import spheres

from oracles import all_tuples, lcs_ref


def small_words(max_q=3, max_len=5):
    return st.integers(2, max_q).flatmap(
        lambda q: st.lists(st.integers(0, q - 1), max_size=max_len).map(
            lambda syms: word(syms, q)
        )
    )


@pytest.mark.parametrize(
    "n1,n2,q,expected",
    [
        (2, 1, 2, 4),
        (5, 0, 7, 1),
        (2, 2, 2, 11),
        (0, 2, 2, 4),
    ],
)
def test_insertion_sphere_size_known_values(n1, n2, q, expected):
    assert insertion_sphere_size(n1, n2, q) == expected


def test_insertion_sphere_size_validation():
    with pytest.raises(DomainError):
        insertion_sphere_size(-1, 0, 2)
    with pytest.raises(DomainError):
        insertion_sphere_size(0, 0, 1)


def test_insertion_sphere_size_is_exact_arbitrary_precision():
    # n1 + n2 = 80 overflows 64-bit arithmetic; the sum must stay exact.
    value = insertion_sphere_size(40, 40, 3)
    assert value == sum(math.comb(80, i) * 2 ** i for i in range(41))


def test_enumerate_insertion_sphere_examples():
    got = enumerate_insertion_sphere(word((0, 0), 2), 1)
    assert got == {word(s, 2) for s in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))}
    s = word((0, 1, 2), 3)
    assert enumerate_insertion_sphere(s, 0) == {s}
    assert enumerate_insertion_sphere(word((), 2), 2) == set(iter_words(2, 2))


@given(small_words(), st.integers(0, 2))
def test_insertion_sphere_members_are_supersequences(s, n2):
    sphere = enumerate_insertion_sphere(s, n2)
    assert len(sphere) == insertion_sphere_size(len(s), n2, s.q)
    for u in sphere:
        assert len(u) == len(s) + n2
        assert lcs_ref(u.symbols, s.symbols) == len(s)


def test_insertion_sphere_size_is_center_independent():
    for q in (2, 3):
        for n1 in range(4):
            for n2 in range(3):
                sizes = {
                    len(enumerate_insertion_sphere(word(t, q), n2))
                    for t in all_tuples(q, n1)
                }
                assert sizes == {insertion_sphere_size(n1, n2, q)}


def test_enumerate_insertion_sphere_capacity_guard():
    with pytest.raises(CapacityError):
        enumerate_insertion_sphere(word((), 2), 20)


def test_enumerate_deletion_sphere_examples():
    got = enumerate_deletion_sphere(word((0, 1, 0), 2), 1)
    assert got == {word(s, 2) for s in ((1, 0), (0, 0), (0, 1))}
    assert enumerate_deletion_sphere(word((0,) * 6, 2), 4) == {word((0, 0), 2)}
    s = word((1, 0, 1), 2)
    assert enumerate_deletion_sphere(s, 3) == {word((), 2)}


def test_enumerate_deletion_sphere_rejects_overlong_radius():
    with pytest.raises(DomainError):
        enumerate_deletion_sphere(word((0, 1), 2), 3)


@given(small_words(), st.integers(0, 5))
def test_deletion_sphere_members_are_subsequences(s, n2):
    if n2 > len(s):
        with pytest.raises(DomainError):
            enumerate_deletion_sphere(s, n2)
        return
    sphere = enumerate_deletion_sphere(s, n2)
    for u in sphere:
        assert len(u) == len(s) - n2
        assert lcs_ref(s.symbols, u.symbols) == len(u)
    lower, upper = deletion_sphere_bounds(count_runs(s), n2) if len(s) else (0, 1)
    if len(s):
        assert lower <= len(sphere) <= upper


@given(small_words(max_q=4, max_len=8), st.integers(0, 8))
def test_deletion_sphere_sizes_count_the_enumeration(s, n2):
    n2 = min(n2, len(s))
    *_, sizes = _deletion_sphere_rows(s, n2)
    assert sizes == [len(enumerate_deletion_sphere(s, k)) for k in range(n2 + 1)]
    if len(s):
        for k, size in enumerate(sizes):
            lower, upper = deletion_sphere_bounds(count_runs(s), k)
            assert lower <= size <= upper


def test_deletion_sphere_refuses_an_intermediate_blowup():
    center = word((0, 1, 2) * 13 + (0,), 3)
    # The last level is small, but the BFS passes through levels of millions of words.
    *_, sizes = _deletion_sphere_rows(center, 38)
    assert sizes[38] == 9 and max(sizes) > 10 ** 6
    with pytest.raises(CapacityError):
        enumerate_deletion_sphere(center, 38)
    with pytest.raises(CapacityError):
        enumerate_ball_fixed_length(BallQuery(center=center, radius=28, target_len=12))


@given(small_words(max_q=4, max_len=10), st.integers(0, 10), st.integers(0, 80))
def test_deletion_sphere_refusal_reads_the_full_sizes(s, n2, limit):
    """Refusing at the first prefix row over the limit decides like the full row."""
    n2 = min(n2, len(s))
    *_, sizes = _deletion_sphere_rows(s, n2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spheres, "_ENUM_LIMIT", limit)
        if max(sizes) > limit:
            with pytest.raises(CapacityError, match=f"above the {limit} element limit"):
                enumerate_deletion_sphere(s, n2)
        else:
            assert len(enumerate_deletion_sphere(s, n2)) == sizes[n2]


@pytest.mark.parametrize(
    "phi,n2,expected",
    [
        (3, 1, (3, 3)),
        (1, 1, (1, 1)),
        (1, 5, (0, 1)),
        (4, 2, (4, 10)),
        (2, 4, (0, 5)),
    ],
)
def test_deletion_sphere_bounds_known_values(phi, n2, expected):
    assert deletion_sphere_bounds(phi, n2) == expected


def test_deletion_sphere_bounds_validation():
    with pytest.raises(DomainError):
        deletion_sphere_bounds(0, 1)
    with pytest.raises(DomainError):
        deletion_sphere_bounds(3, -1)


def test_alternating_center_sits_inside_its_sandwich():
    # phi = 4 center with 2 deletions: the four length-2 binary words.
    sphere = enumerate_deletion_sphere(word((0, 1, 0, 1), 2), 2)
    assert len(sphere) == 4
    lower, upper = deletion_sphere_bounds(4, 2)
    assert lower <= 4 <= upper


def test_ball_query_validation():
    with pytest.raises(DomainError):
        BallQuery(center=word((0,), 2), radius=-1, target_len=1)
    with pytest.raises(DomainError):
        BallQuery(center=word((0,), 2), radius=0, target_len=-1)


def test_ball_fixed_length_examples():
    qy = BallQuery(center=word((0, 0), 2), radius=2, target_len=2)
    assert enumerate_ball_fixed_length(qy) == {
        word((0, 0), 2),
        word((0, 1), 2),
        word((1, 0), 2),
    }
    x = word((0, 1, 1), 2)
    assert enumerate_ball_fixed_length(
        BallQuery(center=x, radius=0, target_len=3)
    ) == {x}
    assert enumerate_ball_fixed_length(
        BallQuery(center=word((0, 1), 2), radius=4, target_len=2)
    ) == set(iter_words(2, 2))


def test_ball_fixed_length_empty_when_radius_cannot_bridge_lengths():
    qy = BallQuery(center=word((0, 1, 0, 1, 0), 2), radius=2, target_len=2)
    assert enumerate_ball_fixed_length(qy) == set()


def test_ball_fixed_length_mode_agreement():
    for q in (2, 3):
        for m in range(4):
            for center_syms in all_tuples(q, m):
                center = word(center_syms, q)
                for n in range(4):
                    for radius in range(abs(m - n), m + n + 1):
                        qy = BallQuery(center=center, radius=radius, target_len=n)
                        fast = enumerate_ball_fixed_length(qy, mode="fast")
                        oracle = enumerate_ball_fixed_length(qy, mode="oracle")
                        assert fast == oracle
                        for member in fast:
                            assert insdel_distance(center, member) <= radius
    rng = random.Random(7)
    for _ in range(60):
        q, m, n = rng.randint(2, 4), rng.randint(0, 7), rng.randint(0, 7)
        center = word(tuple(rng.randrange(q) for _ in range(m)), q)
        qy = BallQuery(center=center, radius=rng.randint(abs(m - n), m + n), target_len=n)
        assert enumerate_ball_fixed_length(qy, mode="fast") == enumerate_ball_fixed_length(
            qy, mode="oracle"
        )


def test_ball_fixed_length_rejects_unknown_mode_and_huge_spaces():
    qy = BallQuery(center=word((0,), 2), radius=1, target_len=1)
    with pytest.raises(DomainError):
        enumerate_ball_fixed_length(qy, mode="exact")
    with pytest.raises(CapacityError):
        enumerate_ball_fixed_length(
            BallQuery(center=word((0,), 2), radius=30, target_len=30)
        )


@pytest.mark.parametrize(
    "m,n,tau_n,q,expected",
    [
        (3, 3, 2, 2, 4),
        (4, 4, 0, 3, 1),
        (2, 3, 3, 3, 19),
    ],
)
def test_repetition_ball_exact_known_values(m, n, tau_n, q, expected):
    assert repetition_ball_exact(m, n, tau_n, q) == expected


def test_repetition_ball_exact_matches_enumeration():
    for q in (2, 3):
        for m in range(1, 5):
            center = word((q - 1,) * m, q)
            for n in range(5):
                for tau_n in range(abs(n - m), m + n + 1):
                    count = len(
                        enumerate_ball_fixed_length(
                            BallQuery(center=center, radius=tau_n, target_len=n),
                            mode="oracle",
                        )
                    )
                    assert repetition_ball_exact(m, n, tau_n, q) == count


def test_repetition_ball_exact_rejects_empty_slice():
    with pytest.raises(DomainError):
        repetition_ball_exact(5, 2, 1, 2)


def test_ball_bound_pure_slack_at_radius_zero():
    profile = run_profile(word((0, 1, 2, 0), 3))
    got = ball_size_upper_bound(profile, 4, 4, Fraction(0), 3, slack=2.0)
    assert got == pytest.approx(2.0 * math.log(4) / math.log(3), abs=1e-12)


def test_ball_bound_dominates_exhaustive_counts_spot_checks():
    for q, center_syms, n, z in (
        (3, (0, 1, 2, 1, 0, 2), 6, 2),
        (2, (0, 1, 1, 0, 1), 5, 3),
        (3, (1, 0, 2), 4, 3),
    ):
        center = word(center_syms, q)
        count = len(
            enumerate_ball_fixed_length(
                BallQuery(center=center, radius=z, target_len=n), mode="oracle"
            )
        )
        exponent = ball_size_upper_bound(
            run_profile(center), len(center), n, Fraction(z, n), q
        )
        assert math.log(count) / math.log(q) <= exponent


def test_ball_bound_domain_errors():
    profile = run_profile(word((0, 1, 1), 2))
    with pytest.raises(DomainError):
        ball_size_upper_bound(run_profile(word((1, 1), 2)), 2, 2, Fraction(1), 2)
    with pytest.raises(DomainError):
        ball_size_upper_bound(profile, 9, 3, Fraction(1, 3), 2)
    with pytest.raises(OutOfRegimeError):
        # kappa* = (6 + 6 - 3) / 12 = 3/4 >= 1/2 for q = 2.
        ball_size_upper_bound(profile, 3, 6, Fraction(1), 2)


def test_ball_bound_accepts_fraction_radius_exactly():
    # 3/10 of n = 10 must floor to radius 3, not 2; Fractions make that exact.
    profile = run_profile(word((0, 1, 0, 1, 1, 0, 1, 0, 0, 1), 2))
    lo = ball_size_upper_bound(profile, 10, 10, Fraction(3, 10), 2)
    hi = ball_size_upper_bound(profile, 10, 10, Fraction(4, 10), 2)
    assert lo < hi
