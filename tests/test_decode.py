"""List decoding, ball certification, and the Reed-Solomon outer code."""

import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from insdel import decode
from insdel.codes import Code, philox_generator, sample_random_code
from insdel.core import CapacityError, DomainError, _flagged_lanes, _lane_agreements, _lane_gate
from insdel.core import _lane_width, insdel_distance, iter_words, word
from insdel.decode import (
    RSCode,
    _draw_below,
    brute_force_list_decode,
    brute_force_list_recover,
    certify_list_decodable,
    monte_carlo_rate_experiment,
    rs_encode,
)

from oracles import all_tuples, brute_list_recover, distance_ref, rs_codebook_ref

TWO_REPS = Code(q=2, n=2, words=frozenset({word((0, 0), 2), word((1, 1), 2)}))
FULL_SQUARE = Code(q=2, n=2, words=frozenset(iter_words(2, 2)))


def test_list_decode_radius_one():
    result = brute_force_list_decode(TWO_REPS, word((0,), 2), 1)
    assert [w.symbols for w in result.candidates] == [(0, 0)]
    assert result.radius == 1


def test_list_decode_empty_list():
    result = brute_force_list_decode(TWO_REPS, word((0, 1), 2), 1)
    assert result.candidates == ()


def test_list_decode_large_radius_returns_whole_code():
    result = brute_force_list_decode(TWO_REPS, word((0, 1), 2), 10)
    assert [w.symbols for w in result.candidates] == [(0, 0), (1, 1)]


def test_list_decode_is_sorted_and_exact():
    code = sample_random_code(3, 4, 20, 55)
    received = word((0, 2, 1), 3)
    result = brute_force_list_decode(code, received, 3)
    expected = sorted(
        (w.symbols for w in code.words if insdel_distance(w, received) <= 3)
    )
    assert [w.symbols for w in result.candidates] == expected


def test_list_decode_rejects_negative_radius():
    with pytest.raises(DomainError):
        brute_force_list_decode(TWO_REPS, word((0,), 2), -1)


def test_certify_repetition_pair():
    # Distance 4 between the two codewords, so unit balls are singletons.
    assert certify_list_decodable(TWO_REPS, 1, 1) == (True, None)


def test_certify_full_square_fails_with_first_witness():
    ok, witness = certify_list_decodable(FULL_SQUARE, 2, 3)
    assert not ok
    assert witness is not None
    assert witness.symbols == ()
    crowd = sum(
        1 for w in FULL_SQUARE.words if insdel_distance(w, witness) <= 2
    )
    assert crowd > 3


def test_certify_radius_zero_always_passes():
    assert certify_list_decodable(FULL_SQUARE, 0, 1).ok


def test_certify_exhaustive_capacity_guard():
    code = Code(q=2, n=20, words=frozenset({word((0,) * 20, 2), word((1,) * 20, 2)}))
    with pytest.raises(CapacityError, match="sampled"):
        certify_list_decodable(code, 3, 1)


def test_certify_sampled_capacity_guard(monkeypatch):
    # The exhaustive center limit caps samples; a run at the cap draws all
    # of them (L = 4 admits every ball) and returns what it did before.
    expected = certify_list_decodable(FULL_SQUARE, 1, 4, mode="sampled", samples=40, seed=5)
    monkeypatch.setattr(decode, "_CERTIFY_CENTER_LIMIT", 40)
    assert certify_list_decodable(FULL_SQUARE, 1, 4, mode="sampled", samples=40, seed=5) == expected
    with pytest.raises(CapacityError, match="41 samples exceed the center limit 40"):
        certify_list_decodable(FULL_SQUARE, 1, 4, mode="sampled", samples=41, seed=5)


def test_certify_sampled_finds_the_crowding():
    result = certify_list_decodable(
        FULL_SQUARE, 2, 3, mode="sampled", samples=500, seed=17
    )
    assert not result.ok
    crowd = sum(
        1 for w in FULL_SQUARE.words if insdel_distance(w, result.witness) <= 2
    )
    assert crowd > 3


def test_certify_sampled_is_deterministic():
    runs = [
        certify_list_decodable(FULL_SQUARE, 2, 3, mode="sampled", samples=50, seed=4)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_certify_sampled_pinned_witness():
    """A violating code whose first sampled witness depends on the center stream."""
    code = sample_random_code(2, 6, 12, 1)
    witnesses = [
        certify_list_decodable(code, 2, 3, mode="sampled", samples=200, seed=seed)
        for seed in (1, 2, 3)
    ]
    assert witnesses == [
        (False, word((1, 0, 0, 1, 1, 0, 0, 1), 2)),
        (False, word((1, 0, 1, 1), 2)),
        (False, word((1, 0, 0, 1, 0, 0, 1, 0), 2)),
    ]


def crowded(code, center, tau_n, L):
    """Double loop: does the radius-tau_n ball around center hold more than L codewords?"""
    return sum(1 for w in code.words if distance_ref(w.symbols, center) <= tau_n) > L


def sampled_centers(q, lengths, seed, samples):
    """The documented sampled-mode stream: a q**m-weighted length, then m symbols."""
    rng = philox_generator(seed)
    weights = [q ** m for m in lengths]
    for _ in range(samples):
        ticket = _draw_below(rng, sum(weights))
        for m, weight in zip(lengths, weights):
            if ticket < weight:
                break
            ticket -= weight
        yield tuple(int(v) for v in rng.integers(0, q, size=m))


def check_certify_against_double_loop(code, tau_n, L, seed, samples):
    lengths = range(max(0, code.n - tau_n), code.n + tau_n + 1)
    for mode, centers in (
        ("exhaustive", (c for m in lengths for c in all_tuples(code.q, m))),
        ("sampled", sampled_centers(code.q, lengths, seed, samples)),
    ):
        first = next((c for c in centers if crowded(code, c, tau_n, L)), None)
        expected = (first is None, None if first is None else word(first, code.q))
        got = certify_list_decodable(code, tau_n, L, mode=mode, samples=samples, seed=seed)
        assert got == expected, mode


# Lengths stay small enough that the exhaustive oracle visits a few
# hundred centers at most: n + tau_n <= 7, 5 and 4 for q = 2, 3 and 4.
@st.composite
def certify_cases(draw):
    q = draw(st.integers(2, 4))
    top = {2: 7, 3: 5, 4: 4}[q]
    n = draw(st.integers(1, top - 1))
    tau_n = draw(st.integers(0, top - n))
    space = list(all_tuples(q, n))
    chosen = draw(st.sets(st.sampled_from(space), max_size=min(len(space), 7)))
    code = Code(q=q, n=n, words=frozenset(word(c, q) for c in chosen))
    L = draw(st.integers(1, len(chosen) + 1))
    return code, tau_n, L, draw(st.integers(0, 2 ** 64)), draw(st.integers(1, 30))


@settings(deadline=None, max_examples=200)
@given(certify_cases())
def test_certify_modes_match_double_loop(case):
    check_certify_against_double_loop(*case)


@pytest.mark.parametrize(
    "code, tau_n, L",
    [
        pytest.param(Code(q=3, n=2, words=frozenset()), 1, 1, id="empty-code"),
        pytest.param(Code(q=2, n=3, words=frozenset({word((0, 1, 1), 2)})), 2, 1, id="one-word"),
        pytest.param(Code(q=4, n=1, words=frozenset(iter_words(4, 1))), 1, 2, id="n-1"),
        pytest.param(FULL_SQUARE, 3, 2, id="tau-above-n"),
        pytest.param(FULL_SQUARE, 2, 4, id="L-at-M"),
        pytest.param(FULL_SQUARE, 2, 9, id="L-above-M"),
    ],
)
def test_certify_edge_cases_match_double_loop(code, tau_n, L):
    check_certify_against_double_loop(code, tau_n, L, seed=11, samples=40)


def test_draw_below_keeps_int64_stream_and_covers_big_totals():
    # Up to 2**63 the draw is numpy's own, so sampled streams stay pinned.
    for total in (1, 7, 2 ** 63):
        mine, ref = philox_generator(5), philox_generator(5)
        assert [_draw_below(mine, total) for _ in range(8)] == [
            int(ref.integers(0, total)) for _ in range(8)
        ]
    # Past int64 it is exact: in range, and reaching far above 2**63.
    total = 2 ** 70 + 3
    rng = philox_generator(5)
    draws = [_draw_below(rng, total) for _ in range(64)]
    assert all(0 <= d < total for d in draws)
    assert max(draws) > 2 ** 69


def test_certify_validation():
    with pytest.raises(DomainError):
        certify_list_decodable(TWO_REPS, -1, 1)
    with pytest.raises(DomainError):
        certify_list_decodable(TWO_REPS, 1, 0)
    with pytest.raises(DomainError):
        certify_list_decodable(TWO_REPS, 1, 1, mode="guess")
    with pytest.raises(DomainError):
        certify_list_decodable(TWO_REPS, 1, 1, mode="sampled")
    with pytest.raises(DomainError):
        certify_list_decodable(TWO_REPS, 1, 1, mode="sampled", samples=0, seed=1)


REFUSALS = [
    ("radius", dict(tau_n=-1, L=1, mode="guess"), DomainError,
     "need tau_n >= 0 and L >= 1"),
    ("centers", dict(tau_n=3, L=1, samples=0), CapacityError,
     "centers of lengths 17..23 over q = 2 exceed the exhaustive limit 10000000; "
     "use mode='sampled'"),
    ("mode", dict(tau_n=3, L=1, mode="guess"), DomainError,
     "unknown mode 'guess'; use 'exhaustive' or 'sampled'"),
    ("seed", dict(tau_n=3, L=1, mode="sampled", samples=0), DomainError,
     "sampled mode requires a seed"),
    ("no-samples", dict(tau_n=3, L=1, mode="sampled", samples=0, seed=1), DomainError,
     "need at least one sample"),
    ("samples", dict(tau_n=3, L=1, mode="sampled", samples=10 ** 7 + 1, seed=1), CapacityError,
     "10000001 samples exceed the center limit 10000000"),
]


@pytest.mark.parametrize("kwargs, error, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_certify_refuses_before_building_the_lane_table(monkeypatch, kwargs, error, message):
    # Some inputs fail more than one check; the first check in order must raise.
    def build(*args):
        raise AssertionError("the lane table was built before a refusal")

    monkeypatch.setattr(decode, "_packed_match_table", build)
    monkeypatch.setattr(decode, "_lane_gate", build)
    code = Code(q=2, n=20, words=frozenset({word((0,) * 20, 2), word((1,) * 20, 2)}))
    with pytest.raises(error) as raised:
        certify_list_decodable(code, **kwargs)
    assert str(raised.value) == message


def test_monte_carlo_pinned_run():
    report = monte_carlo_rate_experiment(3, 6, 0.0, 0.0, 0.5, trials=20, seed=99)
    assert report["failures"] == 0
    assert report["params"]["code_size"] == 27
    assert report["params"]["list_size"] == 1
    assert report["params"]["radius"] == 0
    rerun = monte_carlo_rate_experiment(3, 6, 0.0, 0.0, 0.5, trials=20, seed=99)
    assert rerun == report


def test_monte_carlo_validation():
    with pytest.raises(DomainError):
        monte_carlo_rate_experiment(3, 6, 0.0, 0.0, 0.5, trials=0, seed=1)
    with pytest.raises(DomainError):
        monte_carlo_rate_experiment(3, 6, 0.0, 0.0, 0.0, trials=1, seed=1)


def test_rs_code_validation():
    with pytest.raises(DomainError):
        RSCode(p=4, k=1, points=(0, 1))
    with pytest.raises(DomainError):
        RSCode(p=5, k=1, points=(0, 0))
    with pytest.raises(DomainError):
        RSCode(p=5, k=1, points=(0, 5))
    with pytest.raises(DomainError):
        RSCode(p=5, k=3, points=(0, 1))
    with pytest.raises(DomainError):
        RSCode(p=3, k=1, points=(0, 1, 2, 0))
    assert RSCode(p=5, k=2, points=(0, 1, 2, 3)).n == 4


@pytest.mark.parametrize(
    "p, k, points",
    [(11, 3, [0, 1.9, 2, 3]), (11, 3, [0, 1.0, 2, 3]), (11, 3, [0, True, 2, 3]),
     (11.0, 3, [0, 1, 2, 3]), (11, 3.0, [0, 1, 2, 3]), (11, True, [0, 1, 2, 3]),
     (11, 3, ["0", 1, 2, 3])],
)
def test_rs_code_fields_are_integers_not_truncated(p, k, points):
    with pytest.raises(DomainError, match="must be an integer, got"):
        RSCode(p=p, k=k, points=points)


def test_rs_encode_known_values():
    code = RSCode(p=5, k=2, points=(0, 1, 2, 3))
    assert rs_encode(code, (1, 1)) == (1, 2, 3, 4)
    assert rs_encode(code, (2, 0)) == (2, 2, 2, 2)


def test_rs_encode_is_linear():
    code = RSCode(p=7, k=3, points=(0, 2, 3, 5, 6))
    a, b = (1, 4, 2), (6, 0, 5)
    summed = tuple((x + y) % 7 for x, y in zip(a, b))
    combined = tuple(
        (x + y) % 7 for x, y in zip(rs_encode(code, a), rs_encode(code, b))
    )
    assert rs_encode(code, summed) == combined


def test_rs_encode_square_case_is_injective():
    code = RSCode(p=3, k=2, points=(0, 1))
    images = {
        rs_encode(code, (a, b)) for a in range(3) for b in range(3)
    }
    assert len(images) == 9


def test_rs_encode_validation():
    code = RSCode(p=5, k=2, points=(0, 1, 2, 3))
    with pytest.raises(DomainError):
        rs_encode(code, (1,))
    with pytest.raises(DomainError):
        rs_encode(code, (1, 5))


def test_list_recover_pinned_example():
    code = RSCode(p=5, k=2, points=(0, 1, 2, 3))
    lists = [frozenset({1}), frozenset({2}), frozenset(), frozenset({0})]
    out = brute_force_list_recover(code, lists, alpha=0.5)
    assert out == [(1, 2, 3, 4), (1, 4, 2, 0), (3, 2, 1, 0)]


def test_list_recover_zero_threshold_enumerates_everything():
    code = RSCode(p=3, k=1, points=(0, 1, 2))
    out = brute_force_list_recover(code, [frozenset()] * 3, alpha=0.0)
    assert out == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]


def test_list_recover_mass_budget():
    code = RSCode(p=5, k=2, points=(0, 1, 2, 3))
    lists = [frozenset({1, 2}), frozenset({0}), frozenset(), frozenset()]
    brute_force_list_recover(code, lists, alpha=0.5, ell=3)
    with pytest.raises(DomainError):
        brute_force_list_recover(code, lists, alpha=0.5, ell=2)


def test_list_recover_capacity_guard():
    code = RSCode(p=101, k=3, points=(0, 1, 2))
    with pytest.raises(CapacityError):
        brute_force_list_recover(code, [frozenset()] * 3, alpha=0.0)
    with pytest.raises(CapacityError):
        code.sorted_codebook
    assert "sorted_codebook" not in code.__dict__
    # p**K runs to thousands of digits; the refusal neither builds nor prints it.
    with pytest.raises(CapacityError):
        RSCode(p=10007, k=1200, points=range(1200)).sorted_codebook


def test_codebook_symbol_limit_is_inclusive(monkeypatch):
    """RS(11, 3) on eight points holds 1331 * 8 = 10,648 symbols: refused below that, built at it."""
    monkeypatch.setattr(decode, "_RECOVER_SYMBOL_LIMIT", 10_647)
    code = RSCode(p=11, k=3, points=range(8))
    with pytest.raises(CapacityError, match="^a codebook of 11\\*\\*3 words of length 8 exceeds 10647 symbols$"):
        brute_force_list_recover(code, [frozenset()] * 8, alpha=0.0)
    assert "sorted_codebook" not in code.__dict__
    monkeypatch.setattr(decode, "_RECOVER_SYMBOL_LIMIT", 10_648)
    assert len(brute_force_list_recover(code, [frozenset()] * 8, alpha=0.0)) == 1331


@pytest.mark.parametrize(
    "p, k, points",
    [(11, 3, range(8)), (7, 3, (0, 2, 3, 5, 6)), (13, 1, (0, 5, 12)), (101, 2, (100, 0, 1, 7)),
     (2, 2, (0, 1)), (5, 2, (0, 1, 2, 3))],
)
def test_codebook_by_linearity_equals_encoding_every_message(p, k, points):
    """sorted_codebook is the sorted per-message reference, built once on first use."""
    code = RSCode(p=p, k=k, points=points)
    assert "sorted_codebook" not in code.__dict__
    reference = rs_codebook_ref(code)
    assert reference == [rs_encode(code, m) for m in itertools.product(range(p), repeat=k)]
    assert code.sorted_codebook == tuple(sorted(reference))
    assert code.sorted_codebook is code.sorted_codebook
    assert all(type(s) is int for cw in code.sorted_codebook for s in cw)
    assert code == RSCode(p=p, k=k, points=points)


@st.composite
def recovery_cases(draw):
    """A small RS code, position lists (some empty, some full) and an alpha.

    alpha comes from {0, 1/2, 1} or is a random fraction in [0, 1], so
    thresholds 0 and N both occur.
    """
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    n = draw(st.integers(1, min(p, 8)))
    k = draw(st.integers(1, min(n, 3 if p <= 7 else 2)))
    points = draw(st.permutations(range(p)))[:n]
    entry = st.one_of(
        st.just(frozenset()),
        st.just(frozenset(range(p))),
        st.frozensets(st.integers(0, p - 1)),
    )
    lists = draw(st.lists(entry, min_size=n, max_size=n))
    alpha = draw(
        st.one_of(
            st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
            st.integers(1, 12).flatmap(
                lambda d: st.integers(0, d).map(lambda a: Fraction(a, d))
            ),
        )
    )
    return RSCode(p=p, k=k, points=points), lists, alpha


@st.composite
def rs_codes(draw):
    """An RS code over a small field, with shuffled points and any K from 1 to N."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    points = draw(st.permutations(range(p)))[: draw(st.integers(1, p))]
    k = draw(st.integers(1, len(points)))
    assume(p ** k * len(points) <= 20_000)
    return RSCode(p=p, k=k, points=points)


@settings(max_examples=150, deadline=None)
@given(rs_codes())
def test_sorted_codebook_is_the_sorted_codebook_lane_by_lane(code):
    """Entry k of sorted_codebook is the k-th smallest codeword and sits in lane k.

    With a singleton list per position holding entry k's symbols, lane k
    of codebook_planes, and no other lane, agrees on all N positions.
    About 50 lanes are checked per code, the first and the last among them.
    """
    table = code.sorted_codebook
    assert table == tuple(sorted(rs_codebook_ref(code)))
    assert table is code.sorted_codebook
    planes = code.codebook_planes
    (addend,), top = _lane_gate(planes, [0])
    for k in {*range(0, len(table), max(1, len(table) // 50)), len(table) - 1}:
        counts = _lane_agreements(planes, [frozenset({s}) for s in table[k]])
        assert list(_flagged_lanes((counts + addend) & top, _lane_width(code.n))) == [k]


@settings(max_examples=150, deadline=None)
@given(recovery_cases())
def test_list_recover_matches_message_by_message_evaluation(case):
    code, lists, alpha = case
    assert brute_force_list_recover(code, lists, alpha) == brute_list_recover(code, lists, alpha)


def test_codebook_planes_are_a_quarter_of_the_codebook_or_less():
    code = RSCode(p=101, k=2, points=range(101))
    planes, ones, n = code.codebook_planes
    table = sum(map(sys.getsizeof, planes)) + sys.getsizeof(planes) + sys.getsizeof(ones)
    book = code.sorted_codebook
    codebook = sys.getsizeof(book) + sum(map(sys.getsizeof, book))
    assert len(planes) == 7 and n == 101
    assert 4 * table <= codebook


def test_list_recover_threshold_is_exact():
    """Keep a codeword on ceil(alpha*N) agreements, drop it on one fewer.

    alpha*N = 2 + 4e-13 here: a float threshold with a 1e-12 slack would
    keep a codeword that agrees on only two of the four positions.
    """
    code = RSCode(p=5, k=2, points=(0, 1, 2, 3))
    target = rs_encode(code, (1, 2))
    alpha = Fraction(1, 2) + Fraction(1, 10 ** 13)

    def agreeing_on(count):
        return [frozenset({s}) if i < count else frozenset() for i, s in enumerate(target)]

    assert target in brute_force_list_recover(code, agreeing_on(3), alpha)
    assert target not in brute_force_list_recover(code, agreeing_on(2), alpha)
    assert target in brute_force_list_recover(code, agreeing_on(2), Fraction(1, 2))
    assert target in brute_force_list_recover(code, agreeing_on(2), "1/2")


def test_list_recover_validation():
    code = RSCode(p=5, k=2, points=(0, 1, 2, 3))
    for symbol in (1.0, True, 1.5, "1"):
        lists = [frozenset({symbol})] + [frozenset()] * 3
        with pytest.raises(DomainError, match="a position list symbol must be an integer"):
            brute_force_list_recover(code, lists, alpha=0.5)
    with pytest.raises(DomainError):
        brute_force_list_recover(code, [frozenset()] * 4, alpha=1.5)
    with pytest.raises(DomainError):
        brute_force_list_recover(code, [frozenset()] * 3, alpha=0.5)
    with pytest.raises(DomainError):
        brute_force_list_recover(code, [frozenset({5})] + [frozenset()] * 3, alpha=0.5)
