"""Samplers, the greedy construction, and code bookkeeping.

Digest pins lock the Philox-keyed sampling so that reruns anywhere
reproduce byte-identical codes.
"""

import itertools
import json
import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from insdel import codes
from insdel.bounds import singleton_max_size
from insdel.codes import (
    Code,
    LinearCode,
    code_digest,
    code_stats,
    code_to_json_dict,
    greedy_gv_code,
    philox_generator,
    sample_random_code,
    sample_random_linear_code,
    sample_word_sequence,
)
from insdel.core import (
    CapacityError,
    DomainError,
    format_word,
    insdel_distance,
    iter_words,
    word,
)
from insdel.decode import RSCode
from insdel.spheres import BallQuery, enumerate_ball_fixed_length
from oracles import is_prime_ref, linear_span_ref, strong_probable_prime

RANDOM_CODE_DIGEST = "37b80f99934c4ac587aab4656d2ef8e81c302153de2dc8482611955afdc1fdc3"
LINEAR_CODE_DIGEST = "eff94d3e0c7ef5cb12d1629a6f8f526e98e9aa229bc77907a80e537712f406d8"


def test_philox_generator_is_deterministic():
    a = philox_generator(5).integers(0, 1000, size=8)
    b = philox_generator(5).integers(0, 1000, size=8)
    assert list(a) == list(b)
    c = philox_generator(6).integers(0, 1000, size=8)
    assert list(a) != list(c)


def test_philox_generator_seed_range():
    philox_generator(0)
    philox_generator(2 ** 128 - 1)
    with pytest.raises(DomainError):
        philox_generator(-1)
    with pytest.raises(DomainError):
        philox_generator(2 ** 128)


def test_sample_word_sequence_pinned_draw():
    words = sample_word_sequence(3, 5, 4, 11)
    assert [format_word(w) for w in words] == ["20222", "12101", "20112", "11010"]


def test_sample_word_sequence_distinct_and_valid():
    words = sample_word_sequence(2, 6, 40, 3)
    assert len({w.symbols for w in words}) == 40
    assert all(len(w) == 6 and w.q == 2 for w in words)


def test_sample_word_sequence_capacity():
    with pytest.raises(CapacityError, match="cannot pick 9 distinct words from q\\^n = 8"):
        sample_word_sequence(2, 3, 9, 0)
    assert len(sample_word_sequence(2, 3, 8, 0)) == 8


def test_sample_word_sequence_never_builds_q_to_the_n():
    """The capacity test multiplies only until q**n passes size - 1."""
    start = time.perf_counter()
    assert sample_word_sequence(10 ** 18, 10 ** 18, 0, 1) == []
    assert [len(w) for w in sample_word_sequence(2, 10 ** 4, 2, 1)] == [10 ** 4] * 2
    assert time.perf_counter() - start < 1.0


def test_sample_symbol_limit_is_inclusive(monkeypatch):
    """4 words of length 5 and a 9-word span of length 4 are drawn at their symbol counts, refused below."""
    monkeypatch.setattr(codes, "_SAMPLE_SYMBOL_LIMIT", 20)
    assert len(sample_word_sequence(2, 5, 4, 1)) == 4
    monkeypatch.setattr(codes, "_SAMPLE_SYMBOL_LIMIT", 19)
    with pytest.raises(CapacityError, match="4 words of length 5 exceeds 19 symbols"):
        sample_word_sequence(2, 5, 4, 1)
    monkeypatch.setattr(codes, "_SAMPLE_SYMBOL_LIMIT", 36)
    assert len(sample_random_linear_code(3, 4, 2, 7)) == 9
    monkeypatch.setattr(codes, "_SAMPLE_SYMBOL_LIMIT", 35)
    with pytest.raises(CapacityError, match="9 words of length 4 exceeds 35 symbols"):
        sample_random_linear_code(3, 4, 2, 7)


def test_sample_random_code_full_space():
    code = sample_random_code(2, 4, 16, 123)
    assert code.words == frozenset(iter_words(2, 4))


def test_sample_random_code_digest_pin():
    assert code_digest(sample_random_code(2, 8, 16, 42)) == RANDOM_CODE_DIGEST


def test_sample_random_linear_code_pinned():
    code = sample_random_linear_code(3, 4, 2, 7)
    assert tuple(g.symbols for g in code.generators) == ((0, 2, 2, 0), (0, 1, 2, 1))
    assert code_digest(code) == LINEAR_CODE_DIGEST


def test_sample_random_linear_code_is_a_group():
    code = sample_random_linear_code(3, 4, 2, 7)
    assert len(code) == 9
    assert word((0, 0, 0, 0), 3) in code.words
    members = {w.symbols for w in code.words}
    for a in members:
        for b in members:
            total = tuple((x + y) % 3 for x, y in zip(a, b))
            assert total in members


def test_sample_random_linear_code_full_dimension():
    code = sample_random_linear_code(2, 3, 3, 9)
    assert code.words == frozenset(iter_words(2, 3))


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    shape=st.integers(0, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, min(n, 3)))),
    data=st.data(),
)
def test_linear_span_matches_the_per_message_reference(p, shape, data):
    """Every message's codeword, in message order, for any k <= n rows: k = 0 and n = 0 too."""
    n, k = shape
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    rows = data.draw(st.lists(row, min_size=k, max_size=k))
    assert codes._linear_span(p, n, rows) == tuple(linear_span_ref(p, n, rows))


def test_linear_span_edges_hold_one_word():
    """At k = 0 the span is the single word 0^n; at n = 0 it is the single empty word."""
    assert codes._linear_span(5, 3, []) == ((0, 0, 0),) == tuple(linear_span_ref(5, 3, []))
    assert codes._linear_span(5, 0, []) == ((),) == tuple(linear_span_ref(5, 0, []))


@pytest.mark.parametrize(
    "q, n, k, seed", [(3, 4, 2, 7), (2, 3, 3, 9), (5, 3, 0, 1), (7, 0, 0, 2), (2, 6, 4, 5)]
)
def test_sample_random_linear_code_is_the_span_of_its_generators(q, n, k, seed):
    code = sample_random_linear_code(q, n, k, seed)
    rows = [g.symbols for g in code.generators]
    assert len(rows) == k
    assert code.words == {word(syms, q) for syms in linear_span_ref(q, n, rows)}
    assert len(code) == q ** k


def test_sample_random_linear_code_needs_prime_field():
    with pytest.raises(DomainError):
        sample_random_linear_code(4, 3, 2, 1)
    with pytest.raises(DomainError):
        sample_random_linear_code(3, 3, 4, 1)


def test_sample_random_linear_code_refuses_huge_spans_before_primality(monkeypatch):
    def no_trial_division(p):
        raise AssertionError(f"_is_prime({p}) called")

    monkeypatch.setattr(codes, "_is_prime", no_trial_division)
    with pytest.raises(CapacityError):
        sample_random_linear_code(2 ** 61 - 1, 1, 1, 1)
    # A composite q whose span is too large is refused for capacity as well.
    with pytest.raises(CapacityError):
        sample_random_linear_code(1000, 3, 3, 1)


def test_is_prime_matches_trial_division_below_ten_thousand():
    assert [p for p in range(10_000) if codes._is_prime(p)] == [
        p for p in range(10_000) if is_prime_ref(p)
    ]


@given(st.integers(-10, 10 ** 6))
def test_is_prime_matches_trial_division_up_to_a_million(p):
    assert codes._is_prime(p) == is_prime_ref(p)


# Strong pseudoprimes with their factors and the first primes they pass
# the strong probable-prime test for: the smallest to the first 1, 2, 3,
# 4, 5, 6, 7, 9 and 12 primes (psi_1 .. psi_12 where listed, OEIS A014233).
STRONG_PSEUDOPRIMES = (
    (2047, (23, 89), 1),
    (1373653, (829, 1657), 2),
    (25326001, (2251, 11251), 3),
    (3215031751, (151, 751, 28351), 4),
    (2152302898747, (6763, 10627, 29947), 5),
    (3474749660383, (1303, 16927, 157543), 6),
    (341550071728321, (10670053, 32010157), 7),
    (3825123056546413051, (149491, 747451, 34233211), 9),
    (318665857834031151167461, (399165290221, 798330580441), 12),
)


@pytest.mark.parametrize("n, factors, fooled", STRONG_PSEUDOPRIMES)
def test_is_prime_rejects_strong_pseudoprimes(n, factors, fooled):
    assert all(f > 1 for f in factors) and n == math.prod(factors)
    assert all(strong_probable_prime(n, a) for a in codes._PRIME_BASES[:fooled])
    assert not codes._is_prime(n)


def test_is_prime_decides_large_primes_and_refuses_past_its_bound():
    assert codes._is_prime(2 ** 31 - 1) and codes._is_prime(2 ** 61 - 1)
    assert not codes._is_prime(2 ** 67 - 1)  # 193707721 * 761838257287
    # psi_13 itself passes all 13 bases, so the bound is where proof stops.
    limit = codes._PRIMALITY_LIMIT
    assert limit == 3317044064679887385961981 == 1287836182261 * 2575672364521
    assert all(strong_probable_prime(limit, a) for a in codes._PRIME_BASES)
    for p in (limit, 2 ** 89 - 1):
        with pytest.raises(CapacityError, match="primality"):
            codes._is_prime(p)


def test_huge_field_orders_are_decided_without_trial_division():
    start = time.perf_counter()
    assert RSCode(p=2 ** 61 - 1, k=1, points=(0,)).n == 1
    with pytest.raises(CapacityError):
        RSCode(p=2 ** 89 - 1, k=1, points=(0,))
    assert sample_random_linear_code(2 ** 61 - 1, 1, 0, 1).words == {word((0,), 2 ** 61 - 1)}
    with pytest.raises(CapacityError):
        sample_random_linear_code(2 ** 89 - 1, 1, 0, 1)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "q,n,d,expected",
    [
        (2, 2, 2, {"00", "01", "10", "11"}),
        (2, 4, 8, {"0000", "1111"}),
        (2, 5, 10, {"00000", "11111"}),
        (3, 3, 6, {"000", "111", "222"}),
    ],
)
def test_greedy_gv_code_pinned_outputs(q, n, d, expected):
    code = greedy_gv_code(q, n, d)
    assert {format_word(w) for w in code.words} == expected


@pytest.mark.parametrize("q", [-1, 0, 1])
def test_greedy_gv_code_needs_two_symbols(q):
    with pytest.raises(DomainError, match=f"alphabet size must be at least 2, got {q}"):
        greedy_gv_code(q, 3, 2)


def test_greedy_gv_code_distance_and_seed_set():
    for q, n, d in ((2, 4, 4), (3, 3, 4), (2, 5, 6)):
        code = greedy_gv_code(q, n, d)
        for a in range(q):
            assert word((a,) * n, q) in code.words
        for a, b in itertools.combinations(code.sorted_words(), 2):
            assert insdel_distance(a, b) >= d
        assert len(code) >= q


def test_greedy_gv_code_meets_counting_bounds():
    """Greedy size between the covering lower bound and the Singleton cap."""
    for q, n, d in ((2, 4, 4), (2, 5, 4), (3, 3, 4)):
        code = greedy_gv_code(q, n, d)
        biggest_ball = max(
            len(
                enumerate_ball_fixed_length(
                    BallQuery(center=x, radius=d - 1, target_len=n), mode="fast"
                )
            )
            for x in iter_words(q, n)
        )
        assert len(code) >= q ** n / biggest_ball
        assert len(code) <= singleton_max_size(n, d, q)


def test_code_stats_known_values():
    stats = code_stats(Code(q=2, n=2, words=frozenset(iter_words(2, 2))))
    assert stats.size == 4
    assert stats.rate == pytest.approx(1.0)
    assert stats.min_distance == 2
    assert stats.relative_distance == pytest.approx(0.5)


def test_code_stats_two_repetition_words():
    code = Code(q=2, n=6, words=frozenset({word((0,) * 6, 2), word((1,) * 6, 2)}))
    stats = code_stats(code)
    assert stats.min_distance == 12
    assert stats.relative_distance == pytest.approx(1.0)


def test_code_stats_needs_two_words():
    with pytest.raises(DomainError):
        code_stats(Code(q=2, n=2, words=frozenset({word((0, 0), 2)})))


def test_code_validation():
    with pytest.raises(DomainError):
        Code(q=2, n=2, words=frozenset({word((0, 1, 1), 2)}))
    with pytest.raises(DomainError):
        Code(q=2, n=2, words=frozenset({word((0, 2), 3)}))


def test_code_digest_ignores_listing_order():
    words = [word((0, 1), 2), word((1, 0), 2), word((1, 1), 2)]
    a = Code(q=2, n=2, words=frozenset(words))
    b = Code(q=2, n=2, words=frozenset(reversed(words)))
    assert code_digest(a) == code_digest(b)
    c = Code(q=2, n=2, words=frozenset(words[:2]))
    assert code_digest(a) != code_digest(c)


def test_code_to_json_dict_roundtrips_through_json():
    code = sample_random_code(3, 4, 5, 17)
    data = json.loads(json.dumps(code_to_json_dict(code)))
    assert data["q"] == 3
    assert data["n"] == 4
    rebuilt = Code(
        q=data["q"],
        n=data["n"],
        words=frozenset(word([int(ch) for ch in s], 3) for s in data["words"]),
    )
    assert rebuilt.words == code.words


def test_linear_code_is_a_code():
    code = sample_random_linear_code(2, 4, 2, 21)
    assert isinstance(code, Code)
    assert isinstance(code, LinearCode)
    assert len(code.generators) == 2
