"""Distance, run-profile, and word plumbing checks."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from insdel.core import (
    AlphabetMismatchError,
    BoundViolationError,
    DomainError,
    RunProfile,
    Word,
    _flagged_lanes,
    _gram_keys,
    _gram_table,
    _lane_agreements,
    _lane_blocks,
    _lane_budget,
    _lane_gate,
    _lane_width,
    _lcs_steps,
    _pack_lanes,
    _packed_match_table,
    _packed_plane_table,
    _power_exceeds,
    _repeat_groups,
    _split_groups,
    count_runs,
    format_word,
    hamming_weight,
    insdel_distance,
    is_repetition,
    iter_words,
    lcs_length,
    parse_word,
    run_profile,
    word,
)

from oracles import all_tuples, distance_ref, lcs_matrix_ref


def words_strategy(max_q=5, max_len=12):
    return st.integers(2, max_q).flatmap(
        lambda q: st.lists(st.integers(0, q - 1), max_size=max_len).map(
            lambda syms: word(syms, q)
        )
    )


def pairs_strategy(max_q=5, max_len=12):
    return st.integers(2, max_q).flatmap(
        lambda q: st.tuples(
            st.lists(st.integers(0, q - 1), max_size=max_len).map(lambda s: word(s, q)),
            st.lists(st.integers(0, q - 1), max_size=max_len).map(lambda s: word(s, q)),
        )
    )


def sized_pairs_strategy(max_q=5, max_len=100):
    """Pairs whose lengths are drawn first, so long words are as likely as short."""
    def sized_word(q):
        return st.integers(0, max_len).flatmap(
            lambda n: st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
        ).map(lambda syms: word(syms, q))

    return st.integers(2, max_q).flatmap(lambda q: st.tuples(sized_word(q), sized_word(q)))


def test_lcs_known_values():
    assert lcs_length(word((0, 1, 1, 0), 2), word((0, 1, 0, 1), 2)) == 3
    x = word((0, 2, 1), 3)
    assert lcs_length(x, x) == 3
    assert lcs_length(word((), 2), word((0, 1), 2)) == 0


def test_lcs_rejects_mixed_alphabets():
    with pytest.raises(AlphabetMismatchError):
        lcs_length(word((0, 1), 2), word((0, 1), 3))
    with pytest.raises(AlphabetMismatchError):
        insdel_distance(word((0,), 2), word((0,), 4))


def counters(xs, table):
    return list(_lcs_steps(xs, table))


@given(sized_pairs_strategy())
def test_lcs_matches_full_matrix_reference(pair):
    """The counter after every prefix of a, against every prefix of b.

    Up to 100 symbols, so the kernel's carries cross big-int digits.  A
    b-prefix is read from a table built over that prefix.
    """
    a, b = pair
    xs, ys = a.symbols, b.symbols
    ref = lcs_matrix_ref(xs, ys)
    assert lcs_length(a, b) == ref[-1][-1]
    for j in range(len(ys) + 1):
        assert counters(xs, _packed_match_table((ys[:j],), j)) == [row[j] for row in ref]


@given(st.integers(2, 5).flatmap(lambda q: st.tuples(
    st.lists(st.integers(0, q - 1), max_size=40),
    st.lists(st.lists(st.integers(0, q + 1), max_size=40), min_size=1, max_size=6),
)))
def test_one_match_table_serves_every_query(case):
    """A table built once answers each later query like the full matrix does.

    Queries may hold symbols absent from the table's word (up to q+1).
    """
    ys, queries = case
    ys = tuple(ys)
    table = _packed_match_table((ys,), len(ys))
    for xs in map(tuple, queries):
        steps = counters(xs, table)
        assert steps == [row[-1] for row in lcs_matrix_ref(xs, ys)]
        assert steps == counters(xs, _packed_match_table((ys,), len(ys)))


def check_lanes(words, xs):
    """Packed table, stepwise counter and lane gate against lcs_matrix_ref.

    After every prefix xs[:L], L = 0 included, lane k of the counter
    must hold lcs(xs[:L], words[k]), with nothing above the last lane;
    a table over the j-symbol prefixes of the words must count
    lcs(xs[:L], words[k][:j]) the same way.  The gate's add must flag,
    at bit n of lane k and nowhere else, exactly the lanes with
    n - lcs <= `most`, for every budget from below zero to above n, and
    through _lane_budget exactly the words within each insdel radius of
    xs[:L].  Returns the final LCS of every lane.
    """
    n, lanes = len(words[0]), len(words)
    refs = [lcs_matrix_ref(xs, ys) for ys in words]
    for j in range(n + 1):
        width = _lane_width(j)
        steps = counters(xs, _packed_match_table([ys[:j] for ys in words], j))
        assert len(steps) == len(xs) + 1
        for L, counts in enumerate(steps):
            assert counts >> width * lanes == 0
            assert [counts >> k * width & (1 << width) - 1 for k in range(lanes)] == [
                ref[L][j] for ref in refs
            ], (j, L)
    # The last pass, j = n, left the counters of the whole words in steps.
    width = _lane_width(n)
    table = _packed_match_table(words, n)
    mosts = range(-2, n + 2)
    addends, top = _lane_gate(table, mosts)
    assert top == sum(1 << k * width + n for k in range(lanes))
    for L, counts in enumerate(steps):
        lcs = [ref[L][n] for ref in refs]
        for most, addend in zip(mosts, addends):
            flags = (counts + addend) & top
            assert flags == sum(1 << k * width + n for k, c in enumerate(lcs) if n - c <= most)
            assert list(_flagged_lanes(flags, width)) == [
                k for k, c in enumerate(lcs) if n - c <= most
            ], (L, most)
        dists = [distance_ref(xs[:L], ys) for ys in words]
        radii = range(0, n + L + 2)
        by_radius, _ = _lane_gate(table, [_lane_budget(radius, n, L) for radius in radii])
        for radius, addend in zip(radii, by_radius):
            assert list(_flagged_lanes((counts + addend) & top, width)) == [
                k for k, d in enumerate(dists) if d <= radius
            ], (L, radius)
    return lcs


def test_lane_width_is_n_plus_one():
    """Bit n of a lane is the carry bit: the vector uses bits 0..n-1."""
    for n in range(0, 70):
        assert _lane_width(n) == n + 1
        match, mask, ones, size = _packed_match_table([(0,) * n, (1,) * n], n)
        assert size == n
        assert ones == 1 | 1 << n + 1
        assert mask == ones * ((1 << n) - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 15, 16, 31, 32, 63, 64])
def test_lanes_of_repeated_symbols(n):
    """All-equal words and windows give the longest carry runs in a lane.

    The all-zero window drives the counters of (0,)*n and of the two
    words with one 1 up to n and n - 1, so the gate adds a full counter
    to the largest addend; n = 31, 32, 63 and 64 put lane boundaries
    on and next to big-int digit boundaries; symbol 3 occurs in no word.
    """
    words = [(0,) * n, (1,) * n, (0,) * (n - 1) + (1,), (1,) + (0,) * (n - 1), (2,) * n]
    assert check_lanes(words, (0,) * (2 * n + 1)) == [n, 0, n - 1, n - 1, 0]
    for xs in [(1,) * n + (0,) * n, (3,) * (n + 2), (0, 3, 1, 3, 2) * 2, ()]:
        check_lanes(words, xs)


@given(
    st.sampled_from([1, 2, 3, 6, 7, 8, 15, 16, 17]).flatmap(
        lambda n: st.integers(2, 4).flatmap(
            lambda q: st.tuples(
                st.lists(
                    st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(tuple),
                    min_size=1,
                    max_size=6,
                ),
                # Symbols q and q+1 occur in no word.
                st.lists(st.integers(0, q + 1), max_size=2 * n + 2).map(tuple),
            )
        )
    )
)
def test_lanes_match_full_matrix_reference(case):
    words, xs = case
    check_lanes(words, xs)


def or_loop_match_table(words, n):
    """The match table built by or-ing 1 << j into one growing int per symbol."""
    width = n + 1
    match = {}
    start = 0
    for ys in words:
        for j, y in enumerate(ys, start):
            match[y] = match.get(y, 0) | 1 << j
        start += width
    ones = ((1 << start) - 1) // ((1 << width) - 1)
    return match, ((1 << n) - 1) * ones, ones, n


@given(
    st.integers(0, 17).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 5), min_size=n, max_size=n).map(tuple), max_size=40
        ).map(lambda words: (words, n))
    )
)
def test_packed_match_table_equals_the_or_loop(case):
    words, n = case
    built, ref = _packed_match_table(words, n), or_loop_match_table(words, n)
    assert built == ref
    assert list(built[0].items()) == list(ref[0].items())


def lane_flag_cases(lanes, width, rng):
    """Gate flags, which set no bit of a lane but bit width - 1.

    No lane, every lane, each lane alone (the top lane among them) and
    random subsets of lanes.
    """
    gates = [1 << k * width + width - 1 for k in range(lanes)]
    yield 0
    yield sum(gates)
    yield from gates
    for _ in range(5):
        yield sum(gate for gate in gates if rng.getrandbits(1))


def test_flagged_lanes_and_pack_lanes_equal_reference_loops():
    rng = random.Random(12)
    for n in (1, 5, 8, 20):
        for width in range(1, n + 2):
            for lanes in (1, 2, 7, 64):
                for flags in lane_flag_cases(lanes, width, rng):
                    assert list(_flagged_lanes(flags, width)) == [
                        i // width for i in range(flags.bit_length()) if flags >> i & 1
                    ]
                    values = [flags >> k * width & (1 << width) - 1 for k in range(lanes)]
                    packed = 0
                    for k, value in enumerate(values):
                        packed |= value << k * width
                    assert _pack_lanes(values, width) == packed == flags
    assert _pack_lanes([], 3) == 0


def test_lane_blocks_keep_each_block_of_lanes_in_place():
    """Block i holds exactly the bits of lanes i*lanes .. (i+1)*lanes - 1, checked bit by bit."""
    rng = random.Random(13)
    for width in (1, 3, 11):
        for lanes, count in ((1, 1), (2, 3), (5, 4), (3, 0)):
            value = rng.getrandbits(lanes * count * width + 5)
            run = lanes * width
            assert _lane_blocks(value, width, lanes, count) == [
                sum(value & 1 << b for b in range(i * run, i * run + run)) for i in range(count)
            ]


@given(
    st.sampled_from([2, 3, 5, 11, 16, 17]).flatmap(
        lambda q: st.integers(0, 9).flatmap(
            lambda n: st.tuples(
                st.just(q),
                st.lists(
                    st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(tuple),
                    max_size=12,
                ),
                # Symbols q .. 2q + 1 are held by no word, some above every plane.
                st.lists(st.frozensets(st.integers(0, 2 * q + 1)), min_size=n, max_size=n),
            )
        )
    )
)
def test_plane_table_and_agreements_match_per_lane_counts(case):
    q, words, lists = case
    n = len(lists)
    width = _lane_width(n)
    planes, ones, size = _packed_plane_table(words, n, q)
    assert size == n and len(planes) == (q - 1).bit_length()
    assert ones == sum(1 << k * width for k in range(len(words)))
    for b, plane in enumerate(planes):
        assert plane == sum(
            1 << k * width + j for k, ys in enumerate(words) for j, y in enumerate(ys) if y >> b & 1
        )
    counts = _lane_agreements((planes, ones, n), lists)
    assert [counts >> k * width & (1 << width) - 1 for k in range(len(words))] == [
        sum(y in allowed for y, allowed in zip(ys, lists)) for ys in words
    ]
    assert counts >> len(words) * width == 0


def group_counters(words, n, q, xs, step, groups, longest):
    """Every group's per-lane counters, run `groups` starts at a time.

    Returns {start: [lane counters after t symbols, t = 0..longest]}
    for every start 0, step, 2*step, ... below len(xs) + 2*step, read
    from recurrences over the gram keys of xs, as the concat scan runs
    them.
    """
    table = _packed_match_table(words, n)
    width, G = _lane_width(n), len(words) * _lane_width(n)
    grams = _gram_table(table, q, groups, G)
    starts = range(0, len(xs) + 2 * step, step)
    keys = _gram_keys(xs, q, step, groups, starts.stop + longest)
    out = {}
    for h, phi in enumerate(starts[::groups]):
        row = list(_lcs_steps(keys[phi : phi + longest], grams))
        assert len(row) == longest + 1
        assert all(counts < 1 << groups * G for counts in row)
        for s, lanes in enumerate(zip(*(_split_groups([c], groups, G) for c in row))):
            out[phi + s * step] = [
                [counts >> k * width & ((1 << width) - 1) for k in range(len(words))]
                for counts in lanes
            ]
    return out


@pytest.mark.parametrize("groups", range(1, 9))
def test_every_gram_group_counts_its_own_start(groups):
    """Group s of a gram recurrence equals lcs_matrix_ref for start i + s*step.

    At every prefix length t, lane k of group s holds
    lcs(xs[start:start + t], words[k]), and past the end of xs the
    counter stays at its last symbol's value; starts at or past the end
    count 0.  Steps 1 to 3, over q = 3 and words of length 5.
    """
    rng = random.Random(groups)
    q, n = 3, 5
    for step in (1, 2, 3):
        words = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(4)]
        xs = tuple(rng.randrange(q) for _ in range(rng.randrange(8, 24)))
        longest = rng.randrange(1, 9)
        counted = group_counters(words, n, q, xs, step, groups, longest)
        for start, rows in counted.items():
            content = xs[start : start + longest]
            refs = [lcs_matrix_ref(content, ys) for ys in words]
            for t, lanes in enumerate(rows):
                expected = [ref[min(t, len(content))][n] for ref in refs]
                assert lanes == expected, (step, start, t)


def test_gram_helpers_lay_out_groups_side_by_side():
    """Repeats, splits and gram keys on a hand-checked case."""
    assert _repeat_groups(0b101, 3, 4) == 0b0101_0101_0101
    assert _split_groups([0b0110_0000_1111, 0], 3, 4) == [0b1111, 0, 0b0110, 0, 0, 0]
    # Grams of (0, 1, 2) at step 1 over q = 3: the sentinel 3 past the end.
    assert _gram_keys((0, 1, 2), 3, 1, 2, 4) == [(0, 1), (1, 2), (2, 3), (3, 3)]
    assert _gram_keys((0, 1, 2), 3, 2, 2, 2) == [(0, 2), (1, 3)]
    # Symbol 0 sits at bit 0, symbol 1 at bit 1; group 1 starts at bit 3.
    # Symbol 2 and the sentinel 3 match nothing, so (2, 2), (2, 3) and
    # (3, 3) are not stored: 10 of the 13 grams with a sentinel suffix.
    grams = _gram_table(_packed_match_table([(0, 1)], 2), 3, 2, 3)
    assert grams[0] == {
        (0, 0): 0b001_001, (0, 1): 0b010_001, (0, 2): 0b001, (0, 3): 0b001,
        (1, 0): 0b001_010, (1, 1): 0b010_010, (1, 2): 0b010, (1, 3): 0b010,
        (2, 0): 0b001_000, (2, 1): 0b010_000,
    }
    assert grams[1:] == (0b011_011, 0b001_001, 2)


def test_power_exceeds_matches_the_built_power():
    for base in (2, 3, 5, 10):
        for exponent in range(0, 25):
            for limit in (1, 7, 8, 9, 10 ** 6, 10 ** 7):
                assert _power_exceeds(base, exponent, limit) == (base ** exponent > limit)
    # An exponent no power could be built for still answers at once.
    assert _power_exceeds(2, 10 ** 18, 10 ** 7)


def test_packed_table_rejects_a_word_that_overflows_its_lane():
    with pytest.raises(BoundViolationError):
        _packed_match_table([(0, 1, 0), (1, 0, 1, 1)], 3)


def test_distance_known_values():
    assert insdel_distance(word((0, 1, 1, 0), 2), word((0, 1, 0, 1), 2)) == 2
    x = word((1, 0, 1), 2)
    assert insdel_distance(x, x) == 0
    assert insdel_distance(word((), 2), word((0, 1), 2)) == 2


@given(pairs_strategy())
def test_distance_agrees_with_reference_and_stays_in_range(pair):
    a, b = pair
    d = insdel_distance(a, b)
    assert d == distance_ref(a.symbols, b.symbols)
    assert abs(len(a) - len(b)) <= d <= len(a) + len(b)
    if len(a) == len(b):
        assert d % 2 == 0


def test_metric_axioms_exhaustive_small_spaces():
    """Identity, symmetry, and the triangle inequality over two full spaces."""
    for q, top in ((2, 4), (3, 3)):
        words = [
            word(t, q) for m in range(top + 1) for t in all_tuples(q, m)
        ]
        dist = {}
        for a, b in itertools.combinations_with_replacement(words, 2):
            d = insdel_distance(a, b)
            dist[a, b] = dist[b, a] = d
            assert (d == 0) == (a == b)
            assert insdel_distance(b, a) == d
        for a, b, c in itertools.combinations(words, 3):
            assert dist[a, c] <= dist[a, b] + dist[b, c]


def test_count_runs():
    assert count_runs(word((0, 1, 1, 0), 2)) == 3
    assert count_runs(word((0, 1, 0, 1), 2)) == 4
    assert count_runs(word((0, 0, 0, 0, 0), 2)) == 1
    assert count_runs(word((), 2)) == 0


def test_run_profile_decomposition_cases():
    # Leading zeros, a nonzero pair, then a trailing zero: gaps a = (2, 0, 1).
    assert run_profile(word((0, 0, 1, 2, 0), 3)) == RunProfile(w=2, t=1, phi=4)
    assert run_profile(word((0, 1, 1, 0), 2)) == RunProfile(w=2, t=1, phi=3)


def test_run_profile_repetition_word_is_capped():
    # All-nonzero words have every gap empty; t is capped at w.
    assert run_profile(word((1, 1, 1), 2)) == RunProfile(w=3, t=3, phi=1)
    assert run_profile(word((), 2)) == RunProfile(w=0, t=0, phi=0)


@given(words_strategy())
def test_run_profile_consistency(w):
    profile = run_profile(w)
    assert profile.w == hamming_weight(w)
    assert profile.phi == count_runs(w)
    assert 0 <= profile.t <= profile.w + 1


def test_is_repetition():
    assert is_repetition(word((0, 0, 0), 2))
    assert not is_repetition(word((0, 1, 0), 2))
    assert is_repetition(word((2, 2), 3))
    assert is_repetition(word((), 2))


def test_hamming_weight():
    assert hamming_weight(word((0, 1, 1, 0), 2)) == 2
    assert hamming_weight(word((0, 0), 2)) == 0
    assert hamming_weight(word((1, 2, 1), 3)) == 3


def test_word_validation():
    with pytest.raises(DomainError):
        word((0, 2), 2)
    with pytest.raises(DomainError):
        word((-1,), 3)
    with pytest.raises(DomainError):
        word((), 1)
    # A non-integer symbol is refused, not truncated or parsed.
    for symbols in ([0, 1.9], [0, 1.0], ["0", "1"]):
        with pytest.raises(DomainError, match="word symbols must be integers"):
            word(symbols, 2)
    assert word([np.int64(1), 0], 2).symbols == (1, 0)
    assert all(type(s) is int for s in word([np.int64(1), 0], 2).symbols)


def test_word_slicing_keeps_alphabet():
    w = word((0, 1, 2, 1), 3)
    assert w[1:3] == word((1, 2), 3)
    assert w[0] == 0
    assert list(w) == [0, 1, 2, 1]


@given(
    words_strategy(max_q=16, max_len=12),
    st.integers(-14, 14) | st.none(),
    st.integers(-14, 14) | st.none(),
    st.sampled_from([None, 1, 2, 3, -1, -2]),
)
def test_word_slices_equal_validated_words(w, start, stop, step):
    piece = w[start:stop:step]
    validated = Word(w.symbols[start:stop:step], w.q)
    assert piece == validated
    assert hash(piece) == hash(validated)
    assert type(piece.symbols) is tuple


def test_format_small_alphabet_is_digit_string():
    assert format_word(word((0, 1, 1, 0), 2)) == "0110"
    assert format_word(word((), 2)) == ""
    assert str(word((9,), 10)) == "9"


def test_format_large_alphabet_is_comma_separated():
    assert format_word(word((0, 12, 3), 16)) == "0,12,3"


@given(words_strategy(max_q=16, max_len=8))
def test_parse_inverts_format(w):
    assert parse_word(format_word(w), w.q) == w


def test_parse_word_errors_and_edge_cases():
    assert parse_word("", 2) == word((), 2)
    assert parse_word("  01 ", 2) == word((0, 1), 2)
    with pytest.raises(DomainError):
        parse_word("01x", 2)
    with pytest.raises(DomainError):
        parse_word("12", 2)
    with pytest.raises(DomainError):
        parse_word("1,,2", 16)


def test_iter_words_is_lexicographic_and_complete():
    listing = list(iter_words(2, 3))
    assert len(listing) == 8
    assert listing[0] == word((0, 0, 0), 2)
    assert listing[-1] == word((1, 1, 1), 2)
    assert listing == sorted(listing, key=lambda w: w.symbols)
    assert len(list(iter_words(3, 0))) == 1


@pytest.mark.parametrize("q,length", [(0, 3), (1, 2), (-2, 1), (2, -1)])
def test_iter_words_rejects_bad_arguments_at_the_call(q, length):
    with pytest.raises(DomainError):
        iter_words(q, length)
