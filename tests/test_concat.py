"""The indexed concatenation pipeline, end to end at desk scale."""

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import random
import time
import tracemalloc
import warnings
from fractions import Fraction
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from insdel import concat
from insdel.channel import adversarial_block_channel, random_channel
from insdel.concat import (
    ConcatParams,
    build_windows,
    concat_encode,
    concat_encode_message,
    concat_stats,
    feasible_jN,
    list_decode_concat,
    list_decode_concat_detailed,
    make_concat_params,
    params_from_json_dict,
    params_to_json_dict,
)
from insdel.codes import philox_generator, sample_word_sequence
from insdel.core import BoundViolationError, CapacityError, DomainError, RegimeWarning
from insdel.core import insdel_distance, word
from insdel.core import _flagged_lanes, _gram_keys, _gram_table, _lane_budget, _lane_gate, _lane_width
from insdel.core import _lcs_steps, _packed_match_table, _split_groups
from insdel.decode import rs_encode
from oracles import (
    DESK,
    DESK_FRACTIONAL,
    HOST_N3,
    HOST_N6,
    HOST_WIDE,
    SHARP,
    Window,
    align_window,
    brute_feasible,
    good_index_count,
    lcs_matrix_ref,
    rs_codebook_ref,
    window_cap_ref,
    windows_ref,
)

MESSAGE = (1, 2, 0)


@pytest.fixture(scope="module")
def host_n6() -> ConcatParams:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return make_concat_params(**HOST_N6)


@pytest.fixture(scope="module")
def host_n3() -> ConcatParams:
    with pytest.warns(RegimeWarning):
        return make_concat_params(**HOST_N3)


@pytest.fixture(scope="module")
def desk_fractional() -> ConcatParams:
    with pytest.warns(RegimeWarning):
        return make_concat_params(**DESK_FRACTIONAL)


def full_budget_channel(params: ConcatParams, seed: int):
    """Encode a seeded message and spend floor(tau*n*N) edits on random blocks.

    Same spreading rule as the end-to-end acceptance test: one edit at a
    time on a random block, each block capped at 2n edits.  Returns the
    sent and the received word.
    """
    rng = philox_generator(seed)
    message = rng.integers(0, params.outer.p, size=params.outer.k)
    sent = concat_encode_message(params, message)
    budgets = [0] * params.N
    remaining = params.radius
    while remaining:
        pick = rng.integers(0, params.N)
        if budgets[pick] < 2 * params.n:
            budgets[pick] += 1
            remaining -= 1
    received, _ = adversarial_block_channel(sent, params.n, budgets, seed)
    return sent, received


def random_budget_channel(params: ConcatParams, seed: int):
    """Encode a random message and spend a random budget of at most the radius.

    Draws, in order, from random.Random(seed): the budget in [0, radius],
    the message, the blocks (one edit at a time, each capped at 2n) and
    the channel seed.  Returns the received word.
    """
    rng = random.Random(seed)
    remaining = rng.randrange(params.radius + 1)
    message = [rng.randrange(params.outer.p) for _ in range(params.outer.k)]
    budgets = [0] * params.N
    while remaining:
        pick = rng.randrange(params.N)
        if budgets[pick] < 2 * params.n:
            budgets[pick] += 1
            remaining -= 1
    sent = concat_encode_message(params, message)
    received, _ = adversarial_block_channel(sent, params.n, budgets, rng.randrange(2**63))
    return received


# DESK_FRACTIONAL seeds of random_budget_channel whose position lists
# hold colliding symbols, so their printed order follows insertion order
# unless the lists are built sorted.
COLLIDING_SEEDS = (112, 591)


def full_budget_roundtrip(params: ConcatParams, seed: int):
    """full_budget_channel followed by the detailed decode of the received word."""
    sent, received = full_budget_channel(params, seed)
    return sent, list_decode_concat_detailed(params, received)


def test_desk_derived_quantities(desk_params):
    assert desk_params.tau_hat == Fraction(1, 10)
    assert desk_params.tau_hat_n == 1
    assert desk_params.eps_cont_N == 2
    assert desk_params.tau == Fraction(1, 5)
    assert desk_params.radius == 16
    assert desk_params.inner_radius == 5


def test_fractional_radii_round_down(desk_fractional):
    assert desk_fractional.tau * 80 == Fraction(46, 3)
    assert desk_fractional.tau_in * 10 == Fraction(9, 2)
    assert desk_fractional.radius == 15
    assert desk_fractional.inner_radius == 4


def test_desk_sits_exactly_on_the_regime_threshold():
    # tau_star equals tau_in - eps_conc/(1 - alpha_out), so no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_concat_params(**DESK)


def test_regime_warning_below_threshold():
    with pytest.warns(RegimeWarning):
        make_concat_params(**{**DESK, "tau_star": Fraction(3, 10)})


BAD_FIELDS = [
    {"eps_cont": Fraction(1, 3)},
    {"tau_star": Fraction(1, 2)},
    {"tau_star": Fraction(9, 20)},
    {"alpha_out": 0},
    {"alpha_out": Fraction(3, 2)},
    {"eps_conc": Fraction(1, 2)},
    {"eps_in": Fraction(-1, 10)},
    {"ell_out": -1},
    {"q": 1},
    {"tau_in": "nonsense"},
]


@pytest.mark.parametrize("override", BAD_FIELDS)
def test_params_validation(override):
    with pytest.raises(DomainError):
        make_concat_params(**{**DESK, **override})


@pytest.mark.parametrize(
    "override, error",
    [
        ({"N": 10 ** 18}, DomainError),
        ({"N": 10 ** 18, "p": 2 ** 61 - 1}, CapacityError),
        ({"n": 0}, DomainError),
        ({"n": 10 ** 18}, CapacityError),
        ({"p": 10 ** 18 + 9}, CapacityError),
        *((override, DomainError) for override in BAD_FIELDS),
        ({"inner_seed": -1}, DomainError),
        ({"inner_seed": 2 ** 128}, DomainError),
        ({"points": (0, 1, 2)}, DomainError),
    ],
)
def test_make_concat_params_refuses_before_building_anything(monkeypatch, override, error):
    """Every field is checked first: no evaluation points, RS code or inner word is built."""

    def built(*args, **kwargs):
        raise AssertionError("built before the cheap bounds")

    monkeypatch.setattr(concat, "RSCode", built)
    monkeypatch.setattr(concat, "sample_word_sequence", built)
    with pytest.raises(error):
        make_concat_params(**{**DESK, **override})


@pytest.mark.parametrize(
    "field, value",
    [("N", 8.0), ("n", 10.5), ("q", 2.0), ("ell_out", 88.5), ("ell_out", True),
     ("inner_seed", 2024.7)],
)
def test_make_concat_params_refuses_non_integer_counts(monkeypatch, field, value):
    """A float or bool count is refused, not truncated or kept, before anything is built."""

    def built(*args, **kwargs):
        raise AssertionError("built from a non-integer count")

    monkeypatch.setattr(concat, "RSCode", built)
    monkeypatch.setattr(concat, "sample_word_sequence", built)
    with pytest.raises(DomainError, match=f"must be an integer, got {value!r}$"):
        make_concat_params(**{**DESK, field: value})


def test_inner_encoder_symbol_limit_is_inclusive(monkeypatch):
    """DESK's encoder holds 2 * 11 words of 10 symbols: built at a limit of 220, refused below."""
    monkeypatch.setattr(concat, "_INNER_SYMBOL_LIMIT", 220)
    assert len(make_concat_params(**DESK).inner) == 22
    monkeypatch.setattr(concat, "_INNER_SYMBOL_LIMIT", 219)
    with pytest.raises(CapacityError, match="exceeds 219 symbols"):
        make_concat_params(**DESK)


@pytest.mark.parametrize(
    "field, value",
    [("N", 8.0), ("n", 10.5), ("q", 2.0), ("ell_out", 88.5), ("ell_out", True)],
)
def test_params_refuse_non_integer_counts_however_built(desk_params, field, value):
    """ConcatParams itself checks its counts, so dataclasses.replace cannot slip a float in."""
    with pytest.raises(DomainError, match=f"must be an integer, got {value!r}$"):
        dataclasses.replace(desk_params, **{field: value})


def test_params_fields_are_the_json_record(desk_params):
    """The init fields are the record's keys; outer and inner are built from them."""
    init = [f.name for f in dataclasses.fields(ConcatParams) if f.init]
    assert init == [*DESK, "points"]
    assert set(init) == set(params_to_json_dict(desk_params))
    assert desk_params.points == tuple(range(8)) == desk_params.outer.points
    assert (desk_params.outer.p, desk_params.outer.k) == (desk_params.p, desk_params.K)
    assert desk_params.inner == tuple(sample_word_sequence(2, 10, 22, 2024))
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(desk_params, inner=desk_params.inner)


def test_inner_encoder_table_layout(desk_params, host_n6):
    """Word k encodes (index, sym) with divmod(k, p) = (index - 1, sym).

    Block i carries index i mod E + 1, so its symbol tuples are words
    (i mod E) * p .. (i mod E) * p + p - 1.
    """
    for params in (desk_params, host_n6):
        E, p = params.eps_cont_N, params.p
        assert len(set(params.inner)) == len(params.inner) == E * p
        for i, block in enumerate(params.block_symbols):
            assert block == tuple(params.inner[(i % E) * p + sym].symbols for sym in range(p))


def test_inner_encoder_sampling_is_seeded():
    a, b = make_concat_params(**DESK), make_concat_params(**DESK)
    assert a.inner == b.inner
    assert make_concat_params(**{**DESK, "inner_seed": 2025}).inner != a.inner


def test_concat_encode_block_structure(desk_params, host_n6):
    """Block i (1-based) encodes outer symbol i under the cyclic index (i - 1) mod eps_cont_N + 1."""
    for params, message in ((desk_params, MESSAGE), (host_n6, MESSAGE[:2])):
        outer_word = rs_encode(params.outer, message)
        c = concat_encode(params, outer_word)
        n, E, p = params.n, params.eps_cont_N, params.p
        assert len(c) == n * params.N
        for i, sym in enumerate(outer_word, start=1):
            assert c[(i - 1) * n : i * n] == params.inner[(i - 1) % E * p + sym]
        assert concat_encode_message(params, message) == c


def test_concat_encode_length_check(desk_params):
    with pytest.raises(DomainError):
        concat_encode(desk_params, (0,) * 7)


@pytest.mark.parametrize("symbol", [1.5, 1.0, True, "1"])
def test_outer_and_message_symbols_must_be_integers(desk_params, symbol):
    """A float, bool or string symbol is refused, not computed with or read as 1."""
    with pytest.raises(DomainError, match=f"must be an integer, got {symbol!r}$"):
        rs_encode(desk_params.outer, (0, symbol, 0))
    with pytest.raises(DomainError, match=f"must be an integer, got {symbol!r}$"):
        concat_encode(desk_params, (0, symbol) + (0,) * 6)
    with pytest.raises(DomainError, match=f"must be an integer, got {symbol!r}$"):
        concat_encode_message(desk_params, (symbol, 0, 0))


@pytest.mark.parametrize("bad", [11, -1])
def test_concat_encode_outer_symbol_range(desk_params, bad):
    """Symbols p and -1 are rejected, not looked up in the inner word table."""
    outer_word = list(rs_encode(desk_params.outer, MESSAGE))
    outer_word[3] = bad
    with pytest.raises(DomainError, match=rf"outer symbol {bad} outside \[0, 11\)"):
        concat_encode(desk_params, outer_word)


def test_concat_encode_equals_a_validated_word(desk_params):
    c = concat_encode_message(desk_params, MESSAGE)
    assert type(c.symbols) is tuple
    assert c == word(c.symbols, desk_params.q)
    assert hash(c) == hash(word(c.symbols, desk_params.q))


def test_window_ordering_and_content():
    wins = [Window(4, 2, 2, 1), Window(0, 4, 0, 2), Window(2, 2, 1, 1)]
    assert [w.phi for w in sorted(wins)] == [0, 2, 4]
    r = word((0, 1, 1, 0, 1, 0), 2)
    win = Window(2, 3, 1, 1)
    assert r[win.phi : win.phi + win.lambda_len].symbols == (1, 0, 1)
    with pytest.raises(DomainError):
        Window(-1, 2, 0, 1)


def test_build_windows_census(host_n3):
    grid = build_windows(host_n3, 10)
    assert dataclasses.astuple(grid) == (1, 10, 8, 3, 6)
    assert len(grid) == 36


def test_build_windows_small_and_invalid(desk_params):
    assert len(build_windows(desk_params, 0)) == 0
    with pytest.raises(DomainError):
        build_windows(desk_params, -1)


@pytest.mark.parametrize(
    "instance",
    [DESK, DESK_FRACTIONAL, HOST_N6, HOST_N3, HOST_WIDE, SHARP],
    ids=["desk", "desk-fractional", "host-n6", "host-n3", "host-wide", "sharp"],
)
def test_build_windows_matches_reference_grid(instance):
    """The record's (lam, mu) rectangle and size equal oracles.windows_ref's for every M up to nN + radius + 2."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        params = make_concat_params(**instance)
    assert params.window_cap == math.floor(window_cap_ref(params))
    for M in range(params.n * params.N + params.radius + 3):
        grid = build_windows(params, M)
        ref = {(w.lam, w.mu) for w in windows_ref(params, M)}
        rectangle = {
            (lam, mu) for lam in range(grid.lam_hi + 1) for mu in range(grid.mu_lo, grid.mu_hi + 1)
        }
        assert (grid.step, grid.M) == (params.tau_hat_n, M)
        assert rectangle == ref and len(grid) == len(ref), M
    with pytest.raises(DomainError):
        build_windows(params, -1)


def test_window_census_cap_can_fail():
    """A census above the cached integer cap raises, inside the decodable range."""
    params = make_concat_params(**DESK)  # fresh: the forced cap must not leak
    M = params.n * params.N + params.radius
    params.__dict__["window_cap"] = len(build_windows(params, M)) - 1
    with pytest.raises(BoundViolationError, match="^window census exceeded its linear-size cap$"):
        build_windows(params, M)
    with pytest.raises(BoundViolationError, match="^window census exceeded its linear-size cap$"):
        list_decode_concat_detailed(params, word((0,) * M, params.q))


def test_window_census_cap_is_skipped_outside_the_decodable_range():
    params = make_concat_params(**DESK)
    params.__dict__["window_cap"] = 0
    total = params.n * params.N
    for M in (total - params.radius - 1, total + params.radius + 1):
        assert len(build_windows(params, M)) > 0
    for M in (total - params.radius, total, total + params.radius):
        with pytest.raises(BoundViolationError):
            build_windows(params, M)


@pytest.mark.parametrize(
    "sp,length,step,expected",
    [
        (1, 3, 2, Window(phi=2, lambda_len=2, lam=1, mu=1)),
        (1, 2, 2, Window(phi=0, lambda_len=4, lam=0, mu=2)),
        (4, 6, 2, Window(phi=4, lambda_len=6, lam=2, mu=3)),
        (0, 0, 3, Window(phi=0, lambda_len=0, lam=0, mu=0)),
    ],
)
def test_align_window_pinned_cases(sp, length, step, expected):
    assert align_window(sp, length, step) == expected


def test_align_window_validation():
    with pytest.raises(DomainError):
        align_window(-1, 2, 2)
    with pytest.raises(DomainError):
        align_window(1, -2, 2)
    with pytest.raises(DomainError):
        align_window(1, 2, 0)


def test_align_window_stays_close():
    """The snapped window's content is within one grid step of the subword."""
    rng = np.random.default_rng(404)
    for _ in range(150):
        step = int(rng.integers(1, 4))
        sp = int(rng.integers(0, 20))
        length = int(rng.integers(0, 25))
        r = word(tuple(int(v) for v in rng.integers(0, 2, size=sp + length + step + 5)), 2)
        win = align_window(sp, length, step)
        assert insdel_distance(r[sp : sp + length], r[win.phi : win.phi + win.lambda_len]) <= step


def index_classes(positions: range, i: int, E: int) -> set[int]:
    """The j_N with block position i + j_N * E in positions: index i + 1's share."""
    return {(j - i) // E for j in positions if j >= i and (j - i) % E == 0}


def check_feasible_against_scan(params, M, coords) -> None:
    """feasible_jN's range, split by encoder index, equals brute_feasible.

    Indices run to one past the last, which brute_feasible accepts too.
    """
    E = params.eps_cont_N
    for lam, mu in coords:
        positions = feasible_jN(lam, mu, params, M)
        assert type(positions) is range
        for i in range(E + 1):
            assert index_classes(positions, i, E) == brute_feasible(
                i, lam, mu, params, M
            ), (M, lam, mu, i)


def test_feasible_jN_pinned_example(host_n6):
    positions = feasible_jN(4, 4, host_n6, 48)
    assert positions == range(1, 2)
    assert index_classes(positions, 1, host_n6.eps_cont_N) == {0}


def test_feasible_jN_matches_direct_scan(desk_params, desk_fractional):
    # Off-grid coordinates too, on DESK at three received lengths.
    for M in (70, 80, 90):
        check_feasible_against_scan(
            desk_params, M, [(lam, mu) for lam in range(13) for mu in range(9)]
        )
    # Every decodable M and every grid window, on non-integer radii and
    # on the other instances (HOST_N3 and HOST_WIDE: coarse or clipped
    # grids; SHARP: n = 20, radius 16).
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        others = [make_concat_params(**inst) for inst in (HOST_N3, HOST_WIDE, SHARP)]
    for params in [desk_fractional, *others]:
        total = params.n * params.N
        for M in range(max(0, total - params.radius), total + params.radius + 1):
            coords = {(w.lam, w.mu) for w in windows_ref(params, M)}
            check_feasible_against_scan(params, M, sorted(coords))


def test_feasible_jN_gates(desk_params):
    assert feasible_jN(0, 20, desk_params, 80) == range(0)
    assert feasible_jN(79, 6, desk_params, 80) == range(0)
    with pytest.raises(DomainError):
        feasible_jN(-1, 6, desk_params, 80)


def test_zero_error_roundtrip(desk_params):
    sent = concat_encode_message(desk_params, MESSAGE)
    report = list_decode_concat_detailed(desk_params, sent)
    assert sent in report.codewords
    assert rs_encode(desk_params.outer, MESSAGE) in report.outer_codewords
    assert report.window_count == len(build_windows(desk_params, 80))
    assert report.list_mass == sum(len(s) for s in report.position_lists)
    assert report.list_mass <= desk_params.ell_out
    assert list(report.codewords) == sorted(report.codewords, key=lambda w: w.symbols)
    assert report.max_inner_list <= report.inner_match_total


@pytest.mark.parametrize(
    "seed,missing,inner_matches,list_size",
    [
        (0, [[1, 3, 4, 9], [], [9], [7], [1, 3, 4, 9], [], [], [1, 2, 5, 7, 10]], 1839, 1331),
        (3, [[6, 8, 10], [6, 8], [8, 10], [6], [], [0, 6], [10], [6, 8]], 2213, 1326),
        (7, [[8, 10], [6, 8], [], [], [], [7], [4], [6]], 2309, 1331),
    ],
)
def test_fractional_radius_decodes_pinned(
    desk_fractional, seed, missing, inner_matches, list_size
):
    """Full-budget decodes with tau*n*N = 46/3 and tau_in*n = 9/2.

    missing[j] lists the field symbols absent from position list j.
    """
    sent, report = full_budget_roundtrip(desk_fractional, seed)
    field = set(range(desk_fractional.outer.p))
    assert [sorted(field - entries) for entries in report.position_lists] == missing
    assert report.inner_match_total == inner_matches
    assert len(report.codewords) == list_size
    assert sent in report.codewords


def test_sharp_instance_lists_are_short_and_contain_the_sent_word():
    """At the full budget the sharp list is tiny next to p**K = 1331."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = make_concat_params(**SHARP)
    assert params.radius == 16
    assert params.outer.p ** params.outer.k == 1331
    for seed in range(10):
        sent, report = full_budget_roundtrip(params, seed)
        assert sent in report.codewords, seed
        assert len(report.codewords) <= 10, seed


def fresh_params(instance) -> ConcatParams:
    """Params with an empty listed-word memo, whatever earlier tests decoded."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        return make_concat_params(**instance)


def one_copy_table(params: ConcatParams):
    """The packed LCS table over the inner words, word k in lane k: inner_grams' lanes, once."""
    return _packed_match_table([w.symbols for w in params.inner], params.n)


@pytest.mark.parametrize(
    "instance",
    [DESK, DESK_FRACTIONAL, HOST_N3, HOST_N6, HOST_WIDE, SHARP],
    ids=["desk", "desk-fractional", "host-n3", "host-n6", "host-wide", "sharp"],
)
def test_listed_words_are_the_encoded_outer_codewords_in_symbol_order(instance):
    """Memo misses (first decode) and hits (later ones) list the same words.

    Each report's codewords are concat_encode of its outer codewords,
    sorted by symbols.
    """
    params = fresh_params(instance)
    for seed in range(3):
        _, report = full_budget_roundtrip(params, seed)
        expected = sorted(
            (concat_encode(params, cw) for cw in report.outer_codewords), key=attrgetter("symbols")
        )
        assert list(report.codewords) == expected, seed


def test_a_repeated_decode_builds_no_word(monkeypatch):
    """The first DESK decode builds all 1331 listed words, a repeat none.

    listed_word_misses counts them and stays out of equality.
    """
    params = fresh_params(DESK)
    _, received = full_budget_channel(params, 0)
    assert params.listed_words[1] == {}
    first = list_decode_concat_detailed(params, received)
    assert len(params.listed_words[1]) == len(first.codewords) == 1331
    assert first.listed_word_misses == 1331

    def no_build(*args):
        raise AssertionError("a memo hit built a word")

    monkeypatch.setattr(concat, "_concat_words", no_build)
    second = list_decode_concat_detailed(params, received)
    assert second.listed_word_misses == 0
    assert second == first
    assert repr(second) == repr(first)
    assert all(a is b for a, b in zip(second.codewords, first.codewords))
    assert "sorted_codebook" in params.outer.__dict__


def test_desk_recovery_table_planes_and_full_memo_stay_under_their_byte_bounds():
    """Each cache a DESK decode fills frees no more than its docstring's bound.

    DESK lists all p**K codewords, so one decode fills the memo.  A full
    gc empties the tuple free lists, so it runs before tracing starts,
    or the caches could reuse untraced tuples, and before each reading,
    or dropped tuples would stay counted.  Each cache must free over
    half its bound, so the reading saw it.
    """
    params = fresh_params(DESK)
    N, n, p, K = params.N, params.n, params.outer.p, params.outer.k
    _, received = full_budget_channel(params, 0)
    bounds = {
        "listed_words": (p ** K + N * p) * (8 * n * N + N * p.bit_length() // 7 + 320),
        "codebook_planes": ((p - 1).bit_length() + 1) * (p ** K * (N + 1) // 7 + 64) + 120,
        "sorted_codebook": p ** K * (48 + 8 * N) + 40,
    }
    freed = {}
    gc.collect()
    tracemalloc.start()
    try:
        assert len(list_decode_concat_detailed(params, received).codewords) == p ** K
        # The memo's keys are the table's tuples, so the memo goes first.
        for name in bounds:
            owner = params if name == "listed_words" else params.outer
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del owner.__dict__[name]
            gc.collect()
            freed[name] = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    for name, bound in bounds.items():
        assert bound // 2 < freed[name] <= bound, (name, freed[name], bound)


@pytest.mark.parametrize("instance", [DESK, SHARP], ids=["desk", "sharp"])
def test_listed_word_memo_holds_recovered_codebook_members_only(instance):
    params = fresh_params(instance)
    for seed in range(6):
        full_budget_roundtrip(params, seed)
    digits, memo = params.listed_words
    assert memo and set(memo) <= set(rs_codebook_ref(params.outer))
    assert len(memo) <= params.outer.p ** params.outer.k
    for cw, (key, word) in memo.items():
        assert word == concat_encode(params, cw)
        assert key == sum(digits[i][sym] for i, sym in enumerate(cw))


@given(data=st.data())
def test_listed_word_keys_order_like_symbols(desk_params, host_n6, data):
    """Integer key order is symbol order, also between words sharing a prefix of blocks."""
    for params in (desk_params, host_n6):
        p, N = params.outer.p, params.N
        digits, _ = params.listed_words
        symbols = st.integers(0, p - 1)
        a = data.draw(st.lists(symbols, min_size=N, max_size=N))
        shared = data.draw(st.integers(0, N))
        b = a[:shared] + data.draw(st.lists(symbols, min_size=N - shared, max_size=N - shared))
        key_a, key_b = (sum(digits[i][sym] for i, sym in enumerate(w)) for w in (a, b))
        sym_a, sym_b = (concat_encode(params, w).symbols for w in (a, b))
        assert (key_a < key_b, key_a == key_b) == (sym_a < sym_b, sym_a == sym_b)


def direct_scan(params: ConcatParams, received):
    """Redo the inner scan window by window with oracles.lcs_matrix_ref.

    A domain word hits a grid window of nominal length L = mu * step when
    n + L - 2*lcs <= inner_radius, lcs taken over the window's content
    inside the word: each symbol past the end counts as one edit.  Each
    start's full LCS matrix against a domain word, over the start's
    longest window, gives the LCS of every window there.  Returns each
    window's hit count and the position lists that each hit's symbol,
    entered at every position oracles.brute_feasible allows, builds.
    Shares no code with the decoder's match tables, scan or feasibility
    cache.
    """
    n, inner_radius, E, p = params.n, params.inner_radius, params.eps_cont_N, params.outer.p
    M = len(received)
    words = params.inner
    hits = []
    lists = [set() for _ in range(params.N)]
    matrices = {}
    # Sorted windows come grouped by start, so each start's matrices are built once.
    for win in sorted(windows_ref(params, M)):
        if win.phi not in matrices:
            longest = received[win.phi : win.phi + params.window_grid[2] * params.tau_hat_n]
            matrices = {win.phi: [lcs_matrix_ref(longest.symbols, w.symbols) for w in words]}
        hit = [
            divmod(k, p)
            for k, matrix in enumerate(matrices[win.phi])
            if n + win.mu * params.tau_hat_n - 2 * matrix[win.lambda_len][n] <= inner_radius
        ]
        hits.append(len(hit))
        for i, sym in hit:
            for j_N in brute_feasible(i, win.lam, win.mu, params, M):
                lists[i + j_N * E].add(sym)
    return hits, lists


def assert_report_matches_direct_scan(report, params, received, label):
    hits, lists = direct_scan(params, received)
    assert report.window_count == len(hits), label
    assert (report.inner_match_total, report.max_inner_list) == (sum(hits), max(hits)), label
    assert [set(entries) for entries in report.position_lists] == lists, label


@pytest.mark.parametrize(
    "instance, seeds",
    [(DESK, range(4)), (SHARP, range(2)), (HOST_WIDE, range(12))],
    ids=["desk", "sharp", "host-wide"],
)
def test_inner_scan_counts_match_full_matrix_reference(instance, seeds):
    """The report's window count, match totals and position lists equal direct_scan's."""
    params = fresh_params(instance)
    for seed in seeds:
        _, received = full_budget_channel(params, seed)
        report = list_decode_concat_detailed(params, received)
        assert_report_matches_direct_scan(report, params, received, seed)


@pytest.mark.parametrize("instance", [DESK, SHARP, HOST_WIDE], ids=["desk", "sharp", "host-wide"])
def test_feasibility_cache_decodes_like_the_direct_scan_at_every_length(instance):
    """Decodes that fill the cache and decodes that read it match direct_scan.

    Words of length n*N - radius, n*N and n*N + radius, made by random
    deletions and insertions on a sent word, fill one cached length
    each; a second, different word at the first length reads that
    length's slots back.  Every report also equals, field by field and
    in repr, the decode of the same word on freshly built params.
    """
    params = fresh_params(instance)
    radius, rng = params.radius, random.Random(7)
    sent = concat_encode_message(params, [rng.randrange(params.outer.p) for _ in range(params.outer.k)])
    shapes = [(0, radius), (radius // 2, radius // 2), (radius, 0), (0, radius)]
    for n_ins, n_del in shapes:
        received, _ = random_channel(sent, n_ins, n_del, rng.randrange(2**63))
        label = (n_ins, n_del)
        assert len(received) == len(sent) + n_ins - n_del, label
        report = list_decode_concat_detailed(params, received)
        assert_report_matches_direct_scan(report, params, received, label)
        fresh = list_decode_concat_detailed(fresh_params(instance), received)
        assert report == fresh, label
        assert repr(report) == repr(fresh), label
    assert sorted(params.length_tables[0]) == sorted(
        {len(sent) - radius, len(sent), len(sent) + radius}
    )


def count_feasible_calls(monkeypatch) -> list[int]:
    """Rebind concat.feasible_jN, as a traced benchmark run does, to count its calls."""
    calls = [0]
    reference = concat.feasible_jN

    def counted(*args):
        calls[0] += 1
        return reference(*args)

    monkeypatch.setattr(concat, "feasible_jN", counted)
    return calls


@pytest.mark.parametrize("instance", [DESK, SHARP, HOST_N6], ids=["desk", "sharp", "host-n6"])
def test_a_first_decode_calls_feasibility_once_per_hit_window_and_a_repeat_never(
    monkeypatch, instance
):
    """A first decode calls feasible_jN once per hit window, and a repeat never.

    The hit windows of full_budget_channel(params, 0) are those direct_scan
    finds a hit in; a repeat decode reads every slot back.
    """
    params = fresh_params(instance)
    _, received = full_budget_channel(params, 0)
    hit_windows = sum(map(bool, direct_scan(params, received)[0]))
    calls = count_feasible_calls(monkeypatch)
    first = list_decode_concat_detailed(params, received)
    assert calls == [hit_windows]
    second = list_decode_concat_detailed(params, received)
    assert calls == [hit_windows]
    assert second == first
    assert repr(second) == repr(first)


# DESK with tau_star * n = 11 >= n: shrunk = 0 and mu_lo = 0, so a start
# with no symbol left passes the gate at lengths 0 and 4 (step 4).
DESK_LONG_STAR = {**DESK, "tau_in": Fraction(3, 2), "tau_star": Fraction(11, 10)}


def test_filler_starts_of_the_last_recurrence_are_not_windows():
    """Groups past lam_hi in the last recurrence flag nothing.

    On DESK_LONG_STAR a filler group reads only sentinels, so it has LCS
    0 and would pass the gate at short lengths.  Words at five lengths
    from n*N - radius to n*N + radius (S = 6 does not divide the start
    count at four of them) decode like direct_scan.
    """
    params = fresh_params(DESK_LONG_STAR)
    total, radius, rng = params.n * params.N, params.radius, random.Random(11)
    sent = concat_encode_message(params, [rng.randrange(params.p) for _ in range(params.K)])
    for M in (total - radius, total - 3, total, total + 3, total + radius):
        n_ins, n_del = max(0, M - total), max(0, total - M)
        received, _ = random_channel(sent, n_ins, n_del, rng.randrange(2**63))
        report = list_decode_concat_detailed(params, received)
        assert_report_matches_direct_scan(report, params, received, M)


def test_an_over_budget_list_mass_is_refused_during_the_scan(monkeypatch):
    """DESK with N = 996, p = 997 and K = 1 lists about 10**6 entries for its sent word.

    The scan refuses the mass within a second, before any list is read
    out or recovery runs.
    """
    params = fresh_params({**DESK, "N": 996, "p": 997, "K": 1, "eps_cont": Fraction(1, 996)})
    sent = concat_encode_message(params, [5])

    def recovered(*args, **kwargs):
        raise AssertionError("recovery ran")

    monkeypatch.setattr(concat, "brute_force_list_recover", recovered)
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"^the position lists hold at least \d+ entries, over"):
        list_decode_concat_detailed(params, sent)
    assert time.perf_counter() - start < 1.0


def test_the_list_mass_budget_is_inclusive(desk_params):
    """DESK scans in one batch, so the mass its refusal names is the exact list mass.

    ell_out = mass decodes the word, and ell_out = mass - 1 or 10 refuses it.
    """
    received = full_budget_channel(desk_params, 0)[1]
    report = list_decode_concat_detailed(desk_params, received)
    S, longest = desk_params.inner_grams[0], desk_params.window_grid[2] * desk_params.tau_hat_n
    row_bits = (longest + 1) * S * len(desk_params.inner) * _lane_width(desk_params.n)
    assert report.scan_recurrences * row_bits <= concat._SCAN_BATCH_BITS
    mass = report.list_mass
    assert list_decode_concat_detailed(fresh_params({**DESK, "ell_out": mass}), received) == report
    for ell_out in (mass - 1, 10):
        message = f"^the position lists hold at least {mass} entries, over the budget ell_out = "
        with pytest.raises(DomainError, match=f"{message}{ell_out}$"):
            list_decode_concat_detailed(fresh_params({**DESK, "ell_out": ell_out}), received)


def test_a_refused_length_leaves_the_feasibility_cache_empty(monkeypatch):
    params = fresh_params(SHARP)
    calls = count_feasible_calls(monkeypatch)
    total, radius = params.n * params.N, params.radius
    for M in (total - radius - 1, total + radius + 1):
        with pytest.raises(DomainError, match="outside the decodable range"):
            list_decode_concat_detailed(params, word((0,) * M, params.q))
    assert calls == [0]
    assert params.length_tables == ({}, {})


def test_scan_work_limit_is_inclusive(monkeypatch):
    """SHARP's longest decodable word scans 1,871,100 lane bits: decoded at that limit, refused below.

    A refused decode builds neither the inner lane or gram tables nor a feasibility slot.
    """
    params = fresh_params(SHARP)
    received = word((0,) * (params.n * params.N + params.radius), params.q)
    monkeypatch.setattr(concat, "_SCAN_WORK_LIMIT", 1_871_099)
    with pytest.raises(CapacityError, match="^a window scan of 1871100 lane bits exceeds 1871099$"):
        list_decode_concat_detailed(params, received)
    assert "inner_grams" not in params.__dict__
    assert params.length_tables == ({}, {})
    monkeypatch.setattr(concat, "_SCAN_WORK_LIMIT", 1_871_100)
    report = list_decode_concat_detailed(params, received)
    assert report.window_count == len(build_windows(params, len(received)))


def test_a_full_feasibility_cache_on_sharp_stays_under_a_megabyte():
    """Fill every slot at every decodable length; the cache retains under its bound and 1 MB.

    An addend equal to the gate bits flags every lane, so every window of
    every decode hits and fills its slot.  Each slot must hold
    feasible_jN's range, kept once in shared; what the cache retains is
    the memory freed when it is dropped.  The bound is length_tables'
    docstring bound, summed over the lengths, and the reading must
    exceed half of it, so it saw the cache.
    """
    params = fresh_params(SHARP)
    S, grams, addends, tops = params.inner_grams
    params.__dict__["inner_grams"] = (S, grams, [tops[S]] * len(addends), tops)
    total, radius = params.n * params.N, params.radius
    lengths = range(total - radius, total + radius + 1)
    gc.collect()
    tracemalloc.start()
    try:
        for M in lengths:
            list_decode_concat_detailed(params, word((0,) * M, params.q))
        tables, shared = params.length_tables
        assert sorted(tables) == list(lengths)
        mu_lo = params.window_grid[1]
        bound = 0
        for M, slots in tables.items():
            census = len(build_windows(params, M))
            assert sum(map(len, slots)) == census
            for mu, positions in enumerate(slots, mu_lo):
                for lam, span in enumerate(positions):
                    assert span == feasible_jN(lam, mu, params, M), (M, lam, mu)
                    assert span is shared[span]
            bound += 8 * census + 64 * len(slots) + 512
        bound += 256 * len(shared)
        del tables, shared, slots, positions, span
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del params.__dict__["length_tables"]
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert bound // 2 < retained <= bound, (retained, bound)
    assert retained < 2**20


@pytest.mark.parametrize(
    "instance",
    [DESK, SHARP, {**DESK, "q": 2**40}],
    ids=["desk", "sharp", "desk-huge-q"],
)
def test_inner_lanes_and_block_symbols_stay_under_their_byte_bounds(instance):
    """Each of the two per-params tables frees no more than its docstring's bound, and over half.

    The inner lane tables are inner_grams.  A full gc runs before tracing
    and around each reading, as in the DESK recovery-table test.  At
    q = 2**40, S = 1 and the gram dict holds one entry per symbol of the
    inner words; otherwise one per S-gram key but the all-sentinel one.
    """
    params = fresh_params(instance)
    N, p, q = params.N, params.outer.p, params.q
    G = len(params.inner) * _lane_width(params.n)
    S = {2: 6, 4: 4}.get(q, 1)
    symbols = len({symbol for w in params.inner for symbol in w.symbols})
    g = symbols if S == 1 else (q ** (S + 1) - 1) // (q - 1) - 1
    m = params.window_grid[2] * params.tau_hat_n + 1
    bounds = {
        "inner_grams": (g + m + S + 3) * (S * G // 7 + 64) + g * (8 * S + 120) + 512,
        "block_symbols": N * (8 * p + 48) + 48,
    }
    freed = {}
    gc.collect()
    tracemalloc.start()
    try:
        for name in bounds:
            getattr(params, name)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del params.__dict__[name]
            gc.collect()
            freed[name] = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    for name, bound in bounds.items():
        assert bound // 2 < freed[name] <= bound, (name, freed[name], bound)


@pytest.mark.parametrize("instance", [DESK, SHARP, HOST_N6], ids=["desk", "sharp", "host-n6"])
def test_scan_batches_of_any_size_decode_alike(monkeypatch, instance):
    """A batch of one recurrence, of a few, and of all of them give the same report."""
    params = fresh_params(instance)
    received = [full_budget_channel(params, seed)[1] for seed in range(3)]
    expected = [list_decode_concat_detailed(params, r) for r in received]
    table_bits = params.inner_grams[0] * len(params.inner) * _lane_width(params.n)
    longest = params.window_grid[2] * params.tau_hat_n
    for recurrences in (1, 3):
        monkeypatch.setattr(concat, "_SCAN_BATCH_BITS", recurrences * (longest + 1) * table_bits)
        batched = [list_decode_concat_detailed(fresh_params(instance), r) for r in received]
        assert [repr(b) for b in batched] == [repr(e) for e in expected], recurrences


def edge_words(params: ConcatParams, seed: int):
    """A full-budget word, and words of the shortest and longest decodable lengths."""
    sent, received = full_budget_channel(params, seed)
    rng = random.Random(seed)
    extremes = [
        random_channel(sent, n_ins, n_del, rng.randrange(2**63))[0]
        for n_ins, n_del in ((0, params.radius), (params.radius, 0))
    ]
    return [received, *extremes]


@pytest.mark.parametrize(
    "instance",
    [DESK, DESK_FRACTIONAL, HOST_N3, HOST_N6, HOST_WIDE, SHARP],
    ids=["desk", "desk-fractional", "host-n3", "host-n6", "host-wide", "sharp"],
)
def test_every_group_of_the_scan_counts_its_start_like_the_reference(monkeypatch, instance):
    """Each recurrence the decoder runs holds S starts, each equal to its reference row.

    The recurrences are recorded as the decoder runs them.  Group s of
    recurrence h counts start lam = h*S + s: after t symbols, its lane k
    holds lcs_matrix_ref's LCS of the start's content (its longest
    window, clipped at the end of the word) against inner word k, at
    prefix min(t, content length).  Groups past lam_hi are not starts.
    The report's scan fields read the recurrence count,
    ceil((lam_hi + 1) / S), and S.
    """
    params = fresh_params(instance)
    rows = []

    def recorded(xs, table):
        rows.append(list(_lcs_steps(xs, table)))
        return iter(rows[-1])

    monkeypatch.setattr(concat, "_lcs_steps", recorded)
    n, words = params.n, [w.symbols for w in params.inner]
    width = _lane_width(n)
    G = len(words) * width
    S = {2: 6, 4: 4}[params.q]
    for received in edge_words(params, 0):
        rows.clear()
        report = list_decode_concat_detailed(params, received)
        grid = build_windows(params, len(received))
        step, longest = grid.step, grid.mu_hi * grid.step
        assert (report.scan_recurrences, report.starts_per_recurrence) == (
            -(-(grid.lam_hi + 1) // S), S
        )
        assert len(rows) == report.scan_recurrences
        for h, row in enumerate(rows):
            assert len(row) == longest + 1
            for s in range(S):
                lam = h * S + s
                if lam > grid.lam_hi:
                    continue
                content = received.symbols[lam * step : lam * step + longest]
                refs = [lcs_matrix_ref(content, ys) for ys in words]
                for t, counts in enumerate(row):
                    group = _split_groups([counts], S, G)[s]
                    lanes = [group >> k * width & ((1 << width) - 1) for k in range(len(words))]
                    assert lanes == [ref[min(t, len(content))][n] for ref in refs], (lam, t)


def test_scan_fields_neither_print_nor_compare(desk_params):
    report = list_decode_concat_detailed(desk_params, full_budget_channel(desk_params, 0)[1])
    other = dataclasses.replace(report, scan_recurrences=0, starts_per_recurrence=1)
    assert other == report and hash(other) == hash(report)
    assert repr(other) == repr(report)
    assert "scan_" not in repr(report) and "starts_per" not in repr(report)


@pytest.mark.parametrize("instance, stored", [(DESK, 126), (SHARP, 340)], ids=["desk", "sharp"])
def test_the_gram_table_holds_every_reachable_gram_and_a_decode_adds_none(instance, stored):
    """make_concat_params builds no gram table; the first decode builds it whole.

    Past the end of a word a gram's sentinels form a suffix, so
    (q**(S + 1) - 1) // (q - 1) grams are reachable, and each but the
    all-sentinel gram matches some inner word.  Entry s of a gram is the
    inner match entry of its symbol s, at bit s * G.  Every key the
    decodes read is in the table or is the all-sentinel gram, and the
    decodes leave the table as it was.
    """
    params = fresh_params(instance)
    assert "inner_grams" not in params.__dict__
    S, grams, addends, tops = params.inner_grams
    q, step, (match, _, ones, n) = params.q, params.tau_hat_n, one_copy_table(params)
    G = len(params.inner) * _lane_width(n)
    reachable = {
        head + (q,) * (S - j) for j in range(S + 1) for head in itertools.product(range(q), repeat=j)
    }
    assert len(reachable) == (q ** (S + 1) - 1) // (q - 1) == stored + 1
    assert set(grams[0]) == reachable - {(q,) * S}
    for gram, entry in grams[0].items():
        assert entry == sum(match.get(symbol, 0) << s * G for s, symbol in enumerate(gram))
    before = dict(grams[0])
    for received in edge_words(params, 1):
        list_decode_concat_detailed(params, received)
        keys = _gram_keys(received.symbols, q, step, S, len(received) + S * step)
        assert set(keys) <= reachable
    assert grams[0] == before
    assert len(addends) == params.window_grid[2] * step + 1
    assert tops == [sum(ones << n << s * G for s in range(k)) for k in range(S + 1)]


def test_a_huge_alphabet_builds_a_gram_table_of_the_inner_symbols_only():
    """At q = 2**40, S = 1: the table holds only the inner words' symbols.

    A table over every symbol below q would never finish, so the first
    decode must cost time in proportion to the inner encoder alone.
    """
    params = fresh_params({**DESK, "q": 2**40})
    start = time.perf_counter()
    report = list_decode_concat_detailed(params, concat_encode_message(params, MESSAGE))
    assert time.perf_counter() - start < 1.0
    S, grams = params.inner_grams[:2]
    symbols = {symbol for w in params.inner for symbol in w.symbols}
    assert S == 1 and set(grams[0]) == {(symbol,) for symbol in symbols}
    assert concat_encode_message(params, MESSAGE) in report.codewords


def test_a_full_gram_table_on_sharp_stays_under_its_bound():
    """The SHARP gram table retains under its bound.

    Each of the 340 stored SHARP grams (S = 4) holds S * G = 1848 bits,
    so the entries alone take about 79 KB; with the key tuples and the
    dict the table must stay under 340 * (S * G / 8 + 200) bytes, about
    147 KB.
    """
    params = fresh_params(SHARP)
    table = one_copy_table(params)
    S = params.inner_grams[0]
    G = len(params.inner) * _lane_width(params.n)
    gc.collect()
    tracemalloc.start()
    try:
        grams = _gram_table(table, params.q, S, G)
        held = tracemalloc.get_traced_memory()[0]
        assert grams == params.inner_grams[1]
        del grams
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(params.inner_grams[1][0]) == 340
    assert 0 < retained < 340 * (S * G // 8 + 200) < 2**18


@pytest.mark.parametrize(
    "instance",
    [DESK, DESK_FRACTIONAL, HOST_N6, HOST_WIDE, SHARP],
    ids=["desk", "desk-fractional", "host-n6", "host-wide", "sharp"],
)
def test_inner_lanes_addends_match_the_lane_gate(instance):
    """Each window length's addend flags the lanes the gate flags at its budget.

    For every length L from 0 to the longest window, mu_hi * step, every
    copy of the addend inner_grams keeps for L is the same, and for
    counters that put every value 0..n in every lane, it must flag the
    same lanes as the one-copy gate at _lane_budget(inner_radius, n, L).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        params = make_concat_params(**instance)
    n, lanes = params.n, len(params.inner)
    width = _lane_width(n)
    table = one_copy_table(params)
    S, _, addends, tops = params.inner_grams
    assert len(addends) == params.window_grid[2] * params.tau_hat_n + 1
    for L, addend in enumerate(addends):
        (gate,), top = _lane_gate(table, [_lane_budget(params.inner_radius, n, L)])
        copies = _split_groups([addend], S, lanes * width)
        assert copies == [copies[0]] * S and tops[1] == top
        for shift in range(n + 1):
            counts = sum((k + shift) % (n + 1) << k * width for k in range(lanes))
            assert (counts + copies[0]) & top == (counts + gate) & top, (L, shift)


def test_position_lists_print_in_sorted_order(desk_fractional):
    """Lists with colliding symbols print as if built in ascending order.

    Their frozenset repr then depends on the lists' contents only, not on
    the order the decoder's scan first met each symbol.
    """
    for seed in COLLIDING_SEEDS:
        received = random_budget_channel(desk_fractional, seed)
        report = list_decode_concat_detailed(desk_fractional, received)
        for entries in report.position_lists:
            assert repr(entries) == repr(frozenset(sorted(entries))), seed


def test_single_block_corruption_recovers(desk_params):
    sent = concat_encode_message(desk_params, MESSAGE)
    received, _ = adversarial_block_channel(sent, 10, [4] + [0] * 7, seed=5)
    assert sent in list_decode_concat(desk_params, received)


def test_spread_corruption_recovers(desk_params):
    sent = concat_encode_message(desk_params, MESSAGE)
    received, _ = adversarial_block_channel(sent, 10, [2] * 8, seed=12)
    assert sent in list_decode_concat(desk_params, received)


def test_decode_input_validation(desk_params):
    with pytest.raises(DomainError):
        list_decode_concat(desk_params, word((0, 1, 2), 3))
    with pytest.raises(DomainError):
        list_decode_concat(desk_params, word((0,) * 50, 2))


def test_good_index_count_zero_error(desk_params):
    sent = concat_encode_message(desk_params, MESSAGE)
    assert good_index_count(sent, sent, desk_params, [10] * 8) == 8


def test_good_index_count_flags_a_mangled_block(desk_params):
    sent = concat_encode_message(desk_params, MESSAGE)
    received = sent[5:]
    assert good_index_count(sent, received, desk_params, [5] + [10] * 7) == 7


def test_good_index_count_validation(desk_params):
    sent = concat_encode_message(desk_params, MESSAGE)
    with pytest.raises(DomainError):
        good_index_count(sent[1:], sent, desk_params, [10] * 8)
    with pytest.raises(DomainError):
        good_index_count(sent, sent, desk_params, [10] * 7)
    with pytest.raises(DomainError):
        good_index_count(sent, sent, desk_params, [-1, 21] + [10] * 6)
    with pytest.raises(DomainError):
        good_index_count(sent, sent, desk_params, [9] + [10] * 7)


def test_concat_stats_desk(desk_params):
    stats = concat_stats(desk_params)
    assert stats["r_out"] == pytest.approx(3 / 8)
    assert stats["epsilon"] == pytest.approx(3 / 80, abs=1e-12)
    assert stats["rate"] == pytest.approx(stats["r_out"] * stats["r_in"] - 3 / 80)
    assert stats["code_size"] == 11 ** 3
    assert stats["length"] == 80


def test_params_json_roundtrip(desk_params):
    record = json.loads(json.dumps(params_to_json_dict(desk_params)))
    assert params_from_json_dict(record) == desk_params
    record.pop("tau_in")
    with pytest.raises(DomainError):
        params_from_json_dict(record)
    record = params_to_json_dict(desk_params) | {"N": "eight"}
    with pytest.raises(DomainError, match="malformed field"):
        params_from_json_dict(record)


@pytest.mark.parametrize(
    "instance",
    [DESK, SHARP, DESK_FRACTIONAL, HOST_N6, HOST_N3, HOST_WIDE],
    ids=["DESK", "SHARP", "DESK_FRACTIONAL", "HOST_N6", "HOST_N3", "HOST_WIDE"],
)
def test_params_json_roundtrip_on_every_instance(instance):
    """The record rebuilds equal params with the same sampled inner words."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        params = make_concat_params(**instance)
        rebuilt = params_from_json_dict(json.loads(json.dumps(params_to_json_dict(params))))
    assert rebuilt == params
    assert rebuilt.inner == params.inner
    assert rebuilt.outer == params.outer


def report_digests(reports) -> tuple[str, str]:
    """SHA-256 of the reports' outputs, and of their match counters, in order.

    Outputs are the codewords, outer codewords, position lists, window
    count and list mass; counters are inner_match_total and
    max_inner_list.  A change to how windows are counted moves only the
    second digest.
    """
    outputs, counters = hashlib.sha256(), hashlib.sha256()
    for r in reports:
        outputs.update(
            repr((r.codewords, r.outer_codewords, r.position_lists, r.window_count, r.list_mass))
            .encode()
        )
        counters.update(repr((r.inner_match_total, r.max_inner_list)).encode())
    return outputs.hexdigest(), counters.hexdigest()


def test_decode_reports_are_pinned(desk_params, host_n6, desk_fractional):
    """Two SHA-256 digests over 50 detailed decode reports.

    Covers seeds 0-11 at the full budget on four instances plus the two
    random-budget cases with colliding symbols; any change to the
    decoder's output, its bookkeeping or how a report prints moves one.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sharp = make_concat_params(**SHARP)
    reports = [
        list_decode_concat_detailed(params, full_budget_channel(params, seed)[1])
        for params in (desk_params, sharp, host_n6, desk_fractional)
        for seed in range(12)
    ]
    for seed in COLLIDING_SEEDS:
        received = random_budget_channel(desk_fractional, seed)
        reports.append(list_decode_concat_detailed(desk_fractional, received))
    assert report_digests(reports) == (
        "527a6b1eaba3ca6217ad0d4cf5599c1843329693062c001b077e6c5555eb6b45",
        "fe4c6a747c5c28992642cb3e6e4114ca7aca030821396e1277cef7c2e463fa3f",
    )


def test_clipped_edge_decode_reports_are_pinned(desk_params, host_n6, desk_fractional):
    """Two SHA-256 digests over decode reports at the extreme lengths.

    Received words of length n*N - radius (deletions only) and
    n*N + radius (insertions only), three seeds each on four instances:
    there the windows running past the end of the word and the last
    grid start lam_hi matter most.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sharp = make_concat_params(**SHARP)
    reports = []
    for params in (desk_params, desk_fractional, host_n6, sharp):
        total = params.n * params.N
        for seed in range(3):
            rng = random.Random(seed)
            message = [rng.randrange(params.outer.p) for _ in range(params.outer.k)]
            sent = concat_encode_message(params, message)
            for n_ins, n_del in ((0, params.radius), (params.radius, 0)):
                received, _ = random_channel(sent, n_ins, n_del, seed)
                assert len(received) == total + n_ins - n_del
                reports.append(list_decode_concat_detailed(params, received))
    assert report_digests(reports) == (
        "4d3212cfac552f000c266a5bf418447a151108d68e0ade6652f5ea911b25c004",
        "450e58b1737c3d19ad375fe8eae924483d3e3968ecee557018a0142f310d2392",
    )
