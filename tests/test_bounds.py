"""Rate and radius formulas against frozen numeric goldens and oracles.

Golden constants were computed once with a 40-digit mpmath evaluation
of the same formulas and are pinned here at double precision.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from insdel import bounds
from insdel.bounds import (
    ChannelSpec,
    RatePoint,
    ZyablovQuery,
    entropy_q,
    gv_lower_rate,
    gv_lower_rate_raw,
    large_q_list_size,
    large_q_rate,
    linear_rate_variants,
    random_rate_binary,
    random_rate_q3,
    random_rate_tau_binary,
    random_rate_tau_q3,
    rate_deletion_only,
    rate_insertion_only,
    singleton_max_size,
    sparse_gv_code,
    theta_binary,
    zyablov_gamma_kappa,
    zyablov_tau,
)
from insdel.codes import code_stats
from insdel.core import DomainError, OutOfRegimeError, RegimeWarning
from oracles import segment_grid_min_binary, segment_grid_min_q3

EPS_EXACT = 0.125  # binary-exact float, so 1 - eps comparisons are sharp


def test_entropy_endpoints_and_maximum():
    assert entropy_q(2, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert entropy_q(7, 0.0) == 0.0
    assert entropy_q(7, 1.0) == 0.0
    for q in (2, 3, 5):
        assert entropy_q(q, (q - 1) / q) == pytest.approx(1.0, abs=1e-12)


def test_entropy_golden_value():
    assert entropy_q(3, 0.1) == pytest.approx(0.3589962496465303, abs=1e-12)


def test_entropy_validation():
    with pytest.raises(DomainError):
        entropy_q(2, -0.1)
    with pytest.raises(DomainError):
        entropy_q(2, 1.1)
    with pytest.raises(DomainError):
        entropy_q(1, 0.5)


def test_channel_spec_ranges():
    spec = ChannelSpec(q=2, gamma=0.3, kappa=0.2)
    assert spec.tau == pytest.approx(0.5)
    ChannelSpec(q=3, gamma=1.5, kappa=0.6)
    with pytest.raises(DomainError):
        ChannelSpec(q=2, gamma=1.0, kappa=0.0)
    with pytest.raises(DomainError):
        ChannelSpec(q=2, gamma=0.0, kappa=0.5)
    with pytest.raises(DomainError):
        ChannelSpec(q=2, gamma=-0.1, kappa=0.0)


@pytest.mark.parametrize(
    "n,d,q,expected",
    [
        (4, 4, 2, 8),
        (3, 6, 2, 2),
        (4, 3, 2, 11),
        (3, 0, 2, 8),
    ],
)
def test_singleton_max_size(n, d, q, expected):
    assert singleton_max_size(n, d, q) == expected


def test_singleton_validation():
    with pytest.raises(DomainError):
        singleton_max_size(3, 7, 2)
    with pytest.raises(DomainError):
        singleton_max_size(3, -1, 2)


def test_gv_rate_goldens():
    assert gv_lower_rate_raw(2, 0.5) == pytest.approx(-1.3774437510817343, abs=1e-12)
    assert gv_lower_rate_raw(2, 0.2) == pytest.approx(-0.5019550008653874, abs=1e-12)
    assert gv_lower_rate(2, 0.5) == 0.0
    assert gv_lower_rate(2, 0.9) == 0.0
    assert gv_lower_rate(2, 1e-9) == pytest.approx(1.0, abs=1e-6)


def test_gv_rate_validation():
    with pytest.raises(DomainError):
        gv_lower_rate(2, 1.0)


def test_random_rate_q3_goldens():
    assert random_rate_q3(3, 0.0, 0.1, 0.0).rate == pytest.approx(
        0.6410037503534697, abs=1e-12
    )
    point = random_rate_q3(4, 0.2, 0.1, 0.01)
    assert point.raw == pytest.approx(0.2736556516281052, abs=1e-12)
    assert point.rate == point.raw
    assert point.list_size_class == "constant"


def test_random_rate_q3_rejects_binary():
    with pytest.raises(DomainError):
        random_rate_q3(2, 0.1, 0.1, 0.01)


def test_theta_binary_values():
    assert theta_binary(0.0, 0.0) == pytest.approx(0.25, abs=1e-15)
    assert theta_binary(0.0, 0.4) == pytest.approx(0.15, abs=1e-12)
    assert theta_binary(0.5, 0.0) == pytest.approx(0.25 + math.sqrt(10) / 8, abs=1e-12)
    for gamma in np.linspace(0.0, 0.95, 7):
        for kappa in np.linspace(0.0, 0.45, 7):
            assert theta_binary(float(gamma), float(kappa)) > 0.0


def test_random_rate_binary_goldens():
    assert random_rate_binary(0.1, 0.0, 0.0).rate == pytest.approx(
        0.6142001127237336, abs=1e-12
    )
    assert random_rate_binary(0.5, 0.0, 0.0).rate == pytest.approx(
        0.0952462899127358, abs=1e-12
    )


def test_random_rate_binary_out_of_regime():
    # gamma + kappa > 1 pushes the entropy argument above 1.
    with pytest.raises(OutOfRegimeError):
        random_rate_binary(0.9, 0.45, 0.0)


def test_every_formula_returns_one_minus_epsilon_at_zero_error():
    points = [
        random_rate_q3(3, 0.0, 0.0, EPS_EXACT),
        random_rate_binary(0.0, 0.0, EPS_EXACT),
        random_rate_tau_q3(3, 0.0, EPS_EXACT),
        random_rate_tau_binary(0.0, EPS_EXACT),
        rate_insertion_only(3, 0.0, EPS_EXACT),
        rate_insertion_only(2, 0.0, EPS_EXACT),
        rate_deletion_only(5, 0.0, EPS_EXACT),
        linear_rate_variants(3, 0.0, 0.0, EPS_EXACT),
        linear_rate_variants(2, 0.0, 0.0, EPS_EXACT),
        large_q_rate(0.0, EPS_EXACT),
    ]
    for point in points:
        assert point.rate == pytest.approx(1 - EPS_EXACT, abs=1e-12)


def test_tau_optimizer_matches_dense_grid_q3():
    point = random_rate_tau_q3(3, 0.1, 0.001)
    oracle = segment_grid_min_q3(3, 0.1, 0.001)
    assert point.raw <= oracle + 1e-9
    assert point.raw == pytest.approx(oracle, abs=1e-4)


def test_tau_optimizer_matches_dense_grid_binary():
    point = random_rate_tau_binary(0.2, 0.001)
    oracle = segment_grid_min_binary(0.2, 0.001)
    assert point.raw <= oracle + 1e-9
    assert point.raw == pytest.approx(oracle, abs=1e-4)


def _refined_brackets(monkeypatch, run) -> list:
    """(fun, lo, hi, (x, fun(x))) for every bracket Brent's method refines in run()."""
    calls = []
    brent = bounds._bounded_min

    def record(fun, lo, hi):
        result = brent(fun, lo, hi)
        calls.append((fun, lo, hi, result))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(bounds, "_bounded_min", record)
        run()
    return calls


def test_bounded_min_matches_scipy_bit_for_bit(monkeypatch):
    optimize = pytest.importorskip("scipy.optimize")
    bounds._tau_rate_table(2)  # build the cached table outside the recording

    def run():
        for q in (2, 3, 4):
            for tau in (0.05, 0.3, 0.6, 0.95):
                bounds._segment_min(q, tau, 0.0, 256)
        zyablov_tau(ZyablovQuery(q=2, R=0.3, epsilon=0.01, grid=256))

    calls = _refined_brackets(monkeypatch, run)
    # 12 segment brackets, the zyablov objective, then 60 bisection steps.
    assert len(calls) == 73
    assert calls[12][0].__name__ == "negated_objective"
    for fun, lo, hi, (x, value) in calls:
        res = optimize.minimize_scalar(
            fun, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12}
        )
        assert (float(res.x), float(res.fun)) == (x, value)

    # At tau = 0 the segment is the single point kappa = 0: nothing to refine.
    assert _refined_brackets(monkeypatch, lambda: bounds._segment_min(2, 0.0, 0.0, 256)) == []


# SHA-256 over the reprs below. Any change to a table knot, a worst-case
# split or a refined optimum changes it, down to the last bit.
BOUNDS_PIN = "af8fcbf6608d4a7890ad92209c0d11e6f12023a7336b041b8a1f887e18a916ef"


def test_bounds_values_are_pinned_bit_for_bit():
    parts = [bounds._tau_rate_table(2), bounds._tau_rate_table(3)]
    for tau in (0.05, 0.3, 0.6, 0.95):
        parts.append(random_rate_tau_binary(tau, 0.01, grid=256))
        parts.append(random_rate_tau_q3(3, tau, 0.01, grid=256))
        parts.append(random_rate_tau_q3(5, tau, 0.01, grid=256))
    for q, R in ((2, 0.3), (2, 0.6), (3, 0.5)):
        parts.append(zyablov_tau(ZyablovQuery(q=q, R=R, epsilon=0.01, grid=256)))
    parts.append(zyablov_gamma_kappa(2, 0.3, 0.01, grid=64))
    digest = hashlib.sha256("\n".join(map(repr, parts)).encode()).hexdigest()
    assert digest == BOUNDS_PIN


def test_committed_zyablov_knots_regenerate_bit_for_bit():
    """The builder reproduces the committed knots module, text and floats alike."""
    from insdel import _zyablov_knots
    from regen_zyablov_knots import KNOTS_FILE, render_knots_module

    assert render_knots_module() == KNOTS_FILE.read_text(encoding="utf-8")
    assert sorted(_zyablov_knots.VALS) == list(bounds._KNOT_ALPHABETS) == [2, 3, 4]
    for q in bounds._KNOT_ALPHABETS:
        built = bounds._build_tau_rate_table(q)
        read = bounds._tau_rate_table(q)
        assert [[v.hex() for v in part] for part in read] == [
            [v.hex() for v in part] for part in built
        ]
        assert read[1] is _zyablov_knots.VALS[q]


@pytest.mark.parametrize(
    "call",
    [
        lambda: random_rate_tau_q3(3, 0.2, 0.0, grid=0),
        lambda: random_rate_tau_q3(4, 0.2, 0.0, grid=-1),
        lambda: random_rate_tau_binary(0.2, 0.0, grid=0),
        lambda: random_rate_tau_binary(0.2, 0.0, grid=-3),
    ],
    ids=["q3-zero", "q3-negative", "binary-zero", "binary-negative"],
)
def test_nonpositive_grid_is_a_domain_error(call):
    with pytest.raises(DomainError, match="grid resolution must be at least 1"):
        call()


def test_single_point_grid_is_the_segment_start():
    # One grid point is kappa = 0 (all insertions), with nothing to refine.
    assert random_rate_tau_q3(3, 0.2, 0.0, grid=1) == random_rate_q3(3, 0.2, 0.0, 0.0)
    assert random_rate_tau_binary(0.2, 0.0, grid=1) == random_rate_binary(0.2, 0.0, 0.0)


def test_tau_rates_decrease_with_radius():
    assert random_rate_tau_q3(3, 0.3, 0.001).raw <= random_rate_tau_q3(3, 0.2, 0.001).raw
    assert random_rate_tau_binary(0.3, 0.001).raw <= random_rate_tau_binary(0.2, 0.001).raw


def test_insertion_only_specializations():
    assert rate_insertion_only(3, 0.2, 0.01).rate == pytest.approx(
        random_rate_q3(3, 0.2, 0.0, 0.01).rate, abs=1e-12
    )
    assert rate_insertion_only(2, 0.5, 0.0).rate == pytest.approx(
        0.0952462899127358, abs=1e-12
    )


def test_deletion_only_values_and_regime_warning():
    assert rate_deletion_only(2, 0.11, 0.0).rate == pytest.approx(
        0.5000840418354720, abs=1e-12
    )
    assert rate_deletion_only(2, 0.5, 0.0).rate == 0.0
    with pytest.warns(RegimeWarning):
        rate_deletion_only(2, 0.51, 0.0)


def test_linear_variants_share_formula_but_not_class():
    nonlinear = random_rate_q3(3, 0.1, 0.1, 0.01)
    linear = linear_rate_variants(3, 0.1, 0.1, 0.01)
    assert linear.rate == nonlinear.rate
    assert linear.list_size_class == "exponential"
    binary = linear_rate_variants(2, 0.1, 0.1, 0.01)
    assert binary.rate == random_rate_binary(0.1, 0.1, 0.01).rate


def test_large_q_rate():
    point = large_q_rate(0.3, 0.01)
    assert point.rate == pytest.approx(0.69, abs=1e-12)
    assert large_q_rate(0.999, 0.5).rate == 0.0
    with pytest.raises(DomainError):
        large_q_rate(1.0, 0.01)


def test_large_q_approximates_general_formula():
    # The gap decays like 1/log(q); at q = 2**40 and gamma = kappa = 0.2
    # it is 0.0375, so 0.04 is the honest budget here.
    rate = random_rate_q3(2 ** 40, 0.2, 0.2, 0.05).rate
    assert abs(rate - (1 - 0.2 - 0.05)) <= 0.04
    gaps = [
        abs(random_rate_q3(2 ** e, 0.2, 0.2, 0.05).rate - 0.75) for e in (8, 16, 32)
    ]
    assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize(
    "tau,epsilon,expected",
    [
        (0.5, 0.01, 149),
        (Fraction(1, 2), Fraction(1, 100), 149),
        (0.1, 0.3, 3),
        (0, 0.5, 1),
        (0, 1, 0),
    ],
)
def test_large_q_list_size_exact_arithmetic(tau, epsilon, expected):
    assert large_q_list_size(tau, epsilon) == expected


def test_large_q_list_size_validation():
    with pytest.raises(DomainError):
        large_q_list_size(0.5, 0)
    with pytest.raises(DomainError):
        large_q_list_size(-0.1, 0.5)


def test_zyablov_query_validation():
    with pytest.raises(DomainError):
        ZyablovQuery(q=2, R=0.0, epsilon=0.01)
    with pytest.raises(DomainError):
        ZyablovQuery(q=2, R=0.5, epsilon=0.0)
    with pytest.raises(DomainError):
        ZyablovQuery(q=1, R=0.5, epsilon=0.01)
    with pytest.raises(DomainError):
        ZyablovQuery(q=2, R=0.5, epsilon=0.01, grid=1)


def test_zyablov_point_structure():
    point = zyablov_tau(ZyablovQuery(q=2, R=0.3, epsilon=0.01, grid=512))
    assert point.r_out * point.r_in == pytest.approx(0.3, abs=1e-9)
    assert 0.3 < point.r_out < 1.0
    assert point.tau > 0.0


def test_zyablov_radius_vanishes_at_high_rate():
    point = zyablov_tau(ZyablovQuery(q=2, R=0.97, epsilon=0.01, grid=512))
    assert 0.0 <= point.tau + 0.01 <= 0.02


def test_zyablov_radius_decreases_with_rate():
    taus = [
        zyablov_tau(ZyablovQuery(q=2, R=R, epsilon=0.01, grid=256)).tau
        for R in (0.2, 0.4, 0.6, 0.8)
    ]
    assert all(b <= a + 1e-9 for a, b in zip(taus, taus[1:]))


def test_zyablov_gamma_kappa_consistency():
    gamma, kappa = zyablov_gamma_kappa(2, 0.3, 0.01, grid=512)
    tau = zyablov_tau(ZyablovQuery(q=2, R=0.3, epsilon=0.01, grid=512)).tau
    assert gamma >= 0.0 and kappa >= 0.0
    assert gamma + kappa <= tau + 2 * 0.01 + 1e-9


def test_zyablov_gamma_kappa_vanishes_at_high_rate():
    gamma, kappa = zyablov_gamma_kappa(2, 0.97, 0.01, grid=256)
    assert gamma <= 0.01 and kappa <= 0.01


def test_sparse_gv_code_construction():
    code = sparse_gv_code(3, 4, 0.75)
    assert len(code) == 3
    listing = {tuple(w) for w in code.words}
    assert listing == {(0, 0, 0, 0), (0, 1, 1, 1), (0, 2, 2, 2)}
    assert code_stats(code).min_distance == 6


def test_sparse_gv_code_warns_on_fractional_block():
    with pytest.warns(RegimeWarning):
        code = sparse_gv_code(3, 5, 0.7)
    assert len(code) == 3


def test_sparse_gv_code_validation():
    with pytest.raises(DomainError):
        sparse_gv_code(3, 4, 0.5)
    with pytest.raises(DomainError):
        sparse_gv_code(3, 4, 1.0)


def test_rate_point_is_frozen_record():
    point = RatePoint(x=0.1, rate=0.5, raw=0.5, list_size_class="constant")
    with pytest.raises(AttributeError):
        point.rate = 0.9
