"""Rate and radius bounds for insertion-deletion channels.

Closed forms (entropy, Singleton, GV-type, fixed-fraction random-code
rates for general and binary alphabets, insertion-only / deletion-only
specializations, linear variants, the large-alphabet limit) plus the
optimizations built on them: the worst-case split of a combined error
budget tau over insertions and deletions, and the Zyablov-style
outer/inner rate split for concatenated codes.

Conventions shared by every rate function here:

* gamma is the insertion fraction, kappa the deletion fraction, and
  tau = gamma + kappa; domains are gamma in [0, q-1) and kappa in
  [0, (q-1)/q) unless a function documents otherwise.
* epsilon is subtracted at the end of each formula, exactly as written,
  and never folded into entropy arguments.
* Every optimization goes through one helper, :func:`_grid_min`: a
  deterministic grid search (default 2048 points) followed by Brent's
  bounded method (golden-section search with parabolic interpolation;
  Brent, *Algorithms for Minimization without Derivatives*, 1973) on
  the winning bracket.  Everything is plain float arithmetic in a fixed
  order, so results are reproducible bit for bit.
* The Zyablov optimizers invert the tau -> rate map through a table of
  knots.  For q = 2, 3 and 4 the knot values are committed in
  ``_zyablov_knots`` (written by ``tests/regen_zyablov_knots.py`` and
  checked against the builder bit for bit by the tests); every other q
  builds its table on first use.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cache, lru_cache, partial
from typing import TYPE_CHECKING, NamedTuple

from .core import DomainError, OutOfRegimeError, RegimeWarning, Word, _frac

if TYPE_CHECKING:
    from .codes import Code

_DEFAULT_GRID = 2048
_TABLE_KNOTS = 1024
_TABLE_SEGMENT_GRID = 256
_EDGE = 1e-9
_BRENT_XATOL = 1e-12
_BRENT_MAXFUN = 500
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class ChannelSpec:
    """Insertion fraction gamma and deletion fraction kappa over Sigma_q."""

    q: int
    gamma: float
    kappa: float

    def __post_init__(self) -> None:
        if self.q < 2:
            raise DomainError(f"alphabet size must be at least 2, got {self.q}")
        if not 0 <= self.gamma < self.q - 1:
            raise DomainError(
                f"insertion fraction {self.gamma} outside [0, q-1) for q={self.q}"
            )
        if not 0 <= self.kappa < (self.q - 1) / self.q:
            raise DomainError(
                f"deletion fraction {self.kappa} outside [0, (q-1)/q) for q={self.q}"
            )

    @property
    def tau(self) -> float:
        return self.gamma + self.kappa


@dataclass(frozen=True)
class RatePoint:
    """One point of a rate curve.

    ``x`` is the swept parameter (tau, delta, gamma, or kappa depending
    on the curve), ``rate`` is clamped to [0, 1], ``raw`` keeps the
    pre-clamp formula value for curve emission, and ``list_size_class``
    tags how the guaranteed list size scales: "constant" for O(1/eps),
    "exponential" for exp(O(1/eps)), "polynomial" for N**O(1/eps).
    """

    x: float
    rate: float
    raw: float
    list_size_class: str = ""


@dataclass(frozen=True)
class ZyablovQuery:
    q: int
    R: float
    epsilon: float
    grid: int = _DEFAULT_GRID

    def __post_init__(self) -> None:
        if not 0 < self.R < 1:
            raise DomainError(f"overall rate must lie in (0,1), got {self.R}")
        if not 0 < self.epsilon < 1:
            raise DomainError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.q < 2:
            raise DomainError("alphabet size must be at least 2")
        if self.grid < 2:
            raise DomainError("grid resolution must be at least 2")


class ZyablovPoint(NamedTuple):
    tau: float
    r_out: float
    r_in: float


def _logq(x: float, q: float) -> float:
    return math.log(x) / math.log(q)


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def entropy_q(q: float, x: float) -> float:
    """q-ary entropy x*log_q(q-1) - x*log_q(x) - (1-x)*log_q(1-x).

    Zero at both endpoints by convention.
    """
    if q < 2:
        raise DomainError(f"entropy base must be at least 2, got {q}")
    if not 0 <= x <= 1:
        raise DomainError(f"entropy argument {x} outside [0,1]")
    if x == 0 or x == 1:
        return 0.0
    lq = math.log(q)
    return (
        x * (math.log(q - 1) / lq)
        - x * (math.log(x) / lq)
        - (1 - x) * (math.log(1 - x) / lq)
    )


def singleton_max_size(n: int, d: int, q: int) -> int:
    """Largest code size permitted by the Singleton-type inequality.

    Exact arbitrary-precision evaluation of q**(n - d/2 + 1), floored for
    odd d, and capped at q**n since no code exceeds the whole space.
    """
    if n < 0 or q < 2:
        raise DomainError("need n >= 0 and q >= 2")
    if not 0 <= d <= 2 * n:
        raise DomainError(f"minimum distance {d} outside [0, 2n] for n={n}")
    if d % 2 == 0:
        value = q ** (n - d // 2 + 1)
    else:
        value = math.isqrt(q ** (2 * n - d + 2))
    return min(value, q ** n)


def gv_lower_rate_raw(q: int, delta: float) -> float:
    """Pre-clamp GV-type rate formula value (may be negative)."""
    if q < 2:
        raise DomainError("need q >= 2")
    if not 0 <= delta < 1:
        raise DomainError(f"relative distance {delta} outside [0,1)")
    return (
        1.0
        - (1 + delta) * entropy_q(q, delta / (1 + delta))
        + delta * _logq(q - 1, q)
        - entropy_q(q, delta)
    )


def gv_lower_rate(q: int, delta: float) -> float:
    """Achievable rate at relative distance delta, clamped at zero.

    Past delta = (q-1)/q the greedy argument only yields the sparse
    q-word code, whose rate vanishes; the clamp covers that regime.
    """
    return max(0.0, gv_lower_rate_raw(q, delta))


def _rate_q3_raw(q: int, gamma: float, kappa: float, epsilon: float) -> float:
    block = 2 * gamma - kappa + 1
    entropy_term = 0.0
    if gamma > 0:
        entropy_term = block * entropy_q(q, min(1.0, gamma / block))
    return (
        1.0
        - entropy_term
        + gamma * _logq(q - 1, q)
        - entropy_q(q, kappa)
        - epsilon
    )


_Q3_ONLY = "random_rate_q3 requires q >= 3; use random_rate_binary"


def random_rate_q3(q: int, gamma: float, kappa: float, epsilon: float) -> RatePoint:
    """Achievable rate of a uniformly random code against a fixed split.

    Valid for q >= 3; the binary case needs the theta correction in
    :func:`random_rate_binary`.  List size scales as O(1/epsilon).
    """
    if q < 3:
        raise DomainError(_Q3_ONLY)
    return _fixed_split_rate(q, gamma, kappa, epsilon)


def theta_binary(gamma: float, kappa: float) -> float:
    """Binary-case auxiliary exponent theta(gamma, kappa); always positive."""
    if not 0 <= gamma < 1:
        raise DomainError(f"gamma {gamma} outside [0,1)")
    if not 0 <= kappa < 0.5:
        raise DomainError(f"kappa {kappa} outside [0,0.5)")
    a = 1 + gamma - kappa
    radicand = a * a + 10 * gamma * a + gamma * gamma
    return (1 + 2 * gamma - kappa) / 8 + math.sqrt(radicand) / 8


def _rate_binary_raw(gamma: float, kappa: float, epsilon: float) -> float:
    theta = theta_binary(gamma, kappa)
    a = 1 + gamma - kappa
    arg = 2 * theta / a
    if arg > 1 + 1e-9:
        raise OutOfRegimeError(
            f"entropy argument 2*theta/(1+gamma-kappa) = {arg:.6f} exceeds 1 "
            "(needs gamma + kappa <= 1)"
        )
    arg = min(arg, 1.0)
    block = 2 * theta + gamma
    entropy_term = 0.0
    if gamma > 0:
        entropy_term = block * entropy_q(2, min(1.0, gamma / block))
    return (
        1.0
        - entropy_term
        - entropy_q(2, kappa)
        + a
        - a * entropy_q(2, arg)
        - epsilon
    )


def random_rate_binary(gamma: float, kappa: float, epsilon: float) -> RatePoint:
    """Binary random-code rate for a fixed insertion/deletion split.

    Requires gamma + kappa <= 1; beyond that the final entropy argument
    exceeds 1 and an :class:`OutOfRegimeError` is raised.
    """
    return _fixed_split_rate(2, gamma, kappa, epsilon)


def _fixed_split_formula(q: int):
    """Raw rate (gamma, kappa, epsilon) -> float: the binary formula at q = 2, else q >= 3."""
    if q == 2:
        return _rate_binary_raw
    return partial(_rate_q3_raw, q)


def _fixed_split_rate(q: int, gamma: float, kappa: float, epsilon: float) -> RatePoint:
    """Checked fixed-split rate point for q = 2 or any q >= 3."""
    if q < 3 and q != 2:
        raise DomainError(_Q3_ONLY)
    if epsilon < 0:
        raise DomainError("epsilon must be nonnegative")
    ChannelSpec(q, gamma, kappa)
    raw = _fixed_split_formula(q)(gamma, kappa, epsilon)
    return RatePoint(x=gamma + kappa, rate=_clamp01(raw), raw=raw, list_size_class="constant")


def _segment_bounds(q: int, tau: float) -> tuple[float, float]:
    """Feasible kappa interval for the segment gamma + kappa = tau."""
    if tau < 0:
        raise DomainError("tau must be nonnegative")
    gamma_sup = q - 1
    kappa_sup = (q - 1) / q
    lo = max(0.0, tau - gamma_sup)
    hi = min(tau, kappa_sup)
    if lo == tau - gamma_sup and tau > gamma_sup:
        lo += _EDGE  # gamma < q-1 is strict
    if hi == kappa_sup:
        hi -= _EDGE  # kappa < (q-1)/q is strict
    if q == 2 and tau > 1:
        raise DomainError(
            f"binary segment gamma + kappa = {tau} leaves the entropy regime (tau <= 1)"
        )
    if lo > hi:
        raise DomainError(f"no feasible split of tau = {tau} over q = {q}")
    return lo, hi


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced points from lo to hi inclusive (numpy.linspace's formula)."""
    if n < 2:
        return [lo] * n
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def _sign(v: float) -> float:
    # sign(v) + (v == 0): zero counts as positive.
    return 1.0 if v >= 0 else -1.0


def _bounded_min(fun, lo: float, hi: float) -> tuple[float, float]:
    """Brent's bounded minimization of fun on [lo, hi]: (x, fun(x)).

    A step-for-step port of the fminbound recurrence (Forsythe, Malcolm
    and Moler, 1977) with xatol = 1e-12 and at most 500 evaluations:
    golden-section steps, replaced by a parabolic step whenever the
    parabola through the three best points so far lands well inside the
    bracket.  The tests hold it to the reference implementation bit for
    bit.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = fun(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _BRENT_XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = fun(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _BRENT_XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_MAXFUN:
            break
    return xf, fx


def _grid_min(fun, lo: float, hi: float, grid: int) -> tuple[float, float, float]:
    """Minimize fun on [lo, hi]: (x, fun(x), smallest grid value).

    Evaluates fun on ``grid`` evenly spaced points, then refines the first
    smallest one with Brent's bounded method on the bracket between its
    neighbours, keeping the refined point only if it is strictly lower.
    """
    if grid < 1:
        raise DomainError(f"grid resolution must be at least 1, got {grid}")
    pts = _linspace(lo, hi, grid)
    values = [fun(x) for x in pts]
    v_grid = min(values)
    best = values.index(v_grid)
    x_best, v_best = pts[best], v_grid
    a = pts[max(0, best - 1)]
    b = pts[min(grid - 1, best + 1)]
    if b > a:
        x, v = _bounded_min(fun, a, b)
        if v < v_best:
            x_best, v_best = x, v
    return x_best, v_best, v_grid


def _segment_min(
    q: int, tau: float, epsilon: float, grid: int
) -> tuple[float, float, float]:
    """Worst-case split: (min raw rate, gamma, kappa) on gamma + kappa = tau."""
    lo, hi = _segment_bounds(q, tau)
    formula = _fixed_split_formula(q)

    def raw_at(kappa: float) -> float:
        kappa = min(max(kappa, lo), hi)
        return formula(tau - kappa, kappa, epsilon)

    k_best, v_best, _ = _grid_min(raw_at, lo, hi, grid)
    return v_best, tau - k_best, k_best


def random_rate_tau_q3(
    q: int, tau: float, epsilon: float, grid: int = _DEFAULT_GRID
) -> RatePoint:
    """Rate against a combined budget tau: worst split of tau for q >= 3."""
    if q < 3:
        raise DomainError("random_rate_tau_q3 requires q >= 3")
    if epsilon < 0:
        raise DomainError("epsilon must be nonnegative")
    raw, _, _ = _segment_min(q, tau, epsilon, grid)
    return RatePoint(x=tau, rate=_clamp01(raw), raw=raw, list_size_class="constant")


def random_rate_tau_binary(
    tau: float, epsilon: float, grid: int = _DEFAULT_GRID
) -> RatePoint:
    """Binary rate against a combined budget tau (worst split, tau <= 1)."""
    if epsilon < 0:
        raise DomainError("epsilon must be nonnegative")
    raw, _, _ = _segment_min(2, tau, epsilon, grid)
    return RatePoint(x=tau, rate=_clamp01(raw), raw=raw, list_size_class="constant")


def rate_insertion_only(q: int, gamma: float, epsilon: float) -> RatePoint:
    """Insertion-only specialization (kappa = 0) for any q >= 2."""
    return replace(_fixed_split_rate(q, gamma, 0.0, epsilon), x=gamma)


def rate_deletion_only(q: int, kappa: float, epsilon: float) -> RatePoint:
    """Deletion-only rate 1 - H_q(kappa) - epsilon on kappa in [0, 1).

    The formula stays defined up to 1, but above (q-1)/q no positive-rate
    code exists and a RegimeWarning is emitted.
    """
    if q < 2:
        raise DomainError("need q >= 2")
    if not 0 <= kappa < 1:
        raise DomainError(f"kappa {kappa} outside [0,1)")
    if epsilon < 0:
        raise DomainError("epsilon must be nonnegative")
    if kappa > (q - 1) / q:
        warnings.warn(
            f"kappa = {kappa} is above (q-1)/q = {(q - 1) / q:.4f}; "
            "no positive-rate code exists in this regime",
            RegimeWarning,
            stacklevel=2,
        )
    raw = 1.0 - entropy_q(q, kappa) - epsilon
    return RatePoint(x=kappa, rate=_clamp01(raw), raw=raw, list_size_class="constant")


def linear_rate_variants(q: int, gamma: float, kappa: float, epsilon: float) -> RatePoint:
    """Linear-code rates: same formulas, exponentially larger list size."""
    return replace(_fixed_split_rate(q, gamma, kappa, epsilon), list_size_class="exponential")


def large_q_rate(kappa: float, epsilon: float) -> RatePoint:
    """Large-alphabet limit rate 1 - kappa - epsilon.

    Valid once q grows like 2**Omega(1/epsilon); at finite q the general
    formula random_rate_q3 sits below this by O(1/log q).
    """
    if not 0 <= kappa < 1:
        raise DomainError(f"kappa {kappa} outside [0,1)")
    if epsilon < 0:
        raise DomainError("epsilon must be nonnegative")
    raw = 1.0 - kappa - epsilon
    return RatePoint(x=kappa, rate=_clamp01(raw), raw=raw, list_size_class="constant")


def large_q_list_size(tau, epsilon) -> int:
    """Guaranteed list size ceil((1+tau)/epsilon) - 1, in exact arithmetic.

    Floats are interpreted via their decimal string (0.01 means 1/100),
    so desk-scale parameters evaluate without binary-rounding surprises.
    """
    t = _frac(tau, "tau")
    e = _frac(epsilon, "epsilon")
    if e <= 0:
        raise DomainError("epsilon must be positive")
    if t < 0:
        raise DomainError("tau must be nonnegative")
    return math.ceil((1 + t) / e) - 1


_KNOT_ALPHABETS = (2, 3, 4)


def _table_hi(q: int) -> float:
    """The largest tau the tau -> rate table scans for alphabet q."""
    return 1.0 if q == 2 else min(2.0, (q - 1) + (q - 1) / q - _EDGE)


def _build_tau_rate_table(q: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Knots of the tau -> raw rate map f (epsilon = 0), down to f < 0.

    Knot j sits at tau = hi * j / _TABLE_KNOTS and holds the worst-case
    split's raw rate there; the scan stops after the first knot at or
    below -0.25, or where the segment leaves the domain.  The map is
    checked to be non-increasing on the knots; the inversion routines
    assume that pre-scan.  This is the generator of the committed knots
    in ``_zyablov_knots`` and the path for every other alphabet.
    """
    hi = _table_hi(q)
    taus: list[float] = []
    vals: list[float] = []
    for j in range(_TABLE_KNOTS + 1):
        t = hi * j / _TABLE_KNOTS
        try:
            raw, _, _ = _segment_min(q, t, 0.0, _TABLE_SEGMENT_GRID)
        except DomainError:
            break
        taus.append(t)
        vals.append(raw)
        if raw <= -0.25:
            break
    for a, b in zip(vals, vals[1:]):
        if b > a + 1e-9:
            raise DomainError(
                f"tau -> rate map for q={q} is not monotone on the scan grid; "
                "cannot invert by bisection"
            )
    return tuple(taus), tuple(vals)


@lru_cache(maxsize=8)
def _tau_rate_table(q: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(taus, vals) of :func:`_build_tau_rate_table`, read or built once per q.

    For q in _KNOT_ALPHABETS the knot values are read from the committed
    ``_zyablov_knots`` module (imported on first use, so ``import
    insdel`` does not load it) and the taus are recomputed with the
    builder's own expression, so no process pays for the 405-knot build
    at q = 2.  ``tests/regen_zyablov_knots.py`` writes that module from
    the builder, and a test checks that it still matches bit for bit.
    Any other alphabet is built here, once.
    """
    if q not in _KNOT_ALPHABETS:
        return _build_tau_rate_table(q)
    from ._zyablov_knots import VALS

    vals = VALS[q]
    hi = _table_hi(q)
    return tuple(hi * j / _TABLE_KNOTS for j in range(len(vals))), vals


def _bracket(vals: tuple[float, ...], target: float) -> int | None:
    """The first i with vals[i] >= target >= vals[i + 1], or None.

    A linear scan, not bisect: the table falls overall but may rise by
    up to 1e-9 between neighbouring knots.
    """
    for i in range(len(vals) - 1):
        if vals[i] >= target >= vals[i + 1]:
            return i
    return None


def _f_inverse_interp(q: int, target: float) -> float | None:
    """Linear-interpolation inverse of the tau -> rate table; None if out of range."""
    taus, vals = _tau_rate_table(q)
    if not taus or target > vals[0] or target < vals[-1]:
        return None
    i = _bracket(vals, target)
    if i is None:
        return taus[-1]
    if vals[i] == vals[i + 1]:
        return taus[i]
    frac = (vals[i] - target) / (vals[i] - vals[i + 1])
    return taus[i] + frac * (taus[i + 1] - taus[i])


def _f_inverse_refined(q: int, target: float) -> float:
    """Bisection inverse of the full-precision tau -> rate map."""
    taus, vals = _tau_rate_table(q)
    if not taus or target > vals[0] or target < vals[-1]:
        raise DomainError(f"rate {target} outside the invertible range for q={q}")
    i = _bracket(vals, target)
    lo, hi = (taus[0], taus[-1]) if i is None else (taus[i], taus[i + 1])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        raw, _, _ = _segment_min(q, mid, 0.0, _TABLE_SEGMENT_GRID)
        if raw >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def zyablov_tau(query: ZyablovQuery) -> ZyablovPoint:
    """Radius achieved by the best outer/inner rate split at overall rate R.

    Maximizes (1 - R_out) * f_inverse(R_in) over R_out * R_in = R, where
    f is the tau -> rate map (epsilon = 0) for the query's alphabet.
    Grid search over R_out with bounded refinement, then a bisection
    inversion at the winner for full precision.
    """
    q, R, eps = query.q, query.R, query.epsilon

    def negated_objective(r_out: float) -> float:
        r_in = R / r_out
        t_in = _f_inverse_interp(q, r_in)
        if t_in is None:
            return 0.0
        return -(1 - r_out) * t_in

    r_best, _, v_grid = _grid_min(negated_objective, R + _EDGE, 1 - _EDGE, query.grid)
    if v_grid >= 0.0:
        raise DomainError(f"no feasible outer/inner split for rate {R} over q={q}")
    r_in = R / r_best
    tau_in = _f_inverse_refined(q, r_in)
    return ZyablovPoint(tau=(1 - r_best) * tau_in - eps, r_out=r_best, r_in=r_in)


def zyablov_gamma_kappa(
    q: int, R: float, epsilon: float, grid: int = _DEFAULT_GRID
) -> tuple[float, float]:
    """Fixed-split analogue of the Zyablov optimizer.

    At each outer rate the inner budget tau_in = f_inverse(R / R_out) is
    split by the worst-case optimizer into (gamma_in, kappa_in); the
    insertion and deletion fractions are then maximized separately over
    the outer-rate grid, each scaled by (1 - R_out) and reduced by
    epsilon (clamped at zero).
    """
    query = ZyablovQuery(q=q, R=R, epsilon=epsilon, grid=grid)

    @cache  # both passes evaluate the same grid points
    def split_at(r_out: float) -> tuple[float, float]:
        t_in = _f_inverse_interp(q, R / r_out)
        if t_in is None:
            return 0.0, 0.0
        _, g_in, k_in = _segment_min(q, t_in, 0.0, _TABLE_SEGMENT_GRID)
        return (1 - r_out) * g_in, (1 - r_out) * k_in

    lo, hi = R + _EDGE, 1 - _EDGE
    _, neg_gamma, _ = _grid_min(lambda r: -split_at(r)[0], lo, hi, query.grid)
    _, neg_kappa, _ = _grid_min(lambda r: -split_at(r)[1], lo, hi, query.grid)
    return max(0.0, -neg_gamma - epsilon), max(0.0, -neg_kappa - epsilon)


def sparse_gv_code(q: int, n: int, delta: float) -> Code:
    """The q-word code {zeros then a constant block} for the sparse regime.

    Pairwise insdel distance is exactly 2*floor(delta*n).  A non-integer
    delta*n is floored with a warning.
    """
    from .codes import Code

    if q < 2 or n < 1:
        raise DomainError("need q >= 2 and n >= 1")
    if not (q - 1) / q < delta < 1:
        raise DomainError(f"delta {delta} outside ((q-1)/q, 1) for q={q}")
    exact = delta * n
    run = math.floor(exact)
    if abs(exact - run) > 1e-9:
        warnings.warn(
            f"delta*n = {exact} is not an integer; flooring the block length to {run}",
            RegimeWarning,
            stacklevel=2,
        )
    if run < 1:
        raise DomainError("delta*n floors to zero; the construction collapses")
    words = frozenset(
        Word((0,) * (n - run) + (a,) * run, q) for a in range(q)
    )
    return Code(q, n, words)
