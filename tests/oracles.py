"""Reference implementations the test suite holds the library to.

Everything here is written independently of the code under test: the
LCS reference is a full-matrix dynamic program, the feasibility scan
walks the per-position gates one at a time, list recovery and the
codebook references evaluate every message on its own, and the
batched LCS is a numpy re-derivation used where exhaustive sweeps
would otherwise be too slow to run inside a test.  numpy is imported
only inside the functions that use it, so importing this module (as
the benchmark's set-up does) does not load it.

It also holds the harness helpers that only tests use: the Window
record, align_window (the alignment lemma C09 checks) and
good_index_count, which needs the true segmentation of a received word.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from insdel.bounds import random_rate_binary, random_rate_q3
from insdel.core import DomainError

if TYPE_CHECKING:
    import numpy as np

DESK = dict(
    N=8,
    n=10,
    q=2,
    p=11,
    K=3,
    eps_cont=Fraction(1, 4),
    eps_in=Fraction(1, 10),
    eps_out=Fraction(1, 8),
    eps_conc=Fraction(1, 20),
    tau_in=Fraction(1, 2),
    tau_star=Fraction(2, 5),
    alpha_out=Fraction(1, 2),
    ell_out=88,
    inner_seed=2024,
)

# The sharp instance: the DESK decoder over q=4, n=20 with a tighter
# inner radius.  At the full budget of 16 edits the decoded list holds
# about one codeword out of p**K = 1331, so containment can fail.
# Builds warning-free.
SHARP = dict(
    N=8,
    n=20,
    q=4,
    p=11,
    K=3,
    eps_cont=Fraction(1, 4),
    eps_in=Fraction(1, 10),
    eps_out=Fraction(1, 8),
    eps_conc=Fraction(1, 40),
    tau_in=Fraction(1, 4),
    tau_star=Fraction(1, 5),
    alpha_out=Fraction(1, 2),
    ell_out=88,
    inner_seed=2024,
)

# DESK with non-integer radii: tau * n * N = 46/3 and tau_in * n = 9/2,
# so a floor/ceil slip in either whole-edit radius changes results.
# tau_star sits below the regime threshold, so building it always raises
# RegimeWarning.
DESK_FRACTIONAL = {
    **DESK,
    "tau_in": Fraction(9, 20),
    "tau_star": Fraction(7, 20),
    "eps_conc": Fraction(1, 30),
    "ell_out": 10 ** 6,
}

# A second instance with a coarser grid (step 2 instead of 1), used where
# fractional alignment matters.  Sits exactly on the regime threshold's
# good side, so construction stays warning-free.
HOST_N6 = dict(
    N=6,
    n=8,
    q=2,
    p=7,
    K=2,
    eps_cont=Fraction(1, 2),
    eps_in=Fraction(1, 10),
    eps_out=Fraction(1, 10),
    eps_conc=Fraction(1, 8),
    tau_in=Fraction(1, 2),
    tau_star=Fraction(1, 4),
    alpha_out=Fraction(1, 2),
    ell_out=999,
    inner_seed=3,
)

# Tiny instance for window-grid census checks.  tau_star sits below the
# regime threshold, so building it always raises RegimeWarning.
HOST_N3 = dict(
    N=3,
    n=4,
    q=2,
    p=5,
    K=1,
    points=(0, 1, 2),
    eps_cont=Fraction(1, 3),
    eps_in=Fraction(1, 10),
    eps_out=Fraction(1, 10),
    eps_conc=Fraction(1, 12),
    tau_in=Fraction(1, 2),
    tau_star=Fraction(1, 4),
    alpha_out=Fraction(1, 2),
    ell_out=999,
    inner_seed=7,
)

# A coarse grid for window edge cases: step 5 exceeds the shortest
# block content 3 = ceil(n - tau_star * n), so the last window starts
# can lie past the end of the received word, and mu_lo = ceil(3/5) and
# tau_star * n = 3/2 both round.  tau_in > 1, and building it always
# raises RegimeWarning.
HOST_WIDE = {
    **HOST_N3,
    "tau_in": Fraction(13, 8),
    "tau_star": Fraction(3, 8),
}


def lcs_matrix_ref(xs, ys) -> list[list[int]]:
    """Full-matrix LCS table: entry [i][j] is lcs(xs[:i], ys[:j])."""
    rows, cols = len(xs), len(ys)
    table = [[0] * (cols + 1) for _ in range(rows + 1)]
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            if xs[i - 1] == ys[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table


def lcs_ref(xs, ys) -> int:
    """LCS length from the full matrix; the production code uses a bit-parallel kernel."""
    return lcs_matrix_ref(xs, ys)[-1][-1]


def distance_ref(xs, ys) -> int:
    return len(xs) + len(ys) - 2 * lcs_ref(xs, ys)


def all_tuples(q: int, length: int):
    """Every length-`length` tuple over {0..q-1}, lexicographic."""
    return itertools.product(range(q), repeat=length)


def word_matrix(q: int, length: int) -> np.ndarray:
    """All of the length-`length` space as a (q**length, length) int16 array."""
    import numpy as np

    if length == 0:
        return np.zeros((1, 0), dtype=np.int16)
    return np.array(list(all_tuples(q, length)), dtype=np.int16)


def batched_lcs(center, words: np.ndarray) -> np.ndarray:
    """LCS of one center against every row of a (K, n) array at once."""
    import numpy as np

    count, n = words.shape
    prev = np.zeros((count, n + 1), dtype=np.int16)
    row = np.zeros((count, n + 1), dtype=np.int16)
    for sym in center:
        row[:, 0] = 0
        for j in range(1, n + 1):
            np.maximum(prev[:, j], row[:, j - 1], out=row[:, j])
            hit = words[:, j - 1] == sym
            if hit.any():
                upd = prev[hit, j - 1] + 1
                row[hit, j] = np.maximum(row[hit, j], upd)
        prev, row = row, prev
    return prev[:, n].copy()


def segment_grid_min_q3(q, tau, epsilon, points=10_001):
    """Dense-grid minimum over the split segment, via the pointwise formula.

    The pointwise rate functions are pinned elsewhere against a
    high-precision oracle; here they anchor the optimizer's grid search.
    """
    import numpy as np

    lo = max(0.0, tau - (q - 1) / q + 1e-12)
    hi = min(tau, q - 1 - 1e-12)
    best = math.inf
    for gamma in np.linspace(lo, hi, points):
        best = min(best, random_rate_q3(q, float(gamma), tau - float(gamma), epsilon).raw)
    return best


def segment_grid_min_binary(tau, epsilon, points=10_001):
    import numpy as np

    lo = max(0.0, tau - 0.5 + 1e-12)
    hi = min(tau, 1.0 - 1e-12)
    best = math.inf
    for gamma in np.linspace(lo, hi, points):
        best = min(best, random_rate_binary(float(gamma), tau - float(gamma), epsilon).raw)
    return best


def _entropy_vec(q: int, x: np.ndarray) -> np.ndarray:
    """Vectorized q-ary entropy, zero at the endpoints."""
    import numpy as np

    x = np.clip(x, 0.0, 1.0)
    out = np.zeros_like(x)
    inner = (x > 0) & (x < 1)
    xi = x[inner]
    lq = math.log(q)
    out[inner] = (
        xi * math.log(q - 1) - xi * np.log(xi) - (1 - xi) * np.log(1 - xi)
    ) / lq
    return out


def _raw_rate_vec(q: int, gamma: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """Vectorized raw rate (epsilon = 0) along a gamma/kappa mesh."""
    import numpy as np

    if q == 2:
        a = 1 + gamma - kappa
        theta = (1 + 2 * gamma - kappa) / 8 + np.sqrt(
            a * a + 10 * gamma * a + gamma * gamma
        ) / 8
        arg = np.minimum(2 * theta / a, 1.0)
        block = 2 * theta + gamma
        ent = np.where(
            gamma > 0,
            block * _entropy_vec(2, np.minimum(1.0, gamma / np.maximum(block, 1e-300))),
            0.0,
        )
        return 1.0 - ent - _entropy_vec(2, kappa) + a - a * _entropy_vec(2, arg)
    block = 2 * gamma - kappa + 1
    ent = np.where(
        gamma > 0,
        block * _entropy_vec(q, np.minimum(1.0, gamma / np.maximum(block, 1e-300))),
        0.0,
    )
    return (
        1.0
        - ent
        + gamma * math.log(q - 1) / math.log(q)
        - _entropy_vec(q, kappa)
    )


def dense_zyablov_tau(
    q: int, R: float, epsilon: float, tau_points=800, kappa_points=800, rout_points=800
) -> float:
    """Dense-grid rebuild of the outer/inner split optimization.

    Forward map first: f(tau) = min raw rate over the split segment,
    evaluated on a kappa mesh per tau knot.  The map is forced onto its
    non-increasing envelope, inverted by linear interpolation, and the
    (1 - R_out) * f_inverse(R / R_out) objective is maximized on an
    R_out mesh.  Everything is plain grid arithmetic, no refinement.
    """
    import numpy as np

    hi_tau = 1.0 if q == 2 else min(2.0, (q - 1) + (q - 1) / q - 1e-9)
    kappa_sup = (q - 1) / q - 1e-12
    taus = np.linspace(0.0, hi_tau, tau_points)
    fvals = np.empty_like(taus)
    for idx, t in enumerate(taus):
        lo = max(0.0, t - (q - 1))
        hi = min(t, kappa_sup)
        ks = np.linspace(lo, hi, kappa_points)
        fvals[idx] = _raw_rate_vec(q, t - ks, ks).min()
    fvals = np.minimum.accumulate(fvals)

    def f_inverse(target: float) -> float | None:
        if target > fvals[0] or target < fvals[-1]:
            return None
        j = int(np.searchsorted(-fvals, -target))
        if j == 0:
            return float(taus[0])
        f0, f1 = fvals[j - 1], fvals[j]
        if f1 == f0:
            return float(taus[j])
        w = (f0 - target) / (f0 - f1)
        return float(taus[j - 1] + w * (taus[j] - taus[j - 1]))

    best = -math.inf
    for r_out in np.linspace(R + 1e-9, 1 - 1e-9, rout_points):
        t_in = f_inverse(R / float(r_out))
        if t_in is not None:
            best = max(best, (1 - float(r_out)) * t_in)
    return best - epsilon


def brute_feasible(i: int, lam: int, mu: int, params, M: int) -> set[int]:
    """Scan every block position against the feasibility gates directly.

    The gates, in order: the inner radius admits the window's stretch;
    the window lies inside the received word; the window start sits
    within the global budget of position j; and the remaining suffix
    budget closes. Only positions carrying encoder index i+1 count.
    """
    n, N = params.n, params.N
    step = params.tau_hat_n
    sp, length = lam * step, mu * step
    tau = params.tau
    out: set[int] = set()
    if params.tau_in * n < abs(n - length):
        return out
    if not 0 <= sp <= M - length:
        return out
    for j in range(1, N + 1):
        if (j - 1 - i) % params.eps_cont_N:
            continue
        j_n = (j - 1 - i) // params.eps_cont_N
        if j_n < 0:
            continue
        slack = tau * n * N - abs(n - length)
        if abs(sp - (j - 1) * n) > slack:
            continue
        if abs((N - j) * n - (M - sp - length)) > slack - abs(sp - (j - 1) * n):
            continue
        out.add(j_n)
    return out


def brute_list_recover(code, lists, alpha) -> list[tuple[int, ...]]:
    """Reed-Solomon list recovery by evaluating every message on its own.

    Each message's polynomial is evaluated at every point as a sum of
    powers (no codebook, no Horner step, no lanes); a codeword is kept
    when at least ceil(alpha * N) of its symbols lie in their position's
    list.  Sorted lexicographically.
    """
    p, points = code.p, code.points
    threshold = math.ceil(Fraction(alpha) * len(points))
    out = []
    for message in itertools.product(range(p), repeat=code.k):
        codeword = tuple(sum(m * pow(x, i, p) for i, m in enumerate(message)) % p for x in points)
        if sum(1 for s, allowed in zip(codeword, lists) if s in allowed) >= threshold:
            out.append(codeword)
    return sorted(out)


def rs_codebook_ref(code) -> list[tuple[int, ...]]:
    """Every Reed-Solomon codeword, in itertools.product message order.

    Each message is encoded on its own, one Horner loop per point; no
    span builder, basis or column is shared between messages.
    """
    p = code.p
    out = []
    for message in itertools.product(range(p), repeat=code.k):
        codeword = []
        for x in code.points:
            acc = 0
            for coeff in reversed(message):
                acc = (acc * x + coeff) % p
            codeword.append(acc)
        out.append(tuple(codeword))
    return out


def linear_span_ref(p: int, n: int, rows) -> list[tuple[int, ...]]:
    """The codeword of every message over F_p, in itertools.product message order.

    Each message's codeword starts at 0^n and adds its multiple of every
    generator row in turn, one message at a time.
    """
    out = []
    for message in itertools.product(range(p), repeat=len(rows)):
        syms = [0] * n
        for c, row in zip(message, rows):
            syms = [(s + c * v) % p for s, v in zip(syms, row)]
        out.append(tuple(syms))
    return out


@dataclass(frozen=True, order=True)
class Window:
    """A candidate subword of the received word, on the alignment grid.

    phi and the nominal length lam/mu describe grid coordinates: the
    window starts at offset phi = lam * step and nominally spans
    mu * step symbols.  lambda_len is the extractable length after
    clipping at the right edge of the received word; feasibility
    arithmetic keeps using the nominal mu.
    """

    phi: int
    lambda_len: int
    lam: int
    mu: int

    def __post_init__(self) -> None:
        if self.phi < 0 or self.lambda_len < 0 or self.lam < 0 or self.mu < 0:
            raise DomainError("window coordinates must be nonnegative")


def align_window(sp: int, length: int, tau_hat_n: int) -> Window:
    """Snap an arbitrary subword to the alignment grid.

    The returned grid window's content differs from the original
    subword's content by at most tau_hat_n insdel operations: depending
    on where the fractional parts of the start and length fall, the grid
    window either contains the subword (stretch by one step) or is
    contained in it (shrink by one step).  Exact grid multiples are
    returned unchanged.
    """
    if sp < 0 or length < 0:
        raise DomainError("start offset and length must be nonnegative")
    if tau_hat_n < 1:
        raise DomainError("grid step must be a positive integer")
    sp_whole, sp_rem = divmod(sp, tau_hat_n)
    len_whole, len_rem = divmod(length, tau_hat_n)
    if sp_rem == 0 and len_rem == 0:
        return Window(phi=sp, lambda_len=length, lam=sp_whole, mu=len_whole)
    if sp_rem + len_rem < tau_hat_n:
        lam, mu = sp_whole, len_whole + 1
    else:
        lam, mu = sp_whole + 1, len_whole
    return Window(phi=lam * tau_hat_n, lambda_len=mu * tau_hat_n, lam=lam, mu=mu)


def good_index_count(c, r, params, segment_lengths: Sequence[int]) -> int:
    """Blocks whose received segment stayed within tau_star * n edits.

    The segmentation of r is supplied by the caller (a harness that
    knows the true edit script); segment_lengths must cover r exactly
    with one segment per block.
    """
    if len(c) != params.n * params.N:
        raise DomainError("sent word length must be n * N")
    if len(segment_lengths) != params.N:
        raise DomainError(f"need {params.N} segment lengths, got {len(segment_lengths)}")
    if any(length < 0 for length in segment_lengths):
        raise DomainError("segment lengths must be nonnegative")
    if sum(segment_lengths) != len(r):
        raise DomainError("segment lengths must cover the received word exactly")
    threshold = params.tau_star * params.n
    good = 0
    pos = 0
    for i in range(params.N):
        block = c.symbols[i * params.n : (i + 1) * params.n]
        segment = r.symbols[pos : pos + segment_lengths[i]]
        pos += segment_lengths[i]
        if distance_ref(block, segment) <= threshold:
            good += 1
    return good


def windows_ref(params, M: int) -> set:
    """Every grid window over a length-M received word, built one by one.

    The grid bounds are taken straight from their rational definitions:
    starts lam * step up to 1 + (M/n - max(0, 1 - tau_star)) / tau_hat,
    nominal lengths mu * step from max(0, 1 - tau_star) / tau_hat up to
    1 + (1 + tau_star) / tau_hat, each window clipped at the right edge.
    """
    step = params.tau_hat_n
    tau_hat = params.tau_hat
    lam_top = 1 + (Fraction(M, params.n) - max(Fraction(0), 1 - params.tau_star)) / tau_hat
    if lam_top < 0:
        return set()
    mu_lo = math.ceil(max(Fraction(0), (1 - params.tau_star) / tau_hat))
    mu_hi = math.floor(1 + (1 + params.tau_star) / tau_hat)
    out = set()
    for lam in range(math.floor(lam_top) + 1):
        phi = lam * step
        for mu in range(mu_lo, mu_hi + 1):
            lambda_len = max(0, min(mu * step, M - phi))
            out.add(Window(phi=phi, lambda_len=lambda_len, lam=lam, mu=mu))
    return out


def window_cap_ref(params) -> Fraction:
    """The linear-size window census cap, as the rational it is defined as."""
    tau_hat = params.tau_hat
    width = (1 + params.tau) * params.N - max(Fraction(0), 1 - params.tau_star)
    lengths = min(2 * params.tau_star, 1 + params.tau_star)
    return (width / tau_hat + 2) * (lengths / tau_hat + 2)


def is_prime_ref(n: int) -> bool:
    """Primality by trial division up to sqrt(n); the package runs Miller-Rabin."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def strong_probable_prime(n: int, a: int) -> bool:
    """Whether odd n > 2 passes the strong probable-prime test to base a.

    Written out as the definition: with n - 1 = d * 2**s and d odd,
    a**d = 1 or a**(d * 2**r) = -1 mod n for some 0 <= r < s.
    """
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return pow(a, d, n) == 1 or any(pow(a, d * 2 ** r, n) == n - 1 for r in range(s))


def ball_bound_ref(center, n: int, tau: Fraction, q: int, slack: float = 2.0) -> float:
    """The ball_size_upper_bound exponent, evaluated from its docstring formula.

    The run profile is read off the center's symbols: w nonzero symbols,
    and t of the w + 1 zero gaps around them empty, capped at w.  Then

        g = (floor(tau*n) - n + m) / 2,  kappa* = (floor(tau*n) + n - m) / (2n),
        B = 2w - t (q >= 3) or 2(w - t) + 2 (q = 2),
        exponent = slack * log_q(n) + n * H_q(kappa*)
                   + [g > 0] ((B + g) * H_q(g / (B + g)) - [q >= 3] g * log_q(q - 1)).
    """

    def entropy(x: float) -> float:
        if x in (0, 1):
            return 0.0
        return x * math.log(q - 1, q) - x * math.log(x, q) - (1 - x) * math.log(1 - x, q)

    m = len(center)
    radius = math.floor(Fraction(tau) * n)
    w = sum(1 for s in center if s != 0)
    gaps = "".join("x" if s else "0" for s in center).split("x")
    t = min(gaps.count(""), w)
    g = Fraction(radius - n + m, 2)
    kappa = Fraction(radius + n - m, 2 * n)
    base = 2 * w - t if q >= 3 else 2 * (w - t) + 2
    exponent = slack * math.log(n, q) + n * entropy(float(kappa))
    if g > 0:
        exponent += float(base + g) * entropy(float(g / (base + g)))
        if q >= 3:
            exponent -= float(g) * math.log(q - 1, q)
    return exponent
