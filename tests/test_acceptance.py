"""Acceptance gate: ten criteria, one test and one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each test is independent and states its own tolerances.
"""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from insdel.bounds import (
    ZyablovQuery,
    gv_lower_rate,
    large_q_list_size,
    large_q_rate,
    linear_rate_variants,
    random_rate_binary,
    random_rate_q3,
    random_rate_tau_binary,
    random_rate_tau_q3,
    rate_deletion_only,
    rate_insertion_only,
    zyablov_gamma_kappa,
    zyablov_tau,
)
from insdel.channel import adversarial_block_channel
from insdel.codes import code_to_json_dict, philox_generator, sample_random_code
from insdel.concat import (
    align_window,
    concat_encode_message,
    feasible_jN,
    list_decode_concat_detailed,
    make_concat_params,
    params_to_json_dict,
)
from insdel.core import (
    OutOfRegimeError,
    count_runs,
    insdel_distance,
    is_repetition,
    run_profile,
    word,
)
from insdel.decode import certify_list_decodable
from insdel.spheres import (
    ball_size_upper_bound,
    deletion_sphere_bounds,
    enumerate_deletion_sphere,
    enumerate_insertion_sphere,
    insertion_sphere_size,
    repetition_ball_exact,
)
from oracles import (
    HOST_N6,
    all_tuples,
    ball_bound_ref,
    batched_lcs,
    brute_feasible,
    dense_zyablov_tau,
    segment_grid_min_binary,
    segment_grid_min_q3,
    windows_ref,
    word_matrix,
)


def test_c01_insertion_sphere_exactness():
    """Enumerated insertion spheres equal the closed form, exactly."""
    checks = 0
    for q in (2, 3):
        for n1 in range(7):
            for syms in all_tuples(q, n1):
                center = word(syms, q)
                for n2 in range(4):
                    size = len(enumerate_insertion_sphere(center, n2))
                    assert size == insertion_sphere_size(n1, n2, q)
                    checks += 1
    print(f"criterion 1 PASS: insertion spheres exact on {checks} center/radius pairs")


def test_c02_deletion_sphere_sandwich():
    """Enumerated deletion spheres sit inside the bounds; bounds are tight."""
    achieved: dict[tuple[int, int], list[int]] = {}
    checks = 0
    for q in (2, 3):
        for n1 in range(9):
            for syms in all_tuples(q, n1):
                center = word(syms, q)
                phi = count_runs(center)
                if phi == 0:
                    assert enumerate_deletion_sphere(center, 0) == {center}
                    continue
                for n2 in range(min(4, n1) + 1):
                    size = len(enumerate_deletion_sphere(center, n2))
                    lo, hi = deletion_sphere_bounds(phi, n2)
                    assert lo <= size <= hi
                    checks += 1
                    seen = achieved.setdefault((phi, n2), [size, size])
                    seen[0] = min(seen[0], size)
                    seen[1] = max(seen[1], size)
    lower_hits = upper_hits = 0
    for (phi, n2), (smallest, largest) in achieved.items():
        lo, hi = deletion_sphere_bounds(phi, n2)
        if n2 <= phi:
            assert smallest == lo, (phi, n2, smallest, lo)
            lower_hits += 1
        if phi * n2 <= 8:
            assert largest == hi, (phi, n2, largest, hi)
            upper_hits += 1
    print(
        f"criterion 2 PASS: {checks} spheres inside the sandwich; lower bound "
        f"attained on {lower_hits} buckets, upper on {upper_hits}"
    )


def test_c03_run_count_bounds():
    """Profile bounds hold exhaustively; each bucket touches its bound."""
    for q, max_len in ((2, 10), (3, 7)):
        buckets: dict[tuple[int, int], list[int]] = {}
        for m in range(1, max_len + 1):
            for syms in all_tuples(q, m):
                profile = run_profile(word(syms, q))
                w, t, phi = profile.w, profile.t, profile.phi
                if not 0 < w < m:
                    continue
                assert 2 * (w - t) + 1 <= phi <= 2 * w - t + 1
                if q == 2 and t >= 2:
                    assert phi <= 2 * (w - t) + 3
                seen = buckets.setdefault((w, t), [phi, phi])
                seen[0] = min(seen[0], phi)
                seen[1] = max(seen[1], phi)
        for (w, t), (lo_phi, hi_phi) in buckets.items():
            if q >= 3:
                assert hi_phi == 2 * w - t + 1, (q, w, t, hi_phi)
            elif t >= 2:
                assert hi_phi == 2 * (w - t) + 3, (q, w, t, hi_phi)
            if t < w:
                assert lo_phi == 2 * (w - t) + 1, (q, w, t, lo_phi)
            else:
                assert lo_phi == 2, (q, w, t, lo_phi)
        if q == 3:
            assert len(buckets) == 15
    print("criterion 3 PASS: run-count bounds exhaustive with tightness witnesses")


# Positive-radius ball_size_upper_bound slices (center, q, n, tau, exponent):
# with and without a deletion phase (g > 0 and g = 0), half-integer g,
# q = 2, 3, 4.  The exponent is the default-slack value.
C04_PINS = (
    ((0, 1, 1, 0, 1, 0, 0, 1), 2, 8, Fraction(1, 4), 14.490224995673064),
    ((0, 1, 1, 0, 1, 0, 0, 1), 2, 10, Fraction(3, 10), 17.299720597956217),
    ((1, 0, 1, 1, 0, 1), 2, 8, Fraction(1, 4), 12.490224995673064),
    ((1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1), 2, 12, Fraction(1, 3), 21.460419056895624),
    ((0, 1, 2, 1, 0, 2), 3, 6, Fraction(1, 3), 8.81421109639259),
    ((2, 0, 0, 1, 2, 2, 0, 1, 0), 3, 10, Fraction(2, 5), 14.493177831688214),
    ((1, 2, 1, 0), 3, 6, Fraction(1, 3), 7.999999999999999),
    ((0, 0, 1, 2, 0, 2, 1, 1, 0, 2, 2, 0, 1, 0), 3, 14, Fraction(3, 7), 20.150612304408853),
    ((0, 3, 1, 2, 2, 0, 1), 4, 7, Fraction(3, 7), 9.32689055383426),
    ((3, 3, 0, 1, 0, 2, 1, 1, 3, 0), 4, 9, Fraction(4, 9), 11.62715639662899),
    ((1, 2, 3, 0, 0, 3), 4, 8, Fraction(1, 4), 7.830074998557688),
    ((2, 1, 0, 0, 3, 3, 2, 0, 1, 1, 0, 2, 3, 1, 0, 0), 4, 16, Fraction(1, 2), 20.350725979826166),
)


def test_c04_ball_bound_soundness():
    """Exact ball slices never exceed the exponent; repetition counts exact.

    Soundness alone cannot catch a bound that shrinks a term it does not
    need on small slices, so the exponent is also pinned on C04_PINS and
    each pin is checked against oracles.ball_bound_ref, an independent
    evaluation of the docstring formula.
    """
    for syms, q, n, tau, pinned in C04_PINS:
        center = word(syms, q)
        got = ball_size_upper_bound(run_profile(center), len(syms), n, tau, q)
        assert got == pytest.approx(pinned, abs=1e-12), (syms, n, tau)
        assert ball_bound_ref(syms, n, tau, q) == pytest.approx(pinned, abs=1e-12), (syms, n, tau)
    bound_checks = exact_checks = 0
    for q, max_len in ((2, 7), (3, 6)):
        mats = {n: word_matrix(q, n) for n in range(1, max_len + 1)}
        for m in range(max_len + 1):
            for syms in all_tuples(q, m):
                center = word(syms, q)
                profile = run_profile(center)
                repetition = is_repetition(center)
                for n in range(1, max_len + 1):
                    dists = m + n - 2 * batched_lcs(syms, mats[n])
                    for z in range(abs(n - m), n + m + 1):
                        count = int((dists <= z).sum())
                        if repetition:
                            assert count == repetition_ball_exact(m, n, z, q)
                            exact_checks += 1
                            continue
                        try:
                            exponent = ball_size_upper_bound(
                                profile, m, n, Fraction(z, n), q
                            )
                        except OutOfRegimeError:
                            continue
                        assert math.log(count, q) <= exponent + 1e-9
                        bound_checks += 1
    print(
        f"criterion 4 PASS: exponent bound held on {bound_checks} slices; "
        f"{exact_checks} repetition slices counted exactly; {len(C04_PINS)} exponents pinned"
    )


def test_c05_bound_formula_consistency():
    eps = 0.125
    zero_error_ops = [
        random_rate_q3(3, 0.0, 0.0, eps),
        random_rate_q3(7, 0.0, 0.0, eps),
        random_rate_binary(0.0, 0.0, eps),
        random_rate_tau_q3(3, 0.0, eps),
        random_rate_tau_binary(0.0, eps),
        rate_insertion_only(3, 0.0, eps),
        rate_insertion_only(2, 0.0, eps),
        rate_deletion_only(5, 0.0, eps),
        linear_rate_variants(3, 0.0, 0.0, eps),
        linear_rate_variants(2, 0.0, 0.0, eps),
        large_q_rate(0.0, eps),
    ]
    for point in zero_error_ops:
        assert point.rate == pytest.approx(1 - eps, abs=1e-12)

    for q in (2, 3, 4, 16, 256):
        for delta in np.linspace(0.0, 0.99, 100):
            assert gv_lower_rate(q, float(delta)) <= 1 - float(delta) + 1e-12

    # The raw binary value turns back upward deep in the negative region
    # (far past the zero crossing), so the monotone object is the clamped rate.
    q3_rates = [random_rate_tau_q3(3, float(t), 0.0).rate for t in np.linspace(0, 0.6, 20)]
    bin_rates = [random_rate_tau_binary(float(t), 0.0).rate for t in np.linspace(0, 0.95, 20)]
    for rates in (q3_rates, bin_rates):
        assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))
        assert rates[0] == 1.0 and rates[-1] == 0.0
    for q in (2, 3):
        taus = [
            zyablov_tau(ZyablovQuery(q=q, R=float(R), epsilon=0.01, grid=512)).tau
            for R in np.linspace(0.05, 0.95, 20)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(taus, taus[1:]))

    for tau in (0.05, 0.15, 0.3):
        assert random_rate_tau_q3(3, tau, 0.01).raw == pytest.approx(
            segment_grid_min_q3(3, tau, 0.01), abs=2e-3
        )
    for tau in (0.05, 0.1, 0.2):
        assert random_rate_tau_binary(tau, 0.01).raw == pytest.approx(
            segment_grid_min_binary(tau, 0.01), abs=2e-3
        )
    for q, R in ((2, 0.5), (3, 0.3)):
        assert zyablov_tau(ZyablovQuery(q=q, R=R, epsilon=0.01)).tau == pytest.approx(
            dense_zyablov_tau(q, R, 0.01), abs=2e-3
        )
    coarse = zyablov_gamma_kappa(2, 0.3, 0.01, grid=256)
    fine = zyablov_gamma_kappa(2, 0.3, 0.01, grid=2048)
    assert coarse == pytest.approx(fine, abs=2e-3)
    point = zyablov_tau(ZyablovQuery(q=2, R=0.3, epsilon=0.01, grid=512))
    assert fine[0] + fine[1] <= point.tau + 2 * 0.01 + 1e-9

    gaps = [
        1 - 0.2 - 0.01 - random_rate_q3(2 ** e, 0.2, 0.2, 0.01).rate
        for e in (8, 16, 32, 40)
    ]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05
    print("criterion 5 PASS: formula consistency, monotonicity, and dense-grid agreement")


def test_c06_beyond_singleton_remark():
    """Decoding radius can exceed what the rate leaves over, exactly."""
    gamma, kappa, eps = Fraction(2, 5), Fraction(1, 10), Fraction(1, 100)
    rate_exact = 1 - kappa - eps
    assert rate_exact == Fraction(89, 100)
    assert rate_exact >= 1 - kappa - 2 * eps
    tau = gamma + kappa
    assert tau == Fraction(1, 2)
    assert tau > 1 - rate_exact
    assert gamma > kappa + 2 * eps

    point = large_q_rate(float(kappa), float(eps))
    assert abs(point.rate - float(rate_exact)) < 1e-12
    concrete = random_rate_q3(2 ** 40, float(gamma), float(kappa), float(eps))
    assert float(tau) > 1 - concrete.rate
    assert large_q_list_size(tau, eps) == 149
    print(
        "criterion 6 PASS: rate 89/100 >= 88/100 and radius 1/2 > 11/100 "
        "(exact fractions), concrete q = 2**40 agrees"
    )


def test_c07_certification_matches_double_loop():
    def oracle(code, tau_n, L):
        for m in range(max(0, code.n - tau_n), code.n + tau_n + 1):
            for syms in all_tuples(code.q, m):
                center = word(syms, code.q)
                hits = sum(
                    1 for cw in code.words if insdel_distance(cw, center) <= tau_n
                )
                if hits > L:
                    return False, center
        return True, None

    rng = np.random.default_rng(2718)
    verdicts = {True: 0, False: 0}
    for _ in range(50):
        n = int(rng.integers(2, 7))
        size = int(rng.integers(2, min(12, 2 ** n) + 1))
        tau_n = int(rng.integers(0, 3))
        L = int(rng.integers(1, 4))
        code = sample_random_code(2, n, size, int(rng.integers(0, 2 ** 63)))
        mine = certify_list_decodable(code, tau_n, L)
        assert (mine.ok, mine.witness) == oracle(code, tau_n, L)
        verdicts[mine.ok] += 1
    assert verdicts[True] and verdicts[False]
    print(
        f"criterion 7 PASS: certification agreed with the double loop on 50 codes "
        f"({verdicts[True]} passes, {verdicts[False]} violations)"
    )


def test_c08_concat_end_to_end(desk_params):
    """100 seeded adversarial trials at the full decoding budget."""
    budget = math.floor(desk_params.tau * desk_params.n * desk_params.N)
    assert budget == 16
    assert desk_params.outer.p ** desk_params.outer.k <= 10 ** 4
    overhead = desk_params.tau / desk_params.eps_cont + 1
    contained = 0
    for seed in range(100):
        rng = philox_generator(seed)
        message = rng.integers(0, desk_params.outer.p, size=desk_params.outer.k)
        sent = concat_encode_message(desk_params, message)
        budgets = [0] * desk_params.N
        remaining = budget
        while remaining:
            pick = rng.integers(0, desk_params.N)
            if budgets[pick] < 2 * desk_params.n:
                budgets[pick] += 1
                remaining -= 1
        received, _ = adversarial_block_channel(sent, desk_params.n, budgets, seed)
        report = list_decode_concat_detailed(desk_params, received)
        assert sent in report.codewords
        assert report.list_mass <= desk_params.ell_out
        assert report.list_mass <= report.window_count * report.max_inner_list * overhead
        contained += 1
    assert contained == 100
    print("criterion 8 PASS: 100/100 roundtrips contained the sent codeword at budget 16")


def test_c09_window_position_arithmetic(desk_params):
    checked = 0
    for params in (desk_params, make_concat_params(**HOST_N6)):
        total = params.n * params.N
        for M in range(math.ceil((1 - params.tau) * total),
                       math.floor((1 + params.tau) * total) + 1):
            coords = {(w.lam, w.mu) for w in windows_ref(params, M)}
            E = params.eps_cont_N
            for lam, mu in sorted(coords):
                positions = feasible_jN(lam, mu, params, M)
                # Index i + 1's share of the range, one past the last index too.
                for i in range(E + 1):
                    share = {(j - i) // E for j in positions if j >= i and (j - i) % E == 0}
                    assert share == brute_feasible(i, lam, mu, params, M)
                    checked += 1

    rng = np.random.default_rng(606)
    for _ in range(10_000):
        step = int(rng.integers(1, 4))
        sp = int(rng.integers(0, 30))
        length = int(rng.integers(0, 30))
        r = word(tuple(int(v) for v in rng.integers(0, 2, size=sp + length + step + 3)), 2)
        win = align_window(sp, length, step)
        assert insdel_distance(r[sp : sp + length], r[win.phi : win.phi + win.lambda_len]) <= step
    print(
        f"criterion 9 PASS: closed-form feasibility matched the scan on {checked} "
        "tuples; alignment stayed within one grid step on 10000 subwords"
    )


def test_c10_seeded_reproducibility(tmp_path, desk_params):
    import json

    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps(code_to_json_dict(sample_random_code(2, 4, 6, 31))))
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps(params_to_json_dict(desk_params)))

    commands = [
        ("sample", "-q", "2", "-n", "8", "-M", "16", "--seed", "42", "--digest"),
        ("sample", "-q", "3", "-n", "4", "--linear", "-k", "2", "--seed", "7"),
        ("certify", "--code-file", str(code_file), "--tau-n", "1", "-L", "2",
         "--mode", "sampled", "--samples", "200", "--seed", "12"),
        ("channel", "-q", "2", "--word", "01100101", "--ins", "2", "--del", "2",
         "--seed", "33"),
        ("channel", "-q", "2", "--word", "01100101", "--block-len", "4",
         "--budgets", "2,1", "--seed", "33"),
        ("concat-roundtrip", "--params", str(params_file), "--seed", "11",
         "--budget", "12"),
        ("curve", "--kind", "zyablov", "-q", "2", "--epsilon", "0.01",
         "--start", "0.1", "--stop", "0.9", "--steps", "5"),
        ("gv-greedy", "-q", "2", "-n", "5", "-d", "4"),
    ]
    for argv in commands:
        first = subprocess.run(
            [sys.executable, "-m", "insdel", *argv], capture_output=True
        )
        second = subprocess.run(
            [sys.executable, "-m", "insdel", *argv], capture_output=True
        )
        assert first.returncode == 0 and second.returncode == 0, argv
        assert first.stdout == second.stdout, argv
        assert first.stdout
    print(f"criterion 10 PASS: {len(commands)} seeded commands byte-identical on rerun")
