"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
with the measured quantity (visible with `pytest -s` or in the captured
output of a failure) and then asserts.
"""
import math
import time

import numpy as np
import pytest

from cbi import affine, moments
from cbi.generators import (VERDICT_CONVERGES, VERDICT_DIVERGES, _generator_forms,
                            discrete_gen_table, scaled_gen_apply, scaled_gen_limit)
from cbi.matops import is_irreducible, perron_vectors, spectral
from cbi.model import CbiParams
from cbi.simulate import PathConfig, simulate_cbi
from cbi.testfunctions import TestFunction, bump

from conftest import (make_branching_jump, make_d2_critical, make_fix_a,
                      make_jump_d2, make_jump_d3, make_jump_mixed, mc_z)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


GRID_T = np.linspace(0.2, 2.0, 10)
GRID_LAM = np.linspace(0.5, 5.0, 10)


def test_criterion_1_riccati_oracle():
    params = make_fix_a()
    start = time.perf_counter()
    worst = 0.0
    for t in GRID_T:
        got = affine.solve_v(params, t, GRID_LAM[None, :]).v_final[0]
        worst = max(worst, float(np.max(np.abs(got - GRID_LAM / (1.0 + GRID_LAM * t)))))
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-8 and elapsed < 1.0,
            f"max |v - lam/(1+lam t)| = {worst:.3e} (<=1e-8), {elapsed:.2f}s (<1s)")


def test_criterion_2_laplace_exactness():
    params = make_fix_a()
    worst = 0.0
    for lam in GRID_LAM:
        for t in GRID_T:
            got = affine.laplace_transform(params, t, [1.0], [lam])
            exact = math.exp(-lam / (1.0 + lam * t)) / (1.0 + lam * t)
            worst = max(worst, abs(got - exact))
    _report(2, worst <= 1e-8, f"max Laplace error = {worst:.3e} (<=1e-8)")


def test_criterion_3_corrected_sequence_rate():
    params = make_fix_a()
    start = time.perf_counter()
    tab = discrete_gen_table(params, [2.0], [1.0], (10, 100, 1000, 10000))
    elapsed = time.perf_counter() - start
    gaps = tab.gaps
    final_ok = gaps[-1] <= 1e-3
    ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
    rate_ok = all(8.0 <= r <= 12.0 for r in ratios)
    limit_ok = abs(tab.limit_formula - math.exp(-2.0)) <= 1e-12
    _report(3, final_ok and rate_ok and limit_ok and elapsed < 10.0,
            f"gap(1e4) = {gaps[-1]:.3e} (<=1e-3), ratios = "
            f"{[f'{r:.2f}' for r in ratios]} (in [8,12]), {elapsed:.2f}s (<10s)")


def test_criterion_4_convergence_dichotomy():
    params = make_d2_critical()
    lam_set = ([1.0, 0.0], [0.3, 0.7], [2.0, 1.0])

    converge_ok = True
    for delta in (0.1, 1.0, 10.0):
        for lam in lam_set:
            tab = discrete_gen_table(params, delta * np.array([0.5, 0.5]), lam)
            converge_ok &= tab.verdict == VERDICT_CONVERGES

    e_b = affine.v_jacobian_limit(params, 1.0)  # exp(btilde)
    rng = np.random.default_rng(2024)
    diverge_ok = True
    drift_ok = True
    count = 0
    while count < 20:
        x = rng.uniform(0.2, 2.0, size=2)
        lam = rng.uniform(0.2, 2.0, size=2)
        if abs(float(lam @ x) - float(lam @ (e_b @ x))) < 0.05:
            continue
        count += 1
        tab = discrete_gen_table(params, x, lam)
        diverge_ok &= tab.verdict == VERDICT_DIVERGES
        per_n = tab.raw / np.array(tab.n_values, dtype=float)
        drift_ok &= abs(per_n[-1] - per_n[-2]) / abs(per_n[-1]) < 0.10
    _report(4, converge_ok and diverge_ok and drift_ok,
            f"ray verdicts converge: {converge_ok}, 20 off-ray verdicts diverge: "
            f"{diverge_ok}, raw/n drift<10% between 1e3 and 1e4: {drift_ok}")


def test_criterion_5_scaled_generator_limit():
    n = 10000
    worst = 0.0
    cases = [
        (make_fix_a(), bump([0.5], 1.5), [[0.2], [0.5], [0.9], [1.3], [1.7]]),
        (make_d2_critical(), bump([0.4, 0.4], 1.8),
         [[0.2, 0.2], [0.6, 0.3], [0.9, 0.9], [1.0, 0.4], [0.3, 1.0]]),
    ]
    for params, f, points in cases:
        for x in points:
            x = np.array(x)
            _, got, _ = scaled_gen_apply(params, n, f, x)
            worst = max(worst, abs(got - scaled_gen_limit(params, f, x)))

    fix_a, f1 = cases[0][0], cases[0][1]
    bessel_worst = 0.0
    for x in cases[0][2]:
        x = np.array(x)
        analytic = x[0] * f1.hessian(x)[0, 0] + f1.gradient(x)[0]
        bessel_worst = max(bessel_worst, abs(scaled_gen_limit(fix_a, f1, x) - analytic))
    _report(5, worst <= 1e-3 and bessel_worst <= 1e-10,
            f"max |corrected scaled(1e4) - limit| = {worst:.3e} (<=1e-3); "
            f"squared-Bessel form gap = {bessel_worst:.3e} (<=1e-10)")


def test_criterion_6_derivative_limits():
    jac_worst = 0.0
    for params in (make_fix_a(), make_d2_critical()):
        J = affine.v_jacobian_fd(params, 1.0)
        jac_worst = max(jac_worst, float(np.max(np.abs(
            J - affine.v_jacobian_limit(params, 1.0)))))
    hess = affine.v_hessian_fd(make_fix_a(), 1.0, 0, 0, 0)
    hess_err = abs(hess - (-2.0))
    _report(6, jac_worst <= 1e-5 and hess_err <= 1e-4,
            f"FD Jacobian error = {jac_worst:.3e} (<=1e-5); "
            f"FD second-derivative error = {hess_err:.3e} (<=1e-4)")


def _scaled(f: TestFunction, height: float) -> TestFunction:
    """height * f, with its gradient and Hessian."""
    return TestFunction(value=lambda x: height * f.value(x),
                        gradient=lambda x: height * f.gradient(x),
                        hessian=lambda x: height * f.hessian(x))


def test_criterion_7_generator_two_form_identity():
    makers = (make_fix_a, make_d2_critical, make_jump_mixed, make_jump_d2,
              make_branching_jump, make_jump_d3)
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(100):
        params = makers[trial % len(makers)]()
        d = params.d
        unit = bump(rng.uniform(0.0, 1.0, size=d), float(rng.uniform(1.0, 3.0)))
        f = _scaled(unit, float(rng.uniform(0.5, 2.0)))
        x = rng.uniform(0.0, 1.5, size=d)
        defining, corrected, rate = _generator_forms(moments.derive(params), f, x, 1.0)
        worst = max(worst, abs(defining - (corrected + rate)))
    _report(7, worst <= 1e-10,
            f"max |defining - compensated| over 100 triples = {worst:.3e} (<=1e-10)")


def test_criterion_8_monte_carlo_consistency():
    start = time.perf_counter()
    ok = True
    details = []
    n_paths, dt = 10000, 1e-3

    fixtures = [
        ("fix_a", make_fix_a(), [1.0],
         [[0.3], [0.8], [1.5], [3.0], [5.0]]),
        ("d2", make_d2_critical(), [1.0, 0.5],
         [[0.3, 0.1], [0.8, 0.5], [1.5, 1.0], [3.0, 2.0], [0.2, 1.4]]),
    ]
    for idx, (name, params, x0, probes) in enumerate(fixtures):
        cfg = PathConfig(x0=x0, horizon=1.0, dt=dt, seed=2025 + idx, n_paths=n_paths)
        ends = np.array([p.states[-1] for p in simulate_cbi(params, cfg)])

        dev = mc_z(ends, moments.mean(params, x0, 1.0))
        ok &= dev <= 3.0
        details.append(f"{name} mean {dev:.2f}se")

        refs = [affine.laplace_transform(params, 1.0, x0, lam) for lam in probes]
        dev = mc_z(np.exp(-(ends @ np.transpose(probes))), refs)
        ok &= dev <= 3.0
        details.append(f"{name} laplace(5) {dev:.2f}se")

        pure = params.without_immigration()
        cfg_z = PathConfig(x0=x0, horizon=1.0, dt=dt, seed=2100 + idx,
                           n_paths=n_paths)
        z_ends = np.array([p.states[-1] for p in simulate_cbi(pure, cfg_z)])
        centered = z_ends - z_ends.mean(axis=0)
        prods = centered[:, :, None] * centered[:, None, :]  # per-path outer products
        dev = mc_z(prods, moments.variance_no_immigration(pure, x0, 1.0))
        ok &= dev <= 3.0
        details.append(f"{name} variance {dev:.2f}se")

    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    _report(8, ok, "; ".join(details) + f"; total {elapsed:.1f}s (<120s)")


def test_criterion_9_spectral_perron():
    btilde = np.array([[-1.0, 1.0], [1.0, -1.0]])
    s = spectral(btilde).spectral_abscissa
    pp = perron_vectors(btilde)
    right_err = float(np.max(np.abs(pp.u_right - [0.5, 0.5])))
    left_err = float(np.max(np.abs(pp.u_left - [1.0, 1.0])))
    irr = is_irreducible(btilde)
    not_irr = not is_irreducible(np.array([[0.0, 1.0], [0.0, 0.0]]))
    ok = (abs(s) <= 1e-12 and right_err <= 1e-10 and left_err <= 1e-10
          and irr and not_irr)
    _report(9, ok,
            f"s = {s:.2e} (<=1e-12), |u_right-(.5,.5)| = {right_err:.2e} (<=1e-10), "
            f"|u_left-(1,1)| = {left_err:.2e} (<=1e-10), irreducibility checks: "
            f"{irr and not_irr}")
