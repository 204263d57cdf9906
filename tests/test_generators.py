import math

import numpy as np
import pytest

from cbi import moments
from cbi.affine import laplace_transform
from cbi.generators import (VERDICT_CONVERGES, VERDICT_DIVERGES, discrete_gen_exp,
                            discrete_gen_limit, discrete_gen_table,
                            drift_convergence_criterion, exp_convergence_criterion,
                            generator_apply, scaled_gen_apply, scaled_gen_limit)
from cbi.matops import mat_exp
from cbi.model import CbiParams, JumpMeasure
from cbi.testfunctions import TestFunction, bump, linear_bump, scaled_argument

from conftest import assert_close
from oracles import fd_gradient, fd_hessian


def _plateau(r_flat: float, r_out: float, d: int) -> TestFunction:
    """C^2 radial plateau: 1 on |x| <= r_flat, quintic ramp to 0 at r_out."""
    a, b = r_flat**2, r_out**2

    def u_of(s):
        return (s - a) / (b - a)

    def value(x):
        s = float(np.asarray(x, float) @ np.asarray(x, float))
        if s <= a:
            return 1.0
        if s >= b:
            return 0.0
        u = u_of(s)
        return 1.0 - u**3 * (10 - 15 * u + 6 * u * u)

    def gradient(x):
        x = np.atleast_1d(np.asarray(x, float))
        s = float(x @ x)
        if s <= a or s >= b:
            return np.zeros(len(x))
        u = u_of(s)
        hp = -30.0 * u * u * (1 - u) ** 2 / (b - a)
        return hp * 2.0 * x

    def hessian(x):
        x = np.atleast_1d(np.asarray(x, float))
        s = float(x @ x)
        n = len(x)
        if s <= a or s >= b:
            return np.zeros((n, n))
        u = u_of(s)
        hp = -30.0 * u * u * (1 - u) ** 2 / (b - a)
        hpp = -60.0 * u * (1 - u) * (1 - 2 * u) / (b - a) ** 2
        return hpp * 4.0 * np.outer(x, x) + hp * 2.0 * np.eye(n)

    return TestFunction(value=value, gradient=gradient, hessian=hessian,
                        support_radius=r_out)


# --- test functions ----------------------------------------------------------

def test_bump_vanishes_outside_support():
    f = bump([0.5], 1.0)
    for x in ([1.6], [5.0]):
        assert f.value(x) == 0.0
        assert_close(f.gradient(x), [0.0], 0.0)
        assert_close(f.hessian(x), [[0.0]], 0.0)
    assert f.support_radius == pytest.approx(1.5)


@pytest.mark.parametrize("make_f,d,points", [
    (lambda: bump([0.5], 1.5), 1, [[0.1], [0.7], [1.4]]),
    (lambda: bump([0.3, 0.3], 2.0, amplitude=0.8), 2, [[0.1, 0.2], [1.0, 0.5]]),
    (lambda: linear_bump([0.0, 0.0], 2.0, [0.5, -0.2]), 2, [[0.3, 0.4], [1.0, 0.1]]),
    (lambda: _plateau(1.0, 2.0, 2), 2, [[1.1, 0.5], [0.9, 0.9]]),
])
def test_gradients_and_hessians_match_finite_differences(make_f, d, points):
    f = make_f()
    for x in points:
        x = np.array(x, float)
        g_fd = fd_gradient(f.value, x, h=1e-6)
        h_fd = fd_hessian(f.value, x, h=1e-4)
        g, H = f.gradient(x), f.hessian(x)
        scale_g = max(1.0, float(np.max(np.abs(g))))
        scale_h = max(1.0, float(np.max(np.abs(H))))
        assert_close(g, g_fd, 1e-5 * scale_g, "gradient FD")
        assert_close(H, h_fd, 1e-5 * scale_h * 10, "hessian FD")
        assert_close(H, H.T, 1e-13, "hessian symmetry")


def test_scaled_argument_scaling():
    f = bump([0.0], 1.0)
    fn = scaled_argument(f, 4.0)
    x = np.array([2.0])
    assert fn.value(x) == pytest.approx(f.value(x / 4.0))
    assert_close(fn.gradient(x), f.gradient(x / 4.0) / 4.0, 1e-15)
    assert_close(fn.hessian(x), f.hessian(x / 4.0) / 16.0, 1e-15)
    assert fn.support_radius == pytest.approx(4.0)


# --- discrete generator on exponentials --------------------------------------

def test_discrete_gen_zero_lambda(fix_a, jump_d2):
    assert discrete_gen_exp(fix_a, 10, [2.0], [0.0]) == pytest.approx(0.0, abs=1e-12)
    assert discrete_gen_exp(jump_d2, 3, [1.0, 1.0], [0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_discrete_gen_fix_a_closed_form(fix_a):
    # v(1, 1/n) = 1/(n+1), psi-integral = log((n+1)/n)
    got = discrete_gen_exp(fix_a, 10, [2.0], [1.0])
    expected = 10.0 * (math.exp(-20.0 / 11.0) * (10.0 / 11.0) - math.exp(-2.0))
    assert got == pytest.approx(expected, abs=1e-10)


def test_discrete_gen_deterministic_drift_case():
    B = np.array([[-1.0, 1.0], [1.0, -1.0]])
    params = CbiParams.no_jumps(c=[0.0, 0.0], beta=[0.0, 0.0], B=B)
    x = np.array([1.0, 0.5])
    lam = np.array([0.7, 0.2])
    for n in (1, 10, 100):
        got = discrete_gen_exp(params, n, x, lam)
        expected = n * (math.exp(-float(lam @ (mat_exp(B, 1.0) @ x)))
                        - math.exp(-float(lam @ x)))
        assert got == pytest.approx(expected, abs=1e-9)


def test_discrete_gen_exactness_bridge(fix_a, jump_mixed):
    # n = 1 must equal the Laplace-transform route directly
    for params, x, lam in ((fix_a, [2.0], [1.0]), (jump_mixed, [1.5], [0.8])):
        via_gen = discrete_gen_exp(params, 1, x, lam)
        via_laplace = laplace_transform(params, 1.0, x, lam, rtol=1e-12, atol=1e-14) \
            - math.exp(-float(np.dot(lam, x)))
        assert via_gen == pytest.approx(via_laplace, abs=1e-12)


def test_discrete_gen_limit_values(fix_a):
    assert discrete_gen_limit(fix_a, [2.0], [1.0]) == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert discrete_gen_limit(fix_a, [2.0], [0.0]) == pytest.approx(0.0, abs=1e-14)
    # x = 0 leaves only the immigration part: -lam * beta_tilde
    assert discrete_gen_limit(fix_a, [0.0], [1.0]) == pytest.approx(-1.0, rel=1e-12)


def test_table_fix_a_converges_at_rate(fix_a):
    tab = discrete_gen_table(fix_a, [2.0], [1.0])
    assert tab.verdict == VERDICT_CONVERGES
    assert_close(tab.raw, tab.corrected, 1e-12, "correction vanishes when btilde=0")
    gaps = tab.gaps
    for g_n, g_10n in zip(gaps[:-1], gaps[1:]):
        assert 8.0 <= g_n / g_10n <= 12.0


@pytest.mark.parametrize("n_list, message", [((0, 10), "positive"), ((-5, 10), "positive"),
                                             ((10, 10), "increasing"), ((10,), "increasing")])
def test_table_rejects_bad_n_list(fix_a, n_list, message):
    with pytest.raises(ValueError, match=message):
        discrete_gen_table(fix_a, [2.0], [1.0], n_list)


def test_discrete_gen_rejects_n_below_one(fix_a):
    for n in (0, -3):
        with pytest.raises(ValueError, match="positive"):
            discrete_gen_exp(fix_a, n, [2.0], [1.0])


def test_table_d2_ray_converges(d2_critical):
    for lam in ([1.0, 0.0], [0.3, 0.7], [2.0, 1.0]):
        tab = discrete_gen_table(d2_critical, [0.5, 0.5], lam)
        assert tab.verdict == VERDICT_CONVERGES, (lam, tab.gaps)


def test_table_d2_off_ray_diverges(d2_critical):
    x, lam = np.array([1.0, 0.0]), np.array([1.0, 0.0])
    tab = discrete_gen_table(d2_critical, x, lam)
    assert tab.verdict == VERDICT_DIVERGES
    a = float(lam @ (mat_exp(d2_critical.B, 1.0) @ x))
    b = float(lam @ x)
    exact_slope = math.exp(-a) - math.exp(-b)
    assert tab.fitted_slope == pytest.approx(exact_slope, rel=0.10)
    assert abs(tab.fitted_slope) <= abs(a - b) * math.exp(-min(a, b)) * 1.01
    # corrected sequence still converges to the limit
    assert tab.gaps[-1] < 1e-3


def test_exp_criterion(fix_a, d2_critical):
    assert exp_convergence_criterion(fix_a, [2.0], [1.0])
    assert exp_convergence_criterion(d2_critical, [0.5, 0.5], [1.0, 0.0])
    assert exp_convergence_criterion(d2_critical, [5.0, 5.0], [0.3, 0.9])
    assert not exp_convergence_criterion(d2_critical, [1.0, 0.0], [1.0, 0.0])


# --- full generator -----------------------------------------------------------

def test_generator_zero_on_plateau():
    params = CbiParams(d=1, c=[0.4], beta=[0.2], B=[[-0.3]],
                       nu=JumpMeasure.from_atoms([(0.5, [0.4])]),
                       mu=(JumpMeasure.from_atoms([(0.6, [0.3])]),))
    f = _plateau(1.0, 2.0, 1)
    # x and every x + z sit on the flat part, so everything cancels
    assert generator_apply(params, f, [0.2]) == pytest.approx(0.0, abs=1e-14)


def test_generator_no_jump_reduction(d2_critical):
    f = bump([0.4, 0.4], 1.8)
    x = np.array([0.6, 0.3])
    got = generator_apply(d2_critical, f, x)
    H = f.hessian(x)
    expected = float(d2_critical.c @ (x * np.diag(H))) \
        + float((d2_critical.beta + d2_critical.B @ x) @ f.gradient(x))
    assert got == pytest.approx(expected, rel=1e-12)


def test_generator_single_branching_atom():
    params = CbiParams(d=1, c=[0.0], beta=[0.0], B=[[0.0]],
                       mu=(JumpMeasure.from_atoms([(1.0, [2.0])]),))
    f = bump([0.0], 2.0)
    x = np.array([1.0])
    # x + z = 3 is outside the support: A f(x) = x (0 - f(x) - f'(x) * 1)
    expected = -f.value(x) - f.gradient(x)[0]
    assert generator_apply(params, f, x) == pytest.approx(expected, rel=1e-12)


def test_generator_two_forms_agree_on_fixtures(fix_a, jump_mixed, jump_d2, d2_critical):
    rng = np.random.default_rng(17)
    for params in (fix_a, jump_mixed, jump_d2, d2_critical):
        d = params.d
        for _ in range(5):
            center = rng.uniform(0.0, 1.0, size=d)
            f = bump(center, float(rng.uniform(1.0, 3.0)))
            x = rng.uniform(0.0, 1.2, size=d)
            # generator_apply raises ConsistencyError if the forms disagree
            generator_apply(params, f, x, check_tol=1e-10)


# --- scaled generator -----------------------------------------------------------

def test_scaled_gen_n1_equals_generator(jump_mixed):
    f = bump([0.5], 2.0)
    x = [0.7]
    assert scaled_gen_apply(jump_mixed, 1, f, x) == pytest.approx(
        generator_apply(jump_mixed, f, x), rel=1e-12)


def test_scaled_gen_no_jump_closed_form(d2_critical):
    f = bump([0.4, 0.4], 1.8)
    x = np.array([0.5, 0.8])
    H, g = f.hessian(x), f.gradient(x)
    for n in (1, 7, 50, 1000):
        got = scaled_gen_apply(d2_critical, n, f, x)
        expected = float(d2_critical.c @ (x * np.diag(H))) \
            + float(d2_critical.beta @ g) + n * float((d2_critical.B @ x) @ g)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_scaled_gen_limit_values(fix_a):
    f = bump([0.5], 1.5)
    # x = 0: only the immigration drift survives
    assert scaled_gen_limit(fix_a, f, [0.0]) == pytest.approx(
        float(f.gradient([0.0])[0]), rel=1e-12)
    # squared Bessel form x f'' + f'
    x = np.array([0.8])
    assert scaled_gen_limit(fix_a, f, x) == pytest.approx(
        x[0] * f.hessian(x)[0, 0] + f.gradient(x)[0], abs=1e-12)


def test_scaled_gen_limit_zero_when_degenerate():
    params = CbiParams.no_jumps(c=[0.0, 0.0], beta=[0.0, 0.0],
                                B=[[-1.0, 1.0], [1.0, -1.0]])
    f = bump([0.2, 0.2], 2.0)
    assert scaled_gen_limit(params, f, [0.5, 0.4]) == pytest.approx(0.0, abs=1e-14)


def test_scaled_gen_converges_to_limit_with_jumps(jump_d2):
    dq = moments.derive(jump_d2)
    f = bump([0.3, 0.3], 2.5)
    x = np.array([0.6, 0.4])
    drift = float((dq.btilde @ x) @ f.gradient(x))
    limit = scaled_gen_limit(jump_d2, f, x)
    gaps = []
    for n in (10, 100, 1000, 10000):
        val = scaled_gen_apply(jump_d2, n, f, x) - n * drift
        gaps.append(abs(val - limit))
    assert gaps[-1] < 1e-3
    assert gaps[-1] < gaps[0]


def test_drift_criterion(fix_a, d2_critical):
    f = bump([0.5], 1.5)
    assert drift_convergence_criterion(fix_a, f, [0.8])  # btilde = 0
    f2 = bump([0.4, 0.4], 1.8)
    # on the ray, btilde x = 0 exactly for the two-cycle matrix
    assert drift_convergence_criterion(d2_critical, f2, [0.5, 0.5])
    assert not drift_convergence_criterion(d2_critical, f2, [0.6, 0.2])
