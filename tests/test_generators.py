import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm, null_space

from cbi import moments
from cbi.affine import laplace_transform
from cbi.errors import ConsistencyError
from cbi.generators import (CRITERION_TOL, DEFAULT_N_LIST, VERDICT_CONVERGES, VERDICT_DIVERGES,
                            discrete_gen_exp, discrete_gen_limit, discrete_gen_table,
                            generator_apply, scaled_gen_apply, scaled_gen_limit)
from cbi.matops import mat_exp
from cbi.model import CbiParams, JumpMeasure
from cbi.simulate import PathConfig, simulate_cbi, simulate_limit_diffusion, simulate_scaled_step
from cbi.testfunctions import TestFunction, bump

from conftest import (assert_close, make_d2_critical, make_degenerate_critical, make_fix_a,
                      make_jump_d2, make_jump_d3)
from ref_oracles import fd_gradient, fd_hessian


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

    return TestFunction(value=value, gradient=gradient, hessian=hessian)


def _linear_bump(center, radius: float, slope, offset: float = 1.0) -> TestFunction:
    """(offset + <slope, x>) times a bump; still C^2 with compact support."""
    base = bump(center, radius)
    slope = np.atleast_1d(np.asarray(slope, dtype=float))

    def value(x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return (offset + float(slope @ x)) * base.value(x)

    def gradient(x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        p = offset + float(slope @ x)
        return slope * base.value(x) + p * base.gradient(x)

    def hessian(x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        p = offset + float(slope @ x)
        bg = base.gradient(x)
        return np.outer(slope, bg) + np.outer(bg, slope) + p * base.hessian(x)

    return TestFunction(value=value, gradient=gradient, hessian=hessian)


# --- test functions ----------------------------------------------------------

def test_bump_vanishes_outside_support():
    f = bump([0.5], 1.0)
    for x in ([1.6], [5.0]):
        assert f.value(x) == 0.0
        assert_close(f.gradient(x), [0.0], 0.0)
        assert_close(f.hessian(x), [[0.0]], 0.0)


def test_bump_is_exp_minus_one_at_its_center():
    f = bump([0.5, -1.0], 2.0)
    assert f.value([0.5, -1.0]) == math.exp(-1.0)
    assert np.array_equal(f.gradient([0.5, -1.0]), [0.0, 0.0])
    assert np.array_equal(f.hessian([0.5, -1.0]), -math.exp(-1.0) * (2.0 / 4.0) * np.eye(2))


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, 1e300, 1e-300])
def test_bump_rejects_non_finite_or_non_positive_radius(radius):
    # an infinite radius is a constant without compact support; the
    # derivatives divide by radius^2, which must stay a normal float
    with pytest.raises(ValueError):
        bump([0.5], radius)


@pytest.mark.parametrize("make_f,d,points", [
    (lambda: bump([0.5], 1.5), 1, [[0.1], [0.7], [1.4]]),
    (lambda: bump([0.3, 0.3], 2.0), 2, [[0.1, 0.2], [1.0, 0.5]]),
    (lambda: _linear_bump([0.0, 0.0], 2.0, [0.5, -0.2]), 2, [[0.3, 0.4], [1.0, 0.1]]),
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


@pytest.mark.parametrize("x", [[0.5, 0.5], [3.0, 3.0], [[0.5]]])
@pytest.mark.parametrize("method", ["value", "gradient", "hessian"])
def test_bump_rejects_points_of_another_dimension(method, x):
    # a 1-d bump would broadcast over a 2-d point inside its support and
    # fail in a matmul outside it
    with pytest.raises(ValueError, match=r"the bump's center has length 1"):
        getattr(bump([0.5], 2.0), method)(x)


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
        via_laplace = laplace_transform(params, 1.0, x, lam, tol=1e-12) \
            - math.exp(-float(np.dot(lam, x)))
        assert via_gen == pytest.approx(via_laplace, abs=1e-12)


def test_discrete_gen_limit_values(fix_a):
    assert discrete_gen_limit(fix_a, [2.0], [1.0]) == pytest.approx(math.exp(-2.0), rel=1e-12,
                                                                    abs=0.0)
    assert discrete_gen_limit(fix_a, [2.0], [0.0]) == pytest.approx(0.0, abs=1e-14)
    # x = 0 leaves only the immigration part: -lam * beta_tilde
    assert discrete_gen_limit(fix_a, [0.0], [1.0]) == pytest.approx(-1.0, rel=1e-12, abs=0.0)


def test_table_fix_a_converges_at_rate(fix_a):
    tab = discrete_gen_table(fix_a, [2.0], [1.0])
    assert tab.verdict == VERDICT_CONVERGES
    assert_close(tab.raw, tab.corrected, 1e-12, "correction vanishes when btilde=0")
    gaps = tab.gaps
    for g_n, g_10n in zip(gaps[:-1], gaps[1:]):
        assert 8.0 <= g_n / g_10n <= 12.0


def test_table_fix_a_converges_past_the_rounding_floor(fix_a):
    # the gaps rise again beyond n = 1e6 from rounding, not from the sequence
    tab = discrete_gen_table(fix_a, [2.0], [1.0], tuple(10**k for k in range(1, 10)))
    assert tab.verdict == VERDICT_CONVERGES


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
    # on the Perron ray u_right = (1/2, 1/2), at scales where raw underflows to 0 too
    for x, lam in [([0.5, 0.5], [1.0, 0.0]), ([0.5, 0.5], [0.3, 0.7]), ([0.5, 0.5], [2.0, 1.0]),
                   ([5e5, 5e5], [0.3, 0.9]), ([5e7, 5e7], [0.3, 0.9])]:
        tab = discrete_gen_table(d2_critical, x, lam)
        assert tab.verdict == VERDICT_CONVERGES, (x, lam, tab.gaps)


def test_table_d2_off_ray_diverges(d2_critical):
    x, lam = np.array([1.0, 0.0]), np.array([1.0, 0.0])
    tab = discrete_gen_table(d2_critical, x, lam)
    assert tab.verdict == VERDICT_DIVERGES
    a = float(lam @ (mat_exp(d2_critical.B, 1.0) @ x))
    b = float(lam @ x)
    exact_slope = math.exp(-a) - math.exp(-b)
    slope = tab.raw[-1] / tab.n_values[-1]
    assert slope == pytest.approx(exact_slope, rel=0.10, abs=0.0)
    assert abs(slope) <= abs(a - b) * math.exp(-min(a, b)) * 1.01
    # corrected sequence still converges to the limit
    assert tab.gaps[-1] < 1e-3


@pytest.mark.parametrize("make_params, x, lam, n_list", [
    (make_jump_d3, [0.5, 0.5, 1.5], [1.5, 2.0, 0.5], DEFAULT_N_LIST),
    (make_d2_critical, [0.5, 1.0], [1.0, 1.5], (10, 100, 1000)),
])
def test_table_diverges_before_raw_over_n_settles(make_params, x, lam, n_list):
    # raw grows about tenfold per decade of n, but raw / n still drifts by
    # more than 10 % between the top two n
    tab = discrete_gen_table(make_params(), x, lam, n_list)
    assert tab.verdict == VERDICT_DIVERGES
    assert tab.raw[-1] > 5.0 * tab.raw[-2] > 0.0


@pytest.mark.parametrize("make_params", [make_d2_critical, make_jump_d2, make_jump_d3])
def test_table_verdict_is_the_criterion_on_draws(make_params):
    # the oracle reads b = <lam, exp(btilde) x> through scipy's expm. Off the
    # criterion, |<lam, x> - b| >= 1e-3; on it, lam is moved along one entry onto
    # <lam, (exp(btilde) - I) x> = 0, or x lies on a critical model's Perron ray
    dq = moments.derive(make_params())
    d = dq.params.d
    E = expm(dq.btilde)
    rng = np.random.default_rng(31)
    cases = []
    while len(cases) < 35:
        x, lam = rng.uniform(0.1, 2.0, d), rng.uniform(0.1, 2.0, d)
        if abs(lam @ x - lam @ (E @ x)) >= 1e-3:
            cases.append((x, lam, False))
    while len(cases) < 50:
        x, lam = rng.uniform(0.1, 2.0, d), rng.uniform(0.1, 2.0, d)
        y = E @ x - x
        j = np.argmin(y) if lam @ y > 0 else np.argmax(y)
        if y[j] * (lam @ y) < 0:
            lam[j] -= (lam @ y) / y[j]
            if lam.max() <= 5.0:
                cases.append((x, lam, True))
    for u in null_space(dq.btilde).T:
        cases += [(10.0 ** rng.uniform(-1, 8) * np.abs(u), rng.uniform(0.1, 2.0, d), True)
                  for _ in range(15)]
    for x, lam, on in cases:
        for n_list in (DEFAULT_N_LIST, (10, 100, 1000)):
            tab = discrete_gen_table(dq, x, lam, n_list)
            assert (tab.verdict == VERDICT_CONVERGES) == on, (x, lam, n_list, tab.raw)
            if on:  # the raw sequence reaches the limit without correction
                assert abs(tab.raw[-1] - tab.limit_formula) < 1e-2, (x, lam, tab.raw)


def test_exp_criterion(fix_a, d2_critical):
    def verdict(params, x, lam):
        return discrete_gen_table(params, x, lam).verdict

    assert verdict(fix_a, [2.0], [1.0]) == VERDICT_CONVERGES
    assert verdict(d2_critical, [0.5, 0.5], [1.0, 0.0]) == VERDICT_CONVERGES
    # on the Perron ray at every scale: the tolerance is relative above 1
    for scale in (10.0, 1e6, 1e8):
        assert verdict(d2_critical, [scale / 2, scale / 2], [0.3, 0.9]) == VERDICT_CONVERGES
    assert verdict(d2_critical, [1.0, 0.0], [1.0, 0.0]) == VERDICT_DIVERGES


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
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_generator_single_branching_atom():
    params = CbiParams(d=1, c=[0.0], beta=[0.0], B=[[0.0]],
                       mu=(JumpMeasure.from_atoms([(1.0, [2.0])]),))
    f = bump([0.0], 2.0)
    x = np.array([1.0])
    # x + z = 3 is outside the support: A f(x) = x (0 - f(x) - f'(x) * 1)
    expected = -f.value(x) - f.gradient(x)[0]
    assert generator_apply(params, f, x) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_generator_two_forms_agree_on_fixtures(fix_a, jump_mixed, jump_d2, jump_d3,
                                              d2_critical):
    rng = np.random.default_rng(17)
    for params in (fix_a, jump_mixed, jump_d2, jump_d3, d2_critical):
        d = params.d
        for _ in range(5):
            center = rng.uniform(0.0, 1.0, size=d)
            f = bump(center, float(rng.uniform(1.0, 3.0)))
            x = rng.uniform(0.0, 1.2, size=d)
            # generator_apply raises ConsistencyError if the forms disagree
            generator_apply(params, f, x)


# --- scaled generator -----------------------------------------------------------

def test_scaled_gen_n1_equals_generator(jump_mixed):
    f = bump([0.5], 2.0)
    x = [0.7]
    assert scaled_gen_apply(jump_mixed, 1, f, x)[0] == pytest.approx(
        generator_apply(jump_mixed, f, x), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("height", [2.0, 0.25])
def test_scaled_gen_columns_are_linear_in_f(height):
    # every cgen column scales with f, so a bump needs no height of its
    # own: a power-of-two height scales each column bit for bit
    makers = (make_fix_a, make_d2_critical, make_jump_d2, make_jump_d3)
    for make_params in makers:
        params = make_params()
        d = params.d
        f = bump(np.full(d, 0.3), 2.0)
        g = TestFunction(value=lambda x: height * f.value(x),
                         gradient=lambda x: height * f.gradient(x),
                         hessian=lambda x: height * f.hessian(x))
        x = np.linspace(0.2, 0.9, d)
        for n in (1, 10, 1000):
            assert scaled_gen_apply(params, n, g, x) == tuple(
                height * v for v in scaled_gen_apply(params, n, f, x))
        assert scaled_gen_limit(params, g, x) == height * scaled_gen_limit(params, f, x)


def test_scaled_gen_rejects_n_below_one(jump_mixed):
    with pytest.raises(ValueError, match="n must be a positive integer, got 0"):
        scaled_gen_apply(jump_mixed, 0, bump([0.5], 2.0), [0.7])


def test_scaled_gen_no_jump_closed_form(d2_critical):
    f = bump([0.4, 0.4], 1.8)
    x = np.array([0.5, 0.8])
    H, g = f.hessian(x), f.gradient(x)
    for n in (1, 7, 50, 1000):
        got, _, rate = scaled_gen_apply(d2_critical, n, f, x)
        expected = float(d2_critical.c @ (x * np.diag(H))) \
            + float(d2_critical.beta @ g) + n * float((d2_critical.B @ x) @ g)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert rate == pytest.approx(float((d2_critical.B @ x) @ g), rel=1e-12, abs=0.0)


def test_scaled_gen_limit_values(fix_a):
    f = bump([0.5], 1.5)
    # x = 0: only the immigration drift survives
    assert scaled_gen_limit(fix_a, f, [0.0]) == pytest.approx(
        float(f.gradient([0.0])[0]), rel=1e-12, abs=0.0)
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
    f = bump([0.3, 0.3], 2.5)
    x = np.array([0.6, 0.4])
    limit = scaled_gen_limit(jump_d2, f, x)
    gaps = []
    for n in (10, 100, 1000, 10000):
        _, corrected, _ = scaled_gen_apply(jump_d2, n, f, x)
        gaps.append(abs(corrected - limit))
    assert gaps[-1] < 1e-3
    assert gaps[-1] < gaps[0]


@pytest.mark.parametrize("make_params, x", [
    (make_fix_a, [1.0]), (make_d2_critical, [1.0, 0.5]), (make_degenerate_critical, [1.0, 0.5]),
])
def test_scaled_gen_corrected_is_the_limit_without_jumps(make_params, x):
    # jump-free, the corrected value is the limit's own sum of terms: no
    # O(n) subtraction and no x * n / n rounding is left to grow with n
    dq = moments.derive(make_params())
    x = np.array(x)
    f = bump(x + 0.3, 1.5)
    limit = scaled_gen_limit(dq, f, x)
    for n in (10, 10**4, 10**8, 10**12):
        assert abs(scaled_gen_apply(dq, n, f, x)[1] - limit) <= 1e-15, n


@pytest.mark.parametrize("n", [1, 10**4, 10**8])
@pytest.mark.parametrize("fixture", ["jump_d2", "d2_critical"])
def test_form_check_catches_a_wrong_btilde(fixture, n, request):
    # btilde enters the compensated form only: the defining form reads the
    # drift table, so a wrong btilde must split the two at every scale
    dq = moments.derive(request.getfixturevalue(fixture))
    wrong = dataclasses.replace(dq, btilde=dq.btilde + 1e-6)
    with pytest.raises(ConsistencyError, match="generator forms disagree"):
        scaled_gen_apply(wrong, n, bump([0.3, 0.3], 2.5), [0.6, 0.4])


F2 = bump([0.5, 0.5], 2.0)
_WRONG_LENGTH = {
    "discrete_gen_exp x": lambda p: discrete_gen_exp(p, 10, [0.5], [1.0, 1.0]),
    "discrete_gen_exp lam": lambda p: discrete_gen_exp(p, 10, [0.5, 0.5], [1.0]),
    "discrete_gen_limit x": lambda p: discrete_gen_limit(p, [0.5, 0.5, 0.5], [1.0, 1.0]),
    "discrete_gen_limit lam": lambda p: discrete_gen_limit(p, [0.5, 0.5], [1.0]),
    "discrete_gen_table x": lambda p: discrete_gen_table(p, [0.5], [1.0, 1.0]),
    "discrete_gen_table lam": lambda p: discrete_gen_table(p, [0.5, 0.5], [1.0]),
    "generator_apply": lambda p: generator_apply(p, F2, [0.5]),
    "scaled_gen_apply": lambda p: scaled_gen_apply(p, 10, F2, [0.5, 0.5, 0.5]),
    "scaled_gen_limit": lambda p: scaled_gen_limit(p, F2, [[0.5, 0.5]]),
    "mean x": lambda p: moments.mean(p, [0.5], 1.0),
    "mean 2-D x": lambda p: moments.mean(p, [[1.0, 2.0], [3.0, 4.0]], 1.0),
    "variance_no_immigration z": lambda p: moments.variance_no_immigration(p, [0.5] * 3, 1.0),
    "variance_no_immigration 2-D z": lambda p: moments.variance_no_immigration(
        p, [[1.0], [2.0]], 1.0),
    "laplace_transform x": lambda p: laplace_transform(p, 1.0, [0.5], [1.0, 1.0]),
    "laplace_transform 2-D lam": lambda p: laplace_transform(p, 1.0, [0.5, 0.5], np.ones((2, 2))),
    # PathConfig itself refuses an x0 that is not a vector
    "simulate_cbi x0": lambda p: simulate_cbi(p, _cfg([0.5])),
    "simulate_scaled_step x0": lambda p: simulate_scaled_step(p, 2, _cfg([0.5] * 3)),
    "simulate_limit_diffusion x0": lambda p: simulate_limit_diffusion(p, _cfg([0.5])),
}


def _cfg(x0):
    return PathConfig(x0=x0, horizon=1.0, dt=0.1, seed=0, n_paths=2)


@pytest.mark.parametrize("name", _WRONG_LENGTH)
def test_generator_entry_points_check_lengths_against_d(name, d2_critical):
    # every entry point that reads a point checks it once, naming it
    with pytest.raises(ValueError, match=r"^(x|lam|z|x0) must have length d=2, got shape \("):
        _WRONG_LENGTH[name](d2_critical)


def test_drift_criterion(fix_a, d2_critical):
    def converges(params, f, x):  # the rate <btilde x, grad f(x)> within CRITERION_TOL
        return abs(scaled_gen_apply(params, 1, f, x)[2]) <= CRITERION_TOL

    f = bump([0.5], 1.5)
    assert converges(fix_a, f, [0.8])  # btilde = 0
    f2 = bump([0.4, 0.4], 1.8)
    # on the ray, btilde x = 0 exactly for the two-cycle matrix
    assert converges(d2_critical, f2, [0.5, 0.5])
    assert not converges(d2_critical, f2, [0.6, 0.2])
