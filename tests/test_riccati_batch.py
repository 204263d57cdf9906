"""The in-repo Dormand-Prince 8(5,3) Riccati solver against scipy's DOP853,
its step driver on the Dormand-Prince 5(4) tableau against scipy's RK45, its
tableau against the order conditions, and its per-column error control on
blocks of lam columns."""
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cbi import affine, generators, moments
from cbi.affine import DEFAULT_TOL, TIGHT_TOL, solve_v
from cbi.errors import SolverError

from conftest import ALL_FIXTURES, make_jump_d2
from ref_oracles import dop853_loop, phi_loops, psi_loops, v_with_psi_state

#: (t, lam scale, tol): an easy solve at the default, and long stiff ones,
#: at the default and at the tight tolerance, that reject steps on
#: branching_jump. scipy runs at rtol = tol and atol = tol / 100, the pair
#: that solve_v controls, and each case's id names that pair.
CASES = [(1.0, 1.0, 1e-10), (3.0, 200.0, 1e-10), (1.0, 40.0, 1e-12)]
CASE_IDS = [f"{t}-{scale}-{tol}-{tol / 100}" for t, scale, tol in CASES]


#: Dormand-Prince 5(4) with the coefficients of scipy's RK45, laid out as
#: affine's tableau: stage rows, 5th-order weights, and the error weights
#: (5th minus embedded 4th order, over the 7 stages with the FSAL one) as
#: the only estimate, since with a zero 3rd-order estimate DOP853's error
#: |h| e5^2 / sqrt(e5^2 (d+1)) is RK45's RMS norm.
DP54 = dict(
    _A=(np.array([1 / 5]),
        np.array([3 / 40, 9 / 40]),
        np.array([44 / 45, -56 / 15, 32 / 9]),
        np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
        np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656])),
    _B=np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
    _E5=np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40]),
    _E3=np.zeros(7),
    _EXPONENT=-1 / 5)


def scipy_solve(params, t, lam, rtol, atol, method):
    """scipy's `method` on (v, psi-integral), with the loop-oracle phi and
    psi both at the unclipped v."""
    d = params.d
    sol = solve_ivp(lambda _, y: np.append(-phi_loops(params, y[:d]), psi_loops(params, y[:d])),
                    (0.0, t), np.append(lam, 0.0), method=method, rtol=rtol, atol=atol)
    assert sol.success
    return sol


def assert_takes_scipy_steps(params, t, scale, tol, method, evals_per_step):
    lam = scale * np.linspace(1.0, 0.6, params.d)
    ref = scipy_solve(params, t, lam, tol, tol / 100, method)
    sol = solve_v(params, t, lam, tol=tol)
    steps = len(ref.t) - 1
    assert sol.solver_stats["steps"] == steps
    assert sol.solver_stats["nfev"] == ref.nfev
    # scipy makes 2 evaluations to start and evals_per_step per step attempt
    assert sol.solver_stats["rejected"] == (ref.nfev - 2) // evals_per_step - steps
    np.testing.assert_allclose(sol.v_final, ref.y[:-1, -1], rtol=1e-13, atol=0.0)
    assert sol.psi_integral == pytest.approx(ref.y[-1, -1], rel=1e-13, abs=0.0)


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
@pytest.mark.parametrize("t, scale, tol", CASES, ids=CASE_IDS)
def test_lone_column_takes_scipy_dop853_steps(name, t, scale, tol):
    assert_takes_scipy_steps(ALL_FIXTURES[name](), t, scale, tol, "DOP853", 12)


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
@pytest.mark.parametrize("t, scale, tol", CASES, ids=CASE_IDS)
def test_lone_column_takes_scipy_rk45_steps(monkeypatch, name, t, scale, tol):
    # the step driver (initial step, step control, rejections, error norm,
    # evaluation count) is the tableau's: fed DP5(4), it is scipy's RK45
    for attr, value in DP54.items():
        monkeypatch.setattr(affine, attr, value)
    assert_takes_scipy_steps(ALL_FIXTURES[name](), t, scale, tol, "RK45", 6)


def test_cases_reject_steps(branching_jump):
    # the parity above covers rejections: at least one case rejects a step
    sol = solve_v(branching_jump, 3.0, 200.0 * np.linspace(1.0, 0.6, branching_jump.d))
    assert sol.solver_stats["rejected"] >= 1


def assert_matches_dop853_loop(params, t, lam, tol):
    """solve_v against the plain DOP853 loop on the same right-hand side,
    bit for bit; returns the solution."""
    dq = moments.derive(params)
    d = dq.params.d
    block = lam.reshape(d, -1)
    y, steps, nfev, rejected, clip = dop853_loop(
        affine._riccati_rhs(dq), np.vstack([block, np.zeros(block.shape[1])]), t, tol,
        tol * 1e-2)
    sol = solve_v(dq, t, lam, tol=tol)
    assert np.array_equal(sol.v_final, np.clip(y[:d], 0.0, None).reshape(lam.shape))
    assert np.array_equal(sol.psi_integral, y[d] if lam.ndim == 2 else y[d, 0])
    assert (sol.solver_stats["steps"], sol.solver_stats["nfev"],
            sol.solver_stats["rejected"]) == (steps, nfev, rejected)
    assert np.array_equal(sol.solver_stats["clip_total"], clip if lam.ndim == 2 else clip[0])
    return sol


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
@pytest.mark.parametrize("tol", [DEFAULT_TOL, TIGHT_TOL])
@pytest.mark.parametrize("width", ["lone", "block"])
def test_stepper_matches_plain_dop853_loop(name, tol, width):
    # the stage and state buffers, the in-place right-hand side and the
    # slope handed from one step to the next change no bit of scipy's loop
    params = ALL_FIXTURES[name]()
    lam = np.linspace(1.0, 0.6, params.d)
    if width == "block":
        lam = np.column_stack([0.3 * lam, 40.0 * lam, 0.0 * lam])
    assert_matches_dop853_loop(params, 1.0, lam, tol)


@pytest.mark.parametrize("width", ["lone", "block"])
def test_rejecting_solve_matches_plain_dop853_loop(branching_jump, width):
    # a rejected attempt's stages must not reach the retry: the retry starts
    # from the slope at the last accepted step
    lam = np.array([200.0]) if width == "lone" else np.array([[200.0, 1.0]])
    sol = assert_matches_dop853_loop(branching_jump, 3.0, lam, DEFAULT_TOL)
    assert sol.solver_stats["rejected"] >= 1


def test_solves_share_no_memory(jump_d2):
    # a buffer kept on the model or the right-hand side would be shared by
    # the results of two solves, or the second solve would write into the
    # first; lam is Fortran-ordered, a layout the state buffers must not take
    dq = moments.derive(jump_d2)
    lam = np.array([[0.3, 0.2], [40.0, 25.0], [0.0, 0.0]]).T
    lam_before = lam.copy()
    first = solve_v(dq, 2.0, lam)
    v_first, psi_first = first.v_final.copy(), first.psi_integral.copy()
    second = solve_v(dq, 2.0, lam)
    for a in (first.v_final, first.psi_integral):
        for b in (second.v_final, second.psi_integral, lam):
            assert not np.shares_memory(a, b)
    assert np.array_equal(first.v_final, v_first)
    assert np.array_equal(first.psi_integral, psi_first)
    assert np.array_equal(lam, lam_before)


def test_tableau_meets_the_order_conditions():
    # with the nodes c as the row sums of A, the weights integrate
    # polynomials of degree below 8 exactly and no higher; b A c is one of
    # the third-order tree conditions
    A = np.zeros((len(affine._B), len(affine._B)))
    for s, row in enumerate(affine._A, start=1):
        A[s, :s] = row
    b, c = affine._B, A.sum(axis=1)
    for k in range(1, 9):
        assert abs(b @ c ** (k - 1) - 1 / k) < 1e-14, k
    assert abs(b @ c ** 8 - 1 / 9) > 1e-6
    assert abs(b @ A @ c - 1 / 6) < 1e-14
    # each error estimate is a difference of two weight rows that sum to 1
    for e in (affine._E5, affine._E3):
        assert abs(e.sum()) < 1e-14


@pytest.mark.parametrize("n_columns", [2, 7])
def test_identical_columns_take_the_one_column_steps(jump_d2, n_columns):
    # a norm that grows or shrinks with the number of columns would change
    # the steps of a block of copies
    lam = np.array([40.0, 25.0])
    one = solve_v(jump_d2, 2.0, lam)
    block = solve_v(jump_d2, 2.0, np.repeat(lam[:, None], n_columns, axis=1))
    for key in ("steps", "nfev", "rejected"):
        assert block.solver_stats[key] == one.solver_stats[key], key
    np.testing.assert_allclose(block.v_final, np.repeat(one.v_final[:, None], n_columns, 1),
                               rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(block.psi_integral, one.psi_integral, rtol=1e-15, atol=0.0)
    np.testing.assert_array_equal(block.solver_stats["clip_total"],
                                  one.solver_stats["clip_total"])


@pytest.mark.parametrize("scale", [1e-3, 0.5])
def test_hard_column_among_easy_ones_sets_the_steps(jump_d2, scale):
    # an RMS over the whole block would divide the hard column's error by
    # about sqrt(8) and let the block take fewer, longer steps
    hard = np.array([40.0, 25.0])
    one = solve_v(jump_d2, 2.0, hard)
    easy = [scale * (1.0 + 0.1 * k) * hard for k in range(7)]
    block = solve_v(jump_d2, 2.0, np.column_stack([hard, *easy]))
    for key in ("steps", "nfev", "rejected"):
        assert block.solver_stats[key] == one.solver_stats[key], key
    np.testing.assert_allclose(block.v_final[:, 0], one.v_final, rtol=1e-15, atol=0.0)


def test_mixed_block_agrees_with_lone_solves_and_oracle(jump_d2):
    lams = np.array([[0.3, 40.0, 0.0, 5.0],
                     [0.2, 40.0, 0.0, 0.1]])
    t = 2.0
    block = solve_v(jump_d2, t, lams)
    assert block.v_final.shape == lams.shape and block.psi_integral.shape == (4,)
    for col in range(lams.shape[1]):
        lone = solve_v(jump_d2, t, lams[:, col])
        np.testing.assert_allclose(block.v_final[:, col], lone.v_final, rtol=1e-9, atol=1e-300)
        assert block.psi_integral[col] == pytest.approx(lone.psi_integral, rel=1e-9, abs=1e-300)
        v_end, integral = v_with_psi_state(jump_d2, t, lams[:, col])
        np.testing.assert_allclose(block.v_final[:, col], v_end, rtol=0.0, atol=1e-9)
        assert block.psi_integral[col] == pytest.approx(integral, abs=1e-9)


def test_block_values_are_nonnegative_and_match_oracle(jump_d2):
    lams = np.array([[3.0, 0.05], [0.5, 8.0]])
    for s in np.linspace(0.1, 1.9, 7):
        got = solve_v(jump_d2, s, lams).v_final
        assert got.shape == (2, 2) and np.all(got >= 0.0)
        for col in range(2):
            v_s, _ = v_with_psi_state(jump_d2, s, lams[:, col])
            np.testing.assert_allclose(got[:, col], v_s, rtol=0.0, atol=1e-8)


def test_block_rejects_bad_shapes(jump_d2):
    for lam in (np.ones((3, 2)), np.ones((2, 0)), np.ones((2, 2, 1))):
        with pytest.raises(ValueError):
            solve_v(jump_d2, 1.0, lam)
    with pytest.raises(ValueError):
        affine.laplace_transform(jump_d2, 1.0, [1.0, 1.0], np.ones((2, 2)))


@pytest.mark.parametrize("lam", [1e200, 1e308])
def test_overflowing_rhs_fails_without_warnings(fix_a, lam):
    # phi(lam) overflows to inf, so the first-step rule yields a NaN step:
    # the solve must fail (no endless rejections) and let no numpy warning
    # out (warnings are errors under pytest here)
    with pytest.raises(SolverError, match="step size"):
        solve_v(fix_a, 1.0, [lam])
    with pytest.raises(SolverError):
        solve_v(fix_a, 1.0, np.array([[1.0, lam]]))


def test_probes_and_tables_make_one_solve_each(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(np.shape(args[2]))
        return solve_v(*args, **kwargs)

    monkeypatch.setattr(affine, "solve_v", counting)
    params = make_jump_d2()
    affine.v_jacobian_fd(params, 1.0)
    affine.v_hessian_fd(params, 1.0, 1, 1, 0)
    affine.v_hessian_fd(params, 1.0, 1, 0, 1)
    generators.discrete_gen_table(params, [1.0, 0.5], [0.7, 1.2], (10, 100, 1000))
    assert calls == [(2, 8), (2, 6), (2, 8), (2, 3)]
