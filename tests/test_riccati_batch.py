"""The in-repo Dormand-Prince Riccati solver against scipy's RK45, and its
per-column error control on blocks of lam columns."""
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cbi import affine, generators
from cbi.affine import solve_v
from cbi.errors import SolverError

from conftest import ALL_FIXTURES, make_jump_d2
from oracles import phi_loops, psi_loops, v_with_psi_state

#: (t, lam scale, rtol, atol): an easy solve at the defaults, and long stiff
#: ones that reject steps, at the defaults and at the tight pair.
CASES = [(1.0, 1.0, 1e-10, 1e-12), (3.0, 200.0, 1e-10, 1e-12), (1.0, 40.0, 1e-12, 1e-14)]


def scipy_rk45(params, t, lam, rtol, atol):
    """scipy's RK45 on the loop-oracle phi, with the psi-integral as a 3-node
    Gauss-Legendre sum over each of its steps."""
    sol = solve_ivp(lambda _, v: -phi_loops(params, v), (0.0, t), lam, method="RK45",
                    rtol=rtol, atol=atol, dense_output=True)
    assert sol.success
    x, w = np.polynomial.legendre.leggauss(3)
    a, b = sol.t[:-1, None], sol.t[1:, None]
    nodes = (a + 0.5 * (b - a) * (x + 1.0)).ravel()
    weights = (0.5 * (b - a) * w).ravel()
    values = np.clip(sol.sol(nodes), 0.0, None)
    integral = sum(wk * psi_loops(params, values[:, k]) for k, wk in enumerate(weights))
    return sol, integral


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
@pytest.mark.parametrize("t, scale, rtol, atol", CASES)
def test_lone_column_takes_scipy_rk45_steps(name, t, scale, rtol, atol):
    params = ALL_FIXTURES[name]()
    lam = scale * np.linspace(1.0, 0.6, params.d)
    ref, integral = scipy_rk45(params, t, lam, rtol, atol)
    sol = solve_v(params, t, lam, rtol=rtol, atol=atol)
    steps = len(ref.t) - 1
    assert sol.solver_stats["steps"] == steps
    assert sol.solver_stats["nfev"] == ref.nfev
    # scipy's RK45 makes 2 evaluations to start and 6 per step attempt
    assert sol.solver_stats["rejected"] == (ref.nfev - 2) // 6 - steps
    np.testing.assert_allclose(sol.v_final, ref.sol(t), rtol=1e-13, atol=0.0)
    assert sol.psi_integral == pytest.approx(integral, rel=1e-13, abs=0.0)


def test_cases_reject_steps():
    # the parity above covers rejections: at least one case rejects a step
    sol = solve_v(ALL_FIXTURES["fix_a"](), 3.0, [200.0])
    assert sol.solver_stats["rejected"] >= 1


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


def test_block_dense_values_are_nonnegative_and_match_oracle(jump_d2):
    lams = np.array([[3.0, 0.05], [0.5, 8.0]])
    block = solve_v(jump_d2, 2.0, lams)
    assert block.dense_values(0.0).shape == (2, 2)
    for s in np.linspace(0.1, 1.9, 7):
        got = block.dense_values(s)
        assert np.all(got >= 0.0)
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


def test_import_leaves_scipy_integrate_unloaded():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, cbi, cbi.cli; "
                           "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
