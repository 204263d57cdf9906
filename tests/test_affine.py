import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbi import moments
from cbi.affine import (laplace_transform, phi, psi, psi_compensated, psi_grad,
                        solve_v, v_hessian_fd, v_hessian_limit, v_jacobian_fd,
                        v_jacobian_limit)
from cbi.model import CbiParams, JumpMeasure

from conftest import assert_close, make_jump_d2, make_jump_mixed
from oracles import phi_loops, psi_loops, v_with_psi_state, variance_quad


# --- phi / psi -------------------------------------------------------------

def test_phi_vanishes_at_zero(jump_d2):
    assert_close(phi(jump_d2, [0.0, 0.0]), [0.0, 0.0], 1e-15)


def test_phi_pure_diffusion(fix_a):
    assert phi(fix_a, [3.0])[0] == pytest.approx(9.0, abs=1e-14)


def test_phi_single_atom():
    params = CbiParams(d=1, c=[0.0], beta=[0.0], B=[[0.0]],
                       mu=(JumpMeasure.from_atoms([(1.0, [2.0])]),))
    assert phi(params, [1.0])[0] == pytest.approx(math.exp(-2.0), rel=1e-14)


def test_phi_matches_loop_oracle(jump_d2):
    for lam in ([0.3, 1.2], [2.0, 0.0], [5.0, 5.0]):
        assert_close(phi(jump_d2, lam), phi_loops(jump_d2, lam), 1e-13)


def test_psi_linear_without_atoms(fix_a):
    assert psi(fix_a, [2.0]) == pytest.approx(2.0, abs=1e-15)


def test_psi_single_atom():
    params = CbiParams(d=1, c=[0.0], beta=[0.0], B=[[0.0]],
                       nu=JumpMeasure.from_atoms([(1.0, [1.0])]))
    assert psi(params, [1.0]) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)


def test_psi_two_forms_agree(jump_mixed, jump_d2):
    for params in (jump_mixed, jump_d2):
        for scale in (0.1, 1.0, 4.0):
            lam = scale * np.ones(params.d)
            assert psi(params, lam) == pytest.approx(psi_compensated(params, lam), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(w=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=4),
       lam=st.floats(0.0, 5.0))
def test_psi_forms_agree_on_random_atoms(w, lam):
    rng = np.random.default_rng(len(w))
    pts = rng.uniform(0.05, 2.5, size=(len(w), 2))
    params = CbiParams(d=2, c=[1.0, 1.0], beta=[0.4, 0.0],
                       B=[[0.0, 0.0], [0.0, 0.0]],
                       nu=JumpMeasure(weights=np.array(w), points=pts))
    v = np.array([lam, 0.5 * lam])
    assert psi(params, v) == pytest.approx(psi_compensated(params, v), abs=1e-12)


def test_psi_grad_without_atoms(fix_a):
    for lam in (0.2, 1.0, 7.0):
        assert_close(psi_grad(fix_a, [lam]), fix_a.beta, 1e-15)


def test_psi_grad_single_atom():
    params = CbiParams(d=1, c=[0.0], beta=[0.0], B=[[0.0]],
                       nu=JumpMeasure.from_atoms([(1.0, [1.0])]))
    assert psi_grad(params, [1.0])[0] == pytest.approx(math.exp(-1.0), rel=1e-13)


def test_psi_grad_matches_finite_difference(jump_mixed, jump_d2):
    h = 1e-5
    for params in (jump_mixed, jump_d2):
        lam = 0.8 * np.ones(params.d)
        g = psi_grad(params, lam)
        for i in range(params.d):
            e = np.zeros(params.d)
            e[i] = h
            fd = (psi(params, lam + e) - psi(params, lam - e)) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=1e-6)


def test_psi_grad_limit_is_beta_tilde(jump_mixed):
    bt = moments.derive(jump_mixed).beta_tilde
    assert_close(psi_grad(jump_mixed, [1e-9]), bt, 1e-8)


# --- solve_v ---------------------------------------------------------------

def test_solve_v_zero_lambda(jump_d2):
    sol = solve_v(jump_d2, 1.0, [0.0, 0.0])
    assert_close(sol.v_final, [0.0, 0.0], 1e-13)
    assert sol.psi_integral == pytest.approx(0.0, abs=1e-13)


def test_solve_v_initial_condition_exact(fix_a):
    sol = solve_v(fix_a, 1.0, [1.7])
    assert sol.dense_values(0.0)[0] == 1.7


def test_solve_v_scalar_riccati_closed_form(fix_a):
    sol = solve_v(fix_a, 1.0, [1.0])
    assert sol.v_final[0] == pytest.approx(0.5, abs=1e-10)
    assert sol.psi_integral == pytest.approx(math.log(2.0), abs=1e-10)


def test_solve_v_linear_drift_case():
    B = np.array([[-1.0, 1.0], [1.0, -1.0]])
    params = CbiParams.no_jumps(c=[0.0, 0.0], beta=[0.0, 0.0], B=B)
    sol = solve_v(params, 1.0, [1.0, 0.0])
    e2 = math.exp(-2.0)
    assert_close(sol.v_final, 0.5 * np.array([1 + e2, 1 - e2]), 1e-10)


def test_solve_v_t_zero(jump_mixed):
    sol = solve_v(jump_mixed, 0.0, [2.0])
    assert sol.v_final[0] == 2.0
    assert sol.psi_integral == 0.0


def test_solve_v_rejects_bad_input(fix_a):
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            solve_v(fix_a, t, [1.0])
    with pytest.raises(ValueError):
        solve_v(fix_a, 1.0, [-0.5])
    with pytest.raises(ValueError):
        solve_v(fix_a, 1.0, [1.0], rtol=-1e-10)


def test_solve_v_nonnegative_dense_output(jump_d2):
    sol = solve_v(jump_d2, 2.0, [3.0, 0.5])
    for s in np.linspace(0.0, 2.0, 37):
        assert np.all(sol.dense_values(s) >= 0.0)
    assert sol.solver_stats["clip_total"] <= 1e-8


def test_solve_v_monotone_in_lambda(jump_d2):
    hi = solve_v(jump_d2, 1.5, [2.0, 1.0])
    lo = solve_v(jump_d2, 1.5, [1.0, 0.5])
    for s in np.linspace(0.0, 1.5, 7):
        assert np.all(lo.dense_values(s) <= hi.dense_values(s) + 1e-12)


def test_solve_v_monotone_limit_to_zero(jump_mixed):
    lam0 = np.array([1.0])
    prev = None
    for eps in (1.0, 0.1, 0.01, 0.001):
        v = solve_v(jump_mixed, 1.0, eps * lam0).v_final
        if prev is not None:
            assert np.all(v <= prev + 1e-14)
        prev = v
    assert np.all(prev <= 1e-2)


def test_solve_v_flow_property(jump_d2):
    lam = np.array([1.2, 0.4])
    s, t = 0.6, 0.9
    big = solve_v(jump_d2, s + t, lam)
    inner = solve_v(jump_d2, t, lam)
    outer = solve_v(jump_d2, s, inner.v_final)
    assert_close(big.v_final, outer.v_final, 1e-7, "flow property")


def test_psi_integral_matches_augmented_oracle(fix_a, jump_mixed, jump_d2):
    for params, lam in ((fix_a, [1.0]), (jump_mixed, [2.0]), (jump_d2, [1.0, 0.7])):
        sol = solve_v(params, 1.3, lam)
        v_end, integral = v_with_psi_state(params, 1.3, lam)
        assert_close(sol.v_final, v_end, 1e-9, "v vs augmented oracle")
        assert sol.psi_integral == pytest.approx(integral, abs=1e-9)


@pytest.mark.parametrize("t, lam", [(1.0, 50.0), (10.0, 50.0), (50.0, 50.0), (200.0, 5.0)])
def test_psi_integral_long_horizon_closed_form(fix_a, t, lam):
    # psi(v) = v with v = lam / (1 + lam s): the integral is log(1 + lam t)
    got = solve_v(fix_a, t, [lam]).psi_integral
    assert got == pytest.approx(math.log1p(lam * t), rel=1e-9)


@pytest.mark.parametrize("t", [10.0, 50.0])
def test_psi_integral_long_horizon_augmented_oracle(jump_d2, t):
    lam = [40.0, 40.0]
    _, integral = v_with_psi_state(jump_d2, t, lam)
    assert solve_v(jump_d2, t, lam).psi_integral == pytest.approx(integral, rel=1e-9)


# --- Laplace transform -----------------------------------------------------

def test_laplace_is_one_at_zero(jump_d2):
    assert laplace_transform(jump_d2, 1.0, [1.0, 2.0], [0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_laplace_at_time_zero(jump_mixed):
    assert laplace_transform(jump_mixed, 0.0, [2.0], [1.5]) == pytest.approx(
        math.exp(-3.0), rel=1e-12)


def test_laplace_scalar_closed_form(fix_a):
    got = laplace_transform(fix_a, 1.0, [1.0], [1.0])
    assert got == pytest.approx(math.exp(-0.5) / 2.0, abs=1e-10)


def test_laplace_in_unit_interval_and_monotone(jump_d2):
    vals = [laplace_transform(jump_d2, 0.8, [x, 0.5], [lam, 0.3])
            for x, lam in ((0.0, 0.1), (1.0, 0.1), (1.0, 2.0), (3.0, 2.0))]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert vals[1] < vals[0]  # larger x
    assert vals[2] < vals[1]  # larger lam
    assert vals[3] < vals[2]


# --- derivative limits -----------------------------------------------------

def test_jacobian_limit_identity_at_t_zero(jump_d2):
    assert_close(v_jacobian_limit(jump_d2, 0.0), np.eye(2), 1e-14)


def test_jacobian_limit_fix_a(fix_a):
    assert_close(v_jacobian_limit(fix_a, 1.0), [[1.0]], 1e-14)


def test_jacobian_fd_matches_limit(fix_a, d2_critical):
    for params in (fix_a, d2_critical):
        J = v_jacobian_fd(params, 1.0, eps=1e-4)
        assert_close(J, v_jacobian_limit(params, 1.0), 1e-5, "FD Jacobian")


def test_jacobian_orientation_on_asymmetric_linear_case():
    # c = 0, no jumps: v(t, lam) = exp(t B^T) lam, so the probe recovers
    # exp(t B) in the [derivative index, component index] orientation.
    params = CbiParams.no_jumps(c=[0.0, 0.0], beta=[0.0, 0.0],
                                B=[[-2.0, 2.0], [1.0, -1.0]])
    J = v_jacobian_fd(params, 1.0, eps=1e-4)
    assert_close(J, v_jacobian_limit(params, 1.0), 1e-7, "orientation")


def test_hessian_limit_zero_without_branching():
    params = CbiParams.no_jumps(c=[0.0, 0.0], beta=[0.5, 0.0],
                                B=[[-1.0, 1.0], [1.0, -1.0]])
    for i, j, k in ((0, 0, 0), (0, 1, 1), (1, 1, 0)):
        assert v_hessian_limit(params, 1.0, i, j, k) == pytest.approx(0.0, abs=1e-14)


def test_hessian_limit_fix_a(fix_a):
    assert v_hessian_limit(fix_a, 1.0, 0, 0, 0) == pytest.approx(-2.0, rel=1e-12)


def test_hessian_limit_is_nonpositive_diagonal(jump_d2):
    for k in range(2):
        for i in range(2):
            assert v_hessian_limit(jump_d2, 1.0, i, i, k) <= 1e-14


def test_hessian_limit_matches_variance_route(jump_d2, fix_a):
    # the limit equals -cov(Z_{t,i}, Z_{t,j} | Z_0 = e_k) of the
    # pure-branching companion process, here by quadrature of the
    # covariance formula
    for params in (fix_a, jump_d2):
        dq = moments.derive(params)
        t = 0.9
        d = params.d
        for k in range(d):
            V = variance_quad(dq.btilde, dq.big_c, np.eye(d)[k], t)
            for i in range(d):
                for j in range(d):
                    assert v_hessian_limit(params, t, i, j, k) == pytest.approx(
                        -V[i, j], rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("i,j,k", [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (2, 0, 0), (0, 2, 1),
                                   (1, 1, 2)])
def test_hessian_rejects_type_indices_outside_range(jump_d2, i, j, k):
    with pytest.raises(ValueError, match="type indices"):
        v_hessian_limit(jump_d2, 1.0, i, j, k)
    with pytest.raises(ValueError, match="type indices"):
        v_hessian_fd(jump_d2, 1.0, i, j, k)


def test_hessian_fd_matches_limit(fix_a):
    got = v_hessian_fd(fix_a, 1.0, 0, 0, 0, eps=1e-3)
    assert got == pytest.approx(-2.0, abs=1e-4)


def test_hessian_fd_matches_limit_d2(d2_critical):
    got = v_hessian_fd(d2_critical, 1.0, 0, 1, 0, eps=1e-3)
    assert got == pytest.approx(v_hessian_limit(d2_critical, 1.0, 0, 1, 0), abs=1e-4)


def test_laplace_moment_bridge(branching_jump):
    # -d/d eps log E[exp(-eps <lam, Z_t>) | Z_0 = e_k] -> <lam, E Z_t> as eps -> 0
    params = branching_jump
    t, lam = 0.8, np.array([1.3])
    ek = np.array([1.0])

    def probe(eps):
        h = 0.5 * eps
        lp = math.log(laplace_transform(params, t, ek, (eps + h) * lam,
                                        rtol=1e-12, atol=1e-14))
        lm = math.log(laplace_transform(params, t, ek, (eps - h) * lam,
                                        rtol=1e-12, atol=1e-14))
        return -(lp - lm) / (2 * h)

    est = 2.0 * probe(5e-5) - probe(1e-4)
    expected = float(lam @ moments.mean(params, ek, t))
    assert est == pytest.approx(expected, abs=1e-6)
