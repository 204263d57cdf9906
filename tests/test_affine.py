import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbi import affine, moments
from cbi.affine import (MIN_RTOL, laplace_transform, phi, psi, solve_v, v_hessian_fd,
                        v_hessian_limit, v_jacobian_fd, v_jacobian_limit)
from cbi.errors import SolverError
from cbi.model import CbiParams, JumpMeasure

from conftest import assert_close, make_jump_d2, make_jump_mixed
from ref_oracles import phi_loops, psi_compensated, psi_loops, v_with_psi_state, variance_quad


# --- phi / psi -------------------------------------------------------------

def test_phi_vanishes_at_zero(jump_d2):
    assert_close(phi(jump_d2, [0.0, 0.0]), [0.0, 0.0], 1e-15)


def test_phi_pure_diffusion(fix_a):
    assert phi(fix_a, [3.0])[0] == pytest.approx(9.0, abs=1e-14)


def test_phi_single_atom():
    params = CbiParams(d=1, c=[0.0], beta=[0.0], B=[[0.0]],
                       mu=(JumpMeasure.from_atoms([(1.0, [2.0])]),))
    assert phi(params, [1.0])[0] == pytest.approx(math.exp(-2.0), rel=1e-14, abs=0.0)


def test_phi_matches_loop_oracle(jump_d2, jump_d3):
    for lam in ([0.3, 1.2], [2.0, 0.0], [5.0, 5.0]):
        assert_close(phi(jump_d2, lam), phi_loops(jump_d2, lam), 1e-13)
    for lam in ([0.3, 1.2, 0.7], [2.0, 0.0, 0.4], [5.0, 5.0, 5.0]):
        assert_close(phi(jump_d3, lam), phi_loops(jump_d3, lam), 1e-13)


def test_psi_matches_loop_oracle(jump_mixed, jump_d2, jump_d3):
    for params in (jump_mixed, jump_d2, jump_d3):
        for scale in (0.1, 1.0, 4.0):
            lam = scale * np.linspace(1.0, 0.5, params.d)
            assert psi(params, lam) == pytest.approx(psi_loops(params, lam), abs=1e-13)


@pytest.mark.parametrize("mechanism", [phi, psi])
@pytest.mark.parametrize("lam", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0], [3.0, 4.0]]],
                         ids=["short", "long", "2-D"])
def test_mechanisms_check_lam_length(jump_d2, mechanism, lam):
    # a point of the wrong shape is named, not left to a matmul error
    with pytest.raises(ValueError, match=r"lam must have length d=2, got shape "
                                         + re.escape(str(np.shape(lam)))):
        mechanism(jump_d2, lam)


def test_psi_linear_without_atoms(fix_a):
    assert psi(fix_a, [2.0]) == pytest.approx(2.0, abs=1e-15)


def test_psi_single_atom():
    params = CbiParams(d=1, c=[0.0], beta=[0.0], B=[[0.0]],
                       nu=JumpMeasure.from_atoms([(1.0, [1.0])]))
    assert psi(params, [1.0]) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14, abs=0.0)


def test_psi_two_forms_agree(jump_mixed, jump_d2, jump_d3):
    for params in (jump_mixed, jump_d2, jump_d3):
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


# --- solve_v ---------------------------------------------------------------

def test_solve_v_zero_lambda(jump_d2):
    sol = solve_v(jump_d2, 1.0, [0.0, 0.0])
    assert_close(sol.v_final, [0.0, 0.0], 1e-13)
    assert sol.psi_integral == pytest.approx(0.0, abs=1e-13)


def test_solve_v_initial_condition_exact(fix_a):
    assert solve_v(fix_a, 0.0, [1.7]).v_final[0] == 1.7


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


def test_solve_v_t_zero_is_lam_on_the_path_of_every_t(jump_d2, monkeypatch):
    # t = 0 assembles its VSolution where every t does, with no solver step
    def no_solve(*args):
        raise AssertionError("_dormand_prince called at t = 0")

    monkeypatch.setattr(affine, "_dormand_prince", no_solve)
    lam = np.array([0.7, 1.2])
    for block in (lam, np.stack([lam, 3.0 * lam], axis=1)):
        sol = solve_v(jump_d2, 0.0, block)
        zero = 0.0 if block.ndim == 1 else np.zeros(2)
        assert np.array_equal(sol.v_final, block) and sol.v_final.shape == block.shape
        assert not np.shares_memory(sol.v_final, block)
        assert type(sol.psi_integral) is type(zero) and np.array_equal(sol.psi_integral, zero)
        stats = sol.solver_stats
        assert (stats["steps"], stats["nfev"], stats["rejected"]) == (0, 0, 0)
        assert type(stats["clip_total"]) is type(zero)
        assert np.array_equal(stats["clip_total"], zero)


def test_solve_v_t_zero_clips_a_negative_zero(fix_a):
    # v_final at t = 0 passes the clip of every t, so -0.0 reads 0.0
    assert not np.signbit(solve_v(fix_a, 0.0, [-0.0]).v_final).any()


def test_solve_v_rejects_bad_input(fix_a):
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            solve_v(fix_a, t, [1.0])
    with pytest.raises(ValueError):
        solve_v(fix_a, 1.0, [-0.5])
    with pytest.raises(ValueError):
        solve_v(fix_a, 1.0, [1.0], tol=-1e-10)
    # below 100 eps the stepper would shrink its step under the float spacing
    with pytest.raises(ValueError, match="floor"):
        solve_v(fix_a, 1.0, [1.0], tol=0.5 * MIN_RTOL)
    assert solve_v(fix_a, 1.0, [1.0], tol=MIN_RTOL).v_final[0] \
        == pytest.approx(0.5, rel=1e-13, abs=0.0)


def test_solve_v_refuses_undershoot_beyond_clip_budget(monkeypatch):
    # the 1-d logistic's 203-step solve to t = 1e3 at lam = 1 clips 8.19e-11
    # of negative undershoot in all: within the default budget, beyond 1e-11
    logistic = CbiParams.no_jumps(c=[1.0], beta=[1.0], B=[[-1.0]])
    assert solve_v(logistic, 1e3, [1.0]).solver_stats["clip_total"] > 1e-11
    monkeypatch.setattr(affine, "CLIP_BUDGET", 1e-11)
    with pytest.raises(SolverError, match=re.escape(
            "negative undershoot 8.192e-11 exceeds clip budget 1.0e-11")):
        solve_v(logistic, 1e3, [1.0])


def test_solve_v_refuses_undershoot_beyond_the_default_clip_budget():
    # the same logistic's solve to t = 1e5 clips 8.92e-9, within the default
    # 1e-8; to t = 1.2e5 it clips past it, and the message names the budget
    logistic = CbiParams.no_jumps(c=[1.0], beta=[1.0], B=[[-1.0]])
    with pytest.raises(SolverError, match=re.escape(
            "negative undershoot 1.071e-08 exceeds clip budget 1.0e-08")):
        solve_v(logistic, 1.2e5, [1.0])


def test_solve_v_refuses_a_step_below_the_float_spacing():
    # v' = v from lam = 1 is e^t: at t = 700 it is 1.01e304, and on the way
    # to t = 710 the step control asks for a step below the spacing of t;
    # the message names where the solve stopped and how far v had grown
    growth = CbiParams.no_jumps(c=[0.0], beta=[0.0], B=[[1.0]])
    assert solve_v(growth, 700.0, [1.0]).v_final[0] == pytest.approx(math.exp(700.0), rel=1e-7)
    with pytest.raises(SolverError, match="^" + re.escape(
            "Riccati solve failed: required step size is less than the spacing of "
            "floating-point numbers at t = 706.195 of 710, where v's largest entry is "
            "4.97431e+306") + "$"):
        solve_v(growth, 710.0, [1.0])


def test_solve_v_nonnegative_at_every_horizon(jump_d2):
    for s in np.linspace(0.0, 2.0, 37):
        sol = solve_v(jump_d2, s, [3.0, 0.5])
        assert np.all(sol.v_final >= 0.0)
        assert sol.solver_stats["clip_total"] <= 1e-8


def test_solve_v_monotone_in_lambda(jump_d2):
    for s in np.linspace(0.0, 1.5, 7):
        hi = solve_v(jump_d2, s, [2.0, 1.0]).v_final
        lo = solve_v(jump_d2, s, [1.0, 0.5]).v_final
        assert np.all(lo <= hi + 1e-12)


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
    assert got == pytest.approx(math.log1p(lam * t), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("t", [1e2, 1e4, 1e6, 1e8, 1e10, 1e12, 1e20])
def test_psi_integral_far_horizon_closed_form(fix_a, t):
    # far past the time scale v is below atol / rtol: the psi-integral is
    # held to the tolerance only because it is a state of the solve. With
    # v = 1 / (1 + t), the transform's relative error is about the
    # psi-integral's absolute error, so 1e-8 on the transform asks for the
    # psi-integral within 1e-8 / log(1 + t) relative
    sol = solve_v(fix_a, t, [1.0])
    assert sol.psi_integral == pytest.approx(math.log1p(t), rel=1e-8, abs=0.0)
    assert sol.solver_stats["steps"] < 2000
    got = laplace_transform(fix_a, t, [1.0], [1.0])
    assert got == pytest.approx(math.exp(-1.0 / (1.0 + t)) / (1.0 + t), rel=1e-8, abs=0.0)


@pytest.mark.parametrize("t", [10.0, 50.0])
def test_psi_integral_long_horizon_augmented_oracle(jump_d2, t):
    lam = [40.0, 40.0]
    _, integral = v_with_psi_state(jump_d2, t, lam)
    assert solve_v(jump_d2, t, lam).psi_integral == pytest.approx(integral, rel=1e-9, abs=0.0)


# --- Laplace transform -----------------------------------------------------

def test_laplace_is_one_at_zero(jump_d2):
    assert laplace_transform(jump_d2, 1.0, [1.0, 2.0], [0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_laplace_at_time_zero(jump_mixed):
    assert laplace_transform(jump_mixed, 0.0, [2.0], [1.5]) == pytest.approx(
        math.exp(-3.0), rel=1e-12, abs=0.0)


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
        J = v_jacobian_fd(params, 1.0)
        assert_close(J, v_jacobian_limit(params, 1.0), 1e-5, "FD Jacobian")


def test_jacobian_orientation_on_asymmetric_linear_case():
    # c = 0, no jumps: v(t, lam) = exp(t B^T) lam, so the probe recovers
    # exp(t B) in the [derivative index, component index] orientation.
    params = CbiParams.no_jumps(c=[0.0, 0.0], beta=[0.0, 0.0],
                                B=[[-2.0, 2.0], [1.0, -1.0]])
    J = v_jacobian_fd(params, 1.0)
    assert_close(J, v_jacobian_limit(params, 1.0), 1e-7, "orientation")


def test_hessian_limit_zero_without_branching():
    params = CbiParams.no_jumps(c=[0.0, 0.0], beta=[0.5, 0.0],
                                B=[[-1.0, 1.0], [1.0, -1.0]])
    for i, j, k in ((0, 0, 0), (0, 1, 1), (1, 1, 0)):
        assert v_hessian_limit(params, 1.0, i, j, k) == pytest.approx(0.0, abs=1e-14)


def test_hessian_limit_fix_a(fix_a):
    assert v_hessian_limit(fix_a, 1.0, 0, 0, 0) == pytest.approx(-2.0, rel=1e-12, abs=0.0)


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
                                   (1, 1, 2),
                                   # not integers: numpy would index by 0.5 or by a bool
                                   (0.5, 0, 0), (True, 0, 0), (0, np.float64(1.0), 0)])
def test_hessian_rejects_type_indices_outside_range(jump_d2, i, j, k):
    with pytest.raises(ValueError, match="type indices"):
        v_hessian_limit(jump_d2, 1.0, i, j, k)
    with pytest.raises(ValueError, match="type indices"):
        v_hessian_fd(jump_d2, 1.0, i, j, k)


def test_hessian_fd_matches_limit(fix_a):
    got = v_hessian_fd(fix_a, 1.0, 0, 0, 0)
    assert got == pytest.approx(-2.0, abs=1e-4)


def test_hessian_fd_matches_limit_d2(d2_critical):
    got = v_hessian_fd(d2_critical, 1.0, 0, 1, 0)
    assert got == pytest.approx(v_hessian_limit(d2_critical, 1.0, 0, 1, 0), abs=1e-4)


def test_laplace_moment_bridge(branching_jump):
    # -d/d eps log E[exp(-eps <lam, Z_t>) | Z_0 = e_k] -> <lam, E Z_t> as eps -> 0
    params = branching_jump
    t, lam = 0.8, np.array([1.3])
    ek = np.array([1.0])

    def probe(eps):
        h = 0.5 * eps
        lp = math.log(laplace_transform(params, t, ek, (eps + h) * lam, tol=1e-12))
        lm = math.log(laplace_transform(params, t, ek, (eps - h) * lam, tol=1e-12))
        return -(lp - lm) / (2 * h)

    est = 2.0 * probe(5e-5) - probe(1e-4)
    expected = float(lam @ moments.mean(params, ek, t))
    assert est == pytest.approx(expected, abs=1e-6)
