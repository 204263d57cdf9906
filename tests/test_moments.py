import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from cbi import matops
from cbi.errors import CbiError, InadmissibleError
from cbi.model import CbiParams, JumpMeasure
from cbi.moments import (CRITICAL, NOT_IRREDUCIBLE, SUBCRITICAL, SUPERCRITICAL,
                         derive, mean, variance_no_immigration)

from conftest import ALL_FIXTURES, assert_close, make_d2_critical, make_fix_a, make_jump_d2


def test_derive_without_jumps_reduces_to_inputs(d2_critical):
    dq = derive(d2_critical)
    assert_close(dq.btilde, d2_critical.B, 0.0)
    assert_close(dq.beta_tilde, d2_critical.beta, 0.0)
    assert_close(dq.big_c[0], [[2.0, 0.0], [0.0, 0.0]], 0.0)
    assert_close(dq.big_c[1], [[0.0, 0.0], [0.0, 2.0]], 0.0)


def test_derive_single_atom_shifts_to_critical():
    params = CbiParams(d=1, c=[0.0], beta=[0.0], B=[[-1.0]],
                       mu=(JumpMeasure.from_atoms([(1.0, [2.0])]),))
    dq = derive(params)
    assert dq.btilde[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert dq.classification == CRITICAL


def test_derive_d2_critical_fixture(d2_critical):
    dq = derive(d2_critical)
    assert dq.classification == CRITICAL
    assert_close(dq.cbar, np.eye(2), 1e-12)
    assert_close(dq.perron.u_right, [0.5, 0.5], 1e-12)
    assert_close(dq.perron.u_left, [1.0, 1.0], 1e-12)


def test_derive_btilde_beta_tilde_with_atoms(jump_d2, jump_d3, many_atoms):
    def atoms(m):
        return zip(m.weights, m.points)

    # manual single-entry checks against the defining sums
    for params in (jump_d2, jump_d3, many_atoms):
        dq = derive(params)
        d = params.d
        for i in range(d):
            for j in range(d):
                expected = params.B[i, j] + sum(
                    w * max(z[i] - (1.0 if i == j else 0.0), 0.0)
                    for w, z in atoms(params.mu[j]))
                assert dq.btilde[i, j] == pytest.approx(expected, rel=1e-14, abs=0.0)
        expected_beta = params.beta + sum(w * z for w, z in atoms(params.nu))
        assert_close(dq.beta_tilde, expected_beta, 1e-14)
        expected_kappa = [sum(w * min(1.0, z[i]) for w, z in atoms(params.mu[i]))
                          for i in range(d)]
        assert_close(dq.drift_table,
                     np.vstack([params.B.T - np.diag(expected_kappa), params.beta]), 1e-15)
        for k in range(d):
            expected_c = 2.0 * params.c[k] * np.outer(np.eye(d)[k], np.eye(d)[k]) + sum(
                w * np.outer(z, z) for w, z in atoms(params.mu[k]))
            assert_close(dq.big_c[k], expected_c, 1e-14)
            # symmetric positive semidefinite
            assert_close(dq.big_c[k], dq.big_c[k].T, 0.0)
            assert np.min(np.linalg.eigvalsh(dq.big_c[k])) >= -1e-12


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_drift_table_row_is_the_compensated_drift(name):
    # (x, 1) M = beta + B x - x kappa, with kappa_i = int (1 ^ z_i) mu_i(dz)
    # summed from the raw atoms, not read from derive
    params = ALL_FIXTURES[name]()
    d = params.d
    kappa = np.array([sum(w * min(1.0, z[i]) for w, z in zip(m.weights, m.points))
                      for i, m in enumerate(params.mu)])
    M = derive(params).drift_table
    assert M.shape == (d + 1, d)
    for x in (np.zeros(d), np.linspace(0.5, 2.0, d), np.full(d, 7.0)):
        assert_close(np.append(x, 1.0) @ M, params.beta + params.B @ x - x * kappa, 1e-14,
                     f"{name} at x={x.tolist()}")


def test_atom_table_layout(jump_d3, d2_critical):
    # mu_1, ..., mu_d's atoms, then nu's, each in order; row i of the weights
    # holds measure i's weights in its own columns and 0 in every other
    dq = derive(jump_d3)
    d = jump_d3.d
    measures = (*jump_d3.mu, jump_d3.nu)
    assert np.array_equal(dq.atom_points, np.concatenate([m.points for m in measures]))
    assert dq.atom_weights.shape == (d + 1, len(dq.atom_points))
    start = 0
    for i, m in enumerate(measures):
        cols = slice(start, start + len(m.weights))
        assert np.array_equal(dq.atom_weights[i, cols], m.weights)
        assert not np.any(np.delete(dq.atom_weights, i, axis=0)[:, cols])
        start = cols.stop
    assert start == len(dq.atom_points)
    # a jump-free model has an empty table
    empty = derive(d2_critical)
    assert empty.atom_points.shape == (0, 2) and empty.atom_weights.shape == (3, 0)


def test_classification_branches():
    # only a critical irreducible model carries a Perron pair
    sub = CbiParams.no_jumps(c=[1.0], beta=[0.0], B=[[-0.3]])
    assert derive(sub).classification == SUBCRITICAL
    assert derive(sub).perron is None
    sup = CbiParams.no_jumps(c=[1.0], beta=[0.0], B=[[0.3]])
    assert derive(sup).classification == SUPERCRITICAL
    assert derive(sup).perron is None
    red = CbiParams.no_jumps(c=[1.0, 1.0], beta=[0.0, 0.0],
                             B=[[0.0, 1.0], [0.0, 0.0]])
    dq = derive(red)
    assert dq.classification == NOT_IRREDUCIBLE
    assert dq.cbar is None and dq.perron is None


def test_classification_ignores_immigration(jump_mixed):
    base = derive(jump_mixed)
    stripped = jump_mixed.without_immigration()
    assert derive(stripped).classification == base.classification
    moved = CbiParams(d=1, c=jump_mixed.c, beta=[9.0], B=jump_mixed.B,
                      nu=JumpMeasure.from_atoms([(3.0, [5.0])]), mu=jump_mixed.mu)
    assert derive(moved).classification == base.classification


def test_derive_rejects_inadmissible():
    bad = CbiParams.no_jumps(c=[-1.0], beta=[0.0], B=[[0.0]])
    with pytest.raises(ValueError, match="inadmissible") as info:
        derive(bad)
    assert isinstance(info.value, InadmissibleError) and isinstance(info.value, CbiError)
    assert info.value.violations == ["c must be componentwise >= 0"]


def test_derive_returns_read_only_model(d2_critical, jump_d3):
    dq = derive(d2_critical)
    assert derive(dq) is dq
    assert dq.params is d2_critical
    jumps = derive(jump_d3)
    arrays = [dq.btilde, dq.beta_tilde, dq.drift_table, dq.cbar, *dq.big_c,
              dq.perron.u_right, dq.perron.u_left, jumps.atom_points, jumps.atom_weights]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_mean_at_zero_and_scalar_drift(fix_a):
    assert_close(mean(fix_a, [2.0], 0.0), [2.0], 0.0)
    assert mean(fix_a, [2.0], 3.0)[0] == pytest.approx(5.0, rel=1e-12, abs=0.0)


def test_mean_rejects_negative_time(fix_a):
    with pytest.raises(ValueError):
        mean(fix_a, [1.0], -0.5)


def test_mean_d2_against_quadrature_oracle(d2_critical):
    x = np.array([1.0, 0.0])
    got = mean(d2_critical, x, 1.0)
    e2 = math.exp(-2.0)
    first = 0.5 * np.array([1 + e2, 1 - e2])
    # integral term via scipy.integrad.quad, componentwise
    def comp(i):
        return scipy.integrate.quad(
            lambda u: (matops.mat_exp(d2_critical.B, u) @ d2_critical.beta)[i],
            0.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
    expected = first + np.array([comp(0), comp(1)])
    assert_close(got, expected, 1e-10, "mean vs quad oracle")


@settings(max_examples=25, deadline=None)
@given(x1=st.lists(st.floats(0.0, 5.0), min_size=2, max_size=2),
       x2=st.lists(st.floats(0.0, 5.0), min_size=2, max_size=2),
       t=st.floats(0.1, 2.0))
def test_mean_is_affine_in_x(x1, x2, t):
    params = make_d2_critical()
    m0 = mean(params, [0.0, 0.0], t)
    m1 = mean(params, x1, t)
    m2 = mean(params, x2, t)
    m12 = mean(params, np.add(x1, x2), t)
    assert_close(m12 - m0, (m1 - m0) + (m2 - m0), 1e-9, "affine in x")


def test_variance_zero_start_is_zero():
    params = CbiParams.no_jumps(c=[1.0], beta=[0.0], B=[[0.0]])
    assert_close(variance_no_immigration(params, [0.0], 1.0), [[0.0]], 1e-14)


def test_variance_scalar_closed_forms():
    params = CbiParams.no_jumps(c=[1.0], beta=[0.0], B=[[0.0]])
    assert variance_no_immigration(params, [1.0], 1.0)[0, 0] == pytest.approx(2.0, rel=1e-12, abs=0.0)
    assert variance_no_immigration(params, [3.0], 2.0)[0, 0] == pytest.approx(12.0, rel=1e-12, abs=0.0)


def test_variance_rejects_immigration(fix_a):
    with pytest.raises(ValueError, match="beta = 0"):
        variance_no_immigration(fix_a, [1.0], 1.0)


def test_variance_linear_in_z_and_psd(branching_jump):
    t = 0.7
    v1 = variance_no_immigration(branching_jump, [1.0], t)
    v3 = variance_no_immigration(branching_jump, [3.0], t)
    assert_close(v3, 3.0 * v1, 1e-10, "linear in z")
    assert np.min(np.linalg.eigvalsh(v1)) >= -1e-12


def test_variance_d2_symmetric_psd(jump_d2):
    pure = jump_d2.without_immigration()
    V = variance_no_immigration(pure, [0.5, 1.5], 1.2)
    assert_close(V, V.T, 1e-12)
    assert np.min(np.linalg.eigvalsh(V)) >= -1e-10
