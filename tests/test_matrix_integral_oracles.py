"""The four block-exponential matrix integrals of production (the mean, the
pure-branching covariance, the lambda -> 0 Hessian of v and the corrected
discrete-generator limit) against adaptive quadrature of the formulas their
modules state, on every fixture plus a stiff and a supercritical btilde."""
import numpy as np
import pytest

from cbi.affine import v_hessian_limit
from cbi.generators import discrete_gen_limit
from cbi.model import CbiParams, JumpMeasure
from cbi.moments import SUPERCRITICAL, derive, mean, variance_no_immigration

from conftest import ALL_FIXTURES, assert_close
from ref_oracles import (discrete_gen_limit_quad, hessian_limit_quad, mean_quad,
                     variance_quad)

#: Relative to the largest entry of the oracle value.
REL_TOL = 1e-12


def make_stiff() -> CbiParams:
    """btilde with eigenvalues about -40.05 and -0.95."""
    return CbiParams.no_jumps(c=[1.0, 0.5], beta=[0.3, 0.2],
                              B=[[-40.0, 1.0], [2.0, -1.0]])


def make_supercritical() -> CbiParams:
    """Supercritical btilde (abscissa about 0.63) with a branching atom."""
    return CbiParams(d=2, c=[0.5, 1.0], beta=[0.2, 0.4], B=[[0.3, 0.5], [0.2, 0.1]],
                     mu=(JumpMeasure.from_atoms([(0.3, [0.5, 0.4])]), JumpMeasure.empty(2)))


CASES = [(name, make, t) for name, make in ALL_FIXTURES.items() for t in (0.0, 1.0)]
CASES += [("stiff", make_stiff, 2.0), ("supercritical", make_supercritical, 3.0)]
IDS = [f"{name}-t{t:g}" for name, _, t in CASES]


def _check(got, oracle, what):
    assert_close(got, oracle, REL_TOL * float(np.max(np.abs(oracle))), what)


def test_extra_cases_are_what_they_claim():
    assert min(np.linalg.eigvals(derive(make_stiff()).btilde).real) < -40.0
    assert derive(make_supercritical()).classification == SUPERCRITICAL


@pytest.mark.parametrize("name,make,t", CASES, ids=IDS)
def test_mean_matches_quadrature(name, make, t):
    dq = derive(make())
    x = np.linspace(1.0, 0.5, dq.params.d)
    _check(mean(dq, x, t), mean_quad(dq.btilde, dq.beta_tilde, x, t), "mean")


@pytest.mark.parametrize("name,make,t", CASES, ids=IDS)
def test_variance_matches_quadrature(name, make, t):
    dq = derive(make().without_immigration())
    z = np.linspace(1.0, 0.5, dq.params.d)
    _check(variance_no_immigration(dq, z, t), variance_quad(dq.btilde, dq.big_c, z, t),
           "variance")


@pytest.mark.parametrize("name,make,t", CASES, ids=IDS)
def test_hessian_limit_matches_quadrature(name, make, t):
    dq = derive(make())
    d = dq.params.d
    oracle = hessian_limit_quad(dq.btilde, dq.big_c, t)
    got = np.array([[[v_hessian_limit(dq, t, i, j, k) for k in range(d)]
                     for j in range(d)] for i in range(d)])
    _check(got, oracle, "Hessian limit")


@pytest.mark.parametrize("name,make", [(name, make) for name, make, t in CASES if t != 0.0])
def test_discrete_gen_limit_matches_quadrature(name, make):
    dq = derive(make())
    x = np.linspace(2.0, 0.5, dq.params.d)
    lam = np.linspace(1.0, 0.3, dq.params.d)
    oracle = discrete_gen_limit_quad(dq.btilde, dq.beta_tilde, dq.big_c, x, lam)
    _check(discrete_gen_limit(dq, x, lam), oracle, "discrete-generator limit")
