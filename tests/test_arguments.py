"""The argument rules of `moments`, read by every public function, and the
result rule at the ends of their domain.

A point (x, z, lam, x0) must have length d (else DimensionError) and
finite entries >= 0; a horizon t must be finite and >= 0; a scale n must
be an integer, not a bool, between 1 and the largest float. Each refusal
is a ValueError naming the argument. One table lists every function that
reads such an argument, with a call that takes it as v. The same tables,
fed huge and subnormal values inside the domain, must return finite
numbers or refuse with a documented error, never warn.
"""
import math
import re
import sys

import numpy as np
import pytest

from cbi import affine
from cbi.affine import (VSolution, laplace_transform, phi, psi, solve_v, v_hessian_fd,
                        v_hessian_limit, v_jacobian_fd, v_jacobian_limit)
from cbi.errors import (CbiError, ClassificationError, ConsistencyError, DimensionError,
                        NumericRangeError, SolverError)
from cbi.generators import (ConvergenceTable, discrete_gen_exp, discrete_gen_limit,
                            discrete_gen_table, drift_convergence_criterion,
                            exp_convergence_criterion, generator_apply, scaled_gen_apply,
                            scaled_gen_limit)
from cbi.model import CbiParams
from cbi.moments import mean, variance_no_immigration
from cbi.simulate import (PathConfig, SamplePath, simulate_cbi, simulate_limit_diffusion,
                          simulate_scaled_step)
from cbi.testfunctions import TestFunction, bump

from conftest import make_d2_critical, make_fix_a, make_jump_d2

#: critical and irreducible (the limit diffusion runs) and without
#: immigration (the variance is defined)
MODEL = CbiParams.no_jumps(c=[1.0, 1.0], beta=[0.0, 0.0], B=[[-1.0, 1.0], [1.0, -1.0]])
GOOD = [0.5, 1.0]
F = bump([0.5, 0.5], 3.0)


def _cfg(x0):
    return PathConfig(x0=x0, horizon=0.1, dt=0.05, seed=0, n_paths=2)


#: (function, argument as its messages name it, the call with that argument v)
POINTS = [
    ("mean", "x", lambda v: mean(MODEL, v, 1.0)),
    ("variance_no_immigration", "z", lambda v: variance_no_immigration(MODEL, v, 1.0)),
    ("phi", "lam", lambda v: phi(MODEL, v)),
    ("psi", "lam", lambda v: psi(MODEL, v)),
    ("solve_v", "lam", lambda v: solve_v(MODEL, 1.0, v)),
    ("laplace_transform", "x", lambda v: laplace_transform(MODEL, 1.0, v, GOOD)),
    ("laplace_transform", "lam", lambda v: laplace_transform(MODEL, 1.0, GOOD, v)),
    ("discrete_gen_exp", "x", lambda v: discrete_gen_exp(MODEL, 10, v, GOOD)),
    ("discrete_gen_exp", "lam", lambda v: discrete_gen_exp(MODEL, 10, GOOD, v)),
    ("discrete_gen_limit", "x", lambda v: discrete_gen_limit(MODEL, v, GOOD)),
    ("discrete_gen_limit", "lam", lambda v: discrete_gen_limit(MODEL, GOOD, v)),
    ("exp_convergence_criterion", "x", lambda v: exp_convergence_criterion(MODEL, v, GOOD)),
    ("exp_convergence_criterion", "lam", lambda v: exp_convergence_criterion(MODEL, GOOD, v)),
    ("discrete_gen_table", "x", lambda v: discrete_gen_table(MODEL, v, GOOD, (10, 100))),
    ("discrete_gen_table", "lam", lambda v: discrete_gen_table(MODEL, GOOD, v, (10, 100))),
    ("generator_apply", "x", lambda v: generator_apply(MODEL, F, v)),
    ("scaled_gen_apply", "x", lambda v: scaled_gen_apply(MODEL, 10, F, v)),
    ("scaled_gen_limit", "x", lambda v: scaled_gen_limit(MODEL, F, v)),
    ("drift_convergence_criterion", "x", lambda v: drift_convergence_criterion(MODEL, F, v)),
    ("simulate_cbi", "x0", lambda v: simulate_cbi(MODEL, _cfg(v))),
    ("simulate_scaled_step", "x0", lambda v: simulate_scaled_step(MODEL, 2, _cfg(v))),
    ("simulate_limit_diffusion", "x0", lambda v: simulate_limit_diffusion(MODEL, _cfg(v))),
]
HORIZONS = [
    ("mean", lambda t: mean(MODEL, GOOD, t)),
    ("variance_no_immigration", lambda t: variance_no_immigration(MODEL, GOOD, t)),
    ("solve_v", lambda t: solve_v(MODEL, t, GOOD)),
    ("laplace_transform", lambda t: laplace_transform(MODEL, t, GOOD, GOOD)),
    ("v_jacobian_limit", lambda t: v_jacobian_limit(MODEL, t)),
    ("v_jacobian_fd", lambda t: v_jacobian_fd(MODEL, t)),
    ("v_hessian_limit", lambda t: v_hessian_limit(MODEL, t, 0, 1, 0)),
    ("v_hessian_fd", lambda t: v_hessian_fd(MODEL, t, 0, 1, 0)),
]
SCALES = [
    ("discrete_gen_exp", lambda n: discrete_gen_exp(MODEL, n, GOOD, GOOD)),
    ("discrete_gen_table", lambda n: discrete_gen_table(MODEL, GOOD, GOOD, (1, n))),
    ("scaled_gen_apply", lambda n: scaled_gen_apply(MODEL, n, F, GOOD)),
    ("simulate_scaled_step", lambda n: simulate_scaled_step(MODEL, n, _cfg(GOOD))),
]

BAD_ENTRIES = {"negative": [-1.0, 1.0], "nan": [0.5, math.nan], "inf": [math.inf, 1.0]}
WRONG_LENGTHS = {"short": [0.5], "long": [0.5, 1.0, 0.5]}
BAD_HORIZONS = {"negative": -1.0, "nan": math.nan, "inf": math.inf}
BAD_SCALES = {"zero": 0, "fraction": 2.5, "bool": True, "beyond-float": 10**400}


def _table(rows, bad):
    """Each row's call with each bad value, the row's argument name first
    when it has one."""
    return [pytest.param(*row[1:], v, id="-".join((*row[:-1], kind)))
            for row in rows for kind, v in bad.items()]


@pytest.mark.parametrize("name,call,v", _table(POINTS, BAD_ENTRIES))
def test_point_outside_the_state_space_is_refused(name, call, v):
    with pytest.raises(ValueError, match=rf"^{name} must be a finite vector with entries >= 0"):
        call(v)


@pytest.mark.parametrize("name,call,v", _table(POINTS, WRONG_LENGTHS))
def test_point_of_the_wrong_length_is_a_dimension_error(name, call, v):
    with pytest.raises(DimensionError, match=rf"^{name} must have "):
        call(v)


@pytest.mark.parametrize("call,t", _table(HORIZONS, BAD_HORIZONS))
def test_horizon_that_is_not_finite_and_non_negative_is_refused(call, t):
    with pytest.raises(ValueError, match=r"^time must be finite and >= 0, got "):
        call(t)


@pytest.mark.parametrize("call,n", _table(SCALES, BAD_SCALES))
def test_scale_that_is_not_a_float_sized_positive_integer_is_refused(call, n):
    with pytest.raises(ValueError, match=r"^n must be a positive integer, got "):
        call(n)


def test_dimension_error_is_a_value_error_and_a_package_error():
    assert issubclass(DimensionError, ValueError) and issubclass(DimensionError, CbiError)


def test_calls_that_once_returned_numbers_are_refused():
    fix_a, d2 = make_fix_a(), make_d2_critical()
    pure = CbiParams.no_jumps(c=[1.0], beta=[0.0], B=[[0.0]])
    cases = [
        ("x must", lambda: laplace_transform(fix_a, 1, [-5], [1])),  # returned 6.09
        ("x must", lambda: mean(fix_a, [math.nan], 1)),  # returned [nan]
        ("z must", lambda: variance_no_immigration(pure, [-2], 1)),  # returned [[-4]]
        ("time must", lambda: v_jacobian_limit(fix_a, -1)),  # returned exp(-btilde)
        ("time must", lambda: mean(fix_a, [1], math.nan)),  # a NumericRangeError
        # ran n = 10
        ("n must", lambda: discrete_gen_table(d2, [0.5, 1.0], [1.0, 1.5], (10.5, 100))),
        ("n must", lambda: discrete_gen_exp(fix_a, 10**400, [1.0], [1.0])),  # an OverflowError
        ("center must", lambda: bump([math.inf], 1)),  # built the zero function
    ]
    for message, call in cases:
        with pytest.raises(ValueError, match=f"^{message} "):
            call()


def test_bump_at_a_point_of_the_wrong_length_is_a_dimension_error():
    with pytest.raises(DimensionError, match=r"^point has shape \(1,\); the bump's center"):
        bump([0.0, 0.0], 1.0).value([0.5])


#: irreducible and without immigration as MODEL, but supercritical:
#: exp(btilde) has spectral radius e^2, so its mean overflows from a huge start
SUPERCRITICAL = CbiParams.no_jumps(c=[1.0, 1.0], beta=[0.0, 0.0], B=[[1.0, 1.0], [1.0, 1.0]])
#: in-domain values at the ends of the float range: huge, where products,
#: squares and sums overflow, and subnormal
EXTREME_POINTS = {"1e154": [1e154, 1e154], "1e300": [1e300, 0.5], "1e308": [1e308, 1e308],
                  "subnormal": [5e-324, 1.0]}
EXTREME_HORIZONS = {"1e154": 1e154, "1e300": 1e300, "1e308": 1e308, "subnormal": 5e-324}
EXTREME_SCALES = {"1e154": 10**154, "2**1023": 2**1023,
                  "largest-float": int(sys.float_info.max)}


def _numbers(result):
    """Every float a public result holds, as one flat list."""
    if isinstance(result, (list, tuple)):
        return [e for r in result for e in _numbers(r)]
    if isinstance(result, (ConvergenceTable, VSolution, SamplePath)):
        return _numbers([v for v in vars(result).values() if not isinstance(v, (str, dict))])
    if isinstance(result, (bool, np.bool_)) or result is None:
        return []
    return np.ravel(np.asarray(result, dtype=float)).tolist()


@pytest.fixture(params=["critical", "supercritical"])
def model(request, monkeypatch):
    """The tables' calls read MODEL when they run: swap in each model. A
    Riccati solve to a huge horizon stops at MAX_STEPS, after seconds at
    the default cap: a lower cap stops it sooner."""
    monkeypatch.setattr(affine, "MAX_STEPS", 1000)
    if request.param == "supercritical":
        monkeypatch.setitem(globals(), "MODEL", SUPERCRITICAL)
    return request.param


@pytest.mark.parametrize("name,call,v", _table(POINTS, EXTREME_POINTS)
                         + [pytest.param(None, *p.values, id=p.id)
                            for p in _table(HORIZONS, EXTREME_HORIZONS)
                            + _table(SCALES, EXTREME_SCALES)])
def test_in_domain_extremes_return_finite_numbers_or_a_documented_refusal(model, name, call, v):
    """A NumericRangeError or SolverError exits 3, a ValueError 64; the
    RuntimeWarning filter of pyproject.toml turns a numpy warning into a
    failure. Only the limit diffusion refuses the supercritical model."""
    try:
        result = call(v)
    except (NumericRangeError, SolverError, ValueError):
        return
    except ClassificationError:
        assert model == "supercritical" and name == "x0"
        return
    assert all(math.isfinite(e) for e in _numbers(result))


FAR = bump([1e308, 1e308], 1.0)  # nonzero curvature at a huge x
#: (the result as its message names it, a call that overflows it); each
#: warned and returned a non-finite number or a wrong verdict, or let the
#: kernel refuse its first step
OVERFLOWS = [
    ("mean", lambda: mean(CbiParams.no_jumps(c=[1.0], beta=[1.0], B=[[1.0]]), [1e308], 1.0)),
    ("phi(lam)", lambda: phi(make_fix_a(), [1e300])),
    ("variance", lambda: variance_no_immigration(
        CbiParams.no_jumps(c=[1.0], beta=[0.0], B=[[0.0]]), [1e308], 1)),
    ("n x", lambda: scaled_gen_apply(make_fix_a(), 10, bump([0], 1), [1e308])),
    ("generator", lambda: generator_apply(make_jump_d2(), FAR, [1e308, 1e308])),
    ("scaled-generator limit", lambda: scaled_gen_limit(make_jump_d2(), FAR, [1e308, 1e308])),
    ("<btilde x, grad f(x)>", lambda: drift_convergence_criterion(
        SUPERCRITICAL, F, [1e308, 1e308])),
    ("start n * x0", lambda: simulate_scaled_step(make_fix_a(), 2, _cfg([1e308]))),
    ("start <u_left, x0>", lambda: simulate_limit_diffusion(make_d2_critical(),
                                                            _cfg([1e308, 1e308]))),
]


@pytest.mark.parametrize("what,call", [pytest.param(*case, id=case[0]) for case in OVERFLOWS])
def test_result_beyond_the_float_range_is_refused(what, call):
    with pytest.raises(NumericRangeError,
                       match=f"^{re.escape(what)} overflowed the floating-point range$"):
        call()


def test_psi_is_finite_where_phi_overflows():
    # psi(lam) = <beta, lam> here; it once warned of phi's overflow
    assert psi(make_fix_a(), [1e300]) == 1e300


def test_generator_forms_that_are_nan_are_refused():
    nan_curvature = TestFunction(value=lambda x: 0.0, gradient=lambda x: np.zeros(1),
                                 hessian=lambda x: np.full((1, 1), math.nan))
    with pytest.raises(ConsistencyError, match="^generator forms disagree: nan vs nan$"):
        generator_apply(make_fix_a(), nan_curvature, [1.0])  # returned nan
