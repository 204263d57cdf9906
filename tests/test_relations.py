"""Metamorphic relations of the CBI law: a model against a transformed copy
of itself, checked by two runs of the same code with no second formula.

Scaling time by s: multiplying c, beta, B and every jump weight by s
multiplies phi and psi by s, so v_s(t, lam) = v(s t, lam) and the law of
the scaled model at t is the original's at s t. At s = 4 the Euler kernel
on the grid horizon / 4, dt / 4 draws the same streams and does the same
arithmetic up to factors of 4 and sqrt(4) = 2, which are exact: its states
are bit-identical and its jump logs equal, with every time divided by 4.
The Riccati solve of the scaled model to t / 4 agrees to rounding.
"""
import numpy as np
import pytest

from cbi.affine import laplace_transform, solve_v
from cbi.model import CbiParams, JumpMeasure
from cbi.simulate import PathConfig, simulate_cbi

from conftest import ALL_FIXTURES, make_many_atoms

MODELS = {**ALL_FIXTURES, "many_atoms": make_many_atoms}
S = 4.0


def _time_scaled(params: CbiParams, s: float) -> CbiParams:
    """params with c, beta, B and every jump weight multiplied by s."""
    def scaled(m: JumpMeasure) -> JumpMeasure:
        return JumpMeasure(s * m.weights, m.points)

    return CbiParams(d=params.d, c=s * params.c, beta=s * params.beta, B=s * params.B,
                     nu=scaled(params.nu), mu=tuple(scaled(m) for m in params.mu))


@pytest.mark.parametrize("name", MODELS)
def test_time_scaling_is_bit_exact_in_the_euler_kernel(name):
    params = MODELS[name]()
    x0 = [1.0, 0.5, 0.25][:params.d]
    cfg = PathConfig(x0=x0, horizon=1.0, dt=0.01, seed=3, n_paths=50)
    fast = PathConfig(x0=x0, horizon=cfg.horizon / S, dt=cfg.dt / S, seed=3, n_paths=50)
    paths, fast_paths = simulate_cbi(params, cfg), simulate_cbi(_time_scaled(params, S), fast)
    assert len(fast_paths) == len(paths)
    for p, q in zip(paths, fast_paths):
        assert q.times.tobytes() == (p.times / S).tobytes()
        assert q.states.tobytes() == p.states.tobytes()
        assert len(q.jump_log) == len(p.jump_log)
        for (tq, source_q, zq), (tp, source_p, zp) in zip(q.jump_log, p.jump_log):
            assert (tq, source_q) == (tp / S, source_p) and np.array_equal(zq, zp)


@pytest.mark.parametrize("name", MODELS)
def test_time_scaling_of_the_riccati_solve(name):
    params = MODELS[name]()
    d, t = params.d, 1.0
    x, lam = np.array([1.0, 0.5, 0.25][:d]), np.array([0.7, 1.2, 0.4][:d])
    scaled = _time_scaled(params, S)
    v, v_fast = solve_v(params, t, lam).v_final, solve_v(scaled, t / S, lam).v_final
    assert np.max(np.abs(v_fast - v) / v) <= 1e-12
    assert laplace_transform(scaled, t / S, x, lam) == pytest.approx(
        laplace_transform(params, t, x, lam), rel=1e-13, abs=0.0)
