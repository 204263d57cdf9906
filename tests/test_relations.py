"""Metamorphic relations of the CBI law: a model against a transformed copy
of itself, checked by two runs of the same code with no second formula.

Scaling time by s: multiplying c, beta, B and every jump weight by s
multiplies phi and psi by s, so v_s(t, lam) = v(s t, lam) and the law of
the scaled model at t is the original's at s t. At s = 4 the Euler kernel
on the grid horizon / 4, dt / 4 draws the same streams and does the same
arithmetic up to factors of 4 and sqrt(4) = 2, which are exact: its states
are bit-identical and its jump logs equal, with every time divided by 4.
The Riccati solve of the scaled model to t / 4 agrees to rounding.

Relabelling types by a permutation p: c, beta, B's rows and columns, the
mu_i and every atom's coordinates permuted by p give the law of X with
its coordinates permuted, so derive's arrays permute, the mean, the
transform and the generators at the permuted point (and bump centre) agree,
and the classification is unchanged.

Splitting atoms: each atom (w, z) of a jump measure as two atoms (w/2, z)
is the same measure, so derive's btilde, beta_tilde, C_k and drift table
and the transform agree to rounding.
"""
import numpy as np
import pytest

from cbi.affine import laplace_transform, solve_v
from cbi.generators import discrete_gen_limit, generator_apply
from cbi.model import CbiParams, JumpMeasure
from cbi.moments import derive, mean
from cbi.simulate import PathConfig, simulate_cbi
from cbi.testfunctions import bump

from conftest import ALL_FIXTURES, make_jump_d2, make_jump_d3, make_many_atoms

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


def _close(a, b, rel: float) -> None:
    """max |a - b| within rel of max |b|."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) <= rel * np.max(np.abs(b), initial=0.0)


def _relabelled(params: CbiParams, p: np.ndarray) -> CbiParams:
    """params with type i of the copy being type p[i] of the original."""
    def moved(m: JumpMeasure) -> JumpMeasure:
        return JumpMeasure(m.weights, m.points[:, p])

    return CbiParams(d=params.d, c=params.c[p], beta=params.beta[p], B=params.B[np.ix_(p, p)],
                     nu=moved(params.nu), mu=tuple(moved(params.mu[i]) for i in p))


#: 2.4e-15 measured (discrete_gen_limit on jump_d3); derive's arrays within 1.5e-16
RELABEL_REL = 1e-14


@pytest.mark.parametrize("make", [make_jump_d2, make_jump_d3, make_many_atoms],
                         ids=["jump_d2", "jump_d3", "many_atoms"])
def test_relabelling_types_permutes_every_result(make):
    params = make()
    d = params.d
    p = np.arange(d)[::-1]
    x, lam = np.array([1.0, 0.5, 0.25][:d]), np.array([0.7, 1.2, 0.4][:d])
    dq, dq_p = derive(params), derive(_relabelled(params, p))
    # the atom table lists mu_1, ..., mu_d, then nu: the copy's blocks in the order p
    ends = np.cumsum([0, *(m.natoms for m in params.mu), params.nu.natoms])
    atoms = np.concatenate([np.arange(ends[i], ends[i + 1]) for i in (*p, d)])
    rows = np.r_[p, d]
    for got, want in ((dq_p.btilde, dq.btilde[np.ix_(p, p)]),
                      (dq_p.beta_tilde, dq.beta_tilde[p]),
                      (dq_p.big_c, dq.big_c[np.ix_(p, p, p)]),
                      (dq_p.drift_table, dq.drift_table[np.ix_(rows, p)]),
                      (dq_p.atom_points, dq.atom_points[np.ix_(atoms, p)]),
                      (dq_p.atom_weights, dq.atom_weights[np.ix_(rows, atoms)])):
        _close(got, want, RELABEL_REL)
    for t in (0.3, 1.0, 5.0):
        _close(mean(dq_p, x[p], t), mean(dq, x, t)[p], RELABEL_REL)
    _close(laplace_transform(dq_p, 1.0, x[p], lam[p]), laplace_transform(dq, 1.0, x, lam),
           RELABEL_REL)
    _close(discrete_gen_limit(dq_p, x[p], lam[p]), discrete_gen_limit(dq, x, lam), RELABEL_REL)
    centre = np.array([0.9, 0.4, 0.2][:d])
    _close(generator_apply(dq_p, bump(centre[p], 3.0), x[p]),
           generator_apply(dq, bump(centre, 3.0), x), RELABEL_REL)
    assert dq_p.classification == dq.classification


def _split(params: CbiParams) -> CbiParams:
    """params with each atom (w, z) as two atoms (w / 2, z)."""
    def split(m: JumpMeasure) -> JumpMeasure:
        return JumpMeasure(np.repeat(m.weights / 2, 2), np.repeat(m.points, 2, axis=0))

    return CbiParams(d=params.d, c=params.c, beta=params.beta, B=params.B,
                     nu=split(params.nu), mu=tuple(split(m) for m in params.mu))


@pytest.mark.parametrize("name", MODELS)
def test_splitting_atoms_keeps_the_law(name):
    params = MODELS[name]()
    d = params.d
    x, lam = np.array([1.0, 0.5, 0.25][:d]), np.array([0.7, 1.2, 0.4][:d])
    dq, dq_split = derive(params), derive(_split(params))
    # 2.1e-16 measured (beta_tilde on jump_mixed)
    for field in ("btilde", "beta_tilde", "big_c", "drift_table"):
        _close(getattr(dq_split, field), getattr(dq, field), 1e-15)
    # 8.6e-16 measured (jump_d3)
    _close(laplace_transform(dq_split, 1.0, x, lam), laplace_transform(dq, 1.0, x, lam), 1e-13)
