import io
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from cbi import affine, moments, simulate
from cbi.errors import ClassificationError
from cbi.model import CbiParams, JumpMeasure
from cbi.simulate import (PathConfig, paths_to_csv, poisson_from_uniform,
                          simulate_cbi, simulate_limit_diffusion,
                          simulate_scaled_step)

from conftest import assert_close
from ref_oracles import paths_csv_per_cell


def _ends(paths):
    return np.array([p.states[-1] for p in paths])


# --- config and RNG plumbing -------------------------------------------------

def test_path_config_validation():
    with pytest.raises(ValueError):
        PathConfig(x0=[1.0], horizon=0.0, dt=1e-3, seed=0, n_paths=10)
    with pytest.raises(ValueError):
        PathConfig(x0=[1.0], horizon=1.0, dt=2.0, seed=0, n_paths=10)
    with pytest.raises(ValueError):
        PathConfig(x0=[1.0], horizon=1.0, dt=1e-3, seed=0, n_paths=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"horizon must be finite and positive, got {bad}"):
            PathConfig(x0=[1.0], horizon=bad, dt=1e-3, seed=0, n_paths=10)
        with pytest.raises(ValueError, match=f"got dt={bad}"):
            PathConfig(x0=[1.0], horizon=1.0, dt=bad, seed=0, n_paths=10)


@pytest.mark.parametrize("run", [
    lambda p: simulate_cbi(p, PathConfig(x0=[1.0], horizon=1.0, dt=1e-3, seed=0,
                                         n_paths=10**12)),
    lambda p: simulate_scaled_step(p, 10**9, PathConfig(x0=[1.0], horizon=1.0, dt=0.5,
                                                        seed=0, n_paths=1)),
    lambda p: simulate_limit_diffusion(p, PathConfig(x0=[1.0], horizon=1e6, dt=1e-6,
                                                     seed=0, n_paths=1)),
    lambda p: simulate_cbi(p, PathConfig(x0=[1.0], horizon=1e300, dt=1e-300, seed=0,
                                         n_paths=1)),
])
def test_oversized_run_refused_before_allocating(fix_a, run):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="GiB|step count"):
            run(fix_a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_poisson_inversion_matches_cdf_oracle():
    u = np.linspace(0.0, 0.999999, 41)
    # scalar means, and one array mean that holds zeros
    for mean in (0.0, 1e-4, 0.05, 1.3, 7.0, np.tile([0.0, 2.5, 0.0, 1e-3, 0.7], 9)[:41]):
        counts = poisson_from_uniform(u, mean)
        for ui, ki, mi in zip(u, counts, np.broadcast_to(mean, u.shape)):
            if ki > 0:
                assert scipy.stats.poisson.cdf(ki - 1, mi) <= ui
            assert ui < scipy.stats.poisson.cdf(ki, mi) + 1e-15


@pytest.mark.parametrize("shape", [(6,), (3, 4)])
def test_poisson_all_zero_counts_keep_shape_and_dtype(shape):
    # every u below exp(-mean): the early return must still be u-shaped int64
    u = np.full(shape, 0.5)
    for mean in (1e-3, np.full(shape, 1e-3)):
        counts = poisson_from_uniform(u, mean)
        assert counts.shape == shape and counts.dtype == np.int64
        assert not counts.any()


def test_poisson_rejects_huge_mean():
    with pytest.raises(ValueError, match=r"^per-step jump intensity 200 too large; decrease dt$"):
        poisson_from_uniform(np.array([0.5]), 200.0)
    with pytest.raises(ValueError, match=r"^Poisson mean must be >= 0$"):
        poisson_from_uniform(np.array([0.5, 0.5]), [0.1, -1e-3])


def test_same_seed_bit_identical(fix_a):
    cfg = PathConfig(x0=[1.0], horizon=0.2, dt=1e-2, seed=42, n_paths=5)
    a = simulate_cbi(fix_a, cfg)
    b = simulate_cbi(fix_a, cfg)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.states, pb.states)


def test_paths_are_prefix_stable_in_n_paths(jump_mixed):
    few = simulate_cbi(jump_mixed, PathConfig(x0=[1.0], horizon=0.3, dt=1e-2,
                                              seed=9, n_paths=3))
    many = simulate_cbi(jump_mixed, PathConfig(x0=[1.0], horizon=0.3, dt=1e-2,
                                               seed=9, n_paths=8))
    for pa, pb in zip(few, many[:3]):
        assert np.array_equal(pa.states, pb.states)
        assert len(pa.jump_log) == len(pb.jump_log)


# --- trajectory structure ------------------------------------------------------

def test_degenerate_model_constant_path():
    params = CbiParams.no_jumps(c=[0.0, 0.0], beta=[0.0, 0.0], B=np.zeros((2, 2)))
    cfg = PathConfig(x0=[0.7, 0.2], horizon=1.0, dt=1e-2, seed=1, n_paths=2)
    for p in simulate_cbi(params, cfg):
        assert np.all(p.states == np.array([0.7, 0.2]))
        assert p.jump_log == ()


def test_deterministic_drift_follows_ode_flow():
    B = np.array([[-1.0, 1.0], [1.0, -1.0]])
    params = CbiParams.no_jumps(c=[0.0, 0.0], beta=[0.0, 0.0], B=B)
    cfg = PathConfig(x0=[1.0, 0.0], horizon=1.0, dt=1e-3, seed=0, n_paths=1)
    path = simulate_cbi(params, cfg)[0]
    from cbi.matops import mat_exp
    exact = mat_exp(B, 1.0) @ np.array([1.0, 0.0])
    assert_close(path.states[-1], exact, 5e-3, "Euler vs flow")


def test_states_nonnegative_and_jump_log_structure(jump_mixed):
    cfg = PathConfig(x0=[0.5], horizon=1.0, dt=1e-2, seed=3, n_paths=40)
    paths = simulate_cbi(jump_mixed, cfg)
    atoms_nu = {float(z[0]) for z in jump_mixed.nu.points}
    atoms_mu = {float(z[0]) for z in jump_mixed.mu[0].points}
    seen_sources = set()
    for p in paths:
        assert np.all(p.states >= 0.0)
        for t, source, z in p.jump_log:
            assert 0.0 < t <= 1.0 + 1e-12
            seen_sources.add(source)
            if source == "immigration":
                assert float(z[0]) in atoms_nu
            else:
                assert source == "branching-1"
                assert float(z[0]) in atoms_mu
    assert "immigration" in seen_sources


# --- moment consistency ----------------------------------------------------------

def test_mean_matches_formula_fix_a(fix_a):
    cfg = PathConfig(x0=[1.0], horizon=1.0, dt=1e-3, seed=7, n_paths=2000)
    ends = _ends(simulate_cbi(fix_a, cfg))[:, 0]
    ref = moments.mean(fix_a, [1.0], 1.0)[0]
    se = ends.std(ddof=1) / math.sqrt(len(ends))
    assert abs(ends.mean() - ref) <= 3 * se


def test_mean_matches_formula_with_jumps(jump_mixed):
    cfg = PathConfig(x0=[1.0], horizon=1.0, dt=1e-3, seed=3, n_paths=1500)
    ends = _ends(simulate_cbi(jump_mixed, cfg))[:, 0]
    ref = moments.mean(jump_mixed, [1.0], 1.0)[0]
    se = ends.std(ddof=1) / math.sqrt(len(ends))
    assert abs(ends.mean() - ref) <= 3 * se


def test_laplace_matches_transform(fix_a):
    cfg = PathConfig(x0=[1.0], horizon=1.0, dt=1e-3, seed=11, n_paths=2000)
    ends = _ends(simulate_cbi(fix_a, cfg))[:, 0]
    for lam in (0.3, 1.0, 3.0):
        emp = np.exp(-lam * ends)
        ref = affine.laplace_transform(fix_a, 1.0, [1.0], [lam])
        se = emp.std(ddof=1) / math.sqrt(len(emp))
        assert abs(emp.mean() - ref) <= 3 * se


def test_variance_matches_formula_no_immigration():
    params = CbiParams.no_jumps(c=[1.0], beta=[0.0], B=[[0.0]])
    cfg = PathConfig(x0=[1.0], horizon=1.0, dt=1e-3, seed=5, n_paths=3000)
    ends = _ends(simulate_cbi(params, cfg))[:, 0]
    ref = moments.variance_no_immigration(params, [1.0], 1.0)[0, 0]
    s2 = ends.var(ddof=1)
    m4 = np.mean((ends - ends.mean()) ** 4)
    se = math.sqrt(max(m4 - s2**2, 0.0) / len(ends))
    assert abs(s2 - ref) <= 3 * se


def test_halving_dt_within_one_se(fix_a):
    # seeded: the two runs are independent draws, so this is a one-sigma
    # check of discretization bias against Monte Carlo noise
    fine = PathConfig(x0=[1.0], horizon=1.0, dt=5e-4, seed=14, n_paths=4000)
    coarse = PathConfig(x0=[1.0], horizon=1.0, dt=1e-3, seed=14, n_paths=4000)
    e_f = _ends(simulate_cbi(fix_a, fine))[:, 0]
    e_c = _ends(simulate_cbi(fix_a, coarse))[:, 0]
    se = math.sqrt(e_f.var(ddof=1) / len(e_f) + e_c.var(ddof=1) / len(e_c))
    assert abs(e_f.mean() - e_c.mean()) <= se


# --- scaled step process -----------------------------------------------------------

def test_scaled_step_n1_resamples_base_path(jump_mixed):
    cfg = PathConfig(x0=[1.0], horizon=2.0, dt=0.5, seed=13, n_paths=3)
    base = simulate_cbi(jump_mixed, cfg)
    scaled = simulate_scaled_step(jump_mixed, 1, cfg)
    # same seed and grid: scaled path must be the base path sampled at floor(t)
    for pb, ps in zip(base, scaled):
        floors = np.floor(ps.times + 1e-9).astype(int)
        take = (floors / 0.5).astype(int)
        assert np.array_equal(ps.states, pb.states[take])


def test_scaled_step_mean_fix_a(fix_a):
    # from a zero start the critical scalar model has E X^(n)_1 = 1 for all n
    cfg = PathConfig(x0=[0.0], horizon=1.0, dt=5e-3, seed=2, n_paths=400)
    ends = _ends(simulate_scaled_step(fix_a, 50, cfg))[:, 0]
    se = ends.std(ddof=1) / math.sqrt(len(ends))
    assert abs(ends.mean() - 1.0) <= 3 * se


def test_scaled_step_direction_aligns_with_perron(d2_critical):
    cfg = PathConfig(x0=[0.0, 0.0], horizon=1.0, dt=5e-3, seed=6, n_paths=1200)
    ends = _ends(simulate_scaled_step(d2_critical, 50, cfg))
    m = ends.mean(axis=0)
    u = moments.derive(d2_critical).perron.u_right
    cosang = float(m @ u) / (np.linalg.norm(m) * np.linalg.norm(u))
    assert math.degrees(math.acos(min(cosang, 1.0))) < 5.0


# --- limiting ray diffusion -----------------------------------------------------------

def test_limit_diffusion_requires_critical(jump_mixed):
    cfg = PathConfig(x0=[0.0], horizon=1.0, dt=1e-2, seed=0, n_paths=2)
    with pytest.raises(ClassificationError):
        simulate_limit_diffusion(jump_mixed, cfg)


def test_limit_diffusion_absorbed_at_zero_without_drift():
    params = CbiParams.no_jumps(c=[1.0], beta=[0.0], B=[[0.0]])
    cfg = PathConfig(x0=[0.0], horizon=1.0, dt=1e-2, seed=4, n_paths=3)
    for p in simulate_limit_diffusion(params, cfg):
        assert np.all(p.scalar == 0.0)
        assert np.all(p.states == 0.0)


def test_limit_diffusion_ray_embedding(d2_critical):
    cfg = PathConfig(x0=[0.0, 0.0], horizon=0.5, dt=1e-2, seed=8, n_paths=4)
    u = moments.derive(d2_critical).perron.u_right
    for p in simulate_limit_diffusion(d2_critical, cfg):
        assert_close(p.states, np.outer(p.scalar, u), 1e-15, "ray embedding")


def test_limit_diffusion_is_the_ray_cbi_on_the_kernel(d2_critical):
    # the limit is the one-type CBI limit_ray started from <u_left, x0>,
    # run by the same kernel and streams as every other simulation
    cfg = PathConfig(x0=[1.0, 0.5], horizon=0.5, dt=1e-2, seed=3, n_paths=6)
    dq = moments.derive(d2_critical)
    ray = simulate.limit_ray(dq)
    assert ray.params.d == 1 and not ray.params.nu.natoms and not ray.params.mu[0].natoms
    assert_close(ray.params.B, [[0.0]], 0.0, "ray B")
    assert_close(ray.params.beta, [1.0], 1e-14, "ray beta = <u_left, beta_tilde>")
    assert_close(ray.params.c, [1.0], 1e-14, "ray c = <cbar u_left, u_left> / 2")
    K = 50
    scalars, logs = simulate._simulate_grid(ray, [float(dq.perron.u_left @ cfg.x0)], K,
                                            cfg.horizon / K, cfg.seed, cfg.n_paths,
                                            np.arange(K + 1))
    paths = simulate_limit_diffusion(d2_critical, cfg)
    for p, path in enumerate(paths):
        assert np.array_equal(path.scalar, scalars[p, :, 0])
        assert logs[p] == []


def test_limit_diffusion_moments_fix_a(fix_a):
    # dY = dt + sqrt(2 Y^+) dW from 0: E Y_1 = 1, Var Y_1 = 1
    cfg = PathConfig(x0=[0.0], horizon=1.0, dt=1e-3, seed=14, n_paths=3000)
    ends = np.array([p.scalar[-1] for p in simulate_limit_diffusion(fix_a, cfg)])
    se = ends.std(ddof=1) / math.sqrt(len(ends))
    assert abs(ends.mean() - 1.0) <= 3 * se
    s2 = ends.var(ddof=1)
    m4 = np.mean((ends - ends.mean()) ** 4)
    se_var = math.sqrt(max(m4 - s2**2, 0.0) / len(ends))
    assert abs(s2 - 1.0) <= 3 * se_var


def test_limit_diffusion_d2_drift(d2_critical):
    # <u_left, beta_tilde> = 1 and <cbar u_left, u_left> = 2 here
    cfg = PathConfig(x0=[0.0, 0.0], horizon=1.0, dt=1e-3, seed=15, n_paths=1500)
    ends = np.array([p.scalar[-1] for p in simulate_limit_diffusion(d2_critical, cfg)])
    se = ends.std(ddof=1) / math.sqrt(len(ends))
    assert abs(ends.mean() - 1.0) <= 3 * se


# --- CSV export -----------------------------------------------------------------

def test_csv_export_stable_and_wellformed(fix_a):
    cfg = PathConfig(x0=[1.0], horizon=0.05, dt=1e-2, seed=1, n_paths=2)
    paths = simulate_cbi(fix_a, cfg)
    buf1, buf2 = io.StringIO(), io.StringIO()
    paths_to_csv(paths, buf1)
    paths_to_csv(simulate_cbi(fix_a, cfg), buf2)
    assert buf1.getvalue() == buf2.getvalue()
    lines = buf1.getvalue().strip().split("\n")
    assert lines[0] == "path_id,t,x_1"
    assert len(lines) == 1 + 2 * len(paths[0].times)


def _csv(paths):
    buf = io.StringIO()
    paths_to_csv(paths, buf)
    return buf.getvalue()


def test_csv_matches_per_cell_reference_on_simulations(jump_d2, d2_critical):
    cfg = PathConfig(x0=[1.0, 0.5], horizon=0.2, dt=1e-2, seed=5, n_paths=4)
    for paths in (simulate_cbi(jump_d2, cfg), simulate_scaled_step(d2_critical, 3, cfg),
                  simulate_limit_diffusion(d2_critical, cfg)):
        assert _csv(paths) == paths_csv_per_cell(paths)


def test_csv_matches_per_cell_reference_on_edge_floats():
    edge = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1 / 3, 123456789012345678.0]
    times = np.array(edge)
    paths = [simulate.SamplePath(times=times, states=np.array([edge, edge[::-1]]).T),
             simulate.SamplePath(times=times, states=np.array([edge[3:] + edge[:3]] * 2).T)]
    text = _csv(paths)
    assert text == paths_csv_per_cell(paths)
    assert text.startswith("path_id,t,x_1,x_2\n0,-0.0,-0.0,1.2345678901234568e+17\n")
    assert {"nan", "inf", "-inf", "5e-324", "1e+16", "0.3333333333333333"} <= set(
        text.replace("\n", ",").split(","))


def test_csv_matches_per_cell_reference_across_grids():
    rng = np.random.default_rng(3)
    coarse, fine = np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 5)
    # two different grids, then a grid equal in value to the first but a
    # separate array object
    paths = [simulate.SamplePath(times=coarse, states=rng.random((3, 2))),
             simulate.SamplePath(times=fine, states=rng.random((5, 2))),
             simulate.SamplePath(times=coarse.copy(), states=rng.random((3, 2))),
             simulate.SamplePath(times=coarse, states=rng.random((3, 2)))]
    text = _csv(paths)
    assert text == paths_csv_per_cell(paths)
    assert [line.split(",")[1] for line in text.splitlines()[1:] if line.startswith("1,")] == [
        "0.0", "0.25", "0.5", "0.75", "1.0"]
