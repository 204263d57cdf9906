import functools
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from cbi import affine, moments, simulate
from cbi.errors import ClassificationError, NumericRangeError
from cbi.model import CbiParams, JumpMeasure
from cbi.simulate import (PathConfig, _check_intensity, _poisson_walk, paths_to_csv,
                          simulate_cbi, simulate_limit_diffusion, simulate_scaled_step)

from conftest import ALL_FIXTURES, assert_close, make_fix_a, mc_var_z, mc_z
from ref_oracles import euler_paths_loop, joint_laplace_two_times, paths_csv_per_cell


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
    # a start state lies in R_+^d: negative, non-finite and non-vector x0 are refused
    for bad in ([-1.0], [1.0, -1e-300], [math.inf], [0.5, math.nan], -math.inf,
                [[1.0], [2.0]]):
        with pytest.raises(ValueError, match="x0 must be a finite vector with entries >= 0"):
            PathConfig(x0=bad, horizon=1.0, dt=1e-3, seed=0, n_paths=10)
    assert PathConfig(x0=0.0, horizon=1.0, dt=1e-3, seed=0, n_paths=1).x0.shape == (1,)


@pytest.mark.parametrize("seed", [1.5, 1.0, True, False, -1, np.float64(3.0), "3", None])
def test_path_config_refuses_a_seed_that_is_not_a_non_negative_int(seed):
    # SeedSequence would refuse only the negative one; int() would run 1.5 and True as 1
    with pytest.raises(ValueError, match=r"^expected non-negative integer$"):
        PathConfig(x0=[1.0], horizon=1.0, dt=1e-3, seed=seed, n_paths=10)


@pytest.mark.parametrize("n_paths", [2.5, 3.0, True, False, np.float64(4.0), "3", None])
def test_path_config_refuses_a_path_count_that_is_not_a_positive_int(n_paths):
    # range() would refuse a float only inside the kernel, and run a bool as 0 or 1
    with pytest.raises(ValueError, match="n_paths must be an integer >= 1"):
        PathConfig(x0=[1.0], horizon=1.0, dt=1e-3, seed=0, n_paths=n_paths)


@pytest.mark.parametrize("n_paths", [1, 500, np.int64(7), np.uint8(3)])
def test_path_config_keeps_an_integer_path_count_as_int(n_paths):
    cfg = PathConfig(x0=[1.0], horizon=1.0, dt=1e-3, seed=0, n_paths=n_paths)
    assert type(cfg.n_paths) is int and cfg.n_paths == int(n_paths)


@pytest.mark.parametrize("seed", [0, 2**64 + 3, np.int64(7), np.uint32(2**32 - 1)])
def test_path_config_keeps_an_integer_seed_as_int(seed):
    cfg = PathConfig(x0=[1.0], horizon=1.0, dt=1e-3, seed=seed, n_paths=10)
    assert type(cfg.seed) is int and cfg.seed == int(seed)


# up to seven 32-bit seed words: past the fourth, each advances numpy's hash constant
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**30, 2**128 + 5,
                                  2**160 + 9, 2**200 + 7])
def test_philox_keys_match_seed_sequence(seed):
    # whole blocks from 0 and from offsets, up to the last one-word path index
    for p0, p1 in [(0, 40), (5, 6), (1000, 1007), (2**31 - 3, 2**31 + 3), (2**32 - 4, 2**32)]:
        ref = [np.random.SeedSequence(seed, spawn_key=(p,)).generate_state(2, np.uint64)
               for p in range(p0, p1)]
        keys = simulate._philox_keys(seed, p0, p1)
        assert keys.dtype == np.uint64 and np.array_equal(keys, np.array(ref))


def test_philox_keys_refuse_a_two_word_path_index(fix_a):
    # numpy would hash index 2**32 as two spawn-key words, which the block hash does not
    with pytest.raises(ValueError, match=r"path index 4294967296 is not below 2\*\*32"):
        simulate._philox_keys(0, 2**32 - 2, 2**32 + 1)
    # unreachable from a simulation: 512 bytes per path put 2**32 paths far over MAX_BYTES
    cfg = PathConfig(x0=[1.0], horizon=1.0, dt=0.5, seed=0, n_paths=2**32 + 1)
    with pytest.raises(ValueError, match="GiB"):
        simulate_cbi(fix_a, cfg)


@pytest.mark.parametrize("run", [
    lambda p: simulate_cbi(p, PathConfig(x0=[1.0], horizon=1.0, dt=1e-3, seed=0,
                                         n_paths=10**12)),
    lambda p: simulate_scaled_step(p, 10**9, PathConfig(x0=[1.0], horizon=1.0, dt=0.5,
                                                        seed=0, n_paths=1)),
    # n T itself overflows
    lambda p: simulate_scaled_step(p, 10**300, PathConfig(x0=[1.0], horizon=1e10, dt=0.5,
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


@pytest.mark.parametrize("seed", [0, 1])
def test_overflowing_state_is_refused_before_truncation(seed):
    # c x overflows at step 2 and a negative normal makes the state -inf,
    # which truncation at 0 would turn into a finite 0
    params = CbiParams.no_jumps(c=[1e300], beta=[0.0], B=[[0.0]])
    with pytest.raises(ValueError, match="non-finite state at step 2; decrease dt"):
        simulate_cbi(params, PathConfig(x0=[1.0], horizon=1.0, dt=0.1, seed=seed, n_paths=3))


@pytest.mark.parametrize("dt", [0.5, 1e-3])
def test_first_step_beyond_the_float_range_names_the_start(dt):
    # c x overflows at step 1 whatever dt is: the start is too large, not dt
    params = CbiParams.no_jumps(c=[1.0], beta=[1.0], B=[[1.0]])
    with pytest.raises(NumericRangeError, match="^the first Euler step from the start "
                                                "overflowed the floating-point range$"):
        simulate_cbi(params, PathConfig(x0=[1e308], horizon=1.0, dt=dt, seed=0, n_paths=2))


def test_finite_state_whose_sum_overflows_is_not_refused():
    # the entries sum past the float range, but each is finite: no refusal
    params = CbiParams.no_jumps(c=[0.0, 0.0], beta=[0.0, 0.0], B=np.zeros((2, 2)))
    paths = simulate_cbi(params, PathConfig(x0=[1e308, 1e308], horizon=1.0, dt=0.1,
                                            seed=0, n_paths=3))
    assert all(np.array_equal(p.states, np.full((11, 2), 1e308)) for p in paths)


def test_scaled_step_and_limit_diffusion_refuse_bad_arguments(fix_a, d2_critical):
    cfg = PathConfig(x0=[1.0], horizon=1.0, dt=0.1, seed=0, n_paths=2)
    with pytest.raises(ValueError, match="n must be a positive integer, got 0"):
        simulate_scaled_step(fix_a, 0, cfg)
    with pytest.raises(ValueError, match=r"x0 must have length d=2, got shape \(1,\)"):
        simulate_limit_diffusion(d2_critical, cfg)


def _kernel_counts(u: np.ndarray, mean) -> np.ndarray:
    """The Euler kernel's jump counts of uniforms u at means `mean` (which
    broadcasts against u): 0 below e^{-mean}, and `_poisson_walk` on exactly
    the uniforms that reach it."""
    mean = np.broadcast_to(np.asarray(mean, dtype=float), u.shape)
    pmf0 = np.exp(-mean)
    reach = u >= pmf0
    counts = np.zeros(u.shape, dtype=np.int64)
    counts[reach] = _poisson_walk(u[reach], mean[reach], pmf0[reach])
    return counts


def test_poisson_inversion_matches_cdf_oracle():
    u = np.linspace(0.0, 0.999999, 41)
    # scalar means, and one array mean that holds zeros
    for mean in (0.0, 1e-4, 0.05, 1.3, 7.0, np.tile([0.0, 2.5, 0.0, 1e-3, 0.7], 9)[:41]):
        counts = _kernel_counts(u, mean)
        for ui, ki, mi in zip(u, counts, np.broadcast_to(mean, u.shape)):
            if ki > 0:
                assert scipy.stats.poisson.cdf(ki - 1, mi) <= ui
            assert ui < scipy.stats.poisson.cdf(ki, mi) + 1e-15


def test_poisson_inversion_on_a_block_matches_cdf_oracle():
    # a (4, 6) block of uniforms against one broadcast row of means: zero
    # counts (all of the mean-0 column), walks of several terms, and one
    # element whose cdf saturates below its u and stops at its own cutoff
    mean = np.array([0.0, 1e-3, 0.05, 0.01, 1.3, 7.0])
    u = np.linspace(0.0, 0.999, 24).reshape(4, 6)
    u[2, 3] = np.nextafter(1.0, 0.0)
    counts = _kernel_counts(u, mean)
    assert not counts[:, 0].any() and (counts[:, 1:] == 0).any() and (counts > 1).any()
    assert counts[2, 3] == 211
    for (i, j), k in np.ndenumerate(counts):
        if (i, j) != (2, 3):
            if k > 0:
                assert scipy.stats.poisson.cdf(k - 1, mean[j]) <= u[i, j]
            assert u[i, j] < scipy.stats.poisson.cdf(k, mean[j]) + 1e-15


def test_poisson_saturated_count_depends_on_its_own_mean_only():
    # the cdf of mean 0.01 saturates below the largest double under 1, so the
    # walk stops at the element's cutoff 10 * max(1, 0.01) + 200, plus one
    u = np.nextafter(1.0, 0.0)
    for means in ([0.01], [0.01, 60.0], [0.5, 0.01, 99.0], [90.0, 0.01, 0.01, 5.0]):
        mean = np.array(means)
        counts = _poisson_walk(np.full(len(mean), u), mean, np.exp(-mean))
        assert [k for k, m in zip(counts, means) if m == 0.01] == [211] * means.count(0.01)


def test_poisson_rejects_huge_mean():
    _check_intensity(100.0)  # the cap itself is allowed
    with pytest.raises(ValueError, match=r"^per-step jump intensity 200 too large; decrease dt$"):
        _check_intensity(200.0)


def test_too_large_intensity_reports_the_largest_mean_past_a_nan():
    # mu_1's weights sum past the float range, so at x_1 = 0 its step mean is
    # 0 * inf = NaN; fmax skips it and reports mu_2's 150, where max would not
    params = CbiParams(d=2, c=[0.0, 0.0], beta=[0.0, 0.0], B=[[0.0, 0.0], [0.0, 0.0]],
                       mu=(JumpMeasure.from_atoms([(1e308, [1e-150, 0.0])] * 2),
                           JumpMeasure.from_atoms([(1500.0, [0.0, 1.0])])))
    with pytest.raises(ValueError, match=r"^per-step jump intensity 150 too large; decrease dt$"):
        simulate_cbi(params, PathConfig(x0=[0.0, 1.0], horizon=0.2, dt=0.1, seed=0, n_paths=2))


def test_too_large_intensity_reports_the_largest_mean_over_sources():
    # step-1 means 120 (immigration) and 240 (branching-1 at x = 1), checked in one call
    params = CbiParams(d=1, c=[0.0], beta=[0.0], B=[[0.0]],
                       nu=JumpMeasure.from_atoms([(1200.0, [1.0])]),
                       mu=(JumpMeasure.from_atoms([(2400.0, [1.0])]),))
    with pytest.raises(ValueError, match=r"^per-step jump intensity 240 too large; decrease dt$"):
        simulate_cbi(params, PathConfig(x0=[1.0], horizon=1.0, dt=0.1, seed=0, n_paths=2))


def test_too_large_intensity_is_capped_per_source_not_per_atom():
    # two mu_1 atoms of step mean 60 each: their source's mean 120 is refused
    params = CbiParams(d=1, c=[0.0], beta=[0.0], B=[[0.0]],
                       mu=(JumpMeasure.from_atoms([(600.0, [1.0]), (600.0, [2.0])]),))
    with pytest.raises(ValueError, match=r"^per-step jump intensity 120 too large; decrease dt$"):
        simulate_cbi(params, PathConfig(x0=[1.0], horizon=1.0, dt=0.1, seed=0, n_paths=2))


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


def _assert_matches_loop_oracle(params, paths, x0, K, h, seed):
    ref, ref_logs = euler_paths_loop(params, x0, K, h, seed, len(paths))
    for p, path in enumerate(paths):
        assert_close(path.states, ref[p], 1e-12, f"path {p} against the loop oracle")
        assert len(path.jump_log) == len(ref_logs[p])
        for (t, source, z), (rt, rsource, rz) in zip(path.jump_log, ref_logs[p]):
            assert (t, source) == (rt, rsource) and np.array_equal(z, rz)
    return ref_logs


@pytest.mark.parametrize("horizon,dt,K", [(0.5, 4e-3, 125), (5.0, 0.1, 50)])
def test_streams_match_loop_oracle_with_many_sources(jump_d3, horizon, dt, K):
    # immigration and three branching sources, each with several atoms
    cfg = PathConfig(x0=[1.0, 0.5, 0.25], horizon=horizon, dt=dt, seed=3, n_paths=20)
    logs = _assert_matches_loop_oracle(jump_d3, simulate_cbi(jump_d3, cfg), cfg.x0,
                                       K, dt, cfg.seed)
    assert {source for log in logs for _, source, _ in log} == {
        "immigration", "branching-1", "branching-2", "branching-3"}
    if dt == 0.1:  # the coarse step has paths that jump from two sources in one step
        assert any(len({source for t, source, _ in log if t == t0}) > 1
                   for log in logs for t0, _, _ in log)


def test_streams_match_loop_oracle_with_many_atoms(many_atoms):
    # 160 atoms: the jump step finds the few that jump among P x 160 counts
    cfg = PathConfig(x0=[1.0, 0.5, 1.5], horizon=10.0, dt=0.2, seed=21, n_paths=8)
    logs = _assert_matches_loop_oracle(many_atoms, simulate_cbi(many_atoms, cfg), cfg.x0,
                                       50, 0.2, cfg.seed)
    atoms_per_step = [{} for _ in logs]
    for step_atoms, log in zip(atoms_per_step, logs):
        for t, source, z in log:
            step_atoms.setdefault(t, set()).add((source, tuple(z.tolist())))
    # one path with two or more atoms in a step: the dense row sum of counts @ Z
    assert any(len(atoms) > 1 for step_atoms in atoms_per_step for atoms in step_atoms.values())
    # and a step in which no path jumps at all
    assert set(range(1, 51)) - {round(t / 0.2) for step_atoms in atoms_per_step
                                for t in step_atoms}


def test_streams_match_loop_oracle_across_windows(d2_critical):
    cfg = PathConfig(x0=[1.0, 0.5], horizon=1.2, dt=1e-3, seed=7, n_paths=5)
    K = 1200
    assert K > simulate.WINDOW
    _assert_matches_loop_oracle(d2_critical, simulate_cbi(d2_critical, cfg), cfg.x0,
                                K, 1e-3, cfg.seed)


def test_streams_match_loop_oracle_across_blocks(jump_d2, monkeypatch):
    cfg = PathConfig(x0=[1.0, 0.5], horizon=2.0, dt=1e-2, seed=11, n_paths=5)
    whole = simulate_cbi(jump_d2, cfg)
    # d = 2 normals and four atoms per step: two paths per block plus their
    # two staging paths, three blocks
    monkeypatch.setattr(simulate, "DRAW_BUDGET", (2 + 2) * simulate.WINDOW * (2 + 4))
    blocked = simulate_cbi(jump_d2, cfg)
    logs = _assert_matches_loop_oracle(jump_d2, blocked, cfg.x0, 200, 1e-2, cfg.seed)
    assert sum(map(len, logs)) > 0
    for a, b in zip(whole, blocked):
        assert np.array_equal(a.states, b.states)


@pytest.mark.parametrize("kind", ["scaled", "limit"])
def test_scaled_and_limit_paths_agree_across_blocks(kind, jump_d2, d2_critical, monkeypatch):
    cfg = PathConfig(x0=[1.0, 0.5], horizon=1.1, dt=1e-3, seed=13, n_paths=7)
    if kind == "scaled":
        # base chain: 2200 steps with d = 2 normals and four atoms per step,
        # of which the output grid records the three states X_0, X_1000, X_2000
        run, draws = lambda: simulate_scaled_step(jump_d2, 2, cfg), 2 + 4
    else:
        # the one-type ray diffusion: 1100 steps of one normal
        run, draws = lambda: simulate_limit_diffusion(d2_critical, cfg), 1
    whole = run()
    # three paths per block plus their three staging paths
    monkeypatch.setattr(simulate, "DRAW_BUDGET", (3 + 3) * simulate.WINDOW * draws)
    blocks, keys = [], simulate._philox_keys
    monkeypatch.setattr(simulate, "_philox_keys",
                        lambda seed, p0, p1: blocks.append(p1 - p0) or keys(seed, p0, p1))
    blocked = run()
    assert blocks == [3, 3, 1]
    for a, b in zip(whole, blocked, strict=True):
        assert np.array_equal(a.states, b.states)
        assert a.scalar is None if kind == "scaled" else np.array_equal(a.scalar, b.scalar)


def test_blocks_hold_their_draws_within_the_budget(jump_d2, monkeypatch):
    # 64 windows of d + A = 6 draws: 48 paths per block plus 16 staging paths.
    # Three blocks over one 1024-step window: a block's windows and staging,
    # or a second block's beside the first's, would exceed the budget
    budget = 64 * simulate.WINDOW * (2 + 4)
    monkeypatch.setattr(simulate, "DRAW_BUDGET", budget)
    cfg = PathConfig(x0=[1.0, 0.5], horizon=1.024, dt=1e-3, seed=5, n_paths=120)
    tracemalloc.start()
    try:
        paths = simulate_cbi(jump_d2, cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(paths) == 120
    # 8 bytes a draw, and 1.07 times that measured above what the run returns
    assert peak - held < 1.25 * 8 * budget


def _default_and_staged_by_three(run, monkeypatch):
    """run() with the default staging, then with staging chunks of 3 paths."""
    default = run()
    monkeypatch.setattr(simulate, "STAGE", 3)
    return default, run()


#: seven paths, staged 3 + 3 + 1, over 1100 > WINDOW steps: the saved stream
#: states cross a window inside a staging chunk
_STAGED = PathConfig(x0=[1.0, 0.5], horizon=1.1, dt=1e-3, seed=17, n_paths=7)


@pytest.mark.parametrize("model", ["jump_d2", "d2_critical"])
def test_staging_chunks_across_windows_match_default_and_loop_oracle(model, request,
                                                                     monkeypatch):
    params = request.getfixturevalue(model)
    default, staged = _default_and_staged_by_three(lambda: simulate_cbi(params, _STAGED),
                                                   monkeypatch)
    for a, b in zip(default, staged, strict=True):
        assert np.array_equal(a.states, b.states)
        assert len(a.jump_log) == len(b.jump_log)
        for (t, source, z), (bt, bsource, bz) in zip(a.jump_log, b.jump_log):
            assert (t, source) == (bt, bsource) and np.array_equal(z, bz)
    logs = _assert_matches_loop_oracle(params, staged, _STAGED.x0, 1100, 1e-3, _STAGED.seed)
    assert (sum(map(len, logs)) > 0) == (model == "jump_d2")


def test_staging_chunks_across_windows_on_scaled_and_limit(jump_d2, d2_critical, monkeypatch):
    (scaled, limit), (scaled_3, limit_3) = _default_and_staged_by_three(
        lambda: (simulate_scaled_step(jump_d2, 2, _STAGED),
                 simulate_limit_diffusion(d2_critical, _STAGED)), monkeypatch)
    for a, b in zip(scaled + limit, scaled_3 + limit_3, strict=True):
        assert np.array_equal(a.states, b.states)
        assert a.scalar is None if b.scalar is None else np.array_equal(a.scalar, b.scalar)
    # n = 2 on [0, 1.1]: the base chain runs 2 units, 2000 steps of 1e-3, from 2 x0
    base, _ = euler_paths_loop(jump_d2, 2 * _STAGED.x0, 2000, 1e-3, _STAGED.seed, 7)
    for p, path in enumerate(scaled_3):
        take = 1000 * np.floor(2 * path.times + 1e-9).astype(int)
        assert_close(path.states, base[p, take] / 2, 1e-12, "scaled chain")
    dq = moments.derive(d2_critical)
    start = float(dq.perron.u_left @ _STAGED.x0)
    ray, _ = euler_paths_loop(simulate.limit_ray(dq).params, [start], 1100, 1e-3, _STAGED.seed, 7)
    for p, path in enumerate(limit_3):
        assert_close(path.scalar, ray[p, :, 0], 1e-12, "limit scalar")


def test_streams_match_loop_oracle_on_limit_and_scaled(d2_critical, jump_mixed):
    cfg = PathConfig(x0=[1.0, 0.5], horizon=0.5, dt=1e-2, seed=4, n_paths=4)
    dq = moments.derive(d2_critical)
    ray, _ = euler_paths_loop(simulate.limit_ray(dq).params, [float(dq.perron.u_left @ cfg.x0)],
                              50, 1e-2, cfg.seed, cfg.n_paths)
    for p, path in enumerate(simulate_limit_diffusion(d2_critical, cfg)):
        assert_close(path.scalar, ray[p, :, 0], 1e-12, "limit scalar")
    # n = 3 on [0, 0.5]: the base chain runs floor(1.5) = 1 unit, 10 steps of 0.1, from 3 x0
    cfg = PathConfig(x0=[1.0], horizon=0.5, dt=0.1, seed=12, n_paths=4)
    base, _ = euler_paths_loop(jump_mixed, 3 * cfg.x0, 10, 0.1, cfg.seed, cfg.n_paths)
    for p, path in enumerate(simulate_scaled_step(jump_mixed, 3, cfg)):
        take = 10 * np.floor(3 * path.times + 1e-9).astype(int)
        assert_close(path.states, base[p, take] / 3, 1e-12, "scaled chain")


def test_scaled_chain_reads_its_base_chain_at_integer_times(jump_mixed):
    # dt = 0.3 divides one unit as h = 1/3, so X_1 and X_2 are base steps 3 and 6;
    # rounded to divide n T = 2.5 instead, h was 0.3125 and X_1, X_2 were
    # read at times 0.9375 and 1.875
    cfg = PathConfig(x0=[1.0], horizon=0.5, dt=0.3, seed=7, n_paths=3)
    base, _ = euler_paths_loop(jump_mixed, 5 * cfg.x0, 6, 1 / 3, cfg.seed, cfg.n_paths)
    for p, path in enumerate(simulate_scaled_step(jump_mixed, 5, cfg)):
        assert np.array_equal(path.times, [0.0, 0.25, 0.5])
        assert_close(path.states, base[p, [0, 3, 6]] / 5, 1e-12, "scaled chain")


@pytest.mark.parametrize("horizon,dt,K_out", [(0.5, 0.1, 5), (1e-300, 1e-301, 10)])
def test_scaled_chain_before_its_first_step_is_the_start(jump_mixed, horizon, dt, K_out):
    # n T < 1: the base chain takes no step, however many steps one unit would take
    cfg = PathConfig(x0=[1.0], horizon=horizon, dt=dt, seed=0, n_paths=2)
    for path in simulate_scaled_step(jump_mixed, 1, cfg):
        assert np.array_equal(path.states, np.ones((K_out + 1, 1)))


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


def test_jump_log_shares_each_atoms_point_and_each_steps_time(jump_d3):
    # one (source, point) pair per atom and one time per step, made once
    dq = moments.derive(jump_d3)
    cfg = PathConfig(x0=[1.0, 0.5, 0.25], horizon=1.0, dt=0.01, seed=3, n_paths=20)
    points, times, steps_of_atom, atoms_of_step = {}, {}, {}, {}
    for pid, path in enumerate(simulate_cbi(dq, cfg)):
        for t, source, z in path.jump_log:
            atom = (source, z.tobytes())
            assert points.setdefault(atom, z) is z
            assert times.setdefault(t, t) is t
            steps_of_atom.setdefault(atom, set()).add(t)
            atoms_of_step.setdefault(t, set()).add((pid, atom))
    assert all(not z.flags.writeable and np.shares_memory(z, dq.atom_points)
               for z in points.values())
    # not vacuous: an atom jumps at several steps, a step has several jumps
    assert max(map(len, steps_of_atom.values())) > 1
    assert max(map(len, atoms_of_step.values())) > 1


# --- moment consistency ----------------------------------------------------------

def test_mean_matches_formula_fix_a(fix_a):
    cfg = PathConfig(x0=[1.0], horizon=1.0, dt=1e-3, seed=7, n_paths=2000)
    ends = _ends(simulate_cbi(fix_a, cfg))[:, 0]
    assert mc_z(ends, moments.mean(fix_a, [1.0], 1.0)[0]) <= 3


def test_mean_matches_formula_with_jumps(jump_mixed):
    cfg = PathConfig(x0=[1.0], horizon=1.0, dt=1e-3, seed=3, n_paths=1500)
    ends = _ends(simulate_cbi(jump_mixed, cfg))[:, 0]
    assert mc_z(ends, moments.mean(jump_mixed, [1.0], 1.0)[0]) <= 3


def test_atom_jump_counts_are_independent_poisson():
    # immigration only (c = beta = B = 0, no mu): under Euler each nu atom's
    # jump count over [0, T] is exactly Poisson(w_a T), independently of the others
    weights, points = np.array([0.9, 0.5, 0.2]), [1.0, 2.0, 0.5]
    params = CbiParams(d=1, c=[0.0], beta=[0.0], B=[[0.0]],
                       nu=JumpMeasure.from_atoms(zip(weights, [[z] for z in points])))
    cfg = PathConfig(x0=[0.0], horizon=2.0, dt=0.05, seed=5, n_paths=4000)
    paths = simulate_cbi(params, cfg)
    counts = np.array([[sum(float(z[0]) == a for _, _, z in p.jump_log) for a in points]
                       for p in paths])
    assert_close(_ends(paths)[:, 0], counts @ points, 1e-12, "state against its jump log")
    lam, n = weights * cfg.horizon, cfg.n_paths
    assert np.all(np.abs(counts.mean(axis=0) - lam) <= 4 * np.sqrt(lam / n))
    # SE of a sample covariance of independent Poisson counts: sqrt(lam_a lam_b / n)
    # off the diagonal, sqrt((lam + 2 lam^2) / n) for a variance
    se = np.sqrt(np.outer(lam, lam) / n)
    np.fill_diagonal(se, np.sqrt((lam + 2 * lam**2) / n))
    assert np.all(np.abs(np.cov(counts.T) - np.diag(lam)) <= 4 * se)


def test_laplace_matches_transform(fix_a):
    cfg = PathConfig(x0=[1.0], horizon=1.0, dt=1e-3, seed=11, n_paths=2000)
    ends = _ends(simulate_cbi(fix_a, cfg))[:, 0]
    lams = (0.3, 1.0, 3.0)
    refs = [affine.laplace_transform(fix_a, 1.0, [1.0], [lam]) for lam in lams]
    assert mc_z(np.exp(-np.outer(ends, lams)), refs) <= 3


def test_variance_matches_formula_no_immigration():
    params = CbiParams.no_jumps(c=[1.0], beta=[0.0], B=[[0.0]])
    cfg = PathConfig(x0=[1.0], horizon=1.0, dt=1e-3, seed=5, n_paths=3000)
    ends = _ends(simulate_cbi(params, cfg))[:, 0]
    assert mc_var_z(ends, moments.variance_no_immigration(params, [1.0], 1.0)[0, 0]) <= 3


def test_halving_dt_within_one_se(fix_a):
    # seeded: both runs use seed 14, so path p of each reads the same
    # stream and the two end states are correlated draws; the mean
    # difference is studentized by the standard error of the per-path
    # differences, a one-sigma check of discretization bias against Monte
    # Carlo noise
    fine = PathConfig(x0=[1.0], horizon=1.0, dt=5e-4, seed=14, n_paths=4000)
    coarse = PathConfig(x0=[1.0], horizon=1.0, dt=1e-3, seed=14, n_paths=4000)
    diff = _ends(simulate_cbi(fix_a, fine))[:, 0] - _ends(simulate_cbi(fix_a, coarse))[:, 0]
    se = math.sqrt(diff.var(ddof=1) / len(diff))
    assert abs(diff.mean()) <= se


# --- path law at two times ---------------------------------------------------------

_X0, _T1, _T2 = [1.0, 0.5], 0.5, 1.0
_LAM1, _LAM2 = np.array([0.8, 0.4]), np.array([0.5, 1.0])


def test_joint_transform_oracle_matches_fix_a_closed_form():
    # v = lam / (1 + lam t) and int_0^t psi(v) ds = log(1 + lam t) on fix_a
    params = make_fix_a()
    for x, t1, t2, lam1, lam2 in [(1.0, 0.5, 1.0, 0.8, 0.5), (2.0, 0.3, 1.7, 0.1, 3.0),
                                  (0.5, 1.2, 1.5, 2.0, 0.4)]:
        mu = lam1 + lam2 / (1 + lam2 * (t2 - t1))
        exact = math.exp(-x * mu / (1 + mu * t1)) / ((1 + mu * t1) * (1 + lam2 * (t2 - t1)))
        got = joint_laplace_two_times(params, [x], t1, t2, [lam1], [lam2])
        assert_close(got, exact, 1e-10 * exact, f"joint transform at {t1}, {t2}")


@functools.cache
def _two_time_states(name):
    """The states at t1 and t2 of 10 000 simulate_cbi paths of fixture
    `name` from x = (1, .5) in steps of 2e-3, shape (n_paths, 2, d)."""
    cfg = PathConfig(x0=_X0, horizon=_T2, dt=2e-3, seed=15, n_paths=10000)
    paths = simulate_cbi(ALL_FIXTURES[name](), cfg)
    take = [round(t / cfg.dt) for t in (_T1, _T2)]
    assert np.array_equal(paths[0].times[take], [_T1, _T2])
    return np.array([p.states[take] for p in paths])


def _two_time_z(name, states):
    emp = np.exp(-(states[:, 0] @ _LAM1 + states[:, 1] @ _LAM2))
    return mc_z(emp, joint_laplace_two_times(ALL_FIXTURES[name](), _X0, _T1, _T2,
                                             _LAM1, _LAM2))


@pytest.mark.parametrize("name", ["jump_d2", "d2_critical"])
def test_two_time_law_matches_the_joint_transform(name):
    assert _two_time_z(name, _two_time_states(name)) <= 3


@pytest.mark.parametrize("name", ["jump_d2", "d2_critical"])
def test_two_time_gate_fails_on_paths_permuted_at_t1(name):
    # pairing each X_t2 with another path's X_t1 keeps both marginal laws
    # and breaks the joint one
    states = _two_time_states(name).copy()
    states[:, 0] = states[np.random.default_rng(0).permutation(len(states)), 0]
    assert _two_time_z(name, states) > 3


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
    assert mc_z(_ends(simulate_scaled_step(fix_a, 50, cfg))[:, 0], 1.0) <= 3


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
    logs = [[] for _ in range(cfg.n_paths)]
    scalars = simulate._simulate_grid(ray, [float(dq.perron.u_left @ cfg.x0)], K,
                                      cfg.horizon / K, cfg.seed, cfg.n_paths,
                                      np.arange(K + 1), logs)
    paths = simulate_limit_diffusion(d2_critical, cfg)
    for p, path in enumerate(paths):
        assert np.array_equal(path.scalar, scalars[p, :, 0])
        assert logs[p] == []


def test_limit_diffusion_moments_fix_a(fix_a):
    # dY = dt + sqrt(2 Y^+) dW from 0: E Y_1 = 1, Var Y_1 = 1
    cfg = PathConfig(x0=[0.0], horizon=1.0, dt=1e-3, seed=14, n_paths=3000)
    ends = np.array([p.scalar[-1] for p in simulate_limit_diffusion(fix_a, cfg)])
    assert mc_z(ends, 1.0) <= 3
    assert mc_var_z(ends, 1.0) <= 3


def test_limit_diffusion_d2_drift(d2_critical):
    # <u_left, beta_tilde> = 1 and <cbar u_left, u_left> = 2 here
    cfg = PathConfig(x0=[0.0, 0.0], horizon=1.0, dt=1e-3, seed=15, n_paths=1500)
    ends = np.array([p.scalar[-1] for p in simulate_limit_diffusion(d2_critical, cfg)])
    assert mc_z(ends, 1.0) <= 3


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


def test_csv_export_refuses_no_paths():
    with pytest.raises(ValueError, match="no paths to write"):
        paths_to_csv([], io.StringIO())


def _csv(paths):
    buf = io.StringIO()
    paths_to_csv(paths, buf)
    return buf.getvalue()


def test_csv_matches_per_cell_reference_on_simulations(jump_d2, d2_critical):
    # 12 paths give two-digit path ids; the last run has 1100 steps
    cfg = PathConfig(x0=[1.0, 0.5], horizon=0.2, dt=1e-2, seed=5, n_paths=12)
    long_cfg = PathConfig(x0=[1.0, 0.5], horizon=1.1, dt=1e-3, seed=6, n_paths=2)
    for paths in (simulate_cbi(jump_d2, cfg), simulate_scaled_step(d2_critical, 3, cfg),
                  simulate_limit_diffusion(d2_critical, cfg), simulate_cbi(jump_d2, long_cfg)):
        assert _csv(paths) == paths_csv_per_cell(paths)


@pytest.mark.parametrize("states", [np.ones((5, 2)), np.ones((3, 3)), np.ones(3)])
def test_csv_export_refuses_malformed_paths_before_writing(states):
    # more rows than times (zip would drop two), a width the header lacks, 1-d states
    good = simulate.SamplePath(times=np.linspace(0.0, 1.0, 4), states=np.ones((4, 2)))
    bad = simulate.SamplePath(times=np.linspace(0.0, 1.0, 3), states=states)
    buf = io.StringIO()
    with pytest.raises(ValueError, match=re.escape(
            f"path 1: states of shape {states.shape}, not one row per time and the "
            f"header's 2 columns (3, 2)")):
        paths_to_csv([good, bad, good], buf)
    assert buf.getvalue() == ""


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
