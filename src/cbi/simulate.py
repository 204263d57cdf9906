"""Seeded Monte Carlo simulation of CBI paths and their scaling limits.

Paths are generated by Euler-Maruyama with full truncation: drift and
diffusion coefficients are evaluated at the positive part of the state,
and the state is truncated at 0 after every update, so every emitted
state is componentwise non-negative. Per step from state x:

    diffusion   sqrt(2 c_i max(x_i, 0)) dW_i   per coordinate,
    drift       ( beta + B x - diag(int (1 ^ z_i) mu_i(dz)) x ) dt
                  (the drift compensates the mu_i jump terms),
    immigration compound Poisson with rate nu(U_d), atoms weight-proportional,
    branching   per type i, Poisson with frozen rate x_i mu_i(U_d) within
                  the step, atoms weight-proportional.

Reproducibility: each path owns a counter-based Philox substream keyed by
(seed, path index), so results are bit-identical across runs and
independent of path batching; randomness is consumed in fixed windows of
1024 steps. Jump counts use exact inverse-CDF Poisson sampling from
per-(path, step, source) uniforms.

Also provided: the step-scaled chain t -> X_{floor(nt)} / n and, for
critical irreducible models, the limiting scalar squared-Bessel-type
diffusion dY = <u_left, beta_tilde> dt + sqrt(<cbar u_left, u_left> Y^+) dW
embedded on the ray spanned by u_right. That diffusion is itself a
one-type CBI (`limit_ray`), so all three run through one Euler kernel.

A run whose grid- and path-sized arrays would exceed MAX_BYTES is refused
with ValueError before any of them is allocated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from . import moments
from .errors import ClassificationError
from .model import CbiParams
from .moments import DerivedQuantities

#: Steps per randomness window (fixed so stream layout never depends on batching).
WINDOW = 1024
#: Upper bound on simultaneously held random draws (per path block).
DRAW_BUDGET = 12_000_000
#: Upper bound on the estimated bytes of a run's arrays sized by its grid or
#: path count (see `_check_size`); a larger run is refused up front.
MAX_BYTES = 2 * 2**30


@dataclass(frozen=True, eq=False)
class PathConfig:
    """Simulation request: start, horizon, step, seed, path count."""

    x0: np.ndarray
    horizon: float
    dt: float
    seed: int
    n_paths: int

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if not 0 < self.dt < self.horizon:  # False for a NaN dt
            raise ValueError(f"dt must satisfy 0 < dt < horizon, got dt={self.dt}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")


@dataclass(frozen=True, eq=False)
class SamplePath:
    """One simulated path on a fixed grid; states are componentwise >= 0.

    jump_log records (time, source, jump vector) with source "immigration"
    or "branching-i" (1-based type); jumps are stamped with the right
    endpoint of the step they occurred in. For the limiting diffusion,
    `scalar` carries the 1-d path whose ray embedding is in `states`.
    """

    times: np.ndarray
    states: np.ndarray
    jump_log: tuple = field(default=())
    scalar: np.ndarray | None = None


def _path_rng(seed: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.Philox(ss))


def poisson_from_uniform(u: np.ndarray, mean) -> np.ndarray:
    """Exact inverse-CDF Poisson sampling driven by uniforms in [0, 1).

    Vectorized over elements; `mean` broadcasts against `u`. Means above
    100 are rejected: a first-order jump scheme needs rate*dt << 1 and a
    violation that large indicates a far-too-coarse step.
    """
    u = np.asarray(u, dtype=float)
    mean_arr = np.broadcast_to(np.asarray(mean, dtype=float), u.shape)
    # fmin/fmax skip NaN means, as the elementwise comparisons did
    if np.fmin.reduce(mean_arr, axis=None) < 0:
        raise ValueError("Poisson mean must be >= 0")
    if np.fmax.reduce(mean_arr, axis=None) > 100:
        raise ValueError(
            f"per-step jump intensity {mean_arr.max():.3g} too large; decrease dt")
    pmf = np.exp(-mean_arr)
    pending = u >= pmf
    if not pending.any():  # the common case at small rate*dt
        return np.zeros(u.shape, np.int64)
    cdf = pmf
    counts = np.zeros(u.shape, dtype=np.int64)
    k = 0
    k_max = int(10 * max(1.0, float(mean_arr.max())) + 200)
    while pending.any():
        k += 1
        if k > k_max:  # cdf saturated in floating point; tail mass ~ 0
            counts[pending] = k
            break
        pmf = pmf * mean_arr / k
        cdf = cdf + pmf
        counts[pending] = k
        pending = u >= cdf
    return counts


def _simulate_grid(dq: DerivedQuantities, x0: np.ndarray, K: int, h: float,
                   seed: int, n_paths: int, record_idx: np.ndarray):
    """Shared full-truncation Euler grid kernel, vectorized over path blocks.

    Returns states recorded at the grid indices `record_idx` (shape
    (n_paths, len(record_idx), d)) and per-path jump logs.
    """
    params = dq.params
    d = params.d
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (d,):
        raise ValueError(f"x0 must have length d={d}, got shape {x0.shape}")
    c2 = 2.0 * params.c
    B_T = params.B.T.copy()
    beta = params.beta
    kappa = dq.kappa
    sqrt_h = math.sqrt(h)
    # jump sources in draw order: (label, type i or None for immigration,
    # per-step rate (per unit of x_i), cumulative atom weights, atoms)
    sources = [(label, i, m.total_mass * h, np.cumsum(m.weights) / m.total_mass, m.points)
               for label, i, m in [("immigration", None, params.nu),
                                   *((f"branching-{i + 1}", i, m)
                                     for i, m in enumerate(params.mu))]
               if m.natoms]

    record_idx = np.asarray(record_idx, dtype=int)
    rec_flag = np.zeros(K + 1, dtype=bool)
    rec_flag[record_idx] = True
    rec_slot = np.cumsum(rec_flag) - 1

    states_rec = np.empty((n_paths, int(rec_flag.sum()), d))
    jump_logs: list[list] = [[] for _ in range(n_paths)]

    block = max(1, int(DRAW_BUDGET / (WINDOW * (d + len(sources)))))

    for p0 in range(0, n_paths, block):
        p1 = min(p0 + block, n_paths)
        P = p1 - p0
        rngs = [_path_rng(seed, p) for p in range(p0, p1)]
        x = np.tile(x0, (P, 1))
        if rec_flag[0]:
            states_rec[p0:p1, 0, :] = x

        for w0 in range(0, K, WINDOW):
            width = min(WINDOW, K - w0)
            normals = np.empty((P, width, d))
            uniforms = np.empty((P, len(sources), width))
            for pj, rng in enumerate(rngs):
                normals[pj] = rng.standard_normal((width, d))
                uniforms[pj] = rng.random((len(sources), width))

            for kw in range(width):
                k = w0 + kw
                t_next = (k + 1) * h
                xp = np.maximum(x, 0.0)
                x_new = (x + h * (beta + xp @ B_T - xp * kappa)
                         + np.sqrt(c2 * xp) * (sqrt_h * normals[:, kw, :]))

                for s, (label, i, rate, cum, points) in enumerate(sources):
                    counts = poisson_from_uniform(uniforms[:, s, kw],
                                                  rate if i is None else rate * xp[:, i])
                    for pj in np.nonzero(counts)[0]:
                        for _ in range(int(counts[pj])):
                            a = np.searchsorted(cum, rngs[pj].random(), side="right")
                            z = points[min(a, len(cum) - 1)]
                            x_new[pj] += z
                            jump_logs[p0 + pj].append((t_next, label, z.copy()))

                x = np.maximum(x_new, 0.0)
                if not np.all(np.isfinite(x)):
                    raise ValueError(f"non-finite state at step {k + 1}; decrease dt")
                if rec_flag[k + 1]:
                    states_rec[p0:p1, rec_slot[k + 1], :] = x

    return states_rec, jump_logs


def _grid(horizon: float, dt: float) -> tuple[int, float]:
    """Round dt to divide the horizon evenly; returns (K, step)."""
    if not math.isfinite(horizon / dt):
        raise ValueError(f"horizon {horizon} in steps of {dt} overflows the step count")
    K = max(1, int(round(horizon / dt)))
    return K, horizon / K


def _check_size(n_paths: int, n_values: int, n_points: int) -> None:
    """Refuse a run whose estimate exceeds MAX_BYTES: 8 bytes per float state
    returned or recorded, 32 per grid point (its time and index entries) and
    512 per path (its objects; 260-390 measured). Logged jumps are not counted."""
    need = 8 * n_values + 32 * n_points + 512 * n_paths
    if need > MAX_BYTES:
        gib = need / 2**30 if need < 2**1000 else math.inf  # the quotient would overflow
        raise ValueError(f"simulation would hold about {gib:.3g} GiB of path and "
                         f"grid arrays, above the cap of {MAX_BYTES / 2**30:g} GiB")


def simulate_cbi(params: CbiParams | DerivedQuantities, cfg: PathConfig) -> list[SamplePath]:
    """Simulate CBI paths on the grid 0, dt, ..., horizon."""
    dq = moments.derive(params)
    K, h = _grid(cfg.horizon, cfg.dt)
    _check_size(cfg.n_paths, cfg.n_paths * (K + 1) * dq.params.d, K + 1)
    states, logs = _simulate_grid(dq, cfg.x0, K, h, cfg.seed, cfg.n_paths,
                                  np.arange(K + 1))
    times = np.linspace(0.0, cfg.horizon, K + 1)
    return [SamplePath(times=times, states=states[p], jump_log=tuple(logs[p]))
            for p in range(cfg.n_paths)]


def scaled_last_index(n: int, horizon: float) -> int:
    """M = floor(n T): the base chain's last state in the step-scaled chain
    on [0, T] is X_M."""
    return int(math.floor(n * horizon + 1e-9))


def simulate_scaled_step(params: CbiParams | DerivedQuantities, n: int,
                         cfg: PathConfig) -> list[SamplePath]:
    """Simulate the step-scaled chain t -> X_{floor(nt)} / n on [0, horizon].

    cfg.x0 is the *scaled* start, so the base chain starts at n * x0 and
    runs to horizon n * T with step cfg.dt; the emitted path is the
    piecewise-constant scaled step function on the output grid. The
    emitted jump_log is empty (the path is a derived step function).
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    dq = moments.derive(params)
    K_base, h = _grid(n * cfg.horizon, cfg.dt)
    K_out, _ = _grid(cfg.horizon, cfg.dt)
    # base states recorded at, and scaled states returned on, the output grid
    _check_size(cfg.n_paths, 2 * cfg.n_paths * (K_out + 1) * dq.params.d,
                K_base + K_out + 2)
    times = np.linspace(0.0, cfg.horizon, K_out + 1)
    m_of_t = np.minimum(np.floor(float(n) * times + 1e-9).astype(int),
                        scaled_last_index(n, cfg.horizon))
    base_idx = np.minimum(np.round(m_of_t / h).astype(int), K_base)
    record_idx, take = np.unique(base_idx, return_inverse=True)
    base_states, _ = _simulate_grid(dq, float(n) * cfg.x0, K_base, h,
                                    cfg.seed, cfg.n_paths, record_idx)
    return [SamplePath(times=times, states=base_states[p][take] / float(n))
            for p in range(cfg.n_paths)]


def limit_ray(params: CbiParams | DerivedQuantities) -> DerivedQuantities:
    """The limiting ray diffusion dY = <u_left, beta_tilde> dt
    + sqrt(<cbar u_left, u_left> Y^+) dW of a critical irreducible model,
    as the one-type CBI with c = <cbar u_left, u_left> / 2,
    beta = <u_left, beta_tilde>, B = 0 and no jumps (Kawazu & Watanabe 1971).

    Raises ClassificationError for any other model.
    """
    dq = moments.derive(params)
    if dq.classification != moments.CRITICAL:
        raise ClassificationError(
            f"limit diffusion requires a critical irreducible model, got "
            f"'{dq.classification}'")
    u_left = dq.perron.u_left
    return moments.derive(CbiParams.no_jumps(
        c=[0.5 * float(u_left @ (dq.cbar @ u_left))],
        beta=[float(u_left @ dq.beta_tilde)], B=[[0.0]]))


def simulate_limit_diffusion(params: CbiParams | DerivedQuantities,
                             cfg: PathConfig) -> list[SamplePath]:
    """Simulate the limiting ray diffusion of a critical irreducible model.

    The scalar component is the one-type CBI `limit_ray` started from
    Y_0 = <u_left, x0> (0 for the canonical start), run by the CBI kernel;
    states carry the embedding Y_t * u_right and `scalar` the 1-d path.
    """
    dq = moments.derive(params)
    ray = limit_ray(dq)
    d = dq.params.d
    if cfg.x0.shape != (d,):
        raise ValueError(f"x0 must have length d={d}, got shape {cfg.x0.shape}")
    K, h = _grid(cfg.horizon, cfg.dt)
    _check_size(cfg.n_paths, cfg.n_paths * (K + 1) * (1 + d), K + 1)
    scalars, _ = _simulate_grid(ray, [float(dq.perron.u_left @ cfg.x0)], K, h,
                                cfg.seed, cfg.n_paths, np.arange(K + 1))
    times = np.linspace(0.0, cfg.horizon, K + 1)
    u_right = dq.perron.u_right
    return [SamplePath(times=times, states=np.outer(scalars[p, :, 0], u_right),
                       scalar=scalars[p, :, 0])
            for p in range(cfg.n_paths)]


def paths_to_csv(paths: list[SamplePath], out: TextIO) -> None:
    """Write paths as CSV rows path_id, t, x_1, ..., x_d.

    Each cell is Python's `repr` of the float (the shortest string that
    round-trips), so `float(cell)` returns the stored value exactly and the
    bytes are stable. A time grid is formatted once for the run of paths
    that share it; each path is one write.
    """
    d = paths[0].states.shape[1]
    out.write("path_id,t," + ",".join(f"x_{i + 1}" for i in range(d)) + "\n")
    grid = heads = None
    for pid, path in enumerate(paths):
        if path.times is not grid:
            grid = path.times
            heads = [f"{t!r}," for t in np.asarray(grid, dtype=float).tolist()]
        lead = f"{pid},"
        rows = np.asarray(path.states, dtype=float).tolist()
        out.write("".join([lead + head + ",".join(map(repr, row)) + "\n"
                           for head, row in zip(heads, rows)]))
