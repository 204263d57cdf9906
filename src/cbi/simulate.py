"""Seeded Monte Carlo simulation of CBI paths and their scaling limits.

Paths are generated by Euler-Maruyama with full truncation: drift and
diffusion coefficients are evaluated at the positive part of the state,
and the state is truncated at 0 after every update, so every emitted
state is componentwise non-negative; an update that is not finite is
refused before the truncation. Per step from state x:

    diffusion   sqrt(2 c_i max(x_i, 0)) dW_i   per coordinate,
    drift       (x^+, 1) M dt with the drift table M (B^T - diag kappa; beta),
                  kappa_i = int (1 ^ z_i) mu_i(dz) compensating the mu_i jumps,
    jumps       per atom a of the atom table (W, Z), Z[a] times a Poisson
                  count of mean (x^+, 1) W[:, a] dt frozen at the step start:
                  by colouring (Kingman 1993) the law of one compound Poisson
                  count per source with weight-proportional atoms. A source
                  whose step mean exceeds 100 is refused.

Reproducibility: each path owns a counter-based Philox stream (Salmon et
al. 2011) whose key is SeedSequence(entropy=seed, spawn_key=(path index,))
.generate_state(2, uint64), so results are bit-identical across runs and
independent of path batching. The keys of a block of paths are hashed at
once (`_philox_keys`): numpy's SeedSequence(seed).pool, the seed already
mixed, takes in each path index and is hashed out here. One Philox serves
the block: each path's stream is a saved state that is set before the path
draws and saved after. Per window of 1024 steps a path draws its normals
(steps, d), then its uniforms (steps, A), one per step and atom in the atom
table's order, both step-major; the stream is read nowhere else. The draws
land in a path-major staging buffer of STAGE paths, and one copy per
staging chunk moves them into the block's step-major buffers (steps, paths,
d) and (steps, paths, A), so that each step reads all paths' normals, and
all their uniforms, as one contiguous slab; the layout moves no draw. Jump
counts use exact inverse-CDF Poisson sampling from those uniforms, one
comparison per step for all paths and atoms of every uniform with
e^{-mean}; the CDF is walked only for those that reach it, so the walk
scales with the jumps, not the atoms.

Also provided: the step-scaled chain t -> X_{floor(nt)} / n, whose base
grid divides one unit of time so that every X_m is a grid state, and, for
critical irreducible models, the limiting scalar squared-Bessel-type
diffusion dY = <u_left, beta_tilde> dt + sqrt(<cbar u_left, u_left> Y^+) dW
embedded on the ray spanned by u_right. That diffusion is itself a
one-type CBI (`limit_ray`), so all three run through one Euler kernel.

Each public simulate_* checks the start cfg.x0 against the model's d once,
on entry, and a start it forms (n x0, <u_left, x0>) for the float range
(NumericRangeError). A first Euler step that leaves the float range does so
whatever dt is, so it is refused as the start's (NumericRangeError); a
later one asks for a smaller dt (ValueError). A run whose grid- and
path-sized arrays would exceed MAX_BYTES is refused with ValueError before
any of them is allocated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from . import moments
from .errors import ClassificationError
from .model import CbiParams
from .moments import DerivedQuantities, _finite, _point, _scale, _vector

#: Steps per randomness window (fixed so stream layout never depends on batching).
WINDOW = 1024
#: Paths whose windows are drawn into the path-major staging buffer, then
#: copied at once into a block's step-major window buffers.
STAGE = 16
#: Upper bound on the random draws a path block holds: its step-major window
#: buffers plus its staging buffer of min(STAGE, paths) windows.
DRAW_BUDGET = 12_000_000
#: Upper bound on the estimated bytes of a run's arrays sized by its grid or
#: path count (see `_check_size`); a larger run is refused up front.
MAX_BYTES = 2 * 2**30


@dataclass(frozen=True, eq=False)
class PathConfig:
    """Simulation request: start, horizon, step, seed (a non-negative int),
    path count (a positive int)."""

    x0: np.ndarray
    horizon: float
    dt: float
    seed: int
    n_paths: int

    def __post_init__(self):
        object.__setattr__(self, "x0", _vector(self.x0, "x0"))
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if not 0 < self.dt < self.horizon:  # False for a NaN dt
            raise ValueError(f"dt must satisfy 0 < dt < horizon, got dt={self.dt}")
        # range() would refuse a float only deep in the kernel, and take a bool as 0 or 1
        if (isinstance(self.n_paths, bool) or not isinstance(self.n_paths, (int, np.integer))
                or self.n_paths < 1):
            raise ValueError(f"n_paths must be an integer >= 1, got {self.n_paths!r}")
        object.__setattr__(self, "n_paths", int(self.n_paths))
        # SeedSequence's own refusal, and for the floats and bools it would take as ints
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ValueError("expected non-negative integer")
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True, eq=False)
class SamplePath:
    """One simulated path on a fixed grid; states are componentwise >= 0.

    jump_log holds (time, source, point) per jump, in atom order within a
    step: the step's right end, "immigration" or "branching-i" (1-based
    type), and the atom's table row, one read-only array for all its jumps.
    For the limiting diffusion, `scalar` carries the 1-d path whose ray
    embedding is in `states`.
    """

    times: np.ndarray
    states: np.ndarray
    jump_log: tuple = field(default=())
    scalar: np.ndarray | None = None


_MASK32 = 0xFFFFFFFF


def _philox_keys(seed: int, p0: int, p1: int) -> np.ndarray:
    """The Philox keys SeedSequence(entropy=seed, spawn_key=(p,))
    .generate_state(2, np.uint64) of the paths p0 <= p < p1, shape (P, 2).

    numpy's SeedSequence hash (O'Neill's seed_seq_fe) on 32-bit words starts
    from the pool that SeedSequence(seed) mixed, its hash constant advanced
    past numpy's hashmix calls: four per seed word, counting at least four
    words. The path index, the last entropy word, is mixed into each pool word
    for the whole block at once, then the pool is hashed out, as uint64
    arrays held to 32 bits (wrap-around mod 2**64 keeps each word mod 2**32).
    Indices of 2**32 and up would take a second spawn-key word and are refused.
    """
    if p1 > 2**32:
        raise ValueError(f"path index {p1 - 1} is not below 2**32")
    calls = 4 * max(4, -(-seed.bit_length() // 32))
    hash_a = np.array([0x43b0d7e5 * pow(0x931e8875, calls + i, 2**32) & _MASK32
                       for i in range(5)], dtype=np.uint64)
    hash_b = np.array([0x8b51f9dd * pow(0x58f38ded, i, 2**32) & _MASK32
                       for i in range(5)], dtype=np.uint64)
    word = (np.arange(p0, p1, dtype=np.uint64)[:, None] ^ hash_a[:4]) * hash_a[1:] & _MASK32
    pool = (0xca01f9dd * np.random.SeedSequence(seed).pool.astype(np.uint64)
            - 0x4973f715 * (word ^ word >> 16)) & _MASK32
    pool ^= pool >> 16
    state = (pool ^ hash_b[:4]) * hash_b[1:] & _MASK32
    state ^= state >> 16
    return np.stack([state[:, 0] | state[:, 1] << 32, state[:, 2] | state[:, 3] << 32], axis=1)


def _check_intensity(mean_max) -> None:
    """Refuse a per-step jump mean above 100: a first-order jump scheme needs
    rate*dt << 1 and a violation that large indicates a far-too-coarse step."""
    if mean_max > 100:
        raise ValueError(f"per-step jump intensity {mean_max:.3g} too large; decrease dt")


def _poisson_walk(u: np.ndarray, mean: np.ndarray, pmf0: np.ndarray) -> list[int]:
    """The inverse-CDF Poisson counts, each at least 1, of uniforms u that
    reach their pmf(0) = e^{-mean}, pmf0; 1-d arrays of one length."""
    counts = []
    # Python float arithmetic is numpy's elementwise float64 arithmetic, bit
    # for bit; pmf(0) comes from np.exp, which may differ from math.exp
    for ui, m, pmf_k in zip(u.tolist(), mean.tolist(), pmf0.tolist()):
        cdf, k, k_max = pmf_k, 0, 10 * max(1.0, m) + 200
        # past its cutoff an element's cdf has saturated (tail mass ~ 0)
        while ui >= cdf and k <= k_max:
            k += 1
            pmf_k = pmf_k * m / k
            cdf = cdf + pmf_k
        counts.append(k)
    return counts


def _void_rows(a: np.ndarray) -> np.ndarray:
    """A view of a C-contiguous array without its last axis: each row along
    that axis is one void element of the same bytes."""
    return a.view(np.dtype((np.void, a.itemsize * a.shape[-1])))[..., 0]


# an overflowing state is refused below by the kernel's own ValueError
@np.errstate(over="ignore", invalid="ignore")
def _simulate_grid(dq: DerivedQuantities, x0: np.ndarray, K: int, h: float,
                   seed: int, n_paths: int, record_idx: np.ndarray | list[int],
                   jump_logs: list[list] | None = None) -> np.ndarray:
    """Shared full-truncation Euler grid kernel, vectorized over path blocks.

    Returns the states at the grid indices `record_idx` (distinct, from 0:
    the start is always recorded), shape (n_paths, len(record_idx), d), and
    fills each path's list of jump_logs, if given. The states are a
    path-major view of a step-major buffer: a recorded step's new state is
    truncated straight into its (P, d) slab of a block, any other into one
    scratch array. Once the start is truncated the state is its own positive
    part, since np.maximum(., 0.0) is idempotent bit for bit.

    Each path draws its window (module docstring) into a staging buffer of
    STAGE paths, path-major as the stream lays them out; one copy per
    staging chunk moves them into the block's step-major (steps, P, d)
    normals and (steps, P, A) uniforms, so that a step reads each as one
    contiguous (P, d) or (P, A) slab.

    A jump step compares the step's uniforms with e^{-mean} in place and
    walks the CDF (`_poisson_walk`) only for the uniforms that reach it,
    each of which counts at least 1: those are the jumps it logs.
    """
    params = dq.params
    d = params.d
    M = dq.drift_table
    sqrt_h = math.sqrt(h)
    # atom a of the table (see DerivedQuantities) jumps by Z[a] at step mean
    # (x, 1) W[:, a] h; the intensity cap holds per source, a row of W
    W, Z = dq.atom_weights, dq.atom_points
    A, Wh = len(Z), W * h
    M_x, Wh_x = M[:d], Wh[:d]  # the rows that multiply x
    nu_rate, type_rates = W[d].sum() * h, W[:d].sum(axis=1) * h
    sources = [("immigration" if i == d else f"branching-{i + 1}", Z[a])
               for a, i in enumerate(W.argmax(axis=0).tolist())]

    rec_slot = np.full(K + 1, -1)
    rec_slot[record_idx] = np.arange(len(record_idx))

    states_rec = np.empty((len(record_idx), n_paths, d))

    # a block of P paths holds P + min(STAGE, P) windows
    fit = int(DRAW_BUDGET / (WINDOW * (d + A)))
    block = max(1, fit - STAGE, fit // 2)
    # one set of window buffers for the first, largest, block; a smaller last
    # block uses their first paths, so one block's draws are held at a time
    paths, steps = min(block, n_paths), min(WINDOW, K)
    stage_n, all_normals = np.empty((min(STAGE, paths), steps, d)), np.empty((steps, paths, d))
    stage_u, all_uniforms = np.empty((min(STAGE, paths), steps, A)), np.empty((steps, paths, A))

    for p0 in range(0, n_paths, block):
        p1 = min(p0 + block, n_paths)
        P = p1 - p0
        # one Philox for the block; each path's stream is its saved state
        rng = np.random.Generator(np.random.Philox(key=0))
        bitgen = rng.bit_generator
        streams = [{"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
                    "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
                   for key in _philox_keys(seed, p0, p1).tolist()]
        x = np.tile(x0, (P, 1))
        states_rec[0, p0:p1] = x
        scratch = np.maximum(x, 0.0, out=x)
        # every operand of the step as a (P, d) or (P, A) array, so that each
        # ufunc runs flat: a broadcast operand costs a few us per call
        beta, c2 = np.tile(M[d], (P, 1)), np.tile(2.0 * params.c, (P, 1))
        h_tile, zero = np.full((P, d), h), np.zeros((P, d))
        nu_mean, rates = np.tile(Wh[d], (P, 1)), np.tile(type_rates, (P, 1))
        x_new, noise, mean = np.empty((P, d)), np.empty((P, d)), np.empty((P, A))
        source_mean, pmf0 = np.empty((P, d)), np.empty((P, A))
        reach, counts = np.empty((P, A), dtype=bool), np.zeros((P, A), dtype=np.int64)
        # the staging copies run on views that make one step's d (or A) draws
        # a single void element: a plain transposing copy runs d-long loops
        chunk, normals, uniforms = min(STAGE, P), all_normals[:, :P], all_uniforms[:, :P]
        copies = [(_void_rows(normals), _void_rows(stage_n))]
        if A:
            copies.append((_void_rows(uniforms), _void_rows(stage_u)))

        for w0 in range(0, K, WINDOW):
            width = min(WINDOW, K - w0)
            keep = w0 + WINDOW < K  # a later window reads on from here
            for c0 in range(0, P, chunk):
                c1 = min(c0 + chunk, P)
                for pj in range(c0, c1):
                    bitgen.state = streams[pj]
                    rng.standard_normal(out=stage_n[pj - c0, :width])
                    if A:
                        rng.random(out=stage_u[pj - c0, :width])
                    if keep:
                        streams[pj] = bitgen.state
                for window, stage in copies:
                    np.copyto(window[:width, c0:c1], stage[:c1 - c0, :width].T)
            np.multiply(normals[:width], sqrt_h, out=normals[:width])

            for kw in range(width):
                k = w0 + kw
                # x_new = (x + h * (beta + x @ M[:d])) + sqrt(c2 * x) * (sqrt_h * normal)
                np.matmul(x, M_x, out=x_new)
                np.add(beta, x_new, out=x_new)
                np.multiply(h_tile, x_new, out=x_new)
                np.add(x, x_new, out=x_new)
                np.multiply(c2, x, out=noise)
                np.sqrt(noise, out=noise)
                np.multiply(noise, normals[kw], out=noise)
                np.add(x_new, noise, out=x_new)

                if A:
                    np.multiply(x, rates, out=source_mean)
                    _check_intensity(max(nu_rate, np.fmax.reduce(source_mean, axis=None)))
                    np.matmul(x, Wh_x, out=mean)
                    np.add(mean, nu_mean, out=mean)
                    # the cap per source caps each atom (an atom's mean is >= 0, one
                    # rounded product no larger than its source's); a uniform below
                    # e^{-mean} counts 0, any other at least 1
                    np.negative(mean, out=pmf0)
                    np.exp(pmf0, out=pmf0)
                    hits = np.flatnonzero(np.greater_equal(uniforms[kw], pmf0, out=reach))
                    if len(hits):
                        n_jumps = _poisson_walk(np.take(uniforms[kw], hits), np.take(mean, hits),
                                                np.take(pmf0, hits))
                        np.put(counts, hits, n_jumps)
                        # dense: the row sum over a path's atoms fixes the bits
                        x_new += counts @ Z
                        np.put(counts, hits, 0)
                        if jump_logs is not None:
                            rows, atoms = np.divmod(hits, A)
                            t = (k + 1) * h
                            for pj, a, n in zip((p0 + rows).tolist(), atoms.tolist(), n_jumps):
                                jump_logs[pj] += [(t, *sources[a])] * n

                # before truncation, which would turn -inf into 0; a finite sum
                # has only finite terms, and one that overflows is checked exactly
                if (not math.isfinite(np.add.reduce(x_new, axis=None))
                        and not np.isfinite(x_new).all()):
                    if k == 0:  # whatever dt is: the start itself is too large
                        _finite(x_new, "the first Euler step from the start")
                    raise ValueError(f"non-finite state at step {k + 1}; decrease dt")
                slot = rec_slot[k + 1]
                x = states_rec[slot, p0:p1] if slot >= 0 else scratch
                np.maximum(x_new, zero, out=x)

    return states_rec.transpose(1, 0, 2)


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
    x0 = _point(dq, cfg.x0, "x0")
    K, h = _grid(cfg.horizon, cfg.dt)
    _check_size(cfg.n_paths, cfg.n_paths * (K + 1) * dq.params.d, K + 1)
    logs = [[] for _ in range(cfg.n_paths)]
    states = _simulate_grid(dq, x0, K, h, cfg.seed, cfg.n_paths, np.arange(K + 1), logs)
    times = np.linspace(0.0, cfg.horizon, K + 1)
    return [SamplePath(times=times, states=states_p, jump_log=tuple(log))
            for states_p, log in zip(states, logs)]


def scaled_last_index(n: int, horizon: float) -> int:
    """M = floor(n T): the base chain's last state in the step-scaled chain
    on [0, T] is X_M."""
    if not math.isfinite(n * horizon):
        raise ValueError(f"horizon {horizon} scaled by n = {n} overflows the step count")
    return int(math.floor(n * horizon + 1e-9))


def simulate_scaled_step(params: CbiParams | DerivedQuantities, n: int,
                         cfg: PathConfig) -> list[SamplePath]:
    """Simulate the step-scaled chain t -> X_{floor(nt)} / n on [0, horizon].

    cfg.x0 is the *scaled* start, so the base chain starts at n * x0 and
    runs floor(n T) units of time (`scaled_last_index`) with cfg.dt rounded
    to divide one unit, so that every X_m is a state of its grid; the
    emitted path is the piecewise-constant scaled step function on the
    output grid. The emitted jump_log is empty (the path is a derived step
    function).
    """
    n = _scale(n)
    dq = moments.derive(params)
    x0 = _point(dq, cfg.x0, "x0")
    per_unit, h = _grid(1.0, cfg.dt)
    K_base = scaled_last_index(n, cfg.horizon) * per_unit
    K_out, _ = _grid(cfg.horizon, cfg.dt)
    # base states recorded at, and scaled states returned on, the output grid
    _check_size(cfg.n_paths, 2 * cfg.n_paths * (K_out + 1) * dq.params.d,
                K_base + K_out + 2)
    times = np.linspace(0.0, cfg.horizon, K_out + 1)
    # linspace ends at the horizon itself, so m_of_t ends at scaled_last_index
    m_of_t = np.floor(float(n) * times + 1e-9).astype(int)
    m_values, take = np.unique(m_of_t, return_inverse=True)
    # as Python ints: per_unit may pass int64 when no unit is reached (n T < 1)
    record_idx = [m * per_unit for m in m_values.tolist()]
    with np.errstate(over="ignore"):  # a huge x0: _finite reports it
        start = _finite(float(n) * x0, "start n * x0")
    base_states = _simulate_grid(dq, start, K_base, h, cfg.seed, cfg.n_paths, record_idx)
    return [SamplePath(times=times, states=states_p)
            for states_p in base_states[:, take] / float(n)]


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
    x0 = _point(dq, cfg.x0, "x0")
    ray = limit_ray(dq)
    d = dq.params.d
    K, h = _grid(cfg.horizon, cfg.dt)
    _check_size(cfg.n_paths, cfg.n_paths * (K + 1) * (1 + d), K + 1)
    with np.errstate(over="ignore"):  # a huge x0: _finite reports it
        start = _finite(float(dq.perron.u_left @ x0), "start <u_left, x0>")
    scalars = _simulate_grid(ray, [start], K, h, cfg.seed, cfg.n_paths, np.arange(K + 1))
    times = np.linspace(0.0, cfg.horizon, K + 1)
    # a path's states are np.outer(its scalar, u_right): the same elementwise products
    return [SamplePath(times=times, states=states_p, scalar=scalar_p[:, 0])
            for states_p, scalar_p in zip(scalars * dq.perron.u_right, scalars)]


def paths_to_csv(paths: list[SamplePath], out: TextIO) -> None:
    """Write paths as CSV rows path_id, t, x_1, ..., x_d.

    Each cell is Python's `repr` of the float (the shortest string that
    round-trips), so `float(cell)` returns the stored value exactly and the
    bytes are stable. A time grid is formatted once, for the run of paths
    that share it, into a template of rows `<id>,<repr(t)>` followed by d
    `,%r` cells (`%r` is `repr`); each path is one write of that template
    with its id filled in and its states as the cells. An empty list, or a
    path whose state rows do not match its times or whose width is not the
    first path's, is refused before anything is written.
    """
    if not paths:
        raise ValueError("no paths to write")
    d = np.shape(paths[0].states)[-1]
    for pid, path in enumerate(paths):
        if np.shape(path.states) != (len(path.times), d):
            raise ValueError(f"path {pid}: states of shape {np.shape(path.states)}, not one row "
                             f"per time and the header's {d} columns ({len(path.times)}, {d})")
    out.write("path_id,t," + ",".join(f"x_{i + 1}" for i in range(d)) + "\n")
    cells = ",%r" * d + "\n"
    grid = template = None
    for pid, path in enumerate(paths):
        if path.times is not grid:
            grid = path.times
            # NUL marks the id: no float repr holds it, nor a '%'
            template = "".join([f"\0,{t!r}{cells}"
                                for t in np.asarray(grid, dtype=float).tolist()])
        states = np.asarray(path.states, dtype=float).ravel().tolist()
        out.write(template.replace("\0", str(pid)) % tuple(states))
