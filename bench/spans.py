"""Span recorder for the traced run, kept entirely in the benchmark's files.

`Recorder.install` wraps every public function defined in a layer module
at every binding inside the package's module namespaces: `validate` is
imported into affine, moments, simulate and cli, and each of those names
is rebound to the same wrapper, so every call is seen whichever module
makes it. Spans (name, start, end, parent) are kept in memory and written
out at the end; a span's self time is its duration minus the time covered
by its direct children. Nothing inside the package is modified on disk.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

#: The layers are the package modules plus `import`, which no pass does:
#: its self time and calls stay 0, and the set-up probes time it
#: (`import.cbi_s`, bench/setup_probe.py).
LAYERS = ("import", "model", "matops", "moments", "affine", "generators",
          "simulate", "cli")
_MODULES = {f"cbi.{name}" for name in LAYERS[1:]}


def _count_solve_v(args, kwargs, sol, counters):
    counters["affine.riccati_steps"] += int(sol.solver_stats["steps"])
    counters["affine.riccati_nfev"] += int(sol.solver_stats["nfev"])


def _count_paths(args, kwargs, paths, counters):
    counters["simulate.path_steps"] += sum(len(p.times) - 1 for p in paths)
    counters["simulate.jumps"] += sum(len(p.jump_log) for p in paths)


def _count_scaled(args, kwargs, paths, counters):
    # The base chain runs n * horizon with step dt, whatever the output grid.
    n, cfg = args[1], args[2]
    counters["simulate.path_steps"] += max(1, round(n * cfg.horizon / cfg.dt)) * cfg.n_paths


#: Counters read from the return value of a call (deterministic for a seed).
HOOKS = {
    "affine.solve_v": _count_solve_v,
    "simulate.simulate_cbi": _count_paths,
    "simulate.simulate_limit_diffusion": _count_paths,
    "simulate.simulate_scaled_step": _count_scaled,
}


class Recorder:
    """In-memory spans plus return-value counters for one process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                hook(args, kwargs, result, self.counters)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        """Rebind each public layer function in every loaded cbi module."""
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "cbi" and not modname.startswith("cbi."):
                continue
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ not in _MODULES):
                    continue
                if value not in wrappers:
                    layer = value.__module__.rsplit(".", 1)[1]
                    wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                setattr(module, attr, wrappers[value])
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def mark(self) -> tuple[int, Counter]:
        """A position to summarize from later (span count and counters so far)."""
        return len(self.spans), Counter(self.counters)

    def dump(self, path) -> None:
        """Write spans and counters."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def summarize(spans: list[list], counters: Counter, base: int = 0) -> dict:
    """Per-layer self time and calls plus the named per-function figures.

    `spans` is the recorder's list from index `base` on. Spans whose name
    has no layer prefix (the benchmark's own op spans) count towards no
    layer.
    """
    child = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= base:
            child[parent - base] += end - start
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    fn_time = defaultdict(float)
    fn_calls = Counter()
    for idx, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if layer not in LAYERS:
            continue
        out[f"{layer}.self_s"] += (end - start) - child[idx]
        out[f"{layer}.calls"] += 1
        fn_time[name] += end - start
        fn_calls[name] += 1
    out["model.validate_calls"] = fn_calls["model.validate"]
    out["moments.derive_calls"] = fn_calls["moments.derive"]
    out["matops.mat_exp_calls"] = fn_calls["matops.mat_exp"]
    out["affine.solve_v_calls"] = fn_calls["affine.solve_v"]
    out["affine.solve_v_s"] = fn_time["affine.solve_v"]
    out["simulate.poisson_calls"] = fn_calls["simulate.poisson_from_uniform"]
    out["simulate.poisson_s"] = fn_time["simulate.poisson_from_uniform"]
    out["simulate.paths_to_csv_s"] = fn_time["simulate.paths_to_csv"]
    for name in ("affine.riccati_steps", "affine.riccati_nfev",
                 "simulate.path_steps", "simulate.jumps"):
        out[name] = int(counters[name])
    return out
