"""Benchmark of the cbi package: four workloads, end to end and per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --all [--seed <n>] [--seconds <s>]

Run from the repository root. One run:

1. set-up: SETUP_PROBES fresh processes each import the package and build
   and validate the workload's parameters (bench/setup_probe.py);
2. warm-up: one untraced pass over the op list;
3. measure: whole passes until --seconds have gone by. With --trace 0 all
   passes are untraced and give the end-to-end metrics as medians over the
   run. With --trace 1 the first half of the time runs untraced passes and
   the second half traced ones (bench/spans.py); per-layer figures are per
   pass, and the untraced half is the base of trace.overhead_frac and
   path_steps_per_s.

Every time is rescaled to a reference host speed by a calibration kernel
timed between the ops (bench/calibration.py), set-up by the run's median
factor; the human-readable lines also print the raw wall-clock times.

Every op's result is checked (bench/oracles.py); a failed check or an
exception counts in `failed`. The last stdout line is the JSON result;
the lines before it print every metric by name with its unit and the run
context. `--all` runs every workload with both trace settings, each in its
own process, and exits 1 when any op failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from calibration import Calibrator
from spans import Recorder, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 5
#: One thread per BLAS/OpenMP pool: the matrices are at most 2x2, and the
#: workload process then uses one core of the two.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def setup_times(workload: str, env: dict) -> tuple[float, float]:
    """Median wall (setup_s, import_s) over SETUP_PROBES fresh processes.

    The caller rescales them by the run's median calibration factor, not
    by kernel runs next to each probe: a kernel run in the parent right
    after a child exits is erratic and tracks the child worse than no
    scaling at all, while the run's median follows the slow phases of the
    host, which last minutes.
    """
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
                             env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        probe = json.loads(out.stdout)
        setups.append(probe["setup_s"])
        imports.append(probe["import_s"])
    return statistics.median(setups), statistics.median(imports)


def percentile(sorted_vals: list[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least 10 of n samples beyond it; the
    median when n < 20."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n))


def one_pass(wl, recorder=None, cal=None) -> dict:
    """Run every op once, in order; time each call, then check its result.

    With a Calibrator, the kernel runs between ops when due, and each op
    notes the index of the latest kernel sample before it.
    """
    mark = recorder.mark() if recorder else None
    counters_before = Counter(wl.counters)
    latencies, cal_idx, failures = [], [], []
    for op in wl.ops:
        if cal:
            cal_idx.append(cal.mark())
        span = recorder.begin(f"op:{op.name}") if recorder else None
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an op that raises is a failed op
            result, error = None, exc
        latencies.append(time.perf_counter() - start)
        if recorder:
            recorder.end(span)
        ok = False
        if error is None:
            try:
                ok = bool(op.check(result))
            except Exception as exc:
                error = exc
        if not ok:
            failures.append(f"{op.name}: {error!r}" if error else op.name)
    out = {"latencies": latencies, "cal_idx": cal_idx, "failures": failures}
    if recorder:
        base, counters = mark
        layers = summarize(recorder.spans[base:], recorder.counters - counters, base)
        layers["cli.output_bytes"] = wl.counters["cli.output_bytes"] - counters_before["cli.output_bytes"]
        out["layers"] = layers
    return out


def run_passes(wl, seconds: float, recorder=None) -> list[dict]:
    """Whole passes until `seconds` have elapsed (at least one). Adds each
    pass's op latencies rescaled by the calibration (`scaled`) and its
    scale factor (`factor`, scaled over raw time)."""
    cal = Calibrator()
    deadline = time.perf_counter() + seconds
    passes = [one_pass(wl, recorder, cal)]
    while time.perf_counter() < deadline:
        passes.append(one_pass(wl, recorder, cal))
    cal.sample()
    for p in passes:
        p["scaled"] = [lat * cal.factor(i) for lat, i in zip(p["latencies"], p["cal_idx"])]
        p["factor"] = sum(p["scaled"]) / sum(p["latencies"])
    return passes


def pass_median(passes: list[dict], key: str = "scaled") -> float:
    return statistics.median(sum(p[key]) for p in passes)


def run_context() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_commit": commit or "unavailable (not a git checkout)"}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import BUILDERS, child_env

    env = child_env(ROOT)
    setup_s, import_s = setup_times(workload, env)
    wl = BUILDERS[workload](seed=seed, root=ROOT)
    try:
        one_pass(wl)
        if not trace:
            passes = run_passes(wl, seconds)
            traced = []
        else:
            passes = run_passes(wl, seconds / 2)
            wl.close()
            wl = BUILDERS[workload](seed=seed, root=ROOT)
            traced = _traced_passes(wl, seconds / 2, seed)
    finally:
        wl.close()

    all_passes = passes + traced
    attempted = sum(len(p["latencies"]) for p in all_passes)
    failures = [f for p in all_passes for f in p["failures"]]
    op_ms = sorted(1e3 * statistics.median(v) for v in zip(*(p["scaled"] for p in passes)))
    tail_q = tail_percentile(len(op_ms))
    pass_s = pass_median(passes)
    run_factor = statistics.median(p["factor"] for p in passes)
    raw_setup_s, setup_s, import_s = setup_s, setup_s * run_factor, import_s * run_factor
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "passes": len(passes), "ops_per_pass": len(wl.ops), "tail_percentile": tail_q,
        "raw_pass_s": pass_median(passes, "latencies"), "raw_setup_s": raw_setup_s,
        "end_to_end": {
            "setup_s": setup_s, "pass_s": pass_s,
            "op_ms_p50": percentile(op_ms, 50.0),
            "op_ms_tail": percentile(op_ms, tail_q),
            "peak_rss_mb": peak_kb / 1024.0,
        },
    }
    if trace:
        result["per_layer"] = _per_layer(traced, pass_s, import_s, failures)
        result["per_layer"]["failed_frac"] = len(failures) / attempted
        result["traced_passes"] = len(traced)
    result.update(attempted=attempted, failed=len(failures), failures=sorted(set(failures)))
    return result


def _traced_passes(wl, seconds: float, seed: int) -> list[dict]:
    recorder = Recorder()
    recorder.install()
    try:
        passes = run_passes(wl, seconds, recorder)
    finally:
        recorder.uninstall()
    trace_dir = ROOT / ".bench_build" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    recorder.dump(trace_dir / f"{wl.name}-seed{seed}.json")
    return passes


def _per_layer(traced: list[dict], pass_s: float, import_s: float,
               failures: list[str]) -> dict:
    """Median times and exact counts per traced pass (failed_frac is added
    by the caller); times are rescaled by their pass's calibration factor.
    A count that differs between passes is appended to `failures`."""
    layers = [p["layers"] for p in traced]
    out = {}
    for name in layers[0]:
        values = [lay[name] for lay in layers]
        if name.endswith("_s"):
            values = [v * p["factor"] for v, p in zip(values, traced)]
            out[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                failures.append(f"count {name} differs between traced passes: {values}")
            out[name] = values[0]
    out["import.cbi_s"] = import_s
    out["trace.overhead_frac"] = pass_median(traced) / pass_s - 1.0
    out["path_steps_per_s"] = out["simulate.path_steps"] / pass_s
    return out


def report(result: dict, spec: dict) -> dict:
    """Print the human-readable lines; return the JSON result line."""
    section = "per_layer" if result["trace"] else "end_to_end"
    values = result[section]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == result["workload"])
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}: {why}")
    print(f"  {result['passes']} untraced passes of {result['ops_per_pass']} ops "
          f"(median raw wall time {result['raw_pass_s']:.6g} s per pass, "
          f"{result['raw_setup_s']:.6g} s per set-up); "
          f"op latencies are each op's median over the passes, tail percentile "
          f"p{result['tail_percentile']:.4g} of {result['ops_per_pass']}" +
          (f"; {result['traced_passes']} traced passes" if result["trace"] else ""))
    metrics = {}
    for m in spec[section]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<26} {values[m['name']]:>16.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for f in result["failures"]:
        print(f"  FAILED {f}")
    print("context " + json.dumps(run_context(), sort_keys=True))
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_all(args, spec) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                  "--workload", w["name"], "--seed", str(args.seed),
                                  "--seconds", str(args.seconds), "--trace", str(trace)],
                                 cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = out.stdout.splitlines()
            print("\n".join(lines[:-1]) if out.returncode == 0 else out.stdout + out.stderr)
            if out.returncode != 0 or not json.loads(lines[-1])["correct"]:
                status = 1
    print("all outputs correct" if status == 0 else "FAILED: see above")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "cbi" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'cbi'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.all:
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error("--workload must name a workload of BENCHMARK.json (or use --all)")
    sys.path.insert(0, str(ROOT / "src"))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    line = report(result, spec)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
