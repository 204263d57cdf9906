"""Checks of the benchmark itself: exact counts repeat, op counts ignore the seed.

    python3 -m pytest -q bench/test_bench.py      (from the repository root)

For each workload, two traced passes built from the same seed must give
identical counts (Riccati steps and nfev, mat_exp, validate and derive
calls, jumps, path steps, output bytes, ...), and a pass built from
another seed must have the same number of ops, with every gate passing in
all three. Takes about 15 seconds.
"""
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from run import one_pass  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import BUILDERS  # noqa: E402

SEED = 11


def traced_pass(workload: str, seed: int) -> tuple[int, dict]:
    wl = BUILDERS[workload](seed=seed, root=ROOT)
    recorder = Recorder()
    recorder.install()
    try:
        result = one_pass(wl, recorder)
    finally:
        recorder.uninstall()
        wl.close()
    assert result["failures"] == []
    counts = {k: v for k, v in result["layers"].items() if not k.endswith("_s")}
    return len(wl.ops), counts


@pytest.mark.parametrize("workload", sorted(BUILDERS))
def test_counts_repeat_and_op_count_ignores_seed(workload):
    n_ops, counts = traced_pass(workload, SEED)
    assert traced_pass(workload, SEED) == (n_ops, counts)
    n_ops_other, _ = traced_pass(workload, SEED + 1)
    assert n_ops_other == n_ops
    assert sum(v for k, v in counts.items() if k.endswith(".calls")) > 0
