#!/usr/bin/env python3
"""Tabulate discrete-generator convergence and divergence on the stock fixtures.

Reproduces the convergence dichotomy at desk scale: on the critical
two-type model the corrected sequence always reaches its closed-form
limit, while the raw sequence converges only when <lam, x> equals
<lam, exp(btilde) x> (in particular on the Perron ray). The verdict is that
criterion; the CSV columns show the sequences it predicts. Writes one CSV
per case and prints the verdict table.
"""
import argparse
import sys
from pathlib import Path

import numpy as np

try:
    import cbi
except ImportError:  # running from a source checkout without installation
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import cbi


def fixtures():
    fix_a = cbi.CbiParams.no_jumps(c=[1.0], beta=[1.0], B=[[0.0]])
    d2 = cbi.CbiParams.no_jumps(c=[1.0, 1.0], beta=[1.0, 0.0],
                                B=[[-1.0, 1.0], [1.0, -1.0]])
    return {"scalar_critical": fix_a, "two_type_critical": d2}


CASES = {
    "scalar_critical": [([2.0], [1.0]), ([0.5], [3.0])],
    "two_type_critical": [
        ([0.5, 0.5], [1.0, 0.0]),   # Perron ray: converges
        ([5.0, 5.0], [0.3, 0.9]),   # Perron ray, larger scale
        ([1.0, 0.0], [1.0, 0.0]),   # off ray: diverges linearly
        ([0.4, 1.6], [2.0, 0.5]),   # off ray
    ],
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="generator_tables")
    ap.add_argument("--n-list", default="10,100,1000,10000")
    args = ap.parse_args()

    n_list = tuple(int(s) for s in args.n_list.split(","))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"{'fixture':>20} {'x':>12} {'lambda':>12} {'verdict':>18} "
          f"{'limit':>12} {'final gap':>12}")
    for name, params in fixtures().items():
        for idx, (x, lam) in enumerate(CASES[name]):
            tab = cbi.discrete_gen_table(params, x, lam, n_list)
            csv = out_dir / f"{name}_{idx}.csv"
            with open(csv, "w") as fh:
                fh.write("n,raw,corrected,limit,gap\n")
                for n, raw, corr, gap in zip(tab.n_values, tab.raw,
                                             tab.corrected, tab.gaps):
                    fh.write(f"{n},{float(raw)!r},{float(corr)!r},"
                             f"{float(tab.limit_formula)!r},{float(gap)!r}\n")
            print(f"{name:>20} {str(x):>12} {str(lam):>12} {tab.verdict:>18} "
                  f"{tab.limit_formula:>12.6f} {tab.gaps[-1]:>12.3e}")
    print(f"\nCSV tables written to {out_dir}/")


if __name__ == "__main__":
    main()
