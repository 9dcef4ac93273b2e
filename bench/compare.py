#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py --trace 0`` (for
example with ``--results BASE_DIR``), typically ten seeds per workload.  For
every workload and end-to-end metric of ``BENCHMARK.json`` it prints the
median and quartiles of each side, the ratio of the medians with its base,
and a verdict against the metric's bound:

- ``worse``/``better``: the medians differ by more than the bound;
- ``within bound``: they do not;
- ``unresolved``: a side's quartile spread, as a share of its median, is wider
  than the bound, and not every new run beats every base run.
"""

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{workload: {metric: [values]}} over the untraced result files in directory."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        if result["provenance"]["trace"] != 0:
            continue
        per = runs.setdefault(result["provenance"]["workload"], {})
        for metric, m in result["metrics"].items():
            per.setdefault(metric, []).append(m["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def verdict(base, new, better, bound):
    """Verdict on the change of the new median against the base median."""
    mb, mn = median(base), median(new)
    # positive change = worse
    change = (mn - mb) / abs(mb) if mb else (0.0 if mn == mb else float("inf"))
    if better == "higher":
        change = -change
    spread = max((q3 - q1) / abs(m) if m else 0.0
                 for (q1, q3), m in ((quartiles(base), mb), (quartiles(new), mn)))
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if spread > bound and not all_better:
        return f"unresolved: spread {spread:.1%} > bound {bound:.1%}"
    if change > bound:
        return f"worse by {change:.1%} > bound {bound:.1%}"
    if change < -bound:
        return f"better by {-change:.1%} > bound {bound:.1%}"
    return f"within bound {bound:.1%}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare two benchmark result sets")
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(args.base), load(args.new)
    worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            print(f"{workload}: missing from {'base' if workload not in base else 'new'}")
            continue
        runs = [len(next(iter(side[workload].values()))) for side in (base, new)]
        print(f"{workload} (runs: base {runs[0]}, new {runs[1]})")
        for m in spec["end_to_end"]:
            b, n = base[workload][m["name"]], new[workload][m["name"]]
            text = verdict(b, n, m["better"], m["bound"])
            worse |= text.startswith("worse")
            (bq1, bq3), (nq1, nq3) = quartiles(b), quartiles(n)
            ratio = median(n) / median(b) if median(b) else float("nan")
            print(f"  {m['name']:12s} base {median(b):.6g} [{bq1:.6g}, {bq3:.6g}] "
                  f"new {median(n):.6g} [{nq1:.6g}, {nq3:.6g}] {m['unit']}; "
                  f"new/base = {ratio:.4f} (base {median(b):.6g} {m['unit']}); {text}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
