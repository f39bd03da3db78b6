"""``run.py compare A/ B/``: two sets of result files, metric by metric.

For every workload and end-to-end metric it prints each set's median and
quartiles, the ratio of the medians (B over A) and a verdict:

* ``improved``: B wins at least 9 of 10 pairs (files paired in name
  order, ties count for neither side) and the medians differ by more
  than A's interquartile range;
* ``regression``: B's median is worse than A's by more than the bound
  ``BENCHMARK.json`` fixes for the metric;
* ``unresolved``: either set's interquartile range, as a share of A's
  median, is wider than the bound;
* ``unchanged``: none of the above.

When both sets hold traced results it also prints per-layer self-time
deltas, so a regression names its layer.  Exit code 1 if any metric
regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from layers import LAYERS


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """(first, third) quartile as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range."""
    q1, q3 = quartiles(values)
    return q3 - q1


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """Classify B against A (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if sign * (med_b - med_a) > spread(a) and wins >= 0.9 * len(pairs):
        return "improved"
    if med_a == 0:
        return "unchanged" if med_b == 0 else "unresolved"
    if -sign * (med_b - med_a) / abs(med_a) > bound:
        return "regression"
    if max(spread(a), spread(b)) / abs(med_a) > bound:
        return "unresolved"
    return "unchanged"


def load(directory: Path) -> List[Dict[str, Any]]:
    """Every result file in ``directory``, in file-name order."""
    files = sorted(directory.glob("*.json"))
    if not files:
        raise SystemExit(f"error: no result files (*.json) in {directory}")
    results = []
    for path in files:
        with open(path, encoding="utf-8") as handle:
            results.append(json.load(handle))
    return results


def values(results: List[Dict[str, Any]], workload: str, section: str,
           metric: str) -> List[float]:
    return [
        r["workloads"][workload][section][metric]
        for r in results
        if metric in r["workloads"].get(workload, {}).get(section, {})
    ]


def fmt(x: float) -> str:
    return f"{x:.6g}"


def main(argv: List[str], manifest: Dict[str, Any]) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py compare")
    parser.add_argument("a", type=Path, help="directory of baseline result files")
    parser.add_argument("b", type=Path, help="directory of candidate result files")
    args = parser.parse_args(argv)
    set_a, set_b = load(args.a), load(args.b)
    workloads = list(dict.fromkeys(w for r in set_a for w in r["workloads"]))
    regressions = 0
    print(f"A: {args.a} ({len(set_a)} files)   B: {args.b} ({len(set_b)} files)")
    print(f"{'workload':<11} {'metric':<13} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'B/A':>7}  verdict")
    for workload in workloads:
        for spec in manifest["end_to_end"]:
            a = values(set_a, workload, "end_to_end", spec["name"])
            b = values(set_b, workload, "end_to_end", spec["name"])
            if not a or not b:
                print(f"{workload:<11} {spec['name']:<13} missing in "
                      f"{'A' if not a else 'B'}")
                continue
            cells = []
            for side in (a, b):
                q1, q3 = quartiles(side)
                cells.append(f"{fmt(statistics.median(side))} [{fmt(q1)}, {fmt(q3)}] "
                             f"{spec['unit']}")
            ratio = statistics.median(b) / statistics.median(a)
            found = verdict(a, b, spec["better"], spec["bound"])
            regressions += found == "regression"
            print(f"{workload:<11} {spec['name']:<13} {cells[0]:<34} {cells[1]:<34} "
                  f"{ratio:>7.4f}  {found} (bound {spec['bound']:g})")
    for workload in workloads:
        a_traced = values(set_a, workload, "per_layer", "trace_overhead")
        b_traced = values(set_b, workload, "per_layer", "trace_overhead")
        if not a_traced or not b_traced:
            continue
        print(f"\n{workload}: per-layer self time (traced, median)")
        print(f"  {'layer':<12} {'A s':>10} {'B s':>10} {'B-A s':>10} "
              f"{'A share':>8} {'B share':>8}")
        for layer in LAYERS:
            a_s = statistics.median(values(set_a, workload, "per_layer", f"{layer}.self_s"))
            b_s = statistics.median(values(set_b, workload, "per_layer", f"{layer}.self_s"))
            a_sh = statistics.median(values(set_a, workload, "per_layer", f"{layer}.share"))
            b_sh = statistics.median(values(set_b, workload, "per_layer", f"{layer}.share"))
            print(f"  {layer:<12} {a_s:>10.4f} {b_s:>10.4f} {b_s - a_s:>+10.4f} "
                  f"{a_sh:>8.2%} {b_sh:>8.2%}")
    return 1 if regressions else 0
