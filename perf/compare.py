#!/usr/bin/env python3
"""Compare two result files: ``python3 perf/compare.py A.json B.json``.

Each file holds run records written by ``perf/run.py --out FILE
--repeat N`` (A is the parent, B the change; for the repeatability
check both are the same commit). For every pairing of end-to-end
metric and workload the verdict is one of

* ``regressed``  - B's median is worse than A's by more than the bound
  ``BENCHMARK.json`` fixes for the metric;
* ``improved``   - B wins at least nine tenths of the runs paired by
  seed (ties count for neither) and the medians differ by more than
  the distance between A's own quartiles;
* ``unresolved`` - neither, and the run-to-run spread of either side
  (interquartile distance over median) is wider than the bound;
* ``unchanged``  - none of the above.

Exits 1 if any pairing regressed or any run of B failed an op.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness.spec import load_spec  # noqa: E402

Key = Tuple[str, str]  # (workload, metric)


def end_to_end_values(path: Path) -> Tuple[Dict[Key, List[float]], int]:
    """Per pairing, the values of the untraced runs in seed order; and
    how many ops failed over all of them."""
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    runs = sorted((r for r in runs if not r["trace"]), key=lambda r: r["seed"])
    values: Dict[Key, List[float]] = defaultdict(list)
    for run in runs:
        for name, metric in run["metrics"].items():
            values[(run["workload"], name)].append(metric["value"])
    return values, sum(run["failed"] for run in runs)


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Dict[str, Any]:
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse = sign * (median_b - median_a) / median_a  # > 0: B is worse
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    widest = max(spread(a), spread(b))
    if worse > bound:
        name = "regressed"
    elif pairs and wins >= 0.9 * len(pairs) and abs(median_b - median_a) > spread(a) * median_a:
        name = "improved"
    elif widest > bound:
        name = "unresolved"
    else:
        name = "unchanged"
    return {
        "verdict": name,
        "median_a": median_a,
        "median_b": median_b,
        "worse_by": worse,
        "spread": widest,
        "bound": bound,
    }


def compare(path_a: Path, path_b: Path) -> Tuple[Dict[Key, Dict[str, Any]], int]:
    spec = load_spec()
    values_a, _ = end_to_end_values(path_a)
    values_b, failed_b = end_to_end_values(path_b)
    verdicts = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if values_a.get(key) and values_b.get(key):
                verdicts[key] = verdict(
                    values_a[key], values_b[key], metric["better"], metric["bound"]
                )
    return verdicts, failed_b


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    verdicts, failed = compare(Path(argv[0]), Path(argv[1]))
    print(f"{'workload':<16}{'metric':<24}{'A median':>14}{'B median':>14}"
          f"{'worse by':>10}{'spread':>9}{'bound':>7}  verdict")
    for (workload, metric), row in verdicts.items():
        print(
            f"{workload:<16}{metric:<24}{row['median_a']:>14.4f}{row['median_b']:>14.4f}"
            f"{row['worse_by']:>+10.1%}{row['spread']:>9.1%}{row['bound']:>7.0%}  {row['verdict']}"
        )
    counts = defaultdict(int)
    for row in verdicts.values():
        counts[row["verdict"]] += 1
    print(", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    print(f"failed ops in B: {failed}")
    return 1 if counts["regressed"] or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
