"""Compare two sets of e2e result files, metric by metric.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py compare PARENT CHANGE

``PARENT`` and ``CHANGE`` are each a result file or a directory of them
(every ``*.json`` in it except the ``trace_*.json`` span dumps); each
file is one invocation of ``run.py``. For every (workload, metric)
present on both sides the table gives each side's quartiles and median,
the relative difference of the medians, the metric's bound from
``BENCHMARK.json``, the pairs the change won, and a verdict:

* ``worse``      -- the change's median is worse than the parent's by more
  than the bound, and the spread of both sides (interquartile range over
  median) is within the bound, or every change run reads worse than every
  parent run;
* ``better``     -- the pair rule for a claimed gain holds: files are
  paired in name order, the change wins at least 9 of 10 pairs (ties
  count for neither), and the medians differ, in the change's favour, by
  more than the parent's interquartile range;
* ``unresolved`` -- the spread of either side is wider than the bound, so
  "no worse" cannot be told from noise, and not every change run reads
  better than every parent run;
* ``within bound`` -- otherwise.

Metrics without a bound (the per-layer ones) get the verdict ``info``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

WIN_SHARE = 0.9


def result_files(path: Path) -> List[Path]:
    if path.is_dir():
        return sorted(p for p in path.glob("*.json") if not p.name.startswith("trace_"))
    return [path]


def collect(files: List[Path]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per file, in file order."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in files:
        with path.open() as handle:
            document = json.load(handle)
        for workload, summary in document["workloads"].items():
            for metric, value in summary["metrics"].items():
                values.setdefault((workload, metric), []).append(value)
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pair_gain(parent: List[float], change: List[float], higher: bool) -> Tuple[int, int, bool]:
    """(wins, pairs, gain) under the pair rule for a claimed improvement."""
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if (b > a if higher else b < a))
    q1, median_a, q3 = quartiles(parent)
    median_b = quartiles(change)[1]
    improved = median_b > median_a if higher else median_b < median_a
    gain = (
        bool(pairs)
        and wins >= WIN_SHARE * len(pairs)
        and improved
        and abs(median_b - median_a) > q3 - q1
    )
    return wins, len(pairs), gain


def verdict(parent: List[float], change: List[float], higher: bool,
            bound: Optional[float]) -> str:
    if bound is None:
        return "info"
    q1a, ma, q3a = quartiles(parent)
    q1b, mb, q3b = quartiles(change)
    worse_by = (ma - mb) / ma if higher else (mb - ma) / ma
    if higher:
        all_better = min(change) > max(parent)
        all_worse = max(change) < min(parent)
    else:
        all_better = max(change) < min(parent)
        all_worse = min(change) > max(parent)
    spread = max((q3a - q1a) / abs(ma), (q3b - q1b) / abs(mb))
    if worse_by > bound and (spread <= bound or all_worse):
        return "worse"
    if pair_gain(parent, change, higher)[2]:
        return "better"
    if spread > bound and not all_better:
        return "unresolved"
    return "within bound"


def compare(parent_files: List[Path], change_files: List[Path], spec: Dict) -> List[Dict]:
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent = collect(parent_files)
    change = collect(change_files)
    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, metric = key
        info = declared.get(metric, {"better": "lower"})
        higher = info["better"] == "higher"
        a, b = parent[key], change[key]
        q1a, ma, q3a = quartiles(a)
        q1b, mb, q3b = quartiles(b)
        wins, pairs, _gain = pair_gain(a, b, higher)
        rows.append({
            "workload": workload,
            "metric": metric,
            "parent": (q1a, ma, q3a),
            "change": (q1b, mb, q3b),
            "diff": (mb - ma) / ma if ma else float("nan"),
            "bound": info.get("bound"),
            "wins": f"{wins}/{pairs}",
            "verdict": verdict(a, b, higher, info.get("bound")),
        })
    return rows


def main(argv: List[str], spec: Dict) -> int:
    if len(argv) != 2:
        print("usage: run.py compare PARENT CHANGE (result files or directories)",
              file=sys.stderr)
        return 2
    parent_files, change_files = (result_files(Path(p)) for p in argv)
    if not parent_files or not change_files:
        print("no result files found", file=sys.stderr)
        return 2
    rows = compare(parent_files, change_files, spec)
    print(f"parent: {len(parent_files)} files, change: {len(change_files)} files")
    print(f"{'workload':<16} {'metric':<36} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'diff':>8} {'bound':>6} {'wins':>6}  verdict")
    for row in rows:
        bound = "-" if row["bound"] is None else f"{row['bound']:.0%}"
        sides = ["/".join(f"{v:.4g}" for v in row[side]) for side in ("parent", "change")]
        print(f"{row['workload']:<16} {row['metric']:<36} {sides[0]:>32} {sides[1]:>32} "
              f"{row['diff']:>+8.1%} {bound:>6} {row['wins']:>6}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
