"""Compare two sets of benchmark records, metric by metric.

Usage (from the repository root):

    python3 benchmarks/suite/compare.py PARENT.json CHANGE.json

Both files are record files written by ``run.py --out`` with repeated
runs of the same benchmark settings.  For every workload and end-to-end
metric of ``BENCHMARK.json`` the table shows each side's median and
quartiles and a verdict:

* ``improved``: the change wins at least 9 of 10 pairs (runs paired in
  file order, ties counting for neither side) and its median is better
  by more than the parent's quartile spread;
* ``unresolved``: either side's quartile spread, relative to its median,
  is wider than the metric's bound, and the runs do not separate (not
  every run of one side reads better than every run of the other);
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``no change``: otherwise.

Exit code 1 if any metric is worse, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = ROOT / "BENCHMARK.json"

IMPROVED = "improved"
UNRESOLVED = "unresolved"
WORSE = "worse"
NO_CHANGE = "no change"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if q3 <= q1:
        return 0.0
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    """The verdict for one metric on one workload (module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    gain = sign * (c_med - p_med)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return IMPROVED
    scored_parent = [sign * v for v in parent]
    scored_change = [sign * v for v in change]
    separated = min(scored_change) > max(scored_parent) or max(
        scored_change
    ) < min(scored_parent)
    if max(relative_spread(parent), relative_spread(change)) > bound and not separated:
        return UNRESOLVED
    if -gain > bound * abs(p_med):
        return WORSE
    return NO_CHANGE


def load_runs(path: Path) -> Dict[str, Dict[str, List[float]]]:
    """Workload -> end-to-end metric -> values, in run order."""
    data = json.loads(Path(path).read_text())
    table: Dict[str, Dict[str, List[float]]] = {}
    for run in data["runs"]:
        metrics = table.setdefault(run["workload"], {})
        for name, metric in run["end_to_end"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return table


def compare(
    parent: Dict[str, Dict[str, List[float]]],
    change: Dict[str, Dict[str, List[float]]],
    spec: dict,
) -> List[dict]:
    """One row per workload and end-to-end metric present on both sides."""
    rows = []
    for workload in parent:
        if workload not in change:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = parent[workload].get(name)
            b = change[workload].get(name)
            if not a or not b:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "parent": quartiles(a),
                    "change": quartiles(b),
                    "n": (len(a), len(b)),
                    "spread": (relative_spread(a), relative_spread(b)),
                    "verdict": verdict(a, b, metric["better"], metric["bound"]),
                }
            )
    return rows


def _fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    rows = compare(load_runs(Path(args[0])), load_runs(Path(args[1])), spec)
    print(
        f"{'workload':<14} {'metric':<18} {'parent median [q1, q3]':<34} "
        f"{'change median [q1, q3]':<34} {'n':>7} {'spread':>13}  verdict"
    )
    for row in rows:
        spread = f"{row['spread'][0]:.1%}/{row['spread'][1]:.1%}"
        print(
            f"{row['workload']:<14} {row['metric']:<18} {_fmt(row['parent']):<34} "
            f"{_fmt(row['change']):<34} {row['n'][0]:>3}/{row['n'][1]:<3} "
            f"{spread:>13}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == WORSE for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
