"""Compare benchmark runs of a parent commit and a change.

Usage (from the repository root)::

    python3 bench/compare.py --parent P1.json P2.json ... --change C1.json C2.json ...

Each file is an artifact written by ``bench/run.py --out``; the i-th
parent run and the i-th change run form a pair.  Every workload and
end-to-end metric gets one verdict, against the bound ``BENCHMARK.json``
fixes:

- ``regressed``: the change's median is worse than the parent's by more
  than the bound;
- ``unresolved``: the parent's own spread (interquartile range over
  median) exceeds the bound, unless every change run reads better than
  every parent run;
- ``improved``: the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's
  interquartile range;
- ``same``: none of these.

It prints each metric's medians, quartiles and pairs won, then one row
per workload, and exits with 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> Dict:
    """The verdict for one metric of one workload (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    q1, q3 = _quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    worse_by = sign * (change_median - parent_median) / parent_median
    all_better = (
        max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    )
    if worse_by > bound:
        result = "regressed"
    elif (q3 - q1) / parent_median > bound and not all_better:
        result = "unresolved"
    elif wins >= 0.9 * len(pairs) and abs(change_median - parent_median) > q3 - q1:
        result = "improved"
    else:
        result = "same"
    return {
        "parent": (parent_median, q1, q3),
        "change": (change_median, *_quartiles(change)),
        "wins": wins,
        "pairs": len(pairs),
        "delta": (change_median - parent_median) / parent_median,
        "verdict": result,
    }


def _values(paths: List[str]) -> Dict[str, Dict[str, List[float]]]:
    """workload → metric → one value per artifact, in the order given."""
    values: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        artifact = json.loads(Path(path).read_text())
        for workload, result in artifact["workloads"].items():
            for metric, measured in result["end_to_end"].items():
                values.setdefault(workload, {}).setdefault(metric, []).append(
                    measured["value"]
                )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, metavar="JSON")
    parser.add_argument("--change", nargs="+", required=True, metavar="JSON")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    parent, change = _values(args.parent), _values(args.change)
    rows = []
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        cells = []
        for name, spec in metrics.items():
            if name not in parent[workload] or name not in change[workload]:
                continue
            v = verdict(
                parent[workload][name],
                change[workload][name],
                spec["better"],
                spec["bound"],
            )
            regressed |= v["verdict"] == "regressed"
            print(
                f"{workload:14} {name:16} parent {v['parent'][0]:10.4f} "
                f"[{v['parent'][1]:.4f}, {v['parent'][2]:.4f}]  change "
                f"{v['change'][0]:10.4f} [{v['change'][1]:.4f}, {v['change'][2]:.4f}]  "
                f"won {v['wins']}/{v['pairs']}  {v['delta']:+.1%}  {v['verdict']}"
            )
            cells.append(f"{name} {v['delta']:+.1%} {v['verdict']}")
        rows.append(f"{workload:14} " + " | ".join(cells))
    print()
    print("\n".join(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
