"""Compare a parent and a change result set, per workload and end-to-end metric.

    python3 benchmarks/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds result files that ``bench.py --trace 0`` wrote (the
``benchmarks/results`` directory of each checkout).  Runs are paired by
workload and seed, in the order they started.  Each pairing of workload and
metric gets one verdict, using the bounds and directions in BENCHMARK.json:

* improved   -- at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither), and the medians differ, in the better
  direction, by more than the parent's interquartile range;
* worse      -- the change's median is worse than the parent's by more than
  the metric's bound;
* unchanged  -- neither, and the parent's own spread (interquartile range
  over median) is within the bound, or every change run beats every
  parent run;
* unresolved -- fewer than 10 pairs, pairs that did not alternate which
  side ran first, or a spread wider than the bound.

It also reports, per workload, in how many pairs every call that both runs
made produced byte-identical output.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: Path) -> dict:
    """(workload, seed) -> untraced runs in start order."""
    runs = defaultdict(list)
    for path in sorted(directory.glob("*-trace0-*.json")):
        run = json.loads(path.read_text())
        env = run["environment"]
        runs[(env["workload"], env["seed"])].append(run)
    for key in runs:
        runs[key].sort(key=lambda r: r["started"])
    return runs


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            alternated: bool) -> tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if len(parent) < MIN_PAIRS or not alternated:
        return "unresolved", wins
    p1, pm, p3 = statistics.quantiles(parent, n=4)
    cm = statistics.median(change)
    gain = sign * (cm - pm)
    if wins >= WIN_SHARE * len(parent) and gain > p3 - p1:
        return "improved", wins
    if -gain > bound * abs(pm):
        return "worse", wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p3 - p1) / abs(pm) <= bound or all_better:
        return "unchanged", wins
    return "unresolved", wins


def same_outputs(a: dict, b: dict) -> bool:
    return all(x["digest"] == y["digest"] for x, y in zip(a["calls"], b["calls"]))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    parent_runs, change_runs = (load_runs(Path(d)) for d in argv)
    pairs = defaultdict(list)
    for key in sorted(set(parent_runs) & set(change_runs)):
        pairs[key[0]].extend(zip(parent_runs[key], change_runs[key]))
    if not pairs:
        print("no workload and seed has runs on both sides", file=sys.stderr)
        return 1
    for workload, runs in sorted(pairs.items()):
        parent_first = sum(p["started"] < c["started"] for p, c in runs)
        alternated = abs(2 * parent_first - len(runs)) <= 1
        identical = sum(same_outputs(p, c) for p, c in runs)
        print(f"{workload}: {len(runs)} pairs, parent ran first in {parent_first}, "
              f"outputs identical in {identical}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [p["metrics"][name]["value"] for p, _ in runs]
            change = [c["metrics"][name]["value"] for _, c in runs]
            result, wins = verdict(parent, change, metric["better"], metric["bound"],
                                   alternated)
            print(f"  {name:12s} parent {statistics.median(parent):.6g} "
                  f"change {statistics.median(change):.6g} {metric['unit']:4s} "
                  f"wins {wins}/{len(runs)}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
