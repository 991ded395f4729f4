"""Compare two sets of end-to-end result files under the benchmark's bounds.

    python3 benchmarks/e2e/compare.py BASE NEW

``BASE`` and ``NEW`` are directories (or single files) of result files
written by ``run.py`` without ``--trace``, e.g. ``.bench_out/results`` of the
parent commit and of the change.  Runs are paired per workload in seed
order, so run both sides over the same seeds, alternating which side runs
first.  For every (workload, end-to-end metric) one row is printed:

* ``improved``   - at least 10 pairs, the new side wins at least 9/10 of
  them (ties count for neither), and the medians differ by more than the
  base side's interquartile range;
* ``unresolved`` - the run-to-run spread (IQR over median, either side)
  exceeds the metric's bound and neither side wins every pair;
* ``regressed``  - the new median is worse than the base median by more
  than the bound from ``BENCHMARK.json``;
* ``unchanged``  - otherwise.

Result files from machines with different CPU counts are never compared.
The exit code is 1 when anything regressed or more points failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

import harness


def load(paths: Sequence[Path]) -> Dict[str, List[dict]]:
    """Untraced result records per workload, in (seed, file) order."""
    files: List[Path] = []
    for path in paths:
        files.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    records: Dict[str, List[dict]] = {}
    for path in files:
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            record["_order"] = (record["seed"], _file_index(path))
            records.setdefault(record["workload"], []).append(record)
    for group in records.values():
        group.sort(key=lambda r: r["_order"])
    return records


def _file_index(path: Path) -> int:
    tail = path.stem.rsplit("-", 1)[-1]
    return int(tail) if tail.isdigit() else 0


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> dict:
    """Apply the pairing rule to one metric's per-run values (paired by index)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, new))
    new_wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    base_wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    b, n = harness.summary(base), harness.summary(new)
    change = sign * (n["median"] - b["median"]) / b["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (b, n))
    if (
        len(pairs) >= 10
        and new_wins >= 0.9 * len(pairs)
        and change > 0
        and abs(n["median"] - b["median"]) > b["q3"] - b["q1"]
    ):
        status = "improved"
    elif spread > bound and new_wins < len(pairs) and base_wins < len(pairs):
        status = "unresolved"
    elif -change > bound:
        status = "regressed"
    else:
        status = "unchanged"
    return {"status": status, "base": b, "new": n, "change": change, "spread": spread,
            "pairs": len(pairs), "new_wins": new_wins}


def _cell(stats: dict) -> str:
    return f"{stats['median']:.5g} [{stats['q1']:.5g}, {stats['q3']:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="base result directory (or one file)")
    parser.add_argument("new", type=Path, help="new result directory (or one file)")
    args = parser.parse_args(argv)
    base, new = load([args.base]), load([args.new])
    nprocs = {r["machine"]["nproc"] for side in (base, new) for g in side.values() for r in g}
    if len(nprocs) > 1:
        print(f"error: results come from machines with different nproc {sorted(nprocs)}",
              file=sys.stderr)
        return 2
    metrics = harness.benchmark_metrics("end_to_end")
    print(f"{'workload':<13} {'metric':<18} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>7} {'spread':>7} {'bound':>6} "
          f"{'wins':>6}  verdict")
    bad = False
    for workload in sorted(set(base) & set(new)):
        count = min(len(base[workload]), len(new[workload]))
        old_runs, new_runs = base[workload][:count], new[workload][:count]
        for metric in metrics:
            name = metric["name"]
            result = verdict([r["metrics"][name]["value"] for r in old_runs],
                             [r["metrics"][name]["value"] for r in new_runs],
                             metric["better"], metric["bound"])
            wins = f"{result['new_wins']}/{result['pairs']}"
            print(f"{workload:<13} {name:<18} {_cell(result['base']):>34} "
                  f"{_cell(result['new']):>34} {result['change']:>+7.1%} "
                  f"{result['spread']:>7.1%} {metric['bound']:>6.0%} {wins:>6}  "
                  f"{result['status']}")
            bad |= result["status"] == "regressed"
        failed = [sum(r["failed"] for r in runs) for runs in (old_runs, new_runs)]
        if failed[1] > failed[0]:
            print(f"{workload:<13} failed points: base {failed[0]}, new {failed[1]}")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
