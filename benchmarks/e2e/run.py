"""End-to-end benchmark of the broadcast simulator.

Runs the workloads under ``benchmarks/e2e/workloads/`` through the public
``run_spec`` -> ``ScenarioRun.to_table`` -> ``save_table_json`` path, one
fresh process per repetition, round-robin across workloads, and checks
every result against the pinned digests (seeds 2008 and 7) or, for any
other seed, against the invariants and the other repetitions.

    python3 benchmarks/e2e/run.py                       # all workloads, 5 reps
    python3 benchmarks/e2e/run.py --workload sweep_e1 --seed 7 --seconds 20
    python3 benchmarks/e2e/run.py --trace               # per-layer metrics
    python3 benchmarks/e2e/compare.py OLD_OUT/results NEW_OUT/results

Without ``--trace`` it prints the end-to-end metrics of ``BENCHMARK.json``
(median, quartiles and sample count per workload); with ``--trace`` it runs
one untraced and one traced repetition per workload and prints the
per-layer metrics, writing ``<out>/trace-<workload>.json``.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` (grid
points) and ``metrics``.  The exit code is 0 only when every point is
correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import harness
from harness import HERE, ROOT, SRC, WORKLOADS

#: Cold starts per workload that ``setup_s`` is the median of (each
#: repetition's own start counts; set-up-only starts make up the rest).
SETUP_SAMPLES = 11
QUICK_SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0

CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=str(SRC),
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


@dataclass
class Spawn:
    """One finished child process: its set-up time and reported result."""

    setup_s: Optional[float]
    result: Optional[dict]
    error: Optional[str] = None


def spawn(name: str, seed: int, out: Path, tag: str, *, rep: int = 0, quick: bool = False,
          setup_only: bool = False, trace: bool = False) -> Spawn:
    """Run ``child.py`` once; the time to its ``ready`` line is its set-up time.

    A traced child runs under ``-X importtime`` and its result gains the
    ``import.*`` metrics.  The child's stderr is kept only when it failed.
    """
    command = [sys.executable]
    if trace:
        command += ["-X", "importtime"]
    command += [str(HERE / "child.py"), "--workload", name, "--seed", str(seed),
                "--out", str(out), "--rep", str(rep)]
    command += [flag for flag, on in (("--quick", quick), ("--setup-only", setup_only),
                                      ("--trace", trace)) if on]
    stderr_path = out / f"child-{name}-{tag}.err"
    with stderr_path.open("w") as stderr:
        started = time.perf_counter()
        process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=stderr, cwd=ROOT,
                                   env=CHILD_ENV, start_new_session=True)
    deadline = started + CHILD_TIMEOUT_S
    timed_out = Spawn(None, None, f"timed out after {CHILD_TIMEOUT_S:.0f} s, see {stderr_path}")
    ready_at = None
    chunks: List[bytes] = []
    try:
        fd = process.stdout.fileno()
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return timed_out
            if not select.select([fd], [], [], remaining)[0]:
                continue
            data = os.read(fd, 1 << 16)
            if not data:
                break
            chunks.append(data)
            if ready_at is None and b"\n" in data:
                ready_at = time.perf_counter()
        code = process.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return timed_out
    finally:
        if process.poll() is None:  # kill the child and any pool workers it left
            os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        process.stdout.close()
    lines = b"".join(chunks).decode().splitlines()
    if code != 0 or not lines or lines[0] != "ready":
        return Spawn(None, None, f"exit code {code}, see {stderr_path}")
    result = None
    if not setup_only:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            return Spawn(ready_at - started, None, f"no result line, see {stderr_path}")
        if trace:
            result["layers"].update(import_seconds(stderr_path))
    stderr_path.unlink()
    return Spawn(ready_at - started, result)


def import_seconds(stderr: Path) -> Dict[str, float]:
    """Cumulative import times of repro, numpy and networkx from ``-X importtime``."""
    found: Dict[str, float] = {}
    for line in stderr.read_text().splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        module = fields[-1].strip()
        if module in ("repro", "numpy", "networkx") and module not in found:
            try:
                found[module] = int(fields[1]) / 1e6
            except ValueError:  # the header line
                continue
    return {f"import.{m}_s": found.get(m, 0.0) for m in ("repro", "numpy", "networkx")}


class WorkloadRun:
    """Samples and correctness bookkeeping of one workload in one invocation."""

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.points = harness.grid_size(harness.spec_dict(name, seed, quick))
        self.reference = harness.golden_digest(name, seed, quick)
        self.pinned = self.reference is not None
        self.observed: Optional[str] = None
        self.setup: List[float] = []
        self.samples: Dict[str, List[float]] = {"wall_s": [], "node_rounds_per_s": [],
                                                "peak_rss_mb": []}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.numpy = ""

    def add(self, outcome: Spawn, timed: bool = True) -> Optional[dict]:
        """Record a repetition; returns its result if every point checked out."""
        self.attempted += self.points
        if outcome.setup_s is not None:
            self.setup.append(outcome.setup_s)
        result = outcome.result
        if result is None:
            self.failed += self.points
            self.errors.append(outcome.error or "no result")
            return None
        self.observed = self.observed or result["digest"]
        if self.reference is None:
            self.reference = result["digest"]
        if result["digest"] != self.reference:
            self.failed += self.points
            source = "pinned digest" if self.pinned else "first repetition"
            self.errors.append(f"digest {result['digest'][:12]} differs from the {source}")
            return None
        if result["failed"]:
            self.failed += len(result["failed"])
            self.errors.append(f"invariant failures: {result['failed']}")
            return None
        self.numpy = result["numpy"]
        if timed:
            self.samples["wall_s"].append(result["wall_s"])
            self.samples["node_rounds_per_s"].append(result["node_rounds"] / result["wall_s"])
            self.samples["peak_rss_mb"].append(result["peak_rss_mb"])
        return result


def measure(names: List[str], args, out: Path) -> Dict[str, WorkloadRun]:
    """Untraced repetitions, round-robin, then set-up-only cold starts."""
    runs = {name: WorkloadRun(name, args.seed, args.quick) for name in names}
    for name in names:  # compiles bytecode and warms the page cache; not recorded
        spawn(name, args.seed, out, "warmup", quick=args.quick, setup_only=True)
    spent = dict.fromkeys(names, 0.0)
    active = list(names)
    rep = 0
    while active:
        for name in list(active):
            started = time.perf_counter()
            runs[name].add(spawn(name, args.seed, out, f"rep{rep}", rep=rep, quick=args.quick))
            spent[name] += time.perf_counter() - started
            done = (spent[name] >= args.seconds if args.seconds is not None
                    else rep + 1 >= args.repeat)
            if done:
                active.remove(name)
        rep += 1
    target = QUICK_SETUP_SAMPLES if args.quick else SETUP_SAMPLES
    extra = 0
    while any(len(run.setup) < target for run in runs.values()):
        for name, run in runs.items():
            if len(run.setup) < target:
                outcome = spawn(name, args.seed, out, f"setup{extra}", quick=args.quick,
                                setup_only=True)
                if outcome.setup_s is None:
                    raise SystemExit(f"{name}: set-up failed: {outcome.error}")
                run.setup.append(outcome.setup_s)
        extra += 1
    return runs


def trace_pass(names: List[str], args, out: Path):
    """One untraced and one traced repetition per workload; per-layer metrics."""
    runs = {name: WorkloadRun(name, args.seed, args.quick) for name in names}
    layers: Dict[str, Dict[str, float]] = {}
    for name in names:
        spawn(name, args.seed, out, "warmup", quick=args.quick, setup_only=True)
        plain = runs[name].add(spawn(name, args.seed, out, "plain", quick=args.quick),
                               timed=False)
        traced = runs[name].add(
            spawn(name, args.seed, out, "traced", quick=args.quick, trace=True), timed=False
        )
        if plain is None or traced is None:
            continue
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        layers[name] = metrics
    return runs, layers


def next_result_path(directory: Path, stem: str) -> Path:
    index = 1
    while (directory / f"{stem}-{index}.json").exists():
        index += 1
    return directory / f"{stem}-{index}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED,
                        help="master seed of every workload (default %(default)s)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed repetitions per workload (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="repeat each workload until this many seconds have passed "
                             "(overrides --repeat)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced pass with per-layer metrics instead of timing")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for result files, traces and temporary files")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes of the same shapes (self-tests)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.repeat < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--repeat and --seconds must be positive")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out = args.out.resolve()
    (out / "results").mkdir(parents=True, exist_ok=True)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in harness.benchmark_metrics(kind)}

    if args.trace:
        runs, layers = trace_pass(names, args, out)
    else:
        runs, layers = measure(names, args, out), {}

    machine = {"nproc": os.cpu_count(), "python": platform.python_version()}
    print(f"nproc {machine['nproc']}, python {machine['python']}, seed {args.seed}, "
          f"{'traced pass' if args.trace else 'untraced timing'}")
    columns = "value" if args.trace else f"{'median':>12} {'q1':>12} {'q3':>12} {'n':>3}"
    print(f"{'workload':<13} {'metric':<36} {'unit':<6} {columns:>12}")
    combined: Dict[str, dict] = {}
    for name, run in runs.items():
        metrics: Dict[str, dict] = {}
        if args.trace:
            for metric, value in layers.get(name, {}).items():
                metrics[metric] = {"value": value, "unit": units[metric]}
                print(f"{name:<13} {metric:<36} {units[metric]:<6} {value:>12.6g}")
        elif run.samples["wall_s"]:
            for metric, values in (("setup_s", run.setup), *run.samples.items()):
                stats = harness.summary(values)
                # Address-space randomisation decides whether ~23 MB of heap is
                # returned before the peak on sweep_e1 (173 or 195 MB for one
                # seed), so memory reports the lightest repetition.
                value = min(values) if metric == "peak_rss_mb" else stats["median"]
                metrics[metric] = {"value": value, "unit": units[metric], **stats,
                                   "samples": values}
                print(f"{name:<13} {metric:<36} {units[metric]:<6} {stats['median']:>12.6g} "
                      f"{stats['q1']:>12.6g} {stats['q3']:>12.6g} {stats['n']:>3}")
        for error in run.errors:
            print(f"{name:<13} ERROR {error}")
        correct = run.failed == 0 and set(metrics) == set(units)
        record = {"workload": name, "seed": args.seed, "trace": args.trace, "quick": args.quick,
                  "machine": {**machine, "numpy": run.numpy}, "correct": correct,
                  "attempted": run.attempted, "failed": run.failed, "digest": run.observed,
                  "metrics": metrics}
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        next_result_path(out / "results", stem).write_text(json.dumps(record, indent=1))
        combined[name] = record

    if args.trace:
        for name in layers:
            print(f"trace: {out / f'trace-{name}.json'}")
    single = len(names) == 1
    final = {
        "correct": all(r["correct"] for r in combined.values()),
        "attempted": sum(r["attempted"] for r in combined.values()),
        "failed": sum(r["failed"] for r in combined.values()),
        "metrics": {
            (metric if single else f"{name}.{metric}"): {"value": m["value"], "unit": m["unit"]}
            for name, record in combined.items()
            for metric, m in record["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
