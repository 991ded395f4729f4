"""One repetition of one workload, in a fresh process.

``run.py`` starts this script and takes the moment it reads
the ``ready`` line as the end of set-up: interpreter start, ``import
repro``, and the workload spec loaded and validated.  The timed part is
the public path a ``run-spec`` user takes: ``run_spec`` then
``ScenarioRun.to_table`` then ``save_table_json``.  The last stdout line
is a JSON object with the wall time, the amount of simulation done, peak
memory, the result digest and any point that broke an invariant; with
``--trace`` it also carries the per-layer metrics, and the spans are
written to ``<out>/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Optional

import harness
from tracer import ROOT_SPAN, Tracer, chrome_trace, layer_metrics


def run_once(spec, workload: harness.Workload, workdir: Path,
             tracer: Optional[Tracer] = None) -> dict:
    """Execute ``spec`` as ``workload`` prescribes; return the measurements."""
    from repro.experiments import results_io
    from repro.spec import run_spec

    kwargs = {}
    if workload.workers is not None:
        kwargs["workers"] = workload.workers
    if workload.stream:
        kwargs["stream_dir"] = workdir / "stream"
        kwargs["fsync_every"] = 1
    root = tracer.open(ROOT_SPAN) if tracer is not None else None
    try:
        started = time.perf_counter()
        run = run_spec(spec, **kwargs)
        results_io.save_table_json(run.to_table(), workdir / "table.json")
        wall = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.close(root)
    expected = spec.sweep.size if spec.sweep is not None else 1
    return {
        "wall_s": wall,
        "node_rounds": sum(r.n * r.rounds_executed for r in run.results()),
        "digest": harness.digest(run.points),
        "points": expected,
        "failed": harness.failed_points(run, expected, spec.repetitions),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped workers, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro  # noqa: F401 - its import cost is part of set-up
    from repro.spec import ScenarioSpec

    import numpy

    spec = ScenarioSpec.from_dict(harness.spec_dict(args.workload, args.seed, args.quick))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    workdir = args.out / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = None
    try:
        if args.trace:
            tracer = Tracer(f"{args.workload}/{args.rep}", workdir / "spans")
            tracer.spill_dir.mkdir()
            tracer.install()
        try:
            result = run_once(spec, harness.WORKLOADS[args.workload], workdir, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        result["peak_rss_mb"] = peak_rss_mb()
        result["numpy"] = numpy.__version__
        if tracer is not None:
            spans = tracer.collect()
            result["layers"] = layer_metrics(spans, result["points"])
            trace_path = args.out / f"trace-{args.workload}.json"
            trace_path.write_text(json.dumps(chrome_trace(spans, tracer.trace_id)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
