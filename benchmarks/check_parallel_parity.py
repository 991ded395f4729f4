#!/usr/bin/env python
"""CI tripwire: a parallel run of a bundled spec must equal the serial run.

Executes one bundled example scenario twice — serially and with worker
processes — and fails (exit code 1) unless the merged table is identical to
the serial one: same rows, columns, notes, title, and recorded scenario
spec.  Only ``metadata["distributed"]`` (worker count, wall-clock, shard
layout) may differ, because that block records *how* the table was produced,
never *what* it contains.  A shard-reassembly phase follows: two
``shard=(i, 2)`` runs stream into one directory, and an unsharded
``resume=True`` run over it must run no point and produce the serial table.

``--chaos`` additionally replays every bundled fault plan
(:func:`repro.faultinject.bundled_plans`) against the parallel run, each
streaming into a fsync'd temporary stream directory: worker kills, double
transient errors and timeout stalls must all be survived
**bit-identically** to the serial table, and the poison-point plan must
quarantine exactly its designed point while every other row still matches
the serial run.  The streaming sink's disk-fault plans follow (torn writes,
ENOSPC, fsync failures).  The chaos phase finishes with a
churn-under-worker-faults plan: the bundled dynamic-membership sweep
(``examples/specs/e8_churn.json``) run under the worker-kill plan must also
recover bit-identically — vectorized churn state (tombstones, joins, node
compaction) must survive a mid-sweep pool restart.

Usage::

    PYTHONPATH=src python benchmarks/check_parallel_parity.py \
        [--spec examples/specs/e1_round_complexity.json] [--workers 2] [--chaos]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.spec import load_spec, run_spec  # noqa: E402

DEFAULT_SPEC = REPO_ROOT / "examples" / "specs" / "e1_round_complexity.json"
CHURN_SPEC = REPO_ROOT / "examples" / "specs" / "e8_churn.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--spec", default=str(DEFAULT_SPEC), help="scenario spec file to run"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker process count (default 2)"
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help=(
            "also replay every bundled fault plan against the parallel run "
            "and require bit-identical recovery (poison plan: exact quarantine)"
        ),
    )
    args = parser.parse_args(argv)

    spec = load_spec(args.spec)
    point_count = spec.sweep.size if spec.sweep else 1
    print(f"spec: {spec.name} ({point_count} points)")

    start = time.perf_counter()
    serial_table = run_spec(spec).to_table()
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel_table = run_spec(spec, workers=args.workers).to_table()
    parallel_seconds = time.perf_counter() - start

    failures = []
    for attribute in ("title", "columns", "rows", "notes"):
        if getattr(serial_table, attribute) != getattr(parallel_table, attribute):
            failures.append(attribute)
    if serial_table.metadata.get("spec") != parallel_table.metadata.get("spec"):
        failures.append("metadata.spec")
    if "distributed" not in parallel_table.metadata:
        failures.append("metadata.distributed (missing provenance)")

    print(
        f"serial {serial_seconds:.2f}s vs {args.workers} workers "
        f"{parallel_seconds:.2f}s "
        f"({serial_seconds / parallel_seconds:.2f}x)"
    )
    if failures:
        print(
            f"PARITY FAILURE: parallel table differs in {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    print(
        "parallel table identical to serial "
        f"({len(serial_table.rows)} rows, "
        f"{parallel_table.metadata['distributed']['points_total']} points)"
    )
    if run_reassembly(spec, args.workers, serial_table):
        return 1
    if args.chaos:
        return run_chaos(spec, point_count, args.workers, serial_table)
    return 0


def run_reassembly(spec, workers, serial_table) -> int:
    """Two shards stream into one directory; an unsharded resume merges them.

    This is the multi-host pattern: each host runs ``--shard i/k`` into a
    shared (or later combined) stream directory, and one ``--resume`` pass
    without ``--shard`` must rebuild the serial table without re-running a
    single point.
    """
    import tempfile

    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as stream_dir:
        for index in range(2):
            run_spec(spec, workers=workers, shard=(index, 2), stream_dir=stream_dir)
        run = run_spec(spec, workers=workers, stream_dir=stream_dir, resume=True)
    elapsed = time.perf_counter() - start
    table = run.to_table()
    mismatched = [
        attribute
        for attribute in ("title", "columns", "rows", "notes")
        if getattr(serial_table, attribute) != getattr(table, attribute)
    ]
    if run.provenance["points_run"] != 0:
        mismatched.append(f"points_run={run.provenance['points_run']} (expected 0)")
    if mismatched:
        print(
            f"REASSEMBLY FAILURE: differs from serial in {', '.join(mismatched)}",
            file=sys.stderr,
        )
        return 1
    print(
        f"shard reassembly {elapsed:.2f}s: 2 shards streamed into one "
        f"directory, unsharded resume ran 0 points and resumed "
        f"{run.provenance['points_resumed']}; table identical to serial"
    )
    return 0


def run_chaos(spec, point_count, workers, serial_table) -> int:
    """Replay every bundled fault plan; require bit-identical recovery."""
    import tempfile

    from repro.dist import RetryPolicy
    from repro.faultinject import bundled_plans

    # The 2s point budget sits far above the real per-point runtime
    # (~20ms for the bundled E1 spec) and well below the injected 8s
    # stall, so stall detection fires only for the injected fault.
    retry = RetryPolicy(
        max_attempts=3, backoff_seconds=0.01, backoff_max_seconds=0.1,
        timeout_seconds=2.0,
    )
    exit_code = 0
    for name, plan in bundled_plans(point_count, stall_duration=8.0).items():
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as stream_dir:
            chaos_table = run_spec(
                spec,
                workers=workers,
                retry=retry,
                fault_plan=plan,
                stream_dir=stream_dir,
            ).to_table()
        elapsed = time.perf_counter() - start
        provenance = chaos_table.metadata["distributed"]
        recovery = (
            f"retries={provenance['retries']} "
            f"pool_restarts={provenance['pool_restarts']}"
        )
        if name == "poison-point":
            # The one designed-to-fail plan: exactly the poisoned point is
            # quarantined, every surviving row still matches the serial run.
            poisoned = point_count - 1
            quarantined = [f["index"] for f in provenance["failures"]]
            surviving = [
                row for i, row in enumerate(serial_table.rows) if i != poisoned
            ]
            if quarantined != [poisoned] or chaos_table.rows != surviving:
                print(
                    f"CHAOS FAILURE [{name}]: expected exactly point "
                    f"{poisoned} quarantined with all other rows serial-"
                    f"identical; got quarantined={quarantined}",
                    file=sys.stderr,
                )
                exit_code = 1
                continue
            print(
                f"chaos [{name}] {elapsed:.2f}s: quarantined point "
                f"{poisoned} only, {len(surviving)} surviving rows "
                f"identical ({recovery})"
            )
            continue
        mismatched = [
            attribute
            for attribute in ("title", "columns", "rows", "notes")
            if getattr(serial_table, attribute)
            != getattr(chaos_table, attribute)
        ]
        if provenance["failures"]:
            mismatched.append(f"unexpected quarantine {provenance['failures']}")
        if mismatched:
            print(
                f"CHAOS FAILURE [{name}]: differs from serial in "
                f"{', '.join(mismatched)}",
                file=sys.stderr,
            )
            exit_code = 1
            continue
        print(
            f"chaos [{name}] {elapsed:.2f}s: survived bit-identically "
            f"({recovery})"
        )
    return (
        exit_code
        or run_stream_chaos(spec, point_count, workers, serial_table)
        or run_churn_chaos(workers)
    )


def run_churn_chaos(workers) -> int:
    """Worker-kill recovery over the bundled churn sweep, bit-identically.

    Dynamic membership stresses exactly the state a restarted worker must
    rebuild from nothing but the spec and seeds: tombstoned CSR rows,
    stub-stealing joins, and node-axis compactions.  The recovered table must
    equal the clean serial run bit for bit.
    """
    import tempfile

    from repro.dist import RetryPolicy
    from repro.faultinject import bundled_plans

    spec = load_spec(CHURN_SPEC)
    point_count = spec.sweep.size if spec.sweep else 1
    serial_table = run_spec(spec).to_table()
    plan = bundled_plans(point_count, stall_duration=8.0)["worker-kill"]
    retry = RetryPolicy(
        max_attempts=3, backoff_seconds=0.01, backoff_max_seconds=0.1,
        timeout_seconds=30.0,
    )
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as stream_dir:
        chaos_table = run_spec(
            spec,
            workers=workers,
            retry=retry,
            fault_plan=plan,
            stream_dir=stream_dir,
        ).to_table()
    elapsed = time.perf_counter() - start
    provenance = chaos_table.metadata["distributed"]
    mismatched = [
        attribute
        for attribute in ("title", "columns", "rows", "notes")
        if getattr(serial_table, attribute) != getattr(chaos_table, attribute)
    ]
    if provenance["failures"]:
        mismatched.append(f"unexpected quarantine {provenance['failures']}")
    if mismatched:
        print(
            f"CHURN CHAOS FAILURE [worker-kill]: differs from serial in "
            f"{', '.join(mismatched)}",
            file=sys.stderr,
        )
        return 1
    print(
        f"churn chaos [worker-kill] {elapsed:.2f}s: {spec.name} survived "
        f"bit-identically ({len(chaos_table.rows)} rows, "
        f"retries={provenance['retries']} "
        f"pool_restarts={provenance['pool_restarts']})"
    )
    return 0


def run_stream_chaos(spec, point_count, workers, serial_table) -> int:
    """Replay every bundled disk-fault plan against the streaming sink.

    ``torn-write`` and ``enospc`` interrupt the sweep mid-flight; the resumed
    run against the same ``stream_dir`` must recover the durable prefix and
    finish bit-identically to the serial table.  ``fsync-error`` must be
    retried transparently within a single run.  (The lethal ``kill-9`` plan
    is exercised by ``check_crash_recovery.py`` in a subprocess.)
    """
    import tempfile

    from repro.dist import SinkFullError, SweepInterrupted
    from repro.faultinject import bundled_stream_plans

    exit_code = 0
    for name, plan in bundled_stream_plans(point_count).items():
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as stream_dir:
            recovery = "clean first pass"
            try:
                result = run_spec(
                    spec, workers=workers, fault_plan=plan, stream_dir=stream_dir
                )
            except (SinkFullError, SweepInterrupted) as fault:
                recovery = f"resumed after {type(fault).__name__}"
                result = run_spec(
                    spec, workers=workers, stream_dir=stream_dir, resume=True
                )
            chaos_table = result.to_table()
            stream_stats = result.provenance.get("stream") or {}
        elapsed = time.perf_counter() - start
        mismatched = [
            attribute
            for attribute in ("title", "columns", "rows", "notes")
            if getattr(serial_table, attribute) != getattr(chaos_table, attribute)
        ]
        if name in ("torn-write", "enospc") and recovery == "clean first pass":
            mismatched.append("fault never fired (expected an interrupted run)")
        if mismatched:
            print(
                f"STREAM CHAOS FAILURE [{name}]: differs from serial in "
                f"{', '.join(mismatched)}",
                file=sys.stderr,
            )
            exit_code = 1
            continue
        print(
            f"stream chaos [{name}] {elapsed:.2f}s: survived bit-identically "
            f"({recovery}, segments={stream_stats.get('segments')}, "
            f"quarantined={stream_stats.get('torn_quarantined')})"
        )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
