"""Command-line interface.

The sub-commands cover the common workflows:

* ``repro-broadcast simulate`` — one broadcast configuration, printed as a
  small table (per-seed results plus the aggregate).  Internally the flags
  are assembled into a :class:`ScenarioSpec`; ``--dump-spec`` prints that
  spec as JSON instead of running, so every invocation can emit the exact
  record that reproduces it.
* ``repro-broadcast run-spec <file.json>`` — execute a scenario spec file
  (single point or full sweep grid) and print the summary table.
* ``repro-broadcast experiment <id>`` — run one of the registered experiments
  (E1–E13) and print its table.
* ``repro-broadcast list-protocols`` / ``list-graphs`` / ``list-failures`` /
  ``list-churn`` / ``list-experiments`` — discovery, backed by the unified
  registries, including each entry's keyword parameters.
* ``repro-broadcast lint`` — the determinism-contract checker
  (:mod:`repro.lint`); CI gates on it next to the parity tripwires.

The CLI is intentionally a thin veneer over the library; anything it can do is
one or two calls into :mod:`repro`.

A command loads only what it runs: this module imports the standard library
and the lint parser hook, and each sub-command imports its modules inside its
handler.  ``lint`` therefore loads no NumPy, and a serial ``run-spec`` loads
neither the sweep executor nor the experiment modules.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from .lint.cli import add_lint_parser, run_lint

if TYPE_CHECKING:
    from .core.engine import RunPlan
    from .core.registry import Registry
    from .experiments.tables import Table
    from .spec.run import ScenarioRun
    from .spec.scenario import ScenarioSpec

__all__ = ["main", "build_parser"]


class _ProtocolIds:
    """The protocol registry's ids, as the ``simulate --protocol`` choices.

    The registry imports every protocol class and NumPy, so it is read when
    argparse first tests membership (``in`` iterates): parsing ``simulate``
    pays for it, building the parser for another sub-command does not.
    """

    def __iter__(self) -> Iterator[str]:
        from .protocols.registry import available_protocols

        return iter(available_protocols())


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-broadcast",
        description=(
            "Randomised broadcasting in random regular networks "
            "(Berenbrink, Elsässer, Friedetzky — PODC 2008 reproduction)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate", help="run one broadcast configuration and print the results"
    )
    simulate.add_argument("--n", type=int, default=1024, help="number of nodes")
    simulate.add_argument("--d", type=int, default=8, help="degree of the regular graph")
    simulate.add_argument(
        "--protocol",
        default="algorithm1",
        choices=_ProtocolIds(),
        # A metavar keeps argparse from listing the choices while the
        # parser is built; the help text lists them when it is printed.
        metavar="PROTOCOL",
        help="protocol to run: %(choices)s",
    )
    simulate.add_argument("--seeds", type=int, default=3, help="number of runs")
    simulate.add_argument("--seed", type=int, default=2008, help="master seed")
    simulate.add_argument(
        "--loss", type=float, default=0.0, help="per-transmission loss probability"
    )
    simulate.add_argument(
        "--full-schedule",
        action="store_true",
        help="run the protocol's full schedule instead of stopping at completion",
    )
    simulate.add_argument(
        "--engine",
        default="auto",
        choices=["auto", "scalar", "vectorized"],
        help=(
            "round engine: 'auto' picks the bulk NumPy engine when the "
            "protocol supports it, 'scalar'/'vectorized' force one path"
        ),
    )
    simulate.add_argument(
        "--batch",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "run all seeds as one batched vectorized program when eligible "
            "(bit-identical to per-seed runs; --no-batch forces the per-seed loop)"
        ),
    )
    simulate.add_argument(
        "--save", default=None, help="write the results table to a .json or .csv file"
    )
    simulate.add_argument(
        "--dump-spec",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help=(
            "emit the ScenarioSpec JSON that reproduces this invocation "
            "(to stdout, or to PATH) instead of running it"
        ),
    )

    run_spec_cmd = subparsers.add_parser(
        "run-spec", help="execute a scenario spec file (JSON) and print the table"
    )
    run_spec_cmd.add_argument("spec_file", help="path to a ScenarioSpec .json file")
    run_spec_cmd.add_argument(
        "--save", default=None, help="write the results table to a .json or .csv file"
    )
    run_spec_cmd.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fan the sweep's grid points out over N worker processes; the "
            "merged result is bit-identical to the serial run"
        ),
    )
    run_spec_cmd.add_argument(
        "--shard",
        default=None,
        metavar="I/K",
        help=(
            "run only shard I of K (zero-based contiguous slice of the grid); "
            "for multi-host sweeps give every shard a --stream-dir, combine "
            "the directories, and reassemble with an unsharded --resume"
        ),
    )
    run_spec_cmd.add_argument(
        "--stream-dir",
        default=None,
        metavar="DIR",
        help=(
            "append every completed grid point to a crash-safe streaming "
            "sink in DIR (checksummed, fsync'd segment files) instead of "
            "holding results in memory; a sweep killed at any byte offset "
            "resumes with --resume from exactly what reached the disk"
        ),
    )
    run_spec_cmd.add_argument(
        "--fsync-every",
        type=int,
        default=1,
        metavar="N",
        help=(
            "fsync the stream sink after every N appended records (default "
            "1: every point durable before the sweep proceeds; larger N "
            "trades a crash window of up to N records for throughput)"
        ),
    )
    run_spec_cmd.add_argument(
        "--resume",
        action="store_true",
        help=(
            "skip grid points already durable in --stream-dir, including "
            "every shard's when run unsharded (the directory must belong to "
            "this exact spec)"
        ),
    )
    run_spec_cmd.add_argument(
        "--dry-run",
        action="store_true",
        help=(
            "print the expanded grid (point index, axis values, label, run "
            "seeds, and the engine plan each point will execute) without "
            "running anything; honours --shard; exits 1 if a point is refused"
        ),
    )
    run_spec_cmd.add_argument(
        "--progress",
        action="store_true",
        help="print one line per completed grid point (to stderr)",
    )
    run_spec_cmd.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help=(
            "execution attempts per grid point before it is quarantined and "
            "the sweep continues without it (default 3; quarantined points "
            "are listed in the table notes and provenance)"
        ),
    )
    run_spec_cmd.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-point wall-clock budget; a stalled worker is restarted and "
            "the overdue point retried (parallel runs only)"
        ),
    )
    # Deterministic fault injection — test machinery for the resilience
    # layer (see repro.faultinject), deliberately absent from --help.
    run_spec_cmd.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE",
        help=argparse.SUPPRESS,
    )

    experiment = subparsers.add_parser(
        "experiment", help="run a registered experiment (E1..E13)"
    )
    experiment.add_argument("experiment_id", help="experiment id, e.g. E1")
    experiment.add_argument(
        "--full",
        action="store_true",
        help="use the full (slow) sweep sizes instead of the quick ones",
    )
    experiment.add_argument("--seed", type=int, default=2008, help="master seed")
    experiment.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for the experiment's grid points (every "
            "broadcast experiment; not E11); results are bit-identical to the "
            "serial run"
        ),
    )
    experiment.add_argument(
        "--save", default=None, help="write the results table to a .json or .csv file"
    )

    p2p = subparsers.add_parser(
        "p2p", help="run the replicated-database gossip simulation"
    )
    p2p.add_argument("--peers", type=int, default=256, help="number of peers")
    p2p.add_argument("--d", type=int, default=8, help="overlay degree")
    p2p.add_argument(
        "--rule",
        default="algorithm1",
        choices=["push", "push-pull", "algorithm1", "algorithm2"],
        help="per-update gossip rule",
    )
    p2p.add_argument("--updates", type=int, default=2, help="updates created per round")
    p2p.add_argument(
        "--rounds", type=int, default=5, help="rounds during which updates are created"
    )
    p2p.add_argument("--churn", type=float, default=0.0, help="join/leave rate per round")
    p2p.add_argument(
        "--anti-entropy",
        type=int,
        default=0,
        help="anti-entropy repair rounds to run after the gossip phase",
    )
    p2p.add_argument("--seed", type=int, default=2008, help="master seed")

    subparsers.add_parser(
        "list-protocols", help="list available protocols and their parameters"
    )
    subparsers.add_parser(
        "list-graphs", help="list available graph families and their parameters"
    )
    subparsers.add_parser(
        "list-failures", help="list available failure models and their parameters"
    )
    subparsers.add_parser(
        "list-churn", help="list available churn models and their parameters"
    )
    subparsers.add_parser("list-experiments", help="list registered experiments")
    add_lint_parser(subparsers)
    return parser


def _simulate_spec(args: argparse.Namespace) -> ScenarioSpec:
    """The ScenarioSpec equivalent of a ``simulate`` invocation."""
    from .spec.scenario import GraphSpec, ProtocolSpec, ScenarioSpec

    config = {}
    if args.loss:
        config["message_loss_probability"] = args.loss
    if args.full_schedule:
        config["stop_when_informed"] = False
    return ScenarioSpec(
        name="simulate",
        graph=GraphSpec(
            family="connected-random-regular", params={"n": args.n, "d": args.d}
        ),
        protocol=ProtocolSpec(name=args.protocol),
        repetitions=args.seeds,
        master_seed=args.seed,
        label="simulate-{protocol}",
        engine=args.engine,
        batch=args.batch,
        config=config,
    )


def _render_point_table(title: str, run: ScenarioRun) -> Table:
    """The per-seed simulate table (one row per run plus the aggregate note)."""
    from .core.metrics import aggregate_runs
    from .experiments.tables import Table

    results = run.points[0].results
    table = Table(
        title=title,
        columns=["run", "success", "rounds", "transmissions", "tx_per_node"],
    )
    for index, result in enumerate(results):
        table.add_row(
            run=index,
            success=result.success,
            rounds=(
                result.rounds_to_completion
                if result.rounds_to_completion is not None
                else result.rounds_executed
            ),
            transmissions=result.total_transmissions,
            tx_per_node=result.transmissions_per_node,
        )
    aggregate = aggregate_runs(results)
    engine_note = results[0].metadata.get("engine", "scalar")
    if "batch_size" in results[0].metadata:
        engine_note += f", batched x{results[0].metadata['batch_size']}"
    table.add_note(
        f"aggregate over {aggregate.runs} runs: success rate "
        f"{aggregate.success_rate:.2f}, mean rounds {aggregate.rounds.mean:.1f}, "
        f"mean tx/node {aggregate.transmissions_per_node.mean:.2f} "
        f"[engine: {engine_note}]"
    )
    table.metadata["spec"] = run.spec.to_dict()
    return table


def _run_simulate(args: argparse.Namespace) -> int:
    from .experiments.results_io import save_table
    from .spec.run import run_spec
    from .spec.scenario import save_spec

    spec = _simulate_spec(args)
    if args.dump_spec is not None:
        if args.dump_spec == "-":
            print(spec.to_json())
        else:
            destination = save_spec(spec, args.dump_spec)
            print(f"wrote spec to {destination}")
        return 0
    run = run_spec(spec)
    table = _render_point_table(
        f"{args.protocol} on a random {args.d}-regular graph with n = {args.n}",
        run,
    )
    print(table.render())
    if args.save:
        destination = save_table(table, args.save)
        print(f"saved results to {destination}")
    return 0


def _point_node_count(point_spec: ScenarioSpec) -> Optional[int]:
    """The node count a point's graph will have, derived from its family's
    params (builder defaults included), or ``None`` when they do not say."""
    family = point_spec.graph.family
    params = point_spec.graph.params
    if family == "hypercube" and "dimension" in params:
        return 2 ** int(params["dimension"])
    if "n" not in params:
        return None
    if family == "regular-product-clique":
        from .graphs.registry import GRAPH_FAMILIES

        # ``n`` sizes the regular base graph; each base node becomes a clique.
        builder = GRAPH_FAMILIES.entry(family).builder
        default = inspect.signature(builder).parameters["clique_size"].default
        return int(params["n"]) * int(params.get("clique_size", default))
    return int(params["n"])


def _plan_engine(plan: RunPlan) -> str:
    """A plan's engine column: ``scalar (<reason>)`` or ``vectorized (...)``."""
    if plan.engine == "scalar":
        return f"scalar ({plan.reason})"
    return "vectorized (batched)" if plan.batched else "vectorized (per-seed)"


def _dry_run_table(spec: ScenarioSpec, shard: Optional[str]) -> Tuple[Table, int]:
    """The expanded grid as a table, and how many of its points are refused.

    Each row shows the point index, axis values, label, run seeds, and the
    plan ``run_point`` will execute (:meth:`ExperimentRunner.plan_point`):
    its engine and the state shape (R, n) with its estimated resident size
    — enough to predict memory before a million-node launch.  A point whose
    ``engine="vectorized"`` cannot be honoured shows ``refused (<error>)``.
    """
    from .core.engine import RunPlan
    from .core.errors import SimulationError
    from .dist.partition import expand_points, select_indices
    from .experiments.runner import ExperimentRunner
    from .experiments.tables import Table

    points = expand_points(spec)
    indices = select_indices(len(points), shard=shard)
    axis_keys = (
        [axis.label_key for axis in spec.sweep.axes] if spec.sweep is not None else []
    )
    table = Table(
        title=f"dry run: {spec.name} ({len(points)} point(s), "
        f"{spec.repetitions} repetition(s) per point)",
        columns=["point"]
        + axis_keys
        + ["label", "seeds", "batch_shape", "est_state_mb", "engine"],
    )
    refused = 0
    for index in indices:
        point = points[index]
        node_count = _point_node_count(point.spec)
        seed_label = ExperimentRunner.seed_label_for(point.spec, point.label, node_count)
        seeds = (
            ", ".join(str(seed) for seed in point.spec.run_seeds(seed_label))
            if seed_label is not None
            # Non-regular families key run seeds off the materialised node
            # count; when the params do not give it, show the rule instead.
            else f"derive_seed({spec.master_seed}, 'run', '{point.label}-<node_count>', i)"
        )
        try:
            plan = ExperimentRunner.plan_point(point.spec, node_count)
        except SimulationError as error:
            refused += 1
            engine, shape, est_mb = f"refused ({error})", "-", "-"
        else:
            engine = _plan_engine(plan)
            if plan.n is None:
                shape, est_mb = f"({plan.rows}, ?)", "?"
            else:
                shape = f"({plan.rows}, {plan.n})"
                est_mb = f"{plan.state_mb:.1f}"
        table.add_row(
            **point.values,
            point=index,
            label=point.label,
            seeds=seeds,
            batch_shape=shape,
            est_state_mb=est_mb,
            engine=engine,
        )
    table.add_note(
        "batch_shape is the (R, n) engine state of one point; est_state_mb "
        f"≈ R·n·{RunPlan.STATE_BYTES} bytes (flags + informed rounds + index "
        "pools); at peak, sampling scratch adds at most one delivery block "
        "(2^18 channels, ~10 MB) to any plan, ~3-7 MB measured over a "
        "20 x 32768 batch"
    )
    if refused:
        table.add_note(
            f"{refused} point(s) refused: run-spec raises SimulationError on them"
        )
    if shard is not None:
        if indices:
            table.add_note(
                f"shard {shard} selects {len(indices)} of {len(points)} "
                f"point(s): {indices[0]}..{indices[-1]}"
            )
        else:
            table.add_note(
                f"shard {shard} selects no points of this {len(points)}-point grid"
            )
    table.add_note(
        f"master seed {spec.master_seed}; run seeds are "
        "derive_seed(master, 'run', seed_label, i) for i in 0..repetitions-1"
    )
    return table, refused


def _run_run_spec(args: argparse.Namespace) -> int:
    from .core.errors import ConfigurationError
    from .dist.progress import print_point_progress
    from .dist.resilience import RetryPolicy, SweepInterrupted
    from .dist.sink import SinkFullError
    from .experiments.results_io import save_table
    from .spec.run import run_spec
    from .spec.scenario import load_spec

    if args.resume and args.stream_dir is None:
        # Fail before any work (or spec parsing) happens: a typo'd resume
        # would otherwise silently re-run the whole sweep from scratch.
        raise ConfigurationError(
            "--resume requires --stream-dir: resuming needs the directory "
            "that holds the earlier run's durable points"
        )

    spec = load_spec(args.spec_file)
    if args.dry_run:
        table, refused = _dry_run_table(spec, args.shard)
        print(table.render())
        return 1 if refused else 0

    retry = None
    if args.max_attempts is not None or args.point_timeout is not None:
        kwargs = {}
        if args.max_attempts is not None:
            kwargs["max_attempts"] = args.max_attempts
        if args.point_timeout is not None:
            kwargs["timeout_seconds"] = args.point_timeout
        retry = RetryPolicy(**kwargs)
    fault_plan = None
    if args.fault_plan is not None:
        from .faultinject import load_plan

        fault_plan = load_plan(args.fault_plan)

    try:
        run = run_spec(
            spec,
            workers=args.workers,
            shard=args.shard,
            stream_dir=args.stream_dir,
            fsync_every=args.fsync_every,
            resume=args.resume,
            progress=print_point_progress if args.progress else None,
            retry=retry,
            fault_plan=fault_plan,
        )
    except SweepInterrupted as interrupted:
        print(str(interrupted), file=sys.stderr)
        return 130  # conventional exit status for SIGINT-terminated commands
    except SinkFullError as full:
        # Everything appended so far is durable; the sweep is resumable as
        # soon as space is freed — report how, don't stack-trace.
        print(str(full), file=sys.stderr)
        return 75  # EX_TEMPFAIL: transient, retry later
    table = run.to_table()
    print(table.render())
    if args.save:
        destination = save_table(table, args.save)
        print(f"saved results to {destination}")
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    from .experiments.registry import run_experiment_by_id
    from .experiments.results_io import save_table

    kwargs = {}
    if args.workers is not None:
        kwargs["workers"] = args.workers
    table = run_experiment_by_id(
        args.experiment_id, quick=not args.full, master_seed=args.seed, **kwargs
    )
    print(table.render())
    if args.save:
        destination = save_table(table, args.save)
        print(f"saved results to {destination}")
    return 0


def _run_p2p(args: argparse.Namespace) -> int:
    from .core.rng import RandomSource, derive_seed
    from .experiments.tables import Table
    from .p2p.gossip_rules import build_gossip_rule
    from .p2p.overlay import Overlay
    from .p2p.replicated_db import ReplicatedDatabase, UpdateWorkload

    rng = RandomSource(seed=derive_seed(args.seed, "cli-p2p"))
    overlay = Overlay(n=args.peers, degree=args.d, rng=rng.spawn("overlay"))
    database = ReplicatedDatabase(
        overlay=overlay,
        rule=build_gossip_rule(args.rule, args.peers),
        rng=rng.spawn("db"),
        join_rate=args.churn,
        leave_rate=args.churn,
    )
    workload = UpdateWorkload(
        updates_per_round=args.updates, injection_rounds=args.rounds
    )
    report = database.run(workload)

    table = Table(
        title=(
            f"replicated database: {args.rule} rule, {args.peers} peers, "
            f"degree {args.d}, churn {args.churn}"
        ),
        columns=["metric", "value"],
    )
    table.add_row(metric="updates created", value=report.updates_created)
    table.add_row(metric="fully replicated", value=report.updates_fully_replicated)
    table.add_row(metric="replication rate", value=report.replication_rate)
    table.add_row(metric="mean convergence rounds", value=report.mean_convergence_rounds)
    table.add_row(
        metric="transmissions / update / peer",
        value=report.transmissions_per_update_per_peer,
    )
    table.add_row(metric="payload KiB", value=report.total_payload_bytes / 1024.0)
    table.add_row(metric="final divergence", value=report.final_divergence)
    table.add_row(metric="replicas agree", value=database.replicas_agree())

    if args.anti_entropy > 0:
        repair = database.anti_entropy(rounds=args.anti_entropy)
        table.add_row(metric="anti-entropy rounds", value=repair.rounds)
        table.add_row(metric="anti-entropy updates moved", value=repair.updates_transferred)
        table.add_row(metric="divergence after repair", value=repair.final_divergence)

    print(table.render())
    return 0


def _print_registry(registry: Registry) -> int:
    for entry in registry:
        print(f"{entry.name}: {entry.summary}" if entry.summary else entry.name)
        for param, help_text in entry.params.items():
            print(f"    {param} — {help_text}")
    return 0


def _run_list_experiments() -> int:
    from .experiments.registry import available_experiments

    for experiment_id, description in available_experiments().items():
        print(f"{experiment_id}: {description}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate":
        return _run_simulate(args)
    if args.command == "run-spec":
        return _run_run_spec(args)
    if args.command == "experiment":
        return _run_experiment(args)
    if args.command == "p2p":
        return _run_p2p(args)
    if args.command == "list-protocols":
        from .protocols.registry import PROTOCOLS

        return _print_registry(PROTOCOLS)
    if args.command == "list-graphs":
        from .graphs.registry import GRAPH_FAMILIES

        return _print_registry(GRAPH_FAMILIES)
    if args.command == "list-failures":
        from .failures.registry import FAILURE_MODELS

        return _print_registry(FAILURE_MODELS)
    if args.command == "list-churn":
        from .failures.churn_registry import CHURN_MODELS

        return _print_registry(CHURN_MODELS)
    if args.command == "list-experiments":
        return _run_list_experiments()
    if args.command == "lint":
        return run_lint(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
