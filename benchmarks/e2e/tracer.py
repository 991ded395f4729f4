"""Span tracing of the simulator's layers from outside ``src/``.

:class:`Tracer` wraps the public callables of each layer at the attribute
its caller looks up, records one span per call (name, start, end, parent,
process) plus counts taken from the returned values, and restores every
attribute afterwards.  Arguments and return values pass through untouched,
so a traced run reproduces the untraced result digest.

Pool workers are forked with the wrappers installed.  A forked process
notices its new pid on its first span, drops the spans it inherited, and
appends each finished top-level span tree to ``spans-<pid>.jsonl`` in the
spill directory.  The executor terminates idle workers at shutdown, so
nothing may wait for a clean worker exit to be written.

:func:`layer_metrics` turns the merged spans into the per-layer metrics of
``BENCHMARK.json``; :func:`chrome_trace` writes them in the Chrome
trace-event format that Perfetto opens.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import quantile, tail_quantile

ROOT_SPAN = "workload"

CountFn = Callable[[dict, tuple, object], None]


def _add_outcomes(args: dict, results: Sequence) -> None:
    args["node_rounds"] = sum(int(r.n) * int(r.rounds_executed) for r in results)
    args["useful"] = sum(int(r.final_informed) - 1 for r in results)
    args["transmissions"] = sum(int(r.total_transmissions) for r in results)
    args["delivered"] = sum(int(r.total_delivered_transmissions) for r in results)


def _count_single(args: dict, call_args: tuple, result) -> None:
    _add_outcomes(args, [result])
    churn = result.metadata.get("churn") or {}
    for key in ("departures", "arrivals", "node_compactions"):
        args[key] = int(churn.get(key, 0))


def _count_batch(args: dict, call_args: tuple, results) -> None:
    _add_outcomes(args, results)
    rounds = [int(r.rounds_executed) for r in results]
    args["rows"] = len(rounds)
    args["row_rounds"] = sum(rounds)
    args["row_rounds_max"] = len(rounds) * max(rounds, default=0)


def _count_executor(args: dict, call_args: tuple, run) -> None:
    provenance = run.provenance
    stream = provenance.get("stream") or {}
    args["workers"] = int(call_args[0].workers)
    args["retries"] = int(provenance.get("retries", 0))
    args["pool_restarts"] = int(provenance.get("pool_restarts", 0))
    args["graph_builds"] = int(provenance.get("graph_builds", 0))
    args["graphs_distinct"] = int(provenance.get("graphs_distinct", 0))
    args["fsync_calls"] = int(stream.get("fsync_calls", 0))
    args["segments"] = int(stream.get("segments", 0))


def _count_append(args: dict, call_args: tuple, location) -> None:
    _, start, end = location
    args["bytes"] = int(end) - int(start)


class Tracer:
    """In-memory span recorder that patches the layers' entry points."""

    def __init__(self, trace_id: str, spill_dir: Path) -> None:
        self.trace_id = trace_id
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self._serial = 0
        self.patches: List[Tuple[object, str, object]] = []
        self._spill_path: Optional[Path] = None
        self._inherited_depth = 0

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> dict:
        pid = os.getpid()
        if pid != self.pid:
            self._forked(pid)
        self._serial += 1
        span = {
            "name": name,
            "id": f"{pid}.{self._serial}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "pid": pid,
            "start": time.perf_counter_ns(),
            "end": None,
            "args": {},
        }
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:
            self._stack.remove(span)
        self.spans.append(span)
        if self._spill_path is not None and len(self._stack) <= self._inherited_depth:
            with self._spill_path.open("a") as spill:
                spill.writelines(json.dumps(done) + "\n" for done in self.spans)
            self.spans = []

    def _forked(self, pid: int) -> None:
        # perf_counter_ns reads CLOCK_MONOTONIC on Linux, which forked
        # workers share with the parent, so their spans line up with it.
        self.pid = pid
        self.spans = []
        self._inherited_depth = len(self._stack)
        self._spill_path = self.spill_dir / f"spans-{pid}.jsonl"

    def collect(self) -> List[dict]:
        """This process's spans plus every span the forked workers spilled."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with path.open() as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
        return spans

    # -- patching --------------------------------------------------------------

    def _wrap(self, name: str, function: Callable, count: Optional[CountFn]) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = function(*args, **kwargs)
                if count is not None:
                    count(span["args"], args, result)
                return result
            finally:
                tracer.close(span)

        return traced

    def _wrap_iterator(self, name: str, function: Callable) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            # The span covers consumption, so the consumer's own spans
            # (payload decoding) nest inside it as children.
            span = tracer.open(name)
            try:
                yield from function(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    def patch(
        self,
        owner: object,
        attribute: str,
        name: str,
        count: Optional[CountFn] = None,
        iterator: bool = False,
    ) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper."""
        original = owner.__dict__[attribute]
        if iterator:
            replacement = self._wrap_iterator(name, original)
        elif isinstance(original, classmethod):
            replacement = classmethod(self._wrap(name, original.__func__, count))
        else:
            replacement = self._wrap(name, original, count)
        setattr(owner, attribute, replacement)
        self.patches.append((owner, attribute, original))

    def install(self) -> None:
        """Wrap every layer's entry points (see the README's layer table)."""
        import repro.dist.executor as executor_module
        import repro.dist.partition as partition_module
        import repro.experiments.results_io as results_io
        import repro.experiments.runner as runner_module
        from repro.core.metrics import RunResult
        from repro.dist.sink import StreamingResultSink
        from repro.failures.churn import ChurnModel
        from repro.graphs.base import Graph
        from repro.protocols.base import BroadcastProtocol
        import repro.protocols.registry  # noqa: F401 - imports every protocol class
        from repro.spec.run import ScenarioRun
        from repro.spec.scenario import ScenarioSpec

        self.patch(runner_module, "connected_random_regular_graph", "graphs.build")
        self.patch(runner_module, "build_graph", "graphs.build")
        self.patch(Graph, "csr", "graphs.csr")
        self.patch(runner_module, "run_broadcast", "engine.single", _count_single)
        self.patch(runner_module, "run_broadcast_batch", "engine.batch", _count_batch)
        # Hooks are wrapped on the class that defines them, so a subclass that
        # inherits one still shares the base's function object: the engines
        # compare hooks by identity to see which ones a protocol overrides.
        for cls in _subclasses(BroadcastProtocol):
            for attribute in sorted(cls.__dict__):
                if attribute.startswith("vector_") and callable(cls.__dict__[attribute]):
                    self.patch(cls, attribute, "protocols.hook")
        for cls in _subclasses(ChurnModel):
            if "vector_apply" in cls.__dict__:
                self.patch(cls, "vector_apply", "churn.apply")
        self.patch(ScenarioSpec, "from_dict", "spec.from_dict")
        self.patch(partition_module, "expand_points", "spec.expand")
        self.patch(executor_module, "expand_points", "spec.expand")
        self.patch(RunResult, "to_dict", "wire.encode")
        self.patch(RunResult, "from_dict", "wire.decode")
        self.patch(runner_module.ExperimentRunner, "run_point", "runner.point")
        self.patch(
            executor_module.ParallelScenarioExecutor, "run", "executor.run", _count_executor
        )
        self.patch(StreamingResultSink, "append", "sink.append", _count_append)
        self.patch(StreamingResultSink, "iter_merged", "sink.merge", iterator=True)
        self.patch(ScenarioRun, "to_table", "tables.build")
        self.patch(results_io, "save_table_json", "tables.save")

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self.patches:
            owner, attribute, original = self.patches.pop()
            setattr(owner, attribute, original)


def _subclasses(base: type) -> List[type]:
    """``base`` and every class below it, each once."""
    found: List[type] = [base]
    for cls in found:
        found.extend(sub for sub in cls.__subclasses__() if sub not in found)
    return found


# -- analysis ------------------------------------------------------------------


def self_times(spans: Sequence[dict]) -> Dict[str, int]:
    """Span id -> duration minus the union of its children's intervals (ns).

    Children may run in other processes (pool workers) and overlap each
    other; only the part of the parent's interval that no child covers
    counts as the parent's own time.
    """
    children: Dict[str, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    result: Dict[str, int] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(span["id"], ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span["id"]] = (end - start) - covered
    return result


class _Layer:
    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        self.durations: List[int] = []
        self.args: Dict[str, int] = defaultdict(int)


def layer_metrics(spans: Sequence[dict], points: int) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced repetition.

    ``points`` is the number of grid points the repetition ran.  Times are
    self times in seconds unless the name says otherwise.
    """
    own = self_times(spans)
    layers: Dict[str, _Layer] = defaultdict(_Layer)
    for span in spans:
        layer = layers[span["name"]]
        duration = span["end"] - span["start"]
        layer.calls += 1
        layer.self_ns += own[span["id"]]
        layer.total_ns += duration
        layer.durations.append(duration)
        for key, value in span["args"].items():
            layer.args[key] += value
    root = next(s for s in spans if s["name"] == ROOT_SPAN)
    root_pid = root["pid"]
    by_id = {s["id"]: s for s in spans}

    def seconds(name: str) -> float:
        return layers[name].self_ns / 1e9

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    single, batch = layers["engine.single"], layers["engine.batch"]
    engine_ns = single.total_ns + batch.total_ns
    node_rounds = single.args["node_rounds"] + batch.args["node_rounds"]
    transmissions = single.args["transmissions"] + batch.args["transmissions"]
    points_s = [d / 1e9 for d in layers["runner.point"].durations]
    tail_q = tail_quantile(len(points_s)) or 0.5
    executor = layers["executor.run"]
    worker_ns = sum(
        s["end"] - s["start"]
        for s in spans
        if s["pid"] != root_pid and by_id.get(s["parent"], root)["pid"] == root_pid
    )
    root_ns = root["end"] - root["start"]
    return {
        "spec.from_dict_s": seconds("spec.from_dict"),
        "spec.from_dict_calls": layers["spec.from_dict"].calls,
        "spec.from_dict_per_point": ratio(layers["spec.from_dict"].calls, points),
        "spec.expand_s": seconds("spec.expand"),
        "graphs.build_s": seconds("graphs.build"),
        "graphs.builds": layers["graphs.build"].calls,
        "graphs.csr_s": seconds("graphs.csr"),
        "graphs.cache_hit_ratio": 1.0
        - ratio(layers["graphs.build"].calls, layers["runner.point"].calls),
        "engine.single_s": seconds("engine.single"),
        "engine.single_calls": single.calls,
        "engine.batch_s": seconds("engine.batch"),
        "engine.batch_calls": batch.calls,
        "engine.batch_rows": batch.args["rows"],
        "engine.batch_live_row_ratio": ratio(
            batch.args["row_rounds"], batch.args["row_rounds_max"]
        ),
        "engine.node_rounds": node_rounds,
        "engine.ns_per_node_round": ratio(engine_ns, node_rounds),
        "engine.useful_tx_ratio": ratio(
            single.args["useful"] + batch.args["useful"], transmissions
        ),
        "engine.delivered_ratio": ratio(
            single.args["delivered"] + batch.args["delivered"], transmissions
        ),
        "protocols.hook_s": seconds("protocols.hook"),
        "protocols.hook_calls": layers["protocols.hook"].calls,
        "protocols.hook_share": ratio(layers["protocols.hook"].total_ns, engine_ns),
        "churn.apply_s": seconds("churn.apply"),
        "churn.apply_calls": layers["churn.apply"].calls,
        "churn.departures": single.args["departures"],
        "churn.arrivals": single.args["arrivals"],
        "churn.node_compactions": single.args["node_compactions"],
        "wire.encode_s": seconds("wire.encode"),
        "wire.decode_s": seconds("wire.decode"),
        "wire.records": layers["wire.encode"].calls,
        "runner.point_s.p50": quantile(points_s, 0.5) if points_s else 0.0,
        "runner.point_s.tail": quantile(points_s, tail_q) if points_s else 0.0,
        "runner.point_s.tail_q": tail_q,
        "runner.point_s.samples": len(points_s),
        "runner.self_s": seconds("runner.point"),
        "executor.s": seconds("executor.run"),
        "executor.busy_frac": ratio(
            worker_ns, executor.args["workers"] * executor.total_ns
        ),
        "executor.builds_per_distinct_graph": ratio(
            executor.args["graph_builds"], executor.args["graphs_distinct"]
        ),
        "executor.retries": executor.args["retries"],
        "executor.pool_restarts": executor.args["pool_restarts"],
        "sink.append_s": seconds("sink.append"),
        "sink.appends": layers["sink.append"].calls,
        "sink.fsync_calls": executor.args["fsync_calls"],
        "sink.bytes": layers["sink.append"].args["bytes"],
        "sink.segments": executor.args["segments"],
        "sink.merge_s": seconds("sink.merge"),
        "tables.build_s": seconds("tables.build"),
        "tables.save_s": seconds("tables.save"),
        "trace.coverage": 1.0 - ratio(own[root["id"]], root_ns),
    }


def chrome_trace(spans: Sequence[dict], trace_id: str) -> dict:
    """The spans as a Chrome trace-event document (open it in Perfetto)."""
    origin = min(span["start"] for span in spans)
    root_pid = next(s["pid"] for s in spans if s["name"] == ROOT_SPAN)
    events: List[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "args": {"name": "workload" if pid == root_pid else f"worker {pid}"},
        }
        for pid in sorted({span["pid"] for span in spans})
    ]
    for span in sorted(spans, key=lambda s: s["start"]):
        events.append(
            {
                "name": span["name"],
                "cat": span["name"].split(".")[0],
                "ph": "X",
                "ts": (span["start"] - origin) / 1000.0,
                "dur": (span["end"] - span["start"]) / 1000.0,
                "pid": span["pid"],
                "tid": span["pid"],
                "args": {
                    "trace_id": trace_id,
                    "span_id": span["id"],
                    "parent": span["parent"],
                    **span["args"],
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": {"trace_id": trace_id}}
