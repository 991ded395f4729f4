"""Workloads, result digests, invariants and statistics of the end-to-end benchmark.

Shared by ``run.py``, the per-repetition process (``child.py``), the
comparer (``compare.py``) and the self-tests.  Nothing here imports
``repro``: ``run.py`` and the comparer must run, and fail cleanly, without
the package on the path.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
GOLDEN_JSON = HERE / "golden.json"

#: ``golden.json`` pins the digests of this seed and of seed 7, which was
#: held out while the benchmark was written.
DEFAULT_SEED = 2008


@dataclass(frozen=True)
class Workload:
    """How one spec file under ``workloads/`` is run.

    ``workers``/``stream`` select the ``run_spec`` keywords (a worker pool,
    a durable stream directory); ``quick`` maps a spec path to the tiny
    value used by ``--quick``: a sweep axis of that path gets new values,
    any other path is set in the base spec.
    """

    name: str
    workers: Optional[int] = None
    stream: bool = False
    quick: Mapping[str, object] = field(default_factory=dict)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("bcast_1e6", quick={"graph.params.n": 2000}),
        Workload("sweep_e1", quick={"graph.params.n": [64, 128, 256]}),
        Workload("churn_e8", quick={"graph.params.n": 500}),
        Workload(
            "stream_sweep",
            workers=2,
            stream=True,
            quick={"graph.params.n": [64, 128], "graph.instance": [0, 1]},
        ),
    )
}


def spec_dict(name: str, seed: int, quick: bool = False) -> dict:
    """The workload's scenario dict with ``seed`` as its master seed."""
    data = json.loads((HERE / "workloads" / f"{name}.json").read_text())
    data["master_seed"] = seed
    if quick:
        axes = (data.get("sweep") or {}).get("axes", [])
        for path, value in WORKLOADS[name].quick.items():
            axis = next((a for a in axes if a["path"] == path), None)
            if axis is not None:
                axis["values"] = value
                continue
            *parents, leaf = path.split(".")
            node = data
            for key in parents:
                node = node[key]
            node[leaf] = value
    return data


def grid_size(data: Mapping) -> int:
    """Number of grid points of a scenario dict (1 without a sweep)."""
    size = 1
    for axis in (data.get("sweep") or {}).get("axes", []):
        size *= len(axis["values"])
    return size


# -- correctness ---------------------------------------------------------------


def run_outcome(result) -> dict:
    """The exact per-run counts a performance change must leave unchanged."""
    return {
        "n": int(result.n),
        "success": bool(result.success),
        "rounds_executed": int(result.rounds_executed),
        "rounds_to_completion": (
            None
            if result.rounds_to_completion is None
            else int(result.rounds_to_completion)
        ),
        "push": int(result.total_push_transmissions),
        "pull": int(result.total_pull_transmissions),
        "channels": int(result.total_channels_opened),
        "lost": int(result.total_lost_transmissions),
        "final_informed": int(result.final_informed),
    }


def digest(points: Iterable) -> str:
    """SHA-256 of canonical JSON over every point's index, label and outcomes."""
    rows = [
        {
            "index": int(point.index),
            "label": str(point.label),
            "runs": [run_outcome(result) for result in point.results],
        }
        for point in points
    ]
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def failed_points(run, expected_points: int, repetitions: int) -> Dict[int, str]:
    """Grid index -> reason, for every point that is missing or breaks an invariant.

    Checked on every seed: no point quarantined or missing, each point has
    all its repetitions, informed nodes never exceed live nodes, and
    delivered transmissions never exceed attempted ones.
    """
    bad: Dict[int, str] = {}
    for failure in (run.provenance or {}).get("failures") or []:
        bad[int(failure["index"])] = "quarantined"
    present = {int(point.index) for point in run.points}
    for index in range(expected_points):
        if index not in present and index not in bad:
            bad[index] = "missing"
    for point in run.points:
        if len(point.results) != repetitions:
            bad[int(point.index)] = f"{len(point.results)} of {repetitions} runs"
        for result in point.results:
            live = int(result.metadata.get("final_node_count", result.n))
            if result.final_informed > live:
                bad[int(point.index)] = "informed exceeds live nodes"
            lost = result.total_lost_transmissions
            if lost < 0 or lost > result.total_transmissions:
                bad[int(point.index)] = "delivered exceeds attempted"
    return bad


def golden_digest(name: str, seed: int, quick: bool) -> Optional[str]:
    """The pinned digest for this workload and seed, or ``None`` if not pinned."""
    golden = json.loads(GOLDEN_JSON.read_text())
    return golden.get("quick" if quick else "full", {}).get(name, {}).get(str(seed))


# -- statistics ----------------------------------------------------------------

#: Candidate tail quantiles, from the median outwards.
TAIL_LADDER = (0.5, 0.9, 0.99, 0.999, 0.9999)


def tail_quantile(samples: int) -> Optional[float]:
    """The highest ladder quantile with at least ten samples beyond it."""
    eligible = [q for q in TAIL_LADDER if samples * (1.0 - q) >= 10.0 - 1e-9]
    return eligible[-1] if eligible else None


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count, quartiles as ``statistics.quantiles`` gives them."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


# -- benchmark definition ------------------------------------------------------


def benchmark_metrics(kind: str) -> List[dict]:
    """The ``end_to_end`` or ``per_layer`` metric entries of ``BENCHMARK.json``."""
    return json.loads(BENCHMARK_JSON.read_text())[kind]
