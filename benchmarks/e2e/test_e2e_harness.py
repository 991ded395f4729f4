"""Self-tests of the end-to-end benchmark harness (``pytest benchmarks/ -m smoke``)."""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

import compare
import harness
import tracer

pytestmark = pytest.mark.smoke

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.mark.parametrize(
    "samples, expected",
    [(19, None), (20, 0.5), (99, 0.5), (100, 0.9), (360, 0.9), (1440, 0.99), (10_000, 0.999)],
)
def test_tail_quantile_is_highest_with_ten_samples_beyond(samples, expected):
    assert harness.tail_quantile(samples) == expected


def _span(span_id, parent, start, end, pid=1):
    return {"name": span_id, "id": span_id, "parent": parent, "pid": pid,
            "start": start, "end": end, "args": {}}


def test_self_time_subtracts_union_of_nested_and_back_to_back_children():
    spans = [
        _span("root", None, 0, 100),
        _span("a", "root", 10, 30),
        _span("b", "root", 30, 50),  # back to back with a
        _span("c", "a", 15, 20),  # nested one level deeper
        _span("w", "root", 40, 60, pid=2),  # another process, overlapping b
        _span("e", "b", 45, 55),  # runs past its parent's end
    ]
    own = tracer.self_times(spans)
    assert own == {"root": 50, "a": 15, "b": 15, "c": 5, "w": 20, "e": 10}


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    from repro.spec.scenario import ScenarioSpec

    original_from_dict = ScenarioSpec.__dict__["from_dict"]
    spans = tracer.Tracer("test/0", tmp_path)
    spans.install()
    installed = list(spans.patches)
    try:
        assert installed
        for owner, attribute, original in installed:
            assert owner.__dict__[attribute] is not original
    finally:
        spans.restore()
    for owner, attribute, original in installed:
        assert owner.__dict__[attribute] is original
    assert ScenarioSpec.__dict__["from_dict"] is original_from_dict
    assert not spans.patches


def test_compare_rule():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(base, base, "lower", 0.1)["status"] == "unchanged"
    faster = [v * 0.7 for v in base]
    assert compare.verdict(base, faster, "lower", 0.1)["status"] == "improved"
    assert compare.verdict(base, faster, "higher", 0.1)["status"] == "regressed"
    noisy = [0.6, 1.5, 0.7, 1.4, 0.8, 1.3, 0.6, 1.5, 0.9, 1.2]
    assert compare.verdict(base, noisy, "lower", 0.1)["status"] == "unresolved"


def _run(tmp_path, *flags):
    completed = subprocess.run(
        [sys.executable, str(harness.HERE / "run.py"), "--quick", "--out", str(tmp_path),
         *flags],
        capture_output=True, text=True, timeout=170, cwd=harness.ROOT,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    results = [json.loads(path.read_text()) for path in (tmp_path / "results").glob("*.json")]
    return json.loads(completed.stdout.splitlines()[-1]), results


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_quick_run_emits_every_metric_and_reproduces_pinned_digests(tmp_path, trace, kind):
    summary, results = _run(tmp_path, "--repeat", "1", "--trace", trace)
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    declared = [metric["name"] for metric in harness.benchmark_metrics(kind)]
    assert all(NAME.match(name) for name in declared)
    assert sorted(r["workload"] for r in results) == sorted(harness.WORKLOADS)
    for record in results:
        assert set(record["metrics"]) == set(declared)
        assert all(NAME.match(name) for name in record["metrics"])
        pinned = harness.golden_digest(record["workload"], harness.DEFAULT_SEED, quick=True)
        assert record["digest"] == pinned
    if trace == "1":
        for name in harness.WORKLOADS:
            events = json.loads((tmp_path / f"trace-{name}.json").read_text())["traceEvents"]
            assert any(event["name"] == tracer.ROOT_SPAN for event in events)
