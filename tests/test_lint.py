"""Tests for ``repro.lint`` — the determinism-contract checker.

Every rule gets flag/no-flag fixture pairs driven through
``Linter.lint_sources`` (in-memory sources, no temp files), plus coverage of
the suppression grammar, the JSON report schema, baseline diffing, the CLI
exit-code contract, and two meta-tests: the repo's own source lints clean,
and the rule catalogue in ``docs/API.md`` §11 matches the registry.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    LINT_SCHEMA_VERSION,
    Linter,
    all_rules,
    apply_baseline,
    classify_zone,
    load_baseline,
    parse_report,
    render_json,
    render_text,
    write_baseline,
)
from repro.lint.engine import DEFAULT_TARGETS, SYNTAX_RULE_ID
from repro.lint.rule import rules_by_id
from repro.core.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parent.parent

# Rule-scoped linters: fixture snippets should only ever trip the rule under
# test, but running a single rule keeps failures readable when they do not.


def lint_one(rule_id: str, sources) -> list:
    """Run a single rule over ``{relpath: source}`` and return diagnostics."""
    report = Linter(rules=rules_by_id([rule_id])).lint_sources(sources)
    return report.diagnostics


def lint_all(sources):
    return Linter().lint_sources(sources)


# ---------------------------------------------------------------------------
# Zones
# ---------------------------------------------------------------------------


class TestZones:
    def test_classification(self):
        assert classify_zone("src/repro/core/engine.py") == "package"
        assert classify_zone("src/repro/dist/sink.py") == "package"
        assert classify_zone("benchmarks/bench_micro.py") == "benchmarks"
        assert classify_zone("examples/basic.py") == "examples"
        assert classify_zone("tests/test_engine.py") == "tests"
        assert classify_zone("setup.py") == "other"

    def test_tests_zone_is_not_patrolled_by_rng_rule(self):
        # The test suite constructs adversarial RNG on purpose.
        assert lint_one("RNG001", {"tests/test_x.py": "import random\n"}) == []

    def test_other_zone_is_never_patrolled(self):
        sources = {"scripts/tool.py": "import random\nseed = hash('x')\n"}
        assert lint_all(sources).diagnostics == []


# ---------------------------------------------------------------------------
# RNG001 — rng-discipline
# ---------------------------------------------------------------------------


class TestRngDiscipline:
    def test_import_random_flagged(self):
        diags = lint_one("RNG001", {"src/repro/x.py": "import random\n"})
        assert [d.rule for d in diags] == ["RNG001"]
        assert diags[0].line == 1

    def test_import_numpy_random_flagged(self):
        for src in (
            "import numpy.random\n",
            "import numpy.random as npr\n",
            "from numpy import random\n",
            "from numpy.random import default_rng\n",
        ):
            diags = lint_one("RNG001", {"src/repro/x.py": src})
            assert diags, f"not flagged: {src!r}"

    def test_aliased_call_resolved_through_imports(self):
        src = "import numpy as np\n\ndef f():\n    return np.random.default_rng(0)\n"
        diags = lint_one("RNG001", {"src/repro/x.py": src})
        assert len(diags) == 1
        assert diags[0].line == 4
        assert "numpy.random.default_rng" in diags[0].message

    def test_os_urandom_flagged(self):
        src = "import os\n\ntoken = os.urandom(16)\n"
        diags = lint_one("RNG001", {"src/repro/x.py": src})
        assert [d.rule for d in diags] == ["RNG001"]

    def test_secrets_and_uuid_flagged(self):
        diags = lint_one(
            "RNG001", {"src/repro/x.py": "import secrets\nimport uuid\n"}
        )
        assert len(diags) == 2

    def test_core_rng_module_is_exempt(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert lint_one("RNG001", {"src/repro/core/rng.py": src}) == []

    def test_random_source_usage_clean(self):
        src = (
            "from repro.core.rng import RandomSource\n"
            "rng = RandomSource(seed=1, name='x').generator\n"
            "value = rng.standard_normal(4)\n"
        )
        assert lint_one("RNG001", {"src/repro/x.py": src}) == []

    def test_benchmarks_zone_patrolled(self):
        assert lint_one("RNG001", {"benchmarks/b.py": "import random\n"})


# ---------------------------------------------------------------------------
# SEED001 — seed-stability
# ---------------------------------------------------------------------------


class TestSeedStability:
    def test_builtin_hash_flagged(self):
        diags = lint_one("SEED001", {"src/repro/x.py": "seed = hash('label')\n"})
        assert [d.rule for d in diags] == ["SEED001"]
        assert "PYTHONHASHSEED" in diags[0].message

    def test_e5_replication_seed_pattern_flagged(self):
        # Regression guard for the exact bug class PR 3 removed: experiment
        # E5 seeded replications with builtin hash(), which is randomised
        # per process, so every worker ran different streams.
        src = (
            "def replication_seeds(n, reps):\n"
            "    return [hash(f'E5-{n}-{i}') for i in range(reps)]\n"
        )
        diags = lint_one("SEED001", {"src/repro/experiments/exp_e5.py": src})
        assert len(diags) == 1
        assert diags[0].rule == "SEED001"
        assert diags[0].line == 2

    def test_id_flagged(self):
        assert lint_one("SEED001", {"src/repro/x.py": "key = id(object())\n"})

    def test_wall_clock_flagged(self):
        for src in (
            "import time\nstamp = time.time()\n",
            "import time\nstamp = time.time_ns()\n",
            "from time import time\nstamp = time()\n",
            "from time import time as now\nstamp = now()\n",
            "import datetime\nstamp = datetime.datetime.now()\n",
            "from datetime import datetime\nstamp = datetime.utcnow()\n",
        ):
            assert lint_one("SEED001", {"src/repro/x.py": src}), f"missed: {src!r}"

    def test_monotonic_timing_not_flagged(self):
        src = (
            "import time\n"
            "start = time.perf_counter()\n"
            "elapsed = time.monotonic() - start\n"
        )
        assert lint_one("SEED001", {"src/repro/x.py": src}) == []

    def test_method_named_hash_not_flagged(self):
        src = "digest = obj.hash()\n"
        assert lint_one("SEED001", {"src/repro/x.py": src}) == []


# ---------------------------------------------------------------------------
# VEC001 — vector-hook-contract
# ---------------------------------------------------------------------------

_CONTRACT_ROOT = """
class BroadcastProtocol:
    supports_vectorized = False

    def vector_fanout(self, round_index):
        raise NotImplementedError("vectorized hooks not provided")

    def vector_wants_push(self, states):
        raise NotImplementedError("vectorized hooks not provided")

    def vector_wants_pull(self, states):
        raise NotImplementedError("vectorized hooks not provided")
"""


class TestVectorHookContract:
    def test_flag_without_hooks_flagged_at_flag_line(self):
        src = _CONTRACT_ROOT + (
            "\n\nclass Fast(BroadcastProtocol):\n"
            "    supports_vectorized = True\n"
        )
        diags = lint_one("VEC001", {"src/repro/protocols/x.py": src})
        assert len(diags) == 1
        assert diags[0].rule == "VEC001"
        assert "Fast" in diags[0].message
        # Anchored at the flag assignment, not the class statement.
        flag_line = src.splitlines().index("    supports_vectorized = True") + 1
        assert diags[0].line == flag_line

    def test_complete_hooks_clean(self):
        src = _CONTRACT_ROOT + (
            "\n\nclass Fast(BroadcastProtocol):\n"
            "    supports_vectorized = True\n"
            "    def vector_fanout(self, round_index):\n"
            "        return 1\n"
            "    def vector_wants_push(self, states):\n"
            "        return states\n"
            "    def vector_wants_pull(self, states):\n"
            "        return states\n"
        )
        assert lint_one("VEC001", {"src/repro/protocols/x.py": src}) == []

    def test_partial_hooks_flagged(self):
        src = _CONTRACT_ROOT + (
            "\n\nclass Fast(BroadcastProtocol):\n"
            "    supports_vectorized = True\n"
            "    def vector_fanout(self, round_index):\n"
            "        return 1\n"
        )
        diags = lint_one("VEC001", {"src/repro/protocols/x.py": src})
        assert len(diags) == 1
        assert "vector_wants_push" in diags[0].message

    def test_raising_stub_does_not_satisfy_contract(self):
        # The contract root's raising stubs exist so the scalar engine gets
        # a clean error; inheriting them is not an implementation.
        src = _CONTRACT_ROOT + (
            "\n\nclass Fast(BroadcastProtocol):\n"
            "    supports_vectorized = True\n"
            "    def vector_fanout(self, round_index):\n"
            "        raise NotImplementedError\n"
            "    def vector_wants_push(self, states):\n"
            "        return states\n"
            "    def vector_wants_pull(self, states):\n"
            "        return states\n"
        )
        diags = lint_one("VEC001", {"src/repro/protocols/x.py": src})
        assert len(diags) == 1
        assert "vector_fanout" in diags[0].message

    def test_hooks_via_intermediate_base_in_another_file(self):
        base = _CONTRACT_ROOT + (
            "\n\nclass VectorMixin(BroadcastProtocol):\n"
            "    def vector_fanout(self, round_index):\n"
            "        return 1\n"
            "    def vector_wants_push(self, states):\n"
            "        return states\n"
            "    def vector_wants_pull(self, states):\n"
            "        return states\n"
        )
        leaf = (
            "from .base import VectorMixin\n\n\n"
            "class Fast(VectorMixin):\n"
            "    supports_vectorized = True\n"
        )
        sources = {
            "src/repro/protocols/base.py": base,
            "src/repro/protocols/fast.py": leaf,
        }
        assert lint_one("VEC001", sources) == []

    def test_contract_root_itself_clean(self):
        # Declaring the flag False is the interface, not a violation.
        assert lint_one("VEC001", {"src/repro/protocols/base.py": _CONTRACT_ROOT}) == []


class TestChurnModelContract:
    """VEC001 and churn models.

    A churn model has one membership hook, ``vector_apply``, which both
    engines call, and no capability flag: VEC001 owes it nothing.  The
    protocol contract must not count ``vector_apply`` as a protocol hook.
    """

    def test_protocol_contract_unaffected_by_churn_overlay(self):
        # A protocol subclass that defines the churn hook still owes the
        # full protocol triple.
        src = _CONTRACT_ROOT + (
            "\n\nclass Fast(BroadcastProtocol):\n"
            "    supports_vectorized = True\n"
            "    def vector_apply(self, round_index, ops, rng):\n"
            "        return ops\n"
        )
        diags = lint_one("VEC001", {"src/repro/protocols/x.py": src})
        assert len(diags) == 1
        assert "vector_fanout" in diags[0].message

    def test_real_churn_models_pass_the_rule(self):
        sources = {}
        for path in (REPO_ROOT / "src" / "repro" / "failures").glob("*.py"):
            rel = str(path.relative_to(REPO_ROOT))
            sources[rel] = path.read_text(encoding="utf-8")
        assert lint_one("VEC001", sources) == []


# ---------------------------------------------------------------------------
# PKL001 — pickle-boundary
# ---------------------------------------------------------------------------


class TestPickleBoundary:
    def test_lambda_to_submit_flagged(self):
        src = "def run(executor):\n    return executor.submit(lambda: 1)\n"
        diags = lint_one("PKL001", {"src/repro/dist/x.py": src})
        assert [d.rule for d in diags] == ["PKL001"]
        assert "lambda" in diags[0].message

    def test_nested_function_flagged(self):
        src = (
            "def run(executor, point):\n"
            "    def work():\n"
            "        return point\n"
            "    return executor.submit(work)\n"
        )
        diags = lint_one("PKL001", {"src/repro/dist/x.py": src})
        assert len(diags) == 1
        assert "work" in diags[0].message

    def test_lock_primitive_flagged(self):
        src = (
            "import threading\n\n"
            "def run(executor, fn):\n"
            "    return executor.submit(fn, threading.Lock())\n"
        )
        diags = lint_one("PKL001", {"src/repro/dist/x.py": src})
        assert len(diags) == 1
        assert "threading.Lock" in diags[0].message

    def test_process_target_kwarg_flagged(self):
        src = (
            "from multiprocessing import Process\n\n"
            "def run():\n"
            "    return Process(target=lambda: None)\n"
        )
        assert lint_one("PKL001", {"src/repro/dist/x.py": src})

    def test_pool_initializer_flagged(self):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "def run():\n"
            "    def init():\n"
            "        pass\n"
            "    return ProcessPoolExecutor(initializer=init)\n"
        )
        assert lint_one("PKL001", {"src/repro/dist/x.py": src})

    def test_lambda_inside_tuple_arg_flagged(self):
        src = (
            "def run(executor, fn):\n"
            "    return executor.submit(fn, (1, lambda: 2))\n"
        )
        assert lint_one("PKL001", {"src/repro/dist/x.py": src})

    def test_module_level_callable_clean(self):
        src = (
            "def work(point):\n"
            "    return point\n\n"
            "def run(executor, point):\n"
            "    return executor.submit(work, point)\n"
        )
        assert lint_one("PKL001", {"src/repro/dist/x.py": src}) == []

    def test_non_boundary_calls_ignored(self):
        src = "result = sorted([3, 1], key=lambda v: -v)\n"
        assert lint_one("PKL001", {"src/repro/dist/x.py": src}) == []


# ---------------------------------------------------------------------------
# DUR001 — durability-discipline
# ---------------------------------------------------------------------------


class TestDurabilityDiscipline:
    def test_open_for_write_flagged(self):
        src = "def save(path, data):\n    with open(path, 'w') as fh:\n        fh.write(data)\n"
        diags = lint_one("DUR001", {"src/repro/dist/x.py": src})
        assert [d.rule for d in diags] == ["DUR001"]

    def test_path_open_append_flagged(self):
        src = "def save(path):\n    return path.open('ab')\n"
        assert lint_one("DUR001", {"src/repro/dist/x.py": src})

    def test_write_text_flagged(self):
        src = "def save(path, data):\n    path.write_text(data)\n"
        assert lint_one("DUR001", {"src/repro/dist/x.py": src})

    def test_os_replace_flagged(self):
        src = "import os\n\ndef swap(a, b):\n    os.replace(a, b)\n"
        diags = lint_one("DUR001", {"src/repro/dist/x.py": src})
        assert len(diags) == 1
        assert "os.replace" in diags[0].message

    def test_reads_clean(self):
        src = (
            "def load(path):\n"
            "    with open(path) as fh:\n"
            "        head = fh.read()\n"
            "    return head + path.read_text() + path.open('rb').read()\n"
        )
        assert lint_one("DUR001", {"src/repro/dist/x.py": src}) == []

    def test_durability_module_is_exempt(self):
        src = "def atomic(path, data):\n    open(path, 'w').write(data)\n"
        assert lint_one("DUR001", {"src/repro/dist/durability.py": src}) == []

    def test_only_dist_subsystem_patrolled(self):
        src = "def save(path, data):\n    path.write_text(data)\n"
        assert lint_one("DUR001", {"src/repro/core/x.py": src}) == []


# ---------------------------------------------------------------------------
# EXC001 — exception-hygiene
# ---------------------------------------------------------------------------


class TestExceptionHygiene:
    def test_bare_except_flagged_in_package(self):
        src = "try:\n    step()\nexcept:\n    pass\n"
        diags = lint_one("EXC001", {"src/repro/core/x.py": src})
        assert [d.rule for d in diags] == ["EXC001"]
        assert "bare except" in diags[0].message

    def test_swallowed_exception_flagged_in_dist(self):
        src = "try:\n    step()\nexcept Exception:\n    pass\n"
        diags = lint_one("EXC001", {"src/repro/dist/x.py": src})
        assert len(diags) == 1
        assert "swallows" in diags[0].message

    def test_swallowed_exception_tolerated_outside_dist(self):
        src = "try:\n    step()\nexcept Exception:\n    pass\n"
        assert lint_one("EXC001", {"src/repro/core/x.py": src}) == []

    def test_handled_broad_exception_clean_in_dist(self):
        src = (
            "try:\n"
            "    step()\n"
            "except Exception as error:\n"
            "    record_failure(error)\n"
        )
        assert lint_one("EXC001", {"src/repro/dist/x.py": src}) == []

    def test_typed_swallow_clean_in_dist(self):
        src = "try:\n    step()\nexcept ValueError:\n    pass\n"
        assert lint_one("EXC001", {"src/repro/dist/x.py": src}) == []

    def test_broad_tuple_flagged_in_dist(self):
        src = "try:\n    step()\nexcept (OSError, Exception):\n    continue_ = 1\n"
        # body is an assignment, not a swallow: clean
        assert lint_one("EXC001", {"src/repro/dist/x.py": src}) == []
        src_swallow = (
            "for _ in range(2):\n"
            "    try:\n"
            "        step()\n"
            "    except (OSError, Exception):\n"
            "        continue\n"
        )
        assert lint_one("EXC001", {"src/repro/dist/x.py": src_swallow})


# ---------------------------------------------------------------------------
# Suppression comments
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_same_line_disable_masks(self):
        src = "seed = hash('x')  # lint: disable=SEED001 -- fixture\n"
        report = lint_all({"src/repro/x.py": src})
        assert report.diagnostics == []
        assert report.suppressed == 1

    def test_own_line_disable_masks_next_code_line(self):
        src = (
            "# lint: disable=SEED001 -- provenance stamp, never feeds a seed\n"
            "# (continues over a second comment line)\n"
            "seed = hash('x')\n"
        )
        report = lint_all({"src/repro/x.py": src})
        assert report.diagnostics == []
        assert report.suppressed == 1

    def test_wrong_rule_id_does_not_mask(self):
        src = "seed = hash('x')  # lint: disable=RNG001 -- wrong id\n"
        report = lint_all({"src/repro/x.py": src})
        assert [d.rule for d in report.diagnostics] == ["SEED001"]
        assert report.suppressed == 0

    def test_multiple_ids_and_all_wildcard(self):
        multi = "import random; seed = hash('x')  # lint: disable=RNG001,SEED001\n"
        report = lint_all({"src/repro/x.py": multi})
        assert report.diagnostics == []
        assert report.suppressed == 2

        wildcard = "import random; seed = hash('x')  # lint: disable=all\n"
        report = lint_all({"src/repro/x.py": wildcard})
        assert report.diagnostics == []
        assert report.suppressed == 2

    def test_directive_inside_string_is_not_a_suppression(self):
        src = "note = '# lint: disable=SEED001'\nseed = hash('x')\n"
        report = lint_all({"src/repro/x.py": src})
        assert [d.rule for d in report.diagnostics] == ["SEED001"]


# ---------------------------------------------------------------------------
# Syntax errors
# ---------------------------------------------------------------------------


class TestSyntaxErrors:
    def test_unparseable_file_reports_syn000(self):
        report = lint_all({"src/repro/x.py": "def broken(:\n"})
        assert len(report.diagnostics) == 1
        diag = report.diagnostics[0]
        assert diag.rule == SYNTAX_RULE_ID
        assert not report.clean

    def test_other_files_still_checked(self):
        report = lint_all(
            {
                "src/repro/broken.py": "def broken(:\n",
                "src/repro/bad_seed.py": "seed = hash('x')\n",
            }
        )
        assert {d.rule for d in report.diagnostics} == {SYNTAX_RULE_ID, "SEED001"}
        assert report.files_checked == 2


# ---------------------------------------------------------------------------
# Report formats
# ---------------------------------------------------------------------------


class TestReportFormats:
    def test_text_format_is_file_line_col_rule(self):
        report = lint_all({"src/repro/x.py": "seed = hash('x')\n"})
        first_line = render_text(report).splitlines()[0]
        assert first_line.startswith("src/repro/x.py:1:8: SEED001 ")
        assert "[hint: " in first_line

    def test_json_roundtrip(self):
        report = lint_all(
            {"src/repro/x.py": "import random\nseed = hash('x')\n"}
        )
        payload = json.loads(render_json(report))
        assert payload["schema_version"] == LINT_SCHEMA_VERSION
        assert payload["clean"] is False
        assert payload["files_checked"] == 1
        assert payload["counts"] == {"RNG001": 1, "SEED001": 1}
        for entry in payload["diagnostics"]:
            assert set(entry) == {"path", "line", "col", "rule", "message", "hint"}
        parsed = parse_report(render_json(report))
        assert parsed.diagnostics == report.diagnostics

    def test_parse_report_rejects_unknown_schema(self):
        bad = json.dumps({"schema_version": 999, "diagnostics": []})
        with pytest.raises(ValueError):
            parse_report(bad)

    def test_diagnostics_sorted_deterministically(self):
        report = lint_all(
            {
                "src/repro/b.py": "seed = hash('x')\n",
                "src/repro/a.py": "import random\nseed = hash('y')\n",
            }
        )
        keys = [(d.path, d.line, d.col, d.rule) for d in report.diagnostics]
        assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


class TestBaselines:
    def test_baseline_masks_known_findings(self, tmp_path):
        sources = {"src/repro/x.py": "seed = hash('x')\n"}
        report = lint_all(sources)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(report, baseline_file)

        rerun = apply_baseline(lint_all(sources), load_baseline(baseline_file))
        assert rerun.clean
        assert rerun.baselined == 1

    def test_new_violation_survives_baseline(self, tmp_path):
        old = lint_all({"src/repro/x.py": "seed = hash('x')\n"})
        baseline_file = tmp_path / "baseline.json"
        write_baseline(old, baseline_file)

        grown = lint_all(
            {"src/repro/x.py": "seed = hash('x')\nother = hash('y')\n"}
        )
        diffed = apply_baseline(grown, load_baseline(baseline_file))
        assert len(diffed.diagnostics) == 1
        assert diffed.baselined == 1

    def test_line_drift_is_tolerated(self, tmp_path):
        old = lint_all({"src/repro/x.py": "seed = hash('x')\n"})
        baseline_file = tmp_path / "baseline.json"
        write_baseline(old, baseline_file)

        # Same violation, pushed two lines down by an unrelated edit.
        moved = lint_all(
            {"src/repro/x.py": "import math\n\nseed = hash('x')\n"}
        )
        diffed = apply_baseline(moved, load_baseline(baseline_file))
        assert diffed.clean
        assert diffed.baselined == 1

    def test_fixed_findings_do_not_credit_other_files(self, tmp_path):
        old = lint_all({"src/repro/x.py": "seed = hash('x')\n"})
        baseline_file = tmp_path / "baseline.json"
        write_baseline(old, baseline_file)

        other = lint_all({"src/repro/y.py": "seed = hash('x')\n"})
        diffed = apply_baseline(other, load_baseline(baseline_file))
        assert len(diffed.diagnostics) == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_cli(*argv, cwd=None):
    env_root = str(REPO_ROOT / "src")
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = env_root + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
        env=env,
    )


class TestCli:
    @pytest.fixture()
    def violation_tree(self, tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "bad.py").write_text("seed = hash('label')\n")
        return tmp_path

    def test_clean_run_exits_zero(self, tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "ok.py").write_text("VALUE = 1\n")
        result = run_cli("--root", str(tmp_path))
        assert result.returncode == 0, result.stderr
        assert "clean" in result.stdout

    def test_findings_exit_one_with_parseable_location(self, violation_tree):
        result = run_cli("--root", str(violation_tree))
        assert result.returncode == 1
        assert "src/repro/bad.py:1:8: SEED001" in result.stdout

    def test_json_format(self, violation_tree):
        result = run_cli("--root", str(violation_tree), "--format", "json")
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["schema_version"] == LINT_SCHEMA_VERSION
        assert payload["counts"] == {"SEED001": 1}

    def test_rules_selection(self, violation_tree):
        result = run_cli("--root", str(violation_tree), "--rules", "RNG001")
        assert result.returncode == 0

    def test_unknown_rule_exits_two(self, violation_tree):
        result = run_cli("--root", str(violation_tree), "--rules", "NOPE999")
        assert result.returncode == 2
        assert "known rules" in result.stderr

    def test_missing_path_exits_two(self, tmp_path):
        result = run_cli("--root", str(tmp_path), "no/such/dir")
        assert result.returncode == 2

    def test_list_rules(self):
        result = run_cli("--list-rules")
        assert result.returncode == 0
        for rule in all_rules():
            assert rule.id in result.stdout

    def test_baseline_flow(self, violation_tree, tmp_path):
        baseline = tmp_path / "lint-baseline.json"
        written = run_cli(
            "--root", str(violation_tree), "--write-baseline", str(baseline)
        )
        assert written.returncode == 0
        assert baseline.is_file()

        gated = run_cli("--root", str(violation_tree), "--baseline", str(baseline))
        assert gated.returncode == 0, gated.stdout + gated.stderr
        assert "baselined" in gated.stdout

        missing = run_cli(
            "--root", str(violation_tree), "--baseline", str(tmp_path / "nope.json")
        )
        assert missing.returncode == 2


# ---------------------------------------------------------------------------
# Registry / selection
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_at_least_six_rules_registered(self):
        rules = all_rules()
        assert len(rules) >= 6
        ids = [rule.id for rule in rules]
        assert len(ids) == len(set(ids))
        for expected in (
            "RNG001",
            "SEED001",
            "VEC001",
            "PKL001",
            "DUR001",
            "EXC001",
        ):
            assert expected in ids

    def test_rules_by_id_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            rules_by_id(["NOPE999"])

    def test_every_rule_has_docsable_metadata(self):
        for rule in all_rules():
            assert rule.id and rule.slug and rule.summary and rule.hint
            assert rule.zones


# ---------------------------------------------------------------------------
# Meta: the repo itself and its documentation
# ---------------------------------------------------------------------------


class TestSelfApplication:
    def test_repo_lints_clean(self):
        # The CI gate in .github/workflows/ci.yml runs exactly this.
        linter = Linter(root=REPO_ROOT)
        report = linter.lint_paths([REPO_ROOT / part for part in DEFAULT_TARGETS])
        assert report.clean, render_text(report)

    def test_docs_rule_catalogue_matches_registry(self):
        # docs/API.md §11 must document exactly the registered rules: a new
        # rule without docs — or docs for a removed rule — fails here.
        import re

        api = (REPO_ROOT / "docs" / "API.md").read_text(encoding="utf-8")
        documented = set(re.findall(r"^#{2,4}\s+.*?\b([A-Z]{2,5}\d{3})\b", api, re.M))
        documented.discard(SYNTAX_RULE_ID)  # pseudo-rule, documented separately
        registered = {rule.id for rule in all_rules()}
        assert documented == registered
