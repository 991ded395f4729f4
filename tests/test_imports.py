"""What each entry point imports.

Every package ``__init__`` re-exports lazily (:mod:`repro._lazy`), and the
CLI imports each sub-command's modules inside its handler, so a process
loads only what its command executes.  The subprocess tests pin the import
graph of the common entry points in a fresh interpreter; the in-process
tests pin the public surface: every ``__all__`` name still resolves.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro._lazy import export_origins

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLE_SPECS = sorted((REPO_ROOT / "examples" / "specs").glob("*.json"))

PACKAGES = sorted(
    ["repro"]
    + [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg]
)
#: Names a package binds itself rather than re-exporting from a submodule.
OWN_NAMES = {"repro": {"__version__"}}
#: Importing ``repro.lint.rules`` registers every built-in rule, so that init
#: stays eager.
EAGER_PACKAGES = {"repro.lint.rules"}


def _run(script: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


def _modules_after(script: str, cwd: Path) -> set:
    """The names in ``sys.modules`` after ``script`` ran in a fresh interpreter."""
    trailer = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    result = _run(textwrap.dedent(script) + trailer, cwd)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.strip().splitlines()[-1]))


def _loaded_under(modules: set, *prefixes: str) -> list:
    return sorted(
        name
        for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)
    )


def test_import_repro_loads_no_engine_executor_or_networkx(tmp_path):
    modules = _modules_after("import repro", tmp_path)
    assert not _loaded_under(
        modules,
        "multiprocessing",
        "repro.dist",
        "repro.faultinject",
        "repro.core.engine_vectorized",
        "repro.experiments",
        "networkx",
    )


def test_import_repro_lint_loads_no_numpy(tmp_path):
    modules = _modules_after("import repro.lint", tmp_path)
    assert not _loaded_under(modules, "numpy")


def test_lint_command_runs_with_numpy_blocked(tmp_path):
    # CI's lint job installs only ruff: the linter must run without NumPy.
    (tmp_path / "sample.py").write_text("def double(x):\n    return 2 * x\n")
    result = _run(
        """
        import sys

        sys.modules["numpy"] = None
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        sys.exit(main(["lint", "--root", ".", "sample.py"]))
        """,
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "clean: 1 file(s), no findings" in result.stdout


def test_spec_validation_loads_no_engine_dist_or_experiments(tmp_path):
    modules = _modules_after(
        f"""
        import json

        from repro.spec import ScenarioSpec

        for path in {[str(path) for path in EXAMPLE_SPECS]!r}:
            with open(path) as handle:
                ScenarioSpec.from_dict(json.load(handle))
        """,
        tmp_path,
    )
    assert "repro.spec.scenario" in modules
    assert not _loaded_under(
        modules,
        "repro.core.engine",
        "repro.core.engine_vectorized",
        "repro.dist",
        "repro.experiments",
    )


def test_serial_run_spec_loads_only_the_serial_path(tmp_path):
    spec_path = REPO_ROOT / "examples" / "specs" / "push_loss_sweep.json"
    modules = _modules_after(
        f"""
        from repro.experiments.results_io import save_table_json
        from repro.spec import load_spec, run_spec

        run = run_spec(load_spec({str(spec_path)!r}))
        save_table_json(run.to_table(), "table.json")
        """,
        tmp_path,
    )
    assert "repro.experiments.runner" in modules
    assert "repro.core.engine_vectorized" in modules
    assert not _loaded_under(
        modules,
        "repro.dist.executor",
        "repro.dist.sink",
        "repro.faultinject",
        "repro.p2p",
        "repro.analysis",
        "repro.lint",
    )
    assert not [name for name in modules if name.startswith("repro.experiments.exp_")]


def test_subpackages_resolve_as_attributes_on_demand(tmp_path):
    result = _run(
        """
        import repro

        assert repro.dist.merge_runs.__module__ == "repro.dist.executor"
        assert repro.experiments.Table.__name__ == "Table"
        engine_class = repro.core.engine_vectorized.BatchedVectorizedRoundEngine
        assert engine_class is repro.BatchedVectorizedRoundEngine
        assert not hasattr(repro, "VectorizedRoundEngine")
        assert callable(repro.analysis.mean)
        assert not hasattr(repro, "no_such_name")
        assert not hasattr(repro.core, "no_such_module")
        """,
        tmp_path,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    exported = list(module.__all__)
    listed = dir(module)
    for name in exported:
        assert getattr(module, name) is not None, name
        assert name in listed, name
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(exported) <= set(namespace)


@pytest.mark.parametrize("package", PACKAGES)
def test_lazy_inits_name_exactly_their_public_surface(package):
    # Every other init is lazy through the one shared mechanism, and its
    # ``if TYPE_CHECKING:`` block is its export table: it names every
    # ``__all__`` entry the package does not bind itself, and nothing else.
    module = importlib.import_module(package)
    if package in EAGER_PACKAGES:
        assert "__getattr__" not in vars(module)
        return
    assert module.__getattr__.__module__ == "repro._lazy"
    origins = export_origins(module.__file__)
    assert set(origins) == set(module.__all__) - OWN_NAMES.get(package, set())
