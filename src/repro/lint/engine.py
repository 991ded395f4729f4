"""The lint driver: file discovery, zone classification, rule execution.

The engine never imports the code it checks — everything is :mod:`ast` over
source text — so it can lint broken branches, runs with no third-party
dependencies, and is immune to import-time side effects.  A run is two
passes: first every file is parsed and all class definitions are indexed
(cross-file base-class resolution for the vector-hook contract), then each
rule that patrols the file's zone walks its tree.  Findings are filtered
through the file's ``# lint: disable=`` comments and reported in a stable
``(path, line, col, rule)`` order.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from .diagnostics import Diagnostic, LintReport
from .rule import (
    ClassIndex,
    LintContext,
    Rule,
    ZONE_BENCHMARKS,
    ZONE_EXAMPLES,
    ZONE_PACKAGE,
    ZONE_TESTS,
    all_rules,
)
from .suppressions import collect_suppressions, is_suppressed

__all__ = ["Linter", "classify_zone", "DEFAULT_TARGETS", "SYNTAX_RULE_ID"]

#: Directories linted when the CLI is given no explicit paths.
DEFAULT_TARGETS = ("src/repro", "benchmarks", "examples")

#: Pseudo-rule id reported when a file cannot be parsed at all.
SYNTAX_RULE_ID = "SYN000"


def classify_zone(relpath: str) -> str:
    """Map a repo-relative posix path onto the zone the rules reason about."""
    parts = relpath.split("/")
    for index in range(len(parts) - 1):
        if parts[index] == "src" and parts[index + 1] == "repro":
            return ZONE_PACKAGE
    head = parts[0]
    if head == "benchmarks":
        return ZONE_BENCHMARKS
    if head == "examples":
        return ZONE_EXAMPLES
    if head == "tests":
        return ZONE_TESTS
    return "other"


@dataclass
class _FileEntry:
    relpath: str
    zone: str
    source: str
    tree: Optional[ast.Module]
    error: Optional[SyntaxError]


def _iter_python_files(path: Path) -> Iterable[Path]:
    if path.is_file():
        if path.suffix == ".py":
            yield path
        return
    yield from sorted(p for p in path.rglob("*.py") if p.is_file())


class Linter:
    """Runs a rule set over files or in-memory sources.

    Parameters
    ----------
    rules:
        Rule instances to run; defaults to every registered rule.
    root:
        Directory paths are resolved and reported relative to; defaults to
        the current working directory.  Files outside ``root`` are reported
        with their absolute path (and land in zone ``"other"``, which no
        shipped rule patrols).
    """

    def __init__(
        self, rules: Optional[Sequence[Rule]] = None, root: Optional[Path] = None
    ) -> None:
        self.rules: List[Rule] = list(rules) if rules is not None else all_rules()
        self.root = (root or Path.cwd()).resolve()

    # -- entry points -------------------------------------------------------

    def lint_paths(self, paths: Sequence[Path]) -> LintReport:
        """Lint every ``.py`` file under ``paths`` (files or directories)."""
        sources: Dict[str, str] = {}
        for path in paths:
            resolved = Path(path)
            if not resolved.is_absolute():
                resolved = self.root / resolved
            for file_path in _iter_python_files(resolved):
                sources[self._relpath(file_path)] = file_path.read_text(
                    encoding="utf-8"
                )
        return self.lint_sources(sources)

    def lint_sources(self, sources: Mapping[str, str]) -> LintReport:
        """Lint in-memory ``{relpath: source}`` pairs (fixture-friendly)."""
        entries: List[_FileEntry] = []
        index = ClassIndex()
        for relpath in sorted(sources):
            source = sources[relpath]
            zone = classify_zone(relpath)
            try:
                tree = ast.parse(source, filename=relpath)
            except SyntaxError as error:
                entries.append(_FileEntry(relpath, zone, source, None, error))
                continue
            entries.append(_FileEntry(relpath, zone, source, tree, None))
            if zone == ZONE_PACKAGE:
                index.add_tree(tree, relpath)

        report = LintReport(files_checked=len(entries))
        for entry in entries:
            report.diagnostics.extend(self._lint_entry(entry, index, report))
        report.diagnostics.sort()
        return report

    # -- internals ----------------------------------------------------------

    def _relpath(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root).as_posix()
        except ValueError:
            return path.resolve().as_posix()

    def _lint_entry(
        self, entry: _FileEntry, index: ClassIndex, report: LintReport
    ) -> List[Diagnostic]:
        if entry.error is not None:
            return [
                Diagnostic(
                    path=entry.relpath,
                    line=entry.error.lineno or 1,
                    col=entry.error.offset or 1,
                    rule=SYNTAX_RULE_ID,
                    message=f"file does not parse: {entry.error.msg}",
                    hint="fix the syntax error; no rule ran on this file",
                )
            ]
        assert entry.tree is not None
        ctx = LintContext(
            relpath=entry.relpath,
            zone=entry.zone,
            tree=entry.tree,
            source=entry.source,
            classes=index,
        )
        suppressions = collect_suppressions(entry.source)
        findings: List[Diagnostic] = []
        for rule in self.rules:
            if not rule.applies_to(ctx):
                continue
            for diagnostic in rule.check(ctx):
                if is_suppressed(diagnostic.rule, diagnostic.line, suppressions):
                    report.suppressed += 1
                else:
                    findings.append(diagnostic)
        return findings
