"""The ``repro lint`` sub-command.

Exit codes follow the convention CI gates expect:

* ``0`` — no (non-suppressed, non-baselined) findings;
* ``1`` — findings were reported;
* ``2`` — the invocation itself was invalid (unknown rule id, missing
  baseline file, bad path).
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["add_lint_parser", "run_lint"]


def add_lint_parser(subparsers) -> argparse.ArgumentParser:
    """Attach the ``lint`` sub-command to the main CLI's subparsers."""
    lint = subparsers.add_parser(
        "lint",
        help="check the determinism contracts behind the bit-parity guarantees",
        description=(
            "AST-based static analysis of the repo's determinism contracts: "
            "RNG discipline, seed stability, vector-hook completeness, "
            "pickle-boundary safety, durability discipline, and exception "
            "hygiene.  Zero findings means the invariants every bit-parity "
            "guarantee rests on hold structurally."
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to lint (default: the package, benchmarks "
            "and examples under --root)"
        ),
    )
    lint.add_argument(
        "--root",
        default=".",
        help="directory findings are reported relative to (default: cwd)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all registered rules)",
    )
    lint.add_argument(
        "--format",
        dest="output_format",
        default="text",
        choices=["text", "json"],
        help="report format (json is the schema the CI gate and baselines use)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        help=(
            "committed baseline JSON to diff against; findings accounted for "
            "there are masked and only new ones fail the run"
        ),
    )
    lint.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="write the current findings as a baseline JSON file and exit 0",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return lint


def run_lint(args: argparse.Namespace) -> int:
    """Execute the ``lint`` sub-command; returns the process exit code."""
    # Imported here, so building the CLI parser loads no rule.
    from pathlib import Path

    from ..core.errors import ConfigurationError
    from .baseline import apply_baseline, load_baseline, write_baseline
    from .diagnostics import render_json, render_text
    from .engine import DEFAULT_TARGETS, Linter
    from .rule import LINT_RULES, all_rules, rules_by_id

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id} ({rule.slug}): {rule.summary}")
        return 0

    try:
        rules = (
            rules_by_id([part.strip() for part in args.rules.split(",") if part.strip()])
            if args.rules
            else None
        )
    except ConfigurationError as error:
        print(f"lint: {error}", file=sys.stderr)
        print(f"lint: known rules: {', '.join(LINT_RULES.names())}", file=sys.stderr)
        return 2

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"lint: --root {args.root!r} is not a directory", file=sys.stderr)
        return 2

    if args.paths:
        targets = [Path(part) for part in args.paths]
        for target in targets:
            candidate = target if target.is_absolute() else root / target
            if not candidate.exists():
                print(f"lint: path {target} does not exist", file=sys.stderr)
                return 2
    else:
        targets = [root / part for part in DEFAULT_TARGETS if (root / part).exists()]
        if not targets:
            print(
                f"lint: none of the default targets ({', '.join(DEFAULT_TARGETS)}) "
                f"exist under {root}",
                file=sys.stderr,
            )
            return 2

    linter = Linter(rules=rules, root=root)
    report = linter.lint_paths(targets)

    if args.write_baseline:
        destination = write_baseline(report, Path(args.write_baseline))
        print(
            f"lint: wrote baseline with {len(report.diagnostics)} finding(s) "
            f"to {destination}",
            file=sys.stderr,
        )
        return 0

    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.is_file():
            print(f"lint: baseline {args.baseline} not found", file=sys.stderr)
            return 2
        try:
            report = apply_baseline(report, load_baseline(baseline_path))
        except (ValueError, KeyError) as error:
            print(f"lint: unreadable baseline {args.baseline}: {error}", file=sys.stderr)
            return 2

    if args.output_format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.clean else 1
