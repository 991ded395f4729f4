"""Static enforcement of the determinism contracts behind bit-parity.

Every guarantee this repo advertises — batch rows bit-identical to single
runs, parallel/sharded/resumed sweeps bit-identical to serial, chaos plans
recovering bit-identically — rests on source-level conventions that no unit
test can see until a specific crash or process boundary happens to expose
them: randomness flows through :class:`repro.core.rng.RandomSource`, seeds
are stable functions of ``master_seed`` + label, vectorized protocols
implement the full ``vector_*`` hook contract, nothing unpicklable crosses
the :mod:`repro.dist` boundary, durable writes go through
:mod:`repro.dist.durability`, and recovery paths keep typed exceptions.

``repro.lint`` checks those conventions mechanically over the repo's own
AST (stdlib :mod:`ast` only — the linter never imports what it checks):

>>> from repro.lint import Linter
>>> report = Linter().lint_sources({"src/repro/x.py": "seed = hash('label')"})
>>> report.diagnostics[0].rule
'SEED001'

Command line: ``python -m repro lint [paths] [--rules IDS] [--format
text|json] [--baseline file.json] [--write-baseline file.json]``.  CI runs
it next to the parity tripwires; a finding fails the build unless it carries
a ``# lint: disable=RULE-ID -- reason`` annotation or is covered by the
committed baseline.  See ``docs/API.md`` §11 for the rule catalogue.

The package re-exports lazily, so importing it (or the CLI hook in
:mod:`repro.lint.cli`) loads no rule: the built-in rules register when the
rule table is first read through :func:`~repro.lint.rule.all_rules` or
:func:`~repro.lint.rule.rules_by_id`.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .baseline import apply_baseline, load_baseline, write_baseline
    from .diagnostics import (
        LINT_SCHEMA_VERSION,
        Diagnostic,
        LintReport,
        parse_report,
        render_json,
        render_text,
    )
    from .engine import DEFAULT_TARGETS, Linter, classify_zone
    from .rule import LINT_RULES, Rule, all_rules, register_rule

__getattr__, __dir__ = lazy_exports(__name__)

__all__ = [
    "LINT_SCHEMA_VERSION",
    "LINT_RULES",
    "DEFAULT_TARGETS",
    "Diagnostic",
    "LintReport",
    "Linter",
    "Rule",
    "all_rules",
    "apply_baseline",
    "classify_zone",
    "load_baseline",
    "parse_report",
    "register_rule",
    "render_json",
    "render_text",
    "write_baseline",
]
