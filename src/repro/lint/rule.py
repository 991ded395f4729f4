"""The lint rule interface, per-file context, and the pluggable rule registry.

Rules are registered in ``LINT_RULES`` — the same :class:`repro.core.registry.
Registry` mechanism that backs protocols, graph families, and failure models —
so discovery (``repro lint --list-rules``), selection (``--rules SEED001``),
and docs cross-checking all run off one table.  The built-in rules register
when :func:`all_rules` or :func:`rules_by_id` is first called.  Each rule
declares:

* ``id`` — the stable diagnostic id (``RNG001``) printed in findings and
  accepted by suppression comments and ``--rules``;
* ``zones`` — which parts of the repo it patrols (``package`` is
  ``src/repro``, plus ``benchmarks`` / ``examples`` / ``tests``);
* ``check(ctx)`` — an AST pass yielding :class:`Diagnostic` records.

Class-level contracts (the vector-hook rule) need visibility *across* files,
so the engine hands every rule a :class:`ClassIndex` of all class definitions
in the linted file set, with enough structure to walk base-class chains that
span modules.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Type

from ..core.registry import Registry
from .diagnostics import Diagnostic

__all__ = [
    "LINT_RULES",
    "register_rule",
    "all_rules",
    "rules_by_id",
    "Rule",
    "LintContext",
    "ClassIndex",
    "ClassRecord",
    "ZONE_PACKAGE",
    "ZONE_BENCHMARKS",
    "ZONE_EXAMPLES",
    "ZONE_TESTS",
]

ZONE_PACKAGE = "package"  #: files under src/repro
ZONE_BENCHMARKS = "benchmarks"
ZONE_EXAMPLES = "examples"
ZONE_TESTS = "tests"


# -- cross-file class visibility ------------------------------------------------


@dataclass
class ClassRecord:
    """Structure of one ``class`` statement relevant to contract rules.

    ``flags`` holds class-body boolean assignments (``supports_vectorized =
    True``) as ``name -> (value, lineno, col)``; ``methods`` maps each method
    defined in the body to whether it is *concrete* — i.e. its body does
    something beyond a docstring plus ``raise`` / ``pass`` / ``...`` — so
    raising stub declarations on an abstract interface do not count as
    implementations of the contract they declare.
    """

    name: str
    relpath: str
    lineno: int
    col: int
    bases: Tuple[str, ...]
    methods: Dict[str, bool] = field(default_factory=dict)
    flags: Dict[str, Tuple[bool, int, int]] = field(default_factory=dict)


def _is_concrete(function: ast.FunctionDef) -> bool:
    """True if the method body is more than a docstring-and-raise stub."""
    body = list(function.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        if isinstance(body[0].value.value, str):
            body = body[1:]
    if not body:
        return False
    for statement in body:
        if isinstance(statement, (ast.Raise, ast.Pass)):
            continue
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
            continue  # bare ellipsis / stray constant
        return True
    return False


def _base_name(base: ast.expr) -> Optional[str]:
    """Last segment of a base-class expression (``pkg.Base`` -> ``Base``)."""
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None


def _record_class(node: ast.ClassDef, relpath: str) -> ClassRecord:
    record = ClassRecord(
        name=node.name,
        relpath=relpath,
        lineno=node.lineno,
        col=node.col_offset + 1,
        bases=tuple(
            name for name in (_base_name(base) for base in node.bases) if name
        ),
    )
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            record.methods[statement.name] = _is_concrete(statement)
        else:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                target, value = statement.targets[0], statement.value
            elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
                target, value = statement.target, statement.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, bool)
            ):
                record.flags[target.id] = (
                    value.value,
                    statement.lineno,
                    statement.col_offset + 1,
                )
    return record


class ClassIndex:
    """All class definitions across the linted file set, by class name.

    Name-based resolution is deliberate: the linter never imports the code it
    checks, so base classes are matched by their final name segment.  When a
    name is defined more than once every definition is considered (a base
    chain is satisfied if *any* same-named definition provides the method),
    which errs on the quiet side for ambiguous names.
    """

    def __init__(self) -> None:
        self._by_name: Dict[str, List[ClassRecord]] = {}

    def add_tree(self, tree: ast.AST, relpath: str) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                self._by_name.setdefault(node.name, []).append(
                    _record_class(node, relpath)
                )

    def definitions(self, name: str) -> List[ClassRecord]:
        return self._by_name.get(name, [])

    def ancestry(self, record: ClassRecord, stop_flag: str) -> Iterator[ClassRecord]:
        """``record`` plus resolvable ancestors, pruned at the contract root.

        The walk yields ``record`` itself, then base classes breadth-first by
        name.  A class whose body declares ``stop_flag = False`` is the
        abstract interface that *introduces* the contract — its stub methods
        and defaults must not satisfy it — so such classes (and anything
        above them) are pruned from the walk.
        """
        seen = set()
        queue: List[ClassRecord] = [record]
        first = True
        while queue:
            current = queue.pop(0)
            key = (current.relpath, current.name, current.lineno)
            if key in seen:
                continue
            seen.add(key)
            if not first:
                flag = current.flags.get(stop_flag)
                if flag is not None and flag[0] is False:
                    continue  # contract root: prune this branch
            first = False
            yield current
            for base in current.bases:
                queue.extend(self.definitions(base))


# -- per-file context -----------------------------------------------------------


@dataclass
class LintContext:
    """Everything a rule sees about one file."""

    relpath: str  #: posix path relative to the lint root
    zone: str  #: one of the ``ZONE_*`` constants (or ``"other"``)
    tree: ast.Module
    source: str
    classes: ClassIndex


# -- the rule interface ---------------------------------------------------------


class Rule(ABC):
    """One determinism contract, enforced as an AST pass."""

    #: Stable diagnostic id (also the suppression-comment token).
    id: str = ""
    #: Short kebab-case slug used in docs headings.
    slug: str = ""
    #: One-line statement of the invariant, shown by ``--list-rules``.
    summary: str = ""
    #: Default fix hint attached to diagnostics.
    hint: str = ""
    #: Zones the rule patrols.
    zones: frozenset = frozenset({ZONE_PACKAGE})

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.zone in self.zones

    @abstractmethod
    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        """Yield a diagnostic for every violation in ``ctx``."""

    def diagnostic(
        self,
        ctx: LintContext,
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
        line: Optional[int] = None,
        col: Optional[int] = None,
    ) -> Diagnostic:
        """Build a diagnostic anchored at ``node`` (or an explicit location)."""
        return Diagnostic(
            path=ctx.relpath,
            line=line if line is not None else getattr(node, "lineno", 1),
            col=col if col is not None else getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
            hint=self.hint if hint is None else hint,
        )


#: The pluggable rule table; third parties (and tests) may register more.
LINT_RULES = Registry("lint rule")


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``cls`` to :data:`LINT_RULES` under its id."""
    LINT_RULES.register(cls.id, cls, summary=cls.summary)
    return cls


def _load_builtin_rules() -> None:
    """Import the rules package, which registers every built-in rule."""
    from . import rules  # noqa: F401


def all_rules() -> List[Rule]:
    """One instance of every registered rule, sorted by id."""
    _load_builtin_rules()
    return [LINT_RULES.entry(name).builder() for name in LINT_RULES.names()]


def rules_by_id(ids: List[str]) -> List[Rule]:
    """Instances for ``ids``; unknown ids raise ``ConfigurationError``."""
    _load_builtin_rules()
    return [LINT_RULES.entry(rule_id).builder() for rule_id in ids]
