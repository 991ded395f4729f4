"""VEC001 — the bulk-engine opt-in flag must come with its ``vector_*`` hooks.

Invariant: the vectorized engine trusts the opt-in class flag.
``supports_vectorized = True`` on a protocol promises the bulk decision hooks
(``vector_fanout`` / ``vector_wants_push`` / ``vector_wants_pull``) agree
node-for-node with the scalar ones; the *same flag name* on a churn model
(any class descending from ``ChurnModel``) promises the bulk membership hook
``vector_apply`` instead — the rule selects the contract variant by ancestry.
The optional protocol hooks (index pools, custom targets) need no flag: the
engine reads off the class which ones a protocol overrides.  A flag without
its hooks either crashes mid-sweep (the base class stubs raise) or — worse —
runs a different draw sequence than the scalar engine and breaks parity.
The check is structural, at class definition level, resolving base classes
*by name across the whole linted file set* so hooks provided by an
intermediate base in another module count.

Raising stubs do not count as implementations, and neither does anything
defined on the class that *declares* the flag with a ``False`` default (the
abstract interface, i.e. ``BroadcastProtocol`` or ``ChurnModel``): the
contract must be discharged below its root.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..diagnostics import Diagnostic
from ..rule import ZONE_PACKAGE, LintContext, Rule, register_rule

__all__ = ["VectorHookContractRule"]

#: flag -> the method names it requires, every one of them.
_CONTRACTS = {
    "supports_vectorized": ("vector_fanout", "vector_wants_push", "vector_wants_pull"),
}

#: Contract variants keyed by the ancestor class that re-scopes the flag.
#: ``supports_vectorized`` on a churn model opts into the vectorized
#: engine's *membership* surface, whose only hook is ``vector_apply``.
_SCOPED_CONTRACTS = {
    "ChurnModel": {"supports_vectorized": ("vector_apply",)},
}


def _descends_from(ctx: LintContext, record, root_name: str) -> bool:
    """True if ``record`` (or any name-resolvable ancestor) is ``root_name``."""
    seen = set()
    queue = [record]
    while queue:
        current = queue.pop(0)
        key = (current.relpath, current.name, current.lineno)
        if key in seen:
            continue
        seen.add(key)
        if current.name == root_name:
            return True
        for base in current.bases:
            if base == root_name:
                return True
            queue.extend(ctx.classes.definitions(base))
    return False


@register_rule
class VectorHookContractRule(Rule):
    id = "VEC001"
    slug = "vector-hook-contract"
    summary = (
        "a class setting supports_vectorized must concretely define the "
        "matching vector_* hooks (in itself or a non-abstract base)"
    )
    hint = (
        "implement the missing vector_* hook(s) so the bulk engine runs the "
        "same draw sequence as the scalar path, or drop the capability flag"
    )
    zones = frozenset({ZONE_PACKAGE})

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            records = [
                rec
                for rec in ctx.classes.definitions(node.name)
                if rec.relpath == ctx.relpath and rec.lineno == node.lineno
            ]
            if not records:
                continue
            record = records[0]
            contracts = dict(_CONTRACTS)
            for root_name, overrides in _SCOPED_CONTRACTS.items():
                if _descends_from(ctx, record, root_name):
                    contracts.update(overrides)
            for flag, required in contracts.items():
                declared = record.flags.get(flag)
                if declared is None or declared[0] is not True:
                    continue
                provided = set()
                for ancestor in ctx.classes.ancestry(record, stop_flag=flag):
                    provided.update(
                        name
                        for name, concrete in ancestor.methods.items()
                        if concrete
                    )
                missing = [name for name in required if name not in provided]
                if not missing:
                    continue
                _, lineno, col = declared
                yield self.diagnostic(
                    ctx,
                    node,
                    f"class {node.name} sets {flag} = True but defines no "
                    f"concrete {' and '.join(missing)}",
                    line=lineno,
                    col=col,
                )
