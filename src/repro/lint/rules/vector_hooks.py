"""VEC001 — the bulk-engine opt-in flag must come with its ``vector_*`` hooks.

Invariant: the vectorized engine trusts the opt-in class flag.
``supports_vectorized = True`` on a protocol promises the bulk decision hooks
(``vector_fanout`` / ``vector_wants_push`` / ``vector_wants_pull``) agree
node-for-node with the scalar ones.  The optional protocol hooks (index
pools, custom targets) need no flag: the engine reads off the class which
ones a protocol overrides.  A flag without its hooks either crashes
mid-sweep (the base class stubs raise) or — worse — runs a different draw
sequence than the scalar engine and breaks parity.  The check is
structural, at class definition level, resolving base classes *by name
across the whole linted file set* so hooks provided by an intermediate base
in another module count.

Raising stubs do not count as implementations, and neither does anything
defined on the class that *declares* the flag with a ``False`` default (the
abstract interface, i.e. ``BroadcastProtocol``): the contract must be
discharged below its root.
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
            for flag, required in _CONTRACTS.items():
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
