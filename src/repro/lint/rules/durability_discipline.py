"""DUR001 — writes under ``repro.dist`` go through the durability helpers.

Invariant: the crash-safety story (kill -9 at any byte offset resumes
bit-identically) holds because every durable artefact (the stream sink's
manifests) reaches disk via ``dist/durability.py``'s
``atomic_write_text`` / ``fsync_fileobj`` / ``fsync_dir`` triple: temp-file
fsync, atomic rename, directory fsync.  A stray ``open(path, "w")`` or bare
``os.replace`` in the subsystem can leave a torn or vanished file after a
crash, and the parity tripwires only catch it when a crash actually lands
there.  The streaming sink's raw segment appends are the one *designed*
exception (they fsync on their own cadence and carry CRC framing); those
sites carry explicit ``# lint: disable=DUR001 -- reason`` annotations.

The rule flags, inside ``src/repro/dist/`` (except ``durability.py``
itself): ``open()`` / ``.open()`` with a write-capable literal mode,
``Path.write_text`` / ``write_bytes``, and ``os.rename`` / ``os.replace`` /
``shutil.move``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..diagnostics import Diagnostic
from ..names import ImportMap, resolve_call_name
from ..rule import ZONE_PACKAGE, LintContext, Rule, register_rule

__all__ = ["DurabilityDisciplineRule"]

_SUBSYSTEM_PREFIX = "src/repro/dist/"
_EXEMPT_FILES = {"src/repro/dist/durability.py"}

_RENAME_CALLS = {"os.rename", "os.replace", "shutil.move"}
_WRITE_ATTRS = {"write_text", "write_bytes"}


def _literal_mode(call: ast.Call, position: int) -> Optional[str]:
    """The literal ``mode`` argument of an open-style call, when present."""
    for keyword in call.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
            value = keyword.value.value
            return value if isinstance(value, str) else None
    if len(call.args) > position and isinstance(call.args[position], ast.Constant):
        value = call.args[position].value
        return value if isinstance(value, str) else None
    return None


def _writes(mode: Optional[str]) -> bool:
    return mode is not None and any(ch in mode for ch in "wax+")


@register_rule
class DurabilityDisciplineRule(Rule):
    id = "DUR001"
    slug = "durability-discipline"
    summary = (
        "file writes under src/repro/dist go through the durability.py "
        "atomic-rename/fsync helpers (crash-safety depends on it)"
    )
    hint = (
        "use repro.dist.durability.atomic_write_text (or fsync_fileobj + "
        "fsync_dir); a designed raw append needs "
        "'# lint: disable=DUR001 -- reason'"
    )
    zones = frozenset({ZONE_PACKAGE})

    def applies_to(self, ctx: LintContext) -> bool:
        return (
            super().applies_to(ctx)
            and ctx.relpath.startswith(_SUBSYSTEM_PREFIX)
            and ctx.relpath not in _EXEMPT_FILES
        )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        imports = ImportMap().collect(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                if _writes(_literal_mode(node, position=1)):
                    yield self.diagnostic(
                        ctx,
                        node,
                        "direct open() for writing bypasses the durability "
                        "helpers' fsync/atomic-rename contract",
                    )
                continue
            if isinstance(node.func, ast.Attribute):
                if node.func.attr == "open" and _writes(
                    _literal_mode(node, position=0)
                ):
                    yield self.diagnostic(
                        ctx,
                        node,
                        "direct .open() for writing bypasses the durability "
                        "helpers' fsync/atomic-rename contract",
                    )
                    continue
                if node.func.attr in _WRITE_ATTRS:
                    yield self.diagnostic(
                        ctx,
                        node,
                        f".{node.func.attr}() writes without fsync or atomic "
                        "rename; a crash can leave a torn file",
                    )
                    continue
            name = resolve_call_name(node, imports)
            if name in _RENAME_CALLS:
                yield self.diagnostic(
                    ctx,
                    node,
                    f"{name}() outside durability.py skips the directory "
                    "fsync that makes renames crash-durable",
                )
