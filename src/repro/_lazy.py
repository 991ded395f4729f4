"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package ``__init__`` lists its re-exports as plain relative imports under
``if TYPE_CHECKING:``, so readers, linters and type checkers see the names
bound, and ends with ``__getattr__, __dir__ = lazy_exports(__name__)``.
Nothing in the block runs at import time: the first lookup of a missing
name reads the block (with :mod:`ast`) to learn which submodule defines
each name, imports only the one that defines the name asked for, and
caches the value in the package.  The block holds the re-exports and
nothing else; ``tests/test_imports.py`` checks it against ``__all__``.
A lookup of a submodule not yet imported imports it, as an eager
``__init__`` used to bind it (``repro.dist`` after a bare ``import repro``).
"""

from __future__ import annotations

import ast
import sys
from importlib import import_module
from typing import Callable, Dict, List, Tuple

__all__ = ["lazy_exports", "export_origins"]


def export_origins(path: str) -> Dict[str, str]:
    """Name -> relative module of every import under ``if TYPE_CHECKING:`` in ``path``."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    origins: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for statement in node.body:
                if isinstance(statement, ast.ImportFrom):
                    module = "." * statement.level + (statement.module or "")
                    for alias in statement.names:
                        origins[alias.asname or alias.name] = module
    return origins


def lazy_exports(package: str) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of the package ``package``."""
    namespace = vars(sys.modules[package])
    origins: Dict[str, str] = {}

    def resolve() -> Dict[str, str]:
        if not origins:
            origins.update(export_origins(namespace["__file__"]))
        return origins

    def __getattr__(name: str) -> object:
        module = resolve().get(name)
        if module is not None:
            value = getattr(import_module(module, package), name)
            namespace[name] = value
            return value
        try:
            return import_module(f"{package}.{name}")
        except ModuleNotFoundError as error:
            if error.name != f"{package}.{name}":
                raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(resolve()))

    return __getattr__, __dir__
