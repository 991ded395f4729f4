"""A shared plugin-registry mechanism for protocols, graph families, and failures.

Experiments, scenario specs, and the CLI refer to pluggable components by
short string ids (``"push"``, ``"random-regular"``, ``"independent-loss"``).
Each component kind keeps one :class:`Registry` instance mapping those ids to
constructor callables plus human-readable help text, so sweep definitions stay
declarative data instead of imports, and so the CLI ``list-*`` commands and
:mod:`repro.spec` validation can all be driven from one place.

A registry entry knows which keyword arguments its builder accepts (derived
from the builder's signature, once per entry), which lets callers validate a
kwargs dict *before* spending any compute and raise a
:class:`ConfigurationError` that names the offending key.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from .errors import ConfigurationError

__all__ = ["Registry", "RegistryEntry"]


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: its id, builder, and help text.

    Attributes
    ----------
    name:
        The string id users write in specs and on the command line.
    builder:
        Callable constructing the component.
    summary:
        One-line description shown by the CLI ``list-*`` commands.
    params:
        Mapping of keyword-argument name to a one-line help string.  Only
        documented kwargs appear in CLI help; validation uses the builder's
        actual signature, so undocumented-but-accepted kwargs still work.
    """

    name: str
    builder: Callable[..., Any]
    summary: str = ""
    params: Mapping[str, str] = field(default_factory=dict)

    @cached_property
    def _parameters(self) -> Optional[Tuple[inspect.Parameter, ...]]:
        """The builder's parameters, derived on first use and kept.

        ``None`` for builtins without an introspectable signature.  Every
        spec validates against its entries, so deriving the signature per
        call would dominate a sweep's per-point bookkeeping.
        """
        try:
            return tuple(inspect.signature(self.builder).parameters.values())
        except (TypeError, ValueError):  # builtins without introspectable signatures
            return None

    def accepted_kwargs(self) -> Optional[frozenset]:
        """Keyword names the builder accepts, or ``None`` if it takes ``**kwargs``."""
        if self._parameters is None:
            return None
        names = set()
        for parameter in self._parameters:
            if parameter.kind is inspect.Parameter.VAR_KEYWORD:
                return None
            if parameter.kind in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            ):
                names.add(parameter.name)
        return frozenset(names)


class Registry:
    """A name -> builder mapping with validation and discovery support.

    Parameters
    ----------
    kind:
        Human-readable component kind (``"protocol"``, ``"graph family"``,
        ``"failure model"``), used in error messages and CLI output.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, RegistryEntry] = {}

    # -- registration ----------------------------------------------------------

    def register(
        self,
        name: str,
        builder: Callable[..., Any],
        summary: str = "",
        params: Optional[Mapping[str, str]] = None,
    ) -> RegistryEntry:
        """Register ``builder`` under ``name``; re-registration replaces."""
        entry = RegistryEntry(
            name=name, builder=builder, summary=summary, params=dict(params or {})
        )
        self._entries[name] = entry
        return entry

    # -- discovery -------------------------------------------------------------

    def names(self) -> List[str]:
        """The sorted list of registered ids."""
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[RegistryEntry]:
        for name in self.names():
            yield self._entries[name]

    def entry(self, name: str) -> RegistryEntry:
        """The entry registered under ``name``.

        Raises
        ------
        ConfigurationError
            Naming the unknown id and listing the available ones.
        """
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; available: {', '.join(self.names())}"
            ) from None

    def describe(self) -> Dict[str, Tuple[str, Mapping[str, str]]]:
        """Mapping of id to ``(summary, params help)`` for CLI listings."""
        return {
            entry.name: (entry.summary, entry.params) for entry in self
        }

    # -- validation & construction ---------------------------------------------

    def validate_kwargs(
        self, name: str, kwargs: Mapping[str, object], reserved: Tuple[str, ...] = ()
    ) -> None:
        """Check every key of ``kwargs`` against the builder's signature.

        ``reserved`` names are kwargs the *caller* supplies (e.g. a protocol's
        ``n_estimate`` or a graph builder's ``rng``); they are rejected when
        they appear in ``kwargs`` so specs cannot shadow runner-provided
        values.

        Raises
        ------
        ConfigurationError
            Naming the offending key and the accepted parameter names.
        """
        entry = self.entry(name)
        accepted = entry.accepted_kwargs()
        for key in kwargs:
            if key in reserved:
                raise ConfigurationError(
                    f"{self.kind} {name!r}: parameter {key!r} is supplied by the "
                    "runner and cannot be set explicitly"
                )
            if accepted is not None and key not in accepted:
                allowed = sorted(accepted - set(reserved))
                raise ConfigurationError(
                    f"{self.kind} {name!r} does not accept parameter {key!r}; "
                    f"accepted parameters: {', '.join(allowed)}"
                )

    def missing_required(
        self, name: str, kwargs: Mapping[str, object], reserved: Tuple[str, ...] = ()
    ) -> List[str]:
        """Required builder parameters absent from ``kwargs``.

        Parameters with defaults, ``reserved`` (runner-supplied) names, and
        positional-only parameters are not required of ``kwargs``.
        """
        missing = []
        for parameter in self.entry(name)._parameters or ():
            if parameter.kind not in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            ):
                continue
            if parameter.default is not inspect.Parameter.empty:
                continue
            if parameter.name in reserved:
                continue
            if parameter.name not in kwargs:
                missing.append(parameter.name)
        return missing

    def build(self, name: str, *args: object, **kwargs: object) -> Any:
        """Validate ``kwargs`` and call the builder registered under ``name``."""
        self.validate_kwargs(name, kwargs)
        return self.entry(name).builder(*args, **kwargs)
