"""Declarative scenario specifications.

One :class:`ScenarioSpec` is a complete, serialisable description of a
broadcast run or sweep: which graph family, which protocol, which failure
regime, which sweep axes, how many repetitions, and which seeds/engine knobs.
Scenarios are plain data — they round-trip through ``to_dict``/``from_dict``
and JSON, can be diffed and stored next to their results, and are validated
eagerly against the component registries
(:data:`repro.protocols.registry.PROTOCOLS`,
:data:`repro.graphs.registry.GRAPH_FAMILIES`,
:data:`repro.failures.registry.FAILURE_MODELS`) so a typo fails with a
:class:`ConfigurationError` naming the offending key before any compute is
spent.

Execution lives in :mod:`repro.spec.run` (:func:`run_spec`).  Every seed
of a run derives from the spec itself (:meth:`ScenarioSpec.run_seeds` and the
graph seeds of :meth:`repro.experiments.runner.ExperimentRunner.spec_graph`),
so a scenario file reproduces its results exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

from ..core.config import SimulationConfig
from ..core.errors import ConfigurationError
from ..core.rng import RandomSource, derive_seed
from ..failures.churn import ChurnModel
from ..failures.churn_registry import CHURN_MODELS, build_churn_model
from ..failures.message_loss import FailureModel
from ..failures.registry import FAILURE_MODELS, build_failure_model
from ..graphs.base import Graph
from ..graphs.registry import GRAPH_FAMILIES, build_graph
from ..protocols.base import BroadcastProtocol
from ..protocols.registry import PROTOCOLS, build_protocol

__all__ = [
    "SCENARIO_SCHEMA",
    "GraphSpec",
    "ProtocolSpec",
    "FailureSpec",
    "ChurnSpec",
    "SweepAxis",
    "SweepSpec",
    "ScenarioSpec",
    "load_spec",
    "save_spec",
]

#: Format tag written into serialized scenarios; bumped on breaking changes.
SCENARIO_SCHEMA = "repro.scenario/1"

#: SimulationConfig fields a spec's ``config`` block may override.  ``engine``
#: is deliberately excluded — it is a first-class spec field.
_CONFIG_FIELDS = tuple(
    name for name in SimulationConfig.__dataclass_fields__ if name != "engine"
)


def _require_mapping(value: object, what: str) -> Dict[str, object]:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigurationError(f"{what} must be a mapping, got {type(value).__name__}")
    return dict(value)


def _reject_unknown_keys(data: Mapping, allowed: Tuple[str, ...], what: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"{what} has unknown field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}"
        )


@dataclass(frozen=True)
class GraphSpec:
    """Which topology to build, by registry id.

    Attributes
    ----------
    family:
        A :data:`GRAPH_FAMILIES` id, e.g. ``"connected-random-regular"``.
    params:
        Keyword arguments for the family's builder (``n``, ``d``, ``p``, ...).
        Validated against the builder's signature at construction time.
    instance:
        Index of the graph instance; distinct instances of the same family
        and parameters receive independent generation seeds.
    """

    family: str
    params: Dict[str, object] = field(default_factory=dict)
    instance: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        GRAPH_FAMILIES.validate_kwargs(self.family, self.params, reserved=("rng",))
        missing = GRAPH_FAMILIES.missing_required(
            self.family, self.params, reserved=("rng",)
        )
        if missing:
            raise ConfigurationError(
                f"graph family {self.family!r} is missing required parameter(s) "
                f"{', '.join(map(repr, missing))}"
            )
        if not isinstance(self.instance, int) or self.instance < 0:
            raise ConfigurationError(
                f"graph instance must be a non-negative int, got {self.instance!r}"
            )

    def build(self, rng: Optional[RandomSource] = None) -> Graph:
        """Materialise the graph through the graph-family registry."""
        return build_graph(self.family, rng=rng, **self.params)

    def to_dict(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "params": dict(self.params),
            "instance": self.instance,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "GraphSpec":
        data = _require_mapping(data, "graph spec")
        _reject_unknown_keys(data, ("family", "params", "instance"), "graph spec")
        if "family" not in data:
            raise ConfigurationError("graph spec is missing the 'family' field")
        return cls(
            family=data["family"],
            params=_require_mapping(data.get("params"), "graph params"),
            instance=data.get("instance", 0),
        )


@dataclass(frozen=True)
class ProtocolSpec:
    """Which protocol to run, by registry id.

    Attributes
    ----------
    name:
        A :data:`PROTOCOLS` id, e.g. ``"algorithm1"``.
    params:
        Constructor kwargs beyond ``n_estimate`` (``alpha``, ``fanout``, ...).
    n_estimate:
        Explicit network-size estimate handed to the protocol.  ``None``
        (default) uses the true node count of the materialised graph — set it
        to model the paper's inaccurate-estimate regime (experiment E7).
    """

    name: str
    params: Dict[str, object] = field(default_factory=dict)
    n_estimate: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        PROTOCOLS.validate_kwargs(self.name, self.params, reserved=("n_estimate",))
        if self.n_estimate is not None and (
            not isinstance(self.n_estimate, int) or self.n_estimate < 2
        ):
            raise ConfigurationError(
                f"protocol n_estimate must be an int >= 2 or null, got {self.n_estimate!r}"
            )

    def build(self, default_estimate: int) -> BroadcastProtocol:
        """Instantiate the protocol (``n_estimate`` falls back to the graph size)."""
        estimate = self.n_estimate if self.n_estimate is not None else default_estimate
        return build_protocol(self.name, estimate, **self.params)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "params": dict(self.params),
            "n_estimate": self.n_estimate,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ProtocolSpec":
        data = _require_mapping(data, "protocol spec")
        _reject_unknown_keys(data, ("name", "params", "n_estimate"), "protocol spec")
        if "name" not in data:
            raise ConfigurationError("protocol spec is missing the 'name' field")
        return cls(
            name=data["name"],
            params=_require_mapping(data.get("params"), "protocol params"),
            n_estimate=data.get("n_estimate"),
        )


@dataclass(frozen=True)
class FailureSpec:
    """Which failure regime applies, by registry id.

    ``"reliable"`` (the default) materialises to *no* failure model, which is
    bit-identical to passing ``failure_model=None`` to the engines.
    """

    model: str = "reliable"
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        FAILURE_MODELS.validate_kwargs(self.model, self.params)

    def build(self) -> Optional[FailureModel]:
        """The failure model instance, or ``None`` for plain ``"reliable"``."""
        if self.model == "reliable" and not self.params:
            return None
        return build_failure_model(self.model, **self.params)

    def to_dict(self) -> Dict[str, object]:
        return {"model": self.model, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "FailureSpec":
        data = _require_mapping(data, "failure spec")
        _reject_unknown_keys(data, ("model", "params"), "failure spec")
        return cls(
            model=data.get("model", "reliable"),
            params=_require_mapping(data.get("params"), "failure params"),
        )


@dataclass(frozen=True)
class ChurnSpec:
    """Which membership regime applies, by churn-registry id.

    ``"none"`` (the default) materialises to *no* churn model, which is
    bit-identical to passing ``churn_model=None`` to the engines — static
    scenarios stay on the static fast paths (including the batched engine).
    Any other id names a :data:`CHURN_MODELS` entry; its params are validated
    against the model's constructor at spec-construction time.
    """

    model: str = "none"
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        CHURN_MODELS.validate_kwargs(self.model, self.params)
        missing = CHURN_MODELS.missing_required(self.model, self.params)
        if missing:
            raise ConfigurationError(
                f"churn model {self.model!r} is missing required parameter(s) "
                f"{', '.join(map(repr, missing))}"
            )

    def build(self) -> Optional[ChurnModel]:
        """The churn model instance, or ``None`` for plain ``"none"``."""
        if self.model == "none" and not self.params:
            return None
        return build_churn_model(self.model, **self.params)

    def factory(self):
        """A zero-arg churn-model factory, or ``None`` for plain ``"none"``.

        The experiment runner builds one model per run on the scalar path
        (churn mutates the graph there), so specs hand it a factory rather
        than an instance.
        """
        if self.model == "none" and not self.params:
            return None
        return lambda: build_churn_model(self.model, **self.params)

    def to_dict(self) -> Dict[str, object]:
        return {"model": self.model, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ChurnSpec":
        data = _require_mapping(data, "churn spec")
        _reject_unknown_keys(data, ("model", "params"), "churn spec")
        return cls(
            model=data.get("model", "none"),
            params=_require_mapping(data.get("params"), "churn params"),
        )


def _validate_axis_path(path: str) -> Tuple[str, ...]:
    """Check a sweep-axis path and return its segments."""
    parts = tuple(path.split("."))
    exact_paths = (
        ("graph", "instance"),
        ("protocol", "name"),
        ("protocol", "n_estimate"),
        ("failure", "model"),
        ("churn", "model"),
    )
    ok = (
        len(parts) == 3
        and parts[0] in ("graph", "protocol", "failure", "churn")
        and parts[1] == "params"
    ) or parts in exact_paths
    if not ok:
        raise ConfigurationError(
            f"invalid sweep-axis path {path!r}; expected one of "
            "'graph.params.<key>', 'graph.instance', 'protocol.name', "
            "'protocol.params.<key>', 'protocol.n_estimate', 'failure.model', "
            "'failure.params.<key>', 'churn.model', or 'churn.params.<key>'"
        )
    return parts


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: a dotted spec path and the values it takes.

    Attributes
    ----------
    path:
        Where the axis writes into the scenario, e.g. ``"graph.params.n"``,
        ``"protocol.name"``, ``"failure.params.transmission_loss_probability"``.
    values:
        The values the axis iterates over (at least one).
    key:
        Short name used in label templates and result tables; defaults to the
        last path segment (``"n"``, ``"name"``, ...).
    """

    path: str
    values: Tuple[object, ...]
    key: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_axis_path(self.path)
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ConfigurationError(f"sweep axis {self.path!r} has no values")
        # A repeated value would run its points twice under one label and
        # one set of seeds.
        forms = [json.dumps(value, sort_keys=True) for value in self.values]
        if len(set(forms)) != len(forms):
            raise ConfigurationError(f"sweep axis {self.path!r} repeats a value")

    @property
    def label_key(self) -> str:
        return self.key if self.key is not None else self.path.rsplit(".", 1)[-1]

    def to_dict(self) -> Dict[str, object]:
        return {"path": self.path, "values": list(self.values), "key": self.key}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepAxis":
        data = _require_mapping(data, "sweep axis")
        _reject_unknown_keys(data, ("path", "values", "key"), "sweep axis")
        for required in ("path", "values"):
            if required not in data:
                raise ConfigurationError(f"sweep axis is missing the {required!r} field")
        return cls(path=data["path"], values=tuple(data["values"]), key=data.get("key"))


@dataclass(frozen=True)
class SweepSpec:
    """A full factorial grid over one or more :class:`SweepAxis` dimensions.

    The grid is expanded row-major: the first axis is the outermost loop.
    """

    axes: Tuple[SweepAxis, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "axes",
            tuple(
                axis if isinstance(axis, SweepAxis) else SweepAxis.from_dict(axis)
                for axis in self.axes
            ),
        )
        if not self.axes:
            raise ConfigurationError("a sweep needs at least one axis")
        keys = [axis.label_key for axis in self.axes]
        duplicates = sorted({key for key in keys if keys.count(key) > 1})
        if duplicates:
            raise ConfigurationError(
                f"sweep axes have duplicate label key(s) {', '.join(map(repr, duplicates))}; "
                "set distinct 'key' values"
            )

    @property
    def size(self) -> int:
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total

    def points(self) -> Iterator[Dict[str, object]]:
        """Yield one ``{path: value}`` mapping per grid point, row-major."""

        def expand(index: int, current: Dict[str, object]) -> Iterator[Dict[str, object]]:
            if index == len(self.axes):
                yield dict(current)
                return
            axis = self.axes[index]
            for value in axis.values:
                current[axis.path] = value
                yield from expand(index + 1, current)
            current.pop(axis.path, None)

        yield from expand(0, {})

    def to_dict(self) -> Dict[str, object]:
        return {"axes": [axis.to_dict() for axis in self.axes]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepSpec":
        data = _require_mapping(data, "sweep spec")
        _reject_unknown_keys(data, ("axes",), "sweep spec")
        axes = data.get("axes")
        if not isinstance(axes, (list, tuple)):
            raise ConfigurationError("sweep spec 'axes' must be a list")
        return cls(axes=tuple(SweepAxis.from_dict(axis) for axis in axes))


@dataclass(frozen=True)
class ScenarioSpec:
    """One serializable record describing a broadcast run or sweep.

    Attributes
    ----------
    name:
        Scenario id; used as the default table title and label template.
    graph / protocol / failure / churn:
        The component specs (see :class:`GraphSpec`, :class:`ProtocolSpec`,
        :class:`FailureSpec`, :class:`ChurnSpec`).
    sweep:
        Optional grid of :class:`SweepAxis` dimensions; ``None`` runs the
        single configured point.
    repetitions:
        Independent runs (seeds) per grid point.
    master_seed:
        Root of all randomness — graph seeds and run seeds
        (:meth:`run_seeds`) derive from it, so a scenario is reproducible
        from this one number.
    label:
        Per-point run-label template, formatted with the axis keys plus
        ``{scenario}``, ``{protocol}``, ``{family}`` and every graph /
        protocol / failure parameter (e.g. ``"e1-{protocol}"``).  The label
        feeds the run-seed derivation, so it is part of the reproducibility
        contract.  ``None`` uses the scenario name.
    engine / batch:
        Execution knobs: ``engine`` joins the :meth:`simulation_config`, and
        ``batch`` lets multi-seed points run as one batched program.
    config:
        :class:`SimulationConfig` overrides (``stop_when_informed``,
        ``max_rounds``, ``message_loss_probability``, ...).  ``engine`` is not
        allowed here — it is a first-class field.
    source:
        Broadcast source node id.
    """

    name: str
    graph: GraphSpec
    protocol: ProtocolSpec
    failure: FailureSpec = field(default_factory=FailureSpec)
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    sweep: Optional[SweepSpec] = None
    repetitions: int = 3
    master_seed: int = 2008
    label: Optional[str] = None
    engine: str = "auto"
    batch: bool = True
    config: Dict[str, object] = field(default_factory=dict)
    source: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError("scenario name must be a non-empty string")
        if not isinstance(self.repetitions, int) or self.repetitions < 1:
            raise ConfigurationError(
                f"repetitions must be a positive int, got {self.repetitions!r}"
            )
        if self.engine not in ("auto", "scalar", "vectorized"):
            raise ConfigurationError(
                f"engine must be 'auto', 'scalar', or 'vectorized', got {self.engine!r}"
            )
        object.__setattr__(self, "config", dict(self.config))
        if "engine" in self.config:
            raise ConfigurationError(
                "config override 'engine' is not allowed; set the spec's "
                "top-level 'engine' field instead"
            )
        unknown = sorted(set(self.config) - set(_CONFIG_FIELDS))
        if unknown:
            raise ConfigurationError(
                f"unknown config override(s) {', '.join(map(repr, unknown))}; "
                f"allowed: {', '.join(_CONFIG_FIELDS)}"
            )

    # -- sweep expansion --------------------------------------------------------

    def resolve_point(self, values: Mapping[str, object]) -> "ScenarioSpec":
        """The single-point spec obtained by writing ``{path: value}`` entries.

        The returned spec has no sweep; constructing it re-validates the
        substituted ids and kwargs, so an invalid grid point fails with a
        precise :class:`ConfigurationError`.
        """
        data = self.to_dict()
        data["sweep"] = None
        for path, value in values.items():
            parts = _validate_axis_path(path)
            target = data
            for part in parts[:-1]:
                target = target[part]
            target[parts[-1]] = value
        return ScenarioSpec.from_dict(data)

    def expand(self) -> Iterator[Tuple[Dict[str, object], "ScenarioSpec"]]:
        """Yield ``(axis key -> value, resolved single-point spec)`` per point."""
        if self.sweep is None:
            yield {}, self
            return
        key_by_path = {axis.path: axis.label_key for axis in self.sweep.axes}
        for point in self.sweep.points():
            values = {key_by_path[path]: value for path, value in point.items()}
            yield values, self.resolve_point(point)

    # -- labels -----------------------------------------------------------------

    def label_context(self, extra: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
        """The mapping available to the label template for this (point) spec."""
        context: Dict[str, object] = {}
        context.update(self.graph.params)
        context.update(self.failure.params)
        context.update(self.protocol.params)
        context.update(self.churn.params)
        context.update(
            scenario=self.name,
            family=self.graph.family,
            protocol=self.protocol.name,
            model=self.failure.model,
            churn=self.churn.model,
        )
        if self.protocol.n_estimate is not None:
            context["n_estimate"] = self.protocol.n_estimate
        if extra:
            context.update(extra)
        return context

    def run_label(self, extra: Optional[Mapping[str, object]] = None) -> str:
        """Format the label template for this (point) spec."""
        template = self.label if self.label is not None else self.name
        context = self.label_context(extra)
        try:
            return template.format_map(context)
        except KeyError as error:
            raise ConfigurationError(
                f"label template {template!r} references unknown key {error.args[0]!r}; "
                f"available: {', '.join(sorted(map(str, context)))}"
            ) from None

    def run_seeds(self, seed_label: str) -> List[int]:
        """One run seed per repetition: ``derive_seed(master_seed, "run", seed_label, i)``.

        ``seed_label`` is the point's
        :meth:`~repro.experiments.runner.ExperimentRunner.seed_label_for`.
        """
        return [
            derive_seed(self.master_seed, "run", seed_label, i)
            for i in range(self.repetitions)
        ]

    # -- config -----------------------------------------------------------------

    def simulation_config(self) -> Optional[SimulationConfig]:
        """The ``config`` overrides plus a non-``auto`` engine, or ``None``.

        ``None`` (engine ``auto`` and no overrides) lets the engines apply
        their defaults.
        """
        overrides = dict(self.config)
        if self.engine != "auto":
            overrides["engine"] = self.engine
        return SimulationConfig(**overrides) if overrides else None

    # -- serialisation ----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "graph": self.graph.to_dict(),
            "protocol": self.protocol.to_dict(),
            "failure": self.failure.to_dict(),
            "churn": self.churn.to_dict(),
            "sweep": self.sweep.to_dict() if self.sweep is not None else None,
            "repetitions": self.repetitions,
            "master_seed": self.master_seed,
            "label": self.label,
            "engine": self.engine,
            "batch": self.batch,
            "config": dict(self.config),
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        data = _require_mapping(data, "scenario spec")
        _reject_unknown_keys(
            data,
            (
                "schema",
                "name",
                "graph",
                "protocol",
                "failure",
                "churn",
                "sweep",
                "repetitions",
                "master_seed",
                "label",
                "engine",
                "batch",
                "config",
                "source",
            ),
            "scenario spec",
        )
        schema = data.get("schema", SCENARIO_SCHEMA)
        if schema != SCENARIO_SCHEMA:
            raise ConfigurationError(
                f"unsupported scenario schema {schema!r}; this build reads "
                f"{SCENARIO_SCHEMA!r}"
            )
        for required in ("name", "graph", "protocol"):
            if required not in data:
                raise ConfigurationError(
                    f"scenario spec is missing the {required!r} field"
                )
        sweep_data = data.get("sweep")
        return cls(
            name=data["name"],
            graph=GraphSpec.from_dict(data["graph"]),
            protocol=ProtocolSpec.from_dict(data["protocol"]),
            failure=FailureSpec.from_dict(data.get("failure", {})),
            churn=ChurnSpec.from_dict(data.get("churn", {})),
            sweep=SweepSpec.from_dict(sweep_data) if sweep_data is not None else None,
            repetitions=data.get("repetitions", 3),
            master_seed=data.get("master_seed", 2008),
            label=data.get("label"),
            engine=data.get("engine", "auto"),
            batch=data.get("batch", True),
            config=_require_mapping(data.get("config"), "config overrides"),
            source=data.get("source", 0),
        )

    def to_json(self, indent: int = 2) -> str:
        """The spec as pretty-printed JSON."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"scenario JSON is malformed: {error}") from error
        return cls.from_dict(data)


PathLike = Union[str, Path]


def load_spec(path: PathLike) -> ScenarioSpec:
    """Read a :class:`ScenarioSpec` from a JSON file."""
    source = Path(path)
    try:
        text = source.read_text()
    except OSError as error:
        raise ConfigurationError(f"cannot read scenario file {source}: {error}") from error
    return ScenarioSpec.from_json(text)


def save_spec(spec: ScenarioSpec, path: PathLike) -> Path:
    """Write ``spec`` to ``path`` as JSON; returns the resolved path."""
    destination = Path(path)
    destination.write_text(spec.to_json() + "\n")
    return destination
