"""Scenario configuration: JSON parsing, validation, canonical serialization.

A scenario document is a JSON object with six optional sections (grid,
model, integrator, initial, monitors, output); every field has a default,
listed in the README's "Scenario configuration" block, and validation
reports *all* violated constraints at once rather than stopping at the first.

Each section is read into the dataclass that owns it, and that dataclass
states and checks the section's constraints.  This module checks only JSON
types, unknown fields and the one constraint that spans two sections, the
Serrin scaling of an explicit ``serrin_q`` in the grid's dimension.

Configs round-trip: parse -> serialize -> parse is the identity on the
canonical form.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields

from .errors import ConstraintViolationError, ParseError, ScalingPairInvalid, require
from .functionals import MonitorSpec
from .model import ModelParams
from .scenarios import FAMILIES
from .spectral import SpectralGrid
from .timestepping import IntegratorConfig


@dataclass(frozen=True)
class InitialSpec:
    family: str = "equilibrium"
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        require((self.family in FAMILIES,
                 f"initial.family must be one of {FAMILIES}, got {self.family!r}"))


@dataclass(frozen=True)
class OutputSpec:
    directory: str | None = None
    write_fields: bool = False
    label: str = "run"


@dataclass(frozen=True)
class ScenarioConfig:
    grid: SpectralGrid
    model: ModelParams
    integrator: IntegratorConfig
    initial: InitialSpec
    monitors: MonitorSpec
    output: OutputSpec

    def to_json_dict(self) -> dict:
        """The canonical document, as JSON objects, arrays and scalars."""
        return json.loads(json.dumps(asdict(self)))

    def serialize(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False) + "\n"


#: Config defaults where the dataclass has none or a different one; an absent
#: grid length is the grid's default period.
_DEFAULTS = {
    "grid": dict(resolution=128, length=None),
    "model": dict(mu=1.0, alpha=0.0, kappa=1.0, a=1.0, gamma=2.0, variant="effective_v2"),
    "integrator": dict(dt_initial=1e-3, dt_min=1e-9, t_end=1.0),
}

# the types json.loads gives for each annotation's base type (exact, so that a
# boolean is no number), and the type's name in messages
_JSON_TYPES = {"float": ((int, float), "a number"), "int": ((int,), "an integer"),
               "str": ((str,), "a string"), "bool": ((bool,), "a boolean"),
               "dict": ((dict,), "a JSON object")}


def _read_value(where: str, annotation: str, raw, violations: list[str]):
    """``raw`` checked against the field's annotation (numbers become
    floats); MISSING after recording a violation."""
    kind, _, optional = annotation.partition(" | ")
    if raw is None and optional == "None":
        return None
    if kind.startswith("tuple["):  # one entry per grid axis, or one for all
        kind = kind[len("tuple["):].split(",")[0]
        items = raw if isinstance(raw, list) else [raw]
        if items and all(type(x) in _JSON_TYPES[kind][0] for x in items):
            return raw
        expected = f"{_JSON_TYPES[kind][1]} or a non-empty list of them"
    elif type(raw) in _JSON_TYPES[kind][0]:
        return float(raw) if kind == "float" else raw
    else:
        expected = _JSON_TYPES[kind][1] + (" or null" if optional else "")
    violations.append(f"{where} must be {expected}, got {raw!r}")
    return MISSING


def _read_section(doc: dict, name: str, cls: type, violations: list[str]) -> dict:
    """Constructor arguments of ``cls`` from section ``name``: each field
    given is type-checked, and an absent or ill-typed one takes its default."""
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        violations.append(f"section {name!r} must be a JSON object")
        sec = {}
    types = {f.name: f.type for f in fields(cls)}
    kw = {f.name: f.default if f.default_factory is MISSING else f.default_factory()
          for f in fields(cls)} | _DEFAULTS.get(name, {})
    for key, raw in sec.items():
        if key not in types:
            violations.append(f"unknown {name} field {key!r}")
        elif (value := _read_value(f"{name}.{key}", types[key], raw, violations)) is not MISSING:
            kw[key] = value
    return kw


_SECTIONS = {"grid": SpectralGrid, "model": ModelParams, "integrator": IntegratorConfig,
             "initial": InitialSpec, "monitors": MonitorSpec, "output": OutputSpec}


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document.

    Raises ParseError for malformed JSON and ConstraintViolationError with
    the complete list of violated constraints otherwise.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg} at line {exc.lineno}, "
                         f"column {exc.colno}", line=exc.lineno, column=exc.colno) from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level config must be a JSON object")
    violations = [f"unknown top-level section {key!r}" for key in doc if key not in _SECTIONS]
    kw, sections = {}, {}
    for name, cls in _SECTIONS.items():
        kw[name] = _read_section(doc, name, cls, violations)
        try:
            sections[name] = cls(**kw[name])
        except ConstraintViolationError as exc:
            violations += exc.violations

    if "grid" in sections and "monitors" in sections:  # a fault of either is listed above
        try:
            sections["monitors"].serrin_pair(sections["grid"].dim)
        except ScalingPairInvalid as exc:
            violations.append(f"monitors.serrin_q: {exc}")
    if violations:
        raise ConstraintViolationError(violations)
    return ScenarioConfig(**sections)
