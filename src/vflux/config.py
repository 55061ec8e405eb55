"""Scenario configuration: YAML ingestion, defaults, validation.

A configuration is a YAML mapping tagged ``vflux-config/1``; every key but
``task`` is optional, missing system parameters come from a defaults table
keyed by the reproduction target (``docs/config.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import BATHS, ENERGY, KINDS, SPEC_FIELDS, SystemSpec, interference_bound, validate

SCHEMA_TAG = "vflux-config/1"

TASKS = ("steady", "currents", "cumulants", "rectify", "amplify", "sweep", "reproduce")

OUTPUT_FORMATS = ("csv", "json")

#: Two-bath resonant base system: both edge baths couple to both levels
#: with equal diagonal coefficients, interference off, middle bath off.
BASE_SYSTEM = {
    "eps1": 1.0, "eps2": 1.0,
    "tempL": 2.0, "tempM": 1.0, "tempR": 1.0,
    "gL11": 0.01, "gL22": 0.01, "gL12": 0.0,
    "gR11": 0.01, "gR22": 0.01, "gR12": 0.0,
    "gM": 0.0,
}

#: Three-bath cyclic base system: the left bath drives only the upper
#: transition, the right bath only the lower one, the middle bath the
#: excited-excited hop.
CYCLE_SYSTEM = {
    "eps1": 1.1, "eps2": 0.9,
    "tempL": 2.0, "tempM": 1.0, "tempR": 0.5,
    "gL11": 0.01, "gL22": 0.0, "gL12": 0.0,
    "gR11": 0.0, "gR22": 0.01, "gR12": 0.0,
    "gM": 0.01,
}

#: Defaults table: the base system of each reproduction target.
REPRODUCE_SYSTEMS = {
    "fig2a": BASE_SYSTEM,
    # left bath at full interference, both edge baths at one temperature
    "fig2b": {**BASE_SYSTEM, "tempL": 0.5, "tempR": 0.5,
              "gL12": interference_bound(BASE_SYSTEM["gL11"], BASE_SYSTEM["gL22"])},
    "fig21a": BASE_SYSTEM,
    "fig21b": BASE_SYSTEM,
    "fig3": BASE_SYSTEM,
    "fig4b": CYCLE_SYSTEM,
    "fig5a": CYCLE_SYSTEM,
    # the cycle with both two-terminal bypass channels open
    "fig5b": {**CYCLE_SYSTEM, "gL22": 0.01, "gR11": 0.01},
}

REPRODUCE_TARGETS = tuple(REPRODUCE_SYSTEMS)


@dataclass(frozen=True)
class ScenarioConfig:
    task: str
    spec: SystemSpec
    #: ``(field, values)`` of each sweep axis, the first axis outermost
    sweep_axes: tuple[tuple[str, np.ndarray], ...] = ()
    reproduce_target: str | None = None
    out_path: str | None = None
    out_format: str = "csv"
    options: dict = field(default_factory=dict)

    def option(self, key: str, default=None):
        return self.options.get(key, default)


def _require_mapping(node, where: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(node).__name__}")
    return node


_KNOWN_TOP = {"schema", "task", "reproduce", "system", "sweep", "output",
              "rectify", "amplify", "cumulants"}

#: The keys of each task-option section.
_OPTION_KEYS = {"rectify": ("t0", "deltaT"), "amplify": ("tM",),
                "cumulants": ("bath", "kind", "order")}


def _number(value) -> float | None:
    """``value`` as a float if it is a number (not a bool), else None."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def _axis(node, where: str, problems: list[str]) -> np.ndarray | None:
    """Grid values ``linspace(min, max, steps)`` of a ``{min, max, steps}``
    mapping; a problem is recorded and None returned when it is not a valid
    axis."""
    node = _require_mapping(node, where)
    lo, hi, steps = _number(node.get("min")), _number(node.get("max")), node.get("steps")
    if lo is None or hi is None or not isinstance(steps, int) or isinstance(steps, bool):
        problems.append(f"{where}: needs numeric min, max and integer steps")
        return None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        problems.append(f"{where}: min = {lo} and max = {hi} must be finite")
        return None
    if steps < 2:
        problems.append(f"{where}.steps: must be >= 2, got {steps}")
        return None
    return np.linspace(lo, hi, steps)


def build_config(raw: dict, source: str = "<config>") -> ScenarioConfig:
    """Validate a raw mapping and resolve it into a ScenarioConfig.

    Every violation is collected and reported in one exception.
    """
    problems: list[str] = []
    raw = _require_mapping(raw, source)

    unknown = sorted(set(raw) - _KNOWN_TOP)
    if unknown:
        problems.append(f"unknown top-level keys: {', '.join(unknown)}")

    schema = raw.get("schema", SCHEMA_TAG)
    if schema != SCHEMA_TAG:
        problems.append(f"schema: expected {SCHEMA_TAG!r}, got {schema!r}")

    task = raw.get("task")
    if task not in TASKS:
        problems.append(f"task: expected one of {TASKS}, got {task!r}")
        task = "steady"

    target = raw.get("reproduce")
    if task == "reproduce":
        if target not in REPRODUCE_TARGETS:
            problems.append(
                f"reproduce: expected one of {REPRODUCE_TARGETS}, got {target!r}"
            )
            target = None
    elif target is not None:
        problems.append("reproduce: only valid together with task: reproduce")
        target = None

    system_node = _require_mapping(raw.get("system"), "system")
    unknown_fields = sorted(set(system_node) - set(SPEC_FIELDS))
    if unknown_fields:
        problems.append(f"system: unknown fields: {', '.join(unknown_fields)}")
    merged = dict(REPRODUCE_SYSTEMS.get(target, BASE_SYSTEM))
    for key in SPEC_FIELDS:
        if key in system_node:
            value = _number(system_node[key])
            if value is None:
                problems.append(f"system.{key}: expected a number, got {system_node[key]!r}")
                continue
            merged[key] = value
    spec = SystemSpec(**merged)
    for violation in validate(spec):
        problems.append(f"system: {violation}")

    axes: list[tuple[str, np.ndarray]] = []
    sweep_node = _require_mapping(raw.get("sweep"), "sweep")
    axis_list = sweep_node.get("axes", [])
    if not isinstance(axis_list, list):
        problems.append("sweep.axes: expected a list")
        axis_list = []
    for pos, item in enumerate(axis_list):
        item = _require_mapping(item, f"sweep.axes[{pos}]")
        name = item.get("field")
        if name not in SPEC_FIELDS:
            problems.append(f"sweep.axes[{pos}].field: unknown system field {name!r}")
            continue
        if any(name == swept for swept, _ in axes):
            problems.append(f"sweep.axes[{pos}].field: {name} is already swept by an earlier axis")
            continue
        values = _axis(item, f"sweep.axes[{pos}]", problems)
        if values is not None:
            axes.append((name, values))
    if task == "sweep" and not (1 <= len(axes) <= 2):
        problems.append(f"sweep: needs 1 or 2 axes, got {len(axes)}")
    if task != "sweep" and axes:
        problems.append("sweep.axes: only valid together with task: sweep")

    output_node = _require_mapping(raw.get("output"), "output")
    out_path = output_node.get("path")
    out_format = output_node.get("format", "csv")
    if out_format not in OUTPUT_FORMATS:
        problems.append(f"output.format: expected one of {OUTPUT_FORMATS}, got {out_format!r}")
        out_format = "csv"

    options: dict = {}
    for section, keys in _OPTION_KEYS.items():
        node = _require_mapping(raw.get(section), section)
        unknown_keys = sorted(map(str, set(node) - set(keys)))
        if unknown_keys:
            problems.append(f"{section}: unknown keys: {', '.join(unknown_keys)}")
        options.update((f"{section}.{key}", node[key]) for key in keys if key in node)
    if "rectify.t0" in options:
        t0 = options["rectify.t0"]
        options["rectify.t0"] = value = _number(t0)
        if value is None or not 0.0 < value < math.inf:
            problems.append(f"rectify.t0: expected a positive finite number, got {t0!r}")
    # a grid option is one number or a {min, max, steps} axis, kept as its values
    for key in ("rectify.deltaT", "amplify.tM"):
        if key in options:
            value = _number(options[key])
            if value is not None and math.isfinite(value):
                options[key] = np.array([value])
            elif isinstance(options[key], dict):
                options[key] = _axis(options[key], key, problems)
            else:
                problems.append(f"{key}: expected a finite number or {{min, max, steps}}, "
                                f"got {options[key]!r}")
    order = options.get("cumulants.order", 2)
    if not isinstance(order, int) or isinstance(order, bool):
        problems.append(f"cumulants.order: expected an integer, got {order!r}")
    kind = options.get("cumulants.kind", ENERGY)
    if kind not in KINDS:
        problems.append(f"cumulants.kind: expected one of {KINDS}, got {kind!r}")
    bath = options.get("cumulants.bath", "R")
    if bath not in BATHS:
        problems.append(f"cumulants.bath: expected L or R, got {bath!r}")

    if problems:
        raise ConfigError(f"{source}: " + "; ".join(problems))
    return ScenarioConfig(
        task=task,
        spec=spec,
        sweep_axes=tuple(axes),
        reproduce_target=target,
        out_path=out_path,
        out_format=out_format,
        options=options,
    )


def load_config(path: str | Path, overrides: dict | None = None) -> ScenarioConfig:
    """Parse and validate a configuration file.

    ``overrides`` replaces top-level keys of the file (the command line sets
    ``task`` and ``reproduce`` this way).
    """
    import yaml  # only a file needs the parser; see "Import cost" in docs/conventions.md

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}") from exc
    if overrides:
        raw = {**_require_mapping(raw, str(path)), **overrides}
    return build_config(raw, source=str(path))


def config_for_target(target: str, overrides: dict | None = None) -> ScenarioConfig:
    """Resolved reproduce configuration for a target, with optional overrides."""
    raw = {"schema": SCHEMA_TAG, "task": "reproduce", "reproduce": target}
    if overrides:
        raw.update(overrides)
    return build_config(raw, source=f"<target {target}>")

