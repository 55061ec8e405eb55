"""Scenario execution: grids, rows, deterministic CSV/JSON emission.

Every output row carries the fully resolved system parameters.  Numeric
cells are formatted with 17 significant digits in scientific notation so a
written value round-trips exactly; repeated runs of the same configuration
produce byte-identical files (column order is fixed per task and versioned
in ``docs/csv_schema.md``).

Physics errors raised while evaluating a single grid point are recorded in
that row's ``error`` column and the run continues.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .analysis import (
    amplification,
    default_deltaT_grid,
    default_tM_grid,
    max_amplification,
    max_rectification_batch,
    rectification,
)
from .config import ScenarioConfig, interference_bound_of
from .errors import UsageError, VfluxError
from .fcs import cumulants_finite_difference, cumulants_perturbative
from .liouvillian import build_generator
from .model import ENERGY, SystemSpec
from .steady import (
    steady_state,
    steady_state_resonant_two_bath,
    steady_state_three_terminal,
    steady_state_time_integration,
)
from .transport import CurrentReport, current_reports_batch, heat_currents

SPEC_COLUMNS = tuple(f.name for f in fields(SystemSpec))


def _spec_cells(spec: SystemSpec) -> dict:
    cells = {"spec_hash": spec.content_hash()}
    for name in SPEC_COLUMNS:
        cells[name] = getattr(spec, name)
    return cells


def _error_cells(exc: VfluxError) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _guarded(fn, point):
    try:
        return fn(point)
    except VfluxError as exc:
        return _error_cells(exc)


def _batched_rows(items, batch: int, evaluate) -> list[dict]:
    """Rows of ``(spec, cells)`` items, evaluated ``batch`` specs at a time.

    ``evaluate`` maps a list of specs to one dict of result cells or one
    :class:`VfluxError` per spec; an error fills that row's ``error`` cell.
    A batch is one grid row, so memory does not grow with the grid.
    """
    rows = []
    for start in range(0, len(items), batch):
        chunk = items[start:start + batch]
        for (spec, cells), out in zip(chunk, evaluate([spec for spec, _ in chunk])):
            row = _spec_cells(spec)
            row.update(cells)
            row.update(_error_cells(out) if isinstance(out, VfluxError) else out)
            rows.append(row)
    return rows


def _state_cells(ss) -> dict:
    return {
        "rho11": ss.rho11, "rho22": ss.rho22, "rhogg": ss.rhogg,
        "abs_rho12": ss.coherence_magnitude,
        "re_rho12": ss.rho12.real, "im_rho12": ss.rho12.imag,
        "residual": ss.residual,
    }


def _steady_evaluator(include_noise: bool):
    """Evaluator of steady-state and current cells (see _batched_rows)."""
    def evaluate(specs):
        return [out if isinstance(out, VfluxError)
                else {**_state_cells(out[0]), **_current_cells(out[1])}
                for out in current_reports_batch(specs, include_noise)]
    return evaluate


# ---------------------------------------------------------------------------
# Task implementations.  Each returns (columns, rows).

def _steady_rows(config: ScenarioConfig):
    spec = config.spec
    columns = ("spec_hash", *SPEC_COLUMNS, "method", "rho11", "rho22", "rhogg",
               "re_rho12", "im_rho12", "residual", "positivity_warning", "error")
    solvers = [lambda: steady_state(build_generator(spec))]
    if spec.eps1 == spec.eps2 and spec.gM == 0.0:
        solvers.append(lambda: steady_state_resonant_two_bath(spec))
    elif spec.gL12 == 0.0 and spec.gR12 == 0.0:
        solvers.append(lambda: steady_state_three_terminal(spec))
    solvers.append(lambda: steady_state_time_integration(build_generator(spec)))

    rows = []
    for solve in solvers:
        row = _spec_cells(spec)
        try:
            ss = solve()
            row.update(
                method=ss.method,
                rho11=ss.rho11, rho22=ss.rho22, rhogg=ss.rhogg,
                re_rho12=ss.rho12.real, im_rho12=ss.rho12.imag,
                residual=ss.residual,
                positivity_warning=ss.positivity_warning,
            )
        except VfluxError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return columns, rows


_CURRENT_COLUMNS = ("JeL", "JeR", "JeM", "JpL", "JpR", "JpM", "SeRR",
                    "res_energy", "res_particle", "warnings")


def _current_cells(report: CurrentReport) -> dict:
    return {
        "JeL": report.JeL, "JeR": report.JeR, "JeM": report.JeM,
        "JpL": report.JpL, "JpR": report.JpR, "JpM": report.JpM,
        "SeRR": report.SeRR,
        "res_energy": report.conservation_residual_energy,
        "res_particle": report.conservation_residual_particle,
        "warnings": ";".join(report.warnings),
    }


def _currents_rows(config: ScenarioConfig):
    spec = config.spec
    columns = ("spec_hash", *SPEC_COLUMNS, *_CURRENT_COLUMNS, "error")

    def compute(_):
        return _current_cells(CurrentReport.from_spec(spec))

    row = _spec_cells(spec)
    row.update(_guarded(compute, None))
    return columns, [row]


def _cumulants_rows(config: ScenarioConfig):
    spec = config.spec
    bath = config.option("cumulants.bath", "R")
    kind = config.option("cumulants.kind", ENERGY)
    order = int(config.option("cumulants.order", 2))
    columns = ("spec_hash", *SPEC_COLUMNS, "bath", "kind", "method",
               "E1", "E2", "E3", "E4", "imag_residue", "error")

    rows = []
    for method_fn in (
        lambda: cumulants_perturbative(spec, bath, kind, order),
        lambda: cumulants_finite_difference(spec, bath, kind, min(order, 2)),
    ):
        row = _spec_cells(spec)
        row.update(bath=bath, kind=kind)
        try:
            cs = method_fn()
            row["method"] = cs.method
            for pos, value in enumerate(cs.values, start=1):
                row[f"E{pos}"] = value
            row["imag_residue"] = cs.imag_residue
        except VfluxError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return columns, rows


def _rectify_rows(config: ScenarioConfig):
    spec = config.spec
    t0 = float(config.option("rectify.t0", 1.0))
    grid_node = config.option("rectify.deltaT")
    if grid_node is None:
        grid = default_deltaT_grid(t0)
    elif isinstance(grid_node, (int, float)):
        grid = np.array([float(grid_node)])
    else:
        grid = np.linspace(float(grid_node["min"]), float(grid_node["max"]),
                           int(grid_node["steps"]))
    columns = ("spec_hash", *SPEC_COLUMNS, "t0", "deltaT",
               "j_forward", "j_backward", "rj", "error")

    def one(delta_t: float) -> dict:
        row = _spec_cells(spec)
        row.update(t0=t0, deltaT=delta_t)
        row.update(_guarded(lambda dt: {
            "j_forward": (res := rectification(spec, t0, dt)).j_forward,
            "j_backward": res.j_backward,
            "rj": res.rj,
        }, delta_t))
        return row

    return columns, [one(float(dt)) for dt in grid]


def _amplify_rows(config: ScenarioConfig):
    spec = config.spec
    grid_node = config.option("amplify.tM")
    if grid_node is None:
        grid = default_tM_grid()
    elif isinstance(grid_node, (int, float)):
        grid = np.array([float(grid_node)])
    else:
        grid = np.linspace(float(grid_node["min"]), float(grid_node["max"]),
                           int(grid_node["steps"]))
    h_option = config.option("amplify.h")
    columns = ("spec_hash", *SPEC_COLUMNS, "tM", "h", "betaL", "betaR",
               "dJeL_dTM", "dJeR_dTM", "dJeM_dTM", "branch_theta",
               "branch_residual", "error")

    def one(tm: float) -> dict:
        row = _spec_cells(replace(spec, tempM=tm))
        row["tM"] = tm
        row.update(_guarded(lambda t: {
            "h": (res := amplification(replace(spec, tempM=t), t,
                                       None if h_option is None else float(h_option))).stencil_h,
            "betaL": res.betaL,
            "betaR": res.betaR,
            "dJeL_dTM": res.dJdTm[0],
            "dJeR_dTM": res.dJdTm[1],
            "dJeM_dTM": res.dJdTm[2],
            "branch_theta": res.branch_theta,
            "branch_residual": res.branch_residual,
        }, tm))
        return row

    return columns, [one(float(tm)) for tm in grid]


def _sweep_rows(config: ScenarioConfig):
    if not 1 <= len(config.sweep_axes) <= 2:
        raise UsageError("sweep needs 1 or 2 axes")
    axes = config.sweep_axes
    values = [axis.values() for axis in axes]
    points = [(v,) for v in values[0]]
    if len(axes) == 2:
        points = [(a, b) for a in values[0] for b in values[1]]
    columns = ("spec_hash", *SPEC_COLUMNS, "rho11", "rho22", "rhogg",
               "re_rho12", "im_rho12", "residual", *_CURRENT_COLUMNS, "error")
    items = [(replace(config.spec, **{axis.field: float(v) for axis, v in zip(axes, point)}), {})
             for point in points]
    return columns, _batched_rows(items, len(values[-1]), _steady_evaluator(include_noise=True))


# ---------------------------------------------------------------------------
# Reproduction targets.

def _coupling_specs(spec: SystemSpec, points: int) -> list[SystemSpec]:
    """(gL12, gR12) grid from zero to each bath's interference bound, gL12 outer."""
    bound_l = interference_bound_of({"gL11": spec.gL11, "gL22": spec.gL22}, "L")
    bound_r = interference_bound_of({"gR11": spec.gR11, "gR22": spec.gR22}, "R")
    return [replace(spec, gL12=float(gl), gR12=float(gr))
            for gl in np.linspace(0.0, bound_l, points)
            for gr in np.linspace(0.0, bound_r, points)]


def _fig2a_rows(config: ScenarioConfig):
    spec = config.spec
    columns = ("spec_hash", *SPEC_COLUMNS, "abs_rho12", "re_rho12", "im_rho12",
               "residual", "error")
    items = [(local, {}) for local in _coupling_specs(spec, 41)]
    return columns, _batched_rows(items, 41, _steady_evaluator(include_noise=False))


def _fig2b_rows(config: ScenarioConfig):
    spec = config.spec
    temps_r = np.linspace(0.1, 2.0, 39)
    deltas = np.linspace(0.0, 1.5, 31)
    columns = ("spec_hash", *SPEC_COLUMNS, "deltaT", "abs_rho12", "re_rho12",
               "im_rho12", "residual", "error")
    items = [(replace(spec, tempR=float(tr), tempL=float(tr + dt)), {"deltaT": float(dt)})
             for tr in temps_r for dt in deltas]
    return columns, _batched_rows(items, len(deltas), _steady_evaluator(include_noise=False))


def _fig21a_rows(config: ScenarioConfig):
    spec = config.spec
    columns = ("spec_hash", *SPEC_COLUMNS, *_CURRENT_COLUMNS, "error")
    items = [(local, {}) for local in _coupling_specs(spec, 41)]
    return columns, _batched_rows(items, 41, _steady_evaluator(include_noise=False))


def _fig21b_rows(config: ScenarioConfig):
    spec = config.spec
    columns = ("spec_hash", *SPEC_COLUMNS, "SeRR", "SeRR_fd", "error")

    def one(local: SystemSpec) -> dict:
        row = _spec_cells(local)
        row.update(_guarded(lambda _: {
            "SeRR": cumulants_perturbative(local, "R", ENERGY, 2).noise_power,
            "SeRR_fd": cumulants_finite_difference(local, "R", ENERGY, 2).noise_power,
        }, None))
        return row

    return columns, [one(local) for local in _coupling_specs(spec, 41)]


def _fig3_rows(config: ScenarioConfig):
    spec = config.spec
    t0 = float(config.option("rectify.t0", 1.0))
    delta_grid = default_deltaT_grid(t0)
    columns = ("spec_hash", *SPEC_COLUMNS, "t0", "rj_max", "deltaT_star", "error")

    def evaluate(specs):
        return [out if isinstance(out, VfluxError)
                else {"rj_max": out[0], "deltaT_star": out[1]}
                for out in max_rectification_batch(specs, t0, delta_grid)]

    items = [(local, {"t0": t0}) for local in _coupling_specs(spec, 51)]
    return columns, _batched_rows(items, 51, evaluate)


def _fig4b_rows(config: ScenarioConfig):
    spec = config.spec
    temps_m = np.linspace(0.1, 2.0, 39)
    columns = ("spec_hash", *SPEC_COLUMNS, "JeR", "SeRR", "SeRR_fd", "error")

    def one(tm: float) -> dict:
        local = replace(spec, tempM=float(tm))
        row = _spec_cells(local)
        row.update(_guarded(lambda _: {
            "JeR": heat_currents(local)[1],
            "SeRR": cumulants_perturbative(local, "R", ENERGY, 2).noise_power,
            "SeRR_fd": cumulants_finite_difference(local, "R", ENERGY, 2).noise_power,
        }, None))
        return row

    return columns, [one(float(tm)) for tm in temps_m]


def _fig5a_rows(config: ScenarioConfig):
    spec = config.spec
    gammas = np.linspace(0.0, 0.01, 21)
    tm_grid = default_tM_grid()
    columns = ("spec_hash", *SPEC_COLUMNS, "gamma", "betaR_max", "error")

    def one(gamma: float) -> dict:
        local = replace(spec, gL22=float(gamma), gR11=float(gamma))
        row = _spec_cells(local)
        row["gamma"] = float(gamma)
        row.update(_guarded(lambda _: {
            "betaR_max": max_amplification(local, tm_grid),
        }, None))
        return row

    return columns, [one(float(g)) for g in gammas]


def _fig5b_rows(config: ScenarioConfig):
    spec = config.spec
    temps_m = np.linspace(0.1, 2.0, 39)
    columns = ("spec_hash", *SPEC_COLUMNS, "JeL", "JeR", "JeM", "error")

    def one(tm: float) -> dict:
        local = replace(spec, tempM=float(tm))
        row = _spec_cells(local)
        row.update(_guarded(lambda _: {
            "JeL": (je := heat_currents(local))[0],
            "JeR": je[1],
            "JeM": je[2],
        }, None))
        return row

    return columns, [one(float(tm)) for tm in temps_m]


_REPRODUCE = {
    "fig2a": _fig2a_rows,
    "fig2b": _fig2b_rows,
    "fig21a": _fig21a_rows,
    "fig21b": _fig21b_rows,
    "fig3": _fig3_rows,
    "fig4b": _fig4b_rows,
    "fig5a": _fig5a_rows,
    "fig5b": _fig5b_rows,
}

_TASKS = {
    "steady": _steady_rows,
    "currents": _currents_rows,
    "cumulants": _cumulants_rows,
    "rectify": _rectify_rows,
    "amplify": _amplify_rows,
    "sweep": _sweep_rows,
}


def compute_rows(config: ScenarioConfig):
    """Evaluate a scenario; returns (columns, rows)."""
    if config.task == "reproduce":
        if config.reproduce_target not in _REPRODUCE:
            raise UsageError(f"unknown reproduce target {config.reproduce_target!r}")
        return _REPRODUCE[config.reproduce_target](config)
    if config.task not in _TASKS:
        raise UsageError(f"unknown task {config.task!r}")
    return _TASKS[config.task](config)


# ---------------------------------------------------------------------------
# Emission.

def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".16e")
    return str(value)


def render_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_cell(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


def render_json(columns, rows) -> str:
    payload = []
    for row in rows:
        cell = {}
        for col in columns:
            value = row.get(col)
            if isinstance(value, (np.integer,)):
                value = int(value)
            elif isinstance(value, (np.floating,)):
                value = float(value)
            cell[col] = value
        payload.append(cell)
    return json.dumps(payload, indent=2) + "\n"


def run(config: ScenarioConfig, out_path: str | Path | None = None) -> tuple[Path | None, str]:
    """Execute a scenario and write its output file.

    Returns ``(path, text)``; ``path`` is None when no output path is
    configured, in which case the caller renders ``text`` to stdout.
    """
    columns, rows = compute_rows(config)
    text = render_json(columns, rows) if config.out_format == "json" else render_csv(columns, rows)
    target = out_path or config.out_path
    if target is None:
        return None, text
    path = Path(target)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")
    return path, text
