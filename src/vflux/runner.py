"""Scenario execution: grids, rows, deterministic CSV/JSON emission.

Every row carries the fully resolved system parameters; numeric cells have
17 significant digits, so a value round-trips and reruns are byte-identical
(column order per task in ``docs/csv_schema.md``).  A physics error of one
grid point fills that row's ``error`` column and the run continues.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .analysis import (
    amplification,
    default_deltaT_grid,
    default_tM_grid,
    max_amplification,
    max_rectification_columns,
    rectification,
)
from .config import ScenarioConfig
from .errors import BranchError, DegenerateSteadyStateError, UsageError, VfluxError
from .fcs import (_eliminate, _newton, _recursion, _residues, _sandwich_rates,
                  cumulants_finite_difference, cumulants_perturbative)
from .liouvillian import _entries, build_generator
from .model import (ENERGY, PARTICLE, SPEC_FIELDS as SPEC_COLUMNS, SystemSpec,
                    distinct_texts, evaluate_valid, interference_bound, spec_hashes)
from .steady import (POSITIVITY_TOL, _error_text, _residual, _solve, steady_state,
                     steady_state_resonant_two_bath, steady_state_three_terminal,
                     steady_state_time_integration)
from .transport import _report_warnings, bath_currents


def _rows(fields, cells, evaluate, batch: int | None = None, *, columns) -> dict:
    """The table (column -> cells) of the points with the SystemSpec field
    columns ``fields`` and item cell columns ``cells``, ``batch`` points
    (default: all) at a time in the calling thread (``docs/conventions.md``).
    ``evaluate(fields, cells, results)`` maps a batch to one list per
    result column and ``{index: VfluxError}``; an error fills its row's
    ``error`` cell, and its result cells are None."""
    size = len(fields["eps1"])
    results = [name for name in columns if name not in cells]
    table: dict = {name: [] for name in results}
    text = [None] * size
    step = batch or max(size, 1)
    for start in range(0, size, step):
        part = slice(start, start + step)
        out, errors = evaluate({name: values[part] for name, values in fields.items()},
                               {name: values[part] for name, values in cells.items()}, results)
        for name in results:
            table[name] += out.get(name) or [None] * len(text[part])
        for n, exc in errors.items():
            text[start + n] = f"{type(exc).__name__}: {exc}"
            for name in results:
                table[name][start + n] = None
    return {"spec_hash": spec_hashes(fields), **fields, **cells, **table, "error": text}


def _each(*fns):
    """Per-point evaluator (see :func:`_rows`): point ``n`` gets
    ``fns[n % len(fns)](spec, **cells)`` with its own SystemSpec and item
    cells; a :class:`VfluxError` it raises is that point's outcome."""
    def evaluate(fields, cells, columns):
        # the fields come in SystemSpec order
        points = zip(*(np.asarray(column).tolist() for column in (*fields.values(),
                                                                  *cells.values())))
        out = {name: [None] * len(fields["eps1"]) for name in columns}
        errors = {}
        for n, values in enumerate(points):
            try:
                result = fns[n % len(fns)](SystemSpec(*values[:len(fields)]),
                                           **dict(zip(cells, values[len(fields):])))
            except VfluxError as exc:
                errors[n] = exc
                continue
            for name in out.keys() & result.keys():
                out[name][n] = result[name]
        return out, errors
    return evaluate


def _stacked(include_noise: bool):
    """Batched evaluator (see :func:`_rows`) of the state, current and noise
    cells, read as arrays from one stack's kernel, currents, recursion (with
    ``include_noise``, else ``SeRR`` is NaN) and Newton core (where
    ``SeRR_fd`` is filled); see ``docs/conventions.md``, "Batched grid
    evaluation".  As one point's Python floats, a stack overflows silently."""
    def evaluate(fields, cells, columns):
        with np.errstate(over="ignore", invalid="ignore"):
            return evaluate_valid(fields, lambda rates: _stack_cells(rates, include_noise, columns))
    return evaluate


def _kernel_vectors(re, delta):
    """The kernel vectors of a stack's entries ``re`` and ``delta`` as ``(5, N)``
    columns with the bits of :func:`vflux.steady.steady_state`'s, and the
    error it raises at each point without one."""
    pop, (x, y), ratio, isolated, usable, t = _solve(re, delta)
    v = np.array([*pop, x, x], dtype=complex)
    v.imag[3], v.imag[4] = y, -y
    errors = {n: DegenerateSteadyStateError(_error_text(ratio[n], isolated[n]))
              for n in np.flatnonzero(~usable).tolist()}
    # numpy divides by the trace as by the complex t + 0j, as steady_state does
    return v / t, errors


def _stack_cells(rates, include_noise: bool, columns) -> tuple[dict, dict]:
    """The cells of :func:`_stacked` in ``columns``, and the kernel's error,
    else the :class:`BranchError` (only where ``SeRR_fd`` is filled), by
    point."""
    re, delta = _entries(rates)
    v, errors = _kernel_vectors(re, delta)
    je = bath_currents(rates, v, ENERGY)
    jp = bath_currents(rates, v, PARTICLE)
    res_e, res_p = np.abs(je[0] + je[1] + je[2]), np.abs(jp[0] + jp[1])
    # np.abs of a complex array differs from one point's abs in the last bit
    arrays = {"rho11": v[0].real, "rho22": v[1].real, "rhogg": v[2].real,
              "abs_rho12": np.hypot(v[3].real, v[3].imag),
              "re_rho12": v[3].real, "im_rho12": v[3].imag,
              "JeL": je[0], "JeR": je[1], "JeM": je[2], "JpL": jp[0], "JpR": jp[1], "JpM": jp[2],
              "SeRR": np.full(v.shape[1], math.nan), "res_energy": res_e, "res_particle": res_p}
    if "residual" in columns:
        arrays["residual"] = _residual(re, delta, v.real, v.imag)
    if include_noise or "SeRR_fd" in columns:
        h = _sandwich_rates(rates, "R", ENERGY, (1, 2))
    if include_noise:
        factors = _eliminate(rates, v.T)
        raw, _, _ = _recursion(factors, h, ((), (factors[-1],), ()), 2)
        _residues(raw, errors)
        arrays["SeRR"] = raw[1].real
    if "SeRR_fd" in columns:
        fd, branch_errors = _newton(rates, h)
        arrays["SeRR_fd"] = fd[1]
        for (n,), text in branch_errors.items():
            errors.setdefault(n, BranchError(text))
    cells = {name: arrays[name].tolist() for name in columns if name in arrays}
    if "warnings" in columns:
        positivity = v[:3].real.min(axis=0) < POSITIVITY_TOL
        cells["warnings"] = [";".join(_report_warnings(*flags)) for flags in zip(
            res_e.tolist(), res_p.tolist(), positivity.tolist())]
    return cells, errors


def _state_cells(ss) -> dict:
    return {
        "method": ss.method,
        "rho11": ss.rho11, "rho22": ss.rho22, "rhogg": ss.rhogg,
        "abs_rho12": ss.coherence_magnitude,
        "re_rho12": ss.rho12.real, "im_rho12": ss.rho12.imag,
        "residual": ss.residual,
        "positivity_warning": ss.positivity_warning,
    }


_CURRENT_COLUMNS = ("JeL", "JeR", "JeM", "JpL", "JpR", "JpM", "SeRR",
                    "res_energy", "res_particle", "warnings")


def _points(spec: SystemSpec, size: int, **varied) -> dict:
    """Field columns of ``size`` points: each field of ``varied`` takes its
    column of values, every other field the value of ``spec``."""
    return {name: np.asarray(varied[name], dtype=float) if name in varied
            else np.full(size, getattr(spec, name), dtype=float) for name in SPEC_COLUMNS}


def _product(*axes):
    """Each axis's column over the points of the product of ``axes``,
    row-major (the first axis outermost)."""
    return [values.ravel() for values in np.meshgrid(*axes, indexing="ij")]


def _coupling_fields(spec: SystemSpec, points: int) -> dict:
    """(gL12, gR12) grid from zero to each bath's interference bound, gL12 outer."""
    gl, gr = _product(np.linspace(0.0, interference_bound(spec.gL11, spec.gL22), points),
                      np.linspace(0.0, interference_bound(spec.gR11, spec.gR22), points))
    return _points(spec, points * points, gL12=gl, gR12=gr)


# ---------------------------------------------------------------------------
# Tasks and reproduction targets.  Each plan maps a config to the arguments
# of _rows: the field columns, the item cell columns, their evaluator and,
# for a grid evaluated in parts, the batch size.

def _steady(config: ScenarioConfig):
    spec = config.spec
    solvers = [lambda s: _state_cells(steady_state(build_generator(s)))]
    if spec.eps1 == spec.eps2 and spec.gM == 0.0:
        solvers.append(lambda s: _state_cells(steady_state_resonant_two_bath(s)))
    elif spec.gL12 == 0.0 and spec.gR12 == 0.0:
        solvers.append(lambda s: _state_cells(steady_state_three_terminal(s)))
    solvers.append(lambda s: _state_cells(steady_state_time_integration(build_generator(s))))
    return _points(spec, len(solvers)), {}, _each(*solvers)


def _currents(config: ScenarioConfig):
    return _points(config.spec, 1), {}, _stacked(include_noise=True)


def _cumulants(config: ScenarioConfig):
    order = config.option("cumulants.order", 2)

    def cells(cs) -> dict:
        return {"method": cs.method, "imag_residue": cs.imag_residue,
                **{f"E{pos}": value for pos, value in enumerate(cs.values, start=1)}}

    methods = (
        lambda s, bath, kind: cells(cumulants_perturbative(s, bath, kind, order)),
        lambda s, bath, kind: cells(cumulants_finite_difference(s, bath, kind, order)),
    )
    point = {"bath": [config.option("cumulants.bath", "R")] * 2,
             "kind": [config.option("cumulants.kind", ENERGY)] * 2}
    return _points(config.spec, 2), point, _each(*methods)


def _rectify(config: ScenarioConfig):
    t0 = config.option("rectify.t0", 1.0)

    def cells(spec, t0, deltaT):
        res = rectification(spec, t0, deltaT)
        return {"j_forward": res.j_forward, "j_backward": res.j_backward, "rj": res.rj}

    grid = np.asarray(config.option("rectify.deltaT", default_deltaT_grid(t0)), dtype=float)
    return (_points(config.spec, len(grid)), {"t0": np.full(len(grid), t0), "deltaT": grid},
            _each(cells))


def _amplify(config: ScenarioConfig):
    def cells(spec, tM):
        res = amplification(spec, tM)
        return {"betaL": res.betaL, "betaR": res.betaR,
                "dJeL_dTM": res.dJdTm[0], "dJeR_dTM": res.dJdTm[1], "dJeM_dTM": res.dJdTm[2],
                "branch_theta": res.branch_theta, "branch_residual": res.branch_residual}

    grid = np.asarray(config.option("amplify.tM", default_tM_grid()), dtype=float)
    return _points(config.spec, len(grid), tempM=grid), {"tM": grid}, _each(cells)


def _sweep(config: ScenarioConfig):
    axes = config.sweep_axes
    if not 1 <= len(axes) <= 2:
        raise UsageError("sweep needs 1 or 2 axes")
    # row-major (the first axis outermost); a batch is one value of the first
    # of two axes, or the whole of one
    columns = _product(*(values for _, values in axes))
    fields = _points(config.spec, len(columns[0]),
                     **{name: values for (name, _), values in zip(axes, columns)})
    return fields, {}, _stacked(include_noise=True), len(axes[-1][1])


def _coupling_grid(config: ScenarioConfig, include_noise: bool = False):
    return _coupling_fields(config.spec, 41), {}, _stacked(include_noise)


def _fig2b(config: ScenarioConfig):
    tr, dt = _product(np.linspace(0.1, 2.0, 39), np.linspace(0.0, 1.5, 31))
    return _points(config.spec, len(tr), tempR=tr, tempL=tr + dt), {"deltaT": dt}, _stacked(False)


def _fig21b(config: ScenarioConfig):
    return _coupling_grid(config, include_noise=True)


def _fig3(config: ScenarioConfig):
    t0 = config.option("rectify.t0", 1.0)

    def evaluate(fields, cells, columns):
        outcomes = max_rectification_columns(fields, t0)
        errors = {n: out for n, out in enumerate(outcomes) if isinstance(out, VfluxError)}
        best = [(None, None) if n in errors else out for n, out in enumerate(outcomes)]
        return dict(zip(("rj_max", "deltaT_star"), map(list, zip(*best)))), errors

    # one batch: a spec's L<->R mirror sits in another grid row, and the
    # scan bounds its stacks itself
    return _coupling_fields(config.spec, 51), {"t0": np.full(51 * 51, t0)}, evaluate


def _middle_temperatures(config: ScenarioConfig) -> dict:
    return _points(config.spec, 39, tempM=np.linspace(0.1, 2.0, 39))


def _fig4b(config: ScenarioConfig):
    return _middle_temperatures(config), {}, _stacked(include_noise=True)


def _fig5a(config: ScenarioConfig):
    g = np.linspace(0.0, 0.01, 21)
    return (_points(config.spec, len(g), gL22=g, gR11=g), {"gamma": g},
            _each(lambda s, gamma: {"betaR_max": max_amplification(s)}))


def _fig5b(config: ScenarioConfig):
    return _middle_temperatures(config), {}, _stacked(include_noise=False)


_STATE_COLUMNS = ("rho11", "rho22", "rhogg", "re_rho12", "im_rho12", "residual")
_COHERENCE_COLUMNS = ("abs_rho12", "re_rho12", "im_rho12", "residual")

#: Every task and reproduce target: its result columns, between the spec
#: block and ``error``, and its plan.
_TABLE = {
    "steady": (("method", *_STATE_COLUMNS, "positivity_warning"), _steady),
    "currents": (_CURRENT_COLUMNS, _currents),
    "cumulants": (("bath", "kind", "method", "E1", "E2", "E3", "E4", "imag_residue"), _cumulants),
    "rectify": (("t0", "deltaT", "j_forward", "j_backward", "rj"), _rectify),
    "amplify": (("tM", "betaL", "betaR", "dJeL_dTM", "dJeR_dTM", "dJeM_dTM",
                 "branch_theta", "branch_residual"), _amplify),
    "sweep": ((*_STATE_COLUMNS, *_CURRENT_COLUMNS), _sweep),
    "fig2a": (_COHERENCE_COLUMNS, _coupling_grid),
    "fig2b": (("deltaT", *_COHERENCE_COLUMNS), _fig2b),
    "fig21a": (_CURRENT_COLUMNS, _coupling_grid),
    "fig21b": (("SeRR", "SeRR_fd"), _fig21b),
    "fig3": (("t0", "rj_max", "deltaT_star"), _fig3),
    "fig4b": (("JeR", "SeRR", "SeRR_fd"), _fig4b),
    "fig5a": (("gamma", "betaR_max"), _fig5a),
    "fig5b": (("JeL", "JeR", "JeM"), _fig5b),
}


def compute_rows(config: ScenarioConfig):
    """Evaluate a scenario; returns ``(columns, table)``, the table mapping
    each column to its cells (see :func:`_rows`)."""
    name = config.reproduce_target if config.task == "reproduce" else config.task
    if name not in _TABLE:
        raise UsageError(f"unknown task or reproduce target {name!r}")
    columns, plan = _TABLE[name]
    return ("spec_hash", *SPEC_COLUMNS, *columns, "error"), _rows(*plan(config), columns=columns)


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


def render_csv(columns, table) -> str:
    """CSV text of ``table`` (column -> cells), one :func:`format_cell` per
    cell, written column by column so that a column formats each distinct
    ``float`` once.  A cell holding a comma, a quote or a line break is
    quoted (RFC 4180)."""
    cells = [_column_cells(table[col]) for col in columns]
    return "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"


def _column_cells(values) -> list[str]:
    """:func:`format_cell` of each cell as a CSV field.  A float array
    formats each distinct value once (:func:`vflux.model.distinct_texts`);
    a list memoizes its ``float`` cells (by value, zeros by sign, and a NaN
    only by identity: it equals nothing), which never need quoting, and a
    ``str`` is its own text."""
    if isinstance(values, np.ndarray):
        return distinct_texts(values, "{:.16e}".format)
    texts: dict = {}
    out = []
    for value in values:
        kind = type(value)
        if kind is float:
            key = value if value else value.hex()  # 0.0 == -0.0
            text = texts.get(key)
            if text is None:
                text = texts[key] = format(value, ".16e")
        elif kind is str:
            text = _field(value)
        elif value is None:
            text = ""
        else:
            text = _field(format_cell(value))
        out.append(text)
    return out


def _field(text: str) -> str:
    """``text`` as one CSV field: quoted, its quotes doubled, when it holds
    a comma, a quote or a line break (RFC 4180 minimal quoting)."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_value(value):
    """A cell as a JSON value: numpy scalars as Python numbers, and a float
    that is not finite as ``None`` (``null``; RFC 8259 has no NaN)."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    return value


def render_json(columns, table) -> str:
    """JSON text of ``table`` (column -> cells): one object per row."""
    cells = [map(_json_value, table[col]) for col in columns]
    payload = [dict(zip(columns, row)) for row in zip(*cells)]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def run(config: ScenarioConfig, out_path: str | Path | None = None) -> tuple[Path | None, str]:
    """Execute a scenario and write its output file.

    Returns ``(path, text)``; ``path`` is None when no output path is
    configured, in which case the caller renders ``text`` to stdout.
    """
    columns, table = compute_rows(config)
    text = (render_json(columns, table) if config.out_format == "json"
            else render_csv(columns, table))
    target = out_path or config.out_path
    if target is None:
        return None, text
    path = Path(target)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")
    return path, text
