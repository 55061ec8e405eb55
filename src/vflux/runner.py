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
import math
from dataclasses import replace
from itertools import product
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
from .config import ScenarioConfig
from .errors import BranchError, DegenerateSteadyStateError, UsageError, VfluxError
from .fcs import (FD_STEP, _differences, _recursion, _residues, cumulants_finite_difference,
                  cumulants_perturbative)
from .liouvillian import _fill_block, build_generator
from .model import (ENERGY, SPEC_FIELDS as SPEC_COLUMNS, SystemSpec, evaluate_valid,
                    interference_bound, spec_hashes)
from .steady import (
    steady_state,
    steady_state_batch,
    steady_state_resonant_two_bath,
    steady_state_three_terminal,
    steady_state_time_integration,
)
from .transport import CurrentReport, _reports_batch, bath_currents, heat_currents


def _rows(items, evaluate, batch: int = 1) -> list[dict]:
    """Rows of ``(spec, cells)`` items, evaluated ``batch`` items at a time
    in the calling thread (a thread pool gained nothing; see
    ``docs/conventions.md``).  ``evaluate`` maps a list of items to one dict
    of result cells or one :class:`VfluxError` per item; an error fills that
    row's ``error`` cell."""
    rows = []
    for start in range(0, len(items), batch):
        chunk = items[start:start + batch]
        hashes = spec_hashes([spec for spec, _ in chunk])
        for (spec, cells), out, spec_hash in zip(chunk, evaluate(chunk), hashes):
            row = {"spec_hash": spec_hash, **vars(spec), **cells}
            row.update({"error": f"{type(out).__name__}: {out}"}
                       if isinstance(out, VfluxError) else out)
            rows.append(row)
    return rows


def _each(*fns):
    """Per-point evaluator (see :func:`_rows`).

    Item ``n`` of a batch gets ``fns[n](spec, **cells)``, so one function
    serves batches of one; a :class:`VfluxError` it raises is that item's
    outcome.
    """
    def evaluate(chunk):
        outcomes = []
        for fn, (spec, cells) in zip(fns, chunk, strict=True):
            try:
                outcomes.append(fn(spec, **cells))
            except VfluxError as exc:
                outcomes.append(exc)
        return outcomes
    return evaluate


def _steady_evaluator(include_noise: bool):
    """Batched evaluator of steady-state and current cells (see :func:`_rows`)."""
    def evaluate(chunk):
        return [out if isinstance(out, VfluxError)
                else {**_state_cells(out[0]), **_current_cells(out[1])}
                for out in evaluate_valid([spec for spec, _ in chunk],
                                          lambda rates: _reports_batch(rates, include_noise))]
    return evaluate


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


def _current_cells(report: CurrentReport) -> dict:
    return {
        "JeL": report.JeL, "JeR": report.JeR, "JeM": report.JeM,
        "JpL": report.JpL, "JpR": report.JpR, "JpM": report.JpM,
        "SeRR": report.SeRR,
        "res_energy": report.conservation_residual_energy,
        "res_particle": report.conservation_residual_particle,
        "warnings": ";".join(report.warnings),
    }


def _coupling_specs(spec: SystemSpec, points: int) -> list[SystemSpec]:
    """(gL12, gR12) grid from zero to each bath's interference bound, gL12 outer."""
    return [SystemSpec(**{**vars(spec), "gL12": gl, "gR12": gr})
            for gl in np.linspace(0.0, interference_bound(spec.gL11, spec.gL22), points).tolist()
            for gr in np.linspace(0.0, interference_bound(spec.gR11, spec.gR22), points).tolist()]


# ---------------------------------------------------------------------------
# Tasks and reproduction targets.  Each plan maps a config to the arguments
# of _rows: the (spec, cells) items, their evaluator and, for a batched
# grid, the batch size.

def _steady(config: ScenarioConfig):
    spec = config.spec
    solvers = [lambda s: _state_cells(steady_state(build_generator(s)))]
    if spec.eps1 == spec.eps2 and spec.gM == 0.0:
        solvers.append(lambda s: _state_cells(steady_state_resonant_two_bath(s)))
    elif spec.gL12 == 0.0 and spec.gR12 == 0.0:
        solvers.append(lambda s: _state_cells(steady_state_three_terminal(s)))
    solvers.append(lambda s: _state_cells(steady_state_time_integration(build_generator(s))))
    return [(spec, {})] * len(solvers), _each(*solvers), len(solvers)


def _currents(config: ScenarioConfig):
    return [(config.spec, {})], _each(lambda s: _current_cells(CurrentReport.from_spec(s)))


def _cumulants(config: ScenarioConfig):
    order = config.option("cumulants.order", 2)

    def cells(cs) -> dict:
        return {"method": cs.method, "imag_residue": cs.imag_residue,
                **{f"E{pos}": value for pos, value in enumerate(cs.values, start=1)}}

    methods = (
        lambda s, bath, kind: cells(cumulants_perturbative(s, bath, kind, order)),
        lambda s, bath, kind: cells(cumulants_finite_difference(s, bath, kind, min(order, 2))),
    )
    point = {"bath": config.option("cumulants.bath", "R"),
             "kind": config.option("cumulants.kind", ENERGY)}
    return [(config.spec, point)] * 2, _each(*methods), 2


def _rectify(config: ScenarioConfig):
    t0 = config.option("rectify.t0", 1.0)

    def cells(spec, t0, deltaT):
        res = rectification(spec, t0, deltaT)
        return {"j_forward": res.j_forward, "j_backward": res.j_backward, "rj": res.rj}

    grid = config.option("rectify.deltaT", default_deltaT_grid(t0))
    return [(config.spec, {"t0": t0, "deltaT": float(dt)}) for dt in grid], _each(cells)


def _amplify(config: ScenarioConfig):
    h = config.option("amplify.h")

    def cells(spec, tM):
        res = amplification(spec, tM, h)
        return {"h": res.stencil_h, "betaL": res.betaL, "betaR": res.betaR,
                "dJeL_dTM": res.dJdTm[0], "dJeR_dTM": res.dJdTm[1], "dJeM_dTM": res.dJdTm[2],
                "branch_theta": res.branch_theta, "branch_residual": res.branch_residual}

    grid = config.option("amplify.tM", default_tM_grid())
    return [(replace(config.spec, tempM=float(tm)), {"tM": float(tm)}) for tm in grid], _each(cells)


def _sweep(config: ScenarioConfig):
    axes = config.sweep_axes
    if not 1 <= len(axes) <= 2:
        raise UsageError("sweep needs 1 or 2 axes")
    # row-major (the first axis outermost); a batch is one value of the first
    # of two axes, or the whole of one
    items = [(replace(config.spec, **{name: float(v) for (name, _), v in zip(axes, point)}), {})
             for point in product(*(values for _, values in axes))]
    return items, _steady_evaluator(include_noise=True), len(axes[-1][1])


def _coupling_grid(config: ScenarioConfig):
    items = [(local, {}) for local in _coupling_specs(config.spec, 41)]
    return items, _steady_evaluator(include_noise=False), len(items)


def _fig2b(config: ScenarioConfig):
    deltas = np.linspace(0.0, 1.5, 31)
    items = [(replace(config.spec, tempR=float(tr), tempL=float(tr + dt)), {"deltaT": float(dt)})
             for tr in np.linspace(0.1, 2.0, 39) for dt in deltas]
    return items, _steady_evaluator(include_noise=False), len(items)


def _noise(chunk):
    """Batched evaluator (see :func:`_rows`) of the right-bath energy current
    and noise power, the noise by recursion, then by finite differences,
    read as arrays from the stacked cores on one stacked :class:`RateSet`:
    the kernel, its currents, the recursion on the same generators and
    kernels, and the stencils.  A point without a kernel reports the
    kernel's error, one with an ambiguous branch the :class:`BranchError`;
    ``fig21b`` lists the two noise columns only."""
    def evaluate(rates):
        states = steady_state_batch(_fill_block(rates))
        kernel_errors = states.errors
        je_r = bath_currents(rates, states.vectors.T, ENERGY)[1]
        raw = _recursion(rates, states.matrices, states.vectors, "R", ENERGY, 2, kernel_errors)
        _residues(raw, kernel_errors)
        fd, branch_errors = _differences(rates, "R", ENERGY, 2, FD_STEP)
        cells = zip(je_r.tolist(), raw[1].real.ravel().tolist(), fd[1].tolist())
        return [DegenerateSteadyStateError(kernel_errors[n]) if n in kernel_errors
                else BranchError(branch_errors[n,]) if (n,) in branch_errors
                else {"JeR": j, "SeRR": se, "SeRR_fd": se_fd}
                for n, (j, se, se_fd) in enumerate(cells)]
    return evaluate_valid([spec for spec, _ in chunk], evaluate)


def _fig21b(config: ScenarioConfig):
    items = [(local, {}) for local in _coupling_specs(config.spec, 41)]
    return items, _noise, len(items)


def _fig3(config: ScenarioConfig):
    t0 = config.option("rectify.t0", 1.0)

    def evaluate(chunk):
        return [out if isinstance(out, VfluxError)
                else {"rj_max": out[0], "deltaT_star": out[1]}
                for out in max_rectification_batch([spec for spec, _ in chunk], t0)]

    # one batch: a spec's L<->R mirror sits in another grid row, and the
    # scan bounds its stacks itself
    items = [(local, {"t0": t0}) for local in _coupling_specs(config.spec, 51)]
    return items, evaluate, len(items)


def _middle_temperatures(config: ScenarioConfig) -> list:
    return [(replace(config.spec, tempM=float(tm)), {}) for tm in np.linspace(0.1, 2.0, 39)]


def _fig4b(config: ScenarioConfig):
    items = _middle_temperatures(config)
    return items, _noise, len(items)


def _fig5a(config: ScenarioConfig):
    items = [(replace(config.spec, gL22=float(g), gR11=float(g)), {"gamma": float(g)})
             for g in np.linspace(0.0, 0.01, 21)]
    return items, _each(lambda s, gamma: {"betaR_max": max_amplification(s)})


def _fig5b(config: ScenarioConfig):
    def cells(spec):
        je = heat_currents(spec)
        return {"JeL": je[0], "JeR": je[1], "JeM": je[2]}

    return _middle_temperatures(config), _each(cells)


_STATE_COLUMNS = ("rho11", "rho22", "rhogg", "re_rho12", "im_rho12", "residual")
_COHERENCE_COLUMNS = ("abs_rho12", "re_rho12", "im_rho12", "residual")

#: Every task and reproduce target: its result columns, between the spec
#: block and ``error``, and its plan.
_TABLE = {
    "steady": (("method", *_STATE_COLUMNS, "positivity_warning"), _steady),
    "currents": (_CURRENT_COLUMNS, _currents),
    "cumulants": (("bath", "kind", "method", "E1", "E2", "E3", "E4", "imag_residue"), _cumulants),
    "rectify": (("t0", "deltaT", "j_forward", "j_backward", "rj"), _rectify),
    "amplify": (("tM", "h", "betaL", "betaR", "dJeL_dTM", "dJeR_dTM", "dJeM_dTM",
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
    """Evaluate a scenario; returns (columns, rows)."""
    name = config.reproduce_target if config.task == "reproduce" else config.task
    if name not in _TABLE:
        raise UsageError(f"unknown task or reproduce target {name!r}")
    columns, plan = _TABLE[name]
    return ("spec_hash", *SPEC_COLUMNS, *columns, "error"), _rows(*plan(config))


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
    """CSV text of ``rows``, one :func:`format_cell` per cell, written column
    by column so that a column formats each distinct ``float`` once.  A cell
    holding a comma, a quote or a line break is quoted (RFC 4180)."""
    cells = [_column_cells([row.get(col) for row in rows]) for col in columns]
    return "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"


def _column_cells(values) -> list[str]:
    """:func:`format_cell` of each value as a CSV field, memoized for
    ``float`` cells (by value, zeros by sign, and a NaN only by identity: it
    equals nothing), which never need quoting; a ``str`` is its own text."""
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


def render_json(columns, rows) -> str:
    payload = [{col: _json_value(row.get(col)) for col in columns} for row in rows]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


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
