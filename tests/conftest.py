"""Shared fixtures: figure parameter sets and seeded spec families."""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import vflux.model
from vflux.config import REPRODUCE_TARGETS, config_for_target, load_config
from vflux.golden import compute_outputs, load_cases
from vflux.errors import VfluxError
from vflux.liouvillian import build_generator
from vflux.model import SPEC_FIELDS, RateSet, SystemSpec, spec_arrays
from vflux.runner import _stacked, compute_rows, render_csv, render_json
from vflux.steady import steady_state

#: Interference bound sqrt(g11*g22) of the two-bath figure family.
BOUND = 0.01


def two_bath_spec(gl12=0.0, gr12=0.0, tempL=2.0, tempR=1.0, eps=1.0) -> SystemSpec:
    """Resonant two-bath system with equal diagonal couplings 0.01."""
    return SystemSpec(eps, eps, tempL, 1.0, tempR, 0.01, 0.01, gl12,
                      0.01, 0.01, gr12, 0.0)


def cycle_spec(tempM=1.0, gamma=0.0) -> SystemSpec:
    """Three-bath cycle (left drives the upper transition, right the lower,
    middle the hop); ``gamma`` switches on the two-terminal bypass."""
    return SystemSpec(1.1, 0.9, 2.0, tempM, 0.5, 0.01, gamma, 0.0,
                      gamma, 0.01, 0.0, 0.01)


# Maximum-bias interference configuration (strong left cross coupling).
MAX_BIAS_SPEC = two_bath_spec(BOUND, 0.0)

# Representative parameter sets used by corpus-wide invariants.
FIGURE_SPECS = [
    two_bath_spec(),
    two_bath_spec(0.5 * BOUND, 0.5 * BOUND),
    MAX_BIAS_SPEC,
    two_bath_spec(0.8 * BOUND, BOUND),
    cycle_spec(0.5),
    cycle_spec(1.0),
    cycle_spec(1.0, gamma=0.01),
    cycle_spec(0.3, gamma=0.004),
]


def seeded_conserving_specs(count: int = 100, seed: int = 20240817) -> list[SystemSpec]:
    """Random valid specs drawn from the two strictly conserving regimes.

    Even draws: resonant two-bath systems with interference (the cross
    couplings stay below 95% of the bound so no dark state forms).  Odd
    draws: detuned three-bath systems without interference.  Off-resonant
    systems *with* interference leak energy at second order in the
    coupling (a known weak-coupling master-equation artifact, reproduced
    and quantified in test_transport) and are deliberately not sampled
    here.
    """
    rng = np.random.default_rng(seed)
    specs = []
    for k in range(count):
        temps = rng.uniform(0.3, 3.0, 3)
        if k % 2 == 0:
            eps = rng.uniform(0.5, 2.0)
            g11l, g22l, g11r, g22r = rng.uniform(0.002, 0.02, 4)
            gl12 = rng.uniform(0.0, 0.95) * math.sqrt(g11l * g22l)
            gr12 = rng.uniform(0.0, 0.95) * math.sqrt(g11r * g22r)
            specs.append(SystemSpec(eps, eps, temps[0], temps[1], temps[2],
                                    g11l, g22l, gl12, g11r, g22r, gr12, 0.0))
        else:
            eps1 = rng.uniform(1.0, 2.0)
            eps2 = rng.uniform(0.3, eps1 - 0.05)
            g11l, g22l, g11r, g22r, gm = rng.uniform(0.002, 0.02, 5)
            specs.append(SystemSpec(eps1, eps2, temps[0], temps[1], temps[2],
                                    g11l, g22l, 0.0, g11r, g22r, 0.0, gm))
    return specs


def seeded_leak_specs(count: int = 20, seed: int = 777) -> list[SystemSpec]:
    """Detuned specs with interference: energy conservation holds only up
    to the coherence-weighted leak term."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        eps1 = rng.uniform(1.0, 2.0)
        eps2 = rng.uniform(0.3, eps1 - 0.1)
        g11l, g22l, g11r, g22r = rng.uniform(0.002, 0.02, 4)
        gl12 = rng.uniform(0.2, 0.9) * math.sqrt(g11l * g22l)
        gr12 = rng.uniform(0.2, 0.9) * math.sqrt(g11r * g22r)
        temps = rng.uniform(0.3, 3.0, 3)
        specs.append(SystemSpec(eps1, eps2, temps[0], temps[1], temps[2],
                                g11l, g22l, gl12, g11r, g22r, gr12, 0.0))
    return specs


#: A detuned three-bath spec with interference and every field in range.
DETUNED_SPEC = SystemSpec(1.2, 0.7, 2.0, 1.0, 1.0, 0.01, 0.01, 0.005, 0.01, 0.01, 0.004, 0.01)

#: Valid, but with rates so near the float limit that the generator's
#: entries overflow: no dressed generator of it is finite.
NOT_FINITE = SystemSpec(1e-308, 1e-308, 1.0, 1.0, 1.0, *(0.45815976690544913,) * 2, 0.0,
                        *(0.45815976690544913,) * 2, 0.0, 0.0)


def projected_inverse(m: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """The LAPACK oracle of ``fcs.pseudo_inverse_R``: ``Q inv(A) Q`` for the
    bare generator ``m`` and its steady state ``p0``, ``Q = 1 - |P0><I|``,
    ``A = L - s|e><I|``, ``e = I/3``, ``s = max|L_ij|`` over the population block."""
    trace = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    a = m - np.abs(m[:3, :3]).max() * np.outer(trace / 3.0, trace)
    q = np.eye(5) - np.outer(p0, trace)
    return q @ np.linalg.inv(a) @ q


def blas_residual(m: np.ndarray, v: np.ndarray) -> float:
    """The BLAS oracle of ``SteadyState.residual``: ``|m @ v|∞`` by numpy's
    ``matmul``, in whatever order its kernel sums."""
    return float(np.abs(m @ v).max())


#: The state cells of a stacked grid row, its residual and its warnings.
GRID_STATE_COLUMNS = ("rho11", "rho22", "rhogg", "abs_rho12", "re_rho12", "im_rho12",
                      "residual", "warnings")


def assert_grid_states_match(specs) -> list:
    """The rows of ``specs`` from the stacked grid evaluator (``runner._stacked``,
    as a ``sweep`` or ``fig2a`` runs it), each held to
    ``steady_state(build_generator(spec))``: its state cells and residual
    bit for bit, its positivity flag (in ``warnings``), or its error text.
    Returns the rows (a dict of cells, or the error)."""
    cells, errors = _stacked(False)(spec_arrays(specs), {}, GRID_STATE_COLUMNS)
    rows = [errors[n] if n in errors else {name: values[n] for name, values in cells.items()}
            for n in range(len(specs))]
    for spec, row in zip(specs, rows, strict=True):
        try:
            ss = steady_state(build_generator(spec))
        except VfluxError as exc:
            assert type(row) is type(exc) and str(row) == str(exc), spec
            continue
        expected = (ss.rho11, ss.rho22, ss.rhogg, ss.coherence_magnitude, ss.rho12.real,
                    ss.rho12.imag, ss.residual)
        got = tuple(row[name] for name in GRID_STATE_COLUMNS[:-1])
        assert all(type(x) is float for x in got), spec
        assert np.array(got).tobytes() == np.array(expected).tobytes(), spec
        assert ("positivity" in row["warnings"].split(";")) == ss.positivity_warning, spec
    return rows


def lapack_calls(monkeypatch, names) -> list:
    """``(name, matrices)`` of each later call of the ``np.linalg``
    functions ``names``, from any thread (``list.append`` is atomic)."""
    calls = []
    for name in names:
        def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append((_name, math.prod(np.shape(a)[:-2])))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


#: Smallest ``omega/temp`` with a finite occupation (``model.OCCUPATION_RATIO_MIN``).
_RATIO_MIN = math.nextafter(2.0 ** -1024, 1.0)


def invalid_specs() -> list[tuple[str, SystemSpec]]:
    """Specs that break each invariant of ``validate`` at least once, as
    ``(the start of one of their violation texts, spec)`` pairs, plus
    ``("hot edge", spec)`` pairs: valid specs whose ``eps2`` has no finite
    occupation once both edge temperatures exceed 1.5, which the bias scan
    at ``t0 = 1`` reaches."""
    base = DETUNED_SPEC
    single = replace(base, eps2=0.0, gL22=0.0, gL12=0.0, gR22=0.0, gR12=0.0)
    out = [(f"finiteness: {name}", replace(base, **{name: value}))
           for name, value in zip(SPEC_FIELDS, (math.nan, math.inf, -math.inf) * 4)]
    out += [(f"temperature positivity: {name}", replace(base, **{name: value}))
            for name, value in (("tempL", 0.0), ("tempM", -1.0), ("tempR", -0.0))]
    out += [(f"coefficient nonnegativity: {name}", replace(base, **{name: -1e-3}))
            for name in ("gL11", "gL22", "gL12", "gR11", "gR22", "gR12", "gM")]
    out += [
        ("level ordering", replace(base, eps1=0.6)),
        ("level positivity: eps1", replace(single, eps1=-1.0, eps2=-2.0)),
        ("level positivity: eps2 = -", replace(base, eps2=-0.5)),
        ("level positivity: eps2 = 0 requires", replace(single, gL22=0.01)),
        ("interference bound: gL12", replace(base, gL12=0.0101)),
        ("interference bound: gR12", replace(base, gR12=0.011)),
        ("middle-bath gap", replace(base, eps2=1.2)),
        ("occupation: eps1 = 1e-320 over tempL", replace(single, eps1=1e-320, tempL=1e10)),
        ("occupation: eps1 = 1e-300 over tempR", replace(single, eps1=1e-300, tempR=1e10)),
        ("occupation: eps2 = 1e-320 over tempL", replace(base, eps2=1e-320)),
        ("occupation: eps2 = 1e-310 over tempR", replace(base, eps2=1e-310, tempL=1e-3)),
        ("occupation: eps1 - eps2", replace(base, eps1=1.0, eps2=0.999999, tempM=1e303)),
    ]
    # eps2/temp crosses the ratio floor between the temperatures 1 and 1.5;
    # level 2 is fed by the middle bath only, so the rates stay finite
    hot = replace(base, eps1=1.0, eps2=1.5 * _RATIO_MIN, tempL=1.0, tempR=1.0,
                  gL22=0.0, gL12=0.0, gR22=0.0, gR12=0.0)
    out += [("hot edge", hot), ("hot edge", replace(hot, gM=0.0, gL22=0.01))]
    return out


@pytest.fixture(autouse=True)
def empty_memo_slot(monkeypatch):
    """Each test starts with the one memo slot (``vflux.model._memo``)
    empty, so what a scalar call makes, and so what it counts, does not
    depend on the tests run before it."""
    monkeypatch.setattr(vflux.model, "_last", {})


def count_calls(monkeypatch, names) -> Counter:
    """Count the calls of each named function of ``vflux``, wherever a
    module holds it (``from ... import`` copies the binding); the name
    ``"RateSet"`` counts the rate sets built."""
    calls = Counter()
    modules = [m for n, m in list(sys.modules.items()) if n == "vflux" or n.startswith("vflux.")]
    for name in names:
        if name == "RateSet":
            def init(self, params, _original=RateSet.__init__):
                calls["RateSet"] += 1
                _original(self, params)

            monkeypatch.setattr(RateSet, "__init__", init)
            continue
        original = next(getattr(m, name) for m in modules if hasattr(m, name))

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture(scope="session")
def conserving_corpus():
    return seeded_conserving_specs()


@pytest.fixture(scope="session")
def reproduce_outputs():
    """One full run of every reproduction target, shared across modules.

    Maps target name to (columns, table, csv_text).
    """
    out = {}
    for target in REPRODUCE_TARGETS:
        columns, table = compute_rows(config_for_target(target))
        out[target] = (columns, table, render_csv(columns, table))
    return out


@pytest.fixture(scope="session")
def golden_outputs(reproduce_outputs):
    """``compute_outputs`` (CSV and JSON text) of every golden case, by name;
    a case whose config is a reproduce target's own reads the shared run."""
    out = {}
    for case in load_cases():
        config = load_config(case.config_path)
        if config.task == "reproduce" and config == config_for_target(config.reproduce_target):
            columns, table, text = reproduce_outputs[config.reproduce_target]
            out[case.name] = (text, render_json(columns, table))
        else:
            out[case.name] = compute_outputs(case)
    return out


def table_rows(table) -> list[dict]:
    """The rows of a ``compute_rows`` table as dicts: each column's cell,
    None where it is empty, and Python floats for an array column."""
    columns = [cells.tolist() if isinstance(cells, np.ndarray) else cells
               for cells in table.values()]
    return [dict(zip(table, row)) for row in zip(*columns)]
