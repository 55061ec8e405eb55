"""Shared fixtures: figure parameter sets and seeded spec families."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from vflux.config import REPRODUCE_TARGETS, config_for_target
from vflux.model import SPEC_FIELDS, SystemSpec
from vflux.runner import compute_rows, render_csv

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


@pytest.fixture(scope="session")
def conserving_corpus():
    return seeded_conserving_specs()


@pytest.fixture(scope="session")
def reproduce_outputs():
    """One full run of every reproduction target, shared across modules.

    Maps target name to (columns, rows, csv_text).
    """
    out = {}
    for target in REPRODUCE_TARGETS:
        columns, rows = compute_rows(config_for_target(target))
        out[target] = (columns, rows, render_csv(columns, rows))
    return out
