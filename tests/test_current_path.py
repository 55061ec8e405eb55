"""The current-only steady-state path against the complex route, bit for bit.

``heat_currents`` and ``particle_currents`` without a state, and the
stacked rectification scan, take the kernel as real columns straight from
the generator's real entries (``steady._real_columns`` on
``liouvillian._entries``); they build no complex generator and no
``SteadyState``.  Their numbers must carry the bits, signed zeros included,
and their errors the texts of the complex route
``steady_state(build_generator(spec))``.  The generator fill, now written
from the same entries, must give the matrices of the entry-wise fill it
replaced.  The corpus is seeded and spans five regimes: resonant with
interference, detuned three-bath with interference, interference-free,
within 1e-3 of the dark corner, and all couplings zero.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import vflux.steady
from vflux.analysis import (
    RECTIFICATION_FLOOR,
    amplification,
    default_deltaT_grid,
    max_rectification_columns,
    rectification,
)
from vflux.config import config_for_target
from vflux.errors import IndeterminateRectificationError, VfluxError
from vflux.liouvillian import (
    Generator,
    _counting_matrix,
    _dressed_rates,
    _entries,
    _fill_sandwich,
    build_generator,
)
from vflux.model import BATHS, CountingFields, RateSet, SystemSpec, build_rates, spec_arrays
from vflux.runner import compute_rows
from vflux.steady import _real_columns, steady_state
from vflux.transport import heat_currents, particle_currents

from conftest import count_calls

REGIMES = ("resonant", "detuned", "interference-free", "dark-corner", "uncoupled")


def regime_spec(rng: np.random.Generator, regime: str) -> SystemSpec:
    """One random valid spec of ``regime``."""
    temp_l, temp_m = rng.uniform(1.0, 3.0), rng.uniform(0.3, 3.0)
    temp_r = rng.uniform(0.3, temp_l - 0.2)
    gl11, gl22, gr11, gr22 = rng.uniform(0.002, 0.02, 4)
    eps1 = rng.uniform(0.5, 2.0)
    eps2, g_m, shrink = eps1, 0.0, rng.uniform(0.0, 0.95, 2)
    if regime in ("detuned", "interference-free"):
        eps2, g_m = rng.uniform(0.3, eps1 - 0.05), rng.uniform(0.002, 0.02)
    if regime == "interference-free":
        shrink = (0.0, 0.0)
    if regime == "dark-corner":
        shrink = 1.0 - rng.uniform(1e-4, 1e-3, 2)
    if regime == "uncoupled":
        gl11 = gl22 = gr11 = gr22 = 0.0
    return SystemSpec(eps1, eps2, temp_l, temp_m, temp_r,
                      gl11, gl22, shrink[0] * math.sqrt(gl11 * gl22),
                      gr11, gr22, shrink[1] * math.sqrt(gr11 * gr22), g_m)


def corpus(count: int = 12, seed: int = 14) -> list[SystemSpec]:
    rng = np.random.default_rng(seed)
    specs = [regime_spec(rng, regime) for _ in range(count) for regime in REGIMES]
    # the dark corner itself, where the kernel is not isolated
    return specs + [SystemSpec(1.0, 1.0, 2.0, 1.0, 1.0, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.0)]


def bits(value):
    """The bits of a float or of a tuple of floats, signed zeros included,
    or the type and text of an error."""
    if isinstance(value, VfluxError):
        return f"{type(value).__name__}: {value}"
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return struct.pack("<d", float(value))


def outcome(fn, *args):
    try:
        return fn(*args)
    except VfluxError as exc:
        return exc


def complex_currents(currents, spec):
    return currents(spec, steady_state(build_generator(spec)))


@pytest.mark.parametrize("currents", [heat_currents, particle_currents])
def test_currents_equal_the_complex_route(currents):
    seen = Counter()
    for spec in corpus():
        expected = outcome(complex_currents, currents, spec)
        assert bits(outcome(currents, spec)) == bits(expected), spec
        seen[type(expected).__name__] += 1
    # the corpus reaches both a state and the kernel's error
    assert seen["tuple"] and seen["DegenerateSteadyStateError"]


def test_real_columns_are_the_real_parts_of_the_complex_state():
    specs = corpus()
    rates = RateSet(spec_arrays(specs))
    columns, ratio, isolated, usable = _real_columns(*_entries(rates))
    for n, spec in enumerate(specs):
        one, one_ratio, one_isolated, one_usable = _real_columns(*_entries(build_rates(spec)))
        assert (one_usable, one_isolated) == (usable[n], isolated[n])
        assert bits(one_ratio) == bits(ratio[n])
        state = outcome(steady_state, build_generator(spec))
        assert isinstance(state, VfluxError) == (not usable[n])
        if not usable[n]:
            continue
        expected = state.vector.real
        assert bits(tuple(one)) == bits(tuple(expected))
        assert bits(tuple(c[n] for c in columns)) == bits(tuple(expected))


def complex_scan(spec, t0, grid):
    """max_rectification point by point on the complex route."""
    best = None
    for dt in sorted((float(x) for x in grid), key=abs):
        j_f, j_b = (complex_currents(heat_currents, config)[1]
                    for config in (replace(spec, tempL=t0 + dt / 2.0, tempR=t0 - dt / 2.0),
                                   replace(spec, tempL=t0 - dt / 2.0, tempR=t0 + dt / 2.0)))
        den = max(j_f, -j_b)
        if den <= RECTIFICATION_FLOOR:
            continue
        rj = abs(j_f + j_b) / den
        if not math.isnan(rj) and (best is None or rj > best[0]):
            best = (rj, dt)
    if best is None:
        raise IndeterminateRectificationError("every grid point was indeterminate")
    return best


def test_rectification_scan_equals_the_complex_route():
    specs = corpus(6, seed=41)
    for t0, grid in ((1.0, None), (0.8, np.array([0.6, -0.3, 1.5, 0.1]))):
        scan = default_deltaT_grid(t0) if grid is None else grid
        for spec, out in zip(specs, max_rectification_columns(spec_arrays(specs), t0, grid)):
            assert bits(out) == bits(outcome(complex_scan, spec, t0, scan)), spec


def test_scan_invalid_only_when_hot_keeps_the_first_error_in_scan_order():
    # eps/temp leaves no finite occupation from a temperature of about 1.8
    # on: the first biases solve and the wide ones are invalid
    hot_invalid = SystemSpec(1e-308, 1e-308, 2.0, 1.0, 1.0, 1e-300, 1e-300, 0.0,
                             1e-300, 1e-300, 0.0, 0.0)
    good = SystemSpec(1.0, 1.0, 2.0, 1.0, 1.0, 0.01, 0.01, 0.005, 0.01, 0.01, 0.0, 0.0)
    grid = np.array([0.2, 1.0, 1.6, 1.9])
    out = max_rectification_columns(spec_arrays([good, hot_invalid]), 1.0, grid)
    for spec, result in zip((good, hot_invalid), out):
        expected = outcome(complex_scan, spec, 1.0, grid)
        assert bits(result) == bits(expected)
    assert str(out[1]).startswith(
        "invalid SystemSpec: occupation: eps1 = 1e-308 over tempL = 1.8 ")


def test_current_only_callers_build_no_generator(monkeypatch):
    # nor do the stacked grids, which read the kernel from the entries too
    calls = count_calls(monkeypatch, ("_fill_block", "steady_state"))
    spec = corpus(1)[1]
    for target in ("fig3", "fig2a", "fig21b"):
        compute_rows(config_for_target(target))
    heat_currents(spec)
    particle_currents(spec)
    rectification(spec, 1.0, 0.5)
    amplification(spec, 1.0)
    assert not calls
    # the counters see the complex route
    vflux.steady.steady_state(build_generator(spec))
    assert calls == {"_fill_block": 1, "steady_state": 1}


def fill_entrywise(rates, sandwich=None):
    """The generator fill as it was written entry by entry before the real
    entries were split out (``liouvillian._entries``): the reference."""
    gm = rates.gamma_minus
    gMp, gMm = rates.gain_M, rates.loss_M
    delta = rates.delta
    m = np.zeros((5, 5), dtype=complex)
    m[..., 0, 0] = -(gm(1, 1, 1) + gMm)
    m[..., 0, 1] = gMp
    m[..., 0, 3] = m[..., 0, 4] = -0.5 * gm(1, 2, 2)
    m[..., 1, 0] = gMm
    m[..., 1, 1] = -(gm(2, 2, 2) + gMp)
    m[..., 1, 3] = m[..., 1, 4] = -0.5 * gm(1, 2, 1)
    m[..., 2, 2] = -(rates.gamma_plus(1, 1, 1) + rates.gamma_plus(2, 2, 2))
    damping = 0.5 * (gm(1, 1, 1) + gm(2, 2, 2)) + 0.5 * (gMp + gMm)
    m[..., 3, 0] = m[..., 4, 0] = -0.5 * gm(1, 2, 1)
    m[..., 3, 1] = m[..., 4, 1] = -0.5 * gm(1, 2, 2)
    m[..., 3, 3] = -1j * delta - damping
    m[..., 4, 4] = +1j * delta - damping
    _fill_sandwich(m.reshape(25), *(sandwich or (rates.gamma_plus, gm)))
    return m


def test_fill_from_entries_equals_the_entrywise_fill():
    specs = corpus()
    chi = CountingFields(0.3, -0.7)
    for spec in specs:
        rates = build_rates(spec)
        expected = fill_entrywise(rates)
        gen = build_generator(spec)
        assert gen.matrix.tobytes() == expected.tobytes()
        assert gen.to_text() == Generator(expected, spec).to_text()
        assert (_counting_matrix(rates, chi).tobytes()
                == fill_entrywise(rates, next(_dressed_rates(rates, chi, BATHS))).tobytes())
    # with every coupling zero the coherence diagonal is 0.0 -+ i*delta:
    # a real part of +0.0, which the to_text dump shows
    uncoupled = next(s for s in specs if s.gL11 == s.gR11 == 0.0)
    matrix = build_generator(uncoupled).matrix
    assert math.copysign(1.0, matrix[3, 3].real) == math.copysign(1.0, matrix[4, 4].real) == 1.0
    assert build_generator(uncoupled).to_text().splitlines()[3].split()[3].startswith("0.0")
