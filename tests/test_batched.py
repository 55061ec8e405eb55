"""The batched grid engine against the scalar reference route, bit for bit,
and against the independent constructions.

Random valid specs come from three regimes: resonant two-bath with
interference, detuned three-bath, and within 1e-3 (relative) of the dark
corner where both cross couplings reach their bound.  Every number the
batched route produces must carry the same bits as the scalar route, and
every error the same text.  The stacked generators must also match the
superoperator construction, preserve the trace and keep Hermiticity, and
the stacked currents must conserve energy and particles where the model
does.  The stacked counting layer is held to the scalar cumulant
functions the same way, warnings included, and the ``fig21b`` target, one
stack, to no LAPACK call at all (the kernel, the recursion's projected
inverse and the cumulant jets' Newton core are elementwise arithmetic).  The
one evaluator of every stacked grid reads its cells as arrays; the cells
of each stacked target are held to the one-point public routes, and no target may build a
per-point object.  A grid of several batches must give the rows its
batches give one at a time.  The rectification
scan, which solves a spec's backward bias as its L<->R mirror's forward
bias, is held to the point scan on batches with mirror pairs and on
specs that turn invalid inside the scan, and the ``fig3`` bytes to the
golden digest at any stack size.
"""

from __future__ import annotations

import ast
import math
import warnings
from collections import Counter
from dataclasses import astuple, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vflux import analysis
from vflux.analysis import (_factor, _mirror_rows, default_deltaT_grid,
                            max_rectification, max_rectification_columns, rectification)
from vflux.config import REPRODUCE_TARGETS, build_config, config_for_target, load_config
from vflux.golden import digest_of, load_cases
from vflux.errors import (
    BranchError,
    DegenerateSteadyStateError,
    DomainError,
    IndeterminateRectificationError,
    VfluxError,
)
from vflux.fcs import (
    BRANCH_TOL,
    FINITE_DIFFERENCE,
    PERTURBATIVE,
    CumulantSet,
    _eliminate,
    _newton,
    _recursion,
    _residues,
    _sandwich_rates,
    cumulants_finite_difference,
    cumulants_perturbative,
    dominant_eigenvalue,
)
from vflux.liouvillian import (
    TRACE_VECTOR,
    _counting_matrix,
    _entries,
    _fill_block,
    build_generator,
    build_superoperator_full,
    project_block,
)
from vflux.model import (
    BATHS,
    ENERGY,
    KINDS,
    PARTICLE,
    CountingFields,
    RateSet,
    SystemSpec,
    build_rates,
    evaluate_valid,
    spec_arrays,
)
from vflux.runner import (_TABLE, SPEC_COLUMNS, _fig21b, _kernel_vectors, _rows, _state_cells,
                          _sweep, compute_rows, render_csv, run)
from vflux.steady import SteadyState, _real_columns, _residual, steady_state
from vflux.transport import (
    CONSERVATION_TOL,
    CurrentReport,
    bath_currents,
    heat_currents,
    particle_currents,
)

from conftest import (DETUNED_SPEC, NOT_FINITE, assert_grid_states_match, invalid_specs,
                      lapack_calls, seeded_conserving_specs, seeded_leak_specs)

PROPERTY = settings(database=None, deadline=None, max_examples=60)

RESONANT, DETUNED, DARK_CORNER = "resonant", "detuned", "dark-corner"


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def specs(draw, regime=None):
    regime = draw(st.sampled_from((RESONANT, DETUNED, DARK_CORNER))) if regime is None else regime
    temp_l = draw(floats(1.0, 3.0))
    temp_r = draw(floats(0.3, temp_l - 0.3))
    temp_m = draw(floats(0.3, 3.0))
    gl11, gl22, gr11, gr22 = (draw(floats(0.002, 0.02)) for _ in range(4))
    if regime == DETUNED:
        eps1 = draw(floats(1.0, 2.0))
        eps2 = draw(floats(0.3, eps1 - 0.05))
        g_m = draw(floats(0.002, 0.02))
        shrink = (draw(floats(0.0, 0.95)), draw(floats(0.0, 0.95)))
    else:
        eps1 = eps2 = draw(floats(0.5, 2.0))
        g_m = 0.0
        if regime == RESONANT:
            shrink = (draw(floats(0.0, 0.95)), draw(floats(0.0, 0.95)))
        else:
            shrink = (1.0 - draw(floats(1e-4, 1e-3)), 1.0 - draw(floats(1e-4, 1e-3)))
    return SystemSpec(eps1, eps2, temp_l, temp_m, temp_r,
                      gl11, gl22, shrink[0] * math.sqrt(gl11 * gl22),
                      gr11, gr22, shrink[1] * math.sqrt(gr11 * gr22), g_m)


@st.composite
def shared_stacks(draw):
    """Specs of one regime that share a random subset of their fields with
    one base spec: the rectification scan stacks a field whose values carry
    the same bits as one ``(1, 1)`` factor, so these mix shared and varying
    fields, and every field shared when nothing is redrawn."""
    regime = draw(st.sampled_from((RESONANT, DETUNED, DARK_CORNER)))
    base = draw(specs(regime))
    batch = []
    for _ in range(draw(st.integers(1, 4))):
        other = draw(specs(regime))
        redrawn = draw(st.sets(st.sampled_from(SPEC_COLUMNS)))
        batch.append(replace(base, **{name: getattr(other, name) for name in redrawn}))
    return batch


def mirror(spec: SystemSpec) -> SystemSpec:
    """``spec`` with its coupling sets and its edge temperatures swapped."""
    return replace(spec, tempL=spec.tempR, tempR=spec.tempL,
                   gL11=spec.gR11, gL22=spec.gR22, gL12=spec.gR12,
                   gR11=spec.gL11, gR22=spec.gL22, gR12=spec.gL12)


@st.composite
def mirror_batches(draw):
    """Scan batches with L<->R mirror pairs: drawn specs, the mirrors of some
    of them (at other edge temperatures, which the scan overwrites), a spec
    that is its own mirror, a spec next to a mirror that differs from its
    own only in the sign of a zero (so the two do not pair), and invalid
    specs, in any order."""
    base = draw(st.lists(specs(), min_size=1, max_size=3))
    batch = list(base)
    for spec in base:
        if draw(st.booleans()):
            batch.append(replace(mirror(spec), tempL=draw(floats(0.3, 3.0)),
                                 tempR=draw(floats(0.3, 3.0))))
    own = draw(specs(RESONANT))
    batch.append(replace(own, gR11=own.gL11, gR22=own.gL22, gR12=own.gL12))
    zero = replace(draw(specs()), gL12=0.0)
    batch += [zero, replace(mirror(zero), gR12=-0.0)]
    batch += draw(st.lists(st.sampled_from([spec for _, spec in invalid_specs()]), max_size=3))
    return draw(st.permutations(batch))


def stacked(core, specs, *args) -> list:
    """One outcome per spec, as the grid engine makes it: ``core(rates,
    *args)`` on the stacked :class:`RateSet` of the valid specs, and a
    :class:`DomainError` for each invalid one."""
    cells, errors = evaluate_valid(spec_arrays(specs),
                                   lambda rates: ({"out": core(rates, *args)}, {}))
    return [errors[n] if n in errors else cells["out"][n] for n in range(len(specs))]


def recursion(rates, bath, kind, order) -> list:
    """The stacked recursion on the stack's own kernels: one
    :class:`CumulantSet`, or the kernel's error, per point."""
    # as runner._stacked: a point without a kernel may overflow silently
    with np.errstate(over="ignore", invalid="ignore"):
        vectors, errors = _kernel_vectors(*_entries(rates))
        factors = _eliminate(rates, vectors.T)
        raw, _, _ = _recursion(factors, _sandwich_rates(rates, bath, kind, range(1, order + 1)),
                               ((), (factors[-1],), ()), order)
    residues = _residues(raw, errors)
    values = np.transpose([e.real for e in raw]).tolist()
    return [errors[n] if n in errors
            else CumulantSet(bath, kind, tuple(values[n]), PERTURBATIVE, residues[n])
            for n in range(len(values))]


def jets(rates, bath, kind, order) -> list:
    """The stacked Newton core: one :class:`CumulantSet`, or the
    :class:`BranchError`, per point."""
    values, errors = _newton(rates, _sandwich_rates(rates, bath, kind, range(1, order + 1)))
    return [BranchError(errors[n,]) if (n,) in errors
            else CumulantSet(bath, kind, cell, FINITE_DIFFERENCE, 0.0)
            for n, cell in enumerate(zip(*(v.tolist() for v in values)))]


#: A config of each target whose plan is one stacked evaluator.
STACKED = {target: config_for_target(target)
           for target in ("fig2a", "fig2b", "fig21a", "fig21b", "fig4b", "fig5b")}
STACKED["sweep"] = build_config({
    "task": "sweep", "sweep": {"axes": [{"field": "tempR", "min": 0.5, "max": 1.0, "steps": 2}]}})


def grid_cells(target, specs) -> list:
    """One outcome per spec from the evaluator of ``target``'s plan,
    filling the target's result columns, as ``runner.compute_rows`` runs
    it: a dict of its cells, or its error."""
    columns, plan = _TABLE[target]
    _, item_cells, evaluate, *_ = plan(STACKED[target])
    cells, errors = evaluate(spec_arrays(specs), {},
                             [name for name in columns if name not in item_cells])
    return [errors[n] if n in errors else {name: values[n] for name, values in cells.items()}
            for n in range(len(specs))]


def point_cells(target, spec) -> dict:
    """``target``'s result cells of ``spec`` from the public one-point
    routes, or the first error they raise: the spec's DomainError, then the
    kernel's error, then the BranchError.  ``fig5b`` takes the currents
    from ``heat_currents``; the other current columns come from
    ``CurrentReport.from_spec``, with the noise on the targets whose plans
    run it."""
    if target == "fig5b":
        return dict(zip(("JeL", "JeR", "JeM"), heat_currents(spec)))
    columns = _TABLE[target][0]
    report = CurrentReport.from_spec(spec, include_noise=target in ("sweep", "fig21b", "fig4b"))
    cells = {**_state_cells(steady_state(build_generator(spec))),
             "JeL": report.JeL, "JeR": report.JeR, "JeM": report.JeM,
             "JpL": report.JpL, "JpR": report.JpR, "JpM": report.JpM, "SeRR": report.SeRR,
             "res_energy": report.conservation_residual_energy,
             "res_particle": report.conservation_residual_particle,
             "warnings": ";".join(report.warnings)}
    if "SeRR_fd" in columns:
        cells["SeRR_fd"] = cumulants_finite_difference(spec, "R", ENERGY, 2).noise_power
    return {name: cells[name] for name in columns if name in cells}


def assert_cells_match(target, batch) -> list:
    """The outcomes of ``target``'s evaluator on ``batch``, each held to
    :func:`point_cells`: the same columns, each a Python ``float`` (or the
    ``warnings`` string) with the same bits, or the same error text."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        outcomes = grid_cells(target, batch)
    for spec, out in zip(batch, outcomes, strict=True):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = outcome(point_cells, target, spec)
        if isinstance(expected, VfluxError):
            assert type(out) is type(expected) and str(out) == str(expected), (target, spec)
            continue
        assert list(out) == list(expected)
        for name, value in out.items():
            if name == "warnings":
                assert type(value) is str and value == expected[name]
            else:
                assert type(value) is float and same_bits(value, expected[name]), (target, name)
    return outcomes


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def scalar_scan(spec, t0, grid):
    """max_rectification as a loop over the scalar rectification."""
    best_rj, best_dt = -1.0, None
    for dt in sorted((float(x) for x in grid), key=abs):
        try:
            result = rectification(spec, t0, dt)
        except IndeterminateRectificationError:
            continue
        if result.rj > best_rj:
            best_rj, best_dt = result.rj, dt
    if best_dt is None:
        raise IndeterminateRectificationError("every grid point was indeterminate")
    return best_rj, best_dt


@PROPERTY
@given(st.lists(specs(), min_size=1, max_size=6))
def test_kernel_and_currents_match_scalar_bitwise(batch):
    # the stack's rates, entries and kernel vectors carry each point's bits,
    # and so its residual (fixed-order sums, no BLAS) and its currents
    rates = RateSet(spec_arrays(batch))
    re, delta = _entries(rates)
    vectors, errors = _kernel_vectors(re, delta)
    residuals = _residual(re, delta, vectors.real, vectors.imag)
    je = bath_currents(rates, vectors, ENERGY)
    jp = bath_currents(rates, vectors, PARTICLE)
    assert not errors
    for n, spec in enumerate(batch):
        one = build_rates(spec)
        for table in ("gainL", "gainR", "lossL", "lossR"):
            for i, j, k in product((0, 1), repeat=3):
                assert same_bits(getattr(rates, table)[i][j][k][n], getattr(one, table)[i][j][k])
        assert same_bits(rates.gain_M[n], one.gain_M) and same_bits(rates.loss_M[n], one.loss_M)
        gen = build_generator(spec)
        ss = steady_state(gen)
        assert same_bits([[x[n] for x in row] for row in re], gen.matrix.real[:4, :4])
        assert same_bits(delta[n], -gen.matrix.imag[3, 3])
        assert same_bits(vectors[:, n], ss.vector)
        assert same_bits(residuals[n], ss.residual)
        assert all(same_bits(a[n], b) for a, b in zip(je, heat_currents(spec, ss)))
        assert all(same_bits(a[n], b) for a, b in zip(jp, particle_currents(spec, ss)))


def test_cold_bath_rates_match_scalar_bitwise():
    # omega/temp of 250 to 12,000: from below the overflow of expm1 (~709.8)
    # to past the underflow of its limit exp(-omega/temp) (~745)
    base = SystemSpec(1.2, 0.7, 2.0, 1.0, 1.0, 0.01, 0.01, 0.005, 0.01, 0.01, 0.004, 0.01)
    batch = [replace(base, tempR=temp, tempM=temp) for temp in (2e-3, 1.5e-3, 1e-3, 1e-4)]
    rates = RateSet(spec_arrays(batch))
    for n, spec in enumerate(batch):
        one = build_rates(spec)
        for table in ("gainL", "gainR", "lossL", "lossR"):
            for i, j, k in product((0, 1), repeat=3):
                assert same_bits(getattr(rates, table)[i][j][k][n], getattr(one, table)[i][j][k])
        assert same_bits(rates.gain_M[n], one.gain_M) and same_bits(rates.loss_M[n], one.loss_M)
    assert rates.occR[0][-1] == 0.0


#: Swaps the two coherence components of the state vector.
SWAP_COHERENCES = [0, 1, 2, 4, 3]


@PROPERTY
@given(st.lists(specs(), min_size=1, max_size=6))
def test_stacked_generators_match_independent_construction(batch):
    # a stack carries its generators as entries (rows and columns 0-3 and
    # the splitting), the whole of each point's generator: column and row
    # 4 mirror 3, and the only imaginary parts are -+ delta on the diagonal
    re, delta = _entries(RateSet(spec_arrays(batch)))
    for n, spec in enumerate(batch):
        real = [[x[n] for x in row] + [row[3][n]] for row in re]
        real.append(real[3][:3] + [0.0, real[3][3]])
        real[3][4] = 0.0
        m = np.array(real, dtype=complex)
        m.imag[3, 3], m.imag[4, 4] = -delta[n], delta[n]
        assert same_bits(m, build_generator(spec).matrix)
        assert np.abs(m - project_block(build_superoperator_full(spec))).max() <= 1e-15
        assert np.abs(TRACE_VECTOR @ m).max() <= 1e-14
        # Hermiticity: the swapped generator is the complex conjugate
        swapped = m[SWAP_COHERENCES][:, SWAP_COHERENCES]
        assert np.array_equal(swapped, m.conj())


@PROPERTY
@given(st.lists(st.one_of(specs(RESONANT), specs(DARK_CORNER),
                          specs(DETUNED).map(lambda s: replace(s, gL12=0.0, gR12=0.0))),
                min_size=1, max_size=6))
def test_stacked_currents_conserve_in_conserving_regimes(batch):
    for cells in grid_cells("fig21a", batch):
        assert cells["res_energy"] <= CONSERVATION_TOL
        assert cells["res_particle"] <= CONSERVATION_TOL
        assert cells["warnings"] == ""


def outcome(fn, *args):
    try:
        return fn(*args)
    except VfluxError as exc:
        return exc


def assert_scan_matches_the_point_scan(batch, t0, grid) -> list:
    """The outcomes of one stacked scan of ``batch``, each held to
    :func:`scalar_scan`, bit for bit and error text for error text."""
    outcomes = max_rectification_columns(spec_arrays(batch), t0, grid)
    for spec, out in zip(batch, outcomes, strict=True):
        expected = outcome(scalar_scan, spec, t0, grid)
        if isinstance(expected, VfluxError):
            assert type(out) is type(expected) and str(out) == str(expected)
        else:
            assert same_bits(out[0], expected[0]) and out[1] == expected[1]
    return outcomes


@PROPERTY
@given(st.one_of(st.lists(specs(), min_size=1, max_size=3), shared_stacks(), mirror_batches()),
       floats(0.5, 2.0), st.permutations((0.3, 0.8, 1.4, 1.9, 2.0)), st.booleans())
def test_rectification_factor_matches_scalar_bitwise(batch, t0, fractions, over_bias):
    # in any grid order; a bias of 2*t0 makes the scan end in a UsageError
    grid = np.array([f * t0 for f in fractions if over_bias or f < 2.0])
    assert_scan_matches_the_point_scan(batch, t0, grid)


def test_rectification_scan_with_shared_fields_matches_the_point_scan():
    t0, grid = 1.0, default_deltaT_grid(1.0)
    # eps1 and eps2 shared, so the middle gap is one (1, 1) factor while
    # the middle bath's temperature and coupling vary, gM = 0 included
    cycle = [SystemSpec(1.1, 0.9, 2.0, temp_m, 0.5, 0.01, 0.005, 0.0, 0.004, 0.01, 0.0, g_m)
             for temp_m, g_m in ((0.5, 0.01), (1.0, 0.0), (1.5, 0.02), (0.7, 0.01))]
    outcomes = assert_scan_matches_the_point_scan(cycle, t0, grid)
    assert all(isinstance(out, tuple) for out in outcomes)
    # every field shared: one spec, and copies of it
    for batch in ([cycle[0]], [cycle[0]] * 3, [cycle[2]] * 2):
        assert_scan_matches_the_point_scan(batch, t0, grid)
    # 0.0 and -0.0 compare equal but are two factor values
    assert _factor(np.array([0.0, -0.0])).shape == (2, 1)
    assert _factor(np.array([-0.0, -0.0])).shape == (1, 1)
    assert_scan_matches_the_point_scan([cycle[0], replace(cycle[0], gL12=-0.0)], t0, grid)
    # invalid only at the hot edge, next to valid specs that share all but
    # eps2 or gM with them
    hot = [spec for name, spec in invalid_specs() if name == "hot edge"]
    batch = [*hot, replace(hot[0], eps2=0.5), replace(hot[1], gM=0.01), *hot]
    outcomes = assert_scan_matches_the_point_scan(batch, t0, grid)
    assert {type(out).__name__ for out in outcomes} == {
        "DomainError", "DegenerateSteadyStateError", "tuple"}


def test_rectification_scan_matches_the_point_scan_on_invalid_specs():
    # each invariant broken at least once, specs invalid only at the scan's
    # hottest edge, and valid specs between them, in one batch
    corpus = [spec for _, spec in invalid_specs()] + seeded_conserving_specs(6)
    t0, grid = 1.0, default_deltaT_grid(1.0)
    outcomes = max_rectification_columns(spec_arrays(corpus), t0, grid)
    kinds = Counter()
    for spec, out in zip(corpus, outcomes, strict=True):
        expected = outcome(scalar_scan, spec, t0, grid)
        kinds[type(expected).__name__] += 1
        if isinstance(expected, VfluxError):
            assert type(out) is type(expected) and str(out) == str(expected)
        else:
            assert same_bits(out[0], expected[0]) and out[1] == expected[1]
    # the four specs with a bad edge temperature are valid once the scan
    # sets both; of the hot-edge pair, the one with eps2 coupled to the edge
    # baths overflows its rates before it turns invalid
    assert kinds == Counter({"DomainError": len(corpus) - 11, "tuple": 6 + 4,
                             "DegenerateSteadyStateError": 1})


def test_mirror_relabels_the_edge_currents_bit_for_bit():
    # gamma_+- = gain/loss_L + gain/loss_R is an IEEE sum, which commutes,
    # so a spec and its mirror have the same generator bits, and
    # bath_currents runs the same operations on either edge bath; the
    # rectification scan takes J_b from the mirror's forward point on this
    corpus = seeded_conserving_specs() + seeded_leak_specs() + [OVERFLOWING]
    for spec in corpus:
        expected, got = outcome(heat_currents, spec), outcome(heat_currents, mirror(spec))
        if isinstance(expected, VfluxError):
            assert type(got) is type(expected) and str(got) == str(expected)
        else:
            assert same_bits(got, (expected[1], expected[0], expected[2]))
    assert sum(isinstance(outcome(heat_currents, spec), VfluxError) for spec in corpus) == 1


def test_scan_reports_the_first_kernel_error_in_scan_order(monkeypatch):
    # rates near the float limit: at the first bias the forward point's
    # kernel overflows to ratio 0 and the backward point's (its mirror's
    # forward point) to NaN; the forward point comes first
    eps = 4.057046395945866e-64
    spec = SystemSpec(eps, eps, 1.0, 1.0, 1.0, 0.003, 0.003, 0.0, 0.01, 0.01, 0.005, 0.0)
    t0, grid = 1.0, default_deltaT_grid(1.0)
    dt = float(grid[0])
    texts = [str(outcome(heat_currents, replace(spec, tempL=t0 + sign * dt / 2,
                                                tempR=t0 - sign * dt / 2)))
             for sign in (1.0, -1.0)]
    assert texts[0].endswith("ratio 0.000e+00") and texts[1].endswith("ratio nan")
    (out,) = assert_scan_matches_the_point_scan([spec], t0, grid)
    assert str(out) == texts[0]

    # a forward point at bias 3 and a backward point at bias 1 flagged:
    # bias comes first, then forward before backward
    def flagged(re, delta):
        columns, *verdicts = _real_columns(re, delta)
        shape = np.broadcast(*columns).shape
        ratio, isolated, usable = (np.broadcast_to(x, shape).copy() for x in verdicts)
        for row, at in ((0, 3), (1, 1)):
            ratio[row, at], isolated[row, at], usable[row, at] = 100.0 * row + at, False, False
        return columns, ratio, isolated, usable

    monkeypatch.setattr(analysis, "_real_columns", flagged)
    for batch in ([DETUNED_SPEC], [mirror(DETUNED_SPEC), DETUNED_SPEC]):
        assert [str(out) for out in max_rectification_columns(spec_arrays(batch), t0, grid)] == [
            "kernel not isolated: deflated generator has Hadamard ratio 1.010e+02"] * len(batch)


def test_mirror_rows_pair_by_bits():
    spec = replace(DETUNED_SPEC, gL12=0.0)
    twin = mirror(spec)

    def rows(batch):
        return _mirror_rows(spec_arrays(batch))

    # a pair takes two rows, whatever the order and the edge temperatures;
    # an unpaired spec takes them too, and copies share them
    for batch, forward, backward in (([spec, twin], [0, 1], [1, 0]),
                                     ([twin, replace(spec, tempL=9.0), spec], [0, 1, 1], [1, 0, 0]),
                                     ([spec, spec], [0, 0], [1, 1])):
        got = rows(batch)
        assert got[:2] == ([(0, False), (0, True)], [0])
        assert (got[2].tolist(), got[3].tolist()) == (forward, backward)
    # a zero of the other sign does not pair
    assert rows([spec, replace(twin, gR12=-0.0)])[:2] == (
        [(0, False), (0, True), (1, False), (1, True)], [0, 2])
    # a spec that is its own mirror takes one row
    own = replace(DETUNED_SPEC, gR11=DETUNED_SPEC.gL11, gR22=DETUNED_SPEC.gL22,
                  gR12=DETUNED_SPEC.gL12)
    got, starts, forward, backward = rows([own])
    assert (got, starts, forward.tolist(), backward.tolist()) == ([(0, False)], [0], [0], [0])


def golden_config(name):
    """The config of the golden case ``name``."""
    (case,) = [case for case in load_cases() if case.name == name]
    return load_config(case.config_path)


@pytest.mark.parametrize("case,total", [
    ("fig3", 51 * 51 * 50), ("fig3_invalid_at_the_hot_edge", 51 * 51 * 41),
    ("fig3_invalid_late_in_the_scan", 41)],
    ids=["default", "invalid-at-the-hot-edge", "invalid-late-in-the-scan"])
def test_fig3_solves_each_forward_point_once(monkeypatch, case, total):
    # every (gL12, gR12) cell's mirror (gR12, gL12) is in the grid, so the
    # 2,601 specs take 2,601 rows of hot-left biases: 130,050 points, where
    # forward and backward points of each spec took 260,100.  Both invalid
    # systems turn invalid at the 42nd bias, so their specs take the same
    # rows over the 41 biases before it (flat stacks of every valid point
    # took 213,282); at couplings of 1e-300 the cross couplings' bound
    # sqrt(1e-300 * 1e-300) is 0, so the 2,601 specs are one row.
    points = []

    def counted(re, delta):
        out = _real_columns(re, delta)
        points.append(np.broadcast(*out[0]).size)
        return out

    monkeypatch.setattr(analysis, "_real_columns", counted)
    compute_rows(golden_config(case))
    assert sum(points) == total
    assert max(points) <= analysis.SCAN_STACK_POINTS


def test_scan_builds_one_kernel_error_per_spec(monkeypatch):
    # with every coupling 0 no kernel is isolated: each of the 100 points
    # of the scan fails, and only the first one's text is the outcome
    texts = []

    def counted(ratio, isolated, _original=analysis._error_text):
        texts.append(_original(ratio, isolated))
        return texts[-1]

    monkeypatch.setattr(analysis, "_error_text", counted)
    spec = replace(DETUNED_SPEC, **dict.fromkeys(
        ("gL11", "gL22", "gL12", "gR11", "gR22", "gR12", "gM"), 0.0))
    with pytest.raises(DegenerateSteadyStateError) as info:
        max_rectification(spec, 1.0)
    assert texts == [str(info.value)]


def test_specs_invalid_late_in_the_scan_take_no_point_scan(monkeypatch):
    # the point scan ran rectification, two heat_currents calls, for each
    # bias before a spec's first invalid point: 215,883 calls on this grid
    calls = []

    def counted(spec, *args, _original=analysis.heat_currents):
        calls.append(1)
        return _original(spec, *args)

    monkeypatch.setattr(analysis, "heat_currents", counted)
    _, table = compute_rows(golden_config("fig3_invalid_late_in_the_scan"))
    assert len(table["error"]) == 2601
    assert all(error.startswith("DomainError: invalid SystemSpec") for error in table["error"])
    assert len(calls) <= 2601


@pytest.mark.parametrize("points", [1, 10**9])
def test_fig3_bytes_do_not_depend_on_the_stack_size(monkeypatch, points):
    # one group (a spec and its mirror) per stack, and the whole grid in one
    monkeypatch.setattr(analysis, "SCAN_STACK_POINTS", points)
    (case,) = [case for case in load_cases() if case.name == "fig3"]
    assert digest_of(render_csv(*compute_rows(config_for_target("fig3")))) == case.digest


@PROPERTY
@given(floats(0.5, 2.0), floats(1.0, 3.0), floats(0.3, 0.7), floats(0.002, 0.02))
def test_degenerate_corner_same_error_on_both_routes(eps, temp_l, frac, g):
    # both cross couplings on the bound (1, 1)*bound, equal diagonal couplings
    corner = SystemSpec(eps, eps, temp_l, 1.0, frac * temp_l, g, g, g, g, g, g, 0.0)
    with pytest.raises(DegenerateSteadyStateError) as info:
        steady_state(build_generator(corner))
    expected = str(info.value)
    (out,) = grid_cells("fig21a", [corner])
    assert isinstance(out, DegenerateSteadyStateError) and str(out) == expected

    t0, grid = temp_l, np.array([0.5 * temp_l, temp_l])
    with pytest.raises(DegenerateSteadyStateError) as info:
        scalar_scan(corner, t0, grid)
    expected = str(info.value)
    (out,) = max_rectification_columns(spec_arrays([corner]), t0, grid)
    assert isinstance(out, DegenerateSteadyStateError) and str(out) == expected


#: Occupations near 1e308 overflow the kernel's products to inf and nan.
OVERFLOWING = SystemSpec(1e-308, 1e-308, 1.0, 1.0, 1.0, 0.01, 0.01, 0.005, 0.01, 0.01, 0.0, 0.0)

def test_overflowing_rates_fail_silently_like_one_point():
    # one point's Python floats overflow without a warning, and so must a
    # stack, next to a normal spec
    t0, grid = 0.5, np.array([0.1])
    normal_scan = max_rectification_columns(spec_arrays([DETUNED_SPEC]), t0, grid)
    normal = {target: repr(grid_cells(target, [DETUNED_SPEC])) for target in STACKED}
    for spec in (OVERFLOWING, NOT_FINITE):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSteadyStateError, match="Hadamard ratio nan") as info:
                scalar_scan(spec, t0, grid)
            scan = max_rectification_columns(spec_arrays([spec, DETUNED_SPEC]), t0, grid)
            with pytest.raises(DegenerateSteadyStateError) as report_info:
                CurrentReport.from_spec(spec)
            outcomes = {target: grid_cells(target, [spec, DETUNED_SPEC]) for target in STACKED}
        assert isinstance(scan[0], DegenerateSteadyStateError) and str(scan[0]) == str(info.value)
        assert scan[1:] == normal_scan
        for target, (out, *rest) in outcomes.items():
            # a grid reports the kernel's error first
            assert isinstance(out, DegenerateSteadyStateError)
            assert str(out) == str(report_info.value)
            assert repr(rest) == normal[target]


def test_generator_that_is_not_finite_is_a_branch_error():
    # no dressed generator of NOT_FINITE is finite: the one-point Newton
    # core and tracker report it, and a stack keeps its other points
    text = "dressed generator is not finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for chi in (0.0, 1e-4):
            with pytest.raises(BranchError, match=text):
                dominant_eigenvalue(NOT_FINITE, CountingFields(0.0, chi, ENERGY))
        with pytest.raises(BranchError, match=text):
            cumulants_finite_difference(NOT_FINITE, "R", ENERGY, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        rates = RateSet(spec_arrays([DETUNED_SPEC, NOT_FINITE]))
        values, errors = _newton(rates, _sandwich_rates(rates, "R", ENERGY, (1, 2)))
    assert errors == {(1,): text}
    expected = cumulants_finite_difference(DETUNED_SPEC, "R", ENERGY, 2).values
    assert same_bits([value[0] for value in values], expected)


@PROPERTY
@given(floats(1.01, 3.0), st.integers(2, 6))
def test_sweep_beyond_bound_is_a_domain_error_row(reach, steps):
    config = build_config({
        "task": "sweep",
        "system": {"gL12": 0.005},
        "sweep": {"axes": [{"field": "gL12", "min": 0.0, "max": reach * 0.01, "steps": steps}]},
    })
    _, table = compute_rows(config)
    assert len(table["error"]) == steps
    for n, (error, je_r) in enumerate(zip(table["error"], table["JeR"])):
        spec = SystemSpec(**{name: table[name][n].item() for name in SPEC_COLUMNS})
        if spec.gL12 > 0.01:
            with pytest.raises(DomainError) as info:
                spec.require_valid()
            assert error == f"DomainError: {info.value}"
            assert je_r is None
        else:
            assert error is None
            assert je_r == CurrentReport.from_spec(spec).JeR


def test_occupation_without_finite_value_is_a_domain_error_row():
    # eps2/temp leaves no finite occupation at eps2 = 1e-320
    config = build_config({
        "task": "sweep",
        "system": {"eps1": 1.0, "gL12": 0.0, "gR12": 0.0, "gM": 0.0},
        "sweep": {"axes": [{"field": "eps2", "min": 1e-320, "max": 0.5, "steps": 2}]},
    })
    _, table = compute_rows(config)
    bad, good = (SystemSpec(**{name: table[name][n].item() for name in SPEC_COLUMNS})
                 for n in (0, 1))
    with pytest.raises(DomainError, match="occupation: eps2 = 1e-320") as info:
        bad.require_valid()
    assert table["error"][0] == f"DomainError: {info.value}" and table["JeR"][0] is None
    assert table["error"][1] is None and table["JeR"][1] == heat_currents(good)[1]


@PROPERTY
@given(st.lists(specs(), min_size=2, max_size=4), st.data(),
       st.sampled_from((math.nan, math.inf, -math.inf)))
def test_non_finite_spec_is_one_domain_error(batch, data, bad_value):
    # tempL and tempR are left out: the rectification scan replaces both, so
    # their values never reach a solve there
    pos = data.draw(st.integers(0, len(batch) - 1))
    name = data.draw(st.sampled_from([n for n in SPEC_COLUMNS if n not in ("tempL", "tempR")]))
    bad = replace(batch[pos], **{name: bad_value})
    mixed = batch[:pos] + [bad] + batch[pos + 1:]

    def fingerprint(out):
        # repr of a float round-trips, and keeps the sign of zero
        if isinstance(out, VfluxError):
            return f"{type(out).__name__}: {out}"
        return repr(astuple(out) if isinstance(out, CumulantSet) else out)

    t0, grid = 1.0, np.array([0.4, 1.2])
    for evaluate in (lambda specs: grid_cells("sweep", specs),
                     lambda specs: grid_cells("fig21b", specs),
                     lambda specs: max_rectification_columns(spec_arrays(specs), t0, grid),
                     lambda specs: stacked(recursion, specs, "R", ENERGY, 4),
                     lambda specs: stacked(jets, specs, "L", PARTICLE, 4)):
        out, expected = evaluate(mixed), evaluate(batch)
        assert isinstance(out[pos], DomainError) and "finiteness" in str(out[pos])
        assert all(fingerprint(out[n]) == fingerprint(expected[n])
                   for n in range(len(batch)) if n != pos)


# ---------------------------------------------------------------------------
# The stacked counting layer against the scalar cumulant routes.

def same_cumulants(out, expected) -> bool:
    """Equal outcomes: the same error type and text, or the same bits."""
    if isinstance(expected, VfluxError):
        return type(out) is type(expected) and str(out) == str(expected)
    return (isinstance(out, CumulantSet)
            and (out.bath, out.kind, out.method) == (expected.bath, expected.kind, expected.method)
            and same_bits(out.values, expected.values)
            and same_bits(out.imag_residue, expected.imag_residue))


@PROPERTY
@given(st.lists(specs(), min_size=1, max_size=5), st.sampled_from(BATHS),
       st.sampled_from(KINDS), st.integers(1, 4))
def test_perturbative_cumulants_match_scalar_bitwise(batch, bath, kind, order):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for spec, out in zip(batch, stacked(recursion, batch, bath, kind, order)):
            assert same_cumulants(out, outcome(cumulants_perturbative, spec, bath, kind, order))


def test_stacked_recursion_rounds_the_consistency_term_like_one_point():
    # numpy may fuse the multiplies and adds of an array's complex product,
    # where a Python complex product rounds each; the correction term of
    # E_3 gave this spec's imaginary residue another last bit on a stack
    spec = SystemSpec(1.5891593417834327, 0.75, 2.70002313623393, 0.818359375,
                      1.2666063302556672, 0.01171875, 0.011994952896088608,
                      0.003067727518088353, 0.005548508159906125, 0.003305622838204852,
                      8.907902089104312e-05, 0.009660120720265357)
    (out,) = stacked(recursion, [spec], "L", ENERGY, 3)
    assert same_cumulants(out, cumulants_perturbative(spec, "L", ENERGY, 3))


def tracked_eigenvalue(rates, chi):
    """The dominant eigenvalue as one point's own tracker found it, the
    reference for the shared tracker: zero field, or a ramp of two
    spectra (half field, then full), each pick nearest the last."""
    if chi.is_zero:
        eigvals = np.linalg.eigvals(_fill_block(rates))
        return complex(eigvals[np.argmin(np.abs(eigvals))])
    tracked = 0.0 + 0.0j
    for fraction in (0.5, 1.0):
        eigvals = np.linalg.eigvals(_counting_matrix(rates, chi.scaled(fraction)))
        tracked = complex(eigvals[np.argmin(np.abs(eigvals - tracked))])
    contenders = np.sort(eigvals.real)[::-1]
    tol = BRANCH_TOL * np.abs(_fill_block(rates)[:3, :3]).max()
    if contenders[0] - contenders[1] < tol:
        raise BranchError(f"two eigenvalues within {tol:.3e} of the maximal real part "
                          f"{eigvals.real.max():.3e}")
    return tracked


@st.composite
def corners(draw):
    """Specs with both cross couplings on their bound, where the counted
    branch and the dark eigenvalue collide."""
    eps, temp_l = draw(floats(0.5, 2.0)), draw(floats(1.0, 3.0))
    frac, g = draw(floats(0.3, 0.7)), draw(floats(0.002, 0.02))
    return SystemSpec(eps, eps, temp_l, 1.0, frac * temp_l, g, g, g, g, g, g, 0.0)


@PROPERTY
@given(st.lists(st.one_of(specs(), corners()), min_size=1, max_size=5), st.sampled_from(BATHS),
       st.sampled_from(KINDS), st.integers(1, 4),
       st.sampled_from((0.0, 1e-5, -3e-3, 0.2, 1e-3 + 2e-3j, 0.3 - 0.1j)))
def test_finite_difference_cumulants_match_scalar_bitwise(batch, bath, kind, order, chi):
    # the Newton core on a stack and on one point; the tracker of
    # dominant_eigenvalue against its reference
    newton = stacked(jets, batch, bath, kind, order)
    field = CountingFields(chi if bath == "L" else 0.0, chi if bath == "R" else 0.0, kind)
    for spec, out in zip(batch, newton):
        expected = outcome(cumulants_finite_difference, spec, bath, kind, order)
        assert same_cumulants(out, expected)
        eigenvalue = outcome(dominant_eigenvalue, spec, field)
        reference = outcome(tracked_eigenvalue, build_rates(spec), field)
        if isinstance(reference, BranchError):
            assert isinstance(eigenvalue, BranchError) and str(eigenvalue) == str(reference)
        else:
            assert same_bits(eigenvalue, reference)


@PROPERTY
@given(floats(0.5, 2.0), floats(1.0, 3.0), floats(0.3, 0.7), floats(0.002, 0.02),
       st.sampled_from(BATHS), st.sampled_from(KINDS), st.data())
def test_degenerate_corner_same_cumulant_errors_on_both_routes(eps, temp_l, frac, g,
                                                               bath, kind, data):
    # both cross couplings on the bound (1, 1)*bound, between valid specs
    corner = SystemSpec(eps, eps, temp_l, 1.0, frac * temp_l, g, g, g, g, g, g, 0.0)
    others = data.draw(st.lists(specs(), max_size=2))
    pos = min(len(others), 1)
    batch = others[:pos] + [corner] + others[pos:]
    recursions = stacked(recursion, batch, bath, kind, 2)
    newton = stacked(jets, batch, bath, kind, 2)
    assert isinstance(recursions[pos], DegenerateSteadyStateError)
    assert isinstance(newton[pos], BranchError)
    for spec, rec, fd in zip(batch, recursions, newton):
        assert same_cumulants(rec, outcome(cumulants_perturbative, spec, bath, kind, 2))
        assert same_cumulants(fd, outcome(cumulants_finite_difference, spec, bath, kind, 2))


# ---------------------------------------------------------------------------
# The stacked grids, read as arrays, against the point routes.

@st.composite
def near_corners(draw):
    """Specs a relative 1e-8 off a corner on the right: the kernel is
    isolated, but the dominant eigenvalue is not separated at zero field
    (``fcs.SEPARATION_MIN``)."""
    corner = draw(corners())
    return replace(corner, gR12=(1.0 - 1e-8) * corner.gR12)


#: Both cross couplings on their bound: no isolated kernel, no branch.
CORNER = SystemSpec(1.0, 1.0, 2.0, 1.0, 1.0, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.0)

#: Strong, detuned couplings at low temperatures: rho11 < -1e-8, so the
#: positivity warning is set.
NEGATIVE_POPULATION = SystemSpec(1.7, 0.28, 0.035, 0.8, 0.18, 0.75, 0.63, 0.44,
                                 1.38, 0.36, 0.5, 0.0116)

#: Fixed specs of every kind a stacked grid meets: both seeded corpora
#: (the leak specs carry complex coherences), the invalid specs, a corner
#: and a near corner, a negative population and rates near the float limit.
CORPUS = (seeded_conserving_specs() + seeded_leak_specs() + [spec for _, spec in invalid_specs()]
          + [CORNER, replace(CORNER, gR12=(1.0 - 1e-8) * CORNER.gR12), NEGATIVE_POPULATION,
             OVERFLOWING, NOT_FINITE])

#: The stacked targets that render SeRR_fd, and so run the Newton core.
STENCILS = sorted(target for target in STACKED if "SeRR_fd" in _TABLE[target][0])


@pytest.mark.parametrize("target", sorted(STACKED))
def test_stacked_cells_match_the_point_routes_on_the_corpus(target):
    outcomes = assert_cells_match(target, CORPUS)
    # the two hot-edge specs are valid: one has no kernel, as have the
    # corner and the two near the float limit; the near corner has no
    # branch where the Newton core runs
    branch = int(target in STENCILS)
    assert Counter(type(out).__name__ for out in outcomes) == Counter({
        "dict": 120 + 3 - branch, "DomainError": len(invalid_specs()) - 2,
        "DegenerateSteadyStateError": 4, "BranchError": branch})
    if "warnings" in _TABLE[target][0]:
        warned = outcomes[CORPUS.index(NEGATIVE_POPULATION)]["warnings"]
        assert warned == "energy-conservation;positivity"


def test_grid_rows_carry_the_residual_flag_and_error_of_steady_state():
    # each row's residual (fixed-order sums on arrays) has the bits of one
    # point's (on Python floats), its positivity flag and its error text
    rows = assert_grid_states_match(CORPUS)
    assert "positivity" in rows[CORPUS.index(NEGATIVE_POPULATION)]["warnings"]
    assert Counter(type(row).__name__ for row in rows) == Counter({
        "dict": 120 + 3, "DomainError": len(invalid_specs()) - 2,
        "DegenerateSteadyStateError": 4})


@PROPERTY
@given(st.sampled_from(sorted(set(STACKED) - set(STENCILS))),
       st.lists(st.one_of(specs(), corners(), st.sampled_from(CORPUS)), min_size=1, max_size=6))
def test_current_reports_match_from_spec(target, batch):
    # the sweep's columns with the noise, fig21a's without it, the
    # coherence columns, and fig5b's against heat_currents
    assert_cells_match(target, batch)


@PROPERTY
@given(st.sampled_from(STENCILS),
       st.lists(st.one_of(st.sampled_from(CORPUS), specs(), corners(), near_corners()),
                min_size=1, max_size=8))
def test_noise_cells_match_the_point_routes(target, batch):
    # a BranchError's text included
    assert_cells_match(target, batch)


def test_noise_reports_the_kernel_error_before_the_branch_error():
    # an exact corner fails both, a near one the Newton core only, which only
    # the targets that render SeRR_fd run
    near = replace(CORNER, gR12=(1.0 - 1e-8) * CORNER.gR12)
    fd = [outcome(cumulants_finite_difference, spec, "R", ENERGY, 2) for spec in (CORNER, near)]
    assert all(isinstance(out, BranchError) for out in fd)
    for target in STACKED:
        first, second, valid = grid_cells(target, [CORNER, near, DETUNED_SPEC])
        assert isinstance(first, DegenerateSteadyStateError)
        if target in STENCILS:
            assert isinstance(second, BranchError) and str(second) == str(fd[1])
        else:
            assert isinstance(second, dict)
        assert isinstance(valid, dict)


def test_fig21b_builds_no_per_point_object(monkeypatch):
    made = Counter()
    for cls in (SteadyState, CurrentReport, CumulantSet):
        def counted(self, *args, _name=cls.__name__, _original=cls.__init__, **kwargs):
            made[_name] += 1
            _original(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    # the counters see the point routes' objects
    CurrentReport.from_spec(DETUNED_SPEC)
    assert made == Counter({"SteadyState": 1, "CurrentReport": 1, "CumulantSet": 1})
    made.clear()
    sweep = build_config({"task": "sweep", "sweep": {"axes": [
        {"field": "gL12", "min": 0.0, "max": 0.01, "steps": 5},
        {"field": "tempM", "min": 0.5, "max": 2.0, "steps": 7}]}})
    for config, count in ((config_for_target("fig21b"), 1681), (config_for_target("fig2a"), 1681),
                          (config_for_target("fig21a"), 1681), (config_for_target("fig5b"), 39),
                          (sweep, 35)):
        _, table = compute_rows(config)
        assert len(table["error"]) == count and not made


def test_grids_build_no_per_row_spec(monkeypatch):
    # a grid runs on field columns: a SystemSpec is built only for the
    # config itself and for a row that is invalid (to format its
    # DomainError) or that the rectification scan takes point by point
    sweep = build_config({"task": "sweep", "sweep": {"axes": [
        {"field": "gL12", "min": 0.0, "max": 0.02, "steps": 9},
        {"field": "tempR", "min": 0.5, "max": 1.5, "steps": 4}]}})
    configs = {target: config_for_target(target) for target in ("fig3", "fig21b", "fig2b")}
    made = Counter()
    original = SystemSpec.__init__

    def counted(self, *args, **kwargs):
        made["SystemSpec"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(SystemSpec, "__init__", counted)
    for config, rows, invalid in zip((*configs.values(), sweep), (2601, 1681, 1209, 36),
                                     (0, 0, 0, 16)):
        made.clear()
        _, table = compute_rows(config)
        assert len(table["error"]) == rows
        assert sum(str(error).startswith("DomainError") for error in table["error"]) == invalid
        assert made["SystemSpec"] <= 1 + invalid


def assert_one_stacked_call_per_stage(calls, matrices):
    """``calls`` (:func:`lapack_calls`) are one call of each routine of
    ``matrices``, handed the matrices it maps to."""
    assert Counter(name for name, _ in calls) == Counter(dict.fromkeys(matrices, 1))
    assert dict(calls) == matrices


@pytest.mark.parametrize("target,calls", [
    ("fig21b", {}), ("fig4b", {}),
    ("fig2a", {}), ("fig2b", {}), ("fig21a", {}), ("fig5b", {})])
def test_stacked_targets_take_one_stacked_call_per_stage(monkeypatch, target, calls):
    # the kernel, the recursion (its projected inverse by eliminating the
    # coherences) and the Newton core call no LAPACK routine.  calls maps a
    # routine to the matrices it is handed.
    routines = [name for name in dir(np.linalg)
                if callable(routine := getattr(np.linalg, name)) and not isinstance(routine, type)]
    made = lapack_calls(monkeypatch, routines)
    compute_rows(config_for_target(target))
    assert_one_stacked_call_per_stage(made, calls)


@pytest.mark.parametrize("target", sorted(REPRODUCE_TARGETS))
def test_reproduce_targets_call_no_eigvals(monkeypatch, target):
    # the second cumulant route is the Newton core, not LAPACK
    calls = lapack_calls(monkeypatch, ["eigvals", "eig"])
    run(config_for_target(target))
    assert calls == []


#: What reaches BLAS or LAPACK from numpy: the ``np.linalg`` module, the
#: ``@`` operator and the contractions.
LINEAR_ALGEBRA = ("linalg", "matmul", "dot", "einsum")


def linear_algebra_uses(source: str, allowed=()) -> list:
    """``(top-level name, line)`` of each use in ``source`` of
    :data:`LINEAR_ALGEBRA` (as a name or an attribute, or imported) or of
    ``@``, outside the top-level functions named in ``allowed``."""
    found = []
    for top in ast.parse(source).body:
        if getattr(top, "name", None) in allowed:
            continue
        for node in ast.walk(top):
            names = ([alias.name for alias in node.names] + [getattr(node, "module", None)]
                     if isinstance(node, (ast.Import, ast.ImportFrom)) else
                     [getattr(node, "attr", None), getattr(node, "id", None)])
            if (isinstance(getattr(node, "op", None), ast.MatMult)
                    or any(name and name.split(".")[-1] in LINEAR_ALGEBRA for name in names)):
                found.append((getattr(top, "name", None), node.lineno))
    return found


#: The one function of each module allowed linear algebra: the oracles
#: (the eigvals tracker, time integration, the superoperator construction).
ORACLES = {"fcs": "dominant_eigenvalue", "steady": "evolve", "liouvillian": "_master_rhs"}


def test_package_calls_no_linear_algebra_outside_the_oracles():
    seen = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "vflux").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert linear_algebra_uses(source, allowed=(ORACLES.get(path.stem),)) == [], path.name
        seen |= {(path.stem, name) for name, _ in linear_algebra_uses(source)}
    # each oracle's own use is seen
    assert seen == set(ORACLES.items())


def test_linear_algebra_uses_are_found():
    source = ("import numpy.linalg\nfrom numpy.linalg import inv\nfrom numpy import dot\n"
              "def f(a, b):\n    return np.linalg.inv(a) @ b\n"
              "def g(a, b):\n    a @= b\n    return np.einsum('ij', a) + matmul(a, b)\n"
              "def ok(a):\n    return np.linalg.eigvals(a)\n"
              "x = np.dot(1, 2)\n")
    assert linear_algebra_uses(source, allowed=("ok",)) == [
        (None, 1), (None, 2), (None, 3), ("f", 5), ("f", 5), ("g", 7), ("g", 8), ("g", 8),
        (None, 11)]


def test_batch_warns_like_the_scalar_loop(monkeypatch):
    # the recursion keeps the cumulants exactly real (every residue is
    # zero); with the threshold below zero every residue is warned about
    monkeypatch.setattr("vflux.fcs.IMAG_WARN", -1.0)
    batch = seeded_leak_specs(6) + seeded_conserving_specs(6)

    def texts(run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        return [(w.category, str(w.message)) for w in caught]

    for kind in KINDS:
        scalar = texts(lambda: [cumulants_perturbative(s, "R", kind, 4) for s in batch])
        assert len(scalar) >= 6
        assert texts(lambda: stacked(recursion, batch, "R", kind, 4)) == scalar
    reports = texts(lambda: [CurrentReport.from_spec(s) for s in batch])
    assert len(reports) >= 6
    # the grids with the noise warn about the recursion only, in point
    # order, and the others not at all
    for target in STACKED:
        expected = texts(lambda: [point_cells(target, s) for s in batch])
        assert texts(lambda: grid_cells(target, batch)) == expected
        assert expected == (reports if target in ("sweep", "fig21b", "fig4b") else [])


def test_fig21b_row_takes_one_stacked_call_per_stage(monkeypatch):
    # the whole target is one stack, with the degenerate corner in it
    fields, cells, evaluate = _fig21b(config_for_target("fig21b"))
    assert len(fields["eps1"]) == 1681 and not cells
    calls = lapack_calls(monkeypatch, ("eig", "svd", "eigvals", "det", "solve", "inv"))
    table = _rows(fields, cells, evaluate, columns=_TABLE["fig21b"][0])
    assert len(table["error"]) == 1681
    # the corner (gL12, gR12) = bounds is the last point and the only error
    assert [n for n, error in enumerate(table["error"]) if error] == [1680]
    assert table["error"][-1].startswith("DegenerateSteadyStateError: kernel not isolated")
    assert table["SeRR"][-1] is table["SeRR_fd"][-1] is None
    # the closed-form kernel, the recursion and the Newton core
    # call no LAPACK routine
    assert_one_stacked_call_per_stage(calls, {})


def test_multi_batch_rows_equal_single_batch_rows():
    # gL12 crosses its interference bound 0.01 on every tempR, so each grid
    # row holds DomainError rows between valid ones
    fields, cells, evaluate, batch = _sweep(build_config({
        "task": "sweep",
        "sweep": {"axes": [{"field": "tempR", "min": 0.5, "max": 1.0, "steps": 4},
                           {"field": "gL12", "min": 0.0, "max": 0.015, "steps": 7}]},
    }))
    assert batch == 7
    columns = _TABLE["sweep"][0]
    table = _rows(fields, cells, evaluate, batch, columns=columns)
    whole = _rows(fields, cells, evaluate, columns=columns)
    parts = [_rows({name: values[start:start + batch] for name, values in fields.items()},
                   cells, evaluate, columns=columns) for start in range(0, 28, batch)]
    single = {name: [cell for part in parts for cell in list(part[name])] for name in table}
    assert len(table["error"]) == 28
    assert {error is None for error in table["error"]} == {True, False}
    # repr round-trips every float, so equal reprs are equal bits
    for other in (whole, single):
        assert repr({name: list(cells) for name, cells in table.items()}) == repr(
            {name: list(cells) for name, cells in other.items()})
