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
stack, to one stacked LAPACK call per stage.  The evaluator of the noise
grids reads its cells as arrays; it is held to the one-point public routes
and must build no per-point object.  A grid of several batches
must give the rows its batches give one at a time.  The rectification
scan, which solves a spec's backward bias as its L<->R mirror's forward
bias, is held to the point scan on batches with mirror pairs, and the
``fig3`` bytes to the golden digest at any stack size.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import astuple, fields, replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vflux import analysis
from vflux.analysis import (_factor, _mirror_rows, default_deltaT_grid,
                            max_rectification_batch, rectification)
from vflux.config import build_config, config_for_target
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
    FD_STEP,
    FINITE_DIFFERENCE,
    CumulantSet,
    _difference_batch,
    _recursion_batch,
    cumulants_finite_difference,
    cumulants_perturbative,
    dominant_eigenvalue,
    richardson,
)
from vflux.liouvillian import (
    TRACE_VECTOR,
    _counting_matrix,
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
from vflux.runner import (SPEC_COLUMNS, _fig21b, _noise, _rows, _sweep, compute_rows,
                          render_csv)
from vflux.steady import SteadyState, _real_columns, steady_state, steady_state_batch
from vflux.transport import (
    CONSERVATION_TOL,
    CurrentReport,
    _reports_batch,
    bath_currents,
    heat_currents,
    particle_currents,
)

from conftest import DETUNED_SPEC, invalid_specs, seeded_conserving_specs, seeded_leak_specs

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
    return evaluate_valid(specs, lambda rates: core(rates, *args))


def recursion(rates, bath, kind, order) -> list:
    """The stacked recursion on the stack's own kernels."""
    return _recursion_batch(rates, steady_state_batch(_fill_block(rates)), bath, kind, order)


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
    rates = RateSet(spec_arrays(batch))
    matrices = _fill_block(rates)
    states = steady_state_batch(matrices)
    je = bath_currents(rates, states.vectors.T, ENERGY)
    jp = bath_currents(rates, states.vectors.T, PARTICLE)
    assert not states.errors
    for n, spec in enumerate(batch):
        one = build_rates(spec)
        for table in ("gainL", "gainR", "lossL", "lossR"):
            for i, j, k in product((0, 1), repeat=3):
                assert same_bits(getattr(rates, table)[i][j][k][n], getattr(one, table)[i][j][k])
        assert same_bits(rates.gain_M[n], one.gain_M) and same_bits(rates.loss_M[n], one.loss_M)
        gen = build_generator(spec)
        ss = steady_state(gen)
        assert same_bits(matrices[n], gen.matrix)
        assert same_bits(states.vectors[n], ss.vector)
        assert same_bits(states.residuals[n], ss.residual)
        assert bool(states.positivity_warnings[n]) == ss.positivity_warning
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
    matrices = _fill_block(RateSet(spec_arrays(batch)))
    for m, spec in zip(matrices, batch):
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
    for spec, (_, report) in zip(batch, stacked(_reports_batch, batch, False)):
        assert report.conservation_residual_energy <= CONSERVATION_TOL
        assert report.conservation_residual_particle <= CONSERVATION_TOL


@PROPERTY
@given(st.lists(specs(), min_size=1, max_size=4), st.booleans())
def test_current_reports_match_from_spec(batch, include_noise):
    for spec, (ss, report) in zip(batch, stacked(_reports_batch, batch, include_noise)):
        assert same_bits(ss.vector, steady_state(build_generator(spec)).vector)
        expected = CurrentReport.from_spec(spec, include_noise=include_noise)
        assert report.warnings == expected.warnings
        assert all(same_bits(getattr(report, f.name), getattr(expected, f.name))
                   for f in fields(CurrentReport) if f.name != "warnings")


def outcome(fn, *args):
    try:
        return fn(*args)
    except VfluxError as exc:
        return exc


def assert_scan_matches_the_point_scan(batch, t0, grid) -> list:
    """The outcomes of one stacked scan of ``batch``, each held to
    :func:`scalar_scan`, bit for bit and error text for error text."""
    outcomes = max_rectification_batch(batch, t0, grid)
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
    outcomes = max_rectification_batch(corpus, t0, grid)
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
        assert [str(out) for out in max_rectification_batch(batch, t0, grid)] == [
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


def test_fig3_solves_each_forward_point_once(monkeypatch):
    # every (gL12, gR12) cell's mirror (gR12, gL12) is in the grid, so the
    # 2,601 specs take 2,601 rows of 50 hot-left biases: 130,050 points,
    # where forward and backward points of each spec took 260,100
    points = []

    def counted(re, delta):
        out = _real_columns(re, delta)
        points.append(np.broadcast(*out[0]).size)
        return out

    monkeypatch.setattr(analysis, "_real_columns", counted)
    compute_rows(config_for_target("fig3"))
    assert sum(points) == 51 * 51 * 50
    assert max(points) <= analysis.SCAN_STACK_POINTS


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
    rates = RateSet(spec_arrays([corner]))
    assert steady_state_batch(_fill_block(rates)).errors == {0: expected}
    (out,) = stacked(_reports_batch, [corner], False)
    assert isinstance(out, DegenerateSteadyStateError) and str(out) == expected

    t0, grid = temp_l, np.array([0.5 * temp_l, temp_l])
    with pytest.raises(DegenerateSteadyStateError) as info:
        scalar_scan(corner, t0, grid)
    expected = str(info.value)
    (out,) = max_rectification_batch([corner], t0, grid)
    assert isinstance(out, DegenerateSteadyStateError) and str(out) == expected


#: Occupations near 1e308 overflow the kernel's products to inf and nan.
OVERFLOWING = SystemSpec(1e-308, 1e-308, 1.0, 1.0, 1.0, 0.01, 0.01, 0.005, 0.01, 0.01, 0.0, 0.0)


def test_overflowing_rates_fail_silently_like_one_point():
    # one point's Python floats overflow without a warning, and so must a stack
    spec = OVERFLOWING
    t0, grid = 0.5, np.array([0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSteadyStateError, match="Hadamard ratio nan") as info:
            scalar_scan(spec, t0, grid)
        (scan,) = max_rectification_batch([spec], t0, grid)
        with pytest.raises(DegenerateSteadyStateError) as report_info:
            CurrentReport.from_spec(spec)
        (report,) = evaluate_valid([spec], _reports_batch)
        (noise,) = _noise([(spec, {})])
    assert isinstance(scan, DegenerateSteadyStateError) and str(scan) == str(info.value)
    for out in (report, noise):
        assert isinstance(out, DegenerateSteadyStateError) and str(out) == str(report_info.value)


@PROPERTY
@given(floats(1.01, 3.0), st.integers(2, 6))
def test_sweep_beyond_bound_is_a_domain_error_row(reach, steps):
    config = build_config({
        "task": "sweep",
        "system": {"gL12": 0.005},
        "sweep": {"axes": [{"field": "gL12", "min": 0.0, "max": reach * 0.01, "steps": steps}]},
    })
    _, rows = compute_rows(config)
    assert len(rows) == steps
    for row in rows:
        spec = SystemSpec(**{name: row[name] for name in SPEC_COLUMNS})
        if row["gL12"] > 0.01:
            with pytest.raises(DomainError) as info:
                spec.require_valid()
            assert row["error"] == f"DomainError: {info.value}"
            assert "JeR" not in row
        else:
            assert "error" not in row
            assert row["JeR"] == CurrentReport.from_spec(spec).JeR


def test_occupation_without_finite_value_is_a_domain_error_row():
    # eps2/temp leaves no finite occupation at eps2 = 1e-320
    config = build_config({
        "task": "sweep",
        "system": {"eps1": 1.0, "gL12": 0.0, "gR12": 0.0, "gM": 0.0},
        "sweep": {"axes": [{"field": "eps2", "min": 1e-320, "max": 0.5, "steps": 2}]},
    })
    _, rows = compute_rows(config)
    bad = SystemSpec(**{name: rows[0][name] for name in SPEC_COLUMNS})
    with pytest.raises(DomainError, match="occupation: eps2 = 1e-320") as info:
        bad.require_valid()
    assert rows[0]["error"] == f"DomainError: {info.value}"
    good = SystemSpec(**{name: rows[1][name] for name in SPEC_COLUMNS})
    assert "error" not in rows[1] and rows[1]["JeR"] == heat_currents(good)[1]


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
        if isinstance(out, tuple) and isinstance(out[1], CurrentReport):
            return repr(astuple(out[1]))
        return repr(out)

    t0, grid = 1.0, np.array([0.4, 1.2])
    for evaluate in (lambda specs: stacked(_reports_batch, specs, False),
                     lambda specs: max_rectification_batch(specs, t0, grid),
                     lambda specs: stacked(recursion, specs, "R", ENERGY, 4),
                     lambda specs: stacked(_difference_batch, specs, "L", PARTICLE, 2, FD_STEP)):
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
    if contenders[0] - contenders[1] < BRANCH_TOL:
        raise BranchError(f"two eigenvalues within {BRANCH_TOL} of the maximal real part "
                          f"{eigvals.real.max():.3e}")
    return tracked


def tracked_differences(spec, bath, kind, order, h):
    """Finite-difference cumulants from two separate ramps, to h and to
    h/2 (four spectra); the error of step h is raised first."""
    rates = build_rates(spec)

    def at(step):
        return tracked_eigenvalue(rates, CountingFields(step if bath == "L" else 0.0,
                                                        step if bath == "R" else 0.0, kind))

    e_h, e_h2 = at(h), at(h / 2.0)
    values = [richardson(e_h.imag / h, e_h2.imag / (h / 2.0))]
    if order == 2:
        values.append(richardson(-2.0 * e_h.real / h**2, -2.0 * e_h2.real / (h / 2.0)**2))
    return CumulantSet(bath, kind, tuple(values), FINITE_DIFFERENCE, 0.0)


@st.composite
def corners(draw):
    """Specs with both cross couplings on their bound, where the counted
    branch and the dark eigenvalue collide."""
    eps, temp_l = draw(floats(0.5, 2.0)), draw(floats(1.0, 3.0))
    frac, g = draw(floats(0.3, 0.7)), draw(floats(0.002, 0.02))
    return SystemSpec(eps, eps, temp_l, 1.0, frac * temp_l, g, g, g, g, g, g, 0.0)


@PROPERTY
@given(st.lists(st.one_of(specs(), corners()), min_size=1, max_size=5), st.sampled_from(BATHS),
       st.sampled_from(KINDS), st.integers(1, 2), st.sampled_from((FD_STEP, 1e-6, 1e-2)),
       st.sampled_from((0.0, 1e-5, -3e-3, 0.2, 1e-3 + 2e-3j, 0.3 - 0.1j)))
def test_finite_difference_cumulants_match_scalar_bitwise(batch, bath, kind, order, h, chi):
    differences = stacked(_difference_batch, batch, bath, kind, order, h)
    field = CountingFields(chi if bath == "L" else 0.0, chi if bath == "R" else 0.0, kind)
    for spec, out in zip(batch, differences):
        expected = outcome(tracked_differences, spec, bath, kind, order, h)
        assert same_cumulants(out, expected)
        assert same_cumulants(outcome(cumulants_finite_difference, spec, bath, kind, order, h),
                              expected)
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
    differences = stacked(_difference_batch, batch, bath, kind, 2, FD_STEP)
    assert isinstance(recursions[pos], DegenerateSteadyStateError)
    assert isinstance(differences[pos], BranchError)
    for spec, rec, fd in zip(batch, recursions, differences):
        assert same_cumulants(rec, outcome(cumulants_perturbative, spec, bath, kind, 2))
        assert same_cumulants(fd, outcome(cumulants_finite_difference, spec, bath, kind, 2))


# ---------------------------------------------------------------------------
# The noise grids (fig21b, fig4b), read as arrays, against the point routes.

@st.composite
def near_corners(draw):
    """Specs a relative 1e-8 off a corner on the right: the kernel is
    isolated, but the branch is ambiguous at both steps of the stencil,
    with different error texts."""
    corner = draw(corners())
    return replace(corner, gR12=(1.0 - 1e-8) * corner.gR12)


#: Fixed specs of every kind a noise grid meets: both seeded corpora, the
#: invalid specs and the overflowing one.
NOISE_POOL = (seeded_conserving_specs(12) + seeded_leak_specs(6)
              + [spec for _, spec in invalid_specs()] + [OVERFLOWING])


def noise_point(spec) -> dict:
    """The cells of ``runner._noise`` from the public one-point routes:
    the spec's DomainError, then the kernel's error, then the BranchError."""
    report = CurrentReport.from_spec(spec)
    return {"JeR": report.JeR, "SeRR": report.SeRR,
            "SeRR_fd": cumulants_finite_difference(spec, "R", ENERGY, 2).noise_power}


@PROPERTY
@given(st.lists(st.one_of(st.sampled_from(NOISE_POOL), specs(), corners(), near_corners()),
                min_size=1, max_size=8))
def test_noise_cells_match_the_point_routes(batch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cells = _noise([(spec, {}) for spec in batch])
    assert len(cells) == len(batch)
    for spec, out in zip(batch, cells):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = outcome(noise_point, spec)
            # the point route's stencil, in turn, raises the error of step h first
            fd = outcome(tracked_differences, spec, "R", ENERGY, 2, FD_STEP)
        if isinstance(expected, VfluxError):
            assert type(out) is type(expected) and str(out) == str(expected)
            if isinstance(expected, BranchError):
                assert type(fd) is BranchError and str(fd) == str(expected)
        else:
            assert list(out) == ["JeR", "SeRR", "SeRR_fd"]
            assert all(type(value) is float for value in out.values())
            assert all(same_bits(out[name], expected[name]) for name in out)
            assert same_bits(expected["SeRR_fd"], fd.noise_power)


def test_noise_reports_the_kernel_error_before_the_branch_error():
    # an exact corner fails both, a near one the stencil only
    corner = SystemSpec(1.0, 1.0, 2.0, 1.0, 1.0, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.0)
    near = replace(corner, gR12=(1.0 - 1e-8) * corner.gR12)
    fd = [outcome(cumulants_finite_difference, spec, "R", ENERGY, 2) for spec in (corner, near)]
    assert all(isinstance(out, BranchError) for out in fd)
    first, second, valid = _noise([(corner, {}), (near, {}), (DETUNED_SPEC, {})])
    assert isinstance(first, DegenerateSteadyStateError)
    assert isinstance(second, BranchError) and str(second) == str(fd[1])
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
    rows = _rows(*_fig21b(config_for_target("fig21b")))
    assert len(rows) == 1681 and not made


def test_batch_warns_like_the_scalar_loop(monkeypatch):
    # with the threshold at zero every nonzero residue is warned about
    monkeypatch.setattr("vflux.fcs.IMAG_WARN", 0.0)
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
    assert texts(lambda: stacked(_reports_batch, batch)) == reports
    # the noise grids warn about the recursion only, in point order
    assert texts(lambda: _noise([(s, {}) for s in batch])) == texts(
        lambda: [noise_point(s) for s in batch]) == reports


def test_fig21b_row_takes_one_stacked_call_per_stage(monkeypatch):
    # the whole target is one stack, with the degenerate corner in it
    items, evaluate, batch = _fig21b(config_for_target("fig21b"))
    assert batch == len(items) == 1681
    calls = Counter()
    for name in ("eig", "svd", "eigvals", "det", "solve", "inv"):
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    rows = _rows(items, evaluate, batch)
    assert len(rows) == 1681
    # the corner (gL12, gR12) = bounds is the last item and the only error
    assert [n for n, row in enumerate(rows) if "error" in row] == [1680]
    assert rows[-1]["error"].startswith("DegenerateSteadyStateError: kernel not isolated")
    # the closed-form kernel calls no LAPACK routine; the projected inverse
    # takes one, and the stencil one spectrum each at h/4, h/2 and h
    assert calls == Counter({"eig": 0, "svd": 0, "det": 0, "solve": 0, "inv": 1, "eigvals": 3})


def test_multi_batch_rows_equal_single_batch_rows():
    # gL12 crosses its interference bound 0.01 on every tempR, so each grid
    # row holds DomainError rows between valid ones
    items, evaluate, batch = _sweep(build_config({
        "task": "sweep",
        "sweep": {"axes": [{"field": "tempR", "min": 0.5, "max": 1.0, "steps": 4},
                           {"field": "gL12", "min": 0.0, "max": 0.015, "steps": 7}]},
    }))
    assert batch == 7
    rows = _rows(items, evaluate, batch)
    single = [row for start in range(0, len(items), batch)
              for row in _rows(items[start:start + batch], evaluate, batch)]
    assert len(rows) == len(items) == 28
    assert {"error" in row for row in rows} == {True, False}
    # repr round-trips every float, so equal reprs are equal bits
    assert repr(rows) == repr(single)
