import math
import re
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from vflux.analysis import (
    AMPLIFICATION_FLOOR,
    RECTIFICATION_FLOOR,
    AmplificationResult,
    _tM_response,
    amplification,
    cyclic_amplification_analytic,
    default_deltaT_grid,
    default_tM_grid,
    max_amplification,
    max_rectification,
    max_rectification_columns,
    rectification,
)
from vflux.errors import (
    ConfigError,
    DegenerateSteadyStateError,
    DomainError,
    IndeterminateAmplificationError,
    IndeterminateRectificationError,
    UsageError,
    VfluxError,
)
from vflux.config import build_config, config_for_target
from vflux.liouvillian import build_generator
from vflux.model import (ENERGY, PARTICLE, SystemSpec, bose_occupation, build_rates, spec_arrays,
                         spec_at)
from vflux.runner import SPEC_COLUMNS, _fig5a, compute_rows
from vflux.steady import _error_text, steady_state
from vflux.transport import (bath_currents, closed_form_JeR_resonant, heat_currents,
                             particle_currents)

from conftest import (BOUND, DETUNED_SPEC, NOT_FINITE, cycle_spec, projected_inverse,
                      seeded_conserving_specs, seeded_leak_specs, table_rows, two_bath_spec)


def swap_coupling_sets(spec: SystemSpec) -> SystemSpec:
    return SystemSpec(spec.eps1, spec.eps2, spec.tempL, spec.tempM, spec.tempR,
                      spec.gR11, spec.gR22, spec.gR12,
                      spec.gL11, spec.gL22, spec.gL12, spec.gM)


def test_symmetric_interference_no_rectification():
    spec = two_bath_spec(0.6 * BOUND, 0.6 * BOUND)
    for dt in (0.2, 0.8, 1.5):
        assert rectification(spec, 1.0, dt).rj <= 1e-10


def test_zero_bias_indeterminate():
    with pytest.raises(IndeterminateRectificationError):
        rectification(two_bath_spec(BOUND, 0.0), 1.0, 0.0)


def test_bias_precondition():
    with pytest.raises(UsageError):
        rectification(two_bath_spec(), 1.0, 2.5)


def test_rectification_monotone_at_inset_couplings():
    spec = two_bath_spec(0.8 * BOUND, BOUND)
    values = [rectification(spec, 1.0, dt).rj for dt in np.arange(0.1, 1.81, 0.1)]
    assert np.all(np.diff(values) > 0.0)


def test_rectification_forward_backward_signs():
    res = rectification(two_bath_spec(0.8 * BOUND, BOUND), 1.0, 1.0)
    assert res.j_forward > 0.0 > res.j_backward
    assert 0.0 <= res.rj <= 1.0


def test_relabeling_invariance():
    # swapping the two coupling sets relabels the baths, which together
    # with reversing the bias leaves the factor unchanged; on the grid the
    # bias reversal is absorbed by the forward/backward max, so the swap
    # alone must reproduce the factor
    for gl, gr in ((0.8 * BOUND, BOUND), (0.3 * BOUND, 0.6 * BOUND), (BOUND, 0.1 * BOUND)):
        spec = two_bath_spec(gl, gr)
        for dt in (0.5, 1.2):
            a = rectification(spec, 1.0, dt).rj
            b = rectification(swap_coupling_sets(spec), 1.0, dt).rj
            assert a == pytest.approx(b, abs=1e-10)


def test_max_rectification_symmetric_zero():
    rj_max, _ = max_rectification(two_bath_spec(0.5 * BOUND, 0.5 * BOUND), 1.0)
    assert rj_max <= 1e-10


def test_max_rectification_monotone_case_picks_endpoint():
    grid = default_deltaT_grid(1.0)
    rj_max, dt_star = max_rectification(two_bath_spec(0.8 * BOUND, BOUND), 1.0, grid)
    assert dt_star == pytest.approx(grid[-1])
    assert rj_max == pytest.approx(rectification(two_bath_spec(0.8 * BOUND, BOUND),
                                                 1.0, float(grid[-1])).rj, abs=1e-12)


def test_max_rectification_all_indeterminate():
    # right bath fully decoupled: its current vanishes at every bias while
    # the steady state stays unique through the left and middle baths
    no_right = SystemSpec(1.1, 0.9, 1.0, 1.0, 1.0, 0.01, 0.01, 0.0, 0, 0, 0, 0.01)
    with pytest.raises(IndeterminateRectificationError):
        max_rectification(no_right, 1.0, np.array([0.5, 1.0]))


def test_cyclic_amplification_is_level_ratio():
    for tm in (0.2, 0.5, 1.0, 1.5):
        res = amplification(cycle_spec(tm), tm)
        assert res.betaR == pytest.approx(4.5, abs=1e-3)
        assert res.branch_residual <= 1e-6
        assert res.branch_theta == 1  # left and middle currents move together


def test_amplification_independent_of_middle_temperature():
    values = [amplification(cycle_spec(tm), tm).betaR for tm in np.linspace(0.2, 1.5, 14)]
    assert max(values) - min(values) <= 1e-3


def test_amplification_bypass_suppresses_gain():
    spec = cycle_spec(0.5, gamma=0.01)
    res = amplification(spec, 0.5)
    assert res.betaR < 1.0
    assert res.branch_residual <= 1e-6


def test_amplification_branch_identity_everywhere():
    for gamma in (0.0, 0.003, 0.007, 0.01):
        for tm in (0.3, 0.9, 1.7):
            res = amplification(cycle_spec(tm, gamma), tm)
            assert res.branch_residual <= 1e-6


def test_amplification_indeterminate_without_middle_bath():
    spec = two_bath_spec(0.0, 0.0)  # gM = 0: middle current identically zero
    with pytest.raises(IndeterminateAmplificationError):
        amplification(spec, 1.0)


def test_max_amplification_cyclic_closed_form():
    assert max_amplification(cycle_spec(1.0)) == pytest.approx(4.5, abs=1e-6)


def test_max_amplification_decreases_with_bypass():
    gammas = np.arange(0.0, 0.010001, 5e-4)
    values = [max_amplification(cycle_spec(1.0, g)) for g in gammas]
    assert np.all(np.diff(values) < 0.0)
    below = gammas[np.array(values) < 1.0]
    assert abs(below[0] - 0.006) <= 0.003


def test_max_amplification_skips_non_positive_middle_temperatures():
    # a stencil reaching tM <= 0 is skipped like an indeterminate point
    spec = cycle_spec(1.0, 0.004)
    positive = np.linspace(0.2, 1.5, 7)
    mixed = np.concatenate([[-0.5, 0.0], positive[:4], [-1e-3], positive[4:]])
    assert max_amplification(spec, mixed) == max_amplification(spec, positive)
    with pytest.raises(IndeterminateAmplificationError):
        max_amplification(spec, [-1.0, 0.0])


@pytest.mark.parametrize("h", [0.0, -1e-4, np.nan, np.inf])
def test_amplification_rejects_a_step_that_is_not_finite_and_positive(h):
    # h = 0 once divided by zero into NaN betas, and a negative h came back
    # as stencil_h < 0; the response is exact now, so no step reaches it
    with pytest.raises(TypeError):
        amplification(cycle_spec(), 1.0, h)
    with pytest.raises(TypeError):
        amplification(cycle_spec(), 1.0, h=h)
    with pytest.raises(ConfigError, match="amplify: unknown keys: h"):
        build_config({"task": "amplify", "amplify": {"tM": 1.0, "h": h}})


@pytest.mark.parametrize("tM", [0.0, -1e-4, np.nan, np.inf])
def test_amplification_rejects_a_middle_temperature_that_is_not_finite_and_positive(tM):
    # the spec's own DomainError for tempM; the stencil's step rule read
    # "tM - h = ... must stay positive" at tM <= 0
    with pytest.raises(DomainError, match=re.escape(f"tempM = {tM} must be")):
        amplification(cycle_spec(), tM)


@pytest.mark.parametrize("tM", ["x", True, np.bool_(True), 1e-3 + 0j, None], ids=repr)
def test_amplification_rejects_a_middle_temperature_that_is_not_a_real_number(tM):
    with pytest.raises(UsageError, match=re.escape(f"tM = {tM!r} must be a real number")):
        amplification(cycle_spec(), tM)


def test_amplification_takes_no_step():
    # the response is exact: no step argument, result field or config key
    with pytest.raises(TypeError):
        amplification(cycle_spec(), 1.0, 1e-4)
    assert "stencil_h" not in AmplificationResult.__dataclass_fields__
    columns, _ = compute_rows(build_config({"task": "amplify", "amplify": {"tM": 1.0}}))
    assert "h" not in columns


RECT, CYCLE = two_bath_spec(0.8 * BOUND, 0.0), cycle_spec()


@pytest.mark.parametrize("call,message", [
    # each raised TypeError (or numpy's UFuncTypeError), or ran a bool as 1.0
    (lambda: rectification(RECT, 1.0, "x"), "deltaT = 'x' must be a real number"),
    (lambda: rectification(RECT, "x", 0.5), "t0 = 'x' must be a real number"),
    (lambda: rectification(RECT, 1.0, True), "deltaT = True must be a real number"),
    (lambda: amplification(CYCLE, "x"), "tM = 'x' must be a real number"),
    (lambda: amplification(CYCLE, True), "tM = True must be a real number"),
    (lambda: max_rectification(RECT, "x"), "t0 = 'x' must be a real number"),
    (lambda: max_rectification(RECT, 1.0, ["a"]), "deltaT_grid[0] = 'a' must be a real number"),
    (lambda: max_amplification(CYCLE, ["x"]), "tM_grid[0] = 'x' must be a real number"),
    (lambda: max_amplification(CYCLE, [True, 1.0]), "tM_grid[0] = True must be a real number"),
    (lambda: max_amplification(CYCLE, [1.0, 0.5 + 1j]), "tM_grid[1] = (0.5+1j) must be a real number"),
    # every bias of the grid at least 2*t0: the scan stops at the first
    (lambda: max_rectification(RECT, 1.0, [2.5, 3.0]), "|deltaT| = 2.5 must stay below 2*t0 = 2.0"),
], ids=["rect-deltaT-str", "rect-t0-str", "rect-deltaT-bool", "amp-tM-str", "amp-tM-bool",
        "max-rect-t0-str", "max-rect-grid-str", "max-amp-grid-str", "max-amp-grid-bool",
        "max-amp-grid-complex", "max-rect-grid-beyond-2t0"])
def test_figures_of_merit_reject_arguments_that_are_not_real_numbers(call, message):
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        call()


def test_negative_bias_names_the_missing_forward_current():
    # at deltaT < 0 both currents flow, each the wrong way for its
    # configuration; "both currents vanish" is kept for when they do
    spec = build_config({"task": "rectify", "system": {"gL12": 0.008}}).spec
    with pytest.raises(IndeterminateRectificationError) as info:
        rectification(spec, 1.0, -0.5)
    j_f = heat_currents(replace(spec, tempL=0.75, tempR=1.25))[1]
    j_b = heat_currents(replace(spec, tempL=1.25, tempR=0.75))[1]
    assert j_f < -1e-4 and j_b > 1e-4
    assert str(info.value) == (f"no forward current: max(J_f, -J_b) = {max(j_f, -j_b):.3e} "
                               "at t0=1.0, deltaT=-0.5")
    with pytest.raises(IndeterminateRectificationError,
                       match="^both currents vanish at t0=1.0, deltaT=0.0$"):
        rectification(spec, 1.0, 0.0)


@pytest.mark.parametrize("grid", [np.array([[0.1, 0.2]]), np.array(0.5), [[0.5], [1.0]]])
def test_scans_reject_a_grid_that_is_not_one_dimensional(grid):
    # a 2-D bias grid raised IndexError, and max_amplification iterated the
    # rows of a 2-D tM grid
    with pytest.raises(UsageError, match="must be 1-D"):
        max_rectification_columns(spec_arrays([two_bath_spec(BOUND, 0.0)]), 1.0, grid)
    with pytest.raises(UsageError, match="must be 1-D"):
        max_rectification(two_bath_spec(BOUND, 0.0), 1.0, grid)
    with pytest.raises(UsageError, match="must be 1-D"):
        max_amplification(cycle_spec(), grid)


def stencil_response(spec: SystemSpec, tm: float) -> np.ndarray:
    """d/dTM of ``particle_currents`` as it was taken before the exact
    response: central differences with steps ``h = 1e-4*tm`` and ``h/2``,
    Richardson-refined once."""
    def j(t):
        return np.array(particle_currents(replace(spec, tempM=t)))

    h = 1e-4 * tm
    coarse = (j(tm + h) - j(tm - h)) / (2.0 * h)
    return (4.0 * (j(tm + h / 2.0) - j(tm - h / 2.0)) / h - coarse) / 3.0


def test_tM_response_matches_the_analytic_response():
    # dP0/dTM = -R (dL/dTM) P0 (Schweitzer, J. Appl. Prob. 5, 401 (1968)),
    # with R the projected inverse and dL/dTM from the middle-bath rates
    # gM*n and gM*(1 + n), dn/dTM = n*(n + 1)*(delta/TM)/TM.  On these 2,100
    # points the exact response reads at most 5.5e-14 relative against R
    # from LAPACK and 3.2e-9 against the stencil, the stencil's own error.
    fields, _, _ = _fig5a(config_for_target("fig5a"))
    # dL/dTM over gM*dn/dTM: the middle bath moves populations 1 <-> 2 and
    # damps both coherences
    pattern = np.zeros((5, 5))
    pattern[0, 0] = pattern[1, 1] = pattern[3, 3] = pattern[4, 4] = -1.0
    pattern[0, 1] = pattern[1, 0] = 1.0
    worst_lapack = worst_stencil = 0.0
    for spec in (spec_at(fields, n) for n in range(len(fields["eps1"]))):
        for tm in default_tM_grid().tolist():
            local = replace(spec, tempM=tm)
            exact = np.array(_tM_response(vars(local), PARTICLE)[0])
            rates = build_rates(local)
            gen = build_generator(local)
            p0 = steady_state(gen).vector
            n = bose_occupation(local.delta, tm)
            dn = n * (n + 1.0) * (local.delta / tm) / tm
            dp0 = -(projected_inverse(gen.matrix, p0) @ (local.gM * dn * pattern @ p0))
            lapack = np.array(bath_currents(rates, dp0, PARTICLE))
            lapack[2] += local.gM * dn * (p0[0] - p0[1]).real
            scale = np.abs(exact).max()
            worst_lapack = max(worst_lapack, np.abs(lapack - exact).max() / scale)
            worst_stencil = max(worst_stencil,
                                np.abs(stencil_response(spec, tm) - exact).max() / scale)
    assert worst_lapack <= 1e-12
    assert worst_stencil <= 1e-8


def test_max_amplification_takes_subnormal_middle_temperatures_in_any_order():
    # the stencil's default step 1e-4*tM underflowed to 0 at tM = 1e-320 and
    # gave a NaN ratio, which no later point replaced; the middle occupation
    # underflows to 0 there, so nothing responds
    spec = cycle_spec()
    assert max_amplification(spec, [1e-320, 0.5]) == max_amplification(spec, [0.5, 1e-320])
    assert max_amplification(spec, [1e-320, 0.5]) == max_amplification(spec, [0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IndeterminateAmplificationError, match="tM=1e-320$"):
            amplification(spec, 1e-320)
        with pytest.raises(IndeterminateAmplificationError, match="every grid point"):
            max_amplification(spec, [1e-320, 5e-324])


def outcome(call, *args):
    """The bits of a call's float or floats (``float.hex``, signed zeros
    apart), or the type and text of the VfluxError it raises."""
    try:
        value = call(*args)
    except VfluxError as exc:
        return type(exc), str(exc)
    return tuple(map(float.hex, value)) if isinstance(value, tuple) else float.hex(value)


def max_by_points(spec: SystemSpec, grid) -> float:
    """:func:`max_amplification` point by point, each point the response of
    one spec in Python numbers, with the skip rules and errors of the stack."""
    prefactor = cyclic_amplification_analytic(spec.eps1, spec.eps2)
    best = None
    for tm in np.asarray(grid, dtype=float).tolist():
        if not tm > 0.0:
            continue
        local = replace(spec, tempM=tm).require_valid()
        (_, dr, dm), ratio, isolated, usable = _tM_response(vars(local), PARTICLE)
        if not usable:
            raise DegenerateSteadyStateError(_error_text(ratio, isolated))
        if abs(dm) > AMPLIFICATION_FLOOR and not math.isnan(abs(dr) / abs(dm)):
            best = abs(dr) / abs(dm) if best is None else max(best, abs(dr) / abs(dm))
    if best is None:
        raise IndeterminateAmplificationError("every grid point was indeterminate")
    return prefactor * best


def amplification_by_point(spec: SystemSpec, tm: float):
    """:func:`amplification`'s derivatives from one point's response."""
    local = replace(spec, tempM=tm).require_valid()
    d, ratio, isolated, usable = _tM_response(vars(local), ENERGY)
    if not usable:
        raise DegenerateSteadyStateError(_error_text(ratio, isolated))
    if abs(d[2]) <= AMPLIFICATION_FLOOR:
        raise IndeterminateAmplificationError(
            f"middle-bath current does not respond to tM at tM={tm}")
    return d


#: Grids with points the scan skips (tM <= 0, NaN, a subnormal tM) and one
#: whose third point is not valid (tempM = inf).
GRIDS = ([0.3, -0.5, np.nan, 0.0, 1e-320, 0.9, 1.6], [0.7, 1.2, np.inf, 0.4])


def amplification_corpus() -> list[SystemSpec]:
    specs = seeded_conserving_specs(12, seed=32) + seeded_leak_specs(6, seed=32)
    return [*specs, *(replace(spec, gM=0.0) for spec in specs[:3]),
            replace(specs[0], gL12=1.0), replace(specs[1], eps2=specs[1].eps1),
            NOT_FINITE, cycle_spec(0.5, 0.004), DETUNED_SPEC]


def test_one_response_core_serves_both_shapes():
    # max_amplification's stack and amplification's point are the one core
    # of _tM_response, bit for bit and outcome for outcome
    kinds = Counter()
    for spec in amplification_corpus():
        for grid in GRIDS:
            got = outcome(max_amplification, spec, grid)
            assert got == outcome(max_by_points, spec, grid), (spec, grid)
            kinds[got[0] if isinstance(got, tuple) else float] += 1
        for tm in (0.4, 1.3, -0.2, np.nan, 1e-320):
            got = outcome(lambda s, t: amplification(s, t).dJdTm, spec, tm)
            assert got == outcome(amplification_by_point, spec, tm), (spec, tm)
            kinds[got[0] if isinstance(got[0], type) else tuple] += 1
    # every kind of outcome is met
    assert set(kinds) == {float, tuple, DomainError, DegenerateSteadyStateError,
                          IndeterminateAmplificationError}


def test_cyclic_amplification_analytic_values():
    assert cyclic_amplification_analytic(1.1, 0.9) == pytest.approx(4.5, rel=1e-12)
    assert cyclic_amplification_analytic(2.0, 1.0) == 1.0
    assert cyclic_amplification_analytic(1.0, 0.99) == pytest.approx(99.0, rel=1e-9)
    with pytest.raises(DomainError):
        cyclic_amplification_analytic(1.0, 1.0)


def closed_form_rj(spec: SystemSpec, t0: float, deltaT: float) -> float:
    """The rectification factor from closed_form_JeR_resonant; -inf where
    it is indeterminate."""
    j_f = closed_form_JeR_resonant(replace(spec, tempL=t0 + deltaT / 2.0, tempR=t0 - deltaT / 2.0))
    j_b = closed_form_JeR_resonant(replace(spec, tempL=t0 - deltaT / 2.0, tempR=t0 + deltaT / 2.0))
    den = max(j_f, -j_b)
    return abs(j_f + j_b) / den if den > RECTIFICATION_FLOOR else -np.inf


def test_fig3_matches_resonant_closed_form(reproduce_outputs):
    # the fig3 base system is resonant two-bath with equal diagonal
    # couplings, the whole domain of the closed form
    valid = [r for r in table_rows(reproduce_outputs["fig3"][1]) if r["error"] is None]
    off_diagonal = [r for r in valid if r["gL12"] != r["gR12"]]
    diagonal = [r for r in valid if r["gL12"] == r["gR12"]]
    assert (len(off_diagonal), len(diagonal)) == (2550, 50)
    for row in off_diagonal:
        spec = SystemSpec(**{name: row[name] for name in SPEC_COLUMNS})
        grid = default_deltaT_grid(row["t0"])
        rj = closed_form_rj(spec, row["t0"], row["deltaT_star"])
        assert abs(rj - row["rj_max"]) <= 1e-10 * row["rj_max"]
        # the first maximum in bias order, as the scan takes it
        scan = [closed_form_rj(spec, row["t0"], float(dt)) for dt in grid]
        assert float(grid[int(np.argmax(scan))]) == row["deltaT_star"]
    assert max(r["rj_max"] for r in diagonal) <= 1e-12
