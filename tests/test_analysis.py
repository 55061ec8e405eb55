from dataclasses import replace

import numpy as np
import pytest

from vflux.analysis import (
    RECTIFICATION_FLOOR,
    _tM_response,
    amplification,
    cyclic_amplification_analytic,
    default_deltaT_grid,
    default_tM_grid,
    max_amplification,
    max_rectification,
    max_rectification_batch,
    rectification,
)
from vflux.errors import (
    DomainError,
    IndeterminateAmplificationError,
    IndeterminateRectificationError,
    UsageError,
)
from vflux.config import config_for_target
from vflux.fcs import _projected_inverse
from vflux.liouvillian import build_generator
from vflux.model import PARTICLE, SystemSpec, bose_occupation, build_rates
from vflux.runner import SPEC_COLUMNS, _fig5a
from vflux.steady import steady_state
from vflux.transport import bath_currents, closed_form_JeR_resonant, particle_currents

from conftest import BOUND, cycle_spec, two_bath_spec


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
    # h = 0 divided by zero into NaN betas, and a negative h came back as
    # stencil_h < 0
    with pytest.raises(UsageError, match=f"h = {h} must be finite and > 0"):
        amplification(cycle_spec(), 1.0, h)


@pytest.mark.parametrize("grid", [np.array([[0.1, 0.2]]), np.array(0.5), [[0.5], [1.0]]])
def test_scans_reject_a_grid_that_is_not_one_dimensional(grid):
    # a 2-D bias grid raised IndexError, and max_amplification iterated the
    # rows of a 2-D tM grid
    with pytest.raises(UsageError, match="must be 1-D"):
        max_rectification_batch([two_bath_spec(BOUND, 0.0)], 1.0, grid)
    with pytest.raises(UsageError, match="must be 1-D"):
        max_rectification(two_bath_spec(BOUND, 0.0), 1.0, grid)
    with pytest.raises(UsageError, match="must be 1-D"):
        max_amplification(cycle_spec(), grid)


def test_tM_response_matches_the_analytic_response():
    # dP0/dTM = -R (dL/dTM) P0 (Schweitzer, J. Appl. Prob. 5, 401 (1968)),
    # with R the projected inverse and dL/dTM from the middle-bath rates
    # gM*n and gM*(1 + n), dn/dTM = n*(n + 1)*(delta/TM)/TM.  The stencil's
    # relative error reads at most 3.2e-9 on these 2,100 points.
    items, _ = _fig5a(config_for_target("fig5a"))
    # dL/dTM over gM*dn/dTM: the middle bath moves populations 1 <-> 2 and
    # damps both coherences
    pattern = np.zeros((5, 5))
    pattern[0, 0] = pattern[1, 1] = pattern[3, 3] = pattern[4, 4] = -1.0
    pattern[0, 1] = pattern[1, 0] = 1.0
    worst = 0.0
    for spec, _ in items:
        for tm in default_tM_grid().tolist():
            _, stencil = _tM_response(particle_currents, spec, tm)
            local = replace(spec, tempM=tm)
            rates = build_rates(local)
            gen = build_generator(local, rates)
            p0 = steady_state(gen).vector
            n = bose_occupation(local.delta, tm)
            dn = n * (n + 1.0) * (local.delta / tm) / tm
            dp0 = -(_projected_inverse(gen.matrix, p0) @ (local.gM * dn * pattern @ p0))
            analytic = np.array(bath_currents(rates, dp0, PARTICLE))
            analytic[2] += local.gM * dn * (p0[0] - p0[1]).real
            worst = max(worst, np.abs(analytic - stencil).max() / np.abs(stencil).max())
    assert worst <= 1e-8


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
    _, rows, _ = reproduce_outputs["fig3"]
    valid = [r for r in rows if r.get("error") is None]
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
