from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from vflux.errors import DegenerateSteadyStateError, UsageError
from vflux.fcs import cumulants_finite_difference, cumulants_perturbative, first_cumulant_direct
from vflux.liouvillian import build_generator
from vflux.model import ENERGY, PARTICLE, SystemSpec, build_rates
from vflux.steady import (
    steady_state,
    steady_state_resonant_two_bath,
    steady_state_time_integration,
)
from vflux.transport import (
    CurrentReport,
    closed_form_JR_no_interference,
    closed_form_JeR_resonant,
    heat_currents,
    particle_currents,
)

from conftest import (
    BOUND,
    FIGURE_SPECS,
    MAX_BIAS_SPEC,
    count_calls,
    cycle_spec,
    seeded_leak_specs,
    two_bath_spec,
)

# frozen with 50-digit arithmetic: 2*gamma*eps*(nL-nR)/(2+3nL+3nR)
# at gamma=0.01, eps=1, TL=2, TR=1
J_R_SYMMETRIC = 0.0022926406333591501


def test_equilibrium_currents_vanish():
    spec = two_bath_spec(0.4 * BOUND, 0.7 * BOUND, tempL=1.0, tempR=1.0)
    je = heat_currents(spec)
    jp = particle_currents(spec)
    assert max(abs(j) for j in je + jp) <= 1e-12


def test_energy_conservation_and_cumulant_identity():
    je = heat_currents(MAX_BIAS_SPEC)
    assert abs(je[0] + je[1] + je[2]) <= 1e-12
    assert je[1] == pytest.approx(first_cumulant_direct(MAX_BIAS_SPEC, "R", ENERGY),
                                  abs=1e-15)


def test_cyclic_particle_current_pattern():
    spec = cycle_spec(0.5)
    jp = particle_currents(spec)
    assert jp[2] == pytest.approx(jp[1], abs=1e-15)   # middle equals right
    assert jp[0] == pytest.approx(-jp[1], abs=1e-15)  # left is the return flow
    assert jp[1] == pytest.approx(first_cumulant_direct(spec, "R", PARTICLE), abs=1e-15)


def test_cyclic_energy_particle_proportionality():
    spec = cycle_spec(0.8)
    je = heat_currents(spec)
    jp_r = particle_currents(spec)[1]
    assert je[1] == pytest.approx(0.9 * jp_r, abs=1e-12)
    assert je[0] == pytest.approx(-1.1 * jp_r, abs=1e-12)
    assert je[2] == pytest.approx(0.2 * jp_r, abs=1e-12)


def test_resonant_closed_form_symmetric_value():
    for factor in (0.0, 0.5, 1.0):
        spec = two_bath_spec(factor * BOUND, factor * BOUND)
        assert closed_form_JeR_resonant(spec) == pytest.approx(J_R_SYMMETRIC, rel=1e-12)


def test_resonant_closed_form_matches_generic_path():
    for gl, gr in ((0.0, 0.0), (BOUND, 0.0), (0.3 * BOUND, 0.8 * BOUND), (0.9 * BOUND, 0.5 * BOUND)):
        spec = two_bath_spec(gl, gr)
        ss = steady_state_resonant_two_bath(spec)
        generic = heat_currents(spec, ss)[1]
        assert closed_form_JeR_resonant(spec) == pytest.approx(generic, abs=1e-12)


def test_resonant_closed_form_preconditions():
    with pytest.raises(UsageError):
        closed_form_JeR_resonant(cycle_spec())
    uneq = SystemSpec(1, 1, 2, 1, 1, 0.01, 0.02, 0, 0.01, 0.01, 0, 0)
    with pytest.raises(UsageError):
        closed_form_JeR_resonant(uneq)


def test_no_interference_closed_form_matches_generic():
    spec = SystemSpec(1.2, 0.8, 2.0, 1.0, 0.7, 0.012, 0.007, 0.0, 0.009, 0.016, 0.0, 0.0)
    generic = heat_currents(spec)[1]
    assert closed_form_JR_no_interference(spec) == pytest.approx(generic, abs=1e-12)


def test_no_interference_closed_form_preconditions():
    with pytest.raises(UsageError):
        closed_form_JR_no_interference(MAX_BIAS_SPEC)
    with pytest.raises(UsageError):
        closed_form_JR_no_interference(cycle_spec())


def test_single_channel_limit_antisymmetry():
    # equal couplings: the current is exactly antisymmetric under
    # exchanging the two bath temperatures
    def current(t_l, t_r):
        spec = SystemSpec(1.0, 0.0, t_l, 1.0, t_r, 0.01, 0.0, 0.0, 0.01, 0.0, 0.0, 0.0)
        return closed_form_JR_no_interference(spec)

    for dt in (0.4, 1.0, 1.8):
        assert current(1.0 + dt / 2, 1.0 - dt / 2) == -current(1.0 - dt / 2, 1.0 + dt / 2)


def test_single_channel_limit_asymmetric_rectifies():
    def current(t_l, t_r):
        spec = SystemSpec(1.0, 0.0, t_l, 1.0, t_r, 0.02, 0.0, 0.0, 0.005, 0.0, 0.0, 0.0)
        return closed_form_JR_no_interference(spec)

    j_f = current(1.5, 0.5)
    j_b = current(0.5, 1.5)
    rj = abs(j_f + j_b) / max(j_f, -j_b)
    assert rj > 1e-4


def test_interference_term_continuity():
    base = two_bath_spec(0.0, 0.0)
    tiny = two_bath_spec(1e-12, 1e-12)
    assert abs(heat_currents(base)[1] - heat_currents(tiny)[1]) <= 1e-8


def test_noise_power_decoupled_bath_zero():
    spec = SystemSpec(1.1, 0.9, 2.0, 1.0, 0.5, 0.01, 0.01, 0.0, 0.0, 0.0, 0.0, 0.01)
    assert cumulants_perturbative(spec, "R", ENERGY, order=2).noise_power == 0.0
    # the finite-difference route divides eigenvalue rounding noise by h^2
    assert abs(cumulants_finite_difference(spec, "R", ENERGY, order=2).noise_power) <= 1e-6


def test_noise_power_carries_fd_diagnostic():
    spec = cycle_spec(0.5)
    value = cumulants_perturbative(spec, "R", ENERGY, order=2).noise_power
    finite_difference = cumulants_finite_difference(spec, "R", ENERGY, order=2).noise_power
    assert finite_difference == pytest.approx(value, rel=1e-4)


def test_current_report_clean_on_figure_specs():
    for spec in FIGURE_SPECS:
        report = CurrentReport.from_spec(spec)
        assert report.warnings == ()
        assert report.conservation_residual_energy <= 1e-10
        assert report.conservation_residual_particle <= 1e-10
        assert report.SeRR >= -1e-10


def test_detuned_interference_energy_leak_is_the_documented_artifact():
    # off resonance with interference the master equation leaks energy at
    # the coherence-weighted rate below; particle conservation stays exact
    for spec in seeded_leak_specs(10):
        ss = steady_state(build_generator(spec))
        je = heat_currents(spec, ss)
        jp = particle_currents(spec, ss)
        assert abs(jp[0] + jp[1]) <= 1e-12
        r = build_rates(spec)
        csum = (ss.vector[3] + ss.vector[4]).real
        predicted = 0.5 * spec.delta * (r.gamma_minus(1, 2, 1) - r.gamma_minus(1, 2, 2)) * csum
        assert je[0] + je[1] + je[2] == pytest.approx(predicted, abs=1e-15)


def test_detuned_interference_report_flags_energy_leak():
    spec = seeded_leak_specs(1, seed=4242)[0]
    report = CurrentReport.from_spec(spec)
    assert "energy-conservation" in report.warnings
    assert "particle-conservation" not in report.warnings


def _same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_report_is_the_composition_of_the_public_functions():
    for spec in FIGURE_SPECS + seeded_leak_specs(5):
        report = CurrentReport.from_spec(spec)
        je, jp = heat_currents(spec), particle_currents(spec)
        noise = cumulants_perturbative(spec, "R", ENERGY, 2).noise_power
        assert all(_same_bits(a, b) for a, b in zip(
            (report.JeL, report.JeR, report.JeM, report.JpL, report.JpR, report.JpM,
             report.SeRR), (*je, *jp, noise)))


def test_given_state_gives_the_currents_and_the_kernel_the_noise():
    spec = MAX_BIAS_SPEC
    # a relaxed state, not the kernel's bits
    state = steady_state_time_integration(build_generator(spec), t_end=50.0)
    assert not np.array_equal(state.vector, steady_state(build_generator(spec)).vector)
    report = CurrentReport.from_spec(spec, state)
    assert (report.JeL, report.JeR, report.JeM) == heat_currents(spec, state)
    assert (report.JpL, report.JpR, report.JpM) == particle_currents(spec, state)
    assert _same_bits(report.SeRR, cumulants_perturbative(spec, "R", ENERGY, 2).noise_power)


def test_given_state_without_noise_solves_no_kernel():
    # the corner has no isolated kernel; a given state still has currents
    corner = two_bath_spec(BOUND, BOUND)
    state = steady_state(build_generator(MAX_BIAS_SPEC))
    report = CurrentReport.from_spec(corner, state, include_noise=False)
    assert report.JeR == heat_currents(corner, state)[1] and np.isnan(report.SeRR)
    with pytest.raises(DegenerateSteadyStateError):
        CurrentReport.from_spec(corner, state)


@pytest.mark.parametrize("given,include_noise,solves", [
    (False, True, 1), (False, False, 1), (True, True, 1), (True, False, 0)])
def test_report_builds_rates_once_and_solves_at_most_once(monkeypatch, given, include_noise,
                                                           solves):
    # a fresh spec object takes one rate set and at most one kernel; the
    # same object again reads them from its memo record and builds nothing
    spec = replace(MAX_BIAS_SPEC)
    state = steady_state(build_generator(replace(spec))) if given else None
    calls = count_calls(monkeypatch, ("RateSet", "steady_state"))
    first = CurrentReport.from_spec(spec, state, include_noise)
    assert calls == Counter({"RateSet": 1, "steady_state": solves})
    calls.clear()
    assert repr(CurrentReport.from_spec(spec, state, include_noise)) == repr(first)
    assert not calls
