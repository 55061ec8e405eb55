import re

import numpy as np
import pytest

from vflux.errors import BranchError, DegenerateSteadyStateError, UsageError
from vflux.fcs import (
    cumulants_finite_difference,
    cumulants_perturbative,
    dominant_eigenvalue,
    first_cumulant_direct,
    pseudo_inverse_R,
)
from vflux.liouvillian import TRACE_VECTOR, build_generator
from vflux.model import ENERGY, PARTICLE, CountingFields, RateSet, SystemSpec
from vflux.steady import steady_state, steady_state_resonant_two_bath
from vflux.transport import heat_currents, particle_currents

from conftest import BOUND, FIGURE_SPECS, MAX_BIAS_SPEC, cycle_spec, two_bath_spec


def test_dominant_eigenvalue_zero_field():
    assert abs(dominant_eigenvalue(two_bath_spec(), CountingFields.zero(ENERGY))) <= 1e-12


def test_dominant_eigenvalue_leading_taylor():
    spec = cycle_spec(1.0)
    chi = 1e-4
    e0 = dominant_eigenvalue(spec, CountingFields(0.0, chi, ENERGY))
    j_r = heat_currents(spec)[1]
    assert e0.imag / chi == pytest.approx(j_r, rel=1e-6)
    assert e0.real < 0.0


def test_dominant_eigenvalue_branch_error_on_degenerate():
    # at the double dark-state corner the counted branch and the dark
    # eigenvalue collide near chi = 0, exactly where cumulants live
    spec = two_bath_spec(BOUND, BOUND)
    with pytest.raises(BranchError):
        dominant_eigenvalue(spec, CountingFields(0.0, 1e-5, ENERGY))
    with pytest.raises(BranchError):
        cumulants_finite_difference(spec, "R", ENERGY, order=2)


def test_first_cumulant_equilibrium():
    spec = two_bath_spec(tempL=1.0, tempR=1.0)
    assert abs(first_cumulant_direct(spec, "R", ENERGY)) <= 1e-12
    assert abs(first_cumulant_direct(spec, "L", ENERGY)) <= 1e-12


def test_first_cumulant_matches_transport_formula():
    ss = steady_state_resonant_two_bath(MAX_BIAS_SPEC)
    j_r = heat_currents(MAX_BIAS_SPEC, ss)[1]
    assert first_cumulant_direct(MAX_BIAS_SPEC, "R", ENERGY) == pytest.approx(j_r, abs=1e-15)


def test_first_cumulant_decoupled_bath():
    spec = SystemSpec(1.1, 0.9, 2.0, 1.0, 0.5, 0.01, 0.01, 0.0, 0.0, 0.0, 0.0, 0.01)
    assert first_cumulant_direct(spec, "R", ENERGY) == 0.0


def test_pseudo_inverse_identities():
    for spec in FIGURE_SPECS:
        r = pseudo_inverse_R(spec)
        gen = build_generator(spec).matrix
        p0 = steady_state(build_generator(spec)).vector
        q = np.eye(5, dtype=complex) - np.outer(p0, TRACE_VECTOR)
        assert np.abs(r @ p0).max() <= 1e-9
        assert np.abs(TRACE_VECTOR @ r).max() <= 1e-9
        assert np.abs(r @ gen - q).max() <= 1e-9


def test_pseudo_inverse_degenerate_cutoff():
    with pytest.raises(DegenerateSteadyStateError):
        pseudo_inverse_R(two_bath_spec(BOUND, BOUND))


def test_perturbative_first_equals_direct():
    for spec in FIGURE_SPECS:
        for kind in (ENERGY, PARTICLE):
            direct = first_cumulant_direct(spec, "R", kind)
            pert = cumulants_perturbative(spec, "R", kind, order=1).current
            assert pert == pytest.approx(direct, abs=1e-12)


def test_perturbative_second_matches_finite_difference():
    for spec in FIGURE_SPECS:
        pert = cumulants_perturbative(spec, "R", ENERGY, order=2)
        fd = cumulants_finite_difference(spec, "R", ENERGY, order=2, h=1e-4)
        assert fd.noise_power == pytest.approx(pert.noise_power, rel=1e-4)


def test_perturbative_zero_counted_bath():
    spec = SystemSpec(1.1, 0.9, 2.0, 1.0, 0.5, 0.01, 0.01, 0.0, 0.0, 0.0, 0.0, 0.01)
    cs = cumulants_perturbative(spec, "R", ENERGY, order=4)
    assert cs.values == (0.0, 0.0, 0.0, 0.0)


def test_perturbative_higher_orders_finite():
    cs = cumulants_perturbative(cycle_spec(0.5), "R", ENERGY, order=4)
    assert len(cs.values) == 4
    assert all(np.isfinite(v) for v in cs.values)
    assert cs.imag_residue <= 1e-10


def test_perturbative_order_guard():
    with pytest.raises(UsageError):
        cumulants_perturbative(two_bath_spec(), "R", ENERGY, order=5)
    with pytest.raises(UsageError):
        cumulants_perturbative(two_bath_spec(), "M", ENERGY, order=2)


#: Orders that are not integers, or are bools, which are ints to Python.
NON_INTEGER_ORDERS = [1.5, 2.0, np.float64(1.0), True, np.bool_(True), "2", None]


@pytest.mark.parametrize("order", NON_INTEGER_ORDERS, ids=repr)
def test_cumulant_routes_reject_a_non_integer_order(order):
    spec = two_bath_spec(0.7 * BOUND, 0.4 * BOUND)
    for route in (cumulants_perturbative, cumulants_finite_difference):
        with pytest.raises(UsageError, match=re.escape(f"order must be an integer, got {order!r}")):
            route(spec, "R", ENERGY, order)


@pytest.mark.parametrize("order", [1, 2, np.int64(2), np.int8(1)], ids=repr)
def test_cumulant_routes_take_a_numpy_integer_order(order):
    spec = two_bath_spec(0.7 * BOUND, 0.4 * BOUND)
    for route in (cumulants_perturbative, cumulants_finite_difference):
        assert route(spec, "R", ENERGY, order).values == route(spec, "R", ENERGY, int(order)).values


def test_finite_difference_equilibrium():
    spec = two_bath_spec(tempL=1.0, tempR=1.0)
    assert abs(cumulants_finite_difference(spec, "R", ENERGY).current) <= 1e-8


def test_finite_difference_matches_direct():
    direct = first_cumulant_direct(MAX_BIAS_SPEC, "R", ENERGY)
    fd = cumulants_finite_difference(MAX_BIAS_SPEC, "R", ENERGY, order=1, h=1e-4)
    assert fd.current == pytest.approx(direct, abs=1e-7)


def test_finite_difference_step_guard():
    with pytest.raises(UsageError):
        cumulants_finite_difference(MAX_BIAS_SPEC, "R", ENERGY, h=1e-7)
    with pytest.raises(UsageError):
        cumulants_finite_difference(MAX_BIAS_SPEC, "R", ENERGY, h=0.1)


def test_method_triangle_on_corpus(conserving_corpus):
    for spec in conserving_corpus:
        direct = first_cumulant_direct(spec, "R", ENERGY)
        pert = cumulants_perturbative(spec, "R", ENERGY, order=1).current
        fd = cumulants_finite_difference(spec, "R", ENERGY, order=1).current
        assert abs(direct - pert) <= 1e-7
        assert abs(direct - fd) <= 1e-7


def test_noise_power_nonnegative_on_corpus(conserving_corpus):
    for spec in conserving_corpus[:50]:
        cs = cumulants_perturbative(spec, "R", ENERGY, order=2)
        assert cs.noise_power >= -1e-10


def test_energy_conservation_via_cumulants(conserving_corpus):
    for spec in conserving_corpus[:50]:
        e_l = first_cumulant_direct(spec, "L", ENERGY)
        e_r = first_cumulant_direct(spec, "R", ENERGY)
        j_m = heat_currents(spec)[2]
        assert abs(e_l + e_r + j_m) <= 1e-10


def test_particle_conservation_via_cumulants(conserving_corpus):
    for spec in conserving_corpus[:50]:
        p_l = first_cumulant_direct(spec, "L", PARTICLE)
        p_r = first_cumulant_direct(spec, "R", PARTICLE)
        assert abs(p_l + p_r) <= 1e-10


def test_particle_first_cumulant_matches_transport():
    spec = cycle_spec(0.5)
    assert first_cumulant_direct(spec, "R", PARTICLE) == pytest.approx(
        particle_currents(spec)[1], abs=1e-15
    )


FLUCTUATION_CHI = (0.2, 0.5)


def _symmetry_gap(spec, kind, affinity, chi_r):
    # Gallavotti-Cohen: E(chi) = E(-chi + i A) for the flow into bath R
    forward = dominant_eigenvalue(spec, CountingFields(0.0, chi_r, kind))
    mirrored = dominant_eigenvalue(spec, CountingFields(0.0, -chi_r + 1j * affinity, kind))
    return abs(forward - mirrored)


@pytest.mark.parametrize("spec,kinds", [
    (two_bath_spec(0.7 * BOUND, 0.4 * BOUND), (ENERGY, PARTICLE)),
    (two_bath_spec(), (ENERGY, PARTICLE)),
    # detuned: the two channels carry different energies, so only the
    # energy flow has one affinity
    (SystemSpec(1.3, 0.8, 2.0, 1.0, 1.0, 0.01, 0.02, 0.0, 0.015, 0.01, 0.0, 0.0), (ENERGY,)),
], ids=["resonant-interference", "resonant", "detuned"])
def test_fluctuation_symmetry_at_complex_chi(spec, kinds):
    affinity = 1.0 / spec.tempR - 1.0 / spec.tempL
    for kind in kinds:
        a = affinity if kind == ENERGY else spec.eps1 * affinity
        for chi_r in FLUCTUATION_CHI:
            assert _symmetry_gap(spec, kind, a, chi_r) <= 1e-12


def test_fluctuation_symmetry_broken_by_energy_leak():
    # detuned with interference: the known energy leak of the non-secular
    # equation (docs/conventions.md) breaks the symmetry
    spec = SystemSpec(1.3, 0.8, 2.0, 1.0, 1.0, 0.01, 0.02, 0.012, 0.015, 0.01, 0.009, 0.0)
    affinity = 1.0 / spec.tempR - 1.0 / spec.tempL
    for chi_r in FLUCTUATION_CHI:
        assert _symmetry_gap(spec, ENERGY, affinity, chi_r) > 1e-10


@pytest.mark.parametrize("call,builds,spectra", [
    (lambda spec: first_cumulant_direct(spec, "R", ENERGY), 1, 0),
    (lambda spec: cumulants_perturbative(spec, "R", ENERGY, order=4), 1, 0),
    # one spectrum each at h/4, h/2 and h
    (lambda spec: cumulants_finite_difference(spec, "R", ENERGY), 1, 3),
], ids=["direct", "perturbative", "finite_difference"])
def test_cumulant_routes_build_rates_once(monkeypatch, call, builds, spectra):
    count = []
    init = RateSet.__init__
    eigvals = []

    def counting_init(self, params):
        count.append(1)
        init(self, params)

    def counting_eigvals(a, _original=np.linalg.eigvals):
        eigvals.append(1)
        return _original(a)

    monkeypatch.setattr(RateSet, "__init__", counting_init)
    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    call(two_bath_spec(0.7 * BOUND, 0.4 * BOUND))
    assert len(count) == builds
    assert len(eigvals) == spectra
