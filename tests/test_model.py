import math
from dataclasses import replace

import numpy as np
import pytest

from vflux.errors import DomainError
from vflux.liouvillian import _dressed_rates
from vflux.model import (
    BATHS,
    ENERGY,
    PARTICLE,
    OCCUPATION_RATIO_MIN,
    CountingFields,
    SystemSpec,
    _occupation,
    bose_occupation,
    build_rates,
    validate,
)
from vflux.transport import heat_currents

from conftest import BOUND, FIGURE_SPECS, seeded_conserving_specs, two_bath_spec

# frozen with 50-digit arithmetic
N_1_1 = 0.5819767068693264
N_1_2 = 1.5414940825367983
N_02_05 = 2.0332447817197364


def test_bose_occupation_values():
    assert bose_occupation(1.0, 1.0) == pytest.approx(N_1_1, rel=1e-15)
    # omega = T ln 2 gives exactly one thermal quantum
    assert bose_occupation(math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-14)
    # exponential suppression toward zero temperature
    assert bose_occupation(1.0, 0.01) < 1e-40


@pytest.mark.parametrize("omega,temp", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_bose_occupation_domain(omega, temp):
    with pytest.raises(DomainError):
        bose_occupation(omega, temp)


@pytest.mark.parametrize("omega,temp", [(1.0, math.inf), (math.inf, 1.0), (math.nan, 1.0),
                                        (1.0, math.nan), (-math.inf, 1.0), (1.0, -math.inf)])
def test_bose_occupation_rejects_non_finite(omega, temp):
    # (1, inf) used to divide by expm1(0) = 0, and NaN passed every comparison
    with pytest.raises(DomainError, match="finite"):
        bose_occupation(omega, temp)


@pytest.mark.parametrize("omega,temp", [(5e-324, 1.0), (1e-320, 1e10), (1e-310, 1.0),
                                        (1e-5, 1e305)])
def test_bose_occupation_rejects_a_ratio_without_finite_occupation(omega, temp):
    # 1/expm1(x) = 1/x overflows below x ~ 5.6e-309, and x = 0 divided by zero
    with pytest.raises(DomainError, match="leaves no finite occupation"):
        bose_occupation(omega, temp)


def test_bose_occupation_finite_down_to_the_overflow():
    assert bose_occupation(1e-300, 1.0) == pytest.approx(1e300, rel=1e-15)
    # the threshold is the last ratio whose 1/expm1 is finite
    low = OCCUPATION_RATIO_MIN
    assert math.expm1(low) == low and bose_occupation(low, 1.0) == 1.0 / low < math.inf
    assert 1.0 / math.nextafter(low, 0.0) == math.inf
    with pytest.raises(DomainError, match="no finite occupation"):
        bose_occupation(math.nextafter(low, 0.0), 1.0)


def test_stacked_occupations_are_the_scalar_ones():
    # pairs with one ratio share one evaluation, with the bits of each pair's own
    omega = np.array([1.0, 0.5, 2.0, 1.0, 3.0, 700.0])
    temp = np.array([2.0, 1.0, 4.0, 0.3, 1e-3, 0.9])
    needed = np.array([True, True, True, False, True, True])
    out = _occupation(omega, temp, needed)
    expected = [bose_occupation(w, t) if n else 0.0 for w, t, n in zip(omega, temp, needed)]
    assert out.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("omega,temp", [((1.0, -1.0), (1.0, -1.0)), ((1.0, math.inf), (1.0, 1.0)),
                                        ((1.0, 1e-320), (1.0, 1e10)), ((2.0, 1.0), (1.0, 0.0))])
def test_stacked_occupation_raises_the_scalar_error(omega, temp):
    # (-1, -1) has the ratio of (1, 1), and (1, 0) would divide by zero
    with pytest.raises(DomainError) as expected:
        bose_occupation(omega[1], temp[1])
    with pytest.raises(DomainError) as info:
        _occupation(np.array(omega), np.array(temp), True)
    assert str(info.value) == str(expected.value)


def test_validate_reports_an_occupation_without_finite_value():
    # a valid spec before: heat_currents divided by zero at eps1/tempL = 0
    spec = SystemSpec(1e-320, 1e-320, 1e10, 1.0, 1.0, 0.01, 0.01, 0.0, 0.01, 0.01, 0.0, 0.0)
    assert validate(spec)[0] == ("occupation: eps1 = 1e-320 over tempL = 10000000000.0 "
                                 "leaves no finite occupation")
    assert len(validate(spec)) == 4
    with pytest.raises(DomainError, match="occupation: eps1 = 1e-320 over tempL"):
        heat_currents(spec)
    middle = SystemSpec(1.0, 0.999999, 2.0, 1e303, 1.0, 0.01, 0.01, 0.0, 0.01, 0.01, 0.0, 0.01)
    assert [v.split(" = ")[0] for v in validate(middle)] == ["occupation: eps1 - eps2"]
    assert not validate(replace(middle, gM=0.0))


def test_build_rates_figure_parameters():
    r = build_rates(two_bath_spec())
    # both edge baths contribute at the common transition energy
    assert r.gamma_plus(1, 1, 1) == pytest.approx(0.01 * N_1_2 + 0.01 * N_1_1, rel=1e-14)
    assert r.gamma_minus(1, 1, 1) == pytest.approx(
        0.01 * (1 + N_1_2) + 0.01 * (1 + N_1_1), rel=1e-14
    )


def test_build_rates_middle_bath():
    spec = SystemSpec(1.1, 0.9, 2.0, 0.5, 0.5, 0.01, 0.0, 0.0, 0.0, 0.01, 0.0, 0.01)
    r = build_rates(spec)
    assert r.gain_M == pytest.approx(0.01 * N_02_05, rel=1e-14)
    assert r.loss_M - r.gain_M == pytest.approx(0.01, rel=1e-14)


LEVEL_TRIPLES = [(i, j, k) for i in (1, 2) for j in (1, 2) for k in (1, 2)]


def test_build_rates_decoupled():
    spec = SystemSpec(1.0, 1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0, 0, 0, 0)
    r = build_rates(spec)
    assert all(r.gamma_plus(*ijk) == 0.0 and r.gamma_minus(*ijk) == 0.0 for ijk in LEVEL_TRIPLES)
    assert r.gain_M == 0.0 and r.loss_M == 0.0


def test_rate_invariants_on_corpus():
    for spec in FIGURE_SPECS + seeded_conserving_specs(40):
        r = build_rates(spec)
        coef = [[spec.gL11 + spec.gR11, spec.gL12 + spec.gR12],
                [spec.gL12 + spec.gR12, spec.gL22 + spec.gR22]]
        # spontaneous-emission excess equals the bare coefficient sum
        for i, j, k in LEVEL_TRIPLES:
            excess = r.gamma_minus(i, j, k) - r.gamma_plus(i, j, k)
            assert excess == pytest.approx(coef[i - 1][j - 1], rel=0, abs=1e-15)
        assert r.loss_M - r.gain_M == pytest.approx(spec.gM, abs=1e-15)


def test_detailed_balance_single_bath():
    # only the left bath couples: every gain/loss ratio is the Boltzmann
    # factor at that rate's energy argument
    spec = SystemSpec(1.3, 0.8, 1.7, 1.0, 1.0, 0.01, 0.02, 0.012, 0.0, 0.0, 0.0, 0.0)
    r = build_rates(spec)
    eps = (spec.eps1, spec.eps2)
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                ratio = r.gamma_plus(i, j, k) / r.gamma_minus(i, j, k)
                assert ratio == pytest.approx(math.exp(-eps[k - 1] / 1.7), rel=1e-12)
                assert ratio < 1.0


@pytest.mark.parametrize("kind", [ENERGY, PARTICLE])
def test_dressing_identity_at_zero_is_exact(kind):
    # the one dressing of the rates, summed over both baths at chi = 0,
    # returns the bare totals for every (i, j, k)
    r = build_rates(two_bath_spec(0.7 * BOUND, 0.3 * BOUND))
    gain, loss = _dressed_rates(r, CountingFields.zero(kind), BATHS)
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                assert gain(i, j, k) == r.gamma_plus(i, j, k)
                assert loss(i, j, k) == r.gamma_minus(i, j, k)


def test_validate_interference_bound():
    spec = two_bath_spec(1.1 * BOUND, 0.0)
    violations = validate(spec)
    assert any("interference bound" in v for v in violations)


def test_validate_temperature():
    spec = SystemSpec(1, 1, 2, 1, 0, 0.01, 0.01, 0, 0.01, 0.01, 0, 0)
    assert any("temperature positivity" in v for v in validate(spec))


def test_validate_figure_parameters_clean():
    assert validate(two_bath_spec(0.8 * BOUND, BOUND)) == []
    assert validate(two_bath_spec()) == []


def test_validate_eps2_zero_rules():
    ok = SystemSpec(1.0, 0.0, 2.0, 1.0, 1.0, 0.02, 0.0, 0.0, 0.005, 0.0, 0.0, 0.0)
    assert validate(ok) == []
    bad = SystemSpec(1.0, 0.0, 2.0, 1.0, 1.0, 0.02, 0.01, 0.0, 0.005, 0.0, 0.0, 0.0)
    assert any("eps2 = 0" in v for v in validate(bad))


def test_validate_middle_gap_guard():
    bad = SystemSpec(1.0, 1.0, 2.0, 1.0, 1.0, 0.01, 0.01, 0.0, 0.01, 0.01, 0.0, 0.01)
    assert any("middle-bath gap" in v for v in validate(bad))
    with pytest.raises(DomainError):
        build_rates(bad)


def test_level_ordering():
    assert any("level ordering" in v
               for v in validate(SystemSpec(0.9, 1.0, 1, 1, 1, 0.01, 0.01, 0, 0.01, 0.01, 0, 0)))


def test_content_hash_stable_and_sensitive():
    a = two_bath_spec()
    assert a.content_hash() == two_bath_spec().content_hash()
    assert a.content_hash() != two_bath_spec(tempR=1.5).content_hash()


def test_content_hash_equal_for_equal_specs():
    # 1.0, np.float64(1.0) and 1 compare equal and must hash equal
    specs = [replace(two_bath_spec(), eps1=value, tempM=value)
             for value in (1.0, np.float64(1.0), 1)]
    assert specs[0] == specs[1] == specs[2]
    assert len({spec.content_hash() for spec in specs}) == 1
    assert specs[0].content_hash() == two_bath_spec().content_hash()


def test_counting_fields_kind_checked():
    with pytest.raises(DomainError):
        CountingFields(0.0, 0.0, "charge")
