import math
from dataclasses import replace

import numpy as np
import pytest

from vflux.errors import DomainError
from vflux.liouvillian import _dressed_rates
from vflux.model import (
    BATHS,
    ENERGY,
    GAP_MIN,
    PARTICLE,
    OCCUPATION_RATIO_MIN,
    SPEC_FIELDS,
    CountingFields,
    RateSet,
    SystemSpec,
    _occupation,
    _valid_points,
    bose_occupation,
    build_rates,
    evaluate_valid,
    interference_bound,
    spec_arrays,
    validate,
)
from vflux.transport import heat_currents

from conftest import (BOUND, FIGURE_SPECS, invalid_specs, seeded_conserving_specs,
                      seeded_leak_specs, two_bath_spec)

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


def test_factor_occupations_are_the_scalar_ones():
    # spec fields (n, 1) times temperatures (1, m): eps/temp from 1e-3 past
    # the overflow of expm1 (~709.78) and the underflow of exp(-x) (~745),
    # an unneeded eps2 = 0 and an unneeded middle bath (gM = 0)
    eps = np.array([[1.0], [0.0], [800.0], [1.0], [2.5]])
    temp = np.array([[1e3, 2.0, 1.1, 1.0, 1e-3]])
    needed = eps > 0.0
    out = _occupation(eps, temp, needed)
    expected = [[bose_occupation(w, t) if n else 0.0 for t in temp[0].tolist()]
                for w, n in zip(eps[:, 0].tolist(), needed[:, 0].tolist())]
    assert out.shape == (5, 5) and out.tobytes() == np.array(expected).tobytes()
    # 800/1.1 takes the exp(-x) branch, 800/1e-3 underflows it
    assert 0.0 < out[2, 2] < 1e-300 and out[2, 4] == 0.0
    specs = [SystemSpec(1.0, 0.0, 2.0, 1.0, 1.0, 0.02, 0.0, 0.0, 0.005, 0.0, 0.0, 0.0),
             SystemSpec(800.0, 750.0, 1.0, 1.0, 1.0, 0.01, 0.01, 0.005, 0.01, 0.01, 0.0, 0.01),
             SystemSpec(1.2, 0.7, 2.0, 0.02, 1.0, 0.01, 0.01, 0.005, 0.01, 0.01, 0.004, 0.0)]
    temps = np.array([0.9, 1.0, 1e-3, 2.0, 1.1, 0.5])
    factors = {name: values[:, None] for name, values in spec_arrays(specs).items()}
    factors["tempL"], factors["tempR"] = temps[None], temps[::-1][None]
    rates = RateSet(factors)
    assert rates.shape == (3, 6)
    for n, spec in enumerate(specs):
        for m, (t_l, t_r) in enumerate(zip(temps.tolist(), temps[::-1].tolist())):
            one = build_rates(replace(spec, tempL=t_l, tempR=t_r))
            for name in ("occL", "occR", "occM", "gainL", "gainR", "lossL", "lossR",
                         "gain_M", "loss_M"):
                for entry, value in zip(leaves(getattr(rates, name)), leaves(getattr(one, name)),
                                        strict=True):
                    point = np.broadcast_to(entry, rates.shape)[n, m]
                    assert point.tobytes() == np.float64(value).tobytes()


def leaves(table) -> list:
    """The entries of a nested tuple of rates, depth first."""
    if isinstance(table, tuple):
        return [leaf for part in table for leaf in leaves(part)]
    return [table]


def reference_validate(spec: SystemSpec) -> list[str]:
    """The per-point validate, one comparison per invariant, kept as the
    reference for the texts and the stacked validity check."""
    v = [f"finiteness: {name} = {getattr(spec, name)} must be finite"
         for name in SPEC_FIELDS if not math.isfinite(getattr(spec, name))]
    for name in ("tempL", "tempM", "tempR"):
        if getattr(spec, name) <= 0.0:
            v.append(f"temperature positivity: {name} = {getattr(spec, name)} must be > 0")
    for name in ("gL11", "gL22", "gL12", "gR11", "gR22", "gR12", "gM"):
        if getattr(spec, name) < 0.0:
            v.append(f"coefficient nonnegativity: {name} = {getattr(spec, name)} must be >= 0")
    if spec.eps1 < spec.eps2:
        v.append(f"level ordering: eps1 = {spec.eps1} must be >= eps2 = {spec.eps2}")
    if spec.eps1 <= 0.0:
        v.append(f"level positivity: eps1 = {spec.eps1} must be > 0")
    if spec.eps2 < 0.0:
        v.append(f"level positivity: eps2 = {spec.eps2} must be >= 0")
    elif spec.eps2 == 0.0 and (spec.gL22 > 0.0 or spec.gR22 > 0.0):
        v.append("level positivity: eps2 = 0 requires gL22 = gR22 = 0 (single-channel limit)")
    for side in ("L", "R"):
        g12 = getattr(spec, f"g{side}12")
        bound = interference_bound(getattr(spec, f"g{side}11"), getattr(spec, f"g{side}22"))
        if g12 > bound:
            v.append(f"interference bound: g{side}12 = {g12} exceeds "
                     f"sqrt(g{side}11*g{side}22) = {bound}")
    if spec.gM > 0.0 and spec.delta < GAP_MIN:
        v.append(f"middle-bath gap: eps1 - eps2 = {spec.delta} must be >= {GAP_MIN} when gM > 0")
    for label, omega, name, temp, needed in (
            ("eps1", spec.eps1, "tempL", spec.tempL, True),
            ("eps1", spec.eps1, "tempR", spec.tempR, True),
            ("eps2", spec.eps2, "tempL", spec.tempL, spec.eps2 > 0.0),
            ("eps2", spec.eps2, "tempR", spec.tempR, spec.eps2 > 0.0),
            ("eps1 - eps2", spec.delta, "tempM", spec.tempM, spec.gM > 0.0)):
        if (needed and 0.0 < omega < math.inf and 0.0 < temp < math.inf
                and omega / temp < OCCUPATION_RATIO_MIN):
            v.append(f"occupation: {label} = {omega} over {name} = {temp} "
                     "leaves no finite occupation")
    return v


def validity_corpus() -> list[SystemSpec]:
    return ([spec for _, spec in invalid_specs()] + FIGURE_SPECS
            + seeded_conserving_specs(20) + seeded_leak_specs(5))


def test_validate_matches_the_per_point_reference():
    for label, spec in invalid_specs():
        texts = validate(spec)
        assert texts == reference_validate(spec)
        assert (label == "hot edge") == (not texts)
        assert label == "hot edge" or any(text.startswith(label) for text in texts)
        if label == "hot edge":
            hot = reference_validate(replace(spec, tempL=1.6, tempR=1.6))
            assert [text.split(" = ")[0] for text in hot] == ["occupation: eps2"] * 2
    for spec in validity_corpus():
        assert validate(spec) == reference_validate(spec)


def test_stacked_validity_agrees_with_validate():
    corpus = validity_corpus()
    params = spec_arrays(corpus)
    assert _valid_points(params).tolist() == [not validate(spec) for spec in corpus]
    for spec in corpus:
        assert _valid_points(spec_arrays([spec])).tolist() == [not validate(spec)]
    # edge temperatures as one float each, as the rectification scan checks them
    for hot in (1.0, 1.5, 1.95):
        edges = {**params, "tempL": hot, "tempR": hot}
        assert _valid_points(edges).tolist() == [
            not validate(replace(spec, tempL=hot, tempR=hot)) for spec in corpus]
    outcomes = evaluate_valid(corpus, lambda rates: [rates.shape] * rates.shape[0])
    for spec, out in zip(corpus, outcomes):
        if validate(spec):
            with pytest.raises(DomainError) as info:
                spec.require_valid()
            assert isinstance(out, DomainError) and str(out) == str(info.value)
        else:
            assert out == (len(corpus) - sum(bool(validate(s)) for s in corpus),)


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
