"""The Newton core of the second cumulant route (``fcs._newton``).

One point (Python floats) and a stack (arrays) give the same bits and
error texts for orders 1-4; ``E1``-``E4`` agree with the recursion; ``E1``
and ``E2`` agree with a Richardson stencil of the ``eigvals`` oracle
``dominant_eigenvalue``, which shares no input with the core but the bare
rates; the finiteness and separation rules keep every point of the
benchmark's scalar inputs and of the figure grids, and reject the dark
corner.
"""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import vflux.fcs as fcs
from vflux.config import config_for_target
from vflux.errors import BranchError
from vflux.fcs import (SEPARATION_MIN, _newton, _sandwich_rates, cumulants_finite_difference,
                       cumulants_perturbative, dominant_eigenvalue)
from vflux.golden import load_cases, stored_csv
from vflux.model import (BATHS, ENERGY, KINDS, SPEC_FIELDS, CountingFields, RateSet, SystemSpec,
                         spec_arrays, spec_at)
from vflux.runner import compute_rows

from conftest import (BOUND, DETUNED_SPEC, MAX_BIAS_SPEC, NOT_FINITE, seeded_conserving_specs,
                      seeded_leak_specs, two_bath_spec)

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

#: Both cross couplings on their bound, and a relative 1e-8 off it.
CORNER = two_bath_spec(BOUND, BOUND)
NEAR_CORNER = replace(CORNER, gR12=(1.0 - 1e-8) * BOUND)
COUPLING_FREE = SystemSpec(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

#: Seeded specs of every regime, with the edge cases of the core.
SEEDED = seeded_conserving_specs(24, seed=30) + seeded_leak_specs(8, seed=30)
CORPUS = SEEDED + [
    two_bath_spec((1.0 - 1e-4) * BOUND, (1.0 - 1e-3) * BOUND),  # near the dark corner
    CORNER, NEAR_CORNER, NOT_FINITE, MAX_BIAS_SPEC, DETUNED_SPEC,
    replace(DETUNED_SPEC, gM=-0.0),
    replace(DETUNED_SPEC, gR11=0.0, gR22=0.0, gR12=0.0),  # a bath without coupling
    COUPLING_FREE,
    replace(DETUNED_SPEC, eps1=700.0),  # weights of 700**4 at order 4
    SystemSpec(1.2, 0.7, 2.0, 1.0, 1.0, 1e-60, 1e-60, 5e-61, 1e-60, 1e-60, 4e-61, 1e-60),
    # a splitting 1e200 times the couplings: the scaled delta is capped
    SystemSpec(1.2, 0.7, 2.0, 1.0, 1.0, 1e-200, 1e-200, 0.0, 1e-200, 1e-200, 0.0, 1e-200),
]

#: The route agrees with the recursion within this fraction of each
#: cumulant or of the noise E2, whichever is larger (the odd cumulants are
#: small near equilibrium).  Measured: at most 0.23 of it, on a seeded
#: conserving spec's E3.
RELATIVE, OF_NOISE = 1e-12, 1e-14


def outcome(spec, bath, kind, order):
    """``float.hex`` of each one-point cumulant, or the error text."""
    try:
        values = cumulants_finite_difference(spec, bath, kind, order).values
        return [value.hex() for value in values]
    except BranchError as exc:
        return str(exc)


def assert_matches_the_recursion(spec, bath, kind):
    jets = cumulants_finite_difference(spec, bath, kind, 4).values
    recursion = cumulants_perturbative(spec, bath, kind, 4).values
    for n, (x, y) in enumerate(zip(jets, recursion), start=1):
        assert abs(x - y) <= max(RELATIVE * abs(y), OF_NOISE * abs(recursion[1])), (spec, n)


@pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-2])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bath", BATHS)
def test_stack_gives_the_bits_of_one_point(bath, kind, gap):
    # ``gap`` puts one more point with both cross couplings a relative gap
    # below their bound: |f'|/s^2 is 3.8 gap there, so the rule keeps the
    # gaps 1e-2 and 1e-4 (cumulants up to 1e5) and rejects 1e-6
    at_gap = two_bath_spec((1.0 - gap) * BOUND, (1.0 - gap) * BOUND)
    corpus = CORPUS + [at_gap]
    rates = RateSet(spec_arrays(corpus))
    for order in range(1, 5):
        with np.errstate(over="ignore", invalid="ignore"):
            values, errors = _newton(rates, _sandwich_rates(rates, bath, kind, range(1, order + 1)))
        assert len(values) == order
        stacked = [errors[n,] if (n,) in errors else [float(v[n]).hex() for v in values]
                   for n in range(len(corpus))]
        assert stacked == [outcome(spec, bath, kind, order) for spec in corpus]
        # the corner has no separated eigenvalue, the coupling-free spec none
        # at all, and no dressed rate of NOT_FINITE is finite
        failed = {CORNER, NEAR_CORNER, NOT_FINITE, COUPLING_FREE}
        assert {corpus[n] for (n,) in errors} == failed | ({at_gap} if gap == 1e-6 else set())
        assert errors[corpus.index(NOT_FINITE),] == "dressed generator is not finite"


def test_fig4b_rows_give_the_bits_of_one_point():
    _, table = compute_rows(config_for_target("fig4b"))
    specs = [spec_at(table, n) for n in range(len(table["error"]))]
    assert not any(table["error"])
    assert [value.hex() for value in table["SeRR_fd"]] == [
        outcome(spec, "R", ENERGY, 2)[1] for spec in specs]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bath", BATHS)
def test_jets_match_the_recursion_on_the_seeded_corpora(bath, kind):
    for spec in seeded_conserving_specs() + seeded_leak_specs():
        assert_matches_the_recursion(spec, bath, kind)


@pytest.mark.parametrize("target", ["fig21b", "fig4b"])
def test_jets_match_the_recursion_on_the_noise_targets(target):
    # measured: SeRR_fd within 1.4e-15 of SeRR relative (the stencils read
    # 5.4e-15 on fig21b), and E1-E4 within 0.16 of the bounds
    _, table = compute_rows(config_for_target(target))
    valid = [n for n, error in enumerate(table["error"]) if error is None]
    assert len(valid) == len(table["error"]) - (target == "fig21b")
    assert max(abs(table["SeRR_fd"][n] - table["SeRR"][n]) / table["SeRR"][n]
               for n in valid) <= 1e-14
    for n in valid:
        assert_matches_the_recursion(spec_at(table, n), "R", ENERGY)


def eigvals_stencil(spec, bath, kind, h=1e-2):
    """``E1`` and ``E2`` from Richardson-refined central stencils of
    :func:`dominant_eigenvalue` at the real fields h/2 and h, using
    ``lambda(-chi) = conj(lambda(chi))``."""
    fine, coarse = (dominant_eigenvalue(spec, CountingFields(
        chi if bath == "L" else 0.0, chi if bath == "R" else 0.0, kind)) for chi in (h / 2, h))
    return ((4.0 * fine.imag / (h / 2) - coarse.imag / h) / 3.0,
            (4.0 * -2.0 * fine.real / (h / 2) ** 2 + 2.0 * coarse.real / h**2) / 3.0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bath", BATHS)
def test_eigenvalue_matches_the_eigvals_oracle(bath, kind):
    # the oracle is dressed at real chi through _counting_matrix and solved
    # by LAPACK; measured (h = 1e-2): E1 within 8.5e-11 |E2|, E2 within
    # 2.9e-9 |E2|, the stencil's truncation and the eigvals rounding
    for spec in SEEDED:
        e1, e2 = cumulants_finite_difference(spec, bath, kind, 2).values
        s1, s2 = eigvals_stencil(spec, bath, kind)
        assert abs(e1 - s1) <= 1e-9 * e2 and abs(e2 - s2) <= 3e-8 * e2, spec


@pytest.mark.parametrize("target", ["fig21b", "fig4b"])
def test_noise_targets_keep_a_margin_to_both_rules(target, monkeypatch):
    # measured: |f'(0)|/s^2 at least 3.4e-2 (fig21b) and 0.43 (fig4b), so
    # every valid point passes a hundred times SEPARATION_MIN; the kernel's
    # error row is the dark corner
    _, table = compute_rows(config_for_target(target))
    valid = [n for n, error in enumerate(table["error"]) if error is None]
    rates = RateSet({name: np.asarray(table[name])[valid] for name in SPEC_FIELDS})
    monkeypatch.setattr(fcs, "SEPARATION_MIN", 100.0 * SEPARATION_MIN)
    values, errors = _newton(rates, _sandwich_rates(rates, "R", ENERGY, (1, 2)))
    assert not errors and np.isfinite(values).all()


def test_dark_corner_and_near_corners_are_not_separated():
    # both fail at zero field at every order: |f'(0)|/s^2 is at most 5.6e-16
    # on 1000 random corners and 4.0e-8 a relative 1e-8 off them
    for spec in (CORNER, NEAR_CORNER):
        for order in range(1, 5):
            with pytest.raises(BranchError, match=re.escape("at zero field: |f'|/s^2 = ")):
                cumulants_finite_difference(spec, "R", ENERGY, order)
    with pytest.raises(BranchError) as info:
        cumulants_finite_difference(NEAR_CORNER, "R", ENERGY, 2)
    assert float(str(info.value).split()[-1]) < 1e-7


def test_scalar_benchmark_inputs_have_no_failed_item(monkeypatch):
    # seeds 1-10: an exception counts as a failed item; the smallest
    # separation of their specs is 2.4e-4
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    for seed in range(1, 11):
        assert workloads.ScalarWorkload(seed).run_pass().failed == 0


def test_golden_branch_error_rows_stay(golden_outputs):
    # no golden case holds a BranchError row
    for case in load_cases():
        for text in (stored_csv(case), golden_outputs[case.name][0]):
            assert "BranchError" not in text, case.name


def test_uncounted_bath_gives_exact_zeros():
    # without coupling to the counted bath no rate is dressed: mu = 0
    spec = replace(DETUNED_SPEC, gR11=0.0, gR22=0.0, gR12=0.0)
    for kind in KINDS:
        assert cumulants_finite_difference(spec, "R", kind, 4).values == (0.0, 0.0, 0.0, 0.0)
