"""The Newton core of the finite-difference cumulants (``fcs._eigenvalue``).

One point (Python ``complex``) and a stack (real-part arrays) give the same
bits and error texts; the eigenvalue agrees with the ``eigvals`` oracle of
``dominant_eigenvalue``; the stencils agree with the recursion; the
separation and convergence rules keep every point of the benchmark's
scalar inputs and of the figure grids, and reject the dark corner.
"""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vflux.config import config_for_target
from vflux.errors import BranchError
from vflux.fcs import (FD_STEP, NEWTON_TOL, SEPARATION_MIN, _differences, _eigenvalues,
                       _single_field, cumulants_finite_difference, dominant_eigenvalue)
from vflux.golden import load_cases, stored_csv
from vflux.liouvillian import _entries
from vflux.model import (BATHS, ENERGY, KINDS, SPEC_FIELDS, RateSet, SystemSpec, build_rates,
                         spec_arrays, spec_at)
from vflux.runner import compute_rows

from conftest import (BOUND, DETUNED_SPEC, MAX_BIAS_SPEC, NOT_FINITE, seeded_conserving_specs,
                      seeded_leak_specs, two_bath_spec)

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

#: Both cross couplings on their bound, and a relative 1e-8 off it.
CORNER = two_bath_spec(BOUND, BOUND)
NEAR_CORNER = replace(CORNER, gR12=(1.0 - 1e-8) * BOUND)
COUPLING_FREE = SystemSpec(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

#: Seeded specs of every regime, with the edge cases of the stencils.
CORPUS = (seeded_conserving_specs(24, seed=30) + seeded_leak_specs(8, seed=30) + [
    two_bath_spec((1.0 - 1e-4) * BOUND, (1.0 - 1e-3) * BOUND),  # near the dark corner
    CORNER, NEAR_CORNER, NOT_FINITE, MAX_BIAS_SPEC, DETUNED_SPEC,
    replace(DETUNED_SPEC, gM=-0.0),
    replace(DETUNED_SPEC, gR11=0.0, gR22=0.0, gR12=0.0),  # a bath without coupling
    COUPLING_FREE,
    replace(DETUNED_SPEC, eps1=700.0),  # phases past a half turn at h = 1e-2
    SystemSpec(1.2, 0.7, 2.0, 1.0, 1.0, 1e-60, 1e-60, 5e-61, 1e-60, 1e-60, 4e-61, 1e-60),
    # a splitting 1e200 times the couplings: the scaled delta is capped
    SystemSpec(1.2, 0.7, 2.0, 1.0, 1.0, 1e-200, 1e-200, 0.0, 1e-200, 1e-200, 0.0, 1e-200),
])


def outcome(spec, bath, kind, h):
    """``float.hex`` of each one-point cumulant, or the error text."""
    try:
        values = cumulants_finite_difference(spec, bath, kind, 2, h).values
        return [value.hex() for value in values]
    except BranchError as exc:
        return str(exc)


@pytest.mark.parametrize("h", [FD_STEP, 1e-6, 1e-2])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bath", BATHS)
def test_stack_gives_the_bits_of_one_point(bath, kind, h):
    with np.errstate(over="ignore", invalid="ignore"):
        values, errors = _differences(RateSet(spec_arrays(CORPUS)), bath, kind, 2, h)
    stacked = [errors[n,] if (n,) in errors else [float(v[n]).hex() for v in values]
               for n in range(len(CORPUS))]
    assert stacked == [outcome(spec, bath, kind, h) for spec in CORPUS]
    # the corner has no separated eigenvalue, the coupling-free spec none
    # at all, and no dressed rate of NOT_FINITE is finite
    assert {CORPUS[n] for (n,) in errors} >= {CORNER, NOT_FINITE, COUPLING_FREE}
    assert (len(CORPUS) - 1,) not in errors
    assert errors[CORPUS.index(NOT_FINITE),] == "dressed generator is not finite"


def test_fig4b_rows_give_the_bits_of_one_point():
    _, table = compute_rows(config_for_target("fig4b"))
    specs = [spec_at(table, n) for n in range(len(table["error"]))]
    assert not any(table["error"])
    assert [value.hex() for value in table["SeRR_fd"]] == [
        outcome(spec, "R", ENERGY, FD_STEP)[1] for spec in specs]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bath", BATHS)
def test_eigenvalue_matches_the_eigvals_oracle(bath, kind):
    # where both rules hold; measured: at most 5.7e-15 s on the seeded
    # corpora and the scalar inputs
    compared = 0
    for spec in CORPUS[:34]:
        rates = build_rates(spec)
        s = max(abs(x) for row in _entries(rates)[0][:3] for x in row[:3])
        for h in (FD_STEP, 1e-3, 1e-2):
            (re, im, sep, step, size, _), _ = _eigenvalues(rates, bath, kind, h)
            for j, chi in enumerate((h / 2.0, h)):
                if sep[j] >= SEPARATION_MIN and step[j] <= NEWTON_TOL * size[j]:
                    oracle = dominant_eigenvalue(spec, _single_field(bath, kind, chi))
                    assert abs(complex(re[j], im[j]) - oracle) <= 1e-13 * s
                    compared += 1
    assert compared >= 200


@pytest.mark.parametrize("target", ["fig21b", "fig4b"])
def test_stencils_match_the_recursion_on_the_noise_targets(target):
    # measured: at most 5.4e-15 relative; the eigvals stencils read 8.0e-6
    _, table = compute_rows(config_for_target(target))
    pairs = [(fd, serr) for fd, serr in zip(table["SeRR_fd"], table["SeRR"]) if serr is not None]
    assert len(pairs) == len(table["SeRR"]) - (target == "fig21b")
    assert max(abs(fd - serr) / abs(serr) for fd, serr in pairs) <= 1e-12


@pytest.mark.parametrize("target", ["fig21b", "fig4b"])
def test_noise_targets_keep_a_margin_to_both_rules(target):
    # measured: |f'|/s^2 at least 3.4e-2 (fig21b) and 0.43 (fig4b), the
    # last step at most 3.4e-15 of |lambda|; the kernel's error row is the
    # dark corner
    _, table = compute_rows(config_for_target(target))
    valid = [n for n, error in enumerate(table["error"]) if error is None]
    rates = RateSet({name: np.asarray(table[name])[valid] for name in SPEC_FIELDS})
    (_, _, sep, step, size, finite), zero = _eigenvalues(rates, "R", ENERGY, FD_STEP)
    assert finite.all() and min(sep.min(), zero.min()) >= 100.0 * SEPARATION_MIN
    assert (step <= 1e-6 * NEWTON_TOL * size).all()


def test_dark_corner_and_near_corners_are_not_separated():
    # both fail at zero field at every step size: |f'(0)|/s^2 is at most
    # 5.6e-16 on 1000 random corners and 4.0e-8 a relative 1e-8 off them;
    # at step h a near corner's eigenvalue converges, but reads at most
    # 7.1e-5, under SEPARATION_MIN, at FD_STEP
    for spec in (CORNER, NEAR_CORNER):
        for h in (FD_STEP, 1e-6, 1e-2):
            with pytest.raises(BranchError, match=re.escape("at zero field: |f'|/s^2 = ")):
                cumulants_finite_difference(spec, "R", ENERGY, 2, h)
    (_, _, sep, step, size, _), zero = _eigenvalues(build_rates(NEAR_CORNER), "R", ENERGY, FD_STEP)
    assert zero < 1e-7 and step[1] <= NEWTON_TOL * size[1] and sep[1] < SEPARATION_MIN


def test_scalar_benchmark_inputs_have_no_failed_item(monkeypatch):
    # seeds 1-10: an exception counts as a failed item; the smallest
    # separation of their stencils is 2.4e-4
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    for seed in range(1, 11):
        assert workloads.ScalarWorkload(seed).run_pass().failed == 0


def test_golden_branch_error_rows_stay(golden_outputs):
    # no golden case holds a BranchError row, before or after the Newton core
    for case in load_cases():
        for text in (stored_csv(case), golden_outputs[case.name][0]):
            assert "BranchError" not in text, case.name


def test_uncounted_bath_gives_exact_zeros():
    # without coupling to the counted bath no phase enters: lambda = 0
    spec = replace(DETUNED_SPEC, gR11=0.0, gR22=0.0, gR12=0.0)
    for kind in KINDS:
        assert cumulants_finite_difference(spec, "R", kind, 2).values == (0.0, 0.0)
