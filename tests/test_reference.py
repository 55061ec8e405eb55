"""A 50-digit reference for the cumulant recursion.

The float generator and its chi-derivatives (``build_generator``,
``generator_chi_derivative``) are taken as exact inputs, and the steady
state, the projected inverse ``R = Q A^-1 Q`` and the recursion for
``E1``-``E4`` (``fcs.cumulants_perturbative``) are redone in ``mpmath`` at
50 significant digits with dense matrices, Gaussian elimination and no
structure of the generator.  What the float route gives differs from it by
the route's own rounding only.
"""

from __future__ import annotations

from math import comb

import mpmath
import numpy as np
import pytest

from vflux.fcs import cumulants_perturbative, first_cumulant_direct, pseudo_inverse_R
from vflux.liouvillian import build_generator, generator_chi_derivative
from vflux.model import BATHS, KINDS, CountingFields

from conftest import DETUNED_SPEC, seeded_conserving_specs, seeded_leak_specs

#: The specs of the tier: both seeded corpora and the detuned spec.
CORPUS = seeded_conserving_specs() + seeded_leak_specs() + [DETUNED_SPEC]

#: Largest relative error of the float E1-E4 over the corpus, both baths
#: and both kinds.  Measured: 4.0e-13, 2.8e-15, 4.4e-13 and 1.1e-14, each
#: an absolute error of at most 4e-17 on cumulants of 1e-5 to 1e-2 (the
#: odd ones are small where the spec is near equilibrium).  Each bound is
#: about four times the measured worst.
BOUNDS = (2e-12, 1e-14, 2e-12, 5e-14)

#: Largest error of ``pseudo_inverse_R`` relative to the largest entry of
#: the reference ``R``: measured 9.3e-16.
INVERSE_BOUND = 4e-15

#: Significant digits of the reference.
DIGITS = 50


def mp_matrix(m) -> list:
    """A complex float matrix as nested lists of its exact entries: ``mpf``
    where the imaginary part is zero, else ``mpc``."""
    return [[mpmath.mpf(z.real) if z.imag == 0 else mpmath.mpc(z.real, z.imag) for z in row]
            for row in m.tolist()]


def apply(m, v) -> list:
    """``m v``; an entry that is exactly zero adds nothing and is skipped."""
    return [mpmath.fdot([(a, b) for a, b in zip(row, v) if a]) for row in m]


def solve(a, columns) -> list:
    """``a^-1`` applied to each of ``columns``, by one Gaussian elimination
    with partial pivoting."""
    n = len(a)
    rows = [list(row) + [column[i] for column in columns] for i, row in enumerate(a)]
    for k in range(n):
        pivot = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    out = []
    for col in range(n, len(rows[0])):
        x = [0] * n
        for k in reversed(range(n)):
            x[k] = (rows[k][col] - mpmath.fdot([(rows[k][j], x[j]) for j in range(k + 1, n)])
                    ) / rows[k][k]
        out.append(x)
    return out


@mpmath.workdps(DIGITS)
def reference(spec) -> tuple:
    """The steady state ``P0`` and the projected inverse ``R = Q A^-1 Q``
    (``fcs.pseudo_inverse_R``) of ``spec`` at 50 digits, ``R`` as its columns."""
    trace = [1, 1, 1, 0, 0]
    gen = mp_matrix(build_generator(spec).matrix)
    # the kernel: the generator with population row 2 replaced by the trace row
    (p0,) = solve([*gen[:2], trace, *gen[3:]], [[0, 0, 1, 0, 0]])
    s = max(abs(gen[i][j]) for i in range(3) for j in range(3))
    deflated = [[x - s * trace[i] * trace[j] / 3 for j, x in enumerate(row)]
                for i, row in enumerate(gen)]
    q = [[int(i == j) - p0[i] * trace[j] for i in range(5)] for j in range(5)]  # columns
    inverse_q = list(zip(*solve(deflated, q)))  # rows of A^-1 Q
    return p0, [apply(inverse_q, column) for column in q]


@mpmath.workdps(DIGITS)
def reference_cumulants(spec, bath: str, kind: str, made=None, order: int = 4) -> list:
    """E_1..E_order of ``(bath, kind)`` at 50 digits, as ``mpf``, from the
    :func:`reference` ``made`` of ``spec``."""
    p0, r_columns = made or reference(spec)
    r = [[column[i] for column in r_columns] for i in range(5)]
    h = [mp_matrix(generator_chi_derivative(spec, CountingFields.zero(kind), bath, n))
         for n in range(1, order + 1)]
    energies, states = [], [p0]
    for big_n in range(1, order + 1):
        products = [apply(h[n - 1], states[big_n - n]) for n in range(1, big_n + 1)]
        e = mpmath.fsum(comb(big_n, n) * mpmath.fsum(hp[:3]) for n, hp in enumerate(products, 1))
        e -= mpmath.fsum(comb(big_n, k) * energies[k - 1] * mpmath.fsum(states[big_n - k][:3])
                         for k in range(1, big_n))
        energies.append(e)
        if big_n < order:
            states.append(apply(r, [mpmath.fsum(
                comb(big_n, n) * (energies[n - 1] * states[big_n - n][i] - hp[i])
                for n, hp in enumerate(products, 1)) for i in range(5)]))
    return [e.real for e in energies]


@mpmath.workdps(DIGITS)
def relative_errors(spec, bath: str, kind: str, made=None) -> list:
    """``|E_n - E_n^ref| / |E_n^ref|`` of ``cumulants_perturbative``, n = 1..4."""
    values = cumulants_perturbative(spec, bath, kind, 4).values
    return [float(abs(x - ref) / abs(ref))
            for x, ref in zip(values, reference_cumulants(spec, bath, kind, made))]


@pytest.fixture(scope="module")
def references():
    return [reference(spec) for spec in CORPUS]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bath", BATHS)
def test_recursion_matches_the_50_digit_reference(references, bath, kind):
    worst = [max(column) for column in zip(*(relative_errors(spec, bath, kind, made)
                                             for spec, made in zip(CORPUS, references)))]
    assert all(error <= bound for error, bound in zip(worst, BOUNDS)), worst


def test_projected_inverse_matches_the_50_digit_reference(references):
    for spec, (_, columns) in zip(CORPUS, references):
        exact = np.array([[complex(column[i]) for column in columns] for i in range(5)])
        error = np.abs(pseudo_inverse_R(spec) - exact).max() / np.abs(exact).max()
        assert error <= INVERSE_BOUND, spec


def test_cumulants_are_exactly_real_and_the_direct_mean_is_e1():
    # the recursion keeps populations real and the coherences a conjugate
    # pair, so no imaginary part is ever formed
    for spec in CORPUS[::10]:
        for bath in BATHS:
            for kind in KINDS:
                cs = cumulants_perturbative(spec, bath, kind, 4)
                assert cs.imag_residue == 0.0
                assert first_cumulant_direct(spec, bath, kind).hex() == cs.values[0].hex()
