"""Full counting statistics of the transferred energy or excitation number.

The scaled cumulant generating function of the counted quantity is the
eigenvalue of the dressed generator that is continuously connected to zero
at vanishing counting field.  Cumulants are obtained two independent ways:
arbitrary orders from a perturbative recursion in the counting field built
on a projected inverse of the generator, and low orders from finite
differences of the dominant eigenvalue.  The first is also available
directly from the steady state, which is the recursion's first order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import BranchError, DegenerateSteadyStateError, UsageError
from .liouvillian import (
    TRACE_VECTOR,
    _chi_derivative,
    _counting_matrix,
    _fill_block,
    build_generator,
)
from .model import BATHS, KINDS, CountingFields, RateSet, SystemSpec, build_rates
from .steady import steady_state

PERTURBATIVE = "perturbative"
FINITE_DIFFERENCE = "finite_difference"

#: Two eigenvalues with real parts this close to the maximum make the
#: dominant-branch selection ambiguous.
BRANCH_TOL = 1e-9

#: Relative singular-value cutoff for the projected inverse.
PINV_CUTOFF = 1e-12

#: Imaginary residue above this level on a reported cumulant is warned about.
IMAG_WARN = 1e-10


@dataclass(frozen=True)
class CumulantSet:
    """Ordered cumulants of one counted flow.

    ``values[0]`` is the mean current, ``values[1]`` the zero-frequency
    noise power.  ``imag_residue`` records the largest imaginary part that
    was discarded when projecting onto the reals.
    """

    bath: str
    kind: str
    values: tuple[float, ...]
    method: str
    imag_residue: float = 0.0

    @property
    def current(self) -> float:
        return self.values[0]

    @property
    def noise_power(self) -> float:
        if len(self.values) < 2:
            raise UsageError("noise power requires cumulants up to order 2")
        return self.values[1]


def richardson(coarse, fine):
    """One Richardson refinement of two second-order estimates, the fine
    one made with half the step of the coarse one."""
    return (4.0 * fine - coarse) / 3.0


def _check_bath_kind(bath: str, kind: str):
    if bath not in BATHS:
        raise UsageError(f"bath must be one of {BATHS}, got {bath!r}")
    if kind not in KINDS:
        raise UsageError(f"kind must be one of {KINDS}, got {kind!r}")


def _single_field(bath: str, kind: str, chi: float) -> CountingFields:
    return CountingFields(chiL=chi if bath == "L" else 0.0,
                          chiR=chi if bath == "R" else 0.0,
                          kind=kind)


def dominant_eigenvalue(spec: SystemSpec, chi: CountingFields) -> complex:
    """Eigenvalue of the dressed generator continuously connected to zero.

    The branch is tracked by minimal-distance matching while the counting
    fields are ramped from zero (half step, then full step); "maximal real
    part" alone can momentarily tie, continuity cannot.

    Raises
    ------
    BranchError
        If two eigenvalues sit within 1e-9 of the maximal real part at the
        target counting field.
    """
    return _dominant_eigenvalue(build_rates(spec), chi)


def _dominant_eigenvalue(rates: RateSet, chi: CountingFields) -> complex:
    """:func:`dominant_eigenvalue` from built rates."""
    if chi.is_zero:
        eigvals = np.linalg.eigvals(_fill_block(rates))
        return complex(eigvals[np.argmin(np.abs(eigvals))])
    tracked = 0.0 + 0.0j
    for fraction in (0.5, 1.0):
        eigvals = np.linalg.eigvals(_counting_matrix(rates, chi.scaled(fraction)))
        tracked = complex(eigvals[np.argmin(np.abs(eigvals - tracked))])
    max_re = eigvals.real.max()
    contenders = np.sort(eigvals.real)[::-1]
    if len(contenders) > 1 and contenders[0] - contenders[1] < BRANCH_TOL:
        raise BranchError(
            f"two eigenvalues within {BRANCH_TOL} of the maximal real part {max_re:.3e}"
        )
    return tracked


def first_cumulant_direct(spec: SystemSpec, bath: str, kind: str) -> float:
    """Mean current from the steady state and the first generator derivative."""
    _check_bath_kind(bath, kind)
    rates = build_rates(spec)
    p0 = steady_state(build_generator(spec, rates)).vector
    h1 = _chi_derivative(rates, CountingFields.zero(kind), bath, 1)
    value = complex(TRACE_VECTOR @ (h1 @ p0))
    return float(value.real)


def pseudo_inverse_R(spec: SystemSpec) -> np.ndarray:
    """Projected inverse of the generator used by the cumulant recursion.

    With ``Q = 1 - |P0><I|`` the returned matrix satisfies ``R L = Q``,
    ``R |P0> = 0`` and ``<I| R = 0``.  Built from a full singular value
    decomposition with a relative cutoff; exactly one singular direction
    must fall below the cutoff.
    """
    gen = build_generator(spec)
    return _projected_inverse(gen.matrix, steady_state(gen).vector)


def _projected_inverse(matrix: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """:func:`pseudo_inverse_R` of a bare generator with steady state ``p0``."""
    q = np.eye(5, dtype=complex) - np.outer(p0, TRACE_VECTOR)
    u, sigma, vh = np.linalg.svd(matrix)
    cutoff = PINV_CUTOFF * sigma[0]
    small = sigma < cutoff
    if small.sum() != 1:
        raise DegenerateSteadyStateError(
            f"projected inverse expects exactly one singular value below cutoff, got {int(small.sum())}"
        )
    inv_sigma = np.where(small, 0.0, 1.0 / np.where(small, 1.0, sigma))
    pinv = (vh.conj().T * inv_sigma) @ u.conj().T
    return q @ pinv @ q


def cumulants_perturbative(
    spec: SystemSpec,
    bath: str,
    kind: str,
    order: int = 2,
) -> CumulantSet:
    """Cumulants E_1..E_order from the recursion in the counting field.

    Writing the dressed generator, its dominant eigenvalue and eigenvector
    as power series in (i chi), order N yields

        E_N = sum_{n=1..N} C(N,n) <I| H_n |P_{N-n}>
              - sum_{k=1..N-1} C(N,k) E_k <I| P_{N-k}>
        |P_N> = R sum_{n=1..N} C(N,n) (E_n - H_n) |P_{N-n}>

    with H_n the analytic generator derivatives and R the projected
    inverse.  The correction sum in E_N vanishes identically when the
    |P_n> are built with R (which annihilates <I|); it is kept as a cheap
    consistency term.
    """
    _check_bath_kind(bath, kind)
    if not 1 <= order <= 4:
        raise UsageError(f"cumulant order must be in 1..4, got {order}")
    rates = build_rates(spec)
    gen = build_generator(spec, rates)
    p0 = steady_state(gen).vector
    r = _projected_inverse(gen.matrix, p0)
    chi0 = CountingFields.zero(kind)
    h = {n: _chi_derivative(rates, chi0, bath, n) for n in range(1, order + 1)}

    energies: dict[int, complex] = {}
    states: dict[int, np.ndarray] = {0: p0}
    for big_n in range(1, order + 1):
        e = sum(
            comb(big_n, n) * complex(TRACE_VECTOR @ (h[n] @ states[big_n - n]))
            for n in range(1, big_n + 1)
        )
        e -= sum(
            comb(big_n, k) * energies[k] * complex(TRACE_VECTOR @ states[big_n - k])
            for k in range(1, big_n)
        )
        energies[big_n] = e
        accum = np.zeros(5, dtype=complex)
        for n in range(1, big_n + 1):
            accum += comb(big_n, n) * (
                energies[n] * states[big_n - n] - h[n] @ states[big_n - n]
            )
        states[big_n] = r @ accum

    raw = [energies[n] for n in range(1, order + 1)]
    residue = max(abs(e.imag) for e in raw)
    if residue > IMAG_WARN:
        warnings.warn(
            f"cumulants carry imaginary residue {residue:.3e}", RuntimeWarning, stacklevel=2
        )
    return CumulantSet(bath, kind, tuple(e.real for e in raw), PERTURBATIVE, residue)


def cumulants_finite_difference(
    spec: SystemSpec,
    bath: str,
    kind: str,
    order: int = 2,
    h: float = 1e-4,
) -> CumulantSet:
    """Cumulants from central differences of the dominant eigenvalue.

    Uses the reality symmetry of the generating function (its value at
    -chi is the conjugate of the value at chi), so one eigenvalue per step
    size suffices; each stencil is Richardson-refined once.
    """
    _check_bath_kind(bath, kind)
    if not 1 <= order <= 2:
        raise UsageError(f"finite-difference order must be 1 or 2, got {order}")
    if not 1e-6 <= h <= 1e-2:
        raise UsageError(f"finite-difference step must lie in [1e-6, 1e-2], got {h}")

    rates = build_rates(spec)
    e_h = _dominant_eigenvalue(rates, _single_field(bath, kind, h))
    e_h2 = _dominant_eigenvalue(rates, _single_field(bath, kind, h / 2.0))

    def first(step: float, value: complex) -> float:
        # d E0 / d(i chi) at 0: odd part is purely imaginary by symmetry
        return value.imag / step

    def second(step: float, value: complex) -> float:
        # d^2 E0 / d(i chi)^2 at 0: even part is real, E0(0) = 0
        return -2.0 * value.real / step**2

    values = [richardson(first(h, e_h), first(h / 2.0, e_h2))]
    if order >= 2:
        values.append(richardson(second(h, e_h), second(h / 2.0, e_h2)))
    return CumulantSet(bath, kind, tuple(values), FINITE_DIFFERENCE, 0.0)
