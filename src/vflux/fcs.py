"""Full counting statistics of the transferred energy or excitation number.

The scaled cumulant generating function of the counted quantity is the
eigenvalue of the dressed generator that is continuously connected to zero
at vanishing counting field.  Cumulants are obtained two independent ways:
arbitrary orders from a perturbative recursion in the counting field built
on a projected inverse of the generator, and low orders from finite
differences of the dominant eigenvalue.  The first is also available
directly from the steady state, which is the recursion's first order.

The array cores :func:`_recursion` and :func:`_differences` run both routes
on one spec's :class:`RateSet` or a stacked one, with the bits and error
texts of one spec; the ``_*_batch`` functions wrap their arrays as one
:class:`CumulantSet` or error per point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb
from operator import mul

import numpy as np

from .errors import BranchError, DegenerateSteadyStateError, UsageError
from .liouvillian import (TRACE_VECTOR, _check_order, _chi_derivative, _counting_matrix,
                          _fill_block, build_generator)
from .model import BATHS, KINDS, CountingFields, RateSet, SystemSpec, build_rates
from .steady import SteadyStateBatch, steady_state

PERTURBATIVE = "perturbative"
FINITE_DIFFERENCE = "finite_difference"

#: Two eigenvalues with real parts this close to the maximum make the
#: dominant-branch selection ambiguous.
BRANCH_TOL = 1e-9

#: Imaginary residue above this level on a reported cumulant is warned about.
IMAG_WARN = 1e-10

#: Default step in chi of the finite-difference cumulants.
FD_STEP = 1e-4

_BRANCH_ERROR = "two eigenvalues within {} of the maximal real part {:.3e}"


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


def _check_recursion(bath: str, kind: str, order: int):
    _check_bath_kind(bath, kind)
    _check_order("cumulant", order, 4)


def _check_difference(bath: str, kind: str, order: int, h: float):
    _check_bath_kind(bath, kind)
    _check_order("finite-difference", order, 2)
    if not 1e-6 <= h <= 1e-2:
        raise UsageError(f"finite-difference step must lie in [1e-6, 1e-2], got {h}")


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
    rates = build_rates(spec)
    if chi.is_zero:
        eigvals = np.linalg.eigvals(_fill_block(rates))
        return complex(eigvals[np.argmin(np.abs(eigvals))])
    tracked, errors = _branch(*_spectra(rates, chi, (0.5, 1.0)))
    if errors:
        raise BranchError(errors[()])
    return complex(tracked)


def _spectra(rates: RateSet, chi: CountingFields, fractions) -> list:
    """Dressed spectra, ``rates.shape + (5,)``, at each fraction of ``chi``."""
    return [np.linalg.eigvals(_counting_matrix(rates, chi.scaled(f))) for f in fractions]


def _branch(start, end):
    """In each spectrum ``end``, the eigenvalue nearest the one of ``start``
    (at half the field) nearest zero, a scalar for one point and an array for
    a stack, and the :class:`BranchError` text of each index (``()`` for one
    point) whose top two real parts in ``end`` lie within :data:`BRANCH_TOL`."""
    near = np.take_along_axis(start, np.argmin(np.abs(start), axis=-1)[..., None], -1)
    pick = np.argmin(np.abs(end - near), axis=-1)[..., None]
    top = np.sort(end.real, axis=-1)
    return np.take_along_axis(end, pick, -1)[..., 0][()], {
        tuple(n): _BRANCH_ERROR.format(BRANCH_TOL, top[tuple(n)][-1])
        for n in np.argwhere(top[..., -1] - top[..., -2] < BRANCH_TOL)}


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
    ``R |P0> = 0`` and ``<I| R = 0``: it is the group inverse of ``L``,
    ``Q A^-1 Q`` with ``A = L - s|e><I|``, ``e = I/3``, ``s = max|L_ij|`` over
    the population block; raises the steady state's error when it has one.
    """
    gen = build_generator(spec)
    return _projected_inverse(gen.matrix, steady_state(gen).vector)


def _projected_inverse(m: np.ndarray, p0: np.ndarray, errors=()) -> np.ndarray:
    """:func:`pseudo_inverse_R` from the generator(s) and steady state(s) of one
    point or a stack; the points in ``errors`` are inverted as the identity,
    since one exactly singular matrix fails a whole stacked ``inv``."""
    s = np.abs(m[..., :3, :3]).max(axis=(-2, -1))
    a = m - s[..., None, None] * np.outer(TRACE_VECTOR / 3.0, TRACE_VECTOR)
    if errors:
        a[list(errors)] = np.eye(5)
    q = np.eye(5, dtype=complex) - p0[..., :, None] * TRACE_VECTOR
    return q @ np.linalg.inv(a) @ q


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
    _check_recursion(bath, kind, order)
    rates = build_rates(spec)
    gen = build_generator(spec, rates)
    raw = _recursion(rates, gen.matrix, steady_state(gen).vector, bath, kind, order)
    return _recursion_set(bath, kind, raw)


def _recursion(rates: RateSet, m: np.ndarray, p0: np.ndarray, bath: str, kind: str,
               order: int, errors=()) -> list:
    """E_1..E_order of :func:`cumulants_perturbative`, complex, from the
    rates, the bare generator(s) ``m`` and the steady state(s) ``p0`` of one
    point or of a stack (``errors`` as in :func:`_projected_inverse`).

    A stack runs as ``(N, 5, 1)`` columns, so that each product is a
    stacked ``np.matmul`` on C-contiguous stacks, the trace row included:
    ``TRACE_VECTOR @ v.T`` changes the last bit.  Its cumulants are
    ``(N, 1, 1)`` arrays.  The product of two of its complex arrays in the
    correction term is written out in real parts: numpy may fuse an array
    product's multiplies and adds, where one point's Python product rounds
    each, which changed the last bit of an imaginary residue.
    """
    r = _projected_inverse(m, p0, errors)
    chi0 = CountingFields.zero(kind)
    h = {n: _chi_derivative(rates, chi0, bath, n) for n in range(1, order + 1)}
    if p0.ndim == 1:
        def trace(v):
            return complex(TRACE_VECTOR @ v)

        times = mul
    else:
        p0 = p0[:, :, None]

        def trace(v):
            return TRACE_VECTOR[None] @ v

        def times(a, b):
            out = np.empty_like(a)
            out.real = a.real * b.real - a.imag * b.imag
            out.imag = a.real * b.imag + a.imag * b.real
            return out

    energies: dict = {}
    states: dict[int, np.ndarray] = {0: p0}
    for big_n in range(1, order + 1):
        e = sum(comb(big_n, n) * trace(h[n] @ states[big_n - n]) for n in range(1, big_n + 1))
        e -= sum(times(comb(big_n, k) * energies[k], trace(states[big_n - k]))
                 for k in range(1, big_n))
        energies[big_n] = e
        accum = np.zeros(p0.shape, dtype=complex)
        for n in range(1, big_n + 1):
            accum += comb(big_n, n) * (energies[n] * states[big_n - n] - h[n] @ states[big_n - n])
        states[big_n] = r @ accum
    return [energies[n] for n in range(1, order + 1)]


def _residues(raw: list, errors=()) -> list:
    """Largest imaginary part over the orders of the recursion's complex
    cumulants ``raw`` (see :func:`_recursion`), one float per point (a list
    of one for one point); warns about each above :data:`IMAG_WARN`, in
    point order, except at the points in ``errors``, which hold no kernel."""
    residues = np.abs(np.imag(raw)).max(axis=0).ravel()
    for n in np.flatnonzero(residues > IMAG_WARN).tolist():
        if n not in errors:
            warnings.warn(f"cumulants carry imaginary residue {residues[n]:.3e}",
                          RuntimeWarning, stacklevel=4)
    return residues.tolist()


def _recursion_set(bath: str, kind: str, raw: list) -> CumulantSet:
    """One point's recursion cumulants as a :class:`CumulantSet`; warns as
    :func:`_residues` does."""
    (residue,) = _residues(raw)
    return CumulantSet(bath, kind, tuple(e.real for e in raw), PERTURBATIVE, residue)


def _recursion_batch(rates: RateSet, states: SteadyStateBatch,
                     bath: str, kind: str, order: int) -> list:
    """:func:`cumulants_perturbative` of a stack of valid rates and their
    steady states: one :class:`CumulantSet` or error per point."""
    errors = states.errors
    raw = _recursion(rates, states.matrices, states.vectors, bath, kind, order, errors)
    residues = _residues(raw, errors)
    values = np.concatenate([e.real for e in raw], axis=-1)[:, 0].tolist()
    return [DegenerateSteadyStateError(errors[point]) if point in errors
            else CumulantSet(bath, kind, tuple(values[point]), PERTURBATIVE, residues[point])
            for point in range(len(states.vectors))]


def cumulants_finite_difference(
    spec: SystemSpec,
    bath: str,
    kind: str,
    order: int = 2,
    h: float = FD_STEP,
) -> CumulantSet:
    """Cumulants from central differences of the dominant eigenvalue.

    Uses the reality symmetry of the generating function (its value at
    -chi is the conjugate of the value at chi), so one eigenvalue per step
    size suffices; each stencil is Richardson-refined once.
    """
    _check_difference(bath, kind, order, h)
    (outcome,) = _difference_batch(build_rates(spec), bath, kind, order, h)
    if isinstance(outcome, BranchError):
        raise outcome
    return outcome


def _differences(rates: RateSet, bath: str, kind: str, order: int, h: float):
    """The Richardson-refined stencils of :func:`cumulants_finite_difference`
    on one point's or a stack's valid, checked rates: one array per order,
    of ``rates.shape`` (a scalar for one point), and the :class:`BranchError` text of each index (as
    :func:`_branch` keys it) whose branch is ambiguous at step h or h/2, that
    of step h where both are.  Step h is tracked 0, h/2, h and step h/2 0,
    h/4, h/2: one spectrum at h/2 serves both."""
    quarter, half, full = _spectra(rates, _single_field(bath, kind, h), (0.25, 0.5, 1.0))
    e_h, errors = _branch(half, full)
    e_h2, errors_h2 = _branch(quarter, half)
    # d E0 / d(i chi) at 0: odd part is purely imaginary by symmetry
    values = [richardson(e_h.imag / h, e_h2.imag / (h / 2.0))]
    if order >= 2:
        # d^2 E0 / d(i chi)^2 at 0: even part is real, E0(0) = 0
        values.append(richardson(-2.0 * e_h.real / h**2, -2.0 * e_h2.real / (h / 2.0)**2))
    return values, {**errors_h2, **errors}


def _difference_batch(rates: RateSet, bath: str, kind: str, order: int, h: float) -> list:
    """:func:`_differences` as one :class:`CumulantSet` or
    :class:`BranchError` per point."""
    values, errors = _differences(rates, bath, kind, order, h)
    cells = zip(*(np.ravel(v).tolist() for v in values))
    return [BranchError(errors[n]) if n in errors
            else CumulantSet(bath, kind, cell, FINITE_DIFFERENCE, 0.0)
            for n, cell in zip(np.ndindex(rates.shape), cells)]
