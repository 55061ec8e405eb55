"""Full counting statistics of the transferred energy or excitation number.

The scaled cumulant generating function of the counted quantity is the
eigenvalue of the dressed generator that is continuously connected to zero
at vanishing counting field.  Cumulants are obtained two independent ways:
arbitrary orders from a perturbative recursion in the counting field built
on a projected inverse of the generator, and low orders from finite
differences of the dominant eigenvalue.  The first is also available
directly from the steady state, which is the recursion's first order.

The array cores :func:`_recursion` and :func:`_differences` run both routes
on one spec or a stack of them, with the bits and error texts of one spec;
the grid evaluator of :mod:`vflux.runner` reads their arrays as cells.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb
from numbers import Real
from operator import mul

import numpy as np

from .errors import BranchError, UsageError
from .liouvillian import (TRACE_VECTOR, Generator, _bare, _check_order, _chi_derivative,
                          _counting_matrix)
from .model import BATHS, KINDS, CountingFields, RateSet, SystemSpec, _memo
from .steady import SteadyState, steady_state

PERTURBATIVE = "perturbative"
FINITE_DIFFERENCE = "finite_difference"

#: Two eigenvalues with real parts this close to the maximum make the
#: dominant-branch selection ambiguous.
BRANCH_TOL = 1e-9

#: Imaginary residue above this level on a reported cumulant is warned about.
IMAG_WARN = 1e-10

#: Default step in chi of the finite-difference cumulants.
FD_STEP = 1e-4

#: Fewest matrices a thread of a split stacked ``eigvals`` takes
#: (:func:`_eigvals`); measured crossover in ``docs/conventions.md``.
SPLIT_MATRICES = 500

_BRANCH_ERROR = "two eigenvalues within {} of the maximal real part {:.3e}"
_NOT_FINITE_ERROR = "dressed generator is not finite"

# The recursion's constants; ``@`` casts a float trace row anew each call.
_TRACE_ROW = TRACE_VECTOR.astype(complex)
_SPREAD = np.outer(TRACE_VECTOR / 3.0, TRACE_VECTOR)
_IDENTITY = np.eye(5, dtype=complex)


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


def _check_difference(bath: str, kind: str, order: int, h: float):
    _check_bath_kind(bath, kind)
    _check_order("finite-difference", order, 2)
    if isinstance(h, bool) or not isinstance(h, Real):
        raise UsageError(f"finite-difference step must be a real number, got {h!r}")
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
        target counting field, or if a dressed generator is not finite.
    """
    rates = _memo(spec)["rates"]
    if chi.is_zero:
        (eigvals,), errors = _spectra(rates, chi, (1.0,))
        tracked = eigvals[np.argmin(np.abs(eigvals))]
    else:
        spectra, errors = _spectra(rates, chi, (0.5, 1.0))
        tracked, branch_errors = _branch(*spectra)
        errors = {**branch_errors, **errors}
    if errors:
        raise BranchError(errors[()])
    return complex(tracked)


def _spectra(rates: RateSet, chi: CountingFields, fractions):
    """Dressed spectra, ``rates.shape + (5,)``, at each fraction of ``chi``,
    from one :func:`_eigvals` of their stack, and the :class:`BranchError`
    text of each index (as :func:`_branch` keys it) whose dressed matrices
    are not all finite.  Those never reach ``eigvals``, which rejects a
    whole stack for one of them: the identity takes their place, as in
    :func:`_projected_inverse`."""
    matrices = np.stack([_counting_matrix(rates, chi.scaled(f)) for f in fractions])
    finite = np.isfinite(matrices).all(axis=(0, -2, -1))
    if finite.all():
        return list(_eigvals(matrices)), {}
    errors = {tuple(n): _NOT_FINITE_ERROR for n in np.argwhere(~finite)}
    matrices[:, ~finite] = np.eye(5)
    return list(_eigvals(matrices)), errors


def _cores() -> int:
    """CPUs this process may run on (``os.cpu_count()`` where the platform
    has no ``os.sched_getaffinity``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _eigvals(stack: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvals`` of a stack of matrices.  A stack of at least
    two :data:`SPLIT_MATRICES` runs as up to one contiguous chunk per core,
    each on a thread of a pool made and shut down inside the call (LAPACK's
    ``zgeev`` releases the GIL), concatenated in order; a smaller one is one
    call in the calling thread.  Each matrix is solved alone, so the bits do
    not depend on the split."""
    flat = stack.reshape(-1, *stack.shape[-2:])
    chunks = min(_cores(), len(flat) // SPLIT_MATRICES)
    if chunks < 2:
        return np.linalg.eigvals(stack)
    with ThreadPoolExecutor(chunks) as pool:
        parts = list(pool.map(np.linalg.eigvals, np.array_split(flat, chunks)))
    return np.concatenate(parts).reshape(stack.shape[:-1])


def _branch(start, end):
    """In each spectrum ``end``, the eigenvalue nearest the one of ``start``
    (at half the field) nearest zero, a scalar for one point and an array for
    a stack, and the :class:`BranchError` text of each index (``()`` for one
    point) whose top two real parts in ``end`` lie within :data:`BRANCH_TOL`."""
    if start.ndim == 1:  # plain indexing, to the same bits
        top = np.sort(end.real)
        tracked = end[np.argmin(np.abs(end - start[np.argmin(np.abs(start))]))]
        gap = top[-1] - top[-2] < BRANCH_TOL
        return tracked, {(): _BRANCH_ERROR.format(BRANCH_TOL, top[-1])} if gap else {}
    near = np.take_along_axis(start, np.argmin(np.abs(start), axis=-1)[..., None], -1)
    pick = np.argmin(np.abs(end - near), axis=-1)[..., None]
    top = np.sort(end.real, axis=-1)
    return np.take_along_axis(end, pick, -1)[..., 0][()], {
        tuple(n): _BRANCH_ERROR.format(BRANCH_TOL, top[tuple(n)][-1])
        for n in np.argwhere(top[..., -1] - top[..., -2] < BRANCH_TOL)}


def first_cumulant_direct(spec: SystemSpec, bath: str, kind: str) -> float:
    """Mean current from the steady state and the first generator derivative."""
    _check_bath_kind(bath, kind)
    record = _memo(spec)
    p0 = _kernel(record).vector
    value = complex(TRACE_VECTOR @ (_derivatives(record, bath, kind, 1)[0] @ p0))
    return float(value.real)


def pseudo_inverse_R(spec: SystemSpec) -> np.ndarray:
    """Projected inverse of the generator used by the cumulant recursion.

    With ``Q = 1 - |P0><I|`` the returned matrix satisfies ``R L = Q``,
    ``R |P0> = 0`` and ``<I| R = 0``: it is the group inverse of ``L``,
    ``Q A^-1 Q`` with ``A = L - s|e><I|``, ``e = I/3``, ``s = max|L_ij|`` over
    the population block; raises the steady state's error when it has one.
    """
    return _inverse(_memo(spec)).copy()


def _kernel(record: dict) -> SteadyState:
    """The kernel of a memo record (:func:`vflux.model._memo`), made on first use."""
    if "kernel" not in record:
        record["kernel"] = steady_state(Generator(_bare(record), record["spec"]))
    return record["kernel"]


def _inverse(record: dict) -> np.ndarray:
    """:func:`pseudo_inverse_R` of a memo record, made on first use."""
    if "inverse" not in record:
        record["inverse"] = _projected_inverse(_bare(record), _kernel(record).vector)
    return record["inverse"]


def _derivatives(record: dict, bath: str, kind: str, order: int) -> tuple:
    """H_1.. of ``(bath, kind)`` of a memo record, made to ``order`` at least."""
    made = record.get(("H", bath, kind), ())
    if len(made) < order:
        made = record["H", bath, kind] = (*made, *_chi_derivative(
            record["rates"], CountingFields.zero(kind), bath, range(len(made) + 1, order + 1)))
    return made


def _projected_inverse(m: np.ndarray, p0: np.ndarray, errors=()) -> np.ndarray:
    """:func:`pseudo_inverse_R` from the generator(s) and steady state(s) of one
    point or a stack; the points in ``errors`` are inverted as the identity,
    since one exactly singular matrix fails a whole stacked ``inv``."""
    s = np.abs(m[..., :3, :3]).max(axis=(-2, -1))
    a = m - s[..., None, None] * _SPREAD
    if errors:
        a[list(errors)] = np.eye(5)
    q = _IDENTITY - p0[..., :, None] * TRACE_VECTOR
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
    _check_bath_kind(bath, kind)
    _check_order("cumulant", order, 4)
    return _recursion_set(bath, kind, _orders(_memo(spec), bath, kind, order))


def _orders(record: dict, bath: str, kind: str, order: int) -> tuple:
    """E_1..E_order of :func:`cumulants_perturbative` of a memo record, resumed."""
    made = record.get(("E", bath, kind)) or ((), (_kernel(record).vector,), ())
    if len(made[0]) < order:
        made = record["E", bath, kind] = _recursion(
            _inverse(record), _derivatives(record, bath, kind, order), made, order)
    return made[0][:order]


def _recursion(r: np.ndarray, h, made: tuple, order: int) -> tuple:
    """The orders ``made`` = ``(E_1..E_k, P_0..P_k, <I|P_1>..<I|P_{k-1}>)``
    of :func:`cumulants_perturbative`, complex, extended to ``order`` with
    the projected inverse(s) ``r`` and H_1..H_order ``h`` of one point or a
    stack; a fresh start is ``((), (P_0,), ())``, ``P_0`` the steady state(s).

    A stack runs as ``(N, 5, 1)`` columns, so that each product is a
    stacked ``np.matmul`` on C-contiguous stacks, the trace row included:
    ``TRACE_VECTOR @ v.T`` changes the last bit.  Its cumulants are
    ``(N, 1, 1)`` arrays.  The product of two of its complex arrays in the
    correction term is written out in real parts: numpy may fuse an array
    product's multiplies and adds, where one point's Python product rounds
    each, which changed the last bit of an imaginary residue.  Each
    ``H_n |P_{N-n}>`` and ``<I|P_k>`` is made once.
    """
    energies, states, traces = map(list, made)
    if states[0].ndim == 1:
        def trace(v):
            return complex(_TRACE_ROW @ v)

        times = mul
    else:
        def trace(v):
            return _TRACE_ROW[None] @ v

        def times(a, b):
            out = np.empty_like(a)
            out.real = a.real * b.real - a.imag * b.imag
            out.imag = a.real * b.imag + a.imag * b.real
            return out

    for big_n in range(len(energies) + 1, order + 1):
        if big_n > 1:
            traces.append(trace(states[-1]))
        products = [h[n - 1] @ states[big_n - n] for n in range(1, big_n + 1)]
        e = sum(comb(big_n, n) * trace(hp) for n, hp in enumerate(products, 1))
        e -= sum(times(comb(big_n, k) * energies[k - 1], traces[big_n - k - 1])
                 for k in range(1, big_n))
        energies.append(e)
        accum = np.zeros(states[0].shape, dtype=complex)
        for n, hp in enumerate(products, 1):
            accum += comb(big_n, n) * (energies[n - 1] * states[big_n - n] - hp)
        states.append(r @ accum)
    return tuple(energies), tuple(states), tuple(traces)


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
    values, errors = _differences(_memo(spec)["rates"], bath, kind, order, h)
    if errors:
        raise BranchError(errors[()])
    return CumulantSet(bath, kind, tuple(map(float, values)), FINITE_DIFFERENCE, 0.0)


def _differences(rates: RateSet, bath: str, kind: str, order: int, h: float):
    """The Richardson-refined stencils of :func:`cumulants_finite_difference`
    on one point's or a stack's valid, checked rates: one array per order,
    of ``rates.shape`` (a scalar for one point), and the :class:`BranchError`
    text of each index (as :func:`_branch` keys it) whose dressed matrices
    are not finite (:func:`_spectra`), else whose branch is ambiguous at
    step h, else at step h/2.  Step h is tracked 0, h/2, h and step h/2 0,
    h/4, h/2: one spectrum at h/2 serves both."""
    (quarter, half, full), errors = _spectra(rates, _single_field(bath, kind, h),
                                             (0.25, 0.5, 1.0))
    e_h, errors_h = _branch(half, full)
    e_h2, errors_h2 = _branch(quarter, half)
    # d E0 / d(i chi) at 0: odd part is purely imaginary by symmetry
    values = [richardson(e_h.imag / h, e_h2.imag / (h / 2.0))]
    if order >= 2:
        # d^2 E0 / d(i chi)^2 at 0: even part is real, E0(0) = 0
        values.append(richardson(-2.0 * e_h.real / h**2, -2.0 * e_h2.real / (h / 2.0)**2))
    return values, {**errors_h2, **errors_h, **errors}
