"""Full counting statistics of the transferred energy or excitation number.

The scaled cumulant generating function is the eigenvalue of the dressed
generator continuously connected to zero.  Cumulants come two independent
ways: any order from a recursion on a projected inverse (:func:`_recursion`;
the first order also directly from the steady state), low orders from
finite differences of the eigenvalue (:func:`_differences`).  Both cores run
on one spec or a stack, with one spec's bits and error texts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce
from math import comb
from numbers import Real
from operator import add

import numpy as np

from .errors import BranchError, UsageError
from .liouvillian import (Generator, _bare, _check_order, _counting_matrix, _dressed_rates,
                          _entries, _sandwich_values)
from .model import BATHS, KINDS, CountingFields, RateSet, SystemSpec, _memo
from .steady import SteadyState, _minors, steady_state

PERTURBATIVE = "perturbative"
FINITE_DIFFERENCE = "finite_difference"

#: Two eigenvalues with real parts within this fraction of ``s`` (the
#: largest ``|L_ij|`` of the bare population block) of the maximum make
#: the dominant-branch selection ambiguous.
BRANCH_TOL = 1e-8

#: Imaginary residue above this level on a reported cumulant is warned about.
IMAG_WARN = 1e-10

#: Default step in chi of the finite-difference cumulants.
FD_STEP = 1e-4

#: Newton steps from zero to each eigenvalue of the stencils; the bits
#: depend on the count, so every point of a stack takes all of them.
NEWTON_STEPS = 4

#: A converged eigenvalue's last step is at most this fraction of it, and a
#: separated one has ``|f'| / s**2`` of at least SEPARATION_MIN
#: (margins in ``docs/conventions.md``).
NEWTON_TOL, SEPARATION_MIN = 1e-6, 1e-4

_BRANCH_ERROR = "two eigenvalues within {:.3e} of the maximal real part {:.3e}"
_NOT_FINITE_ERROR = "dressed generator is not finite"
_NEWTON_ERROR = ("no separated dominant eigenvalue at chi = {:.3e}: |f'|/s^2 = {:.3e}, "
                 "last Newton step {:.3e} at |lambda| {:.3e}")
_ZERO_FIELD_ERROR = "dominant eigenvalue not separated at zero field: |f'|/s^2 = {:.3e}"


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
    """Eigenvalue of the dressed generator continuously connected to zero,
    tracked by nearest match from the spectrum at half the field, from one
    ``np.linalg.eigvals`` call: an oracle independent of the stencils'
    Newton core (:func:`_eigenvalues`).  Raises :class:`BranchError` if two
    eigenvalues sit within ``BRANCH_TOL * s`` of the maximal real part at
    the field, or if a dressed generator is not finite.
    """
    record = _memo(spec)
    fractions = (1.0,) if chi.is_zero else (0.5, 1.0)
    matrices = np.stack([_counting_matrix(record["rates"], chi.scaled(f)) for f in fractions])
    if not np.isfinite(matrices).all():
        raise BranchError(_NOT_FINITE_ERROR)
    start, *end = np.linalg.eigvals(matrices)
    near = start[np.argmin(np.abs(start))]
    if not end:
        return complex(near)
    top, tol = np.sort(end[0].real), BRANCH_TOL * np.abs(_bare(record)[:3, :3]).max()
    if top[-1] - top[-2] < tol:
        raise BranchError(_BRANCH_ERROR.format(tol, top[-1]))
    return complex(end[0][np.argmin(np.abs(end[0] - near))])


def first_cumulant_direct(spec: SystemSpec, bath: str, kind: str) -> float:
    """Mean current ``<I| H_1 |P0>`` from the steady state and the first
    generator derivative: the recursion's first order, which needs no R."""
    _check_bath_kind(bath, kind)
    return float(_orders(_memo(spec), bath, kind, 1)[0].real)


def pseudo_inverse_R(spec: SystemSpec) -> np.ndarray:
    """Projected inverse of the generator used by the cumulant recursion.

    With ``Q = 1 - |P0><I|`` the returned matrix satisfies ``R L = Q``,
    ``R |P0> = 0`` and ``<I| R = 0``: it is the group inverse of ``L``,
    ``Q A^-1 Q`` with ``A = L - s|e><I|``, ``e = I/3``, ``s = max|L_ij|`` over
    the population block; raises the steady state's error when it has one.
    """
    factors = _inverse(_memo(spec))
    return np.array([_apply_inverse(factors, [complex(i == j) for i in range(5)])
                     for j in range(5)]).T


def _kernel(record: dict) -> SteadyState:
    """The kernel of a memo record (:func:`vflux.model._memo`), made on first use."""
    if "kernel" not in record:
        record["kernel"] = steady_state(Generator(_bare(record), record["spec"]))
    return record["kernel"]


def _inverse(record: dict) -> tuple:
    """The factors of :func:`pseudo_inverse_R` of a memo record, made on first use."""
    if "inverse" not in record:
        record["inverse"] = _eliminate(record["rates"], _kernel(record).vector)
    return record["inverse"]


def _derivatives(record: dict, bath: str, kind: str, order: int) -> tuple:
    """The sandwich rates of H_1.. of ``(bath, kind)`` of a memo record, made
    to ``order`` at least."""
    made = record.get(("H", bath, kind), ())
    if len(made) < order:
        made = record["H", bath, kind] = (*made, *_sandwich_rates(
            record["rates"], bath, kind, range(len(made) + 1, order + 1)))
    return made


def _sandwich_rates(rates: RateSet, bath: str, kind: str, orders) -> list:
    """The six distinct entries of H_n (:func:`vflux.liouvillian._sandwich_values`,
    real at zero field) for each order of ``orders``, of one point or a stack."""
    return [tuple(z.real for z in _sandwich_values(*sandwich)) for sandwich in
            _dressed_rates(rates, CountingFields.zero(kind), (bath,), orders)]


def _eliminate(rates: RateSet, p0: np.ndarray) -> tuple:
    """The factors of R of one point's or a stack's rates and steady state(s)
    (``docs/physics.md``): ``S^-1`` of the real Schur complement ``S = L_pp -
    s/3 + g c r^T`` (adj S: cross products of its rows), ``c``, ``r``,
    ``1/L_33``, ``1/L_44`` and ``P_0``; a zero ``q`` or ``det S`` divides by 1."""
    re, delta = _entries(rates)
    if rates.shape:
        s = np.abs(np.broadcast_arrays(*(x for row in re[:3] for x in row[:3]))).max(axis=0)
        make, p0 = _Pair, [_Pair(x.real, x.imag) for x in p0.T]
    else:
        s = max(abs(x) for row in re[:3] for x in row[:3])
        make, p0 = complex, p0.tolist()
    d, third = -re[3][3], s / 3.0
    q = d * d + delta * delta
    q = q + (q == 0)
    g, c, r = 2.0 * d / q, [row[3] for row in re[:3]], re[3][:3]
    a, b, e = ([x - third + g * ci * rj for x, rj in zip(row[:3], r)]
               for row, ci in zip(re[:3], c))
    adj = [[u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
           for u, v in ((b, e), (e, a), (a, b))]
    det = a[0] * adj[0][0] + a[1] * adj[0][1] + a[2] * adj[0][2]
    det = det + (det == 0)
    inverse = [[column[i] / det for column in adj] for i in range(3)]
    return inverse, c, r, make(-d / q, delta / q), make(-d / q, -delta / q), p0


def _apply_inverse(factors: tuple, y: list) -> list:
    """``R y`` of the five components ``y``: ``Q y``, the coherences
    eliminated, ``S^-1`` on the populations and back-substitution."""
    inverse, c, r, i33, i44, p0 = factors
    t = y[0] + y[1] + y[2]
    y = [yi - pi * t for yi, pi in zip(y, p0)]
    w = y[3] * i33 + y[4] * i44
    b = [yi - ci * w for yi, ci in zip(y, c)]
    x = [row[0] * b[0] + row[1] * b[1] + row[2] * b[2] for row in inverse]
    rx = r[0] * x[0] + r[1] * x[1] + r[2] * x[2]
    return [*x, (y[3] - rx) * i33, (y[4] - rx) * i44]


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
    made = record.get(("E", bath, kind)) or ((), (_kernel(record).vector.tolist(),), ())
    if len(made[0]) < order:
        made = record["E", bath, kind] = _recursion(
            _inverse(record) if order > 1 else None, _derivatives(record, bath, kind, order),
            made, order)
    return made[0][:order]


def _recursion(factors, h, made: tuple, order: int) -> tuple:
    """The orders ``made`` = ``(E_1..E_k, P_0..P_{k-1}, <I|P_1>..<I|P_{k-1}>)``
    of :func:`cumulants_perturbative` extended to ``order`` with the factors
    of R (:func:`_eliminate`) and the sandwich rates ``h`` of H_1..H_order; a
    fresh start is ``((), (P_0,), ())``, and ``P_N`` is made when order N + 1
    needs it.  A vector is five Python ``complex`` for one point, five
    :class:`_Pair` arrays for a stack, with one point's bits."""
    energies, states, traces = map(list, made)

    def summed(big_n):  # sum_n C(N,n) H_n |P_{N-n}>; components 3 and 4 are equal
        terms = []
        for n in range(1, big_n + 1):
            g11, g22, g12, l11, l22, l12 = (comb(big_n, n) * x for x in h[n - 1])
            p = states[big_n - n]
            terms.append((g11 * p[2], g22 * p[2], l11 * p[0] + l22 * p[1] + l12 * (p[3] + p[4]),
                          g12 * p[2]))
        total = [reduce(add, parts) for parts in zip(*terms)]
        return [*total, total[3]]

    last = None
    for big_n in range(len(energies) + 1, order + 1):
        if len(states) < big_n:
            m, hp = big_n - 1, last or summed(big_n - 1)
            scaled = [comb(m, n) * energies[n - 1] for n in range(1, m + 1)]
            states.append(_apply_inverse(factors, [
                reduce(add, (e * states[m - n][i] for n, e in enumerate(scaled, 1))) - hp[i]
                for i in range(5)]))
            traces.append(states[-1][0] + states[-1][1] + states[-1][2])
        last = summed(big_n)
        e = last[0] + last[1] + last[2]
        for k in range(1, big_n):
            e = e - comb(big_n, k) * energies[k - 1] * traces[big_n - k - 1]
        energies.append(e)
    return tuple(energies), tuple(states), tuple(traces)


def _residues(raw: list, errors=()) -> list:
    """Largest imaginary part over the orders of the recursion's complex
    cumulants ``raw`` (see :func:`_recursion`), one float per point (a list
    of one for one point); warns about each above :data:`IMAG_WARN`, in
    point order, except at the points in ``errors``, which hold no kernel."""
    residues = np.abs([e.imag for e in raw]).max(axis=0).ravel()
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

    Its value at -chi is the conjugate of the value at chi, so one
    eigenvalue (:func:`_eigenvalues`) per step size suffices; each stencil
    is Richardson-refined once.
    """
    _check_difference(bath, kind, order, h)
    values, errors = _differences(_memo(spec)["rates"], bath, kind, order, h)
    if errors:
        raise BranchError(errors[()])
    return CumulantSet(bath, kind, tuple(map(float, values)), FINITE_DIFFERENCE, 0.0)


def _differences(rates: RateSet, bath: str, kind: str, order: int, h: float):
    """The Richardson-refined stencils of :func:`cumulants_finite_difference`
    on one point's or a stack's valid, checked rates, one array of
    ``rates.shape`` per order, and the :class:`BranchError` text of each
    index (``()`` for one point) whose dressed rates are not finite, else
    whose eigenvalue is not separated at zero field, else not separated or
    not converged at step h, else at h/2 (:func:`_eigenvalues`)."""
    (re, im, sep, step, size, finite), sep0 = _eigenvalues(rates, bath, kind, h)
    # d E0 / d(i chi) at 0: odd part is purely imaginary by symmetry
    values = [richardson(im[1] / h, im[0] / (h / 2.0))]
    if order >= 2:
        # d^2 E0 / d(i chi)^2 at 0: even part is real, E0(0) = 0
        values.append(richardson(-2.0 * re[1] / h**2, -2.0 * re[0] / (h / 2.0)**2))

    def failed(ok, text, *args):  # the text of each point where ok is False
        if not rates.shape:
            return {} if ok else {(): text.format(*args)}
        return {(n,): text.format(*(x[n] if np.ndim(x) else x for x in args))
                for n in np.flatnonzero(~ok).tolist()}

    errors = {}
    for j, chi in enumerate((h / 2.0, h)):
        errors.update(failed((sep[j] >= SEPARATION_MIN) & (step[j] <= NEWTON_TOL * size[j]),
                             _NEWTON_ERROR, chi, sep[j], step[j], size[j]))
    errors.update(failed(sep0 >= SEPARATION_MIN, _ZERO_FIELD_ERROR, sep0))
    errors.update(failed(finite[0] & finite[1], _NOT_FINITE_ERROR))
    return values, errors


class _Pair:
    """A stack of complex numbers as two real arrays, each operation written
    out in real parts and rounded as Python's ``complex`` rounds it (numpy
    may fuse a complex array product's multiplies and adds)."""

    __slots__ = ("real", "imag")
    __array_ufunc__ = None  # an array operand defers to the methods below

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    def __add__(self, z):
        if isinstance(z, _Pair):
            return _Pair(self.real + z.real, self.imag + z.imag)
        return _Pair(self.real + z, self.imag)

    def __sub__(self, z):
        if isinstance(z, _Pair):
            return _Pair(self.real - z.real, self.imag - z.imag)
        return _Pair(self.real - z, self.imag)

    def __mul__(self, z):
        if isinstance(z, _Pair):
            return _Pair(self.real * z.real - self.imag * z.imag,
                         self.real * z.imag + self.imag * z.real)
        return _Pair(self.real * z, self.imag * z)

    __radd__, __rmul__ = __add__, __mul__


def _reciprocal(z, make):
    """``1 / z`` as ``conj(z) / |z|**2`` in real operations; 0 for ``z = 0``."""
    norm = z.real * z.real + z.imag * z.imag
    norm = norm + (norm == 0)
    return make(z.real / norm, -z.imag / norm)


def _eigenvalues(rates: RateSet, bath: str, kind: str, h: float):
    """The dominant eigenvalue of the generator of ``rates`` dressed by the
    real fields h/2 and h on ``bath``, from :data:`NEWTON_STEPS` Newton
    steps from zero on ``f = det K`` (``docs/physics.md``): its real and
    imaginary parts, ``|f'| / s**2``, the sizes of the last step and of the
    root and whether the dressed rates are finite, each a pair (h/2, h),
    and ``|f'(0)| / s**2`` at zero field (``-tot`` of
    :func:`vflux.steady._kernel`).  One point runs in Python ``complex``, a
    stack in :class:`_Pair` arrays of ``(2,) + rates.shape``, with one
    point's bits.  Row 2 of ``K`` is replaced by its column sums ``z``,
    made from the dressed rates less the bare ones (``shift``) without
    cancellation; the inputs are scaled by the power of two ``k`` just
    below ``1/s`` (at most ``2**1000``), which changes no bit short of
    underflow.
    """
    re, delta = _entries(rates)
    if rates.shape:
        s = np.abs(np.broadcast_arrays(*(x for row in re[:3] for x in row[:3]))).max(axis=0)
        k = np.ldexp(1.0, -np.maximum(np.frexp(s)[1], -1000))
        make, isfinite, least = _Pair, np.isfinite, np.minimum
        fields = [h * np.array([[0.5], [1.0]])]

        def size(z):
            return np.hypot(z.real, z.imag)
    else:
        s = max(abs(x) for row in re[:3] for x in row[:3])
        k = math.ldexp(1.0, -max(math.frexp(s)[1], -1000))
        make, isfinite, least, size, fields = complex, math.isfinite, min, abs, [h / 2.0, h]
    (p00, p01, p02, c0), (p10, p11, p12, c1), row2, (r0, r1, r2, d) = (
        [x * k for x in row] for row in re)
    # past 1e150 delta leaves g far below the entries' rounding; its square stays finite
    d, delta, scale = -d, least(delta * k, 1e150), k * s * k * s + (s == 0)
    dd = delta * delta
    g = 2.0 * d / (d * d + dd + (d * d + dd == 0))
    tot = sum(_minors([[x + g * ci * rj for x, rj in zip(row, (r0, r1, r2))] for row, ci in (
        ((p00, p01, p02), c0), ((p10, p11, p12), c1), (row2[:3], row2[3]))]))
    a2, m2 = p00 * p11 - p01 * p10, -(p00 + p11)
    v0, v1, e2 = c1 * p00 - c0 * p10, c1 * p01 - c0 * p11, -(c0 * r0 + c1 * r1)
    found = []
    for chi in fields:
        gain, loss = next(_dressed_rates(rates, _single_field(bath, kind, chi), [bath], shift=True))
        g11, g22, g12, s0, s1, dl = (make(z.real * k, z.imag * k)
                                     for z in _sandwich_values(gain, loss))
        finite = isfinite(p00 + p01 + p02 + c0 + p10 + p11 + p12 + c1 + r0 + r1 + r2 + d + delta
                          + sum(z.real + z.imag for z in (g11, g22, s0, s1, g12, dl)))
        # K_0 x K_1 = (a0 + mu q0, a1 + mu q1, a2 + mu (mu + m2)) + g V x r,
        # V x r = b + mu e, V = c1 K_0 - c0 K_1
        q0, q1, w2, s2 = g11 + p02, g22 + p12, g12 + r2, g11 + g22
        a0, a1, v2 = p01 * q1 - q0 * p11, q0 * p10 - p00 * q1, c1 * q0 - c0 * q1
        b0, b1, b2 = v1 * w2 - v2 * r1, v2 * r0 - v0 * w2, v0 * r1 - v1 * r0
        e0, e1 = c0 * w2, c1 * w2
        mu = make(0.0, 0.0)
        for _ in range(NEWTON_STEPS):
            u = d + mu
            iw = _reciprocal(u * u + dd, make)
            g, gp = (u + u) * iw, (4.0 * dd * iw - 2.0) * iw
            x0, x1, x2 = b0 + mu * e0, b1 + mu * e1, b2 + mu * e2
            k0, k1, k2 = a0 + mu * q0 + g * x0, a1 + mu * q1 + g * x1, a2 + mu * (mu + m2) + g * x2
            gl, gpl = g * dl, gp * dl
            z0, z1, z2 = s0 + gl * r0 - mu, s1 + gl * r1 - mu, s2 + gl * w2 - mu
            slope = ((gpl * r0 - 1.0) * k0 + (gpl * r1 - 1.0) * k1 + (gpl * w2 - 1.0) * k2
                     + z0 * (q0 + gp * x0 + g * e0) + z1 * (q1 + gp * x1 + g * e1)
                     + z2 * (m2 + (mu + mu) + gp * x2 + g * e2))
            step = (z0 * k0 + z1 * k1 + z2 * k2) * _reciprocal(slope, make)
            mu = mu - step
        found.append((mu.real / k, mu.imag / k, size(slope) / scale, size(step) / k,
                      size(mu) / k, finite))
    return (found[0] if rates.shape else tuple(zip(*found))), abs(tot) / scale
