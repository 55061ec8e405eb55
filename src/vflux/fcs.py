"""Full counting statistics of the transferred energy or excitation number.

The scaled cumulant generating function is the eigenvalue of the dressed
generator continuously connected to zero.  Cumulants come two independent
ways, orders 1-4 each: from a recursion on a projected inverse
(:func:`_recursion`; the first order also directly from the steady state),
and from the eigenvalue's Taylor coefficients, found by Newton's method on
its determinant in truncated power series (:func:`_newton`).  Both cores
run on one spec or a stack, with one spec's bits and error texts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce
from math import comb
from operator import add, mul, sub

import numpy as np

from .errors import BranchError, UsageError
from .liouvillian import (Generator, _bare, _check_order, _counting_matrix, _dressed_rates,
                          _entries, _sandwich_values)
from .model import BATHS, KINDS, CountingFields, RateSet, SystemSpec, _memo
from .steady import SteadyState, steady_state

PERTURBATIVE = "perturbative"
FINITE_DIFFERENCE = "finite_difference"

#: Two eigenvalues with real parts within this fraction of ``s`` (the
#: largest ``|L_ij|`` of the bare population block) of the maximum make
#: the dominant-branch selection ambiguous.
BRANCH_TOL = 1e-8

#: Imaginary residue above this level on a reported cumulant is warned about.
IMAG_WARN = 1e-10

#: A separated dominant eigenvalue has ``|f'(0)| / s**2`` of at least this
#: (margins in ``docs/conventions.md``).
SEPARATION_MIN = 1e-4

_BRANCH_ERROR = "two eigenvalues within {:.3e} of the maximal real part {:.3e}"
_NOT_FINITE_ERROR = "dressed generator is not finite"
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


def _check_bath_kind(bath: str, kind: str):
    if bath not in BATHS:
        raise UsageError(f"bath must be one of {BATHS}, got {bath!r}")
    if kind not in KINDS:
        raise UsageError(f"kind must be one of {KINDS}, got {kind!r}")


def dominant_eigenvalue(spec: SystemSpec, chi: CountingFields) -> complex:
    """Eigenvalue of the dressed generator continuously connected to zero,
    tracked by nearest match from the spectrum at half the field, from one
    ``np.linalg.eigvals`` call: an oracle independent of the Newton core
    (:func:`_newton`).  Raises :class:`BranchError` if two eigenvalues sit
    within ``BRANCH_TOL * s`` of the maximal real part at the field, or if
    a dressed generator is not finite.
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
) -> CumulantSet:
    """Cumulants E_1..E_order from the Taylor coefficients of the dominant
    eigenvalue in ``i chi``, found by Newton's method on the eigenvalue's
    determinant in truncated power series (:func:`_newton`): no step and no
    projected inverse, a route that shares only its inputs, the bare rates
    and the sandwich rates of H_n, with the recursion."""
    _check_bath_kind(bath, kind)
    _check_order("cumulant", order, 4)
    record = _memo(spec)
    values, errors = _newton(record["rates"], _derivatives(record, bath, kind, order)[:order])
    if errors:
        raise BranchError(errors[()])
    return CumulantSet(bath, kind, tuple(values), FINITE_DIFFERENCE, 0.0)


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


def _product(a, b) -> list:
    """The coefficients of the product of two power series, given by
    theirs (floats, or arrays for a stack), cut at the shorter."""
    return [sum(map(mul, a[:n + 1], b[n::-1])) for n in range(min(len(a), len(b)))]


def _quotient(a, b) -> list:
    """The coefficients of ``a / b`` for power series ``a`` and ``b``, to
    ``a``'s length and reading ``b`` to its own; divides by 1 where ``b``'s
    first coefficient is 0."""
    q, first = [], b[0] + (b[0] == 0)
    for n, x in enumerate(a):
        for i in range(1, min(n + 1, len(b))):
            x = x - b[i] * q[n - i]
        q.append(x / first)
    return q


def _newton(rates: RateSet, h) -> tuple[list, dict]:
    """E_1..E_n of :func:`cumulants_finite_difference` on one point's or a
    stack's valid, checked rates and the sandwich rates ``h`` of H_1..H_n
    (:func:`_sandwich_rates`), one float or array of ``rates.shape`` per
    order, and the :class:`BranchError` text of each index (``()`` for one
    point) whose dressed rates are not finite, else whose eigenvalue is not
    separated at zero field (``|f'(0)| / s**2``, ``f'(0) = -tot`` of
    :func:`vflux.steady._kernel`).

    The eigenvalue ``mu(t)``, ``t = i chi``, is the root connected to zero
    of ``f = det K``, the coherence-eliminated 3x3 determinant
    (``docs/physics.md``), and so of ``G = w**2 f``, a polynomial of degree
    7 in ``mu`` whose coefficients are series in ``t``.  Newton's method
    from zero in truncated series (:func:`_product`, :func:`_quotient`)
    doubles the count of exact Taylor coefficients ``a_n`` of ``mu`` with
    each step (1, 2, 4, 8), so n = 1, 2..3 and 4 take 1, 2 and 3 steps,
    and ``E_n = n! a_n``.  The inputs are scaled by the power of two ``k``
    just below ``1/s`` (at most ``2**1000``), which changes no bit short of
    underflow.  One point runs on Python floats, a stack on arrays, in the
    same real operations.
    """
    re, delta = _entries(rates)
    if rates.shape:
        s = np.abs(np.broadcast_arrays(*(x for row in re[:3] for x in row[:3]))).max(axis=0)
        k = np.ldexp(1.0, -np.maximum(np.frexp(s)[1], -1000))
        isfinite, least = np.isfinite, np.minimum
    else:
        s = max(abs(x) for row in re[:3] for x in row[:3])
        k = math.ldexp(1.0, -max(math.frexp(s)[1], -1000))
        isfinite, least = math.isfinite, min
    (p00, p01, p02, c0), (p10, p11, p12, c1), row2, (r0, r1, r2, d) = (
        [x * k for x in row] for row in re)
    # past 1e30 delta leaves g far below the entries' rounding; w0**2 stays finite
    d, delta = -d, least(delta * k, 1e30)
    w0, d2, size = d * d + delta * delta, d + d, len(h) + 1
    # the dressed rates' Taylor coefficients less the bare ones: H_n / n! at order n
    g11, g22, g12, l11, l22, l12 = ([x * k / f for x, f in zip(column, (1, 2, 6, 24))]
                                    for column in zip(*h))
    finite = isfinite(p00 + p01 + p02 + c0 + p10 + p11 + p12 + c1 + sum(row2) + r0 + r1 + r2 + d
                      + delta + sum(map(sum, (g11, g22, g12, l11, l22, l12))))
    # K_0 x K_1 = A + g B, A = a + mu q + mu^2 (0, 0, 1), B = V x r = b + mu e,
    # V = c1 K_0 - c0 K_1, with q = (q0, q1, m2) and r = (r0, r1, w2), where
    # q0, q1 and w2 are the dressed gain entries; g = 2 u / w, u = d + mu,
    # w = u^2 + delta^2 = w0 + d2 mu + mu^2
    a2, m2 = p00 * p11 - p01 * p10, -(p00 + p11)
    v0, v1, e2 = c1 * p00 - c0 * p10, c1 * p01 - c0 * p11, -(c0 * r0 + c1 * r1)
    b2 = v0 * r1 - v1 * r0
    # W = w (K_0 x K_1) = w A + 2 u B = sum_k W_k mu^k: the entries W_k2, constants
    third = [w0 * a2 + d2 * b2, w0 * m2 + d2 * (a2 + e2) + 2.0 * b2,
             w0 + d2 * m2 + a2 + 2.0 * e2, d2 + m2, 1.0][:size]

    def times(c0, c1, c2, p):  # the first len(p) coefficients of (c0 + c1 mu + c2 mu^2) p
        return [c0 * x + c1 * y + c2 * z for x, y, z in zip(p, [0.0, *p], [0.0, 0.0, *p])]

    def terms(y0, y1, y2, y3, y4):
        # X_k, Y_k, Z_k and L_k (below) at one order of t, linear in that
        # order's y0, y1, y2 of q0, q1, w2, y3 of s2 and y4 of 1
        a0, a1, v2 = p01 * y1 - y0 * p11, y0 * p10 - p00 * y1, c1 * y0 - c0 * y1
        b0, b1, e0, e1 = v1 * y2 - v2 * r1, v2 * r0 - v0 * y2, c0 * y2, c1 * y2
        x = [w0 * a0 + d2 * b0, w0 * y0 + d2 * (a0 + e0) + 2.0 * b0, d2 * y0 + a0 + 2.0 * e0,
             y0, 0.0][:size]
        y = [w0 * a1 + d2 * b1, w0 * y1 + d2 * (a1 + e1) + 2.0 * b1, d2 * y1 + a1 + 2.0 * e1,
             y1, 0.0][:size]
        rw = [r0 * xk + r1 * yk + y2 * t for xk, yk, t in zip(x, y, third)]
        rest = [y3 * t - (xk + yk + tk * y4) for t, xk, yk, tk in zip(
            third, [0.0, *x], [0.0, *y], [0.0, *third])]
        return (times(w0, d2, 1.0, x), times(w0, d2, 1.0, y), times(d2, 2.0, 0.0, rw),
                times(w0, d2, 1.0, rest))

    # Row 2 of K replaced by its column sums z = sig + g dl r - mu (1, 1, 1),
    # sig = (s0, s1, s2) and dl (of the coherence column) zero at t = 0:
    # G = w^2 f = (w z).W = w (sig - mu (1, 1, 1)).W + 2 u dl r.W
    #   = sum_k (s0 X_k + s1 Y_k + dl Z_k + L_k) mu^k
    rows = list(map(terms, [p02, *g11], [p12, *g22], [r2, *g12], [0.0, *map(add, g11, g22)],
                    [1.0] + [0.0] * len(h)))

    def order(n):  # G_0..G_(size-1) at order n of t, a Cauchy product
        out = rows[n][3]
        for (x, y, z, _), a, b, c in zip(reversed(rows[:n]), l11, l22, l12):
            out = [o + a * xk + b * yk + c * zk for o, xk, yk, zk in zip(out, x, y, z)]
        return out

    poly = [list(c) for c in zip(*map(order, range(size)))]
    # Newton's method from zero: mu has no constant term, so mu^k vanishes
    # past its length; G(mu) vanishes to the orders mu had, so a step needs
    # G'(mu) only to the orders it gains, and G' to order j needs mu to order j
    mu, slope = [0.0], []
    while len(mu) < size:
        exact, mu = len(mu), mu + [0.0] * (min(2 * len(mu), size) - len(mu))
        value = poly[len(mu) - 1]
        for c in poly[len(mu) - 2::-1]:
            value = list(map(add, _product(value, mu), c))
        if len(slope) < len(mu) - exact:
            cut = mu[:len(mu) - exact]
            slope = [0.0] * len(cut)
            for n in range(len(cut), 0, -1):
                slope = [x + n * y for x, y in zip(_product(slope, cut), poly[n])]
        mu = list(map(sub, mu, _quotient(value, slope)))
    # G'(0) = w0^2 f'(0) at zero field
    scale = w0 * (k * s)
    separation = abs(poly[1][0]) / (scale * scale + (scale == 0))

    def failed(ok, text, *args):  # the text of each point where ok is False
        if not rates.shape:
            return {} if ok else {(): text.format(*args)}
        return {(n,): text.format(*(x[n] for x in args)) for n in np.flatnonzero(~ok).tolist()}

    errors = failed(separation >= SEPARATION_MIN, _ZERO_FIELD_ERROR, separation)
    errors.update(failed(finite, _NOT_FINITE_ERROR))
    return [math.factorial(n) * a / k for n, a in enumerate(mu[1:], 1)], errors
