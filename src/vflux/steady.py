"""Steady-state solvers: numeric kernel, closed forms, time integration.

Three independent routes, each an oracle for the others: ``steady_state``
eliminates the coherences exactly and takes the kernel from the principal
minors of the remaining real 3x3 matrix (:func:`_kernel`; real columns for
callers that need only currents, :func:`_real_columns`); two closed forms
hold in their stated regimes; ``steady_state_time_integration`` relaxes a
state under the dynamics.  Its integrator, scipy's ``solve_ivp``, is
imported on first use (by :func:`evolve` or by reading
``vflux.steady.solve_ivp``, the one binding :func:`evolve` calls, so it can
be patched): ``scipy.integrate`` takes several times longer to import than
the rest of the package.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSteadyStateError, UsageError
from .liouvillian import Generator, _entries
from .model import SystemSpec, build_rates

NULLSPACE = "nullspace"
ANALYTIC = "analytic"
TIME_INTEGRATION = "time_integration"

#: A generator whose isolation ratio (:func:`_kernel`) is at most this has
#: no isolated kernel; see ``docs/conventions.md``.
ISOLATION_TOL = 1e-12

#: Populations below this (negative) level set the positivity warning.
POSITIVITY_TOL = -1e-8

_ISOLATION_ERROR = "kernel not isolated: deflated generator has Hadamard ratio {:.3e}"
_ZERO_TRACE_ERROR = "steady-state candidate has zero trace"
# rates near the float limit overflow a closed form's sums silently
_NOT_FINITE_ERROR = "steady-state candidate is not finite"


def __getattr__(name):
    # PEP 562: runs only while ``solve_ivp`` is not yet a module global
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        globals()[name] = solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _minors(k):
    """Principal 2x2 minors of a 3x3 ``k`` (nested rows of floats or arrays):
    its kernel when its columns sum to zero (matrix-tree theorem)."""
    return [k[a][a] * k[b][b] - k[a][b] * k[b][a] for a, b in ((1, 2), (0, 2), (0, 1))]


def _kernel(re, delta, s, sqrt):
    """Populations, ``rho12`` as ``(real, imag)``, isolation ratio and verdict
    of one bare generator (nested float lists of its real parts, ``math.sqrt``)
    or of a stack (``(5, 5, N)`` real parts or nested arrays, ``np.sqrt``) in
    the same real, correctly rounded operations; only rows and columns 0-3
    of ``re`` are read, ``delta = -Im L_33`` and ``s`` is the largest
    ``|L_ij|`` of the population block.  See ``docs/physics.md``: the
    coherences are eliminated exactly, ``K = L_pp + (2d/q) c r^T`` and
    ``|det A| = s q |tot|``.  A zero ``s``, ``q`` or ``tot`` gives ratio 0.
    """
    d = -re[3][3]
    q = d * d + delta * delta
    q_or_1 = q + (q == 0)
    g = 2.0 * d / q_or_1
    c, r = [row[3] for row in re[:3]], re[3][:3]
    gc = [g * ci for ci in c]
    minors = _minors([[re[i][j] + gc[i] * r[j] for j in range(3)] for i in range(3)])
    tot = minors[0] + minors[1] + minors[2]
    third = s / 3.0
    dev = [[x - third for x in row[:3]] for row in re[:3]]
    norms = [sqrt(a * a + b * b + e * e + 2.0 * ci * ci) for (a, b, e), ci in zip(dev, c)]
    den = norms[0] * norms[1] * norms[2] * (r[0] * r[0] + r[1] * r[1] + r[2] * r[2] + q)
    ratio = s * q * abs(tot) / (den + (den == 0))
    ok = ratio > ISOLATION_TOL
    tot_or_1 = tot * ok + (1 - ok)  # divides by 1 where not ok
    pop = [m / tot_or_1 for m in minors]
    u = (r[0] * pop[0] + r[1] * pop[1] + r[2] * pop[2]) / q_or_1
    return pop, (u * d, -(u * delta)), ratio, ok


def _error_text(ratio, isolated) -> str:
    """Error text of a kernel that is not isolated, or of zero trace."""
    return _ZERO_TRACE_ERROR if isolated else _ISOLATION_ERROR.format(ratio)


def _solve(re, delta):
    """:func:`_kernel` of one point (floats) or a stack (arrays), plus the
    trace ``t`` of its populations and the verdict ``usable`` (isolated and
    of nonzero trace); ``t`` is 1.0 where not usable."""
    if isinstance(delta, np.ndarray):
        s = np.abs(np.broadcast_arrays(*(x for row in re[:3] for x in row[:3]))).max(axis=0)
        # rates near the float limit overflow to inf and nan here, as they
        # do silently in one point's Python floats; the ratio rejects them
        with np.errstate(over="ignore", invalid="ignore"):
            pop, (x, y), ratio, isolated = _kernel(re, delta, s, np.sqrt)
            t = pop[0] + pop[1] + pop[2]
        usable = isolated & ~(np.abs(t) < 1e-300)
        return pop, (x, y), ratio, isolated, usable, np.where(usable, t, 1.0)
    s = max(abs(x) for row in re[:3] for x in row[:3])
    pop, (x, y), ratio, isolated = _kernel(re, float(delta), s, math.sqrt)
    t = pop[0] + pop[1] + pop[2]
    usable = isolated and not (abs(t) < 1e-300)
    return pop, (x, y), ratio, isolated, usable, t if usable else 1.0


def _real_columns(re, delta):
    """Trace-normalized real columns ``[rho11, rho22, rhogg, Re rho12,
    Re rho21]`` of the kernel of the bare generator with entries ``re``
    (:func:`vflux.liouvillian._entries`), its isolation ratio and verdicts
    (:func:`_solve`), one point or a stack: the real parts of
    :func:`steady_state`'s vector, signed zeros included, as numpy divides
    ``a + ib`` by ``t + 0j`` as ``(a + b*(0/t)) * (1/(t + 0*(0/t)))``.
    """
    pop, (x, y), ratio, isolated, usable, t = _solve(re, delta)
    rat = 0.0 / t
    zero = 0.0 * rat
    scale = 1.0 / (t + zero)
    columns = [(p + zero) * scale for p in pop]
    return columns + [(x + y * rat) * scale, (x + -y * rat) * scale], ratio, isolated, usable


@dataclass(frozen=True)
class SteadyState:
    """A trace-normalized steady state plus solve diagnostics.

    ``residual`` is ``|L v|∞`` of the bare generator ``L`` (:func:`_residual`;
    for the analytic routes, the generator of the spec's rates).
    ``positivity_warning`` flags populations below -1e-8; the weak-coupling
    master equation does not guarantee complete positivity, so excursions
    are reported rather than rejected.
    """

    vector: np.ndarray
    residual: float
    method: str
    positivity_warning: bool = False

    @property
    def rho11(self) -> float:
        return float(self.vector[0].real)

    @property
    def rho22(self) -> float:
        return float(self.vector[1].real)

    @property
    def rhogg(self) -> float:
        return float(self.vector[2].real)

    @property
    def rho12(self) -> complex:
        return complex(self.vector[3])

    @property
    def rho21(self) -> complex:
        return complex(self.vector[4])

    @property
    def coherence_magnitude(self) -> float:
        return float(abs(self.vector[3]))


def _residual(re, delta, real, imag):
    """``|L v|∞`` of the bare generator of the entries ``re`` and ``delta``
    (:func:`vflux.liouvillian._entries`) on ``v = real + i imag``: five floats
    for one point, five arrays for a stack, each row summed in one fixed
    order of real operations, so a stack has each point's bits under any
    BLAS.  Moduli are ``abs(complex)`` of floats, ``np.hypot`` of arrays (the
    same bits, unlike ``math.hypot``); the first of equal maxima is kept."""
    (x0, x1, x2, x3, x4), (y0, y1, y2, y3, y4) = real, imag
    # rows 0-2: column 4 mirrors 3; rows 3, 4: columns 0-2 alike, re_33 -+ i delta
    rows = [(a * x0 + b * x1 + c * x2 + e * x3 + e * x4, a * y0 + b * y1 + c * y2 + e * y3 + e * y4)
            for a, b, c, e in (row[:4] for row in re[:3])]
    a, b, c, d = re[3][:4]
    p, q = a * x0 + b * x1 + c * x2, a * y0 + b * y1 + c * y2
    rows += [(p + (d * x3 + delta * y3), q + (d * y3 - delta * x3)),
             (p + (d * x4 - delta * y4), q + (d * y4 + delta * x4))]
    if not isinstance(delta, np.ndarray):
        return max([abs(complex(x, y)) for x, y in rows])
    top = np.hypot(*rows[0])
    for x, y in rows[1:]:
        modulus = np.hypot(x, y)
        top = np.where(modulus > top, modulus, top)
    return top


def _finalize(vector: np.ndarray, re, delta, method: str) -> SteadyState:
    """``vector`` trace-normalized, its residual from ``re`` and ``delta``."""
    if not np.isfinite(vector).all():
        raise DegenerateSteadyStateError(_NOT_FINITE_ERROR)
    trace = vector[0] + vector[1] + vector[2]
    if abs(trace) < 1e-300:
        raise DegenerateSteadyStateError(_ZERO_TRACE_ERROR)
    v = vector / trace
    residual = _residual(re, delta, v.real.tolist(), v.imag.tolist())
    warn = bool(min(v[0].real, v[1].real, v[2].real) < POSITIVITY_TOL)
    return SteadyState(v, residual, method, warn)


def steady_state(gen: Generator) -> SteadyState:
    """Unique kernel vector of the bare generator, trace-normalized.

    Raises
    ------
    DegenerateSteadyStateError
        If the kernel is not one-dimensional within tolerance (for example
        when every coupling is zero and the populations decouple).
    """
    if gen.chi is not None and not gen.chi.is_zero:
        raise UsageError("steady_state requires the undressed generator")
    re, delta = gen.matrix.real.tolist(), -gen.matrix.imag.item(3, 3)
    pop, (x, y), ratio, ok, _, _ = _solve(re, delta)
    if not ok:
        raise DegenerateSteadyStateError(_ISOLATION_ERROR.format(ratio))
    return _finalize(np.array([*pop, complex(x, y), complex(x, -y)]), re, delta, NULLSPACE)


def steady_state_resonant_two_bath(spec: SystemSpec) -> SteadyState:
    """Closed-form steady state at resonance with the middle bath off.

    Valid for ``eps1 == eps2`` and ``gM == 0``; the coherence component is
    real and vanishes identically when the gain/loss ratios of the three
    channels coincide.
    """
    if spec.eps1 != spec.eps2 or spec.gM != 0.0:
        raise UsageError(
            "resonant two-bath closed form needs eps1 == eps2 and gM == 0"
        )
    r = build_rates(spec)
    gp11, gm11 = r.gamma_plus(1, 1, 1), r.gamma_minus(1, 1, 1)
    gp22, gm22 = r.gamma_plus(2, 2, 1), r.gamma_minus(2, 2, 1)
    gp12, gm12 = r.gamma_plus(1, 2, 1), r.gamma_minus(1, 2, 1)
    if gm11 == 0.0 or gm22 == 0.0:
        raise DegenerateSteadyStateError("a fully decoupled channel has no unique steady state")
    norm = gm11 * (gm22 + gp22) + gp11 * gm22 - gm12 * (gm12 + 2.0 * gp12)
    if norm <= 0.0:
        raise DegenerateSteadyStateError("closed-form normalization vanished (dark state)")
    msum = gm11 + gm22
    rho11 = (msum * gp11 * gm22 + (gp22 - gp11) * gm12**2 - 2.0 * gm22 * gm12 * gp12) / (
        msum * norm
    )
    rho22 = (msum * gm11 * gp22 + (gp11 - gp22) * gm12**2 - 2.0 * gm11 * gm12 * gp12) / (
        msum * norm
    )
    rhogg = (gm11 * gm22 - gm12**2) / norm
    # written with the loss rate multiplied through so gm12 = 0 needs no case
    rho12 = (gm11 * gm22 / (msum * norm)) * (
        2.0 * gp12 - gm12 * (gp11 / gm11 + gp22 / gm22)
    )
    vector = np.array([rho11, rho22, rhogg, rho12, rho12], dtype=complex)
    return _finalize(vector, *_entries(r), ANALYTIC)


def steady_state_three_terminal(spec: SystemSpec) -> SteadyState:
    """Closed-form populations with interference off (any middle coupling).

    Coherences vanish identically; with ``gM == 0`` this reduces to the
    two-bath no-interference form.
    """
    if spec.gL12 != 0.0 or spec.gR12 != 0.0:
        raise UsageError("three-terminal closed form needs gL12 == gR12 == 0")
    r = build_rates(spec)
    gp11, gm11 = r.gamma_plus(1, 1, 1), r.gamma_minus(1, 1, 1)
    gp22, gm22 = r.gamma_plus(2, 2, 2), r.gamma_minus(2, 2, 2)
    gMp, gMm = r.gain_M, r.loss_M
    norm = (gp22 + gm22 + gMp) * (gp11 + gm11 + gMm) - (gMm - gp22) * (gMp - gp11)
    if norm <= 0.0:
        raise DegenerateSteadyStateError("closed-form normalization vanished")
    rho11 = ((gm22 + gMp) * gp11 + gMp * gp22) / norm
    rho22 = ((gm11 + gMm) * gp22 + gMm * gp11) / norm
    rhogg = (gm22 * gm11 + gm22 * gMm + gMp * gm11) / norm
    vector = np.array([rho11, rho22, rhogg, 0.0, 0.0], dtype=complex)
    return _finalize(vector, *_entries(r), ANALYTIC)


def evolve(
    gen: Generator,
    init: np.ndarray,
    t_end: float = 1e6,
    tol: float = 1e-12,
) -> np.ndarray:
    """Integrate dv/dt = L v until the derivative norm drops below ``tol``.

    Uses an adaptive explicit Runge-Kutta scheme (fixed order, step control
    on local error).  Returns the final state vector; if ``t_end`` is
    reached before convergence, the state at ``t_end`` is returned and the
    caller can inspect the residual.  A generator that is not finite raises
    :class:`DegenerateSteadyStateError` before any step.
    """
    if tol <= 0:
        raise UsageError("evolve: tol must be positive")
    m = gen.matrix
    if not np.isfinite(m).all():
        raise DegenerateSteadyStateError("generator is not finite")
    v = np.asarray(init, dtype=complex).copy()
    if np.abs(m @ v).max() < tol:
        return v

    def rhs(_t, y):
        return m @ y

    solve_ivp = sys.modules[__name__].solve_ivp
    t = 0.0
    chunk = 100.0
    while t < t_end:
        span = min(chunk, t_end - t)
        sol = solve_ivp(rhs, (0.0, span), v, method="DOP853", rtol=1e-10, atol=1e-12)
        v = sol.y[:, -1]
        t += span
        chunk *= 10.0
        if np.abs(m @ v).max() < tol:
            break
    return v


def steady_state_time_integration(
    gen: Generator,
    t_end: float = 1e6,
    tol: float = 1e-12,
) -> SteadyState:
    """Relax the pure ground state under the bare ``gen`` (oracle route)."""
    if gen.chi is not None and not gen.chi.is_zero:
        raise UsageError("steady_state_time_integration requires the undressed generator")
    init = np.array([0.0, 0.0, 1.0, 0.0, 0.0], dtype=complex)
    v = evolve(gen, init, t_end=t_end, tol=tol)
    return _finalize(v, gen.matrix.real.tolist(), -gen.matrix.imag.item(3, 3), TIME_INTEGRATION)


def coherence_vanishing_residual(spec: SystemSpec) -> float:
    """Signed residual whose zero predicts a vanishing steady-state coherence:
    the balance of interference loss and gain on the steady state of the
    population block alone,

        loss12(eps1)*rho11 + loss12(eps2)*rho22 - (gain12(eps1) + gain12(eps2))*rhogg,

    zero at equal bath temperatures, and of the opposite sign of the
    coherence for two baths at resonance.  Raises
    :class:`DegenerateSteadyStateError` for a population kernel of zero
    trace (every coupling zero, say) or a value that is not finite.
    """
    r = build_rates(spec)
    minors = _minors(_entries(r)[0])
    tot = minors[0] + minors[1] + minors[2]
    if tot == 0.0:
        raise DegenerateSteadyStateError(_ZERO_TRACE_ERROR)
    pop = [m / tot for m in minors]
    residual = float(
        r.gamma_minus(1, 2, 1) * pop[0]
        + r.gamma_minus(1, 2, 2) * pop[1]
        - (r.gamma_plus(1, 2, 1) + r.gamma_plus(1, 2, 2)) * pop[2]
    )
    if not math.isfinite(residual):
        raise DegenerateSteadyStateError(_NOT_FINITE_ERROR)
    return residual
