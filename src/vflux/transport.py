"""Steady-state heat and particle currents and their conservation checks.

A positive current flows *into* the named bath, so the three energy
currents sum to zero and the left and right particle currents cancel; every
report carries both residuals.  Without a given state, :func:`heat_currents`
and :func:`particle_currents` read the kernel the memo holds, else take it
as real columns from the rate entries (:func:`vflux.steady._real_columns`),
with the same bits.  The closed forms are oracles, written out apart from
the generic path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSteadyStateError, UsageError
from .fcs import _kernel, _orders, _recursion_set
from .liouvillian import _entries
from .model import ENERGY, PARTICLE, RateSet, SystemSpec, _memo, bose_occupation
from .steady import SteadyState, _error_text, _real_columns

#: Conservation residuals above this level flag the report.
CONSERVATION_TOL = 1e-10


def _resolve_state(record: dict, state: SteadyState | None):
    """The vector of ``state``, else of the kernel a memo record
    (:func:`vflux.model._memo`) holds, whose real parts are the real
    columns, else the real columns of the kernel of its rates."""
    if state is not None or "kernel" in record:
        return (state or record["kernel"]).vector
    columns, ratio, isolated, usable = _real_columns(*_entries(record["rates"]))
    if not usable:
        raise DegenerateSteadyStateError(_error_text(ratio, isolated))
    return columns


def bath_currents(rates: RateSet, v: np.ndarray, kind: str):
    """Currents (J_L, J_R, J_M) of the counted quantity into the three baths:
    a population-transfer part and an interference part (the real
    coherence sum) for L and R, hopping between the excited populations for
    M, each term times its counting weight (:meth:`RateSet.weights`; 1.0
    for particles, an exact product).  ``v`` is one state vector or a
    stack's as columns (``(5, N)``, giving arrays of N currents); only real
    parts are read, so :func:`vflux.steady._real_columns` serves as well.
    """
    w = rates.weights(kind)
    csum = (v[3] + v[4]).real
    out = []
    for gain, loss in ((rates.gainL, rates.lossL), (rates.gainR, rates.lossR)):
        j = 0.0
        for k in range(2):
            j += w[k] * (loss[k][k][k] * v[k].real - gain[k][k][k] * v[2].real)
            j += 0.5 * w[k] * loss[0][1][k] * csum
        out.append(j)
    j_m = w[2] * (rates.loss_M * v[0].real - rates.gain_M * v[1].real)
    return out[0], out[1], j_m


def heat_currents(spec: SystemSpec, state: SteadyState | None = None):
    """Energy currents (JeL, JeR, JeM) into the three baths (see :func:`bath_currents`)."""
    record = _memo(spec)
    return bath_currents(record["rates"], _resolve_state(record, state), ENERGY)


def particle_currents(spec: SystemSpec, state: SteadyState | None = None):
    """Excitation-number currents (JpL, JpR, JpM) into the three baths."""
    record = _memo(spec)
    return bath_currents(record["rates"], _resolve_state(record, state), PARTICLE)


def closed_form_JeR_resonant(spec: SystemSpec) -> float:
    """Right-bath energy current at resonance with equal diagonal couplings.

    Two-bath configuration only.  The expression splits into a population
    term and a coherence term proportional to gR12*(gL12 - gR12); with
    equal cross couplings it collapses to
    2*gamma*eps*(nL - nR) / (2 + 3*nL + 3*nR).
    """
    if spec.eps1 != spec.eps2:
        raise UsageError("resonant closed form needs eps1 == eps2")
    if spec.gM != 0.0:
        raise UsageError("resonant closed form needs gM == 0")
    gamma = spec.gL11
    if not (spec.gL22 == spec.gR11 == spec.gR22 == gamma):
        raise UsageError("resonant closed form needs equal diagonal couplings")
    eps = spec.eps1
    n_l = bose_occupation(eps, spec.tempL)
    n_r = bose_occupation(eps, spec.tempR)
    if spec.gL12 == spec.gR12:
        # equal cross couplings: the interference factors cancel exactly
        # (removing the 0/0 of the general form at the full-interference
        # corner) and the current collapses to the population channel
        return 2.0 * gamma * eps * (n_l - n_r) / (2.0 + 3.0 * n_l + 3.0 * n_r)
    g_plus = gamma * (n_l + n_r)
    g_minus = gamma * (2.0 + n_l + n_r)
    g12_plus = spec.gL12 * n_l + spec.gR12 * n_r
    g12_minus = spec.gL12 * (1.0 + n_l) + spec.gR12 * (1.0 + n_r)
    norm = g_minus**2 + 2.0 * g_plus * g_minus - g12_minus * (2.0 * g12_plus + g12_minus)
    population = (2.0 * eps * gamma / norm) * (g_minus * gamma - g12_minus * spec.gL12) * (
        n_l - n_r
    )
    coherence = (2.0 * eps * gamma * spec.gR12 * (spec.gL12 - spec.gR12) / norm) * (
        1.0 + n_r
    ) * (n_l - n_r)
    return population + coherence


def closed_form_JR_no_interference(spec: SystemSpec) -> float:
    """Right-bath current with both cross couplings off (two-bath case):
    the two-frequency expression on the no-interference populations, and
    for ``eps2 == 0`` (the lower channel thermalized at zero frequency) the
    upper channel alone,

        J = gL11*gR11*(nL - nR)*eps1 / (gL11*(2 + 3*nL) + gR11*(2 + 3*nR)),

    antisymmetric in the two temperatures when gL11 == gR11.
    """
    if spec.gL12 != 0.0 or spec.gR12 != 0.0:
        raise UsageError("no-interference closed form needs gL12 == gR12 == 0")
    if spec.gM != 0.0:
        raise UsageError("no-interference closed form needs gM == 0")
    n_l1 = bose_occupation(spec.eps1, spec.tempL)
    n_r1 = bose_occupation(spec.eps1, spec.tempR)
    if spec.eps2 == 0.0:
        num = spec.gL11 * spec.gR11 * (n_l1 - n_r1) * spec.eps1
        den = spec.gL11 * (2.0 + 3.0 * n_l1) + spec.gR11 * (2.0 + 3.0 * n_r1)
        return num / den
    n_l2 = bose_occupation(spec.eps2, spec.tempL)
    n_r2 = bose_occupation(spec.eps2, spec.tempR)
    gm11 = spec.gL11 * (1.0 + n_l1) + spec.gR11 * (1.0 + n_r1)
    gp11 = spec.gL11 * n_l1 + spec.gR11 * n_r1
    gm22 = spec.gL22 * (1.0 + n_l2) + spec.gR22 * (1.0 + n_r2)
    gp22 = spec.gL22 * n_l2 + spec.gR22 * n_r2
    norm = gm11 * (gp22 + gm22) + gp11 * gm22
    upper = (spec.gL11 * spec.gR11 / norm) * gm22 * (n_l1 - n_r1) * spec.eps1
    lower = (spec.gL22 * spec.gR22 / norm) * gm11 * (n_l2 - n_r2) * spec.eps2
    return upper + lower


@dataclass(frozen=True)
class CurrentReport:
    """All six steady-state currents plus conservation diagnostics.

    ``warnings`` lists soft violations (conservation residual above
    tolerance, steady-state positivity excursion) without interrupting a
    sweep.
    """

    JeL: float
    JeR: float
    JeM: float
    JpL: float
    JpR: float
    JpM: float
    SeRR: float
    conservation_residual_energy: float
    conservation_residual_particle: float
    warnings: tuple[str, ...] = ()

    @classmethod
    def from_spec(
        cls,
        spec: SystemSpec,
        state: SteadyState | None = None,
        include_noise: bool = True,
    ) -> "CurrentReport":
        """Currents of ``state`` (default: the kernel of ``spec``) and, with
        ``include_noise``, the right-bath energy noise power ``SeRR`` of
        ``cumulants_perturbative(spec, "R", ENERGY, 2)``, which always comes
        from the kernel; all from the memo (:func:`vflux.model._memo`)."""
        record = _memo(spec)
        ss = state if state is not None else _kernel(record)
        je = bath_currents(record["rates"], ss.vector, ENERGY)
        jp = bath_currents(record["rates"], ss.vector, PARTICLE)
        se_rr = float("nan")
        if include_noise:
            se_rr = _recursion_set("R", ENERGY, _orders(record, "R", ENERGY, 2)).noise_power
        res_e = abs(je[0] + je[1] + je[2])
        res_p = abs(jp[0] + jp[1])
        return cls(je[0], je[1], je[2], jp[0], jp[1], jp[2], se_rr,
                   res_e, res_p, _report_warnings(res_e, res_p, ss.positivity_warning))


def _report_warnings(res_e, res_p, positivity: bool) -> tuple[str, ...]:
    warn = []
    if res_e > CONSERVATION_TOL:
        warn.append("energy-conservation")
    if res_p > CONSERVATION_TOL:
        warn.append("particle-conservation")
    if positivity:
        warn.append("positivity")
    return tuple(warn)
