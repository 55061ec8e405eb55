"""Rectification and amplification figures of merit.

Temperature convention for rectification: the forward configuration puts
the left bath at ``t0 + deltaT/2`` and the right bath at ``t0 - deltaT/2``;
backward swaps them.  The factor is invariant under the opposite choice
combined with swapping the two coupling sets, so nothing physical hangs on
the convention; it is fixed here once and used everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateSteadyStateError,
    DomainError,
    IndeterminateAmplificationError,
    IndeterminateRectificationError,
    UsageError,
    VfluxError,
)
from .fcs import richardson
from .liouvillian import _entries
from .model import ENERGY, RateSet, SystemSpec, spec_arrays
from .steady import _error_text, _real_columns
from .transport import bath_currents, heat_currents, particle_currents

#: Denominators at or below this level make the figure of merit undefined.
RECTIFICATION_FLOOR = 1e-15
AMPLIFICATION_FLOOR = 1e-14


def default_deltaT_grid(t0: float) -> np.ndarray:
    """Temperature-bias grid of 50 points spanning (0, 1.9*t0] as used by the scans."""
    return np.linspace(1.9 * t0 / 50, 1.9 * t0, 50)


def default_tM_grid() -> np.ndarray:
    """Middle-bath temperature grid, 100 points on [0.1, 2.0], of the amplification scans."""
    return np.linspace(0.1, 2.0, 100)


@dataclass(frozen=True)
class RectificationResult:
    t0: float
    deltaT: float
    j_forward: float
    j_backward: float
    rj: float


def _bias_error(t0: float, deltaT: float) -> UsageError | None:
    if abs(deltaT) >= 2.0 * t0:
        return UsageError(f"|deltaT| = {abs(deltaT)} must stay below 2*t0 = {2.0 * t0}")
    return None


def rectification(spec: SystemSpec, t0: float, deltaT: float) -> RectificationResult:
    """Asymmetry of the right-bath current under exchanging the edge temperatures.

    rj = |J_f + J_b| / max(J_f, -J_b) with J the right-bath energy current
    in the forward and backward configurations.

    Raises
    ------
    IndeterminateRectificationError
        When both configurations carry (numerically) no current, e.g. at
        deltaT = 0.
    """
    bias_error = _bias_error(t0, deltaT)
    if bias_error is not None:
        raise bias_error
    forward = replace(spec, tempL=t0 + deltaT / 2.0, tempR=t0 - deltaT / 2.0)
    backward = replace(spec, tempL=t0 - deltaT / 2.0, tempR=t0 + deltaT / 2.0)
    j_f = heat_currents(forward)[1]
    j_b = heat_currents(backward)[1]
    den = max(j_f, -j_b)
    if den <= RECTIFICATION_FLOOR:
        raise IndeterminateRectificationError(
            f"both currents vanish at t0={t0}, deltaT={deltaT}"
        )
    return RectificationResult(t0, deltaT, j_f, j_b, abs(j_f + j_b) / den)


def max_rectification(
    spec: SystemSpec,
    t0: float,
    deltaT_grid: np.ndarray | None = None,
) -> tuple[float, float]:
    """Grid maximum of the rectification factor over the temperature bias.

    Indeterminate grid points are skipped; ties break toward smaller
    |deltaT| (the grid is scanned in increasing-bias order and only a
    strictly larger value moves the argmax).  Evaluated by
    :func:`max_rectification_batch` with one spec.

    Returns
    -------
    (rj_max, deltaT_star)
    """
    (outcome,) = max_rectification_batch([spec], t0, deltaT_grid)
    if isinstance(outcome, VfluxError):
        raise outcome
    return outcome


def max_rectification_batch(specs, t0: float, deltaT_grid: np.ndarray | None = None) -> list:
    """:func:`max_rectification` of each spec over one bias grid, as one batch.

    The forward and backward configurations of every spec and bias form
    one stack of rates with one stacked kernel on its real entries
    (:func:`vflux.steady._real_columns`); currents and factors are array
    expressions in the order of :func:`rectification`.
    Returns one ``(rj_max, deltaT_star)`` per spec, or the
    :class:`VfluxError` that scanning the grid with :func:`rectification`
    raises first for it.
    """
    grid = default_deltaT_grid(t0) if deltaT_grid is None else np.asarray(deltaT_grid)
    scan = [float(grid[idx]) for idx in np.argsort(np.abs(grid), kind="stable")]
    # rectification rejects a bias of at least 2*t0, and the scan stops at
    # the first one
    stop = next((pos for pos, dt in enumerate(scan) if _bias_error(t0, dt)), len(scan))
    fallback = (_bias_error(t0, scan[stop]) if stop < len(scan)
                else IndeterminateRectificationError("every grid point was indeterminate"))
    biases = np.array(scan[:stop])
    outcomes: dict[int, object] = {}
    valid = []
    if stop:
        # validate reads an edge temperature only by its sign and eps/temp;
        # the scan keeps both in (0, t0 + |deltaT|/2 of its last bias], so a
        # spec is valid throughout exactly when it is with both edges there.
        # If not, the scan runs point by point to its first error.
        hottest = t0 + abs(scan[stop - 1]) / 2.0
        for pos, spec in enumerate(specs):
            if replace(spec, tempL=hottest, tempR=hottest).validate():
                outcomes[pos] = _scan_error(spec, t0, scan[:stop])
            else:
                valid.append(pos)
    if valid:
        # rows ordered (spec, bias, forward/backward), the order of the scan
        params = {name: np.repeat(values, 2 * stop)
                  for name, values in spec_arrays([specs[pos] for pos in valid]).items()}
        hot, cold = t0 + biases / 2.0, t0 - biases / 2.0
        params["tempL"] = np.tile(np.stack([hot, cold], axis=1).ravel(), len(valid))
        params["tempR"] = np.tile(np.stack([cold, hot], axis=1).ravel(), len(valid))
        rates = RateSet(params)
        columns, ratio, isolated, usable = _real_columns(*_entries(rates))
        j = bath_currents(rates, columns, ENERGY)[1].reshape(len(valid), stop, 2)
        j_f, j_b = j[:, :, 0], j[:, :, 1]
        den = np.maximum(j_f, -j_b)
        with np.errstate(divide="ignore", invalid="ignore"):
            rj = np.abs(j_f + j_b) / den
        # an indeterminate point (or a NaN factor) never moves the argmax
        score = np.where((den > RECTIFICATION_FLOOR) & ~np.isnan(rj), rj, -np.inf)
        for row in np.flatnonzero(~usable).tolist():
            pos = valid[row // (2 * stop)]
            error = DegenerateSteadyStateError(_error_text(ratio[row], isolated[row]))
            outcomes.setdefault(pos, error)
        # np.argmax takes the first maximum in scan order: only a strictly
        # larger factor moves it.  A scan cut short by a bias error
        # returns no maximum.
        for n, pos in enumerate(valid):
            best = int(np.argmax(score[n]))
            if stop == len(scan) and pos not in outcomes and score[n, best] > -np.inf:
                outcomes[pos] = (float(rj[n, best]), scan[best])
    return [outcomes.get(pos, fallback) for pos in range(len(specs))]


def _scan_error(spec: SystemSpec, t0: float, biases) -> VfluxError | None:
    """The first error of :func:`rectification` over ``biases`` other than
    an indeterminate point, which the scan skips."""
    for dt in biases:
        try:
            rectification(spec, t0, dt)
        except IndeterminateRectificationError:
            continue
        except VfluxError as exc:
            return exc
    return None


@dataclass(frozen=True)
class AmplificationResult:
    """Heat-current response ratios to the middle-bath temperature.

    ``dJdTm`` holds the three central-difference derivatives
    (dJeL/dTM, dJeR/dTM, dJeM/dTM) after one Richardson refinement.
    ``branch_residual`` measures how well betaR equals |betaL +- 1| with
    the sign fixed by the direction of dJeL/dJeM.
    """

    tM: float
    betaL: float
    betaR: float
    dJdTm: tuple[float, float, float]
    stencil_h: float
    branch_theta: int
    branch_residual: float


def _tM_response(currents, spec: SystemSpec, tM: float, h: float | None = None):
    """Step and d/dTM of ``currents(spec)`` (middle-bath current last) at
    ``tM``: central differences with steps ``h`` (default 1e-4*tM) and
    ``h/2``, Richardson-refined once.  Raises :class:`UsageError` when
    ``tM - h <= 0`` and :class:`IndeterminateAmplificationError` when the
    middle-bath current does not respond."""
    step = 1e-4 * tM if h is None else h
    if tM - step <= 0.0:
        raise UsageError(f"tM - h = {tM - step} must stay positive")

    def j(tm: float) -> np.ndarray:
        return np.array(currents(replace(spec, tempM=tm)))

    coarse = (j(tM + step) - j(tM - step)) / (2.0 * step)
    d = richardson(coarse, (j(tM + step / 2.0) - j(tM - step / 2.0)) / step)
    if abs(d[-1]) <= AMPLIFICATION_FLOOR:
        raise IndeterminateAmplificationError(
            f"middle-bath current does not respond to tM at tM={tM}"
        )
    return step, d


def amplification(spec: SystemSpec, tM: float, h: float | None = None) -> AmplificationResult:
    """Amplification factors beta_u = |dJe_u/dTM| / |dJeM/dTM| at fixed edges.

    Central differences with relative step (default 1e-4*tM) and one
    Richardson refinement; the currents are smooth in the middle-bath
    temperature here.
    """
    step, d = _tM_response(heat_currents, spec, tM, h)
    beta_l = abs(d[0]) / abs(d[2])
    beta_r = abs(d[1]) / abs(d[2])
    theta = 0 if d[0] / d[2] > 0.0 else 1
    residual = abs(beta_r - abs(beta_l + (-1.0) ** theta))
    return AmplificationResult(tM, beta_l, beta_r, (d[0], d[1], d[2]), step, theta, residual)


def max_amplification(spec: SystemSpec, tM_grid: np.ndarray | None = None) -> float:
    """Maximal right-bath amplification over the middle-bath temperature.

    Evaluates the closed-form factorization

        betaR_max = |eps2 / (eps1 - eps2)|
                    * max_TM |dJpR/dTM| / |dJpM/dTM|,

    i.e. the cyclic-structure prefactor times the particle-current response
    ratio.  In the cyclic coupling pattern the ratio is identically one and
    the prefactor is exact; switching on the bypass channels suppresses the
    ratio monotonically.  Grid points where the response is undefined (a
    step reaching ``tM <= 0``, or no middle-bath response) are skipped.
    """
    grid = default_tM_grid() if tM_grid is None else np.asarray(tM_grid)
    prefactor = cyclic_amplification_analytic(spec.eps1, spec.eps2)
    best = None
    for tm in grid:
        try:
            _, d = _tM_response(lambda local: particle_currents(local)[1:], spec, tm)
        except (UsageError, IndeterminateAmplificationError):
            continue
        ratio = abs(d[0]) / abs(d[1])
        if best is None or ratio > best:
            best = ratio
    if best is None:
        raise IndeterminateAmplificationError("every grid point was indeterminate")
    return prefactor * best


def cyclic_amplification_analytic(eps1: float, eps2: float) -> float:
    """Closed-form amplification |eps2/(eps1 - eps2)| of the pure cycle.

    The two excited energies can never coincide here: the cycle exchanges
    the finite energy eps1 - eps2 with the middle bath on every pass.
    """
    if eps1 == eps2:
        raise DomainError("cyclic amplification needs eps1 != eps2")
    return abs(eps2 / (eps1 - eps2))
