"""Rectification and amplification figures of merit.

Rectification puts the left bath at ``t0 + deltaT/2`` and the right at
``t0 - deltaT/2`` forward, and swaps them backward; the opposite choice
with the coupling sets swapped gives the same factor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Real

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
from .model import ENERGY, RateSet, SystemSpec, _invalid, _valid_points, spec_arrays, spec_at
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


def _real(name: str, value) -> None:
    """:class:`UsageError` unless ``value`` is a real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise UsageError(f"{name} = {value!r} must be a real number")


def _bias_error(t0: float, deltaT: float) -> UsageError | None:
    if abs(deltaT) >= 2.0 * t0:
        return UsageError(f"|deltaT| = {abs(deltaT)} must stay below 2*t0 = {2.0 * t0}")
    return None


def rectification(spec: SystemSpec, t0: float, deltaT: float) -> RectificationResult:
    """Asymmetry of the right-bath current under exchanging the edge temperatures:
    rj = |J_f + J_b| / max(J_f, -J_b), J the right-bath energy current in
    the forward and backward configurations.  Raises
    :class:`IndeterminateRectificationError` when ``max(J_f, -J_b)`` is at
    most :data:`RECTIFICATION_FLOOR`: both currents vanish (deltaT = 0), or
    neither runs forward (deltaT < 0).
    """
    _real("t0", t0)
    _real("deltaT", deltaT)
    bias_error = _bias_error(t0, deltaT)
    if bias_error is not None:
        raise bias_error
    forward = replace(spec, tempL=t0 + deltaT / 2.0, tempR=t0 - deltaT / 2.0)
    backward = replace(spec, tempL=t0 - deltaT / 2.0, tempR=t0 + deltaT / 2.0)
    j_f = heat_currents(forward)[1]
    j_b = heat_currents(backward)[1]
    den = max(j_f, -j_b)
    if den <= RECTIFICATION_FLOOR:
        why = ("both currents vanish" if max(abs(j_f), abs(j_b)) <= RECTIFICATION_FLOOR
               else f"no forward current: max(J_f, -J_b) = {den:.3e}")
        raise IndeterminateRectificationError(f"{why} at t0={t0}, deltaT={deltaT}")
    return RectificationResult(t0, deltaT, j_f, j_b, abs(j_f + j_b) / den)


def max_rectification(
    spec: SystemSpec,
    t0: float,
    deltaT_grid: np.ndarray | None = None,
) -> tuple[float, float]:
    """Grid maximum ``(rj_max, deltaT_star)`` of the rectification factor over
    the temperature bias, by :func:`max_rectification_columns` of one spec.
    Indeterminate grid points are skipped; ties break toward smaller
    |deltaT| (only a strictly larger value moves the argmax of the scan in
    increasing bias).
    """
    (outcome,) = max_rectification_columns(spec_arrays([spec]), t0, deltaT_grid)
    if isinstance(outcome, VfluxError):
        raise outcome
    return outcome


def max_rectification_columns(params, t0: float, deltaT_grid: np.ndarray | None = None) -> list:
    """:func:`max_rectification` of each point of the field columns
    ``params`` (:func:`vflux.model.spec_arrays`) over one bias grid.

    A spec whose first invalid configuration in the scan order of
    :func:`rectification` (bias, then forward before backward) lies at
    bias ``k`` is scanned over the ``k`` biases before it (:func:`_scan`),
    with the specs that share its ``k``; a valid spec is scanned over the
    whole grid.  A grid that is not 1-D raises :class:`UsageError`.
    Returns one ``(rj_max, deltaT_star)`` per point, or the
    :class:`VfluxError` that scanning the grid with :func:`rectification`
    raises first for it: the first kernel error, else the
    :class:`DomainError` at bias ``k``, the one place a SystemSpec is
    built.
    """
    _real("t0", t0)
    grid = _grid("deltaT_grid", default_deltaT_grid(t0) if deltaT_grid is None else deltaT_grid)
    scan = [float(grid[idx]) for idx in np.argsort(np.abs(grid), kind="stable")]
    # rectification rejects a bias of at least 2*t0, and the scan stops at
    # the first one
    stop = next((pos for pos, dt in enumerate(scan) if _bias_error(t0, dt)), len(scan))
    fallback = (_bias_error(t0, scan[stop]) if stop < len(scan)
                else IndeterminateRectificationError("every grid point was indeterminate"))
    size = len(params["eps1"])
    if not stop:
        return [fallback] * size
    biases = np.array(scan[:stop])
    edges = {"tempL": t0 + biases / 2.0, "tempR": t0 - biases / 2.0}
    # validate reads an edge temperature only by its sign and eps/temp, and
    # the scan keeps both in (0, t0 + |deltaT|/2 of its last bias]: a spec
    # valid with both edges there is valid at every point
    hottest = t0 + abs(scan[stop - 1]) / 2.0
    bad = np.flatnonzero(~_valid_points({**params, "tempL": hottest, "tempR": hottest}))
    first = np.full(size, stop)
    if bad.size:
        # it reads the two edges alike, so the backward point of a bias is
        # invalid with its forward one, which comes first
        invalid = ~_valid_points({**{name: values[bad, None] for name, values in params.items()},
                                  **{name: temps[None] for name, temps in edges.items()}})
        first[bad] = np.where(invalid.any(axis=1), invalid.argmax(axis=1), stop)
    at_first = {**params, **{name: np.take(temps, first, mode="clip")
                             for name, temps in edges.items()}}
    outcomes = [fallback] * size
    # a set, not np.unique: its first call in a forked child faults in about
    # 1,600 pages (docs/conventions.md, "First calls in a forked pass")
    for k in sorted(set(first.tolist())):
        members = np.flatnonzero(first == k)
        found = (_scan({name: values[members] for name, values in params.items()},
                       {name: temps[None, :k] for name, temps in edges.items()}, scan[:k])
                 if k else [None] * len(members))
        for n, out in zip(members.tolist(), found):
            if isinstance(out, VfluxError):
                outcomes[n] = out
            elif k < stop:
                outcomes[n] = _invalid(spec_at(at_first, n))
            elif out is not None and stop == len(scan):
                outcomes[n] = out
    return outcomes


def _scan(params, edges, biases) -> list:
    """Each spec's first kernel error over ``biases`` (in scan order), else
    its ``(rj_max, deltaT_star)``, else None (every point indeterminate),
    of the valid specs with the field columns ``params``; ``edges`` holds
    the hot-left edge temperatures of the biases, each ``(1, m)``.

    A spec's backward configuration is its L<->R mirror's forward one,
    bit for bit (``docs/conventions.md``, "Rectification temperature
    convention"), so the scan solves hot-left biases only: ``J_f`` is the
    right-bath current of the spec's row, ``J_b`` the left-bath current of
    its mirror's (:func:`_mirror_rows`).  Whole mirror groups run in
    stacks of at most :data:`SCAN_STACK_POINTS` points, each one stacked
    kernel on real entries (:func:`_stack_scan`)."""
    rows, starts, forward, backward = _mirror_rows(params)
    outcomes: list = [None] * len(forward)
    for lo, hi in _stacks(starts, len(rows), len(biases)):
        members = np.flatnonzero((forward >= lo) & (forward < hi))
        score, errors = _stack_scan(params, rows[lo:hi], edges,
                                    forward[members] - lo, backward[members] - lo)
        # np.argmax takes the first maximum in scan order: only a strictly
        # larger factor moves it
        best = np.argmax(score, axis=1)
        top = score[np.arange(len(members)), best]  # rj where it is not -inf
        for n, (spec, at, value) in enumerate(zip(members.tolist(), best.tolist(),
                                                  top.tolist())):
            if n in errors:
                outcomes[spec] = errors[n]
            elif value > -np.inf:
                outcomes[spec] = (value, biases[at])
    return outcomes


#: Kernel points (stack rows times biases) per stack of the rectification
#: scan; measured choice in ``docs/conventions.md``.
SCAN_STACK_POINTS = 12_750

#: Each field the scan reads, and the field its L<->R mirror takes it from
#: (the scan sets the edge temperatures itself).
MIRRORED = {"eps1": "eps1", "eps2": "eps2", "tempM": "tempM", "gM": "gM",
            "gL11": "gR11", "gL22": "gR22", "gL12": "gR12",
            "gR11": "gL11", "gR22": "gL22", "gR12": "gL12"}


def _mirror_rows(params):
    """Stack rows of a scan of the specs with fields ``params``, the first
    row of each group, and each spec's row and its mirror's row.

    A row is ``(spec, mirrored)``: the fields of that spec, or of its
    mirror.  Specs whose fields carry the same bits share a row (a spec
    with ``-0.0`` for ``0.0`` does not), and a group is a spec's row and
    its mirror's, or one row for a spec that is its own mirror.  A mirror
    in the batch carries the bits of the swapped fields, so it takes the
    row of the spec it mirrors."""
    names = list(MIRRORED)
    bits = np.stack([params[name] for name in names], axis=1).view(np.int64)
    mirrors = bits[:, [names.index(MIRRORED[name]) for name in names]]
    # equal bits, equal id (one lexsort; np.unique by rows is slower)
    both = np.concatenate([bits, mirrors])
    order = np.lexsort(both.T)
    ids = np.empty(len(both), dtype=np.intp)
    ids[order] = np.cumsum(np.r_[True, (both[order][1:] != both[order][:-1]).any(axis=1)]) - 1
    key, mirror = ids.reshape(2, len(bits))
    # a group, {key, mirror}, starts at the first spec that holds either;
    # its rows are that spec's and, unless it is its own mirror, its mirror's
    _, first, group = np.unique(np.minimum(key, mirror), return_index=True, return_inverse=True)
    group = np.argsort(np.argsort(first))[group]
    first.sort()
    size = 1 + (key[first] != mirror[first])
    starts = np.cumsum(size) - size
    rows = [(n, mirrored) for n, count in zip(first.tolist(), size.tolist())
            for mirrored in (False, True)[:count]]
    own = key[first][group]
    return rows, starts.tolist(), starts[group] + (key != own), starts[group] + (mirror != own)


def _stacks(starts, count: int, stop: int):
    """``(lo, hi)`` ranges of the ``count`` rows of whole groups (first rows
    ``starts``) of at most :data:`SCAN_STACK_POINTS` points, ``stop`` per
    row, or of one group."""
    size = max(SCAN_STACK_POINTS // stop, 1)
    lo = 0
    for start, end in zip(starts, [*starts[1:], count]):
        if end - lo > size and start > lo:
            yield lo, start
            lo = start
    if count > lo:
        yield lo, count


def _stack_scan(params, rows, edges, f, b):
    """Rectification factors ``(len(f), m)`` of one stack of rows
    (:func:`_mirror_rows`) at the hot-left edge temperatures ``edges``, each
    ``(1, m)``, with ``-inf`` where indeterminate, and the first kernel
    error of each spec in scan order, by index into ``f``.  Spec ``n`` runs
    forward on row ``f[n]`` and backward on row ``b[n]``; spec fields are
    ``(len(rows), 1)`` factors, or ``(1, 1)`` where shared."""
    spec, mirrored = (np.array(x) for x in zip(*rows))
    rates = RateSet({**{name: _factor(np.where(mirrored, params[source][spec],
                                               params[name][spec]))
                        for name, source in MIRRORED.items()}, **edges})
    shape = (len(rows), edges["tempL"].shape[1])
    # as in one point's Python floats, rates near the float limit overflow silently
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        columns, *verdicts = _real_columns(*_entries(rates))
        j_l, j_r, _ = (np.broadcast_to(x, shape) for x in bath_currents(rates, columns, ENERGY))
        j_f, j_b = j_r[f], j_l[b]
        den = np.maximum(j_f, -j_b)
        rj = np.abs(j_f + j_b) / den
    ratio, isolated, usable = (np.broadcast_to(x, shape) for x in verdicts)
    # (spec, bias, forward/backward), flattened to the scan order
    unusable = ~np.stack([usable[f], usable[b]], axis=2).reshape(len(f), -1)
    failed = np.flatnonzero(unusable.any(axis=1))
    point = unusable[failed].argmax(axis=1)
    row = np.where(point % 2, b[failed], f[failed])
    errors = {n: DegenerateSteadyStateError(_error_text(ratio[r, at], isolated[r, at]))
              for n, r, at in zip(failed.tolist(), row.tolist(), (point // 2).tolist())}
    # an indeterminate point (or a NaN factor) never moves the argmax
    return np.where((den > RECTIFICATION_FLOOR) & ~np.isnan(rj), rj, -np.inf), errors


def _factor(values: np.ndarray) -> np.ndarray:
    """One spec field of a scan's stack as an ``(n, 1)`` factor, or ``(1, 1)``
    when its n values carry the same bits (``-0.0 == 0.0`` but the two differ)."""
    bits = values.view(np.int64)
    return values[:1, None] if (bits == bits[0]).all() else values[:, None]


def _grid(name: str, values) -> np.ndarray:
    """The scan grid ``name`` as an array; :class:`UsageError` unless it is
    1-D and each value a real number (read before ``np.asarray`` makes a
    bool 1.0)."""
    grid = np.asarray(values)
    if grid.ndim != 1:
        raise UsageError(f"a scan grid must be 1-D, got shape {grid.shape}")
    for pos, value in enumerate(values):
        _real(f"{name}[{pos}]", value)
    return grid


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
    ``h/2``, Richardson-refined once.  Raises :class:`UsageError` unless
    ``tM`` is a real and ``h`` a finite positive real, neither a bool, and
    ``tM - h > 0``, and :class:`IndeterminateAmplificationError` when the
    middle-bath current does not respond."""
    _real("tM", tM)
    if h is not None:
        _real("h", h)
        if not (np.isfinite(h) and h > 0.0):
            raise UsageError(f"h = {h} must be finite and > 0")
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
    """Maximal right-bath amplification over the middle-bath temperature,

        betaR_max = |eps2 / (eps1 - eps2)| * max_TM |dJpR/dTM| / |dJpM/dTM|:

    the cyclic-structure prefactor, exact in the cyclic coupling pattern
    where the particle-current response ratio is one, times that ratio,
    which the bypass channels suppress monotonically.  Grid points without
    a response (a step reaching ``tM <= 0``, or none from the middle bath)
    are skipped.
    """
    grid = _grid("tM_grid", default_tM_grid() if tM_grid is None else tM_grid)
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
