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
from .fcs import _apply_inverse, _eliminate
from .liouvillian import _entries
from .model import (ENERGY, PARTICLE, RateSet, SystemSpec, _invalid, _valid_points, spec_arrays,
                    spec_at)
from .steady import _error_text, _real_columns, _solve
from .transport import bath_currents, heat_currents

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

    ``dJdTm`` holds the exact (dJeL/dTM, dJeR/dTM, dJeM/dTM) of
    :func:`_tM_response`.  ``branch_residual`` measures how well betaR
    equals |betaL +- 1| with the sign fixed by the direction of dJeL/dJeM.
    """

    tM: float
    betaL: float
    betaR: float
    dJdTm: tuple[float, float, float]
    branch_theta: int
    branch_residual: float


def _tM_response(params, kind: str):
    """Exact d/dTM of the currents (J_L, J_R, J_M) of ``kind`` at the valid
    point or stack of fields ``params`` (as :class:`RateSet` takes them),
    and the kernel's ratio and verdicts (:func:`vflux.steady._solve`):
    ``dP0/dTM = -R (dL/dTM) P0`` by :func:`vflux.fcs._apply_inverse`, plus
    J_M's own middle rates (``docs/physics.md``).  One point in Python
    numbers, a stack in arrays, with one point's bits."""
    rates = RateSet(params)
    pop, (x, y), ratio, isolated, usable, t = _solve(*_entries(rates))
    # P0 as fcs._eliminate takes it, each part divided by the trace alone
    if rates.shape:
        p0 = np.stack([*pop, x, x], axis=-1) / t[:, None] + 0j
        p0.imag[:, 3], p0.imag[:, 4] = y / t, -y / t
    else:
        p0 = np.array([*(q / t for q in pop), complex(x / t, y / t), complex(x / t, -y / t)])
    factors = _eliminate(rates, p0)
    p, n, tm = factors[-1], rates.occM, params["tempM"]
    # gM dn/dTM, dn/dTM = n (n + 1) (delta/TM) / TM; delta/TM overflows only where n is 0
    rate = params["gM"] * (n * (n + 1.0) * (rates.delta * (n > 0.0) / tm) / tm)
    # -(dL/dTM) P0: the middle bath moves populations 1 <-> 2 and damps both coherences
    flow = (p[0] - p[1]) * rate
    dj = bath_currents(rates, _apply_inverse(factors, [
        flow, (p[1] - p[0]) * rate, p[2] * 0.0, p[3] * rate, p[4] * rate]), kind)
    return (dj[0], dj[1], dj[2] + rates.weights(kind)[2] * flow.real), ratio, isolated, usable


def amplification(spec: SystemSpec, tM: float) -> AmplificationResult:
    """Amplification factors beta_u = |dJe_u/dTM| / |dJeM/dTM| at fixed edges
    (:func:`_tM_response` at ``tempM = tM``).  Raises the :class:`DomainError`
    of that spec, the kernel's error, or :class:`IndeterminateAmplificationError`
    when the middle-bath current does not respond."""
    _real("tM", tM)
    local = replace(spec, tempM=tM).require_valid()
    (dl, dr, dm), ratio, isolated, usable = _tM_response(vars(local), ENERGY)
    if not usable:
        raise DegenerateSteadyStateError(_error_text(ratio, isolated))
    if abs(dm) <= AMPLIFICATION_FLOOR:
        raise IndeterminateAmplificationError(f"middle-bath current does not respond to tM "
                                              f"at tM={tM}")
    beta_l, beta_r = abs(dl) / abs(dm), abs(dr) / abs(dm)
    theta = 0 if dl / dm > 0.0 else 1
    residual = abs(beta_r - abs(beta_l + (-1.0) ** theta))
    return AmplificationResult(tM, beta_l, beta_r, (dl, dr, dm), theta, residual)


def max_amplification(spec: SystemSpec, tM_grid: np.ndarray | None = None) -> float:
    """Maximal right-bath amplification over the middle-bath temperature,

        betaR_max = |eps2 / (eps1 - eps2)| * max_TM |dJpR/dTM| / |dJpM/dTM|:

    the cyclic-structure prefactor, exact in the cyclic coupling pattern
    where the particle-current response ratio is one, times that ratio,
    which the bypass channels suppress monotonically.  The positive grid
    points form one stack (:func:`_tM_response`); a point with ``tM <= 0``
    or NaN, no middle-bath response or a NaN ratio is skipped, and the
    first that is not valid or whose kernel fails raises its error.
    """
    grid = _grid("tM_grid", default_tM_grid() if tM_grid is None else tM_grid)
    prefactor = cyclic_amplification_analytic(spec.eps1, spec.eps2)
    tm = grid[grid > 0.0].astype(float)
    params = {**spec_arrays([spec] * len(tm)), "tempM": tm}
    stop = int(np.argmin(np.append(_valid_points(params), False)))  # the first invalid point
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        (_, dr, dm), ratio, isolated, usable = _tM_response(
            {name: values[:stop] for name, values in params.items()}, PARTICLE)
        gain = np.abs(dr) / np.abs(dm)
    if not usable.all():
        at = int(np.argmin(usable))
        raise DegenerateSteadyStateError(_error_text(ratio[at], isolated[at]))
    if stop < len(tm):
        raise _invalid(spec_at(params, stop))
    best = gain[(np.abs(dm) > AMPLIFICATION_FLOOR) & ~np.isnan(gain)]
    if not best.size:
        raise IndeterminateAmplificationError("every grid point was indeterminate")
    return prefactor * float(best.max())


def cyclic_amplification_analytic(eps1: float, eps2: float) -> float:
    """Closed-form amplification |eps2/(eps1 - eps2)| of the pure cycle.

    The two excited energies can never coincide here: the cycle exchanges
    the finite energy eps1 - eps2 with the middle bath on every pass.
    """
    if eps1 == eps2:
        raise DomainError("cyclic amplification needs eps1 != eps2")
    return abs(eps2 / (eps1 - eps2))
