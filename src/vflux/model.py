"""Domain types and transition rates for the three-level V system.

Units: hbar = k_B = 1.  Two excited levels ``eps1 >= eps2 > 0`` sit above a
ground state at zero.  Two bosonic baths (``L``, ``R``) drive both
ground-excited transitions, their cross coefficients ``gL12``/``gR12``
(noise-induced interference) bounded by the geometric mean of the diagonal
ones; a third (``M``) drives hopping across ``delta = eps1 - eps2``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from numbers import Real

import numpy as np

from .errors import DomainError

# Counted-quantity kinds.
ENERGY = "energy"
PARTICLE = "particle"
KINDS = (ENERGY, PARTICLE)

# Counted baths.
BATHS = ("L", "R")

#: Smallest excited-state gap accepted while the middle bath is coupled;
#: below this the middle-bath thermal occupation diverges.
GAP_MIN = 1e-9

#: Smallest ``omega/temp`` with a finite occupation: ``expm1(x)`` is ``x``
#: this low, and ``1/x`` overflows for every smaller ``x``.
OCCUPATION_RATIO_MIN = math.nextafter(2.0 ** -1024, 1.0)


def bose_occupation(omega: float, temp: float) -> float:
    """Thermal occupation 1/(exp(omega/temp) - 1) of a bosonic mode.

    Raises :class:`DomainError` if ``omega`` or ``temp`` is not finite,
    ``omega <= 0`` (zero-frequency divergence), ``temp <= 0``, or
    ``omega/temp`` is below :data:`OCCUPATION_RATIO_MIN` (about 5.6e-309,
    zero included), where the occupation is not finite.
    """
    if not (math.isfinite(omega) and math.isfinite(temp)):
        raise DomainError(f"bose_occupation: omega and temp must be finite, got {omega}, {temp}")
    if omega <= 0.0:
        raise DomainError(f"bose_occupation: omega must be > 0, got {omega}")
    if temp <= 0.0:
        raise DomainError(f"bose_occupation: temp must be > 0, got {temp}")
    ratio = omega / temp
    if ratio < OCCUPATION_RATIO_MIN:
        raise DomainError(f"bose_occupation: omega/temp = {ratio} leaves no finite occupation")
    try:
        return 1.0 / math.expm1(ratio)
    except OverflowError:
        # exp(x) - 1 = exp(x) to double precision long before x ~ 709.8,
        # where expm1 overflows; exp(-x) underflows to 0.0 past x ~ 745
        return math.exp(-ratio)


@dataclass(frozen=True)
class SystemSpec:
    """Complete parameter set for one transport scenario.

    ``eps2 = 0`` is accepted only when the level-2 channel is fully
    decoupled (``gL22 == gR22 == 0``, which the interference bound then
    forces onto ``gL12``/``gR12`` as well); it exists for the single-channel
    limit of the no-interference closed-form current.
    """

    eps1: float
    eps2: float
    tempL: float
    tempM: float
    tempR: float
    gL11: float
    gL22: float
    gL12: float
    gR11: float
    gR22: float
    gR12: float
    gM: float

    def __post_init__(self):
        # real fields become floats, which overflow silently where numpy scalars warn
        for name, value in vars(self).items():
            if type(value) is not float and isinstance(value, Real):
                object.__setattr__(self, name, float(value))

    @property
    def delta(self) -> float:
        return self.eps1 - self.eps2

    def require_valid(self) -> "SystemSpec":
        if validate(self):
            raise _invalid(self)
        return self

    def content_hash(self) -> str:
        """Short stable hash of the resolved parameter set (:func:`spec_hashes`)."""
        return spec_hashes(spec_arrays([self]))[0]


#: SystemSpec field names in declaration order.
SPEC_FIELDS = tuple(f.name for f in fields(SystemSpec))


def spec_hashes(params) -> list[str]:
    """:meth:`SystemSpec.content_hash` of each point of the field columns
    ``params`` (:func:`spec_arrays`): 12 hex digits of the SHA-256 of
    ``name=repr(float(value))`` over the fields, joined by ``|``.  The repr
    of the float value makes specs that compare equal (1, 1.0,
    np.float64(1.0)) hash equal; each field formats each distinct value
    once (:func:`distinct_texts`)."""
    columns = [distinct_texts(params[name], f"{name}={{!r}}".format) for name in SPEC_FIELDS]
    return [hashlib.sha256("|".join(parts).encode()).hexdigest()[:12] for parts in zip(*columns)]


def distinct_texts(values, text) -> list[str]:
    """``text(value)`` of each float of ``values``, called once per distinct
    bit pattern (so ``-0.0`` apart from ``0.0``, which compare equal)."""
    bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    texts = np.array([text(value) for value in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def interference_bound(g11: float, g22: float) -> float:
    """Largest admissible cross coefficient ``sqrt(g11*g22)`` of one bath.

    Negative diagonal coefficients count as zero (``validate`` reports them
    separately).
    """
    return math.sqrt(max(g11, 0.0) * max(g22, 0.0))


def validate(spec: SystemSpec) -> list[str]:
    """Collect every invariant violation of ``spec``; empty list when valid.

    Reports rather than raises, so a configuration loader can surface all
    problems at once.
    """
    failed = _violations(vars(spec), math.sqrt, max)
    if not any(failed):
        return []
    values = {**vars(spec), "delta": spec.delta,
              "bound_L": interference_bound(spec.gL11, spec.gL22),
              "bound_R": interference_bound(spec.gR11, spec.gR22)}
    return [text.format_map(values) for bad, text in zip(failed, _TEXTS, strict=True) if bad]


#: The text of each flag of :func:`_violations`, in its order.
_TEXTS = (
    *(f"finiteness: {name} = {{{name}}} must be finite" for name in SPEC_FIELDS),
    *(f"temperature positivity: {name} = {{{name}}} must be > 0"
      for name in ("tempL", "tempM", "tempR")),
    *(f"coefficient nonnegativity: {name} = {{{name}}} must be >= 0"
      for name in ("gL11", "gL22", "gL12", "gR11", "gR22", "gR12", "gM")),
    "level ordering: eps1 = {eps1} must be >= eps2 = {eps2}",
    "level positivity: eps1 = {eps1} must be > 0",
    "level positivity: eps2 = {eps2} must be >= 0",
    "level positivity: eps2 = 0 requires gL22 = gR22 = 0 (single-channel limit)",
    *(f"interference bound: g{side}12 = {{g{side}12}} exceeds sqrt(g{side}11*g{side}22) = "
      f"{{bound_{side}}}" for side in BATHS),
    f"middle-bath gap: eps1 - eps2 = {{delta}} must be >= {GAP_MIN} when gM > 0",
    *(f"occupation: {eps} = {{{eps}}} over {name} = {{{name}}} leaves no finite occupation"
      for eps in ("eps1", "eps2") for name in ("tempL", "tempR")),
    "occupation: eps1 - eps2 = {delta} over tempM = {tempM} leaves no finite occupation",
)


def _violations(p, sqrt, maximum) -> tuple:
    """One flag per invariant of :func:`validate`, in the order of ``_TEXTS``, of
    one point (``p`` maps SystemSpec fields to floats; ``math.sqrt``, ``max``)
    or a stack (arrays that broadcast; ``np.sqrt``, ``np.maximum``)."""
    values = [p[name] for name in SPEC_FIELDS]
    eps1, eps2, t_l, t_m, t_r, gl11, gl22, gl12, gr11, gr22, gr12, g_m = values
    delta = eps1 - eps2
    # omega/temp under the floor, both positive and finite (t + (t == 0) is never 0)
    occupation = [(0.0 < w) & (w < math.inf) & (0.0 < t) & (t < math.inf)
                  & (w / (t + (t == 0.0)) < OCCUPATION_RATIO_MIN)
                  for w, t in ((eps1, t_l), (eps1, t_r), (eps2, t_l), (eps2, t_r), (delta, t_m))]
    # x - x is NaN for NaN and +-inf; every other comparison with NaN is false
    return (*[x - x != 0.0 for x in values],
            t_l <= 0.0, t_m <= 0.0, t_r <= 0.0,
            gl11 < 0.0, gl22 < 0.0, gl12 < 0.0, gr11 < 0.0, gr22 < 0.0, gr12 < 0.0, g_m < 0.0,
            eps1 < eps2, eps1 <= 0.0, eps2 < 0.0,
            (eps2 == 0.0) & ((gl22 > 0.0) | (gr22 > 0.0)),
            gl12 > sqrt(maximum(gl11, 0.0) * maximum(gl22, 0.0)),
            gr12 > sqrt(maximum(gr11, 0.0) * maximum(gr22, 0.0)),
            (g_m > 0.0) & (delta < GAP_MIN),
            *occupation[:4], (g_m > 0.0) & occupation[4])


def _valid_points(params) -> np.ndarray:
    """Whether each point of a stack passes :func:`validate` (no text built)."""
    with np.errstate(invalid="ignore", over="ignore"):
        return ~np.any(np.broadcast_arrays(*_violations(params, np.sqrt, np.maximum)), axis=0)


@dataclass(frozen=True)
class CountingFields:
    """Counting parameters attached to the left and right baths.

    ``kind`` selects what is counted: transferred energy (phase factors
    ``exp(-+ i*omega*chi)``) or transferred excitations (``exp(-+ i*chi)``).
    """

    chiL: float = 0.0
    chiR: float = 0.0
    kind: str = ENERGY

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"counting kind must be one of {KINDS}, got {self.kind!r}")

    @classmethod
    def zero(cls, kind: str = ENERGY) -> "CountingFields":
        return cls(0.0, 0.0, kind)

    def scaled(self, factor: float) -> "CountingFields":
        return CountingFields(self.chiL * factor, self.chiR * factor, self.kind)

    @property
    def is_zero(self) -> bool:
        return self.chiL == 0.0 and self.chiR == 0.0


class RateSet:
    """Bath-resolved gain/loss rates at both excited energies: coefficient
    times occupation (gain) or occupation plus one (loss), kept per bath as
    counting fields dress each bath's part by its own phase.  Nested tuples
    ``[i][j][k]``: levels ``i, j`` (excited 1, 2), energy ``eps_{k+1}``.
    ``params`` maps every SystemSpec field to a float (one point,
    :func:`build_rates`) or to arrays of a stack (:func:`spec_arrays`) of
    one shape or factors of it (spec fields ``(n, 1)``, temperatures ``(1,
    m)``; :func:`_occupation`); ``shape`` is ``()`` or the stack's.  A stack
    entry carries the bits of its point's own rate set.  Not validated.
    """

    __slots__ = ("eps1", "eps2", "delta", "shape", "occL", "occR", "occM",
                 "gainL", "gainR", "lossL", "lossR", "gain_M", "loss_M")

    def __init__(self, params):
        self.eps1, self.eps2 = params["eps1"], params["eps2"]
        self.delta = self.eps1 - self.eps2
        self.shape = (np.broadcast_shapes(*map(np.shape, params.values()))
                      if isinstance(self.eps1, np.ndarray) else ())
        self.occL, self.gainL, self.lossL = self._bath(
            params["tempL"], (params["gL11"], params["gL12"], params["gL22"]))
        self.occR, self.gainR, self.lossR = self._bath(
            params["tempR"], (params["gR11"], params["gR12"], params["gR22"]))
        g_m = params["gM"]
        self.occM = _occupation(self.delta, params["tempM"], g_m > 0.0)
        self.gain_M = g_m * self.occM
        self.loss_M = g_m * (1.0 + self.occM)

    def _bath(self, temp, coef):
        """Occupations, gain table and loss table of one edge bath."""
        occ = (_occupation(self.eps1, temp, True),
               _occupation(self.eps2, temp, self.eps2 > 0.0))
        # gain[i][j][k] = coef_ij * n(eps_k); loss[i][j][k] = coef_ij * (1 + n(eps_k))
        return occ, _rate_table(coef, occ, 0.0), _rate_table(coef, occ, 1.0)

    def gamma_plus(self, i: int, j: int, k: int):
        """Total gain rate for levels ``(i, j)`` at energy ``eps_k`` (1-based)."""
        return self.gainL[i - 1][j - 1][k - 1] + self.gainR[i - 1][j - 1][k - 1]

    def gamma_minus(self, i: int, j: int, k: int):
        """Total loss rate for levels ``(i, j)`` at energy ``eps_k`` (1-based)."""
        return self.lossL[i - 1][j - 1][k - 1] + self.lossR[i - 1][j - 1][k - 1]

    def weights(self, kind: str) -> tuple:
        """Counting weight of one quantum on each transition: ``eps1``,
        ``eps2`` (edge baths) and ``delta`` (middle bath) when counting
        energy, 1.0 each when counting excitations."""
        return (self.eps1, self.eps2, self.delta) if kind == ENERGY else (1.0, 1.0, 1.0)


def _rate_table(coef, occ, offset: float):
    n0 = offset + occ[0]
    n1 = offset + occ[1]
    c00, c01, c11 = coef
    cross = (c01 * n0, c01 * n1)
    return (((c00 * n0, c00 * n1), cross), (cross, (c11 * n0, c11 * n1)))


def _occupation(omega, temp, needed):
    """:func:`bose_occupation` of ``(omega, temp)`` where ``needed``, else 0.0.

    Past its checks :func:`bose_occupation` (``math.expm1``: ``np.expm1`` is
    off by an ulp for some inputs) reads only ``omega/temp``, so a stack calls
    it on the first needed pair of each unique ratio of the broadcast of
    ``omega``, ``temp`` and ``needed``.  A failing needed pair raises.
    """
    if not isinstance(omega, np.ndarray):
        return bose_occupation(omega, temp) if needed else 0.0
    omega, temp, needed = np.broadcast_arrays(omega, temp, needed)
    bad = needed & ~((np.isfinite(omega) & (omega > 0.0)) & (np.isfinite(temp) & (temp > 0.0)))
    if bad.any():
        pos = int(np.argmax(bad))
        bose_occupation(float(omega.flat[pos]), float(temp.flat[pos]))  # raises its DomainError
    out = np.zeros(omega.shape)
    omega, temp = omega[needed], temp[needed]
    _, first, inverse = np.unique(omega / temp, return_index=True, return_inverse=True)
    values = [bose_occupation(w, t) for w, t in zip(omega[first].tolist(), temp[first].tolist())]
    out[needed] = np.array(values, dtype=float)[inverse]
    return out


def build_rates(spec: SystemSpec) -> RateSet:
    """Evaluate all bare transition rates for a validated spec."""
    return RateSet(vars(spec.require_valid()))


#: The one slot: the memo record of the last spec a scalar entry point was handed.
_last: dict = {}


def _memo(spec: SystemSpec) -> dict:
    """The record of ``spec``, keyed by identity: the slot's if it holds this
    very object, else a new one with its rates, which takes the slot
    (``docs/conventions.md``, "One spec's memo")."""
    global _last
    record = _last
    if record.get("spec") is not spec:
        record = _last = {"spec": spec, "rates": build_rates(spec)}
    return record


def spec_arrays(specs) -> dict[str, np.ndarray]:
    """Fields of ``specs`` as one float array per SystemSpec field name."""
    return {name: np.array([getattr(s, name) for s in specs], dtype=float)
            for name in SPEC_FIELDS}


def spec_at(params, pos: int) -> SystemSpec:
    """The SystemSpec of point ``pos`` of the field columns ``params``."""
    return SystemSpec(*(params[name][pos].item() for name in SPEC_FIELDS))


def _invalid(spec: SystemSpec) -> DomainError:
    return DomainError("invalid SystemSpec: " + "; ".join(validate(spec)))


def evaluate_valid(params, evaluate) -> tuple[dict, dict]:
    """Cells and errors of the points of the field columns ``params``.

    ``evaluate`` maps the stacked :class:`RateSet` of the valid points to
    one list per column and ``{index: VfluxError}`` over them; an invalid
    point's cells are None and its error is its :class:`DomainError`, the
    one place a SystemSpec is built (:func:`_valid_points`)."""
    valid = _valid_points(params)
    errors = {pos: _invalid(spec_at(params, pos)) for pos in np.flatnonzero(~valid).tolist()}
    if not errors:
        return evaluate(RateSet(params))
    keep = np.flatnonzero(valid)
    cells, failed = (evaluate(RateSet({name: values[keep] for name, values in params.items()}))
                     if keep.size else ({}, {}))
    for name, column in cells.items():
        values = iter(column)
        cells[name] = [next(values) if ok else None for ok in valid.tolist()]
    errors.update((int(keep[n]), exc) for n, exc in failed.items())
    return cells, errors
