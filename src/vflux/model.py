"""Domain types and transition rates for the three-level V system.

Units: hbar = k_B = 1 throughout; every quantity is dimensionless.

The system has two excited levels at energies ``eps1 >= eps2 > 0`` above a
common ground state at zero energy.  Two bosonic baths (left ``L`` and right
``R``) drive both ground-excited transitions; their cross coefficients
``gL12``/``gR12`` encode noise-induced interference and are bounded by the
geometric mean of the diagonal coefficients.  A third bath (middle ``M``)
drives hopping between the two excited levels across the gap
``delta = eps1 - eps2``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

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

    Parameters
    ----------
    omega : float
        Mode frequency, strictly positive.
    temp : float
        Bath temperature, strictly positive.

    Raises
    ------
    DomainError
        If ``omega`` or ``temp`` is not finite, ``omega <= 0`` (zero-frequency
        divergence), ``temp <= 0``, or ``omega/temp`` is below
        :data:`OCCUPATION_RATIO_MIN` (about 5.6e-309, zero included), where
        the occupation is not finite.
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

    @property
    def delta(self) -> float:
        return self.eps1 - self.eps2

    def validate(self) -> list[str]:
        return validate(self)

    def require_valid(self) -> "SystemSpec":
        violations = validate(self)
        if violations:
            raise DomainError("invalid SystemSpec: " + "; ".join(violations))
        return self

    def content_hash(self) -> str:
        """Short stable hash of the resolved parameter set."""
        # repr of the float value, so specs that compare equal (1, 1.0,
        # np.float64(1.0)) hash equal
        text = "|".join(f"{name}={float(getattr(self, name))!r}" for name in SPEC_FIELDS)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


#: SystemSpec field names in declaration order.
SPEC_FIELDS = tuple(f.name for f in fields(SystemSpec))


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
    # every comparison below is false for NaN
    v = [f"finiteness: {name} = {getattr(spec, name)} must be finite"
         for name in SPEC_FIELDS if not math.isfinite(getattr(spec, name))]
    for name in ("tempL", "tempM", "tempR"):
        if getattr(spec, name) <= 0.0:
            v.append(f"temperature positivity: {name} = {getattr(spec, name)} must be > 0")
    for name in ("gL11", "gL22", "gL12", "gR11", "gR22", "gR12", "gM"):
        if getattr(spec, name) < 0.0:
            v.append(f"coefficient nonnegativity: {name} = {getattr(spec, name)} must be >= 0")
    if spec.eps1 < spec.eps2:
        v.append(f"level ordering: eps1 = {spec.eps1} must be >= eps2 = {spec.eps2}")
    if spec.eps1 <= 0.0:
        v.append(f"level positivity: eps1 = {spec.eps1} must be > 0")
    if spec.eps2 < 0.0:
        v.append(f"level positivity: eps2 = {spec.eps2} must be >= 0")
    elif spec.eps2 == 0.0 and (spec.gL22 > 0.0 or spec.gR22 > 0.0):
        v.append("level positivity: eps2 = 0 requires gL22 = gR22 = 0 (single-channel limit)")
    for side in ("L", "R"):
        g11 = getattr(spec, f"g{side}11")
        g22 = getattr(spec, f"g{side}22")
        g12 = getattr(spec, f"g{side}12")
        bound = interference_bound(g11, g22)
        if g12 > bound:
            v.append(
                f"interference bound: g{side}12 = {g12} exceeds sqrt(g{side}11*g{side}22) = {bound}"
            )
    if spec.gM > 0.0 and spec.delta < GAP_MIN:
        v.append(
            f"middle-bath gap: eps1 - eps2 = {spec.delta} must be >= {GAP_MIN} when gM > 0"
        )
    # the pairs whose occupations the rates use (non-finite or non-positive: above)
    for label, omega, name, temp, needed in (
            ("eps1", spec.eps1, "tempL", spec.tempL, True),
            ("eps1", spec.eps1, "tempR", spec.tempR, True),
            ("eps2", spec.eps2, "tempL", spec.tempL, spec.eps2 > 0.0),
            ("eps2", spec.eps2, "tempR", spec.tempR, spec.eps2 > 0.0),
            ("eps1 - eps2", spec.delta, "tempM", spec.tempM, spec.gM > 0.0)):
        if (needed and 0.0 < omega < math.inf and 0.0 < temp < math.inf
                and omega / temp < OCCUPATION_RATIO_MIN):
            v.append(f"occupation: {label} = {omega} over {name} = {temp} "
                     "leaves no finite occupation")
    return v


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
    """Bath-resolved gain/loss rates evaluated at both excited energies.

    Gain rates are coefficient times occupation, loss rates coefficient
    times occupation plus one; totals sum the left and right contributions.
    The per-bath split is kept because counting-field dressing multiplies
    each bath's contribution by its own phase before the sum is formed.

    Rates are stored as nested tuples ``[i][j][k]`` with levels
    ``i, j in {0, 1}`` (for excited states 1, 2) and ``k in {0, 1}``
    selecting the energy argument ``eps1`` or ``eps2``.  ``params`` maps
    every SystemSpec field to a float, for one point (see
    :func:`build_rates`), or to an array of length N, for a stack of
    points (see :func:`spec_arrays`); every entry is then a float or an
    array of length N, and ``shape`` is ``()`` or ``(N,)``.  Both run the
    same operations, so an entry of a stack carries the bits of that
    point's own rate set.  The points are not validated here.
    """

    __slots__ = ("eps1", "eps2", "delta", "shape", "occL", "occR", "occM",
                 "gainL", "gainR", "lossL", "lossR", "gain_M", "loss_M")

    def __init__(self, params):
        self.eps1, self.eps2 = params["eps1"], params["eps2"]
        self.delta = self.eps1 - self.eps2
        self.shape = getattr(self.eps1, "shape", ())
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

    Past its checks :func:`bose_occupation` reads only ``omega/temp``, so a
    stack calls it on the first pair of each unique ratio (``math.expm1``:
    ``np.expm1`` differs in the last ulp for some inputs).  A pair failing
    the checks raises its own error, though a valid pair share its ratio.
    """
    if not isinstance(omega, np.ndarray):
        return bose_occupation(omega, temp) if needed else 0.0
    omega, temp, needed = np.broadcast_arrays(omega, temp, needed)
    omega, temp = omega[needed], temp[needed]
    checked = np.isfinite(omega) & np.isfinite(temp) & (omega > 0.0) & (temp > 0.0)
    if not checked.all():
        pos = int(np.argmin(checked))
        bose_occupation(float(omega[pos]), float(temp[pos]))  # raises its DomainError
    _, first, inverse = np.unique(omega / temp, return_index=True, return_inverse=True)
    values = [bose_occupation(w, t) for w, t in zip(omega[first].tolist(), temp[first].tolist())]
    out = np.zeros(needed.shape)
    out[needed] = np.array(values, dtype=float)[inverse]
    return out


def build_rates(spec: SystemSpec) -> RateSet:
    """Evaluate all bare transition rates for a validated spec."""
    return RateSet(vars(spec.require_valid()))


def spec_arrays(specs) -> dict[str, np.ndarray]:
    """Fields of ``specs`` as one float array per SystemSpec field name."""
    return {name: np.array([getattr(s, name) for s in specs], dtype=float)
            for name in SPEC_FIELDS}



def evaluate_valid(specs, evaluate) -> list:
    """One outcome per spec: ``evaluate`` maps the stacked :class:`RateSet`
    of the valid ``specs`` to one outcome per valid spec, and an invalid
    spec's outcome is its :class:`DomainError`."""
    outcomes: list = [None] * len(specs)
    valid = []
    for pos, spec in enumerate(specs):
        try:
            spec.require_valid()
        except DomainError as exc:
            outcomes[pos] = exc
        else:
            valid.append(pos)
    if valid:
        for pos, out in zip(valid, evaluate(RateSet(spec_arrays([specs[p] for p in valid]))),
                            strict=True):
            outcomes[pos] = out
    return outcomes
