"""Generators of the reduced density-matrix dynamics.

The density matrix of the three-level system closes on the five components
``[rho11, rho22, rhogg, rho12, rho21]`` (the ground-excited coherences
decouple structurally; see :func:`verify_block_decoupling`).  This module
builds the 5x5 generator acting on that block, bare or dressed with
counting fields, together with its analytic derivatives with respect to the
counting parameters.

Two independent constructions are provided: a direct entry-wise fill from
the transition rates, and an application of the full master-equation
superoperator to all nine density-matrix basis elements.  The test suite
holds them against each other entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .model import BATHS, CountingFields, RateSet, SystemSpec, build_rates

#: Left null vector of every trace-preserving generator (row of ones over
#: the populations, zeros over the coherences).
TRACE_VECTOR = np.array([1.0, 1.0, 1.0, 0.0, 0.0])

# Index pairs (m, n) of the 3x3 density matrix, levels ordered
# (excited 1, excited 2, ground); the first five form the closed block.
_BASIS_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 0),
                (0, 2), (2, 0), (1, 2), (2, 1))


@dataclass(frozen=True, eq=False)
class Generator:
    """A 5x5 complex generator together with the counting fields it carries.

    ``chi`` is None for the bare (undressed) generator.
    """

    matrix: np.ndarray
    spec: SystemSpec
    chi: CountingFields | None = None

    def to_text(self) -> str:
        """Row-major plain-text dump, one row per line, entries as "re,im"."""
        lines = []
        for row in self.matrix:
            lines.append(" ".join(f"{z.real:.17e},{z.imag:.17e}" for z in row))
        return "\n".join(lines) + "\n"


def _entries(rates: RateSet):
    """Real parts of the bare generator's rows and columns 0-3 (nested lists
    of floats, or of arrays for a stack) and the level splitting ``delta``:
    all its entries, as row and column 4 mirror 3 and the only imaginary
    parts are ``Im L_33 = -delta`` and ``Im L_44 = delta``."""
    gm, gp = rates.gamma_minus, rates.gamma_plus
    gMp, gMm = rates.gain_M, rates.loss_M
    m11, m22, m121, m122 = gm(1, 1, 1), gm(2, 2, 2), gm(1, 2, 1), gm(1, 2, 2)
    p11, p22 = gp(1, 1, 1), gp(2, 2, 2)
    cross1, cross2 = -0.5 * m122, -0.5 * m121
    damping = 0.5 * (m11 + m22) + 0.5 * (gMp + gMm)
    # 0.0 - damping is the real part of -1j * delta - damping, +0.0 at zero damping
    return [[-(m11 + gMm), gMp, p11, cross1],
            [gMm, -(m22 + gMp), p22, cross2],
            [m11, m22, -(p11 + p22), 0.5 * (m121 + m122)],
            [cross2, cross1, 0.5 * (gp(1, 2, 1) + gp(1, 2, 2)), 0.0 - damping]], rates.delta


def _fill_block(rates: RateSet, sandwich=None) -> np.ndarray:
    """Assemble the 5x5 generator from :func:`_entries`: shape
    ``rates.shape + (5, 5)``, so a stack of rates gives a C-contiguous
    ``(N, 5, 5)`` stack.

    ``sandwich`` is the ``(gain, loss)`` pair of rate functions that fill
    the gain-type entries (:func:`_fill_sandwich`), dressed by
    :func:`_dressed_rates`; ``rates`` supplies the undressed damping
    combinations.  Without it the bare rates fill them: the bare generator.
    """
    re, delta = _entries(rates)
    m = np.zeros(rates.shape + (5, 5), dtype=complex)
    real, imag = m.real, m.imag
    for i in range(4):
        for j in range(4):
            real[..., i, j] = re[i][j]
    for k in range(3):
        real[..., 4, k], real[..., k, 4] = re[3][k], re[k][3]
    real[..., 4, 4] = re[3][3]
    imag[..., 3, 3], imag[..., 4, 4] = -delta, delta
    if sandwich:
        _fill_sandwich(m, *sandwich)
    return m


def _fill_sandwich(m: np.ndarray, gain, loss) -> None:
    """Write the gain-type ("sandwich") entries of ``m``: the only entries
    that carry counting phases.  ``gain(i, j, k)`` and ``loss(i, j, k)`` are
    the rates of levels ``(i, j)`` at energy ``eps_k`` (1-based)."""
    m[..., 0, 2] = gain(1, 1, 1)
    m[..., 1, 2] = gain(2, 2, 2)
    m[..., 3, 2] = m[..., 4, 2] = 0.5 * (gain(1, 2, 1) + gain(1, 2, 2))
    m[..., 2, 0] = loss(1, 1, 1)
    m[..., 2, 1] = loss(2, 2, 2)
    m[..., 2, 3] = m[..., 2, 4] = 0.5 * (loss(1, 2, 1) + loss(1, 2, 2))


def _dressed_rates(rates: RateSet, chi: CountingFields, baths, order: int = 0):
    """Gain and loss rate functions summed over ``baths``, each bath ``u``
    dressed by its counting phase and differentiated ``order`` times in
    ``i chi_u``: gain times ``(-w)^n exp(-i w chi_u)``, loss times
    ``(+w)^n exp(+i w chi_u)``, with ``w`` the counting weight of the energy
    argument (:meth:`RateSet.weights`).  Holds for complex ``chi``.
    """
    w = np.array(rates.weights(chi.kind)[:2])
    gains, losses = [], []
    for u in baths:
        chi_u = chi.chiL if u == "L" else chi.chiR
        gain, loss = (rates.gainL, rates.lossL) if u == "L" else (rates.gainR, rates.lossR)
        gains.append((gain, (-w) ** order * np.exp(-1j * w * chi_u)))
        losses.append((loss, (+w) ** order * np.exp(+1j * w * chi_u)))

    def summed(terms):
        def rate(i, j, k):
            total = None
            for table, factor in terms:
                term = table[i - 1][j - 1][k - 1] * factor[k - 1]
                total = term if total is None else total + term
            return total
        return rate

    return summed(gains), summed(losses)


def build_generator(spec: SystemSpec, rates: RateSet | None = None) -> Generator:
    """Bare generator of the five-component block dynamics.

    ``rates`` may be passed to reuse an already-built rate set inside
    tight parameter loops.
    """
    if rates is None:
        rates = build_rates(spec)
    return Generator(_fill_block(rates), spec, None)


def build_counting_generator(spec: SystemSpec, chi: CountingFields) -> Generator:
    """Counting-field-dressed generator.

    Only the gain ("sandwich") terms carry dressed rates, in the
    symmetrized combination over both energy arguments; the anticommutator
    damping terms and every middle-bath term stay undressed.  At chi = 0
    the result equals :func:`build_generator` bit-exactly.
    """
    return Generator(_counting_matrix(build_rates(spec), chi), spec, chi)


def _counting_matrix(rates: RateSet, chi: CountingFields) -> np.ndarray:
    """Matrix of :func:`build_counting_generator` from built rates, in the
    shape of :func:`_fill_block`."""
    return _fill_block(rates, _dressed_rates(rates, chi, BATHS))


def generator_chi_derivative(
    spec: SystemSpec,
    chi0: CountingFields,
    bath: str,
    order: int = 1,
) -> np.ndarray:
    """Analytic derivative d^n L / d(i chi_u)^n evaluated at ``chi0``.

    Only the sandwich entries of bath ``u`` depend on ``chi_u``, so the
    derivative is those entries with the factors of :func:`_dressed_rates`
    at order ``n``, and zero elsewhere.  A bath with all couplings zero
    yields the zero matrix.
    """
    _check_order("derivative", order, 4)
    if bath not in BATHS:
        raise UsageError(f"bath must be 'L' or 'R', got {bath!r}")
    return _chi_derivative(build_rates(spec), chi0, bath, order)


def _check_order(what: str, order, top: int) -> None:
    """Raise :class:`UsageError` unless ``order`` is an integer (a Python or
    numpy one, not a ``bool``) in ``1..top``."""
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise UsageError(f"{what} order must be an integer, got {order!r}")
    if not 1 <= order <= top:
        span = "1 or 2" if top == 2 else f"in 1..{top}"
        raise UsageError(f"{what} order must be {span}, got {order}")


def _chi_derivative(rates: RateSet, chi0: CountingFields, bath: str, order: int) -> np.ndarray:
    """:func:`generator_chi_derivative` from built rates, arguments
    unchecked, in the shape of :func:`_fill_block`."""
    h = np.zeros(rates.shape + (5, 5), dtype=complex)
    _fill_sandwich(h, *_dressed_rates(rates, chi0, (bath,), order))
    return h


# ---------------------------------------------------------------------------
# Independent construction: superoperator applied to basis elements.

def _transition_operators():
    phi_plus = [np.zeros((3, 3), dtype=complex) for _ in range(2)]
    for i in range(2):
        phi_plus[i][i, 2] = 1.0  # |e_i><g|
    phi_minus = [op.conj().T for op in phi_plus]
    psi_plus = np.zeros((3, 3), dtype=complex)
    psi_plus[0, 1] = 1.0  # |e_1><e_2|
    psi_minus = psi_plus.conj().T
    return phi_plus, phi_minus, psi_plus, psi_minus


def _master_rhs(spec: SystemSpec, rates: RateSet, rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the bare master equation applied to a 3x3 matrix."""
    phi_p, phi_m, psi_p, psi_m = _transition_operators()
    hs = np.diag([spec.eps1, spec.eps2, 0.0]).astype(complex)
    out = -1j * (hs @ rho - rho @ hs)
    for i in range(2):
        for j in range(2):
            for sign, ops in ((+1, (phi_p, phi_m)), (-1, (phi_m, phi_p))):
                fwd, bwd = ops
                rate = (rates.gamma_plus if sign > 0 else rates.gamma_minus)(
                    i + 1, j + 1, j + 1
                )
                a, b = fwd[j], bwd[i]
                c, d = fwd[i], bwd[j]
                out += 0.5 * rate * ((a @ rho @ b - b @ a @ rho)
                                     + (c @ rho @ d - rho @ d @ c))
    for rate, fwd, bwd in ((rates.gain_M, psi_p, psi_m), (rates.loss_M, psi_m, psi_p)):
        if rate != 0.0:
            out += 0.5 * rate * ((fwd @ rho @ bwd - bwd @ fwd @ rho)
                                 + (fwd @ rho @ bwd - rho @ bwd @ fwd))
    return out


def build_superoperator_full(spec: SystemSpec) -> np.ndarray:
    """9x9 superoperator over all density-matrix components.

    Basis order: the five closed-block components first, then the four
    ground-excited coherences (1g, g1, 2g, g2).
    """
    rates = build_rates(spec)
    full = np.zeros((9, 9), dtype=complex)
    for col, (m, n) in enumerate(_BASIS_PAIRS):
        basis = np.zeros((3, 3), dtype=complex)
        basis[m, n] = 1.0
        image = _master_rhs(spec, rates, basis)
        for row, (p, q) in enumerate(_BASIS_PAIRS):
            full[row, col] = image[p, q]
    return full


def project_block(full: np.ndarray) -> np.ndarray:
    """Restrict the 9x9 superoperator to the closed five-component block."""
    return full[:5, :5].copy()


def verify_block_decoupling(spec: SystemSpec) -> float:
    """Largest coupling between the closed block and the remaining coherences.

    Builds the full 9x9 superoperator and returns the maximum magnitude
    over both off-diagonal blocks; structural decoupling means a value at
    machine-zero level.
    """
    full = build_superoperator_full(spec)
    upper = np.abs(full[:5, 5:]).max()
    lower = np.abs(full[5:, :5]).max()
    return float(max(upper, lower))


def hermitian_residual(v: np.ndarray) -> float:
    """Deviation of a state vector from Hermitian symmetry.

    Checks that the populations are real and that the two coherence
    components are complex conjugates.
    """
    pop_imag = max(abs(v[0].imag), abs(v[1].imag), abs(v[2].imag))
    return float(max(pop_imag, abs(v[4] - np.conj(v[3]))))
