"""Generators of the reduced density-matrix dynamics.

The density matrix closes on ``[rho11, rho22, rhogg, rho12, rho21]`` (the
ground-excited coherences decouple: :func:`verify_block_decoupling`).  The
5x5 generator on that block, bare or dressed with counting fields, and its
counting-field derivatives are filled entry-wise from the rates; the test
suite holds that fill entry by entry to the full superoperator applied to
all nine density-matrix basis elements, an independent construction.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import UsageError
from .model import BATHS, CountingFields, RateSet, SystemSpec, _memo, build_rates

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
    """One point's 5x5 generator from :func:`_entries`, made an array by one
    call; ``sandwich``, the ``(gain, loss)`` rate functions of
    :func:`_dressed_rates`, fills the gain-type entries (:func:`_fill_sandwich`),
    else the bare rates do: the bare generator."""
    re, delta = _entries(rates)
    m = [*re[0], re[0][3], *re[1], re[1][3], *re[2], re[2][3],
         *re[3], 0.0, *re[3][:3], 0.0, re[3][3]]
    m[18], m[24] = complex(m[18], -delta), complex(m[24], delta)
    if sandwich:
        _fill_sandwich(m, *sandwich)
    return np.array(m, dtype=complex).reshape(5, 5)


_SANDWICH = (2, 7, 17, 22, 10, 11, 13, 14)  # row-major, in _fill_sandwich's order


def _fill_sandwich(m, gain, loss) -> None:
    """Write the gain-type ("sandwich") entries, the only ones with counting
    phases, of one point's 25 row-major entries ``m``; ``gain(i, j, k)`` and
    ``loss(i, j, k)`` are the rates of levels ``(i, j)`` at ``eps_k`` (1-based)."""
    g11, g22, g12, l11, l22, l12 = _sandwich_values(gain, loss)
    for k, value in zip(_SANDWICH, (g11, g22, g12, g12, l11, l22, l12, l12)):
        m[k] = value


def _sandwich_values(gain, loss) -> tuple:
    """The distinct sandwich entries (gain11, gain22, gain12, loss11, loss22, loss12)."""
    return (gain(1, 1, 1), gain(2, 2, 2), 0.5 * (gain(1, 2, 1) + gain(1, 2, 2)),
            loss(1, 1, 1), loss(2, 2, 2), 0.5 * (loss(1, 2, 1) + loss(1, 2, 2)))


def _dressed_rates(rates: RateSet, chi: CountingFields, baths, orders=(0,)):
    """Yield one ``(gain, loss)`` pair of rate functions per order ``n`` of
    ``orders``, summed over ``baths``, each bath ``u`` dressed by its
    counting phase and differentiated ``n`` times in ``i chi_u``: gain times
    ``(-w)^n exp(-i w chi_u)``, loss times ``(+w)^n exp(+i w chi_u)``, ``w``
    the counting weight (:meth:`RateSet.weights`); ``chi`` may be complex.
    Python numbers for one point (``cmath.exp`` has the bits of ``np.exp``
    here), arrays for a stack (``chi_u`` may be an array that broadcasts
    with ``rates.shape``).
    """
    exp = np.exp if rates.shape else cmath.exp
    w = rates.weights(chi.kind)[:2]
    phased = []
    for u in baths:
        chi_u = chi.chiL if u == "L" else chi.chiR
        gain, loss = (rates.gainL, rates.lossL) if u == "L" else (rates.gainR, rates.lossR)
        phases = [[exp(sign * x * chi_u) for x in w] for sign in (-1j, +1j)]
        phased.append((gain, phases[0], loss, phases[1]))

    def summed(terms):
        def rate(i, j, k):
            total = None
            for table, factor in terms:
                term = table[i - 1][j - 1][k - 1] * factor[k - 1]
                total = term if total is None else total + term
            return total
        return rate

    for n in orders:
        # (-w)^n and (+w)^n with the bits of numpy's array power: it squares
        # by one product, and Python's pow differs from it above that
        minus, plus = ((np.array(v) ** n).tolist() if n > 2 else
                       [1.0 if n == 0 else x if n == 1 else x * x for x in v]
                       for v in ([-x for x in w], w))
        yield (summed([(g, list(map(mul, minus, f))) for g, f, _, _ in phased]),
               summed([(l, list(map(mul, plus, f))) for _, _, l, f in phased]))


def build_generator(spec: SystemSpec) -> Generator:
    """Bare generator of the five-component block dynamics: a copy of the
    matrix of the memo record of ``spec`` (:func:`vflux.model._memo`)."""
    return Generator(_bare(_memo(spec)).copy(), spec, None)


def _bare(record: dict) -> np.ndarray:
    """The bare generator matrix of a memo record, filled on first use."""
    if "matrix" not in record:
        record["matrix"] = _fill_block(record["rates"])
    return record["matrix"]


def build_counting_generator(spec: SystemSpec, chi: CountingFields) -> Generator:
    """Counting-field-dressed generator.

    Only the gain ("sandwich") terms carry dressed rates, in the
    symmetrized combination over both energy arguments; the anticommutator
    damping terms and every middle-bath term stay undressed.  At chi = 0
    the result equals :func:`build_generator` bit-exactly.
    """
    return Generator(_counting_matrix(build_rates(spec), chi), spec, chi)


def _counting_matrix(rates: RateSet, chi: CountingFields) -> np.ndarray:
    """Matrix of :func:`build_counting_generator` from one point's built rates."""
    return _fill_block(rates, next(_dressed_rates(rates, chi, BATHS)))


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
    h = [0.0] * 25
    _fill_sandwich(h, *next(_dressed_rates(build_rates(spec), chi0, (bath,), (order,))))
    return np.array(h, dtype=complex).reshape(5, 5)


def _check_order(what: str, order, top: int) -> None:
    """Raise :class:`UsageError` unless ``order`` is an integer (a Python or
    numpy one, not a ``bool``) in ``1..top``."""
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise UsageError(f"{what} order must be an integer, got {order!r}")
    if not 1 <= order <= top:
        raise UsageError(f"{what} order must be in 1..{top}, got {order}")


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
