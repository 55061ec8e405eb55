import numpy as np
import pytest

from vflux.errors import UsageError
from vflux.liouvillian import (
    TRACE_VECTOR,
    _chi_derivative,
    _counting_matrix,
    _fill_block,
    build_counting_generator,
    build_generator,
    build_superoperator_full,
    generator_chi_derivative,
    hermitian_residual,
    project_block,
    verify_block_decoupling,
)
from vflux.model import (
    ENERGY,
    PARTICLE,
    CountingFields,
    RateSet,
    SystemSpec,
    bose_occupation,
    build_rates,
    spec_arrays,
)
from vflux.steady import evolve, steady_state

from conftest import (
    BOUND,
    FIGURE_SPECS,
    cycle_spec,
    seeded_conserving_specs,
    seeded_leak_specs,
    two_bath_spec,
)


def test_trace_preservation():
    for spec in FIGURE_SPECS + seeded_conserving_specs(30):
        m = build_generator(spec).matrix
        assert np.abs(TRACE_VECTOR @ m).max() <= 1e-14


def test_stacks_are_points_first_and_c_contiguous():
    # a stack is born as (N, 5, 5) in C order, point n carrying the bits of
    # its own (5, 5) fill; no copy or axis move is needed downstream
    specs = FIGURE_SPECS + seeded_leak_specs(3)
    chi = CountingFields(0.1, -0.2, PARTICLE)

    def fills(rates):
        return (_fill_block(rates), _counting_matrix(rates, chi),
                _chi_derivative(rates, chi, "R", 2))

    stacks = fills(RateSet(spec_arrays(specs)))
    for stack in stacks:
        assert stack.shape == (len(specs), 5, 5) and stack.flags.c_contiguous
    for n, spec in enumerate(specs):
        for stack, one in zip(stacks, fills(build_rates(spec))):
            assert one.shape == (5, 5)
            assert stack[n].tobytes() == one.tobytes()


def test_population_coherence_decoupling_without_interference():
    m = build_generator(cycle_spec(0.7)).matrix
    assert np.abs(m[:3, 3:]).max() == 0.0
    assert np.abs(m[3:, :3]).max() == 0.0


def test_block_decoupling_residual():
    for spec in FIGURE_SPECS:
        assert verify_block_decoupling(spec) <= 1e-14
    for spec in seeded_conserving_specs(100):
        assert verify_block_decoupling(spec) <= 1e-14


def test_projected_superoperator_matches_direct_build():
    # dual-construction check: entry-wise fill vs superoperator application
    # the leak specs are detuned with interference, where every coherence
    # entry carries its own energy argument
    for spec in FIGURE_SPECS + seeded_conserving_specs(30) + seeded_leak_specs(20):
        full = build_superoperator_full(spec)
        direct = build_generator(spec).matrix
        assert np.abs(project_block(full) - direct).max() <= 1e-15


def test_counting_generator_identity_at_zero():
    # the dressing itself runs at chi = 0 and must return the bare bits,
    # zero signs included
    for spec in (two_bath_spec(0.5 * BOUND, BOUND), two_bath_spec(0.7 * BOUND, 0.3 * BOUND),
                 cycle_spec(0.3, gamma=0.004)):
        bare = build_generator(spec).matrix
        for kind in (ENERGY, PARTICLE):
            dressed = build_counting_generator(spec, CountingFields.zero(kind)).matrix
            assert np.array_equal(dressed.view(np.uint64), bare.view(np.uint64))


def test_counting_generator_decoupled_bath():
    # nothing to count on the right bath: dressing chiR changes nothing
    spec = SystemSpec(1.1, 0.9, 2.0, 1.0, 0.5, 0.01, 0.01, 0.0, 0.0, 0.0, 0.0, 0.01)
    bare = build_generator(spec).matrix
    dressed = build_counting_generator(spec, CountingFields(0.0, 0.3, ENERGY)).matrix
    assert np.abs(dressed - bare).max() <= 1e-16


def test_counting_generator_dressed_entries_only():
    spec = two_bath_spec(0.5 * BOUND, BOUND)
    chi = CountingFields(0.0, 0.2, ENERGY)
    bare = build_generator(spec).matrix
    dressed = build_counting_generator(spec, chi).matrix
    changed = np.abs(dressed - bare) > 0
    gain_cells = {(0, 2), (1, 2), (3, 2), (4, 2)}
    loss_cells = {(2, 0), (2, 1), (2, 3), (2, 4)}
    assert set(zip(*np.nonzero(changed))) == gain_cells | loss_cells


@pytest.mark.parametrize("kind", [ENERGY, PARTICLE])
@pytest.mark.parametrize("bath", ["L", "R"])
@pytest.mark.parametrize("order", [1, 2])
def test_chi_derivative_matches_finite_difference(kind, bath, order):
    spec = two_bath_spec(0.7 * BOUND, 0.4 * BOUND)
    # second differences divide by h^2, so they need a larger step to stay
    # clear of roundoff
    h = 1e-5 if order == 1 else 1e-3

    def gen_at(chi):
        return build_counting_generator(
            spec,
            CountingFields(chiL=chi if bath == "L" else 0.0,
                           chiR=chi if bath == "R" else 0.0,
                           kind=kind),
        ).matrix

    if order == 1:
        fd = -1j * (gen_at(h) - gen_at(-h)) / (2 * h)
    else:
        fd = -(gen_at(h) - 2 * gen_at(0.0) + gen_at(-h)) / h**2
    exact = generator_chi_derivative(spec, CountingFields.zero(kind), bath, order)
    mask = np.abs(exact) > 0
    assert np.abs(fd[mask] - exact[mask]).max() / np.abs(exact[mask]).max() <= 1e-6
    assert np.abs(fd[~mask]).max() <= 1e-8


@pytest.mark.parametrize("kind", [ENERGY, PARTICLE])
@pytest.mark.parametrize("bath", ["L", "R"])
@pytest.mark.parametrize("spec", [
    two_bath_spec(0.6 * BOUND, 0.9 * BOUND),
    # detuned, so the two energy arguments differ
    SystemSpec(1.3, 0.8, 2.0, 1.0, 0.7, 0.01, 0.02, 0.012, 0.015, 0.01, 0.009, 0.0),
], ids=["resonant", "detuned"])
def test_chi_derivative_first_order_entries(spec, kind, bath):
    # d/d(i chi_u) of each sandwich entry: gain rates times -w, loss rates
    # times +w, with w the counting weight of the energy argument
    h1 = generator_chi_derivative(spec, CountingFields.zero(kind), bath, 1)
    temp = spec.tempL if bath == "L" else spec.tempR
    g11, g22, g12 = (getattr(spec, f"g{bath}{ij}") for ij in ("11", "22", "12"))
    eps = (spec.eps1, spec.eps2)
    w = eps if kind == ENERGY else (1.0, 1.0)
    n = [bose_occupation(e, temp) for e in eps]
    expected = {
        (0, 2): -w[0] * g11 * n[0],
        (1, 2): -w[1] * g22 * n[1],
        (2, 0): +w[0] * g11 * (1.0 + n[0]),
        (2, 1): +w[1] * g22 * (1.0 + n[1]),
        (3, 2): 0.5 * (-w[0] * g12 * n[0] - w[1] * g12 * n[1]),
        (2, 3): 0.5 * (w[0] * g12 * (1.0 + n[0]) + w[1] * g12 * (1.0 + n[1])),
    }
    expected[4, 2] = expected[3, 2]
    expected[2, 4] = expected[2, 3]
    for (row, col), value in expected.items():
        assert abs(h1[row, col] - value) <= 1e-14 * abs(value)
    mask = np.ones((5, 5), dtype=bool)
    mask[tuple(zip(*expected))] = False
    assert np.all(h1[mask] == 0.0)


def test_chi_derivative_even_order_sign():
    spec = two_bath_spec(0.5 * BOUND, 0.5 * BOUND)
    h2 = generator_chi_derivative(spec, CountingFields.zero(ENERGY), "R", 2)
    # even order erases the gain/loss sign split: both columns carry +w^2
    assert h2[0, 2].real > 0 and h2[2, 0].real > 0


def test_chi_derivative_particle_gg_entry():
    spec = cycle_spec(1.0, gamma=0.01)  # gR11 = 0.01 here
    h1 = generator_chi_derivative(spec, CountingFields.zero(PARTICLE), "R", 1)
    expected = spec.gR11 * (1.0 + bose_occupation(spec.eps1, spec.tempR))
    assert h1[2, 0] == pytest.approx(expected, rel=1e-14)
    # in the pure cycle the right bath does not touch the upper level
    pure = cycle_spec(1.0)
    assert generator_chi_derivative(pure, CountingFields.zero(PARTICLE), "R", 1)[2, 0] == 0.0


def test_chi_derivative_zero_coupled_bath():
    spec = SystemSpec(1.1, 0.9, 2.0, 1.0, 0.5, 0.01, 0.01, 0.0, 0.0, 0.0, 0.0, 0.01)
    h1 = generator_chi_derivative(spec, CountingFields.zero(ENERGY), "R", 1)
    assert np.all(h1 == 0.0)


def test_chi_derivative_order_guard():
    with pytest.raises(UsageError):
        generator_chi_derivative(two_bath_spec(), CountingFields.zero(ENERGY), "R", 5)


@pytest.mark.parametrize("order", [1.5, 2.0, np.float64(1.0), True], ids=repr)
def test_chi_derivative_rejects_a_non_integer_order(order):
    with pytest.raises(UsageError, match="derivative order must be an integer"):
        generator_chi_derivative(two_bath_spec(), CountingFields.zero(ENERGY), "R", order)


def test_chi_derivative_at_nonzero_base_point():
    spec = two_bath_spec(0.7 * BOUND, 0.4 * BOUND)
    chi0 = 0.1
    h = 1e-5

    def gen_at(chi):
        return build_counting_generator(spec, CountingFields(0.0, chi, ENERGY)).matrix

    fd = -1j * (gen_at(chi0 + h) - gen_at(chi0 - h)) / (2 * h)
    exact = generator_chi_derivative(spec, CountingFields(0.0, chi0, ENERGY), "R", 1)
    mask = np.abs(exact) > 0
    assert np.abs(fd[mask] - exact[mask]).max() / np.abs(exact[mask]).max() <= 1e-6


def test_spectrum_structure_at_zero_field():
    for spec in FIGURE_SPECS:
        eigvals = np.linalg.eigvals(build_generator(spec).matrix)
        k = np.argmin(np.abs(eigvals))
        assert abs(eigvals[k]) <= 1e-12
        rest = np.delete(eigvals, k)
        assert np.all(rest.real < 0.0)


def test_hermiticity_propagation():
    spec = two_bath_spec(0.8 * BOUND, 0.3 * BOUND)
    gen = build_generator(spec)
    init = np.array([0.5, 0.2, 0.3, 0.1 + 0.05j, 0.1 - 0.05j], dtype=complex)
    v = evolve(gen, init, t_end=1e4, tol=1e-30)
    assert hermitian_residual(v) <= 1e-10
    assert abs(v[:3].sum() - 1.0) <= 1e-9  # trace preserved by the integrator


def test_cgf_reality_symmetry():
    from vflux.fcs import dominant_eigenvalue

    spec = cycle_spec(1.0)
    for chi_r in (0.05, 0.1):
        plus = dominant_eigenvalue(spec, CountingFields(0.0, chi_r, ENERGY))
        minus = dominant_eigenvalue(spec, CountingFields(0.0, -chi_r, ENERGY))
        assert abs(np.conj(plus) - minus) <= 1e-12


def test_generator_text_dump():
    gen = build_generator(two_bath_spec())
    lines = gen.to_text().strip().split("\n")
    assert len(lines) == 5
    first = lines[0].split(" ")
    assert len(first) == 5
    re, im = first[0].split(",")
    assert float(re) == gen.matrix[0, 0].real and float(im) == gen.matrix[0, 0].imag


def test_steady_state_rejects_dressed_generator():
    spec = two_bath_spec()
    gen = build_counting_generator(spec, CountingFields(0.0, 0.1, ENERGY))
    with pytest.raises(UsageError):
        steady_state(gen)
