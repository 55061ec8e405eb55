import csv
import io
import math
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from vflux.config import build_config, config_for_target
from vflux.errors import DegenerateSteadyStateError, UsageError, VfluxError
from vflux.golden import load_cases, stored_csv
from vflux.liouvillian import TRACE_VECTOR, Generator, build_counting_generator, build_generator
from vflux.model import ENERGY, SPEC_FIELDS, CountingFields, SystemSpec
from vflux.runner import _fig3, _rows, compute_rows
from vflux.steady import (
    ISOLATION_TOL,
    _kernel,
    coherence_vanishing_residual,
    evolve,
    steady_state,
    steady_state_resonant_two_bath,
    steady_state_three_terminal,
    steady_state_time_integration,
)

from conftest import (
    BOUND,
    DETUNED_SPEC,
    MAX_BIAS_SPEC,
    NOT_FINITE,
    assert_grid_states_match,
    blas_residual,
    cycle_spec,
    seeded_conserving_specs,
    seeded_leak_specs,
    two_bath_spec,
)

# frozen with 50-digit arithmetic: 1/(1 + 2 e^{-1})
GIBBS_GG = 0.5761168847658291


def test_gibbs_state_at_equilibrium():
    spec = two_bath_spec(tempL=1.0, tempR=1.0)
    ss = steady_state(build_generator(spec))
    assert ss.rhogg == pytest.approx(GIBBS_GG, abs=1e-12)
    assert ss.rho11 == pytest.approx((1.0 - GIBBS_GG) / 2.0, abs=1e-12)
    assert abs(ss.rho12) <= 1e-14
    assert ss.residual <= 1e-10
    assert not ss.positivity_warning


def test_equal_cross_couplings_kill_coherence():
    for factor in (0.25, 0.5, 0.9):
        spec = two_bath_spec(factor * BOUND, factor * BOUND)
        ss = steady_state(build_generator(spec))
        assert abs(ss.rho12) <= 1e-10


def test_numeric_matches_resonant_closed_form():
    ss_num = steady_state(build_generator(MAX_BIAS_SPEC))
    ss_ana = steady_state_resonant_two_bath(MAX_BIAS_SPEC)
    assert np.abs(ss_num.vector - ss_ana.vector).max() <= 1e-10
    assert abs(ss_num.rho12) > 0.01  # the biased configuration sustains coherence


def test_resonant_closed_form_no_interference_reduction():
    spec = two_bath_spec()
    ss = steady_state_resonant_two_bath(spec)
    # no-interference populations: gain/loss products over the norm
    from vflux.model import build_rates

    r = build_rates(spec)
    gp11, gm11 = r.gamma_plus(1, 1, 1), r.gamma_minus(1, 1, 1)
    gp22, gm22 = r.gamma_plus(2, 2, 2), r.gamma_minus(2, 2, 2)
    norm = gm11 * (gm22 + gp22) + gp11 * gm22
    assert ss.rho11 == pytest.approx(gp11 * gm22 / norm, rel=1e-12)
    assert ss.rho22 == pytest.approx(gm11 * gp22 / norm, rel=1e-12)
    assert ss.rhogg == pytest.approx(gm11 * gm22 / norm, rel=1e-12)
    assert ss.rho12 == 0.0


def test_resonant_closed_form_equilibrium_coherence_vanishes():
    spec = two_bath_spec(BOUND, 0.4 * BOUND, tempL=1.3, tempR=1.3)
    ss = steady_state_resonant_two_bath(spec)
    assert abs(ss.rho12) <= 1e-14


def test_resonant_closed_form_preconditions():
    with pytest.raises(UsageError):
        steady_state_resonant_two_bath(cycle_spec())
    detuned = SystemSpec(1.2, 1.0, 2, 1, 1, 0.01, 0.01, 0, 0.01, 0.01, 0, 0)
    with pytest.raises(UsageError):
        steady_state_resonant_two_bath(detuned)


def test_three_terminal_matches_numeric():
    for tm in (0.3, 0.7, 1.5):
        spec = cycle_spec(tm)
        ss_num = steady_state(build_generator(spec))
        ss_ana = steady_state_three_terminal(spec)
        assert np.abs(ss_num.vector - ss_ana.vector).max() <= 1e-10


def test_three_terminal_reduces_to_two_bath_form():
    spec = SystemSpec(1.2, 0.8, 2.0, 1.0, 0.7, 0.012, 0.007, 0.0, 0.009, 0.016, 0.0, 0.0)
    ss = steady_state_three_terminal(spec)
    ss_num = steady_state(build_generator(spec))
    assert np.abs(ss.vector - ss_num.vector).max() <= 1e-12


def test_three_terminal_equilibrium_is_gibbs_with_two_gaps():
    spec = SystemSpec(1.4, 0.6, 1.1, 1.1, 1.1, 0.01, 0.01, 0.0, 0.01, 0.01, 0.0, 0.008)
    ss = steady_state_three_terminal(spec)
    assert ss.rho11 / ss.rhogg == pytest.approx(math.exp(-1.4 / 1.1), rel=1e-10)
    assert ss.rho22 / ss.rhogg == pytest.approx(math.exp(-0.6 / 1.1), rel=1e-10)


def test_three_terminal_precondition():
    with pytest.raises(UsageError):
        steady_state_three_terminal(MAX_BIAS_SPEC)


def test_degenerate_detection_for_decoupled_system():
    # every coupling zero: the population block is 0, so s = 0; at
    # resonance L = 0 and the ratio is 0/0, detuned only the coherences rotate
    for eps1 in (1.0, 1.5):
        spec = SystemSpec(eps1, 1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0, 0, 0, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSteadyStateError, match="not isolated"):
                steady_state(build_generator(spec))


def _degenerate_specs():
    """All couplings zero, at resonance (L = 0) and detuned (only the
    coherences rotate), and the exact double dark corner."""
    return [SystemSpec(eps1, 1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0, 0, 0, 0)
            for eps1 in (1.0, 1.5)] + [two_bath_spec(BOUND, BOUND)]


def test_degenerate_inputs_give_one_error_text_on_both_shapes():
    # the closed-form kernel divides by s, q and tot nowhere unguarded: the
    # scalar raises the isolation error, not ZeroDivisionError, and every
    # position of a grid's stack gives the same text without a numpy warning
    valid = [MAX_BIAS_SPEC, cycle_spec(0.5)]
    for spec in _degenerate_specs():
        with pytest.raises(DegenerateSteadyStateError) as info:
            steady_state(Generator(build_generator(spec).matrix, MAX_BIAS_SPEC))
        assert "not isolated" in str(info.value)
        for pos in range(3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = assert_grid_states_match(valid[:pos] + [spec] + valid[pos:])
            assert [n for n, row in enumerate(rows) if not isinstance(row, dict)] == [pos]
            assert str(rows[pos]) == str(info.value)


def test_scalar_kernel_calls_no_linear_algebra(monkeypatch):
    calls = []
    for name in dir(np.linalg):
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type) and not name.startswith("_"):
            def counted(*args, _name=name, _original=fn, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
    gen = build_generator(MAX_BIAS_SPEC)
    steady_state(gen)
    assert calls == []


def test_degenerate_detection_at_double_dark_corner():
    spec = two_bath_spec(BOUND, BOUND)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSteadyStateError, match="not isolated"):
            steady_state(build_generator(spec))


def _kernel_or_none(matrix, spec):
    try:
        return steady_state(Generator(matrix, spec)).vector
    except DegenerateSteadyStateError:
        return None


def test_isolation_test_ignores_scale():
    # the deflation scale s (the largest population-block |L_ij|) makes the
    # verdict and the state independent of the units of L.  Within 1e-3 of the dark corner the
    # kernel is conditioned about 1e3 times worse, and so is its bound.
    near_corner = two_bath_spec((1.0 - 1e-3) * BOUND, (1.0 - 1e-3) * BOUND)
    corner = two_bath_spec(BOUND, BOUND)
    cases = [(spec, 1e-14) for spec in seeded_conserving_specs(30) + seeded_leak_specs(10)]
    for spec, tol in cases + [(near_corner, 1e-11), (corner, None)]:
        matrix = build_generator(spec).matrix
        base = _kernel_or_none(matrix, spec)
        assert (base is None) == (tol is None)
        for c in (1e-3, 1e3):
            scaled = _kernel_or_none(c * matrix, spec)
            assert (scaled is None) == (base is None)
            if base is not None:
                assert np.abs(scaled - base).max() <= tol


def _eig_test_accepts(matrix):
    """The eigenvalue isolation test the deflated solve replaced: the
    second-smallest |Re| eigenvalue above 1e3 times the smallest and above
    1e-12 times the spectral radius."""
    eigvals = np.linalg.eigvals(matrix)
    smallest, second = np.sort(np.abs(eigvals.real))[:2]
    return second > max(1e3 * smallest, 1e-12 * np.abs(eigvals).max())


def _lu_route(matrix):
    """The kernel route the closed form replaced: one solve against the
    deflated generator ``A = L - s|e><I|`` and the Hadamard ratio of ``A``
    from ``det``.  Returns the trace-normalized state (None when the ratio
    is at most the threshold) and the ratio."""
    s = np.abs(matrix[:3, :3]).max()
    a = matrix - s * np.outer(TRACE_VECTOR / 3.0, TRACE_VECTOR)
    ratio = abs(np.linalg.det(a)) / max(np.linalg.norm(a, axis=-1).prod(), np.finfo(float).tiny)
    if not ratio > ISOLATION_TOL:
        return None, ratio
    vector = np.linalg.solve(a, -s * TRACE_VECTOR / 3.0)
    return vector / vector[:3].sum(), ratio


def test_closed_form_kernel_matches_the_lu_route():
    # same verdict, states within a few ulps over the ratio (the kernel's
    # condition), and the ratio of |det A| = s q |tot| within the rounding
    # of the det-based one
    weak = [SystemSpec(1.5, 0.5, 2.0, 1.0, 0.5, 1e-2 * a, 1e-2 * b, 0, 1e-2 * a, 1e-2 * b, 0, 0)
            for k in (1e-3, 1e-6, 1e-9, 1e-10) for a, b in ((1.0, k), (k, 1.0))]
    near_corner = [two_bath_spec((1.0 - f) * BOUND, (1.0 - f) * BOUND, eps=eps)
                   for f in (1e-3, 1e-5, 1e-7) for eps in (0.7, 1.0)]
    specs = seeded_conserving_specs(40) + seeded_leak_specs(20) + weak + near_corner
    for spec in specs:
        matrix = build_generator(spec).matrix
        oracle, oracle_ratio = _lu_route(matrix)
        s = float(np.abs(matrix[:3, :3]).max())
        _, _, ratio, ok = _kernel(matrix.real.tolist(), -matrix.imag.item(3, 3), s, math.sqrt)
        assert ok == (oracle is not None)
        assert abs(ratio - oracle_ratio) <= 1e-3 * oracle_ratio
        if ok:
            assert np.abs(steady_state(Generator(matrix, spec)).vector - oracle).max() <= (
                4e-16 / ratio)
    for spec in _degenerate_specs():
        assert _lu_route(build_generator(spec).matrix)[0] is None


def _assert_kernel_matches_closed_form(spec, tol):
    matrix = build_generator(spec).matrix
    assert _eig_test_accepts(matrix)
    ss = steady_state(build_generator(spec))
    assert np.abs(ss.vector - steady_state_three_terminal(spec).vector).max() <= tol
    assert_grid_states_match([spec])


def test_isolation_test_ignores_the_level_splitting():
    # the coherence rows carry the splitting eps1 - eps2, the population
    # rows only the couplings; tiny couplings under a large splitting are
    # still a well-conditioned kernel
    for g in (1e-2, 1e-6, 1e-10):
        for delta in (0.0, 1e-3, 1.7, 100.0):
            _assert_kernel_matches_closed_form(
                SystemSpec(0.3 + delta, 0.3, 1.0, 1.0, 1.0, g, g, 0, g, g, 0, 0), 1e-14)
            _assert_kernel_matches_closed_form(
                SystemSpec(0.3 + delta, 0.3, 2.0, 1.0, 0.5, g, 2 * g, 0, 3 * g, g, 0,
                           g if delta else 0.0), 1e-14)


def test_weak_single_channel_keeps_its_kernel():
    # one transition k times weaker than the other: the kernel is
    # conditioned like k, so it keeps about 15 + log10(k) digits
    for k in (1e-6, 1e-9, 1e-10):
        weak22 = SystemSpec(1.5, 0.5, 2.0, 1.0, 0.5, 1e-2, 1e-2 * k, 0, 1e-2, 1e-2 * k, 0, 0)
        weak11 = SystemSpec(1.5, 0.5, 2.0, 1.0, 0.5, 1e-2 * k, 1e-2, 0, 1e-2 * k, 1e-2, 0, 0)
        for spec in (weak22, weak11):
            _assert_kernel_matches_closed_form(spec, 1e-15 / k)


def test_degenerate_kernels_in_a_stack_leave_the_rest_solved():
    # a stacked solve fails as a whole on one exactly singular matrix, so
    # the degenerate points must be set aside first, without a warning
    zero = SystemSpec(1.0, 1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0, 0, 0, 0)
    dark = two_bath_spec(BOUND, BOUND)
    # the last fig3 grid row ends on the exactly singular corner
    fields, cells, evaluate = _fig3(config_for_target("fig3"))
    last = {name: values[-51:] for name, values in fields.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = assert_grid_states_match([zero, MAX_BIAS_SPEC, dark])
        assert [n for n, row in enumerate(rows) if not isinstance(row, dict)] == [0, 2]
        table = _rows(last, {"t0": cells["t0"][-51:]}, evaluate, columns=("t0", "rj_max"))
    assert [n for n, error in enumerate(table["error"]) if error] == [50]
    assert "kernel not isolated" in table["error"][-1] and table["rj_max"][-1] is None


@pytest.mark.parametrize("solve", [steady_state_resonant_two_bath, steady_state_three_terminal,
                                   coherence_vanishing_residual])
def test_closed_forms_reject_a_spec_whose_rates_overflow(solve):
    # valid, but the rates near 1e308 overflow the closed forms' sums to
    # inf and nan, where the kernel finds no isolated kernel
    with pytest.raises(DegenerateSteadyStateError, match="Hadamard ratio nan"):
        steady_state(build_generator(NOT_FINITE))
    with pytest.raises(DegenerateSteadyStateError, match="not finite"):
        solve(NOT_FINITE)


def test_dressed_generators_are_refused_by_both_numeric_routes(monkeypatch):
    # the kernel and the residual read the bare structure (real entries,
    # -+ i delta on the coherence diagonal); zero fields give the bare bits
    def integrate(*args, **kwargs):
        raise AssertionError("integrated a dressed generator")

    monkeypatch.setattr("vflux.steady.solve_ivp", integrate)
    dressed = build_counting_generator(DETUNED_SPEC, CountingFields(0.0, 0.3, ENERGY))
    for solve in (steady_state, steady_state_time_integration):
        with pytest.raises(UsageError, match=f"^{solve.__name__} requires the undressed"):
            solve(dressed)
    zero = build_counting_generator(DETUNED_SPEC, CountingFields.zero(ENERGY))
    assert steady_state(zero).vector.tobytes() == steady_state(
        build_generator(DETUNED_SPEC)).vector.tobytes()


def golden_grid_specs() -> list:
    """The distinct specs of every row of every stored golden CSV."""
    specs = []
    for case in load_cases():
        for row in csv.DictReader(io.StringIO(stored_csv(case))):
            specs.append(SystemSpec(*(float(row[name]) for name in SPEC_FIELDS)))
    return list(dict.fromkeys(specs))


#: ``|residual - |L @ v|∞|`` over ``eps * max|L_ij|``: at most 0.332 over
#: the 5,696 kernels of both seeded corpora and of every distinct golden
#: grid point, and 0.310 over the 100 closed-form states of the corpora
RESIDUAL_ORACLE_BOUND = 0.5


def test_residual_matches_the_blas_product():
    # the fixed-order row sums against numpy's matmul, which sums in its
    # kernel's order; both are rounding noise of the same size
    corpora = seeded_conserving_specs() + seeded_leak_specs()
    states = []
    for spec in corpora + golden_grid_specs():
        try:
            states.append((spec, steady_state(build_generator(spec))))
        except VfluxError:
            continue
    for solve in (steady_state_resonant_two_bath, steady_state_three_terminal):
        for spec in corpora:
            try:
                states.append((spec, solve(spec)))
            except VfluxError:
                continue
    assert len(states) > 5_000
    for spec, ss in states:
        matrix = build_generator(spec).matrix
        scale = np.finfo(float).eps * np.abs(matrix).max()
        assert abs(ss.residual - blas_residual(matrix, ss.vector)) <= (
            RESIDUAL_ORACLE_BOUND * scale), spec


def test_time_integration_rejects_a_generator_that_is_not_finite(monkeypatch):
    def integrate(*args, **kwargs):
        raise AssertionError("integrated a generator that is not finite")

    monkeypatch.setattr("vflux.steady.solve_ivp", integrate)
    gen = build_generator(NOT_FINITE)
    assert not np.isfinite(gen.matrix).all()
    with pytest.raises(DegenerateSteadyStateError, match="generator is not finite"):
        steady_state_time_integration(gen)
    # the steady task: the kernel, a closed form and the integrator, each
    # one error row
    fields = dict(zip(SPEC_FIELDS, astuple(NOT_FINITE)))
    columns, table = compute_rows(build_config({"task": "steady", "system": fields}))
    assert table["method"] == [None] * 3
    assert [text.split(":")[0] for text in table["error"]] == ["DegenerateSteadyStateError"] * 3


def test_evolve_fixed_point():
    gen = build_generator(MAX_BIAS_SPEC)
    ss = steady_state(gen)
    out = evolve(gen, ss.vector, t_end=100.0, tol=1e-9)
    assert np.abs(out - ss.vector).max() <= 1e-9


def test_evolve_reaches_nullspace_steady_state():
    gen = build_generator(MAX_BIAS_SPEC)
    ss = steady_state(gen)
    ti = steady_state_time_integration(gen, t_end=1e6, tol=1e-12)
    assert np.abs(ti.vector - ss.vector).max() <= 1e-8
    assert ti.method == "time_integration"


def test_evolve_decoupled_system_frozen_populations():
    spec = SystemSpec(1.5, 1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0, 0, 0, 0)
    gen = build_generator(spec)
    init = np.array([0.3, 0.3, 0.4, 0.2 + 0.1j, 0.2 - 0.1j], dtype=complex)
    out = evolve(gen, init, t_end=10.0, tol=1e-30)
    assert np.abs(out[:3] - init[:3]).max() <= 1e-9
    # coherences only rotate: magnitude preserved
    assert abs(abs(out[3]) - abs(init[3])) <= 1e-9
    assert abs(out[3] - init[3]) > 1e-3


def test_oracle_three_way_agreement(conserving_corpus):
    for spec in conserving_corpus[:40]:
        gen = build_generator(spec)
        ss = steady_state(gen)
        if spec.eps1 == spec.eps2 and spec.gM == 0.0:
            ana = steady_state_resonant_two_bath(spec)
        else:
            ana = steady_state_three_terminal(spec)
        assert np.abs(ss.vector - ana.vector).max() <= 1e-8
        ti = steady_state_time_integration(gen)
        assert np.abs(ss.vector - ti.vector).max() <= 1e-8


def test_coherence_vanishing_residual_zero_cases():
    # equal cross couplings at resonance
    assert abs(coherence_vanishing_residual(two_bath_spec(0.5 * BOUND, 0.5 * BOUND))) <= 1e-16
    # equal temperatures, including a coupled middle bath
    eq = SystemSpec(1.3, 0.9, 1.2, 1.2, 1.2, 0.01, 0.02, 0.01, 0.015, 0.01, 0.008, 0.01)
    assert abs(coherence_vanishing_residual(eq)) <= 1e-16


def test_coherence_vanishing_residual_uncoupled_is_degenerate():
    # every coupling zero: the population minors sum to zero
    spec = SystemSpec(1.0, 1.0, 2.0, 1.0, 1.0, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(DegenerateSteadyStateError, match="zero trace"):
        coherence_vanishing_residual(spec)


def test_coherence_vanishing_residual_cosign():
    # residual and coherence carry opposite signs across the coupling grid
    grid = np.linspace(0.0, BOUND, 20)
    checked = 0
    for gl in grid:
        for gr in grid:
            spec = two_bath_spec(gl, gr)
            residual = coherence_vanishing_residual(spec)
            try:
                rho12 = steady_state(build_generator(spec)).rho12.real
            except DegenerateSteadyStateError:
                continue
            if abs(residual) > 1e-12 and abs(rho12) > 1e-12:
                assert np.sign(rho12) == -np.sign(residual)
                checked += 1
    assert checked > 100


def test_max_bias_residual_and_coherence_both_nonzero():
    assert abs(coherence_vanishing_residual(MAX_BIAS_SPEC)) > 1e-6
    assert abs(steady_state(build_generator(MAX_BIAS_SPEC)).rho12) > 1e-2


def test_coherence_monotone_along_bias_rays():
    # |rho12| does not decrease as the coupling bias grows at fixed sum
    for total in (0.6 * BOUND, BOUND, 1.4 * BOUND):
        values = []
        for d in np.arange(0.0, BOUND / 2, BOUND / 40.0):
            gl = total / 2 + d
            gr = total / 2 - d
            if gl > BOUND or gr < 0.0:
                break
            ss = steady_state(build_generator(two_bath_spec(gl, gr)))
            values.append(abs(ss.rho12))
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-12)


def test_coherence_grows_with_temperature_bias():
    values = []
    for dt in np.arange(0.0, 1.5001, 0.05):
        spec = two_bath_spec(BOUND, 0.0, tempL=0.5 + dt, tempR=0.5)
        values.append(steady_state(build_generator(spec)).coherence_magnitude)
    assert np.all(np.diff(values) > 0.0)


def test_steady_state_coherence_real_at_resonance():
    for spec in (MAX_BIAS_SPEC, two_bath_spec(0.3 * BOUND, 0.9 * BOUND)):
        ss = steady_state(build_generator(spec))
        assert abs(ss.rho12.imag) <= 1e-12
        assert abs(ss.rho21 - np.conj(ss.rho12)) <= 1e-12


def test_steady_state_trace_and_real_populations(conserving_corpus):
    for spec in conserving_corpus[:30]:
        ss = steady_state(build_generator(spec))
        assert abs(ss.vector[:3].sum() - 1.0) <= 1e-15
        assert max(abs(ss.vector[k].imag) for k in range(3)) <= 1e-10
