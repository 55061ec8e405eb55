"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

The figure datasets are produced once per session by the shared
``reproduce_outputs`` fixture; criteria that grade those figures read the
rows of the produced tables rather than recomputing the grids.
"""

import pathlib

import numpy as np

from vflux.analysis import amplification, default_deltaT_grid, rectification
from vflux.config import config_for_target
from vflux.fcs import (
    cumulants_finite_difference,
    cumulants_perturbative,
    first_cumulant_direct,
    pseudo_inverse_R,
)
from vflux.golden import load_cases, verify
from vflux.liouvillian import TRACE_VECTOR, build_generator
from vflux.model import ENERGY, SystemSpec
from vflux.runner import compute_rows, render_csv
from vflux.steady import (
    steady_state,
    steady_state_resonant_two_bath,
    steady_state_three_terminal,
    steady_state_time_integration,
)
from vflux.transport import CurrentReport, closed_form_JR_no_interference, heat_currents

from conftest import BOUND, FIGURE_SPECS, cycle_spec, table_rows, two_bath_spec

GOLDEN_ROOT = pathlib.Path(__file__).resolve().parents[1] / "golden"


def report(cid: str, ok: bool, detail: str = ""):
    print(f"[ACCEPTANCE] {cid}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{cid} {detail}"


def valid_rows(rows):
    return [r for r in rows if r.get("error") is None]


def test_c01_conservation_suite(conserving_corpus):
    worst_e = worst_p = 0.0
    for spec in FIGURE_SPECS + conserving_corpus:
        rep = CurrentReport.from_spec(spec, include_noise=False)
        worst_e = max(worst_e, rep.conservation_residual_energy)
        worst_p = max(worst_p, rep.conservation_residual_particle)
    report("criterion 1 (conservation)", worst_e <= 1e-10 and worst_p <= 1e-10,
           f"max energy residual {worst_e:.2e}, max particle residual {worst_p:.2e}")


def test_c02_oracle_equivalence_suite(conserving_corpus):
    worst_state = worst_current = 0.0
    for spec in conserving_corpus:
        gen = build_generator(spec)
        nullspace = steady_state(gen)
        if spec.eps1 == spec.eps2 and spec.gM == 0.0:
            analytic = steady_state_resonant_two_bath(spec)
        else:
            analytic = steady_state_three_terminal(spec)
        integrated = steady_state_time_integration(gen)
        worst_state = max(
            worst_state,
            np.abs(nullspace.vector - analytic.vector).max(),
            np.abs(nullspace.vector - integrated.vector).max(),
        )
        # the direct route is the recursion's first order (equal bits), so
        # the transport formula on the rates is the third independent route
        currents = (
            first_cumulant_direct(spec, "R", ENERGY),
            cumulants_perturbative(spec, "R", ENERGY, order=1).current,
            cumulants_finite_difference(spec, "R", ENERGY, order=1).current,
            heat_currents(spec)[1],
        )
        worst_current = max(worst_current, max(currents) - min(currents))
    report("criterion 2 (oracle equivalence)",
           worst_state <= 1e-8 and worst_current <= 1e-7,
           f"state spread {worst_state:.2e}, current spread {worst_current:.2e}")


def test_c03_coherence_structure_fig2a(reproduce_outputs):
    rows = table_rows(reproduce_outputs["fig2a"][1])
    ok_rows = valid_rows(rows)
    assert len(rows) == 41 * 41
    diag = [r for r in ok_rows if r["gL12"] == r["gR12"]]
    diag_max = max(r["abs_rho12"] for r in diag)
    corner_errors = [r for r in rows if r.get("error") and r["gL12"] == r["gR12"] == BOUND]
    best = max(ok_rows, key=lambda r: r["abs_rho12"])
    at_corner = (best["gL12"], best["gR12"]) in ((BOUND, 0.0), (0.0, BOUND))
    report("criterion 3 (coherence map structure)",
           diag_max <= 1e-10 and at_corner and len(corner_errors) == 1,
           f"diagonal max {diag_max:.2e}, argmax at ({best['gL12']}, {best['gR12']})")


def test_c04_coherence_vs_bias_fig2b(reproduce_outputs):
    rows = table_rows(reproduce_outputs["fig2b"][1])
    cut = sorted(
        (r for r in valid_rows(rows)
         if abs(r["tempR"] - 0.5) < 1e-9 and r["deltaT"] >= 0.05 - 1e-12),
        key=lambda r: r["deltaT"],
    )
    values = [r["abs_rho12"] for r in cut]
    ok = len(values) == 30 and all(b > a for a, b in zip(values, values[1:]))
    report("criterion 4 (coherence vs bias)", ok,
           f"{len(values)} points, range {values[0]:.3e}..{values[-1]:.3e}")


def test_c05a_rectification_monotone_in_bias():
    spec = two_bath_spec(0.8 * BOUND, BOUND)
    values = [rectification(spec, 1.0, dt).rj for dt in np.arange(0.1, 1.81, 0.1)]
    ok = all(b > a for a, b in zip(values, values[1:]))
    report("criterion 5a (rectification monotone in bias)", ok,
           f"R_J {values[0]:.4f} -> {values[-1]:.4f}")


def test_c05b_rectification_optimum_location(reproduce_outputs):
    # The stated optimum is the maximum over cross couplings strictly below
    # the interference bound.  On a bound edge one bath is fully
    # interfering and the factor rises toward the degenerate corner (see
    # docs/conventions.md), so the full-grid maximum is checked separately.
    rows = table_rows(reproduce_outputs["fig3"][1])
    ok_rows = valid_rows(rows)
    step = BOUND / 50.0
    interior = [r for r in ok_rows if r["gL12"] < BOUND and r["gR12"] < BOUND]
    best_in = max(interior, key=lambda r: r["rj_max"])
    target = (0.76 * BOUND, 0.98 * BOUND)
    # L<->R relabeling maps the optimum onto its mirror with an equal factor
    at_target = any(abs(best_in["gL12"] - tl) <= 0.05 * BOUND
                    and abs(best_in["gR12"] - tr) <= 0.05 * BOUND
                    for tl, tr in (target, target[::-1]))

    best = max(ok_rows, key=lambda r: r["rj_max"])
    on_edge_near_corner = (max(best["gL12"], best["gR12"]) == BOUND
                           and min(best["gL12"], best["gR12"]) >= BOUND - step - 1e-15)
    edge_above_interior = best["rj_max"] > best_in["rj_max"]
    errors = [r for r in rows if r.get("error")]
    corner_only_error = (len(errors) == 1
                         and errors[0]["gL12"] == errors[0]["gR12"] == BOUND
                         and "Degenerate" in errors[0]["error"])

    ok = at_target and on_edge_near_corner and edge_above_interior and corner_only_error
    report("criterion 5b (rectification optimum location)", ok,
           f"interior argmax at ({best_in['gL12'] / BOUND:.2f}, {best_in['gR12'] / BOUND:.2f})"
           f"*bound with R_J={best_in['rj_max']:.4f}; "
           f"stated optimum ({target[0] / BOUND:.2f}, {target[1] / BOUND:.2f})*bound; "
           f"full-grid argmax at ({best['gL12'] / BOUND:.2f}, {best['gR12'] / BOUND:.2f})"
           f"*bound with R_J={best['rj_max']:.4f}; error rows {len(errors)}")


def test_c06_symmetric_interference_null():
    worst = 0.0
    grid = default_deltaT_grid(1.0)
    for factor in (0.0, 0.25, 0.5, 0.75, 0.9):
        spec = two_bath_spec(factor * BOUND, factor * BOUND)
        for dt in grid:
            worst = max(worst, rectification(spec, 1.0, float(dt)).rj)
    report("criterion 6 (symmetric interference null)", worst <= 1e-10,
           f"max R_J {worst:.2e}")


def test_c06_fig3_symmetric_diagonal_null(reproduce_outputs):
    # on gL12 == gR12 the factor vanishes by L<->R symmetry: rj_max is
    # rounding noise there, and its deltaT_star carries no information
    rows = table_rows(reproduce_outputs["fig3"][1])
    diagonal = [r for r in valid_rows(rows) if r["gL12"] == r["gR12"]]
    worst = max(r["rj_max"] for r in diagonal)
    report("criterion 6 (fig3 symmetric diagonal null)", len(diagonal) == 50 and worst <= 1e-10,
           f"{len(diagonal)} rows, max R_J {worst:.2e}")


def test_c07_single_channel_sufficient_condition():
    def current(g_l, g_r, t_l, t_r):
        spec = SystemSpec(1.0, 0.0, t_l, 1.0, t_r, g_l, 0.0, 0.0, g_r, 0.0, 0.0, 0.0)
        return closed_form_JR_no_interference(spec)

    worst_sym = 0.0
    for dt in default_deltaT_grid(1.0):
        j_f = current(0.01, 0.01, 1 + dt / 2, 1 - dt / 2)
        j_b = current(0.01, 0.01, 1 - dt / 2, 1 + dt / 2)
        worst_sym = max(worst_sym, abs(j_f + j_b) / max(j_f, -j_b))
    j_f = current(0.02, 0.005, 1.5, 0.5)
    j_b = current(0.02, 0.005, 0.5, 1.5)
    rj_asym = abs(j_f + j_b) / max(j_f, -j_b)
    report("criterion 7 (single-channel condition)",
           worst_sym <= 1e-10 and rj_asym > 1e-4,
           f"symmetric max {worst_sym:.2e}, asymmetric R_J {rj_asym:.3f}")


def test_c08_cyclic_amplification(reproduce_outputs):
    deviations = []
    branch_residuals = []
    for tm in np.arange(0.2, 1.5001, 0.05):
        res = amplification(cycle_spec(float(tm)), float(tm))
        deviations.append(abs(res.betaR - 4.5))
        branch_residuals.append(res.branch_residual)
    for gamma in (0.002, 0.004, 0.006, 0.008, 0.01):
        for tm in (0.3, 0.9, 1.5):
            res = amplification(cycle_spec(float(tm), gamma), float(tm))
            branch_residuals.append(res.branch_residual)

    rows = table_rows(reproduce_outputs["fig5a"][1])
    betas = [(r["gamma"], r["betaR_max"]) for r in valid_rows(rows)]
    values = [b for _, b in betas]
    monotone = all(b < a for a, b in zip(values, values[1:]))
    crossing = next(g for g, b in betas if b < 1.0)

    ok = (max(deviations) <= 1e-3 and monotone
          and abs(crossing - 0.006) <= 0.003 and max(branch_residuals) <= 1e-6)
    report("criterion 8 (cyclic amplification)", ok,
           f"|betaR-4.5| max {max(deviations):.1e}, monotone={monotone}, "
           f"crossing at gamma={crossing:.4f}, branch residual max {max(branch_residuals):.1e}")


def test_c09_no_ndtc_fig4b(reproduce_outputs):
    rows = table_rows(reproduce_outputs["fig4b"][1])
    ordered = sorted(valid_rows(rows), key=lambda r: r["tempM"])
    je = [r["JeR"] for r in ordered]
    se = [r["SeRR"] for r in ordered]
    ok = (len(ordered) == 39
          and all(b < a for a, b in zip(je, je[1:]))
          and all(b > a for a, b in zip(se, se[1:])))
    report("criterion 9 (no NDTC)", ok,
           f"JeR {je[0]:.3e}->{je[-1]:.3e} decreasing, SeRR {se[0]:.3e}->{se[-1]:.3e} increasing")


def test_c10_noise_power_structure_fig21(reproduce_outputs):
    rows_j = table_rows(reproduce_outputs["fig21a"][1])
    rows_s = table_rows(reproduce_outputs["fig21b"][1])
    step = BOUND / 40.0

    corner_j = [r for r in rows_j if r["gL12"] == r["gR12"] == BOUND]
    corner_s = [r for r in rows_s if r["gL12"] == r["gR12"] == BOUND]
    corner_degenerate = (len(corner_j) == 1 and "Degenerate" in (corner_j[0].get("error") or "")
                         and "Degenerate" in (corner_s[0].get("error") or ""))

    ok_s = valid_rows(rows_s)
    best_s = max(ok_s, key=lambda r: r["SeRR"])
    # the stated maximum sits on the degenerate corner itself where the
    # noise power diverges; the computable grid maximum must hug it
    near_corner = max(BOUND - best_s["gL12"], BOUND - best_s["gR12"]) <= step + 1e-15
    s_max = best_s["SeRR"]
    s_anti = {(r["gL12"], r["gR12"]): r["SeRR"] for r in ok_s}
    suppressed = (s_anti[(BOUND, 0.0)] < 0.6 * s_max and s_anti[(0.0, BOUND)] < 0.6 * s_max)
    diag = sorted((r for r in ok_s if r["gL12"] == r["gR12"]), key=lambda r: r["gL12"])
    diag_rising = all(b["SeRR"] > a["SeRR"] for a, b in zip(diag, diag[1:]))

    ok_j = valid_rows(rows_j)
    worst_j = min(ok_j, key=lambda r: r["JeR"])
    j_min_at_anti = (worst_j["gL12"], worst_j["gR12"]) in ((BOUND, 0.0), (0.0, BOUND))

    ok = corner_degenerate and near_corner and suppressed and diag_rising and j_min_at_anti
    report("criterion 10 (noise-power structure)", ok,
           f"S max at ({best_s['gL12'] / BOUND:.3f}, {best_s['gR12'] / BOUND:.3f})*bound "
           f"(corner degenerate: {corner_degenerate}), antisym fractions "
           f"{s_anti[(BOUND, 0.0)] / s_max:.2f}/{s_anti[(0.0, BOUND)] / s_max:.2f}, "
           f"JeR min at ({worst_j['gL12'] / BOUND:.2f}, {worst_j['gR12'] / BOUND:.2f})*bound")


def test_c11_fcs_self_consistency():
    worst_rel = 0.0
    worst_identity = 0.0
    for spec in FIGURE_SPECS:
        pert = cumulants_perturbative(spec, "R", ENERGY, order=2).noise_power
        fd = cumulants_finite_difference(spec, "R", ENERGY, order=2).noise_power
        worst_rel = max(worst_rel, abs(pert - fd) / abs(fd))
        r = pseudo_inverse_R(spec)
        gen = build_generator(spec).matrix
        p0 = steady_state(build_generator(spec)).vector
        q = np.eye(5, dtype=complex) - np.outer(p0, TRACE_VECTOR)
        worst_identity = max(
            worst_identity,
            np.abs(r @ gen - q).max(),
            np.abs(r @ p0).max(),
            np.abs(TRACE_VECTOR @ r).max(),
        )
    report("criterion 11 (FCS self-consistency)",
           worst_rel <= 1e-12 and worst_identity <= 1e-9,
           f"noise rel spread {worst_rel:.2e}, inverse identities {worst_identity:.2e}")


def test_c12_determinism_and_goldens(reproduce_outputs, golden_outputs):
    rerun_equal = True
    for target in ("fig4b", "fig5b"):
        fresh = render_csv(*compute_rows(config_for_target(target)))
        rerun_equal = rerun_equal and (fresh == reproduce_outputs[target][2])
    digests_ok = True
    for case in load_cases(GOLDEN_ROOT):
        digests_ok = digests_ok and not verify(case, golden_outputs[case.name])
    report("criterion 12 (determinism + goldens)", rerun_equal and digests_ok,
           f"reruns byte-identical: {rerun_equal}, golden digests: {digests_ok}")
