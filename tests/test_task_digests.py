"""Byte pins of the task outputs that no golden case covers.

Each config is run through ``compute_rows`` and rendered both ways; the
SHA-256 of the CSV and of the JSON text must not move.  Together with the
golden corpus (every reproduce target and two ``steady`` cases) this holds
every task path of the runner to its bytes, and three grid paths the
goldens do not reach: a ``fig3`` whose specs turn invalid inside the bias
scan (at its first bias, or after many), ``DomainError`` rows in a
stacked grid, and a ``-0.0`` field value in a two-axis sweep.
"""

import hashlib

import pytest

from vflux.config import build_config
from vflux.runner import compute_rows, render_csv, render_json

from conftest import HOT_EDGE_SYSTEM, LATE_INVALID_SYSTEM

#: The three-bath cycle: left bath on the upper transition, right bath on
#: the lower one, middle bath on the excited-excited hop.
CYCLE_SYSTEM = {
    "eps1": 1.1, "eps2": 0.9, "tempL": 2.0, "tempM": 1.0, "tempR": 0.5,
    "gL11": 0.01, "gL22": 0.0, "gL12": 0.0, "gR11": 0.0, "gR22": 0.01, "gR12": 0.0,
    "gM": 0.01,
}

CASES = {
    "currents": (
        {"task": "currents"},
        "591905590bc91a970d793875c87b9b62bf3bbc61603609216562ce6bf0434d94",
        "c28beadee11e6d12f76cc837764171be8ef1167ca613780da7b7d920dc8fa340",
    ),
    "cumulants_order4": (
        {"task": "cumulants", "cumulants": {"order": 4}},
        "95e6f35b2cf8bd83064c9458bc446b2d6e62434922b0194d20d6b0bfe897fc81",
        "b2f009149946f00e6e9b91253483fed8054ea00345ce030f9de9a0df1da8643a",
    ),
    "cumulants_left_particle": (
        {"task": "cumulants", "cumulants": {"bath": "L", "kind": "particle", "order": 3}},
        "9ee426433e3c9cfd180ad06779b85943b5507d4e2ecbd3dc59d0edf3653291d9",
        "796f5af8d365a74ec94a1f1bc71cfd8c4eafa76da8bcc27450baabf8921cc2fd",
    ),
    "rectify": (
        {"task": "rectify", "system": {"gL12": 0.008}},
        "648c3cc6ae031ba1107b977c5e26872665839948cf9cb84592bcca49819c1472",
        "0a4d083a37eae7e9c8bafb2ab888821c657fc3e6e6a17fef94e02a7fd6abd0ce",
    ),
    "rectify_bias_too_large": (
        {"task": "rectify", "rectify": {"deltaT": 2.5}},
        "68242ef3b204e592aa794f31b8fa963a90345e240f2869b7ee1100b064b18995",
        "73ec13545c42c1683f6e4afe659fa9deab7971e5eaf620bf6c34d89e60a4ad37",
    ),
    "amplify_cycle": (
        {"task": "amplify", "system": CYCLE_SYSTEM},
        "65361ef386a45da8e11b920d9d7c00f42cfb5ce578f062493dd00c38dde24f93",
        "439ae1f5fe1dfb7d54edd43f062de9c80b3c4f452e61c4ac9d5106d1724399de",
    ),
    "amplify_cycle_tm_grid": (
        {"task": "amplify", "system": CYCLE_SYSTEM,
         "amplify": {"tM": {"min": 0.2, "max": 1.5, "steps": 7}, "h": 1e-3}},
        "d87b89db816f22e53502278aca0c5c259eff8f864458e0ebfe58a5f9b0a2bdb9",
        "b6c6e115a9627957e1e1224189d04d2e56a5a5b9c5564aaab398f33b0d782248",
    ),
    "steady": (
        {"task": "steady"},
        "fac5b8afde95341ee0a8f1683978926421694869d8e508475d47ae2787242ac9",
        "9515d83ca4b6bf4b181dd474ef3366bfb5d0e6b49cf9b4fb132193bcbcbb79b3",
    ),
    # eps/temp leaves no finite occupation at the scan's hottest edge,
    # t0 + 0.95*t0 = 1.95, so every spec takes the scan for invalid points
    "fig3_invalid_at_the_hot_edge": (
        {"task": "reproduce", "reproduce": "fig3", "system": HOT_EDGE_SYSTEM},
        "3f1f95f7d8ead49b6abb34ecdfe1aa9e3b8bc4c31c87b06e0e32e7acb6b9c11c",
        "234a0e59a72618ece5d8c98b9140c8063df6fc8bb7ff8c14d06fe0496680c9cd",
    ),
    # with diagonal couplings of 1e-300 each spec turns invalid only late
    # in the scan, at eps/tempL below the occupation floor: 2,601
    # DomainError rows after the kernels of every valid point before them
    "fig3_invalid_late_in_the_scan": (
        {"task": "reproduce", "reproduce": "fig3", "system": LATE_INVALID_SYSTEM},
        "d9a4de35a77ed46a5dc20add71b84249bbb63ee49a41e4ac5b2c03233849ae85",
        "ec374eebec508be87996b3bdebf26a156114edf0da1491cd6062b5516141d174",
    ),
    # eps2/temp leaves no finite occupation from a temperature of about
    # 0.54: 1,164 DomainError rows among 45 kernel errors.  The fig2a and
    # fig21b grids vary only the cross couplings, which stay in their
    # bounds, so a valid config gives them no DomainError row.
    "fig2b_domain_error_rows": (
        {"task": "reproduce", "reproduce": "fig2b", "system": {"eps2": 3e-309}},
        "359ae727a8d49341c70188ea3fa219e695d526280249a00c2ae3ca9ae730189c",
        "1d3a3fccf6aac6c71b6557f01583682c5ce88a846000ccfff5837f26db749590",
    ),
    "sweep_negative_zero": (
        {"task": "sweep", "sweep": {"axes": [
            {"field": "gR12", "min": -0.0, "max": 0.0, "steps": 2},
            {"field": "gL12", "min": -0.0, "max": 0.005, "steps": 3},
        ]}},
        "5506fdf17d6db3d41b271b5224e8ef301c51614c426ecc9183ebddbd4e04ba85",
        "de2a5e2d47fa89a50b4ce3d1495aa9b4224d54dc40f8d750e813a32121c3a3f4",
    ),
    "sweep_across_bound": (
        {"task": "sweep", "sweep": {"axes": [
            {"field": "gL12", "min": 0.0, "max": 0.02, "steps": 5},
            {"field": "tempR", "min": 0.5, "max": 1.5, "steps": 3},
        ]}},
        "1da3a96cad4d7479eca486b8b587271c92f3b132619f78a9665a623e9fc95204",
        "3642cbc69eb5c832a3db617ee343c4da1e8c7df8da44d083eec235b918d2323f",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_task_output_bytes_pinned(name):
    raw, csv_sha, json_sha = CASES[name]
    columns, table = compute_rows(build_config(raw))
    assert _sha(render_csv(columns, table)) == csv_sha
    assert _sha(render_json(columns, table)) == json_sha
