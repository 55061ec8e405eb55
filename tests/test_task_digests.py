"""Byte pins of the task outputs that no golden case covers.

Each config is run through ``compute_rows`` and rendered both ways; the
SHA-256 of the CSV and of the JSON text must not move.  Together with the
golden corpus (every reproduce target and two ``steady`` cases) this holds
every task path of the runner to its bytes.
"""

import hashlib

import pytest

from vflux.config import build_config
from vflux.runner import compute_rows, render_csv, render_json

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
        "7760e7a98ba315981aa6c202b2fda46b4d3153a22ad9081648e191e7987679a1",
        "002395d1b99c4e86f1a41e371a5c26e81b8b6f0ba10f1bb038c8f52c0061410e",
    ),
    "cumulants_order4": (
        {"task": "cumulants", "cumulants": {"order": 4}},
        "83e772355717b8bfa4fb97bd8935e9f507a7774cbf7696e02dd0d94d801171d0",
        "3fab86ed1c42124243a4de56432bc8aa1a9d7635d39300891bffce9303d55868",
    ),
    "cumulants_left_particle": (
        {"task": "cumulants", "cumulants": {"bath": "L", "kind": "particle", "order": 3}},
        "800738671a14bc82a69d19cabdb48f4b7dfd3f51e0ab21720551599e27817990",
        "42ef8173403aff44f70e1e915865a0ae11439ad81ff561d0f4a4a77c0bec905a",
    ),
    "rectify": (
        {"task": "rectify", "system": {"gL12": 0.008}},
        "6c80c5fcb071085e53c9251b8d300726456a357df30e1a139b169414ee7f155b",
        "527d064cb66cca97f5f0790a4be22afa63a3c13c3e9ed54f894c6f107f298e2d",
    ),
    "rectify_bias_too_large": (
        {"task": "rectify", "rectify": {"deltaT": 2.5}},
        "68242ef3b204e592aa794f31b8fa963a90345e240f2869b7ee1100b064b18995",
        "73ec13545c42c1683f6e4afe659fa9deab7971e5eaf620bf6c34d89e60a4ad37",
    ),
    "amplify_cycle": (
        {"task": "amplify", "system": CYCLE_SYSTEM},
        "29f3e613348e999907ae507b4afcb49ad2a8cd10e7ccd113fa9e5a9058c7d0d5",
        "1f28c739cc6a9bfb856cffbf0ef7c7b6bdc05c85b281d0c5ce195c1311f2d2c9",
    ),
    "amplify_cycle_tm_grid": (
        {"task": "amplify", "system": CYCLE_SYSTEM,
         "amplify": {"tM": {"min": 0.2, "max": 1.5, "steps": 7}, "h": 1e-3}},
        "102abc60fb2402d699c7f9945537c38e99f59510bcab89727dacdca6b497126f",
        "8752f339ffda408507f83e8f4a27a1ef21745cced641a7632180b81450fbe6ca",
    ),
    "steady": (
        {"task": "steady"},
        "ee7376cae53e244e23e5a1c239b8f3bebbef5ff331dfa95a0ac8c883ddca04c5",
        "a247a3cf181e4b4e9745caf29cc71a5874491cabd08b2bc1358f8a649a994c5b",
    ),
    "sweep_across_bound": (
        {"task": "sweep", "sweep": {"axes": [
            {"field": "gL12", "min": 0.0, "max": 0.02, "steps": 5},
            {"field": "tempR", "min": 0.5, "max": 1.5, "steps": 3},
        ]}},
        "5df323cef340b9dd6ffb0bd5496d0f0d51b17dd80a0be45dcf84238fea496c66",
        "1d99c3a15c077cb67318f3cbcd9d40fc5d3019b6c57e4f6e739ff01b19e4b4b7",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_task_output_bytes_pinned(name):
    raw, csv_sha, json_sha = CASES[name]
    columns, rows = compute_rows(build_config(raw))
    assert (_sha(render_csv(columns, rows)), _sha(render_json(columns, rows))) == (csv_sha, json_sha)
