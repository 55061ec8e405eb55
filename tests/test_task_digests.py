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
        "1587807fbdfe7c1fe2581b5590f30a5f161532bead27f1a1d354142ac57c6951",
        "4a5b616d9f80ca6bb9d2a6c6992058bc2ccfc6d5bbed4f856fa2fdd462b3b56e",
    ),
    "cumulants_order4": (
        {"task": "cumulants", "cumulants": {"order": 4}},
        "8e83f19d9613c4eb45a3a9d8188955ca06e9b56b0438733d9f8eaca5007ea95e",
        "3708877d5dfe80997a48c5bb91e228d7c21bc3a128c34da6acb306c283289b4e",
    ),
    "cumulants_left_particle": (
        {"task": "cumulants", "cumulants": {"bath": "L", "kind": "particle", "order": 3}},
        "9b2551c8de36f8f52946aa24873c77e2d0d8bbeff90f1d024a8c76504ffe1e30",
        "db5ca8eb15bf3dfff387e65245e711e364fc18a4e994f49f5df796db6bccd7fb",
    ),
    "rectify": (
        {"task": "rectify", "system": {"gL12": 0.008}},
        "e4764b53a80e559ea174c092948cd95ac05749b56efc6dac05a874c22109bbea",
        "207f41f7d4ce07bfd4060a17bd5566315f456c5f529432f3fd860cdc1c13406e",
    ),
    "rectify_bias_too_large": (
        {"task": "rectify", "rectify": {"deltaT": 2.5}},
        "68242ef3b204e592aa794f31b8fa963a90345e240f2869b7ee1100b064b18995",
        "73ec13545c42c1683f6e4afe659fa9deab7971e5eaf620bf6c34d89e60a4ad37",
    ),
    "amplify_cycle": (
        {"task": "amplify", "system": CYCLE_SYSTEM},
        "bbc85bb764a1b61b1f9695975296c5151f66084cec0519e218bfe4246cb30646",
        "b4d016e492fd522f09d2bd1b27a24cb1750e5030b5ac52e3a1b71a366ebd4679",
    ),
    "amplify_cycle_tm_grid": (
        {"task": "amplify", "system": CYCLE_SYSTEM,
         "amplify": {"tM": {"min": 0.2, "max": 1.5, "steps": 7}, "h": 1e-3}},
        "29de55226fcf7f86b597382123de5c8016558b528a5980291b1f6adb7e245c42",
        "eeb445aafcc28329d98fdf3cc0e03603149ea77c8e4c58fec83eab736c807109",
    ),
    "steady": (
        {"task": "steady"},
        "2bc38c97d29f6ef5f0b293ab3d0c25b4ef8a0e2772905845df32d54e29844898",
        "8c470f7f2f83d8ffef89f871479e20b0b7aa8c3c2d1172ae4ba40a1de3b81e56",
    ),
    "sweep_across_bound": (
        {"task": "sweep", "sweep": {"axes": [
            {"field": "gL12", "min": 0.0, "max": 0.02, "steps": 5},
            {"field": "tempR", "min": 0.5, "max": 1.5, "steps": 3},
        ]}},
        "0a0c1725bfd3115fc0336187919af2fff852b5fc72c86b880cdb5897ce347e22",
        "5a326063c9a85adbe9bf4c62bad2ff21482fa61135146fdb22201786d0785cd7",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_task_output_bytes_pinned(name):
    raw, csv_sha, json_sha = CASES[name]
    columns, rows = compute_rows(build_config(raw))
    assert (_sha(render_csv(columns, rows)), _sha(render_json(columns, rows))) == (csv_sha, json_sha)
