import json
import shutil
from pathlib import Path

import pytest

from vflux.errors import UsageError
from vflux.golden import (
    compare_numeric,
    compute_csv,
    digest_of,
    load_cases,
    regenerate,
    verify,
)

ROOT = Path(__file__).resolve().parents[1] / "golden"


def test_corpus_covers_targets_and_methods():
    cases = {case.name for case in load_cases(ROOT)}
    assert {"fig2a", "fig2b", "fig21a", "fig21b", "fig3", "fig4b", "fig5a",
            "fig5b"} <= cases
    # the steady cases exercise all three solver methods per run
    steady = compute_csv(next(c for c in load_cases(ROOT) if c.name == "steady_fig2b"))
    for method in ("nullspace", "analytic", "time_integration"):
        assert method in steady


def test_golden_digests_pass(reproduce_outputs):
    for case in load_cases(ROOT):
        if case.name.startswith("fig"):
            text = reproduce_outputs[case.name][2]
        else:
            text = compute_csv(case)
        ok, actual = verify(case, csv_text=text)
        assert ok, f"{case.name}: digest mismatch ({actual})"


def test_numeric_comparator():
    a = "h1,h2\n1.0000000000000000e+00,x\n"
    b = "h1,h2\n1.0000000000000004e+00,x\n"
    assert compare_numeric(a, b, atol=1e-12) is None
    assert compare_numeric(a, b, atol=1e-18) == (
        1, "h1", "1.0000000000000000e+00", "1.0000000000000004e+00")
    assert compare_numeric(a, a + "extra,row\n") == (2, "h1", None, "extra")
    assert compare_numeric(a + "extra,row\n", a) == (2, "h1", "extra", None)
    assert compare_numeric(a, "h1,h2\n1.0000000000000000e+00,y\n") == (1, "h2", "x", "y")
    assert compare_numeric(a, "h1,h2\n1.0000000000000000e+00\n") == (1, "h2", "x", None)


def test_regenerate_refused_without_maintainer(tmp_path, monkeypatch):
    monkeypatch.delenv("VFLUX_MAINTAINER", raising=False)
    case = next(c for c in load_cases(ROOT) if c.name == "steady_cycle")
    with pytest.raises(UsageError):
        regenerate(case, maintainer=False, root=ROOT)


def test_regenerate_updates_tmp_copy(tmp_path, capsys):
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    index = json.loads((ROOT / "digests.json").read_text())
    index["cases"] = {"steady_cycle": index["cases"]["steady_cycle"]}
    index["cases"]["steady_cycle"]["sha256"] = "0" * 64
    (tmp_path / "digests.json").write_text(json.dumps(index))
    case = load_cases(tmp_path)[0]
    new_digest = regenerate(case, maintainer=True, root=tmp_path)
    assert "steady_cycle" in capsys.readouterr().out
    stored = json.loads((tmp_path / "digests.json").read_text())
    assert stored["cases"]["steady_cycle"]["sha256"] == new_digest
    # tolerance-neutral rerun leaves the digest unchanged
    assert digest_of(compute_csv(case)) == new_digest


def test_missing_config_is_an_error(tmp_path):
    (tmp_path / "digests.json").write_text(json.dumps({
        "schema": "vflux-golden/1",
        "cases": {"ghost": {"config": "configs/ghost.yaml", "sha256": ""}},
    }))
    case = load_cases(tmp_path)[0]
    with pytest.raises(Exception):
        compute_csv(case)
