import json
import math
import shutil
from pathlib import Path

import pytest

from vflux.errors import UsageError
from vflux.golden import (
    column_diffs,
    compare_numeric,
    compute_csv,
    digest_of,
    load_cases,
    main,
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


def test_differing_cells_read_quoted_cells():
    # a quoted error cell holds commas; the cells after it stay aligned
    a = 'h1,error,h2\n1.0,"E: a, b",2.0\n'
    b = 'h1,error,h2\n1.0,"E: a, c",2.5\n'
    assert compare_numeric(a, b) == (1, "error", "E: a, b", "E: a, c")
    assert column_diffs(a, b) == {"error": (1, math.inf, math.inf), "h2": (1, 0.5, 0.2)}
    assert column_diffs(a, a) == {}


def test_column_diffs():
    a = "h1,h2,error\n1.0,2.0,\n4.0,0.0,\n"
    b = "h1,h2,error\n1.0,2.5,\n3.0,-0.0,DomainError: x\n"
    assert column_diffs(a, b) == {"h2": (2, 0.5, 0.2), "h1": (1, 1.0, 0.25),
                                  "error": (1, math.inf, math.inf)}
    assert column_diffs(a, a) == {}


def _one_case_root(tmp_path, name="steady_cycle", digest=None):
    """A golden directory holding one case of the corpus."""
    root = tmp_path / "golden"
    shutil.copytree(ROOT / "configs", root / "configs")
    index = json.loads((ROOT / "digests.json").read_text())
    index["cases"] = {name: index["cases"][name]}
    if digest is not None:
        index["cases"][name]["sha256"] = digest
    (root / "digests.json").write_text(json.dumps(index))
    return root


def test_write_saves_each_case_csv(tmp_path, capsys):
    root = _one_case_root(tmp_path)
    out = tmp_path / "csv"
    assert main(["--root", str(root), "--write", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["steady_cycle.csv"]
    assert (out / "steady_cycle.csv").read_text() == compute_csv(load_cases(root)[0])
    assert main(["--root", str(root), "--verify", "--against", str(out)]) == 0
    assert capsys.readouterr().out == "steady_cycle: ok\n"


def test_verify_against_prints_the_numeric_diff(tmp_path, capsys):
    # a stored CSV whose rho11 cell of the first row is off by 2.5e-16
    root = _one_case_root(tmp_path, digest="0" * 64)
    text = compute_csv(load_cases(root)[0])
    header, first, rest = text.split("\n", 2)
    col = header.split(",").index("rho11")
    cells = first.split(",")
    new_cell = float(cells[col]) + 2.5e-16
    old_cell, cells[col] = cells[col], f"{new_cell:.16e}"
    stored = tmp_path / "old"
    stored.mkdir()
    (stored / "steady_cycle.csv").write_text("\n".join([header, ",".join(cells), rest]))
    assert main(["--root", str(root), "--verify", "--against", str(stored)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("steady_cycle: MISMATCH ")
    assert lines[1] == f"  first cell: {(1, 'rho11', cells[col], old_cell)}"
    gap = abs(float(cells[col]) - float(old_cell))
    rel = gap / max(abs(float(cells[col])), abs(float(old_cell)))
    assert lines[2:] == [f"  rho11: 1 cells, max abs {gap:.3e}, max rel {rel:.3e}"]
    # a missing stored CSV is an error, not a traceback
    assert main(["--root", str(root), "--verify", "--against", str(tmp_path)]) == 2


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
