import gzip
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import vflux

from vflux.config import REPRODUCE_TARGETS, TASKS, config_for_target, load_config
from vflux.errors import UsageError
from vflux.golden import (
    column_diffs,
    compare_numeric,
    compute_outputs,
    digest_of,
    load_cases,
    main,
    regenerate,
    report,
    stored_csv,
    verify,
)

ROOT = Path(__file__).resolve().parents[1] / "golden"
TESTS = Path(__file__).resolve().parent


def case_named(name, root=ROOT):
    (case,) = [case for case in load_cases(root) if case.name == name]
    return case


def test_corpus_covers_targets_and_methods():
    cases = {case.name for case in load_cases(ROOT)}
    assert {"fig2a", "fig2b", "fig21a", "fig21b", "fig3", "fig4b", "fig5a",
            "fig5b"} <= cases
    # the steady cases exercise all three solver methods per run
    steady = stored_csv(case_named("steady_fig2b"))
    for method in ("nullspace", "analytic", "time_integration"):
        assert method in steady


def test_every_task_and_target_has_a_case_and_no_test_holds_a_digest():
    # output digests live in golden/digests.json only: a 64-hex-digit
    # literal under tests/ would pin an output outside the corpus, with no
    # stored bytes and no diff report
    literal = re.compile(r"(?<![0-9a-fA-F])[0-9a-fA-F]{64}(?![0-9a-fA-F])")
    files = [path for path in TESTS.rglob("*")
             if path.is_file() and "__pycache__" not in path.parts]
    assert TESTS / "conftest.py" in files
    assert [str(path) for path in files
            if literal.search(path.read_text(encoding="utf-8", errors="replace"))] == []
    configs = [load_config(case.config_path) for case in load_cases(ROOT)]
    assert {config.task for config in configs} == set(TASKS)
    assert {config.reproduce_target for config in configs} >= set(REPRODUCE_TARGETS)


def test_golden_digests_pass(golden_outputs):
    # a case named after a reproduce target holds that target's own config,
    # and its outputs come from the shared run of the target
    for target in REPRODUCE_TARGETS:
        case = case_named(target)
        assert load_config(case.config_path) == config_for_target(target)
        assert verify(case, golden_outputs[target]) == {}, target


@pytest.mark.parametrize("name", sorted(
    case.name for case in load_cases(ROOT) if case.name not in REPRODUCE_TARGETS))
def test_golden_case_digests_pass(golden_outputs, name):
    # the CSV and the JSON of every other case: the task outputs and the
    # grids whose specs turn invalid, each with its stored bytes
    assert verify(case_named(name), golden_outputs[name]) == {}


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


def test_report_pairs_cells_by_column_name(capsys):
    # a dropped column is reported once, by name, and each later column is
    # compared with its own cells, not with its neighbour's
    report("tM,h,betaL,error\n0.5,1e-4,4.5,\n", "tM,betaL,error\n0.5,4.5000001,\n")
    assert capsys.readouterr().out.splitlines() == [
        f"  first cell: {(0, 'h', 'h', None)}",
        "  h: 1 cells, max abs inf, max rel inf",
        "  betaL: 1 cells, max abs 1.000e-07, max rel 2.222e-08",
    ]
    assert column_diffs("a,c\n1,3\n", "a,b,c\n1,2,3\n") == {"b": (1, math.inf, math.inf)}


def test_stored_csvs_hash_to_the_digests():
    # one stored CSV per case and no other file; each decompresses to the
    # bytes its digest names
    cases = load_cases(ROOT)
    assert sorted(p.name for p in (ROOT / "csv").iterdir()) == sorted(
        f"{case.name}.csv.gz" for case in cases)
    for case in cases:
        assert case.csv_path == ROOT / "csv" / f"{case.name}.csv.gz"
        data = gzip.decompress(case.csv_path.read_bytes())
        assert hashlib.sha256(data).hexdigest() == case.digest, case.name
    # and one config per case, no other
    assert sorted(p.name for p in (ROOT / "configs").iterdir()) == sorted(
        case.config_path.name for case in cases)


def test_report_names_a_signed_zero_cell(capsys):
    # a cell that differs only in its sign bit is equal as a float, yet it
    # is the first differing cell
    old = "h1,h2\n0.0000000000000000e+00,1.0\n1.0,2.0\n"
    new = "h1,h2\n-0.0000000000000000e+00,1.0\n1.0,2.5\n"
    report(old, new)
    assert capsys.readouterr().out.splitlines() == [
        f"  first cell: {(1, 'h1', '0.0000000000000000e+00', '-0.0000000000000000e+00')}",
        "  h1: 1 cells, max abs 0.000e+00, max rel 0.000e+00",
        "  h2: 1 cells, max abs 5.000e-01, max rel 2.000e-01",
    ]
    report(old, old)
    assert capsys.readouterr().out == "  first cell: None\n"


def _case_root(tmp_path, digests, csvs=None, json_digests=None):
    """A golden directory holding the corpus cases named in ``digests``, each
    with that CSV digest and the JSON digest from ``json_digests`` (None or
    absent keeps the corpus one) and with its stored CSV text from ``csvs``
    (absent: the corpus bytes)."""
    root = tmp_path / "golden"
    shutil.copytree(ROOT / "configs", root / "configs")
    (root / "csv").mkdir()
    index = json.loads((ROOT / "digests.json").read_text())
    index["cases"] = {name: index["cases"][name] for name in digests}
    for name, digest in digests.items():
        if digest is not None:
            index["cases"][name]["sha256"] = digest
        if json_digests and name in json_digests:
            index["cases"][name]["json_sha256"] = json_digests[name]
        stored = root / "csv" / f"{name}.csv.gz"
        if csvs and name in csvs:
            stored.write_bytes(gzip.compress(csvs[name].encode(), mtime=0))
        else:
            shutil.copy(ROOT / "csv" / stored.name, stored)
    (root / "digests.json").write_text(json.dumps(index))
    return root


def _nudged(text, column="rho11", by=2.5e-16):
    """``text`` with ``column`` of the first data row moved by ``by``; also
    returns the moved and the original cell."""
    header, first, rest = text.split("\n", 2)
    col = header.split(",").index(column)
    cells = first.split(",")
    old_cell, cells[col] = cells[col], f"{float(cells[col]) + by:.16e}"
    return "\n".join([header, ",".join(cells), rest]), cells[col], old_cell


def test_verify_reads_the_stored_csv(tmp_path, capsys):
    root = _case_root(tmp_path, {"steady_cycle": None})
    case = case_named("steady_cycle", root)
    assert stored_csv(case) == compute_outputs(case)[0]
    assert main(["--root", str(root), "--verify"]) == 0
    assert capsys.readouterr().out == "steady_cycle: ok\n"


def test_verify_prints_the_numeric_diff(tmp_path, capsys):
    # a stored CSV whose rho11 cell of the first row is off by 2.5e-16
    text = compute_outputs(case_named("steady_cycle"))[0]
    stored, moved, old_cell = _nudged(text)
    root = _case_root(tmp_path, {"steady_cycle": "0" * 64}, {"steady_cycle": stored})
    assert main(["--root", str(root), "--verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"steady_cycle: MISMATCH csv {digest_of(text)}"
    assert lines[1] == f"  first cell: {(1, 'rho11', moved, old_cell)}"
    gap = abs(float(moved) - float(old_cell))
    rel = gap / max(abs(float(moved)), abs(float(old_cell)))
    assert lines[2:] == [f"  rho11: 1 cells, max abs {gap:.3e}, max rel {rel:.3e}"]
    # a truncated or missing stored CSV is an error, not a traceback
    stored = root / "csv" / "steady_cycle.csv.gz"
    stored.write_bytes(stored.read_bytes()[:-20])
    assert main(["--root", str(root), "--verify"]) == 2
    assert "error: steady_cycle:" in capsys.readouterr().err
    stored.unlink()
    assert main(["--root", str(root), "--verify"]) == 2
    assert "error: steady_cycle:" in capsys.readouterr().err


def test_verify_names_a_task_case_and_its_first_cell(tmp_path, capsys):
    # a nudged cell of a stored task CSV: the case and its first cell
    text, json_text = compute_outputs(case_named("currents"))
    stored, moved, old_cell = _nudged(text, column="JeR")
    root = _case_root(tmp_path, {"currents": "0" * 64, "rectify": None}, {"currents": stored})
    assert main(["--root", str(root), "--verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    gap = abs(float(moved) - float(old_cell))
    rel = gap / max(abs(float(moved)), abs(float(old_cell)))
    assert lines == [f"currents: MISMATCH csv {digest_of(text)}",
                     f"  first cell: {(1, 'JeR', moved, old_cell)}",
                     f"  JeR: 1 cells, max abs {gap:.3e}, max rel {rel:.3e}",
                     "rectify: ok"]
    # a JSON digest alone that differs names the case, with no CSV report
    root = _case_root(tmp_path / "json", {"currents": None}, json_digests={"currents": "0" * 64})
    assert main(["--root", str(root), "--verify"]) == 1
    assert capsys.readouterr().out == f"currents: MISMATCH json {digest_of(json_text)}\n"


def test_regenerate_one_case_rewrites_only_its_bytes(tmp_path, capsys):
    cases = {c.name: c for c in load_cases(ROOT)}
    stored, moved, old_cell = _nudged(compute_outputs(cases["steady_cycle"])[0])
    root = _case_root(tmp_path, {"steady_cycle": "0" * 64, "steady_fig2b": "1" * 64},
                      {"steady_cycle": stored}, {"steady_cycle": "2" * 64})
    other = (root / "csv" / "steady_fig2b.csv.gz").read_bytes()
    assert main(["--root", str(root), "--regenerate", "--maintainer",
                 "--case", "steady_cycle"]) == 0
    digest, json_digest = cases["steady_cycle"].digest, cases["steady_cycle"].json_digest
    gap = abs(float(moved) - float(old_cell))
    rel = gap / max(abs(float(moved)), abs(float(old_cell)))
    assert capsys.readouterr().out.splitlines() == [
        f"steady_cycle: digest {'0' * 12} -> {digest[:12]}, "
        f"json {'2' * 12} -> {json_digest[:12]} (3 data rows)",
        f"  first cell: {(1, 'rho11', moved, old_cell)}",
        f"  rho11: 1 cells, max abs {gap:.3e}, max rel {rel:.3e}",
    ]
    index = json.loads((root / "digests.json").read_text())["cases"]
    assert index["steady_cycle"] == {"config": "configs/steady_cycle.yaml", "sha256": digest,
                                     "json_sha256": json_digest}
    assert index["steady_fig2b"]["sha256"] == "1" * 64
    # the stored bytes are fixed: gzip level 9 with a zero timestamp
    text = stored_csv(cases["steady_cycle"])
    assert (root / "csv" / "steady_cycle.csv.gz").read_bytes() == gzip.compress(
        text.encode(), compresslevel=9, mtime=0)
    assert (root / "csv" / "steady_fig2b.csv.gz").read_bytes() == other


def test_regenerate_refused_without_maintainer(tmp_path, monkeypatch, capsys):
    # --maintainer is the one switch: no environment variable stands in
    monkeypatch.setenv("VFLUX_MAINTAINER", "1")
    root = _case_root(tmp_path, {"steady_cycle": "0" * 64})
    index = (root / "digests.json").read_bytes()
    with pytest.raises(UsageError):
        regenerate(case_named("steady_cycle", root), maintainer=False, root=root)
    assert main(["--root", str(root), "--regenerate"]) == 2
    assert "requires maintainer mode" in capsys.readouterr().err
    assert (root / "digests.json").read_bytes() == index


def test_regenerate_updates_tmp_copy(tmp_path, capsys):
    root = _case_root(tmp_path, {"steady_cycle": "0" * 64})
    case = case_named("steady_cycle", root)
    # an absent stored CSV reads as empty: every cell is reported as new
    case.csv_path.unlink()
    new_digest = regenerate(case, maintainer=True, root=root)
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("steady_cycle: digest ")
    assert out[1] == f"  first cell: {(0, 'spec_hash', None, 'spec_hash')}"
    assert "  rho11: 4 cells, max abs inf, max rel inf" in out
    stored = json.loads((root / "digests.json").read_text())
    assert stored["cases"]["steady_cycle"]["sha256"] == new_digest
    assert digest_of(stored_csv(case)) == new_digest
    # tolerance-neutral rerun leaves the digest unchanged
    assert digest_of(compute_outputs(case)[0]) == new_digest


def test_missing_config_is_an_error(tmp_path):
    (tmp_path / "digests.json").write_text(json.dumps({
        "schema": "vflux-golden/1",
        "cases": {"ghost": {"config": "configs/ghost.yaml", "sha256": "", "json_sha256": ""}},
    }))
    case = load_cases(tmp_path)[0]
    with pytest.raises(Exception):
        compute_outputs(case)


@pytest.mark.parametrize("key", ["json_sha256", "sha256", "config", "cases", "object"])
def test_entry_without_a_key_is_one_error_line(tmp_path, capsys, key):
    # a digests.json written before json_sha256 existed, say, one without
    # its cases, or with an entry that is not an object (a string holding
    # every key's name passes a test by substring): exit 2 with one line
    # that names what is missing, not a KeyError or TypeError traceback
    root = _case_root(tmp_path, {"steady_cycle": None, "steady": None})
    index = json.loads((root / "digests.json").read_text())
    error = f"error: golden case 'steady' has no '{key}' in digests.json\n"
    if key == "cases":
        del index["cases"]
        error = "error: golden digests.json has no 'cases' object\n"
    elif key == "object":
        index["cases"]["steady"] = "config sha256 json_sha256"
        error = "error: golden case 'steady' is not an object in digests.json\n"
    else:
        del index["cases"]["steady"][key]
    (root / "digests.json").write_text(json.dumps(index))
    assert main(["--root", str(root), "--verify"]) == 2
    assert capsys.readouterr() == ("", error)


#: The cases whose only column another OpenBLAS kernel moved was
#: ``residual``, when it was a BLAS ``matmul`` (README, "Determinism and
#: golden files"); its row sums are now written out in one fixed order.
RESIDUAL_ONLY_CASES = ("fig2a", "fig2b", "sweep_across_bound", "sweep_negative_zero")


def test_residual_cases_verify_under_another_blas_kernel():
    # OPENBLAS_CORETYPE is read at load time, so each case verifies in a
    # child process; a matmul residual moved under Prescott in these cases
    src = str(Path(vflux.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE="Prescott")
    children = [subprocess.Popen([sys.executable, "-m", "vflux.golden", "--verify", "--case", name],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                 env=env) for name in RESIDUAL_ONLY_CASES]
    for name, child in zip(RESIDUAL_ONLY_CASES, children):
        out, err = child.communicate(timeout=60)
        assert (child.returncode, out) == (0, f"{name}: ok\n"), out + err
