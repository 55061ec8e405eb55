import csv
import io
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from vflux.cli import main as cli_main
from vflux.config import build_config, config_for_target, load_config
from vflux.errors import ConfigError
from vflux.runner import compute_rows, format_cell, render_csv, render_json, run


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_minimal_reproduce_config_fills_defaults(tmp_path):
    path = write(tmp_path, "fig3.yaml",
                 "schema: vflux-config/1\ntask: reproduce\nreproduce: fig3\n")
    config = load_config(path)
    spec = config.spec
    assert (spec.eps1, spec.eps2) == (1.0, 1.0)
    assert (spec.tempL, spec.tempR) == (2.0, 1.0)
    assert spec.gL11 == spec.gL22 == spec.gR11 == spec.gR22 == 0.01
    assert spec.gL12 == spec.gR12 == 0.0 and spec.gM == 0.0


def test_config_interference_bound_violation(tmp_path):
    path = write(tmp_path, "bad.yaml",
                 "task: steady\nsystem: {gL12: 0.02}\n")
    with pytest.raises(ConfigError, match="interference bound"):
        load_config(path)


def test_config_unknown_sweep_axis():
    raw = {"task": "sweep", "sweep": {"axes": [
        {"field": "tempX", "min": 0.1, "max": 1.0, "steps": 5}]}}
    with pytest.raises(ConfigError, match="tempX"):
        build_config(raw)


def test_config_sweep_needs_axes():
    with pytest.raises(ConfigError, match="needs 1 or 2 axes"):
        build_config({"task": "sweep"})


def test_config_reports_all_problems_at_once():
    raw = {"task": "steady", "system": {"gL12": 0.02, "tempR": -1.0}}
    with pytest.raises(ConfigError) as err:
        build_config(raw)
    message = str(err.value)
    assert "interference bound" in message and "temperature positivity" in message


def test_config_schema_tag_checked():
    with pytest.raises(ConfigError, match="schema"):
        build_config({"schema": "other/9", "task": "steady"})


def test_config_parse_error_has_context(tmp_path):
    path = write(tmp_path, "broken.yaml", "task: [unclosed\n")
    with pytest.raises(ConfigError, match="broken.yaml"):
        load_config(path)


def test_config_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown top-level keys"):
        build_config({"task": "steady", "systems": {}})


AXIS = {"field": "tempR", "min": 0.5, "max": 1.0, "steps": 2}


@pytest.mark.parametrize("raw,message", [
    ({"task": "steady", "output": ["csv"]}, "output: expected a mapping, got list"),
    ({"task": "stationary"}, "task: expected one of"),
    ({"task": "reproduce", "reproduce": "fig9"}, "reproduce: expected one of"),
    ({"task": "steady", "reproduce": "fig3"}, "reproduce: only valid together with task: reproduce"),
    ({"task": "steady", "system": {"tempX": 1.0}}, "system: unknown fields: tempX"),
    ({"task": "steady", "system": {"tempL": "2.0"}}, "system.tempL: expected a number, got '2.0'"),
    ({"task": "sweep", "sweep": {"axes": AXIS}}, "sweep.axes: expected a list"),
    ({"task": "steady", "sweep": {"axes": [AXIS]}}, "sweep.axes: only valid together with task: sweep"),
    ({"task": "steady", "output": {"format": "xml"}}, "output.format: expected one of"),
    ({"task": "cumulants", "cumulants": {"kind": "charge"}}, "cumulants.kind: expected one of"),
    ({"task": "cumulants", "cumulants": {"bath": "M"}}, "cumulants.bath: expected L or R, got 'M'"),
    # both routes serve orders 1-4; order 5 once rendered order-2 values on
    # the finite-difference row and an error on the perturbative one
    ({"task": "cumulants", "cumulants": {"order": 5}},
     "cumulants.order: expected an integer in 1..4, got 5"),
    ({"task": "cumulants", "cumulants": {"order": 0}},
     "cumulants.order: expected an integer in 1..4, got 0"),
], ids=["section-not-a-mapping", "unknown-task", "unknown-target", "target-with-another-task",
        "unknown-system-field", "system-value-not-a-number", "axes-not-a-list",
        "axes-with-another-task", "unknown-format", "bad-kind", "bad-bath", "order-past-4",
        "order-0"])
def test_config_rejection_names_the_key(raw, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_config(raw)


def test_sweep_matches_dedicated_target():
    # a tempM sweep over the cycle system reproduces the fig4b current column
    raw = {
        "task": "sweep",
        "system": {"eps1": 1.1, "eps2": 0.9, "tempL": 2.0, "tempR": 0.5,
                   "gL11": 0.01, "gL22": 0.0, "gR11": 0.0, "gR22": 0.01,
                   "gL12": 0.0, "gR12": 0.0, "gM": 0.01},
        "sweep": {"axes": [{"field": "tempM", "min": 0.1, "max": 2.0, "steps": 39}]},
    }
    _, sweep = compute_rows(build_config(raw))
    assert len(sweep["tempM"]) == 39
    _, target = compute_rows(config_for_target("fig4b"))
    for name in ("tempM", "JeR", "SeRR"):
        assert list(sweep[name]) == list(target[name])
    assert sweep["error"] == [None] * 39


def test_two_axis_sweep_row_major_order():
    raw = {
        "task": "sweep",
        "sweep": {"axes": [
            {"field": "tempL", "min": 1.0, "max": 2.0, "steps": 2},
            {"field": "tempR", "min": 0.5, "max": 1.5, "steps": 3},
        ]},
    }
    _, table = compute_rows(build_config(raw))
    pairs = list(zip(table["tempL"].tolist(), table["tempR"].tolist()))
    assert pairs == [(1.0, 0.5), (1.0, 1.0), (1.0, 1.5),
                     (2.0, 0.5), (2.0, 1.0), (2.0, 1.5)]


def test_sweep_row_error_does_not_abort():
    # sweeping gL12 beyond the interference bound poisons single rows only
    raw = {
        "task": "sweep",
        "sweep": {"axes": [{"field": "gL12", "min": 0.0, "max": 0.02, "steps": 5}]},
    }
    _, table = compute_rows(build_config(raw))
    errors = table["error"]
    assert errors[0] is None and errors[-1] is not None
    assert "interference bound" in errors[-1]


def test_sweep_rows_conserve_or_warn():
    # detuned system with interference: the energy residual is finite and
    # every affected row must carry the warning flag
    raw = {
        "task": "sweep",
        "system": {"eps1": 1.4, "eps2": 0.9, "gL12": 0.008, "gR12": 0.006,
                   "tempL": 2.0, "tempR": 0.7},
        "sweep": {"axes": [{"field": "tempR", "min": 0.4, "max": 1.2, "steps": 5}]},
    }
    _, table = compute_rows(build_config(raw))
    assert table["error"] == [None] * 5
    for res_e, res_p, warned in zip(table["res_energy"], table["res_particle"], table["warnings"]):
        if res_e > 1e-10 or res_p > 1e-10:
            assert warned != ""


def test_csv_formatting_is_scientific_17_digits():
    assert format_cell(0.1) == "1.0000000000000001e-01"
    assert float(format_cell(1.0 / 3.0)) == 1.0 / 3.0
    assert format_cell(True) == "true"
    assert format_cell(None) == ""
    assert format_cell(3) == "3"


def test_render_csv_matches_a_per_cell_rendering():
    nan = float("nan")
    column = [0.0, -0.0, 0.0, -0.0, nan, nan, float("-nan"), math.inf, -math.inf, math.inf,
              0.1, 0.1, np.float64(0.1), np.float64(-0.0), np.float64(nan), 1, 1.0, True,
              np.int64(1), False, 0, None, "", "x", "1.0", 0.1]
    table = {"a": column, "b": [1.0 / (pos + 1) for pos in range(len(column))],
             "c": [None] * len(column)}
    expected = "".join(f"{','.join(format_cell(table[col][n]) for col in ('a', 'b', 'c'))}\n"
                       for n in range(len(column)))
    assert render_csv(("a", "b", "c"), table) == "a,b,c\n" + expected
    assert render_csv(("a", "b"), {"a": [], "b": np.array([])}) == "a,b\n"
    # a float array column renders as its cells do in a list
    values = np.array([0.0, -0.0, nan, -math.inf, 0.1, 0.1, 5e-324, 1.0])
    assert (render_csv(("v",), {"v": values})
            == render_csv(("v",), {"v": values.tolist()})
            == "v\n" + "".join(f"{format_cell(value)}\n" for value in values.tolist()))


def test_error_cell_with_a_comma_is_one_quoted_field():
    # the indeterminate text of deltaT = 0 holds a comma
    columns, table = compute_rows(build_config({"task": "rectify",
                                                "rectify": {"deltaT": 0.0}}))
    text = render_csv(columns, table)
    error = "IndeterminateRectificationError: both currents vanish at t0=1.0, deltaT=0.0"
    assert f',"{error}"\n' in text
    (header, row) = csv.reader(io.StringIO(text))
    assert header == list(columns) and len(row) == len(columns) and row[-1] == error
    # quotes are doubled, and a line break is kept inside the field
    cells = ['a "b"', "x\ny", "p\rq", "plain", None]
    text = render_csv(("a",), {"a": cells})
    assert text == 'a\n"a ""b"""\n"x\ny"\n"p\rq"\nplain\n\n'
    assert [row for row in csv.reader(io.StringIO(text, newline=""))] == [
        ["a"], *([cell] for cell in cells[:-1]), []]


def test_render_csv_deterministic():
    config = config_for_target("fig4b")
    a = render_csv(*compute_rows(config))
    b = render_csv(*compute_rows(config))
    assert a == b


def test_run_writes_file(tmp_path):
    config = config_for_target("fig5b")
    path, text = run(config, out_path=tmp_path / "out.csv")
    assert path.read_text(encoding="utf-8") == text
    assert text.startswith("spec_hash,")


def test_json_output_has_no_non_finite_number(reproduce_outputs):
    # fig21a computes no noise: its SeRR cells are NaN, but in the one
    # error row, which has none
    columns, table, _ = reproduce_outputs["fig21a"]
    assert sum(math.isnan(cell) for cell in table["SeRR"] if cell is not None) == 1680

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    payload = json.loads(render_json(columns, table), parse_constant=reject)
    assert [row["SeRR"] for row in payload] == [None] * len(table["SeRR"])


def test_json_output_round_trips(tmp_path):
    raw = {"task": "currents", "output": {"format": "json"}}
    config = build_config(raw)
    _, text = run(config, out_path=tmp_path / "out.json")
    payload = json.loads(text)
    assert isinstance(payload, list) and payload[0]["eps1"] == 1.0
    assert abs(payload[0]["JeL"] + payload[0]["JeR"] + payload[0]["JeM"]) <= 1e-10


def test_cli_stdout_and_exit_codes(tmp_path, capsys):
    assert cli_main(["currents"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("spec_hash,") and out.count("\n") == 2

    bad = write(tmp_path, "bad.yaml", "task: steady\nsystem: {tempR: -2}\n")
    assert cli_main(["steady", "--config", str(bad)]) == 2
    assert "temperature positivity" in capsys.readouterr().err


@pytest.mark.parametrize("system", ["{tempL: .nan}", "{gL11: .inf}", "{tempL: .inf}"])
def test_cli_rejects_non_finite_parameter(tmp_path, capsys, system):
    bad = write(tmp_path, "bad.yaml", f"task: currents\nsystem: {system}\n")
    assert cli_main(["currents", "--config", str(bad)]) == 2
    assert "finiteness" in capsys.readouterr().err


def test_cli_rejects_non_finite_sweep_bound(tmp_path, capsys):
    bad = write(tmp_path, "bad.yaml", "task: sweep\nsweep:\n  axes:\n"
                "    - {field: tempR, min: 0.5, max: .nan, steps: 3}\n")
    assert cli_main(["sweep", "--config", str(bad)]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_cli_cold_bath_sweep_completes(tmp_path, capsys):
    # tempR = 0.001 puts omega/temp = 1000 past the overflow of expm1; the
    # occupation there is only tiny, so every row is a plain result
    path = write(tmp_path, "cold.yaml", "task: sweep\nsweep:\n  axes:\n"
                 "    - {field: tempR, min: 0.001, max: 1.0, steps: 3}\n")
    assert cli_main(["sweep", "--config", str(path)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 3
    assert all(row.endswith(",") for row in rows)  # empty error cell


@pytest.mark.parametrize("task,options,message", [
    ("cumulants", "cumulants: {order: x}", "cumulants.order: expected an integer"),
    ("cumulants", "cumulants: {order: 2.5}", "cumulants.order: expected an integer"),
    ("amplify", "amplify: {tM: {min: 1.0}}", "amplify.tM: needs numeric min, max"),
    # the response is exact: no task option sets a step
    ("amplify", "amplify: {h: 1.0e-3}", "amplify: unknown keys: h"),
    ("amplify", "amplify: {tm: 1.0}", "amplify: unknown keys: tm"),
    ("rectify", "rectify: {t0: abc}", "rectify.t0: expected a positive finite number"),
    ("rectify", "rectify: {t0: -1.0}", "rectify.t0: expected a positive finite number"),
    ("rectify", "rectify: {deltaT: {min: 0.1, max: 1, steps: 0}}",
     "rectify.deltaT.steps: must be >= 2"),
    ("rectify", "rectify: {deltaT: .nan}", "rectify.deltaT: expected a finite number"),
    ("cumulants", "cumulants: {orders: 3}", "cumulants: unknown keys: orders"),
    # no task reads a `steady` section
    ("steady", "steady: {foo: 1}", "unknown top-level keys: steady"),
    # axis bounds and step counts are not converted from strings or floats
    ("sweep", "sweep: {axes: [{field: tempR, min: '0.5', max: 1.0, steps: 2.9}]}",
     "sweep.axes[0]: needs numeric min, max and integer steps"),
    ("sweep", "sweep: {axes: [{field: tempR, min: 0.5, max: 1.0, steps: 2.9}]}",
     "sweep.axes[0]: needs numeric min, max and integer steps"),
    ("sweep", "sweep: {axes: [{field: tempR, min: 0.5, max: 1.0, steps: true}]}",
     "sweep.axes[0]: needs numeric min, max and integer steps"),
    # two axes on one field would build each point from the second alone
    ("sweep", "sweep: {axes: [{field: tempR, min: 0.5, max: 1.0, steps: 2},"
              " {field: tempR, min: 0.2, max: 0.3, steps: 2}]}",
     "sweep.axes[1].field: tempR is already swept by an earlier axis"),
    ("rectify", "rectify: {deltaT: {min: 0.1, max: '1.0', steps: 3}}",
     "rectify.deltaT: needs numeric min, max and integer steps"),
    ("amplify", "amplify: {tM: {min: 0.5, max: 1.5, steps: 3.0}}",
     "amplify.tM: needs numeric min, max and integer steps"),
])
def test_cli_rejects_bad_task_option(tmp_path, capsys, task, options, message):
    bad = write(tmp_path, "bad.yaml", f"task: {task}\n{options}\n")
    assert cli_main([task, "--config", str(bad)]) == 2
    assert message in capsys.readouterr().err


def test_cli_reproduce_writes_file(tmp_path):
    out = tmp_path / "fig5b.csv"
    assert cli_main(["reproduce", "fig5b", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 40  # header + 39 grid rows


def test_cli_format_override(tmp_path, capsys):
    assert cli_main(["currents", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list)


def test_cli_subcommand_overrides_config_task(tmp_path, capsys):
    # the column set distinguishes the tasks
    cfg = write(tmp_path, "c.yaml", "task: currents\n")
    assert cli_main(["steady", "--config", str(cfg)]) == 0
    assert ",method," in capsys.readouterr().out.split("\n")[0]
    assert cli_main(["currents", "--config", str(cfg)]) == 0
    assert ",JeL," in capsys.readouterr().out.split("\n")[0]


def test_cli_entry_point_installed():
    result = subprocess.run([sys.executable, "-m", "vflux.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "reproduce" in result.stdout
