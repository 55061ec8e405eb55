"""The documented output columns and reproduce targets against the code."""

import re
from pathlib import Path

import pytest

from vflux.config import REPRODUCE_TARGETS, TASKS, build_config, load_config
from vflux.golden import load_cases
from vflux.runner import SPEC_COLUMNS, compute_rows

ROOT = Path(__file__).resolve().parents[1]

#: The cheapest config of each task (the column set does not depend on it).
TASK_CONFIGS = {
    "steady": {"task": "steady"},
    "currents": {"task": "currents"},
    "cumulants": {"task": "cumulants"},
    "rectify": {"task": "rectify", "rectify": {"deltaT": 0.5}},
    "amplify": {"task": "amplify", "amplify": {"tM": 1.0}},
    "sweep": {"task": "sweep",
              "sweep": {"axes": [{"field": "tempR", "min": 0.5, "max": 1.0, "steps": 2}]}},
}


def documented_columns() -> dict[str, tuple[str, ...]]:
    text = (ROOT / "docs" / "csv_schema.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` +\| `([\w,]+)` \|$", text, flags=re.MULTILINE)
    return {name: tuple(columns.split(",")) for name, columns in rows}


def test_schema_doc_lists_every_task_and_target():
    assert set(documented_columns()) == {*TASKS, *REPRODUCE_TARGETS} - {"reproduce"}
    assert set(TASK_CONFIGS) == set(TASKS) - {"reproduce"}


@pytest.mark.parametrize("task", sorted(TASK_CONFIGS))
def test_schema_doc_matches_task_columns(task):
    columns, _ = compute_rows(build_config(TASK_CONFIGS[task]))
    assert columns == ("spec_hash", *SPEC_COLUMNS, *documented_columns()[task])


def test_schema_doc_matches_target_columns(reproduce_outputs):
    documented = documented_columns()
    for target in REPRODUCE_TARGETS:
        columns = reproduce_outputs[target][0]
        assert columns == ("spec_hash", *SPEC_COLUMNS, *documented[target]), target


def test_reproduce_targets_are_the_golden_targets():
    configs = [load_config(case.config_path) for case in load_cases(ROOT / "golden")]
    assert set(REPRODUCE_TARGETS) == {c.reproduce_target for c in configs if c.task == "reproduce"}
