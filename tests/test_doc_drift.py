"""The documented output columns, reproduce targets and names against the code."""

import importlib
import math
import pkgutil
import re
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import vflux

from vflux.config import _OPTION_KEYS, REPRODUCE_TARGETS, TASKS, load_config
from vflux.golden import load_cases, stored_csv
from vflux.runner import SPEC_COLUMNS

ROOT = Path(__file__).resolve().parents[1]


def documented_columns() -> dict[str, tuple[str, ...]]:
    text = (ROOT / "docs" / "csv_schema.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` +\| `([\w,]+)` \|$", text, flags=re.MULTILINE)
    return {name: tuple(columns.split(",")) for name, columns in rows}


def test_schema_doc_lists_every_task_and_target():
    assert set(documented_columns()) == {*TASKS, *REPRODUCE_TARGETS} - {"reproduce"}


@pytest.mark.parametrize("task", sorted(set(TASKS) - {"reproduce"}))
def test_schema_doc_matches_task_columns(task):
    # the header of each golden case of the task (the golden tests hold
    # the stored CSV to what the code computes)
    headers = {stored_csv(case).split("\n", 1)[0] for case in load_cases(ROOT / "golden")
               if load_config(case.config_path).task == task}
    assert headers == {",".join(("spec_hash", *SPEC_COLUMNS, *documented_columns()[task]))}


def test_schema_doc_matches_target_columns(reproduce_outputs):
    documented = documented_columns()
    for target in REPRODUCE_TARGETS:
        columns = reproduce_outputs[target][0]
        assert columns == ("spec_hash", *SPEC_COLUMNS, *documented[target]), target


def test_config_doc_lists_the_task_option_keys():
    # each task-option row of docs/config.md names exactly the section's
    # keys, so a removed option cannot linger there
    text = (ROOT / "docs" / "config.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` *\| `\{([\w, ]+)\}`", text, flags=re.MULTILINE)
    documented = {name: tuple(keys.split(", ")) for name, keys in rows if name in _OPTION_KEYS}
    assert documented == _OPTION_KEYS


def test_reproduce_targets_are_the_golden_targets():
    configs = [load_config(case.config_path) for case in load_cases(ROOT / "golden")]
    assert set(REPRODUCE_TARGETS) == {c.reproduce_target for c in configs if c.task == "reproduce"}


#: Modules a dotted name in the docs may start with.
MODULES = {"np": np, "math": math, "vflux": vflux,
           **{name: None for _, name, _ in pkgutil.iter_modules(vflux.__path__)}}


def documented_names() -> set[str]:
    """Every backticked ``module.attr`` (a call's argument list dropped) in
    docs/*.md and README.md whose first part names a module."""
    names = set()
    for path in [*sorted((ROOT / "docs").glob("*.md")), ROOT / "README.md"]:
        text = path.read_text(encoding="utf-8")
        for dotted in re.findall(r"`(\w+(?:\.\w+)+)(?:\([^`]*\))?`", text):
            if dotted.split(".")[0] in MODULES:
                names.add(dotted)
    return names


def resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    if parts[0] == "vflux":
        parts = parts[1:]
    obj = MODULES.get(parts[0])
    try:
        if obj is None:
            obj = importlib.import_module(f"vflux.{parts[0]}")
        for attr in parts[1:]:
            obj = getattr(obj, attr)
    except (ImportError, AttributeError):
        return False
    return True


def test_documented_names_resolve():
    names = documented_names()
    assert any(name.startswith("np.") for name in names)
    assert sorted(name for name in names if not resolves(name)) == []


def test_star_import_binds_no_module():
    namespace: dict = {}
    exec("from vflux import *", namespace)
    assert [name for name, obj in namespace.items() if isinstance(obj, ModuleType)] == []
    assert set(vflux.__all__) <= set(namespace)


def package_names_used() -> set[str]:
    """Every ``vflux.X`` of README.md, docs/*.md and the benchmark workloads
    (which bind the package to ``vf`` too), and every name README imports
    ``from vflux``; submodules and dunder names left out."""
    workloads = ROOT / "benchmarks" / "workloads.py"
    names = set()
    for path in [*sorted((ROOT / "docs").glob("*.md")), ROOT / "README.md", workloads]:
        text = path.read_text(encoding="utf-8")
        prefix = r"\b(?:vflux|vf)\." if path == workloads else r"\bvflux\."
        names.update(re.findall(prefix + r"(\w+)", text))
        for imported in re.findall(r"^from vflux import ([\w, ]+)$", text, flags=re.MULTILINE):
            names.update(name.strip() for name in imported.split(","))
    return {name for name in names if name not in MODULES and not name.startswith("__")}


def test_package_names_used_are_exported():
    names = package_names_used()
    assert {"SystemSpec", "heat_currents", "cumulants_perturbative"} <= names
    assert sorted(names - set(vflux.__all__)) == []
