"""The suite's own pytest settings (``pyproject.toml``): turning warnings
into errors must not stop pytest from reporting a failing property."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_small(x):
    assert x < 10
'''


def test_failing_property_reports_its_example(tmp_path):
    # hypothesis imports libcst to report the example, and libcst warns
    # with a DeprecationWarning, which the settings turn into errors
    test_file = tmp_path / "test_property.py"
    test_file.write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", str(test_file)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_small(" in output
    assert run.returncode == 1
