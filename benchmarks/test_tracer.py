"""The benchmark's tracer on a small workload (the fig2a target).

Run with ``python3 -m pytest benchmarks/test_tracer.py`` from the root of a
checkout; it is not part of the package test suite.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import vflux  # noqa: E402
import vflux.fcs  # noqa: E402
import vflux.runner  # noqa: E402
import vflux.steady  # noqa: E402
import vflux.transport  # noqa: E402
from tracer import Tracer  # noqa: E402
from vflux.config import config_for_target  # noqa: E402


def _fig2a_csv() -> str:
    return vflux.runner.run(config_for_target("fig2a"))[1]


def _bindings():
    return {
        "steady": vflux.steady.steady_state,
        "runner": vflux.runner.steady_state,
        "fcs": vflux.fcs.steady_state,
        "transport": vflux.transport.steady_state,
        "package": vflux.steady_state,
        "from_spec": vars(vflux.transport.CurrentReport)["from_spec"],
        "eig": np.linalg.eig,
        "svd": np.linalg.svd,
        "solve_ivp": vflux.steady.solve_ivp,
    }


@pytest.fixture(scope="module")
def traced_fig2a():
    before = _bindings()
    with Tracer() as tracer:
        inside = _bindings()
        text = _fig2a_csv()
    return before, inside, tracer, text


def test_counts_every_steady_state_call(traced_fig2a):
    _, _, tracer, _ = traced_fig2a
    metrics = tracer.layer_metrics(wall_s=1.0)
    assert tracer.calls[tracer.names.index("steady.steady_state")] == 41 * 41
    assert metrics["kernel.eig_calls"] == 41 * 41
    assert metrics["steady.solves_per_spec"] == 1.0
    assert metrics["runner.calls"] > 0 and metrics["model.calls"] > 0


def test_wraps_every_binding(traced_fig2a):
    before, inside, _, _ = traced_fig2a
    assert all(inside[key] is not before[key] for key in before)
    assert len({inside[key] for key in ("steady", "runner", "fcs", "transport", "package")}) == 1


def test_csv_digest_unchanged(traced_fig2a):
    _, _, _, text = traced_fig2a
    index = json.loads((ROOT / "golden" / "digests.json").read_text(encoding="utf-8"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == index["cases"]["fig2a"]["sha256"]
    assert text == _fig2a_csv()


def test_restores_originals(traced_fig2a):
    before, _, _, _ = traced_fig2a
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_self_time_excludes_children(traced_fig2a):
    _, _, tracer, _ = traced_fig2a
    for name in ("runner.run", "steady.steady_state"):
        fid = tracer.names.index(name)
        assert 0.0 <= tracer.self_s[fid] < tracer.incl_s[fid]
    spans = len(tracer.span_start)
    assert spans == sum(tracer.calls) == len(tracer.span_end) == len(tracer.span_parent)
    assert all(end >= start for start, end in zip(tracer.span_start, tracer.span_end))


def test_counts_the_integrator_as_kernel():
    spec = vflux.SystemSpec(1.2, 0.8, 2.0, 1.0, 0.5, 0.01, 0.01, 0.0, 0.01, 0.01, 0.0, 0.01)
    gen = vflux.build_generator(spec)
    with Tracer() as tracer:
        vflux.steady_state_time_integration(gen, t_end=1.0)
    assert tracer.calls[tracer.names.index("kernel.solve_ivp")] == 1
    assert tracer.calls[tracer.names.index("steady.evolve")] == 1


def test_classmethod_and_package_bindings():
    spec = vflux.SystemSpec(1.0, 1.0, 2.0, 1.0, 1.0, 0.01, 0.01, 0.005, 0.01, 0.01, 0.0, 0.0)
    with Tracer() as tracer:
        report = vflux.CurrentReport.from_spec(spec, include_noise=False)
    assert report.JeR == vflux.CurrentReport.from_spec(spec, include_noise=False).JeR
    assert tracer.calls[tracer.names.index("transport.CurrentReport.from_spec")] == 1
    assert tracer.calls[tracer.names.index("transport.heat_currents")] == 1
    assert tracer.layer_metrics(wall_s=1.0)["kernel.eig_calls"] == 1
