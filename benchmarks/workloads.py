"""The benchmark workloads: inputs, one timed pass, output checks.

Each workload is built by :func:`setup` (the timed set-up: importing
``vflux`` and building the inputs) and then runs whole passes through
``run_pass``.  A pass returns a :class:`Pass`: how many items it
completed, how many failed their check, the wall time of each program
call and the exception types of the error rows the program reported.

The harness runs every pass in a child forked after the set-up, so a
cache in the program cannot serve a pass from an earlier one.

Every call into ``vflux`` goes through a module attribute looked up at
call time, so a tracer installed before a pass sees it.

* ``grid-rectify`` and ``grid-noise`` run the ``fig3`` and ``fig21b``
  reproduce targets through ``vflux.runner.run`` and compare the SHA-256 of
  the rendered CSV with ``golden/digests.json``, read at set-up.  The
  golden configuration is the only input these targets have, so the seed
  does not change them.
* ``scalar-api`` evaluates seeded specs one at a time through the library
  path a user follows.

No workload runs the time-integration oracle (``steady.evolve``): its
cost is chaotic in the input (a relative change of 1e-9 in one
temperature moves a spec between ~4k and ~400k right-hand-side
evaluations), and a 30 s run repeats its slow calls too few times for a
steady figure on a shared host.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("grid-rectify", "grid-noise", "scalar-api")

#: Tolerances of the acceptance criteria c01 (conservation) and c02
#: (oracle equivalence).
CONSERVATION_TOL = 1e-10
CURRENT_TOL = 1e-7

#: Specs per scalar-api pass.
SCALAR_SPECS = 100


@dataclass
class Pass:
    items: int
    failed: int
    call_s: list[float]
    errors: Counter = field(default_factory=Counter)

    @property
    def wall_s(self) -> float:
        return sum(self.call_s)


def _error_types(text: str) -> Counter:
    """Exception type of every row whose ``error`` cell is filled."""
    rows = csv.DictReader(io.StringIO(text))
    return Counter(row["error"].split(":", 1)[0] for row in rows if row.get("error"))


class GridWorkload:
    """One reproduce target, checked against its golden digest."""

    def __init__(self, root: Path, target: str):
        import vflux.runner
        from vflux.config import config_for_target

        self._runner = vflux.runner
        index = json.loads((root / "golden" / "digests.json").read_text(encoding="utf-8"))
        self.digest = index["cases"][target]["sha256"]
        self.config = config_for_target(target)

    def run_pass(self) -> Pass:
        start = time.perf_counter()
        _, text = self._runner.run(self.config)
        wall = time.perf_counter() - start
        rows = text.count("\n") - 1
        ok = hashlib.sha256(text.encode("utf-8")).hexdigest() == self.digest
        return Pass(rows, 0 if ok else rows, [wall], _error_types(text))


def _scalar_spec(rng, regime: int):
    """One spec of a scalar-api regime: 0 resonant two-bath with
    interference, 1 detuned three-bath without interference, 2 within
    1e-3 (relative) of the dark corner where both cross couplings reach
    their bound."""
    import vflux

    def draw(lo, hi, size):
        return [float(x) for x in rng.uniform(lo, hi, size)]

    temp_l, = draw(1.0, 3.0, 1)
    temp_r, temp_m = draw(0.3, temp_l - 0.3, 1) + draw(0.3, 3.0, 1)
    if regime == 1:
        eps1, = draw(1.0, 2.0, 1)
        eps2, = draw(0.3, eps1 - 0.05, 1)
        g11l, g22l, g11r, g22r, g_m = draw(0.002, 0.02, 5)
        return vflux.SystemSpec(eps1, eps2, temp_l, temp_m, temp_r,
                                g11l, g22l, 0.0, g11r, g22r, 0.0, g_m)
    eps, = draw(0.5, 2.0, 1)
    g11l, g22l, g11r, g22r = draw(0.002, 0.02, 4)
    if regime == 0:
        shrink = draw(0.0, 0.95, 2)
    else:
        shrink = [1.0 - x for x in draw(1e-4, 1e-3, 2)]
    gl12 = shrink[0] * math.sqrt(g11l * g22l)
    gr12 = shrink[1] * math.sqrt(g11r * g22r)
    return vflux.SystemSpec(eps, eps, temp_l, temp_m, temp_r,
                            g11l, g22l, gl12, g11r, g22r, gr12, 0.0)


class ScalarWorkload:
    """Seeded specs, one at a time through the README library path."""

    def __init__(self, seed: int):
        import numpy as np
        import vflux

        self._vflux = vflux
        rng = np.random.default_rng(seed)
        self.specs = [_scalar_spec(rng, k % 3) for k in range(SCALAR_SPECS)]

    def run_pass(self) -> Pass:
        specs = self.specs
        vf = self._vflux
        clock = time.perf_counter
        calls, failed = [], 0
        for spec in specs:
            start = clock()
            try:
                out = (
                    vf.steady_state(vf.build_generator(spec)),
                    vf.CurrentReport.from_spec(spec),
                    vf.cumulants_perturbative(spec, "R", vf.ENERGY, 4),
                    vf.cumulants_finite_difference(spec, "R", vf.ENERGY, 2),
                    vf.rectification(spec, 0.5 * (spec.tempL + spec.tempR),
                                     spec.tempL - spec.tempR),
                    vf.amplification(spec, spec.tempM) if spec.gM > 0.0 else None,
                )
            except Exception as exc:  # noqa: BLE001 - every exception is a failed item
                out = exc
            calls.append(clock() - start)
            # checked at once, so the pass keeps no results alive for the
            # garbage collector to walk
            failed += not _scalar_ok(out)
        return Pass(len(specs), failed, calls)


def _scalar_ok(out) -> bool:
    if isinstance(out, Exception):
        return False
    state, report, pert, fd, rect, amp = out
    direct = report.JeR
    checks = [
        state.residual < 1e-10,
        report.conservation_residual_energy <= CONSERVATION_TOL,
        report.conservation_residual_particle <= CONSERVATION_TOL,
        abs(direct - pert.values[0]) <= CURRENT_TOL,
        abs(direct - fd.values[0]) <= CURRENT_TOL,
        len(pert.values) == 4 and all(math.isfinite(v) for v in pert.values),
        math.isfinite(rect.rj) and rect.rj >= 0.0,
    ]
    if amp is not None:
        checks.append(math.isfinite(amp.betaL) and math.isfinite(amp.betaR))
    return all(checks)


def setup(name: str, root: Path, seed: int):
    """Build a workload's inputs; raises KeyError on an unknown name."""
    builders = {
        "grid-rectify": lambda: GridWorkload(root, "fig3"),
        "grid-noise": lambda: GridWorkload(root, "fig21b"),
        "scalar-api": lambda: ScalarWorkload(seed),
    }
    return builders[name]()
