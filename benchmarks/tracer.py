"""Span tracer that times the vflux layers from outside the package.

A layer is one ``vflux`` module (``config``, ``model``, ``liouvillian``,
``steady``, ``transport``, ``fcs``, ``analysis``, ``runner``) plus
``kernel``, the numpy/scipy calls those modules make
(``np.linalg.eig``/``eigvals``/``svd`` and ``vflux.steady.solve_ivp``).

:meth:`Tracer.install` replaces every public module-level function of
each layer by a wrapper that records a span.  The replacement is made in
*every* ``vflux`` module that holds the function, because ``from ...
import`` copies the binding: patching only the defining module would miss
every call made from ``runner``, ``transport``, ``fcs`` and ``analysis``.
``CurrentReport.from_spec`` (a classmethod) is wrapped too.
:meth:`Tracer.uninstall` puts every original object back.

Self time is kept with a span stack: a span's self time is its duration
minus the durations of the spans it directly encloses.  Spans are kept in
memory as compact arrays (function, parent span, start, end) and written
out by :meth:`Tracer.write`.  The tracer assumes a single thread, which
holds while ``VFLUX_THREADS`` is unset.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("config", "model", "liouvillian", "steady", "transport", "fcs",
          "analysis", "runner", "kernel")

_LAPACK = ("kernel.eig", "kernel.eigvals", "kernel.svd")


class Tracer:
    """Counts, self time and spans per wrapped function, grouped by layer."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.rate_specs: set[int] = set()
        self.solve_specs: set[int] = set()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrapping

    def _wrap(self, fn, name: str, before=None):
        fid = len(self.names)
        self.names.append(name)
        self.layers.append(name.split(".", 1)[0])
        self.calls.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        clock = time.perf_counter
        stack = self._stack
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        span_fn, span_parent = self.span_fn, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(span_start)
            span_fn.append(fid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_end[idx] = end
                total = end - start
                calls[fid] += 1
                incl_s[fid] += total
                self_s[fid] += total - frame[1]
                if stack:
                    stack[-1][1] += total

        return wrapper

    def _patch(self, owner, name: str, replacement):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every layer's public functions wherever ``vflux`` bound them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import numpy as np

        import vflux.steady
        from vflux.transport import CurrentReport

        hooks = {
            "model.build_rates": self._note_rates,
            "steady.steady_state": self._note_solve,
        }
        wrappers: dict[int, tuple[object, object]] = {}
        layer_modules = [importlib.import_module(f"vflux.{layer}") for layer in LAYERS[:-1]]
        for layer, module in zip(LAYERS, layer_modules):
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(obj, name, hooks.get(name)))
        holders = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "vflux" or n.startswith("vflux."))]
        for module in holders:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(module, attr, entry[1])

        raw = vars(CurrentReport)["from_spec"]
        self._patch(CurrentReport, "from_spec", classmethod(
            self._wrap(raw.__func__, "transport.CurrentReport.from_spec")))
        for attr in ("eig", "eigvals", "svd"):
            self._patch(np.linalg, attr, self._wrap(getattr(np.linalg, attr), f"kernel.{attr}"))
        self._patch(vflux.steady, "solve_ivp",
                    self._wrap(vflux.steady.solve_ivp, "kernel.solve_ivp"))

    def uninstall(self) -> None:
        """Restore every patched attribute to the object it held before."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------------
    # hooks: counts taken where the work happens

    def _note_rates(self, args, kwargs):
        self.rate_specs.add(hash(args[0] if args else kwargs["spec"]))

    def _note_solve(self, args, kwargs):
        self.solve_specs.add(hash((args[0] if args else kwargs["gen"]).spec))

    # ------------------------------------------------------------------
    # results

    def _sum(self, values, layer: str):
        return sum(v for v, lay in zip(values, self.layers) if lay == layer)

    def _of(self, values, name: str):
        return values[self.names.index(name)] if name in self.names else 0

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer counts and times; ``wall_s`` is the untraced wall time
        of the same work, the base of ``kernel.lapack_share``."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self._sum(self.calls, layer)
            out[f"{layer}.self_s"] = self._sum(self.self_s, layer)
        out["kernel.eig_calls"] = self._of(self.calls, "kernel.eig")
        out["kernel.eigvals_calls"] = self._of(self.calls, "kernel.eigvals")
        out["kernel.svd_calls"] = self._of(self.calls, "kernel.svd")
        lapack = sum(self._of(self.self_s, name) for name in _LAPACK)
        out["kernel.lapack_share"] = lapack / wall_s if wall_s > 0 else 0.0
        rates = self._of(self.calls, "model.build_rates")
        solves = self._of(self.calls, "steady.steady_state")
        out["model.rates_per_spec"] = rates / len(self.rate_specs) if self.rate_specs else 0.0
        out["steady.solves_per_spec"] = solves / len(self.solve_specs) if self.solve_specs else 0.0
        out["runner.render_s"] = (self._of(self.incl_s, "runner.render_csv")
                                  + self._of(self.incl_s, "runner.render_json"))
        return out

    def functions(self) -> list[dict]:
        """Per-function calls, self and inclusive seconds, busiest first."""
        rows = [{"name": n, "calls": c, "self_s": s, "incl_s": i}
                for n, c, s, i in zip(self.names, self.calls, self.self_s, self.incl_s) if c]
        return sorted(rows, key=lambda r: r["self_s"], reverse=True)

    def write(self, directory: Path, stem: str) -> None:
        """Write the spans (``.npz``) and the per-function table (``.json``)."""
        import numpy as np

        directory.mkdir(parents=True, exist_ok=True)
        np.savez(directory / f"{stem}.npz",
                 names=np.array(self.names),
                 fn=np.frombuffer(self.span_fn, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
        (directory / f"{stem}.json").write_text(
            json.dumps({"spans": len(self.span_start), "functions": self.functions()},
                       indent=1) + "\n", encoding="utf-8")
