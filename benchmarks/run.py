"""vflux benchmark: one workload per process, end-to-end or traced.

Run from the root of a source checkout::

    python3 benchmarks/run.py --workload grid-noise --seed 1 --seconds 30 --trace 0

Workloads (see ``benchmarks/workloads.py`` and ``BENCHMARK.json``):
``grid-rectify``, ``grid-noise``, ``scalar-api``.

The run imports ``vflux`` from ``src/`` of the checkout and builds the
workload's inputs (the set-up), then runs whole passes while the next pass
is expected to end within ``--seconds``; it always runs at least one.
Every pass runs in a child forked from this process after the set-up and
before any pass, so each pass makes the same calls on the same inputs and
none can be served by a cache an earlier pass filled.  Set-up is repeated
in ``SETUP_SAMPLES - 1`` fresh child interpreters; ``setup_s`` is the
median of those and the run's own.

With ``--trace 0`` it reports the end-to-end metrics: set-up time, items
per second, per-call latency (median and tail) and peak RSS, over each
call's best time across the passes (see ``_best_calls``).  With
``--trace 1`` it runs the same untraced passes, then one more forked pass
with :class:`tracer.Tracer` installed, and reports the per-layer metrics;
the spans go to ``.bench_out/<workload>.npz``.
Metric names and units are the ones ``BENCHMARK.json`` declares.

Every pass checks the program's outputs.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; a
run with any failed item reports no metrics and exits 1.  A checkout
without ``src/vflux`` exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Set-ups measured per run, the run's own included.
SETUP_SAMPLES = 5

#: Calls that must lie beyond the tail percentile.
TAIL_BEYOND = 10

#: A child still running after this long is killed, failing the run.
CHILD_TIMEOUT_S = 170


def _prepare_environment() -> dict:
    """Unset VFLUX_THREADS and cap OpenBLAS threads at the core count;
    must run before numpy is imported.  Child processes inherit both."""
    nproc = len(os.sched_getaffinity(0))
    record = {"nproc": nproc, "VFLUX_THREADS": os.environ.pop("VFLUX_THREADS", None)}
    blas = os.environ.get("OPENBLAS_NUM_THREADS")
    if blas is not None and (not blas.isdigit() or not 1 <= int(blas) <= nproc):
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)
    record["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return record


def _import_vflux():
    sys.path.insert(0, str(ROOT / "src"))
    import vflux

    if Path(vflux.__file__).resolve().parent != ROOT / "src" / "vflux":
        raise ImportError(f"vflux imported from {vflux.__file__}, not from this checkout")


def _git_sha() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _versions(record: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record.update(python=platform.python_version(), numpy=np.__version__,
                  scipy=scipy.__version__, blas=f"{blas.get('name')} {blas.get('version')}",
                  git_sha=_git_sha())
    return record


def _declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _setup(name: str, seed: int):
    start = time.perf_counter()
    _import_vflux()
    workload = workloads.setup(name, ROOT, seed)
    return workload, time.perf_counter() - start


def _child_setup_s(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter running ``--setup-only``."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _traced_pass(workload, stem: str, base_s: float) -> tuple:
    """One pass under the tracer; the spans go to ``.bench_out/<stem>``."""
    with Tracer() as tracer:
        done = workload.run_pass()
    tracer.write(ROOT / ".bench_out", stem)
    return done, {"layers": tracer.layer_metrics(base_s), "functions": tracer.functions()[:12]}


def _forked_pass(workload, trace: tuple[str, float] | None = None) -> tuple:
    """One pass in a child forked from this process, traced when ``trace``
    is ``(stem, untraced pass seconds)``; returns the pass and the tracer's
    results.  Raises ChildProcessError if the child does not report."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            signal.alarm(CHILD_TIMEOUT_S)
            done, record = _traced_pass(workload, *trace) if trace else (workload.run_pass(), {})
            record.update(items=done.items, failed=done.failed, call_s=done.call_s,
                          errors=dict(done.errors))
            with os.fdopen(write_fd, "w", encoding="utf-8") as out:
                out.write(json.dumps(record))
            code = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as inp:
        payload = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise ChildProcessError(f"pass child exited with status {status}")
    record = json.loads(payload)
    return workloads.Pass(record.pop("items"), record.pop("failed"), record.pop("call_s"),
                          Counter(record.pop("errors"))), record


def _measure(workload, seconds: float) -> list:
    """Untraced passes, each in a forked child, for ``seconds``."""
    passes = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        passes.append(_forked_pass(workload)[0])
        now = time.perf_counter()
        if now + (now - start) / len(passes) > deadline:
            return passes


def _best_calls(passes: list) -> list[float]:
    """Each call's fastest time over the passes (every pass makes the same
    calls in the same order, each in a fresh child).

    The host runs other tenants: the same pass takes up to 1.6x longer
    for minutes at a time, in CPU time as well as wall time.  The slower
    repeats of a call measure that interference, not the program.
    """
    return [min(times) for times in zip(*(p.call_s for p in passes))]


def _end_to_end(passes: list, setups: list[float]) -> tuple[dict, list[str]]:
    """Throughput and per-call latency over the calls' best times.

    The tail is the highest percentile with TAIL_BEYOND calls beyond it.
    A grid pass is one ``runner.run`` call, too few for a tail; its tail
    is that call.
    """
    best = sorted(_best_calls(passes))
    n = len(best)
    if n > 2 * TAIL_BEYOND:
        tail, percentile = best[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, percentile = best[-1], 100.0
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": passes[0].items / sum(best),
        "call_p50_ms": 1e3 * statistics.median(best),
        "call_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    typical = statistics.median(p.wall_s for p in passes)
    notes = [f"call_tail_ms: p{percentile:.4g} of {n} call(s), each the best of "
             f"{len(passes)} passes",
             f"median pass {typical:.4g} s, {typical / sum(best):.3f}x the best calls' sum"]
    return metrics, notes


def _per_layer(traced, record: dict, base_s: float) -> tuple[dict, list[str]]:
    metrics = record["layers"]
    metrics["runner.error_rows"] = sum(traced.errors.values())
    metrics["trace.overhead_frac"] = traced.wall_s / base_s - 1.0
    notes = [f"runner.error_rows by type: {dict(sorted(traced.errors.items())) or 'none'}"]
    notes += [f"  {f['name']:<38} calls {f['calls']:>9}  self {f['self_s']:9.4f} s  "
              f"incl {f['incl_s']:9.4f} s" for f in record["functions"]]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    env = _prepare_environment()
    try:
        units = _declared_units("per_layer" if args.trace else "end_to_end")
        workload, setup_s = _setup(args.workload, args.seed)
    except (ImportError, OSError, KeyError, ValueError) as exc:
        print(f"error: cannot set up {args.workload}: {exc!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print("env " + json.dumps(_versions(env), sort_keys=True))

    try:
        passes = _measure(workload, args.seconds)
        checked = list(passes)
        if args.trace:
            base_s = statistics.median(p.wall_s for p in passes)
            traced, record = _forked_pass(workload, (args.workload, base_s))
            checked.append(traced)
            setups = [setup_s]
            metrics, notes = _per_layer(traced, record, base_s)
        else:
            setups = [setup_s] + [_child_setup_s(args.workload, args.seed)
                                  for _ in range(SETUP_SAMPLES - 1)]
            metrics, notes = _end_to_end(passes, setups)
    except (ChildProcessError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: child process failed: {exc!r}", file=sys.stderr)
        return 2

    attempted = sum(p.items for p in checked)
    failed = sum(p.failed for p in checked)
    errors = Counter()
    for p in checked:
        errors.update(p.errors)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} items, failed_frac {failed / attempted:.6g} ({failed}/{attempted}), "
          f"error rows {dict(sorted(errors.items())) or 'none'}")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]:>16.6g} {unit}")
    for line in notes:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {} if failed else {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
