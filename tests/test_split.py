"""The stacked ``eigvals`` of the noise grids, split across the process's CPUs.

``fcs._eigvals`` splits a stack of at least two ``fcs.SPLIT_MATRICES``
matrices into contiguous chunks, at most one per core, each solved on a
thread of a pool made and shut down inside the call.  Each matrix is
solved alone, so the bytes of the noise grids must not depend on the core
count or on the chunk boundaries; one point and the small stacks must
start no thread; and a child forked after a split must be able to split
again.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from vflux import fcs
from vflux.config import config_for_target
from vflux.fcs import FD_STEP, _eigvals, _single_field, cumulants_finite_difference
from vflux.golden import digest_of, load_cases
from vflux.liouvillian import _counting_matrix
from vflux.model import ENERGY, RateSet, spec_arrays
from vflux.runner import compute_rows, render_csv, render_json

from conftest import (DETUNED_SPEC, NOT_FINITE, lapack_calls, seeded_conserving_specs,
                      seeded_leak_specs)


def set_cores(monkeypatch, count: int):
    monkeypatch.setattr(fcs, "_cores", lambda: count)


def eigvals_calls(monkeypatch) -> list:
    """The number of matrices of each later ``np.linalg.eigvals`` call."""
    return lapack_calls(monkeypatch, ["eigvals"])


def matrices(calls) -> list:
    return [count for _, count in calls]


def dressed_stack(size: int) -> np.ndarray:
    """``size`` dressed matrices, ``(size, 5, 5)``: the spectra at h/4, h/2
    and h of seeded specs and of ``NOT_FINITE``, whose matrices are not
    finite and hold the identity, as in ``fcs._spectra``, repeated in order."""
    rates = RateSet(spec_arrays(seeded_conserving_specs(20) + seeded_leak_specs(20)
                                + [NOT_FINITE]))
    chi = _single_field("R", ENERGY, FD_STEP)
    with np.errstate(over="ignore", invalid="ignore"):
        dressed = np.concatenate([_counting_matrix(rates, chi.scaled(f))
                                  for f in (0.25, 0.5, 1.0)])
    finite = np.isfinite(dressed).all(axis=(1, 2))
    assert finite.sum() == len(dressed) - 3
    dressed[~finite] = np.eye(5)
    return dressed[np.arange(size) % len(dressed)]


@pytest.mark.parametrize("split", [fcs.SPLIT_MATRICES, 1])
def test_noise_grid_bytes_do_not_depend_on_the_core_count(monkeypatch, split):
    # at the threshold fig21b splits and fig4b does not; at 1 both split
    # into one chunk per core
    monkeypatch.setattr(fcs, "SPLIT_MATRICES", split)
    digests = {case.name: case.digest for case in load_cases()}
    for target, count in (("fig21b", 3 * 1681), ("fig4b", 3 * 39)):
        outputs = set()
        for cores in (1, 2, 3):
            set_cores(monkeypatch, cores)
            calls = eigvals_calls(monkeypatch)
            columns, table = compute_rows(config_for_target(target))
            assert sum(matrices(calls)) == count
            assert len(calls) == max(1, min(cores, count // split))
            outputs.add((render_csv(columns, table), render_json(columns, table)))
        ((csv_text, _),) = outputs
        assert digest_of(csv_text) == digests[target]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("offset", [-1, 1])
def test_split_eigvals_carry_the_bits_of_one_call(monkeypatch, k, offset):
    size = k * fcs.SPLIT_MATRICES + offset
    stack = dressed_stack(size)
    set_cores(monkeypatch, 3)
    expected = np.linalg.eigvals(stack)
    calls = eigvals_calls(monkeypatch)
    for shaped in (stack, stack[None]):
        got = _eigvals(shaped)
        assert got.shape == shaped.shape[:-1] and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
    chunks = max(1, min(3, size // fcs.SPLIT_MATRICES))
    assert matrices(calls) == 2 * [len(part) for part in np.array_split(stack, chunks)]


def test_one_point_and_fig4b_start_no_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was made")

    monkeypatch.setattr(fcs, "ThreadPoolExecutor", refuse)
    set_cores(monkeypatch, 64)
    calls = eigvals_calls(monkeypatch)
    cumulants_finite_difference(DETUNED_SPEC, "R", ENERGY)
    compute_rows(config_for_target("fig4b"))
    assert matrices(calls) == [3, 3 * 39]
    # fig21b's 5,043 matrices do split
    with pytest.raises(AssertionError, match="thread pool"):
        compute_rows(config_for_target("fig21b"))


def split_in_child(stack: np.ndarray):
    """Run in a forked child: a split with the parent's core count must
    give the one call's bits; any failure gives a nonzero exit code."""
    expected = np.linalg.eigvals(stack)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = eigvals_calls(monkeypatch)
        assert _eigvals(stack).tobytes() == expected.tobytes()
    assert len(calls) == 2


def test_forked_child_splits_after_its_parent(monkeypatch):
    set_cores(monkeypatch, 2)
    stack = dressed_stack(4 * fcs.SPLIT_MATRICES)
    expected = np.linalg.eigvals(stack)
    calls = eigvals_calls(monkeypatch)
    assert _eigvals(stack).tobytes() == expected.tobytes()
    assert len(calls) == 2
    child = multiprocessing.get_context("fork").Process(target=split_in_child, args=(stack,))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child did not return within 60 s")
    assert child.exitcode == 0


def test_cores_fall_back_to_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert fcs._cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert fcs._cores() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert fcs._cores() == 1
