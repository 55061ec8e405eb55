"""The one-spec memo (``vflux.model._memo``): the scalar entry points share
the rates, generator, kernel, projected inverse, derivatives and recursion
orders of the last spec object they were handed, and return the bits a
fresh object gets, whatever calls came before.

Each outcome below is compared as bits: ``float.hex`` of every float,
the bytes of every array, the type and text of every error and the
category, text and source line of every warning.
"""

from __future__ import annotations

import random
import sys
import threading
import warnings
from collections import Counter
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import vflux as vf
import vflux.model
from vflux import fcs
from vflux.config import config_for_target
from vflux.fcs import (
    cumulants_finite_difference,
    cumulants_perturbative,
    dominant_eigenvalue,
    first_cumulant_direct,
    pseudo_inverse_R,
)
from vflux.liouvillian import build_generator
from vflux.model import BATHS, ENERGY, KINDS, PARTICLE, CountingFields, SystemSpec, build_rates
from vflux.runner import run
from vflux.steady import steady_state
from vflux.transport import CurrentReport, heat_currents, particle_currents

from conftest import (
    BOUND,
    DETUNED_SPEC,
    MAX_BIAS_SPEC,
    NOT_FINITE,
    count_calls,
    seeded_conserving_specs,
    seeded_leak_specs,
    two_bath_spec,
)

#: A given state, for the routes that take one: another spec's kernel.
STATE = steady_state(build_generator(replace(DETUNED_SPEC)))

#: A spec with ``0.0`` fields and its twin with ``-0.0``: equal as values,
#: with a generator of other bytes.
ZERO = two_bath_spec(0.0, 0.0)
TWIN = replace(ZERO, gM=-0.0)

CORPUS = {
    **{f"conserving{n}": spec for n, spec in enumerate(seeded_conserving_specs(4, seed=29))},
    **{f"leak{n}": spec for n, spec in enumerate(seeded_leak_specs(2, seed=29))},
    "near_dark_corner": two_bath_spec((1.0 - 1e-4) * BOUND, (1.0 - 1e-3) * BOUND),
    "max_bias": MAX_BIAS_SPEC,
    "detuned": DETUNED_SPEC,
    "invalid": replace(DETUNED_SPEC, gL12=0.0101),
    "coupling_free": SystemSpec(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "dark_corner": two_bath_spec(BOUND, BOUND),
    "not_finite": NOT_FINITE,
    "zero": ZERO,
    "negative_zero_twin": TWIN,
}

#: Every scalar entry point that reads the memo, by name.
CALLS = {
    "build_generator": lambda s: build_generator(s).matrix,
    "heat_currents": heat_currents,
    "particle_currents": particle_currents,
    "heat_currents_given": lambda s: heat_currents(s, STATE),
    "report": CurrentReport.from_spec,
    "report_no_noise": lambda s: CurrentReport.from_spec(s, include_noise=False),
    "report_given": lambda s: CurrentReport.from_spec(s, STATE),
    "report_given_no_noise": lambda s: CurrentReport.from_spec(s, STATE, False),
    **{f"perturbative_{bath}_{kind}_{order}":
       (lambda s, b=bath, k=kind, o=order: cumulants_perturbative(s, b, k, o))
       for bath in BATHS for kind in KINDS for order in (1, 2, 3, 4)},
    **{f"direct_{bath}_{kind}": (lambda s, b=bath, k=kind: first_cumulant_direct(s, b, k))
       for bath in BATHS for kind in KINDS},
    "finite_difference_R_energy_2": lambda s: cumulants_finite_difference(s, "R", ENERGY, 2),
    "finite_difference_L_particle_1": lambda s: cumulants_finite_difference(s, "L", PARTICLE, 1),
    "pseudo_inverse": pseudo_inverse_R,
    "dominant_zero": lambda s: dominant_eigenvalue(s, CountingFields.zero()),
    "dominant_chi": lambda s: dominant_eigenvalue(s, CountingFields(0.0, 0.3, ENERGY)),
}


def bits(value):
    """``value`` as comparable bits (see the module docstring)."""
    if isinstance(value, BaseException):
        return type(value).__name__, str(value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if isinstance(value, (tuple, list)):
        return tuple(bits(item) for item in value)
    if is_dataclass(value):
        return type(value).__name__, tuple(bits(getattr(value, f.name)) for f in fields(value))
    return repr(value)


def result(call, spec):
    """The bits of ``call(spec)`` or of its error."""
    try:
        return bits(call(spec))
    except Exception as exc:  # noqa: BLE001 - an error is an outcome
        return bits(exc)


def outcome(call, spec):
    """:func:`result` and the bits of each warning the call emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = result(call, spec)
    return value, [(w.category.__name__, str(w.message), w.filename, w.lineno) for w in caught]


@pytest.fixture
def residues_warn(monkeypatch):
    """Every imaginary residue of a recursion is warned about: each is
    zero, as the recursion keeps the cumulants exactly real."""
    monkeypatch.setattr(fcs, "IMAG_WARN", -1.0)


def fresh_outcomes(spec) -> dict:
    """Each call's outcome on a fresh copy of ``spec`` of its own, made
    with the slot empty, which it leaves empty."""
    out = {}
    for name, call in CALLS.items():
        vflux.model._last = {}
        out[name] = outcome(call, replace(spec))
    vflux.model._last = {}
    return out


@pytest.mark.parametrize("name", CORPUS)
def test_every_order_of_calls_gives_the_bits_of_a_fresh_spec(residues_warn, name):
    spec = CORPUS[name]
    expected = fresh_outcomes(spec)
    names = list(CALLS)
    orders = [names, names[::-1]] + [random.Random(seed).sample(names, len(names))
                                     for seed in (1, 2)]
    for order in orders:
        same = replace(spec)
        # each call twice: errors and warnings repeat, nothing is stored half-made
        for call_name in order + order:
            assert outcome(CALLS[call_name], same) == expected[call_name], (name, call_name)


ERROR_NAMES = {"DomainError", "DegenerateSteadyStateError", "BranchError"}


def test_corpus_holds_errors_warnings_and_a_twin_of_other_bytes(residues_warn):
    found = {name: fresh_outcomes(spec) for name, spec in CORPUS.items()}
    errors = {value[0] for out in found.values() for value, _ in out.values()
              if isinstance(value, tuple) and value[0] in ERROR_NAMES}
    assert errors == ERROR_NAMES
    assert any(warned for out in found.values() for _, warned in out.values())
    # a key by value would give the twin the record of the spec it equals
    assert ZERO == TWIN
    assert found["zero"]["build_generator"] != found["negative_zero_twin"]["build_generator"]


def test_errors_are_raised_afresh_on_every_call():
    for name in ("invalid", "coupling_free", "dark_corner"):
        spec = replace(CORPUS[name])
        for call_name, call in CALLS.items():
            raised = []
            for _ in range(2):
                try:
                    call(spec)
                except Exception as exc:  # noqa: BLE001 - every error is collected
                    raised.append(exc)
            if raised:
                first, second = raised
                assert first is not second and str(first) == str(second), (name, call_name)


def test_twin_after_its_equal_spec_gets_its_own_bits():
    for first, second in ((ZERO, TWIN), (TWIN, ZERO)):
        expected = fresh_outcomes(second)
        a, b = replace(first), replace(second)
        for name, call in CALLS.items():
            outcome(call, a)
            assert outcome(call, b) == expected[name], name


def test_writing_into_returned_objects_changes_no_later_call():
    for name in ("detuned", "leak0", "max_bias", "near_dark_corner"):
        spec = replace(CORPUS[name])
        expected = outcome(CALLS["perturbative_R_energy_4"], replace(spec))
        cumulants_perturbative(spec, "R", ENERGY, 2)
        generator, inverse = build_generator(spec), pseudo_inverse_R(spec)
        rates = build_rates(spec)
        assert generator.matrix is not build_generator(spec).matrix
        assert inverse is not pseudo_inverse_R(spec) and rates is not build_rates(spec)
        generator.matrix[:] = 7.0
        inverse[:] = 3.0
        rates.gainR = rates.lossR = ((((0.0, 0.0),) * 2,) * 2)
        assert outcome(CALLS["perturbative_R_energy_4"], spec) == expected
        assert outcome(CALLS["build_generator"], spec) == outcome(CALLS["build_generator"],
                                                                  replace(spec))


def test_threads_alternating_two_specs_get_the_single_thread_bits():
    # four threads start each round together on the same two fresh specs
    # and alternate them; the odd ones make orders 1-2 first and then
    # resume them together, so a half-made order that one of them read
    # would change its bits
    pair = (DETUNED_SPEC, seeded_leak_specs(1, seed=29)[0])
    sequences = (
        ["perturbative_R_energy_4", "perturbative_L_particle_4", "report", "pseudo_inverse",
         "direct_R_energy", "build_generator", "heat_currents", "finite_difference_R_energy_2"],
        ["report", "perturbative_L_particle_2", "perturbative_R_energy_4",
         "perturbative_L_particle_4", "pseudo_inverse", "direct_R_energy", "build_generator",
         "finite_difference_R_energy_2"],
    )
    # warnings.catch_warnings is not thread-safe: these calls record none
    expected = {(n, name): result(CALLS[name], replace(spec))
                for n, spec in enumerate(pair) for name in CALLS}
    rounds = [tuple(replace(spec) for spec in pair) for _ in range(100)]
    start = threading.Barrier(4)
    wrong, finished = [], []

    def work(offset: int):
        for objects in rounds:
            start.wait(timeout=60)
            for k, name in enumerate(sequences[offset % 2]):
                if result(CALLS[name], objects[k % 2]) != expected[k % 2, name]:
                    wrong.append((offset, k % 2, name))
        finished.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(finished) == [0, 1, 2, 3] and not wrong


#: What the memo counts per spec: rate sets, complex kernels, elimination
#: factors of the projected inverse and dressings of the sandwich rates.
TRAFFIC = ("RateSet", "steady_state", "_eliminate", "_sandwich_rates")


def benchmark_sequence(spec):
    """The scalar-api benchmark's calls on one spec, each looked up at call
    time as there (so :func:`count_calls` sees them)."""
    vf.steady_state(vf.build_generator(spec))
    vf.CurrentReport.from_spec(spec)
    vf.cumulants_perturbative(spec, "R", ENERGY, 4)
    vf.cumulants_finite_difference(spec, "R", ENERGY, 2)
    vf.rectification(spec, 0.5 * (spec.tempL + spec.tempR), spec.tempL - spec.tempR)
    if spec.gM > 0.0:
        vf.amplification(spec, spec.tempM)


@pytest.mark.parametrize("spec,counts", [
    # rectification builds 2 rate sets, and amplification 1 and its own
    # elimination factors (one exact response)
    (DETUNED_SPEC, (4, 2, 2, 2)),
    (MAX_BIAS_SPEC, (3, 2, 1, 2)),
], ids=["with_middle_bath", "two_bath"])
def test_benchmark_sequence_traffic(monkeypatch, spec, counts):
    calls = count_calls(monkeypatch, TRAFFIC)
    benchmark_sequence(replace(spec))
    # one rate set of the spec itself; the generator's kernel once for
    # steady_state(build_generator(spec)), which is never cached, and
    # once for the memo; each derivative order made once, orders 1-2 for
    # the report and 3-4 for the order-4 cumulants
    assert calls == Counter(dict(zip(TRAFFIC, counts)))


def test_report_then_cumulants_make_only_the_missing_orders(monkeypatch):
    spec = replace(DETUNED_SPEC)
    CurrentReport.from_spec(spec)
    calls = count_calls(monkeypatch, ("RateSet", "steady_state", "_eliminate",
                                      "_sandwich_rates", "_fill_block"))
    made = []
    original = fcs._recursion

    def recursion(r, h, done, order):
        made.append((len(done[0]), order))
        return original(r, h, done, order)

    monkeypatch.setattr(fcs, "_recursion", recursion)
    cumulants_perturbative(spec, "R", ENERGY, 4)
    assert made == [(2, 4)] and calls == Counter({"_sandwich_rates": 1})
    made.clear()
    calls.clear()
    cumulants_perturbative(spec, "R", ENERGY, 3)
    CurrentReport.from_spec(spec)
    assert not made and not calls


@pytest.mark.parametrize("name", ["detuned", "leak0", "near_dark_corner", "negative_zero_twin"])
def test_currents_after_a_report_read_its_kernel(monkeypatch, name):
    # the report fills the kernel; its real parts are the real columns
    spec = replace(CORPUS[name])
    fresh = [result(call, replace(spec)) for call in (heat_currents, particle_currents)]
    vflux.model._last = {}
    CurrentReport.from_spec(spec)
    calls = count_calls(monkeypatch, ("_real_columns",))
    assert [result(call, spec) for call in (heat_currents, particle_currents)] == fresh
    assert calls == Counter()


@pytest.mark.parametrize("target", ["fig3", "fig21b"])
def test_grids_neither_read_nor_fill_the_slot(monkeypatch, target):
    calls = count_calls(monkeypatch, ("_memo",))
    run(config_for_target(target))
    assert not calls and vflux.model._last == {}
