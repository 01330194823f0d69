"""Acceptance gate: every suite criterion at its stated tolerance.

Each test runs one criterion and prints its one-line verdict; run with
``pytest -s tests/test_acceptance.py`` to see the lines as they complete.
Criterion 9 runs once for the tests that share its result.  It expects
the pp-wave kernel pattern that the spin character forces: the closed
vertical lines wind (0, 1), so the structures with a2 = +1 carry a
transport-trivial band and an infinite kernel, while the two with
a2 = -1 see character -1 on every closed line and their kernels are empty.
The companion tests pin that table, derive it again from the flow alone,
and check that the criterion still rejects an "Infinite for all four"
table.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from nulltorus import (catalog, classify, nullflow, spin, spinorfield,
                       validation)
from nulltorus.spin import STRUCTURES, SpinStructure
from nulltorus.tolerances import DEFAULT

_NAMES = {idx: name for idx, name, _ in validation.SUITE}


@pytest.fixture(scope="module")
def ppwave_result():
    return validation.run_criterion(9)


@pytest.mark.parametrize(
    "index", [i for i, _, _ in validation.SUITE if i != 9],
    ids=[f"{i:02d}-{name}" for i, name, _ in validation.SUITE if i != 9])
def test_criterion(index):
    r = validation.run_criterion(index)
    print(r.line)
    assert r.passed, r.line


def test_criterion_09_as_stated(ppwave_result):
    r = ppwave_result
    print(r.line)
    assert r.passed, r.line


def test_criterion_09_measured_structure(ppwave_result):
    """The facts the pp-wave criterion actually certifies on this torus."""
    m = ppwave_result.measured
    assert m["blowup"] is True
    assert m["worst_residual"] < 1e-6
    assert m["max_overlap"] == 0.0
    assert m["values"] == {"(1, 1)": "Infinite", "(1, -1)": "Zero",
                           "(-1, 1)": "Infinite", "(-1, -1)": "Zero"}
    assert m["certificates"]["(1, 1)"] == "XTrivialResonant"
    assert m["certificates"]["(1, -1)"] == "NoXTrivialResonant"
    assert m["winding"] == (0, 1)
    assert m["expected"] == m["values"]


def test_criterion_09_rejects_all_infinite(monkeypatch):
    """A table claiming Infinite for all four structures fails criterion 9."""
    def all_infinite(spec, quantities, tol):
        cell = SimpleNamespace(value="Infinite", certificate="XTrivialResonant")
        return {ab: {q: cell for q in quantities} for ab in STRUCTURES}

    monkeypatch.setattr(classify, "classify_table", all_infinite)
    r = validation.run_criterion(9)
    print(r.line)
    assert r.measured["expected"] == {"(1, 1)": "Infinite", "(1, -1)": "Zero",
                                      "(-1, 1)": "Infinite",
                                      "(-1, -1)": "Zero"}
    assert r.measured["blowup"] is True
    assert r.measured["worst_residual"] < 1e-6
    assert r.passed is False


def test_criterion_09_verdicts_are_forced():
    """Independent evidence that the dimension pattern above is correct.

    Every closed line of the quasi-vertical family winds (0, 1): any
    candidate kernel element must be periodic along a loop where the
    a2 = -1 structures flip sign, so those kernels vanish; and the
    explicit disjoint bump sections witness Infinite where a2 = +1.
    """
    spec = catalog.rosatau_window()
    dec = nullflow.cylinder_decomposition(spec, "X")
    [table] = spin.holonomy_table(spec, "X", dec.isolated_closed[:1],
                                  dec.rotation)
    assert table[(1, 1)].winding == (0, 1)
    assert SpinStructure(1, -1).character((0, 1)) == -1
    assert SpinStructure(-1, -1).character((0, 1)) == -1
    fields = spinorfield.construct_resonant_spinors(
        spec, SpinStructure(-1, 1), count=3, grid_n=1024)
    assert len(fields) == 3
    for f in fields:
        assert spinorfield.residual_norm(f, "harmonic") < 1e-6


@pytest.mark.parametrize("overrides,expected", [
    ({}, {"step": 5e-3, "grid_n": 2048}),
    ({"step": 1e-2, "grid_n": 64}, {"step": 1e-2, "grid_n": 64}),
])
def test_criterion_09_honours_overrides(monkeypatch, overrides, expected):
    """validate --step/--grid-n reach the completeness probe and the bumps."""
    seen = {}

    def probe(*args, **kwargs):
        seen["step"] = kwargs["tol"].ode_step

    def bumps(*args, **kwargs):
        seen["grid_n"] = kwargs["grid_n"]
        return ()

    row = {"delta_plus": SimpleNamespace(value="Zero", certificate="-")}
    monkeypatch.setattr(nullflow, "probe_completeness", probe)
    monkeypatch.setattr(classify, "classify_table",
                        lambda *a, **k: {ab: row for ab in STRUCTURES})
    monkeypatch.setattr(validation, "_ppwave_expectation",
                        lambda *a, **k: ((0, 1), {}, {}))
    monkeypatch.setattr(spinorfield, "construct_resonant_spinors", bumps)
    validation.run_criterion(9, **overrides)
    assert seen == expected


@pytest.mark.parametrize("sweep, marched", [
    (lambda tol: spinorfield.construct_resonant_spinors(
        catalog.analex(), SpinStructure(1, 1), grid_n=32, tol=tol), False),
    (lambda tol: spinorfield.construct_resonant_spinors(
        catalog.rosatau_window(), SpinStructure(1, 1), grid_n=32, tol=tol),
     False),
    (lambda tol: validation.criterion_flat_holonomy(None, None, tol), False),
    (lambda tol: validation._ppwave_expectation(catalog.rosatau_window(),
                                                tol), True),
], ids=["closed-diagonal-bumps", "rosatau-bumps", "criterion-04",
        "ppwave-expectation"])
def test_ode_step_reaches_every_sweep(monkeypatch, sweep, marched):
    """Every RK4 march of these callers runs at the given tol.ode_step, and
    records its line at that step; the callers on the lattice quadrature
    march nothing and record no line."""
    steps, records = set(), []
    march = nullflow._march
    init = nullflow.NullLineRecord.__init__

    def spy(*args, **kwargs):
        steps.add(args[6])
        return march(*args, **kwargs)

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        records.append(self)

    monkeypatch.setattr(nullflow, "_march", spy)
    monkeypatch.setattr(nullflow.NullLineRecord, "__init__", recorded)
    sweep(DEFAULT.with_(ode_step=2e-3))
    if marched:
        assert steps == {2e-3} and records
    else:
        assert steps == set() and not records
    for rec in records:
        assert np.allclose(np.diff(rec.ts), 2e-3, rtol=1e-9, atol=0.0)
