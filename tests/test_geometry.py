"""Metric families, frames, null directions, and divergence."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ZOO, frame_direction
from nulltorus import catalog, classify, geometry, nullflow
from nulltorus.errors import DegenerateMetric, FrameUndefined
from nulltorus.gridtools import grid_points
from nulltorus.tolerances import DEFAULT


def test_analex_coefficients_at_origin(analex_spec):
    """lambda_1 = 1 + sin(2 pi (x1-x2))/10 and lambda_2 = lambda_1 - 2."""
    ev = geometry.eval_metric(analex_spec, (0.0, 0.0))
    assert ev.A == pytest.approx(-1.0, abs=1e-14)
    assert ev.B == 0.0
    assert ev.C == pytest.approx(1.0, abs=1e-14)
    l1, l2 = analex_spec.lambdas(0.25, 0.0)
    assert l1 == pytest.approx(1.1, abs=1e-14)
    assert l2 == pytest.approx(-0.9, abs=1e-14)


def test_mean_coefficients_analex(analex_spec):
    l1, l2 = geometry.mean_coefficients(analex_spec)
    assert abs(l1 - 1.0) < 1e-12
    assert abs(l2 + 1.0) < 1e-12


def test_rosatau_conventions(rosatau_spec):
    # g = 2 dx1 dx2 - tau dx2^2: determinant -1 regardless of tau
    for x1 in (0.0, 0.2, 0.3, 0.44, 0.7):
        ev = geometry.eval_metric(rosatau_spec, (x1, 0.5))
        assert ev.det == pytest.approx(-1.0, abs=1e-14)
    assert rosatau_spec.tau_at(0.3) == pytest.approx(0.0, abs=1e-15)
    assert rosatau_spec.dtau_at(0.3) == pytest.approx(1.0, abs=1e-12)
    # tau vanishes identically outside the support window
    assert rosatau_spec.tau_at(0.6) == 0.0
    assert rosatau_spec.tau_at(0.05) == 0.0


def test_sanchez_null_fields(sanchez_spec):
    assert sanchez_spec.eta0 == -1
    for x1 in (0.0, 0.13, 0.37, 0.81):
        E, F, G, R = sanchez_spec.efgr(x1)
        assert E * G + F * F > 0.0
        assert R == pytest.approx(math.sqrt(E * G + F * F), abs=1e-14)
        (a1, b1), (a2, b2), _ = sanchez_spec.null_fields(x1)
        ev = geometry.eval_metric(sanchez_spec, (x1, 0.0))
        assert abs(ev.inner((a1, b1), (a1, b1))) < 1e-9 * max(1.0, a1 * a1)
        assert abs(ev.inner((a2, b2), (a2, b2))) < 1e-9


@pytest.mark.parametrize("name", ZOO)
def test_frame_is_orthonormal(name, request, rng):
    spec = request.getfixturevalue(name)
    for _ in range(25):
        p = (float(rng.random()), float(rng.random()))
        ev = geometry.eval_metric(spec, p)
        fr = geometry.orthonormal_frame(spec, p)
        assert ev.inner(fr.s1, fr.s1) == pytest.approx(-1.0, abs=1e-11)
        assert ev.inner(fr.s2, fr.s2) == pytest.approx(1.0, abs=1e-11)
        assert abs(ev.inner(fr.s1, fr.s2)) < 1e-11


@pytest.mark.parametrize("name", ZOO)
def test_null_directions_are_null(name, request, rng):
    spec = request.getfixturevalue(name)
    for _ in range(10):
        p = (float(rng.random()), float(rng.random()))
        ev = geometry.eval_metric(spec, p)
        fr = geometry.orthonormal_frame(spec, p)
        X, Y = geometry.null_directions(spec, p)
        assert abs(ev.inner(X, X)) < 1e-10
        assert abs(ev.inner(Y, Y)) < 1e-10
        # X = s1 + s2 and Y = -s1 + s2 in the canonical frame
        np.testing.assert_allclose(X, fr.x_direction, atol=1e-12)
        np.testing.assert_allclose(Y, fr.y_direction, atol=1e-12)
        assert ev.inner(X, Y) == pytest.approx(2.0, abs=1e-10)


@given(x1=st.floats(0, 1, allow_nan=False), x2=st.floats(0, 1),
       u=st.floats(0.1, 3.0), v=st.floats(0.1, 3.0))
@settings(max_examples=60, deadline=None)
def test_left_invariant_frame_property(x1, x2, u, v):
    spec = geometry.LeftInvariant(u, v)
    ev = geometry.eval_metric(spec, (x1, x2))
    fr = geometry.orthonormal_frame(spec, (x1, x2))
    assert ev.inner(fr.s1, fr.s1) == pytest.approx(-1.0, rel=1e-12)
    assert ev.inner(fr.s2, fr.s2) == pytest.approx(1.0, rel=1e-12)


def test_exact_ratio_fractions():
    assert geometry.LeftInvariant(Fraction(3, 2), Fraction(1, 2)
                                  ).exact_ratio() == Fraction(3)
    assert geometry.LeftInvariant(2, 4).exact_ratio() == Fraction(1, 2)
    assert geometry.LeftInvariant(math.sqrt(2.0), 1.0).exact_ratio() is None


def test_closedness_residual(analex_spec, wave12_spec):
    assert geometry.closedness_residual(analex_spec) < 1e-12
    assert geometry.closedness_residual(wave12_spec) < 1e-12
    assert geometry.is_closed_diagonal(analex_spec)
    assert geometry.is_closed_diagonal(wave12_spec)
    # breaking the wave's amplitude coupling breaks closedness
    bad = geometry.ClosedDiagonal(
        lambda x1, x2: 1.0 + 0.1 * np.cos(2 * np.pi * (x1 + x2)),
        lambda x1, x2: 2.0 + 0.1 * np.cos(2 * np.pi * (x1 + x2)))
    assert geometry.closedness_residual(bad) > 1e-2


def test_closedness_residual_y_sign(sqrt2_spec, analex_spec):
    """Y tests d2 lam1 - d1 lam2: anti-closed coefficients certify Y."""
    tol = DEFAULT.closedness
    assert geometry.closedness_residual(sqrt2_spec, family="Y") == 0.0
    assert geometry.closedness_residual(analex_spec, family="Y") > tol
    anti = geometry.Diagonal(
        lambda x1, x2: 1.0 + 0.1 * np.cos(2 * np.pi * (x1 + x2)),
        lambda x1, x2: 2.0 + 0.1 * np.cos(2 * np.pi * (x1 + x2)))
    assert geometry.closedness_residual(anti, family="Y") < 1e-12
    assert geometry.closedness_residual(anti, family="X") > 1e-2
    assert classify.semi_conformal_certificate(anti, "Y").kind == "analytic"
    with pytest.raises(ValueError):
        geometry.closedness_residual(anti, family="Z")


def test_closedness_residual_is_cached(analex_spec, monkeypatch):
    first = geometry.closedness_residual(analex_spec, 64, "Y")
    monkeypatch.setattr(geometry, "spectral_derivatives", None)
    assert geometry.closedness_residual(analex_spec, 64, "Y") == first


def test_validate_spec_rejects_degenerate():
    bad = geometry.Diagonal(lambda x1, x2: np.sin(2 * np.pi * x1),
                            lambda x1, x2: np.ones_like(np.asarray(x1)))
    with pytest.raises(DegenerateMetric):
        geometry.validate_spec(bad)


@pytest.mark.parametrize("name", ("analex_spec", "sanchez_spec",
                                  "rosatau_spec", "conformal_spec"))
def test_divergence_grid_matches_pointwise(name, request):
    spec = request.getfixturevalue(name)
    V = geometry.VectorField(
        lambda x1, x2: (0.4 + 0.2 * np.sin(2 * np.pi * x1),
                        -0.3 + 0.1 * np.cos(2 * np.pi * (x1 + x2))))
    n = 128
    X1, X2 = grid_points(n)
    v1, v2 = V.at(X1, X2)
    grid = geometry.divergence_grids(spec, v1, v2, n)
    for i, j in ((0, 0), (17, 3), (64, 100), (5, 90)):
        point = geometry.divergence(spec, V, (i / n, j / n))
        assert grid[i, j] == pytest.approx(point, abs=2e-5)


@pytest.mark.parametrize("name", ZOO)
def test_family_divergence_equals_connection_rate(name, request, rng):
    """div X = Gamma(X) and div Y = -Gamma(Y): the dual route used by the
    holonomy/obstruction bookkeeping."""
    spec = request.getfixturevalue(name)
    for _ in range(6):
        p = (float(rng.random()), float(rng.random()))
        for family, sign in (("X", 1.0), ("Y", -1.0)):
            d = geometry.null_direction_arrays(
                spec, np.asarray(p[0]), np.asarray(p[1]), family)
            V = geometry.VectorField(
                lambda x1, x2, fam=family: geometry.null_direction_arrays(
                    spec, x1, x2, fam))
            div = geometry.divergence(spec, V, p)
            gam = geometry.connection_along(spec, np.asarray(p[0]),
                                            np.asarray(p[1]),
                                            np.asarray(float(d[0])),
                                            np.asarray(float(d[1])))
            assert float(gam) * sign == pytest.approx(div, abs=5e-5)


def test_orientation_signs(flat_spec, rosatau_spec, analex_spec):
    assert geometry.orientation(flat_spec) == 1
    # analex has lambda_2 < 0, so its canonical frame reverses orientation,
    # as does the quasi-vertical convention of the pp-wave family
    assert geometry.orientation(analex_spec) == -1
    assert geometry.orientation(rosatau_spec) == -1


@pytest.mark.parametrize("name", ZOO)
def test_connection_grid_matches_pointwise(name, request):
    """The spectral route to (Gamma_1, Gamma_2) against connection_along."""
    spec = request.getfixturevalue(name)
    n = 128
    G1, G2 = geometry.connection_one_form_grids(spec, n)
    # measured max error 5.8e-3 on rosatau, whose tau window is steep for a
    # 128 grid (2.9e-4 at 256); at most 3.3e-9 on the other specs
    tol = 1e-2 if name == "rosatau_spec" else 1e-8
    for i, j in ((0, 0), (17, 3), (64, 100), (5, 90), (100, 37)):
        x1, x2 = np.asarray(i / n), np.asarray(j / n)
        assert G1[i, j] == pytest.approx(
            float(geometry.connection_along(spec, x1, x2, 1.0, 0.0)), abs=tol)
        assert G2[i, j] == pytest.approx(
            float(geometry.connection_along(spec, x1, x2, 0.0, 1.0)), abs=tol)


def test_cached_grids_are_read_only(analex_spec):
    a1 = geometry.frame_grids(analex_spec, 64)[0]
    with pytest.raises(ValueError):
        a1[0, 0] = 2.0
    assert geometry.frame_grids(analex_spec, 64)[0][0, 0] != 2.0


@pytest.mark.parametrize("name", ZOO)
def test_null_direction_is_the_frame_sum_bitwise(name, request):
    """Each family's own X/Y components equal the frame sums bit for bit,
    in value and in shape, on every point layout the flow code uses."""
    spec = request.getfixturevalue(name)
    w = np.arange(2048) / 2048
    X1, X2 = grid_points(64)
    layouts = ((0.3, 0.7), (0.3, w), (w, 0.3), (X1, X2))
    for family in ("X", "Y"):
        for x1, x2 in layouts:
            got = geometry.null_direction_arrays(spec, x1, x2, family)
            want = frame_direction(spec, x1, x2, family)
            for g, f in zip(got, want):
                assert np.shape(g) == np.shape(f)
                assert np.array_equal(g, f)
    fr = geometry.orthonormal_frame(spec, (0.3, 0.7))
    X, Y = geometry.null_directions(spec, (0.3, 0.7))
    assert np.array_equal(X, np.array(fr.x_direction))
    assert np.array_equal(Y, np.array(fr.y_direction))
    with pytest.raises(ValueError):
        geometry.null_direction_arrays(spec, 0.3, 0.7, "Z")


def test_direction_guards_survive():
    """A vanishing lam1 and a tau below -2 still fail loudly on the flow
    path, not with an infinite slope."""
    degenerate = geometry.Diagonal(lambda x1, x2: np.sin(2 * np.pi * x1),
                                   lambda x1, x2: 1.0 + 0 * x2)
    for family in ("X", "Y"):
        with pytest.raises(DegenerateMetric):
            geometry.null_direction_arrays(degenerate, 0.0, 0.3, family)
        with pytest.raises(DegenerateMetric):
            nullflow.integrate_null_line(degenerate, (0.1, 0.2), family,
                                         t_max=1.0)
    deep = geometry.RosaTau(lambda x: 3.0 * np.cos(2 * np.pi * x))
    for family in ("X", "Y"):
        with pytest.raises(FrameUndefined):
            geometry.null_direction_arrays(deep, 0.5, 0.3, family)
        with pytest.raises(FrameUndefined):
            nullflow.integrate_null_line(deep, (0.1, 0.2), family, t_max=1.0)


@pytest.mark.parametrize("exact, decimal", [
    ("analex:c=5/2", "analex:c=2.5"),
    ("closed_diagonal:3/2,1,amp=1/10", "closed_diagonal:1.5,1,amp=0.1")])
def test_fraction_parameters_give_float_profiles(exact, decimal):
    """A fraction in the shorthand gives the float metric bit for bit: float
    lam values, at one point and on a grid, and the same null directions."""
    a, b = catalog.load_metric(exact), catalog.load_metric(decimal)
    X1, X2 = grid_points(64)
    for x1, x2 in ((np.float64(0.3), np.float64(0.7)), (X1, X2)):
        for got, want in zip(a.lambdas(x1, x2), b.lambdas(x1, x2)):
            assert np.asarray(got).dtype == np.float64
            assert np.array_equal(got, want)
        for family in ("X", "Y"):
            for got, want in zip(
                    geometry.null_direction_arrays(a, x1, x2, family),
                    geometry.null_direction_arrays(b, x1, x2, family)):
                assert np.asarray(got).dtype == np.float64
                assert np.array_equal(got, want)
    assert all(np.array_equal(p, q) for p, q in
               zip(geometry.null_directions(a, (0.3, 0.7)),
                   geometry.null_directions(b, (0.3, 0.7))))


def test_sanchez_fraction_parameter_gives_float_coefficients():
    """analex_sanchez:c=5/2 keeps c as a float, as analex does: float64 E,
    F and G, and the grids of c=2.5 bit for bit."""
    a = catalog.load_metric("analex_sanchez:c=5/2")
    b = catalog.load_metric("analex_sanchez:c=2.5")
    x = np.linspace(0.0, 1.0, 9)
    for name in ("E", "F", "G"):
        assert getattr(a, name)(x).dtype == np.float64
    X1, X2 = grid_points(64)
    for got, want in zip(geometry.coefficients(a, X1, X2),
                         geometry.coefficients(b, X1, X2)):
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
    assert a.zeros == b.zeros


@pytest.mark.parametrize("shorthand, family, params", [
    ("flat", "flat", {}),
    ("left_invariant:3/2,sqrt2", "left_invariant",
     {"lam1": "3/2", "lam2": "sqrt2"}),
    ("analex:c=5/2", "analex", {"c": 2.5}),
    ("analex_sanchez:c=2", "analex_sanchez", {"c": 2}),
    ("rosatau:zero=0.3125,amplitude=1.1", "rosatau",
     {"zero": 0.3125, "amplitude": 1.1}),
    ("closed_diagonal:1,2,amp=0.1,k=1,l=2", "closed_diagonal",
     {"base1": 1, "base2": 2, "amp": 0.1, "k": 1, "l": 2}),
    # no shorthand reaches a nested inner, so the JSON text spells it
    ('{"family":"conformal_rescale","params":{"inner":{"family":"analex",'
     '"params":{"c":"5/2"}},"factor":{"amp":"1/4","k":2.0,"phase":0}}}',
     "conformal_rescale", {"inner": {"family": "analex", "params": {"c": 2.5}},
                           "factor": {"amp": 0.25, "k": 2, "phase": 0.0}})])
def test_shorthand_and_json_build_the_same_metric(shorthand, family, params):
    """One family table: the shorthand and the JSON spelling of a metric
    build equal specs with equal hashes and the same coefficient grids,
    bit for bit."""
    a = catalog.load_metric(shorthand, grid_n=32)
    b = catalog.load_metric({"family": family, "params": params,
                             "grid_n": 32})
    assert a.grid_n == b.grid_n == 32
    assert a == b and hash(a) == hash(b)
    X1, X2 = grid_points(32)
    for got, want in zip(geometry.coefficients(a, X1, X2),
                         geometry.coefficients(b, X1, X2)):
        assert np.array_equal(got, want)


#: (family, params, variants): each variant changes one parameter
FAMILY_PARAMS = [
    ("flat", {}, []),
    ("left_invariant", {"lam1": 1, "lam2": 2}, [{"lam1": 3}, {"lam2": 3}]),
    ("analex", {"c": 2.5}, [{"c": 3}]),
    ("analex_sanchez", {"c": 2}, [{"c": 2.5}]),
    ("rosatau", {"support": [0.15, 0.45], "zero": 0.3, "amplitude": 1.0},
     [{"support": [0.1, 0.45]}, {"support": [0.15, 0.5]}, {"zero": 0.31},
      {"amplitude": 0.9}]),
    ("closed_diagonal", {"base1": 1, "base2": 2, "amp": 0.1, "k": 1, "l": 2},
     [{"base1": 3}, {"base2": 3}, {"amp": 0.2}, {"k": 2}, {"l": 1}]),
    ("conformal_rescale",
     {"inner": {"family": "analex"},
      "factor": {"amp": 0.2, "k": 1, "l": 2, "phase": 0.5}},
     [{"inner": {"family": "analex", "params": {"c": 2.5}}},
      {"inner": {"family": "analex", "grid_n": 128}}]
     + [{"factor": {"amp": 0.2, "k": 1, "l": 2, "phase": 0.5, key: value}}
        for key, value in (("amp", 0.3), ("k", 2), ("l", 1),
                           ("phase", 0.6))]),
]


def test_family_params_cover_the_table():
    assert sorted(family for family, _, _ in FAMILY_PARAMS) == sorted(
        catalog.FAMILIES)


@pytest.mark.parametrize("family, params, variants", FAMILY_PARAMS,
                         ids=[family for family, _, _ in FAMILY_PARAMS])
def test_specs_compare_by_their_parameters(family, params, variants):
    """Two builds of one metric, in either spelling, are equal with equal
    hashes; changing one parameter or grid_n makes them unequal."""
    def build(source, grid_n=None):
        return catalog.load_metric(source, grid_n=grid_n)

    doc = {"family": family, "params": params}
    a = build(doc)
    for b in (build(doc), build(json.dumps(doc)), build(doc, grid_n=256)):
        assert a == b and hash(a) == hash(b) and a is not b
    assert a != build(doc, grid_n=128)
    for change in variants:
        assert a != build({"family": family, "params": {**params, **change}})


def test_equal_builds_share_the_grid_caches():
    """A second, equal build hits the connection grids of the first."""
    info = geometry.connection_one_form_grids.cache_info
    for source in ("rosatau:zero=0.3125", "analex_sanchez:c=5/2",
                   "closed_diagonal:1,3,amp=0.07,k=2"):
        first = geometry.connection_one_form_grids(
            catalog.load_metric(source, grid_n=16), 16)
        hits = info().hits
        again = geometry.connection_one_form_grids(
            catalog.load_metric(source, grid_n=16), 16)
        assert info().hits == hits + 1 and again is first


def test_sanchez_frame_evaluates_efgr_once(monkeypatch):
    spec = catalog.analex_sanchez()
    calls = []
    efgr = geometry.Sanchez.efgr

    def counting(self, x1):
        calls.append(1)
        return efgr(self, x1)

    monkeypatch.setattr(geometry.Sanchez, "efgr", counting)
    X1, X2 = grid_points(16)
    geometry.null_direction_arrays(spec, X1, X2, "X")   # fixes frame_signs
    for family in ("X", "Y"):
        calls.clear()
        geometry.null_direction_arrays(spec, X1, X2, family)
        assert len(calls) == 1
