"""Metric families, frames, null directions, and divergence."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ZOO, count_transforms, frame_direction
from nulltorus import catalog, classify, geometry, nullflow
from nulltorus.errors import DegenerateMetric, FrameUndefined
from nulltorus.gridtools import grid_points, spectral_derivatives
from nulltorus.spin import SpinStructure
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


@pytest.mark.parametrize("n", (63, 64, 512))
def test_phaseless_means_are_correctly_rounded(n):
    """A Diagonal has no phase, so its means come from the n x n grid; as
    correctly rounded sums they are the exact integer means of analex and
    of the waves (a float-order sum of column means gave l1 =
    0.9999999999999999 on analex at 512 and 3.0000000000000004 on a wave
    at 63)."""
    for spec, exact in ((catalog.analex(), (1.0, -1.0)),
                        *((catalog.closed_diagonal_wave(3.0, 5.0, amp=0.2,
                                                        k=k, l=l), (3.0, 5.0))
                          for k, l in ((1, 1), (1, 2), (2, 1), (4, -6)))):
        def lam(i, spec=spec):
            return lambda x1, x2: spec.lambdas(x1, x2)[i]
        diagonal = geometry.Diagonal(lam(0), lam(1), grid_n=n)
        assert diagonal.phase() is None
        assert geometry.mean_coefficients(diagonal) == exact


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
    bad = geometry.Diagonal(
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
    monkeypatch.setattr(geometry, "spectral_derivative", None)
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
def test_divergence_grids_keeps_the_bits_of_both_partials(name, request):
    """One partial of each component, each by a transform pair along its
    own axis: the same bits as taking both partials of each and dropping
    one."""
    spec = request.getfixturevalue(name)
    n = 64
    X1, X2 = grid_points(n)
    v1, v2 = (np.broadcast_to(v, (n, n)) for v in
              geometry.null_direction_arrays(spec, X1, X2, "Y"))
    dld1, dld2 = geometry._log_det_partials(spec, n)
    both = (spectral_derivatives(v1)[0] + spectral_derivatives(v2)[1]
            + 0.5 * (v1 * dld1 + v2 * dld2))
    assert np.array_equal(geometry.divergence_grids(spec, v1, v2, n), both)


@given(k=st.integers(-60, 60), l=st.integers(-60, 60))
@example(k=0, l=1)
@example(k=0, l=-1)
@example(k=-1, l=0)
@example(k=-7, l=-5)
@settings(max_examples=200, deadline=None)
def test_lattice_basis(k, l):
    """det A = 1 and (k, l) A = (1, 0) for every primitive (k, l);
    ValueError for the others."""
    if math.gcd(k, l) != 1:
        with pytest.raises(ValueError):
            geometry.lattice_basis(k, l)
        return
    (a, b), (c, d) = geometry.lattice_basis(k, l)
    assert a * d - b * c == 1
    assert (k * a + l * c, k * b + l * d) == (1, 0)


@pytest.mark.parametrize("name", ("sanchez_spec", "rosatau_spec"))
def test_killing_metrics_name_the_identity_basis(name, request):
    """Coefficients of x1 alone are of phase (1, 0), whose lattice basis is
    the identity: both null families of an x1-only metric take the
    quadrature in the coordinates they are given in."""
    spec = request.getfixturevalue(name)
    assert spec.phase() == (1, 0)
    assert geometry.lattice_basis(*spec.phase()) == ((1, 0), (0, 1))
    for family in ("X", "Y"):
        flow = nullflow._lattice_flow(spec, family, DEFAULT)
        assert flow.A == ((1, 0), (0, 1))


def test_single_phase_pullback_is_x1_only():
    """Every catalog family with a phase (all but the conformal rescaling)
    depends on it alone: along A = lattice_basis(phase), the coefficients
    at A (y1, y2) do not depend on y2.  The SCF rule and the lattice
    quadrature both rest on this."""
    metrics = ["flat", "left_invariant:1,2", "analex", "analex_sanchez",
               "rosatau", "closed_diagonal:1,2",
               "closed_diagonal:3,5,amp=0.2,k=4,l=-6",
               "closed_diagonal:6,8,amp=0.9748,k=2,l=3"]
    assert ({m.partition(":")[0] for m in metrics}
            == set(catalog.FAMILIES) - {"conformal_rescale"})
    y1, y2 = grid_points(16)
    for metric in metrics:
        spec = catalog.load_metric(metric)
        (a, b), (c, d) = geometry.lattice_basis(*spec.phase())
        for g in geometry.coefficients(spec, a * y1 + b * y2,
                                       c * y1 + d * y2):
            g = np.broadcast_to(g, y1.shape)
            assert np.max(np.abs(g - g[:, :1])) < 1e-12, metric


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


def test_phase_specs_build_their_grids_on_the_phase_line(monkeypatch):
    """A spec with a phase takes its derivative pairs (of a1, a2, A, B and
    C, where not constant) as 1-D transforms: none on a left-invariant
    metric, whose Gamma comes out as exact zeros, and one rfft and one
    irfft each for analex's a1, A and C.  A conformal analex has no grid
    phase and keeps its three 2-D pairs, each partial a 1-D rfft/irfft
    pair along its own axis."""
    calls = count_transforms(monkeypatch)

    def build(spec):
        calls.clear()
        geometry._phase_line.cache_clear()     # a line keeps its Gamma
        return geometry.connection_one_form_grids.__wrapped__(spec, 64)

    for spec in (catalog.left_invariant(2, 5), catalog.flat()):
        G1, G2 = build(spec)
        assert not calls
        assert not np.any(G1) and not np.any(G2)
    build(catalog.analex())
    assert calls == {"rfft": 3, "irfft": 3}
    build(catalog.conformal(catalog.analex(), catalog.exp_sine_factor()))
    assert calls == {"rfft": 6, "irfft": 6, "plane": 12}


def _phase_shapes():
    """One spec of every ``catalog.FAMILIES`` shape with a phase."""
    return (catalog.flat(), catalog.left_invariant(2, 5), catalog.analex(),
            catalog.analex_sanchez(), catalog.rosatau_window(),
            catalog.closed_diagonal_wave(1.0, 2.0, amp=0.08),
            catalog.closed_diagonal_wave(3.0, 5.0, amp=0.2, k=4, l=-6),
            catalog.closed_diagonal_wave(2.0, 3.0, amp=0.1, k=1, l=2))


@pytest.mark.parametrize("n", (63, 64, 256))
def test_phase_line_grids_are_read_only_views_of_the_samples(n):
    """Every grid of a spec with a phase equals its line samples gathered
    by the index (k i + l j) mod n, bit for bit, and refuses writes: its
    points share memory.  So do the first integral's grid and phases."""
    i = np.arange(n)
    for spec in _phase_shapes():
        line = geometry._phase_line(spec, n)
        index = (line.k * i[:, None] + line.l * i) % n
        pairs = ((geometry.coefficient_grids, line.coefficients),
                 (geometry.frame_grids, line.frame),
                 (geometry.connection_one_form_grids, line.connection_form),
                 (geometry._log_det_partials, line.log_det_partials))
        for build, samples in pairs:
            grids = build(spec, n)
            assert len(grids) == len(samples)
            for grid, v in zip(grids, samples):
                assert np.array_equal(grid, v[index])
                with pytest.raises(ValueError):
                    grid[0, 0] = 0.0
        if not geometry.is_closed_diagonal(spec):
            continue
        F = nullflow.first_integral_function(spec, n)
        x = i / n
        G = F._phase_osc.on_grid(n).real
        osc1 = G[index]
        assert np.array_equal(F.grid(), (
            np.multiply.outer(x, F._mean1.on_grid(n).real)
            + (osc1 - osc1[0]) - F._lam2_integral(x)))
        structure, alpha = SpinStructure(-1, 1), 0.37
        [factors] = F.phase_fields((alpha,), structure)
        phases = factors.grid(spec)
        turn = 2j * np.pi * alpha
        col = (np.exp(turn * F.quasi_periods[0] * x)
               * np.conj(structure.twist(x, 0.0)))
        row = (np.exp(-turn * (G[index[0]] + F._lam2_integral(x)))
               * np.conj(structure.twist(0.0, x)))
        want = np.exp(turn * G)[index]
        want *= col[:, None]
        want *= row
        assert np.array_equal(phases, want)
        with pytest.raises(ValueError):
            phases[0, 0] = 0.0


@pytest.mark.parametrize("n", (63, 64, 256))
def test_phase_line_grids_match_the_plane_route(n, monkeypatch):
    """Every catalog shape with a phase: coefficients and frame from its
    phase line agree with the n x n evaluation to a few ulps (measured at
    most 9, on the (4, -6) wave at 63), and Gamma with the 2-D spectral
    route within 1e-11 max|Gamma| (measured at most 1.1e-12)."""
    grids = (geometry.coefficient_grids, geometry.frame_grids,
             geometry.connection_one_form_grids)
    builds = [f.__wrapped__ for f in grids]
    for spec in _phase_shapes():
        assert spec.phase() is not None
        coeffs, frame, gamma = (build(spec, n) for build in builds)
        with monkeypatch.context() as plane_route:
            plane_route.setattr(geometry, "_phase_line", lambda spec, n: None)
            want_coeffs, want_frame, want_gamma = (build(spec, n)
                                                   for build in builds)
        for got, want in zip(coeffs + frame, want_coeffs + want_frame):
            ulp = np.spacing(max(1.0, float(np.max(np.abs(want)))))
            assert np.max(np.abs(got - want)) <= 16 * ulp
        scale = max(float(np.max(np.abs(g))) for g in want_gamma)
        for got, want in zip(gamma, want_gamma):
            assert np.max(np.abs(got - want)) <= 1e-11 * max(scale, 1e-300)


def test_phase_claims_hold_off_the_phase_line(rng):
    """What every phase-line route trusts: a spec of phase (k, l) takes at
    random points x the values it takes at the phase-line point
    A (k x1 + l x2, 0) mod 1, coefficients (and lam1, lam2 of a diagonal
    spec) to 1e-12 of their size."""
    for spec in _phase_shapes():
        k, l = spec.phase()
        (a, _), (c, _) = geometry.lattice_basis(k, l)
        x1, x2 = rng.random(200), rng.random(200)
        phase = (k * x1 + l * x2) % 1.0
        line = ((a * phase) % 1.0, (c * phase) % 1.0)
        pairs = [(geometry.coefficients(spec, x1, x2),
                  geometry.coefficients(spec, *line))]
        if geometry.is_diagonal(spec):
            pairs.append((spec.lambdas(x1, x2), spec.lambdas(*line)))
        for got, want in pairs:
            for g, w in zip(got, want):
                scale = max(1.0, float(np.max(np.abs(w))))
                assert np.max(np.abs(g - w)) <= 1e-12 * scale


@pytest.mark.parametrize("n", (63, 64, 256))
def test_phase_line_log_det_partials_are_exact(n):
    """On the waves, d log|det g| = 2 dlam1/lam1 + 2 dlam2/lam2 from the
    analytic partials.  The phase line meets it to 1e-11 of its size; the
    2-D route misses it by 5.8e-7 at 64 on the (4, -6) wave, whose high
    phase harmonics alias onto wrong 2-D wavenumbers."""
    X1, X2 = grid_points(n)
    for spec in _phase_shapes()[-3:]:
        l1, l2 = spec.lambdas(X1, X2)
        d11, d21, d12, d22 = spec.lambda_partials(X1, X2)
        exact = (2 * d11 / l1 + 2 * d12 / l2, 2 * d21 / l1 + 2 * d22 / l2)
        scale = max(float(np.max(np.abs(e))) for e in exact)
        for got, want in zip(geometry._log_det_partials(spec, n), exact):
            assert np.max(np.abs(got - want)) <= 1e-11 * scale


def test_conformal_grids_keep_the_plane_route():
    """A conformal rescaling takes no phase line, even when its inner
    metric has one."""
    spec = catalog.conformal(catalog.analex(), catalog.exp_sine_factor())
    assert geometry._phase_line(spec, 64) is None
    X1, X2 = grid_points(64)
    assert all(np.array_equal(got, want) for got, want in zip(
        geometry.frame_grids(spec, 64),
        geometry.frame_component_arrays(spec, X1, X2)))


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
