"""Flatness certificates, mass functionals, and the dimension classification.

Exits of ``classify.semi_conformal_certificate`` and their witnesses:

* closed diagonal coefficients: analytic certificate
  (``test_certificate_closed_diagonal_analytic``);
* Killing rule (coefficients of x1 alone): the graph family certifies
  (``test_certificate_sanchez_sides``, ``test_certificate_rosatau_sides``);
  the other family certifies when its f vanishes identically or nowhere
  (``test_analytic_certificate_witness``), is NotSCF at a simple zero
  (``test_certificate_sanchez_analytic_obstruction``,
  ``test_certificate_rosatau_zero_on_a_sample``) and defers to the numeric
  route on bands and flat zeros
  (``test_killing_rule_defers_to_the_loop_integrals``);
* conformal rescalings: the inner certificate over the factor
  (``test_certificate_conformal_invariance``) or the inner NotSCF
  (``test_certificate_conformal_propagates_obstruction``);
* lattice route (a diagonal metric of one phase, through the Killing rule
  on its pullback): a "lattice" certificate
  (``test_lattice_certificate_is_a_multiple_of_the_rescaling_field``,
  ``test_lattice_route_corrects_a_birkhoff_misread``), or None, handing
  over to the numeric route, when the pulled-back rule is NotSCF, F(0) = 0
  leaves eta0 undefined (DegenerateMetric), or a wrong phase makes the
  pushed field miss ``scf_certificate`` (Inconclusive)
  (``test_lattice_route_declines``).  No test reaches the None of a
  deferring rule, of a pullback with no matching family, or of a pushed
  field that fails the parallelism check;
* numeric route, entered directly by the tests of its certificates:
  NotSCF from loop integrals over sampled closed lines
  (``test_killing_rule_defers_to_the_loop_integrals``), Inconclusive
  between the thresholds
  (``test_loop_integral_between_thresholds_is_inconclusive``) or on a NaN
  (``test_loop_test_refuses_nan``), a rescaling certificate after closed
  lines (``test_certificate_numeric_rescaling_route``) or after the
  weighted Birkhoff average of a dense line
  (``test_numeric_route_sweeps_the_seeds_once[wave12]``), and Inconclusive
  when LSQR stalls (``test_stalled_transport_solve_names_lsqr_stop``).

A candidate field that misses ``scf_certificate`` is Inconclusive, a NaN
residual included (``test_certify_refuses_nan``).  No test reaches the
Inconclusive of a family without a graph axis.

Exits of ``classify._verdict``: DenseLine (``test_classify_dense_table``),
XTrivialResonant and NoXTrivialResonant (``test_classify_rosatau_table``),
NoXTrivialResonant with a caveat on the trivial structure
(``test_cross_validate_needs_exact_solver``).  No test reaches either
NonResonant exit.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import ZOO
from nulltorus import (catalog, classify, geometry, nullflow, spin,
                       spinorfield)
from nulltorus.errors import (DegenerateMetric, Inconclusive, NotHarmonic,
                              NotSCF)
from nulltorus.gridtools import grid_points, mollifier, torus_delta
from nulltorus.spin import SpinStructure, all_structures
from nulltorus.tolerances import DEFAULT


# ---------------------------------------------------------------------------
# semi-conformal flatness certificates


def test_certificate_closed_diagonal_analytic(analex_spec):
    cert = classify.semi_conformal_certificate(analex_spec, "X")
    assert cert.kind == "analytic"
    assert cert.residual < 1e-8
    # the certified field spans the X-line field pointwise
    for p in [(0.0, 0.0), (0.31, 0.77), (0.62, 0.05)]:
        v1, v2 = cert.field.at(*p)
        X, _ = geometry.null_directions(analex_spec, p)
        assert abs(v1 * X[1] - v2 * X[0]) < 1e-12


def test_certificate_sanchez_sides(sanchez_spec):
    cert = classify.semi_conformal_certificate(sanchez_spec, "Y")
    assert cert.kind == "analytic"
    assert cert.residual < 1e-8
    # the other family is obstructed by the simple zeros of the coefficient
    # in front of d1: each carries loop integral |G'/w| = 0.4 pi of div(X)
    with pytest.raises(NotSCF) as exc:
        classify.semi_conformal_certificate(sanchez_spec, "X")
    assert exc.value.obstruction == pytest.approx(0.4 * np.pi, rel=1e-3)
    assert 4 * exc.value.location == pytest.approx(
        round(4 * exc.value.location), abs=1e-3)


@pytest.fixture()
def analytic_only(monkeypatch):
    """Fail any test that falls through to the numeric loop-integral route."""
    def numeric(*args, **kwargs):
        raise AssertionError("numeric route taken")

    monkeypatch.setattr(classify, "_numeric_analysis", numeric)


def test_certificate_sanchez_analytic_obstruction(sanchez_spec, analytic_only):
    """The G-zeros sit on the sampling grid; the closed form still sees them."""
    with pytest.raises(NotSCF) as exc:
        classify.semi_conformal_certificate(sanchez_spec, "X")
    assert exc.value.obstruction == pytest.approx(0.4 * np.pi, rel=1e-8)
    assert exc.value.location in sanchez_spec.zeros


def test_certificate_rosatau_zero_on_a_sample(analytic_only):
    """zero = 0.3125 = 2560/8192 is a sample of the analytic check."""
    spec = catalog.rosatau_window(zero=0.3125)
    with pytest.raises(NotSCF) as exc:
        classify.semi_conformal_certificate(spec, "X")
    assert exc.value.location == 0.3125
    # loop integral tau'(x0)/2 of the closed line at the zero
    assert exc.value.obstruction == pytest.approx(
        float(spec.dtau_at(np.asarray(0.3125))) / 2, rel=1e-12)


def test_certificate_rosatau_sides(rosatau_spec):
    cert = classify.semi_conformal_certificate(rosatau_spec, "Y")
    assert cert.kind == "analytic"
    v1, v2 = cert.field.at(0.2, 0.9)
    assert (v1, v2) == (-1.0, 0.0)
    # tau has a simple zero of unit slope: loop integral 1/2 obstructs X
    with pytest.raises(NotSCF) as exc:
        classify.semi_conformal_certificate(rosatau_spec, "X")
    assert exc.value.obstruction == pytest.approx(0.5, abs=1e-6)
    assert exc.value.location == pytest.approx(0.3, abs=1e-6)


@pytest.mark.parametrize("name, zeros", [
    ("rosatau_spec", ()),
    ("sanchez_spec", (0.0, 0.25, 0.5, 0.75))])
def test_killing_obstruction_is_twice_the_holonomy_boost(name, zeros,
                                                         request):
    """The closed vertical line at a simple zero of g22 carries loop integral
    |Gamma^2_22| of div(X) and spin holonomy boost of half of it: the RK4 and
    Simpson route along each line (the obstructed one, and every zero of G)
    against the closed form."""
    spec = request.getfixturevalue(name)
    with pytest.raises(NotSCF) as exc:
        classify.semi_conformal_certificate(spec, "X")
    rotation = nullflow.rotation_number(spec, "X").rational
    seeds = sorted({exc.value.location, *zeros})
    for w, rec in zip(seeds, nullflow.closed_lines_through(spec, "X", seeds,
                                                           rotation)):
        boost = spin.holonomy_table(spec, rec)[(1, 1)].boost
        assert abs(abs(boost) - exc.value.obstruction / 2) < 1e-6, w


def test_certificate_conformal_invariance(analex_spec, conformal_spec):
    cert = classify.semi_conformal_certificate(conformal_spec, "X")
    assert cert.kind == "conformal"
    assert cert.residual < 1e-8
    # inner certificate divided by the factor
    inner = classify.semi_conformal_certificate(analex_spec, "X")
    p = (0.41, 0.13)
    lam = float(conformal_spec.factor_at(*p))
    assert np.allclose(cert.field.at(*p),
                       np.asarray(inner.field.at(*p)) / lam)


def _tau_cosine(x1):
    return 0.5 + 0.2 * np.cos(2 * np.pi * np.asarray(x1))


def _dtau_cosine(x1):
    return -0.4 * np.pi * np.sin(2 * np.pi * np.asarray(x1))


@pytest.mark.parametrize("make", [
    # G has no zero at c = 2.5: the X1/(G R) field
    lambda: catalog.analex_sanchez(c=2.5),
    # tau vanishes identically: the (0, 1) field
    lambda: catalog.rosatau_window(amplitude=0.0),
    # tau nowhere zero: the (1, 2/tau) field
    lambda: geometry.RosaTau(_tau_cosine, dtau=_dtau_cosine),
    # the same, with tau' from RosaTau's central-difference fallback
    lambda: geometry.RosaTau(_tau_cosine)],
    ids=["sanchez-x1-over-gr", "rosatau-zero-tau", "rosatau-two-over-tau",
         "rosatau-central-difference"])
def test_analytic_certificate_witness(make, analytic_only):
    spec = make()
    cert = classify.semi_conformal_certificate(spec, "X")
    assert cert.kind == "analytic"
    assert cert.residual < DEFAULT.scf_certificate
    for p in [(0.1, 0.2), (0.37, 0.81), (0.66, 0.05), (0.9, 0.45)]:
        assert geometry.divergence(spec, cert.field, p) == pytest.approx(
            0.0, abs=1e-8)


def test_sanchez_certificate_evaluates_efgr_once(sanchez_spec, monkeypatch):
    """The X2/R field reads E, F, G and R from one efgr call."""
    cert = classify.semi_conformal_certificate(sanchez_spec, "Y")
    calls = []
    efgr = geometry.Sanchez.efgr

    def counting(self, x1):
        calls.append(1)
        return efgr(self, x1)

    monkeypatch.setattr(geometry.Sanchez, "efgr", counting)
    X1, X2 = grid_points(16)
    cert.field.at(X1, X2)
    assert len(calls) == 1


def test_conformal_certificate_evaluates_inner_field_once(conformal_spec,
                                                          monkeypatch):
    cert = classify.semi_conformal_certificate(conformal_spec, "X")
    calls = []
    at = geometry.VectorField.at

    def counting(self, x1, x2):
        calls.append(self)
        return at(self, x1, x2)

    monkeypatch.setattr(geometry.VectorField, "at", counting)
    cert.field.at(0.41, 0.13)
    # the conformal field itself, then its inner field once
    assert len(calls) == 2 and calls[0] is cert.field


def test_certificate_conformal_propagates_obstruction(rosatau_spec):
    rescaled = catalog.conformal(rosatau_spec, catalog.exp_sine_factor(0.2))
    with pytest.raises(NotSCF) as exc:
        classify.semi_conformal_certificate(rescaled, "X")
    assert exc.value.obstruction == pytest.approx(0.5, abs=1e-6)


def _conformally_flat_diagonal():
    # conformally flat but with non-closed coefficients, so no analytic
    # shortcut applies and the loop test + least-squares transport solve run
    f = lambda x1, x2: np.exp(0.15 * np.sin(2 * np.pi * x1)
                              * np.sin(2 * np.pi * x2))
    return geometry.Diagonal(lam1=f, lam2=f, grid_n=128)


@pytest.fixture(scope="module")
def conformally_flat_diagonal():
    return _conformally_flat_diagonal()


def test_certificate_numeric_rescaling_route(conformally_flat_diagonal):
    cert = classify.semi_conformal_certificate(conformally_flat_diagonal, "X")
    assert cert.kind == "rescaling"
    assert cert.residual < 1e-8
    assert cert.exponent is not None


def test_stalled_transport_solve_names_lsqr_stop(conformally_flat_diagonal,
                                                 monkeypatch):
    def stalled(op, b, **kwargs):
        # LSQR's 10-tuple: x, istop, itn, then seven norms and estimates
        return (np.zeros_like(b), 7, 4000) + (0.0,) * 7
    monkeypatch.setattr(classify, "lsqr", stalled)
    with pytest.raises(Inconclusive) as exc:
        classify.semi_conformal_certificate(conformally_flat_diagonal, "X")
    assert "stalled" in str(exc.value)
    assert "istop 7 after 4000 iterations" in str(exc.value)


def _tau_band(x1):
    """tau >= 0 on a bump over (0.15, 0.45) and zero on the band around it:
    its only zeros are flat, so no simple zero decides the Killing rule.
    Off the band X = (tau, 2) pushes x1 towards the band edge, where a
    divergence-free w X needs w ~ 1/tau: the family is not SCF."""
    return 0.5 * mollifier(torus_delta(x1, 0.3) / 0.15)


#: a RosaTau with a band of zeros of tau, at a coarse step
BAND, BAND_TOL = geometry.RosaTau(_tau_band), DEFAULT.with_(ode_step=1e-2)


def test_killing_rule_defers_to_the_loop_integrals():
    assert classify._killing_analysis(BAND, "X", 32, BAND_TOL) is None
    with pytest.raises(NotSCF) as exc:
        classify.semi_conformal_certificate(BAND, "X", grid_n=32,
                                            tol=BAND_TOL)
    assert exc.value.obstruction == pytest.approx(2.184e-3, rel=1e-3)
    assert "over 729 sampled closed lines" in str(exc.value)


def test_loop_integral_between_thresholds_is_inconclusive():
    """The band metric's loop integral, 2.184e-3, lies inside a reject
    threshold raised to 1e-2; the cached sweep decides it again."""
    tol = BAND_TOL.with_(scf_reject=1e-2)
    with pytest.raises(Inconclusive) as exc:
        classify.semi_conformal_certificate(BAND, "X", grid_n=32, tol=tol)
    assert exc.value.band == (1e-6, 1e-2)
    assert exc.value.measured == pytest.approx(2.184e-3, rel=1e-3)


def test_rescaling_exponent_stays_blocked():
    """The 128^2 exponent series (hundreds of modes) is evaluated in blocks,
    once, and the returned residual is the certificate field's own."""
    spec = catalog.closed_diagonal_wave(1.0, 2.0, amp=0.09)
    tracemalloc.start()
    try:
        _, field, residual, _ = classify._solve_rescaling(spec, "Y", 128,
                                                          DEFAULT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert residual == classify._field_divergence_residual(spec, field, 128)


#: |J1 - J1 from the Gamma(c') integrand| at step 1e-2: at most 1.1e-8
#: (conformal Y) for every family but rosatau Y, where it is 3.0e-5.  There
#: the Christoffel route is exact (on the horizontal lines the contraction
#: is Gamma^1_11 = 0, as g_11 = 0 and g_12 = 1, and the endpoint term
#: cancels) and the Gamma(c') integrand carries RK4 error across the steep
#: tau window (4.5e-7 at step 5e-3, 1.7e-14 at 1e-3).
LOOP_SERIES_BOUND = {("rosatau_spec", "Y"): 1e-4}


@pytest.mark.parametrize("family", ("X", "Y"))
@pytest.mark.parametrize("name", ZOO)
def test_flow_loop_series_matches_connection_integrand(name, family,
                                                       request):
    spec = request.getfixturevalue(name)
    axis = nullflow.transversal_axis(spec, family)
    step = 1e-2

    def gamma(u, w, m):
        uu = np.full_like(w, u)
        one = np.ones_like(w)
        if axis == 0:
            return geometry.connection_along(spec, uu, w, one, m)
        return geometry.connection_along(spec, w, uu, m, one)

    seeds = np.arange(2048) / 2048
    _, reference = nullflow._march(spec, family, axis, 0.0, seeds, 1.0, step,
                                   integrand=gamma)
    J1 = nullflow._ReturnSweep(spec, family, axis, step).loop_series()
    error = np.max(np.abs(np.real(J1(seeds)) - reference))
    assert error < LOOP_SERIES_BOUND.get((name, family), 1e-7)


def test_flow_loop_series_takes_no_frame_derivative(wave12_spec,
                                                    monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("connection_along called")
    monkeypatch.setattr(geometry, "connection_along", forbidden)
    J1 = nullflow._ReturnSweep(wave12_spec, "Y", 0, 1e-2).loop_series()
    assert np.all(np.isfinite(np.real(J1(np.arange(16) / 16))))


@pytest.mark.parametrize("family", ("X", "Y"))
@pytest.mark.parametrize("name", ZOO)
def test_loop_sweep_return_map_is_the_slope_only_one(name, family, request):
    spec = request.getfixturevalue(name)
    axis = nullflow.transversal_axis(spec, family)
    fused = nullflow._ReturnSweep(spec, family, axis, 1e-2)
    fused.loop_series()
    alone = nullflow._ReturnSweep(spec, family, axis, 1e-2).displacement()
    assert np.array_equal(fused.D1.coeffs, alone.coeffs)
    assert np.array_equal(fused.D1.freqs, alone.freqs)


@pytest.mark.parametrize("family, build", [
    ("X", _conformally_flat_diagonal),
    ("Y", lambda: catalog.closed_diagonal_wave(1.0, 2.0, amp=0.08)),
], ids=["conformally-flat-diagonal", "wave12"])
def test_numeric_route_sweeps_the_seeds_once(family, build, monkeypatch):
    """One batched march of the return seeds gives both D1 and J1."""
    # equal specs share the sweep cache (the wave equals wave12_spec), so
    # empty it: the count must not depend on which tests ran first
    nullflow._return_sweep.cache_clear()
    spec = build()
    sweeps = []
    march = nullflow._march

    def counting(spec, family, axis, u0, w0, *args, **kwargs):
        if np.size(w0) == nullflow.RETURN_SEEDS:
            sweeps.append(family)
        return march(spec, family, axis, u0, w0, *args, **kwargs)
    monkeypatch.setattr(nullflow, "_march", counting)
    # the wave's Y family certifies on the lattice route first
    cert = classify._numeric_analysis(spec, family, 32, DEFAULT)
    assert cert.kind == "rescaling"
    assert sweeps == [family]


@pytest.mark.parametrize("name", ZOO)
def test_christoffel_row_is_the_christoffels_at_row(name, request, rng):
    spec = request.getfixturevalue(name)
    x1, x2 = rng.random(257), rng.random(257)
    full = geometry.christoffels_at(spec, x1, x2)
    for a in (0, 1):
        row = geometry._christoffel_row(spec, a, x1, x2)
        assert sorted(row) == [(a, i, j) for i in (0, 1) for j in (0, 1)]
        for key, values in row.items():
            assert np.array_equal(values, full[key])


@pytest.mark.parametrize("name", ("flat_spec", "sqrt2_spec", "analex_spec",
                                  "wave12_spec", "conformally_flat_diagonal"))
def test_christoffel_row_evaluates_lambdas_once(name, request, monkeypatch):
    spec = request.getfixturevalue(name)
    calls = []
    lambdas = type(spec).lambdas

    def counting(self, x1, x2):
        calls.append(1)
        return lambdas(self, x1, x2)
    monkeypatch.setattr(type(spec), "lambdas", counting)
    for u in (0.1, 0.5, 0.9):
        geometry._christoffel_row(spec, 1, u, np.linspace(0, 1, 9))
    assert len(calls) == 3


def test_loop_test_refuses_nan(monkeypatch):
    """A NaN loop integral lies below neither threshold: Inconclusive."""
    monkeypatch.setattr(classify, "_weighted_birkhoff", lambda D1, J1: np.nan)
    spec = catalog.closed_diagonal_wave(1.0, 2.0, amp=0.08)
    with pytest.raises(Inconclusive, match="nan"):
        classify._numeric_analysis(spec, "Y", 32, DEFAULT)


def test_certify_refuses_nan(analex_spec):
    def field(x1, x2):
        v1, v2 = geometry.null_direction_arrays(analex_spec, x1, x2, "X")
        return np.where((x1 == 0) & (x2 == 0), np.nan, v1), v2

    with pytest.raises(Inconclusive, match="nan"):
        classify._certify(analex_spec, "X", field, "analytic", 32, DEFAULT)


# ---------------------------------------------------------------------------
# the lattice route


@pytest.mark.parametrize("amp", (0.06, 0.09, 0.105))
def test_lattice_certificate_is_a_multiple_of_the_rescaling_field(amp):
    """The Y waves of the numeric-scf benchmark: the lattice field and the
    numeric route's rescaling field are both divergence-free sections of
    the family, so their ratio is constant along its dense lines."""
    spec = catalog.closed_diagonal_wave(1.0, 2.0, amp=amp)
    cert = classify.semi_conformal_certificate(spec, "Y")
    assert cert.kind == "lattice" and cert.residual < 1e-8
    rescaling = classify._numeric_analysis(spec, "Y", 32, DEFAULT)
    X1, X2 = grid_points(32)
    ratio = rescaling.field.at(X1, X2)[0] / cert.field.at(X1, X2)[0]
    assert np.ptp(ratio) / abs(np.mean(ratio)) < 1e-8


def test_lattice_route_corrects_a_birkhoff_misread():
    """The numeric route read this wave's Y family as NotSCF from a weighted
    Birkhoff average of 1.179e-4 at rotation -0.49917, so classify printed
    One next to an scf_obstruction."""
    spec = catalog.closed_diagonal_wave(1.0, 2.0, amp=0.1, k=3, l=-2)
    report = classify.classify_dimension(spec, SpinStructure(1, 1),
                                         "delta_minus")
    assert report.scf.kind == "lattice" and report.scf.residual < 1e-8
    assert "scf_obstruction" not in report.details
    assert (report.value, report.certificate) == ("One", "DenseLine")


def _pullback(spec, A):
    """The Sanchez pullback that the lattice route builds."""
    return geometry.Sanchez(*(geometry.LatticeProfile(spec, A, which)
                              for which in "EFG"))


def test_lattice_route_declines(analex_spec, monkeypatch):
    """Each exit hands the family to the numeric route with None."""
    # analex Y: the pulled-back rule finds a simple zero of G
    pull = _pullback(analex_spec, geometry.lattice_basis(
        *analex_spec.phase()))
    with pytest.raises(NotSCF):
        classify._killing_analysis(pull, "X", 32, DEFAULT)
    assert classify._lattice_analysis(analex_spec, "Y", 32, DEFAULT) is None
    # phase (1, 0): A is the identity and F = g12 = 0, so eta0 is undefined
    flat_f = catalog.closed_diagonal_wave(1.0, 2.0, k=1, l=0)
    with pytest.raises(DegenerateMetric):
        _pullback(flat_f, ((1, 0), (0, 1))).eta0
    assert classify._lattice_analysis(flat_f, "Y", 32, DEFAULT) is None
    # a wrong phase: the pullback certifies, the pushed field does not
    wave = catalog.closed_diagonal_wave(1.0, 2.0, amp=0.08)
    monkeypatch.setattr(catalog.Wave, "phase", lambda self: (2, 1))
    assert classify._lattice_analysis(wave, "Y", 32, DEFAULT) is None


def test_is_x_conformally_flat(analex_spec, rosatau_spec, flat_spec):
    assert classify.is_x_conformally_flat(analex_spec) is not None
    assert classify.is_x_conformally_flat(rosatau_spec) is None
    assert classify.conformal_flatness_test(flat_spec)
    assert not classify.conformal_flatness_test(rosatau_spec)
    with pytest.raises(ValueError):
        classify.semi_conformal_certificate(flat_spec, "Z")


# ---------------------------------------------------------------------------
# dimension classification


def test_classify_dense_table(sqrt2_spec):
    table = classify.classify_table(sqrt2_spec, ("delta_plus",))
    for ab, row in table.items():
        rep = row["delta_plus"]
        assert rep.certificate == "DenseLine"
        assert rep.value == ("One" if ab == (1, 1) else "Zero")
        assert rep.scf is not None        # constant metrics certify


def test_classify_analex_table(analex_spec):
    table = classify.classify_table(analex_spec, ("delta_plus",))
    for (a1, a2), row in table.items():
        rep = row["delta_plus"]
        assert rep.scf is not None and rep.scf.kind == "analytic"
        if a1 == a2:
            assert rep.value == "Infinite"
            assert rep.certificate == "XTrivialResonant"
            assert rep.details["sampled_lines"] >= 5
        else:
            assert rep.value == "Zero"
            assert rep.certificate == "NoXTrivialResonant"
            failures = rep.details["holonomy_failures"]
            assert failures and all(f["character"] == -1 for f in failures)
            assert all(abs(f["boost"]) < 1e-8 for f in failures)


def test_classify_rosatau_table(rosatau_spec):
    # no certificate exists (tau has a simple zero), yet the resonant band
    # still carries transport-trivial lines for the a2 = +1 structures
    table = classify.classify_table(rosatau_spec, ("delta_plus",))
    for (a1, a2), row in table.items():
        rep = row["delta_plus"]
        assert rep.scf is None
        assert "scf_obstruction" in rep.details
        if a2 == 1:
            assert rep.value == "Infinite"
            assert rep.certificate == "XTrivialResonant"
        else:
            assert rep.value == "Zero"
            assert rep.certificate == "NoXTrivialResonant"


def test_classify_quantity_pairing(analex_spec):
    # delta_plus and tau_minus ride the same X-transport; the geometric
    # verdict cannot tell the chiralities apart
    table = classify.classify_table(analex_spec, ("delta_plus", "tau_minus"))
    for row in table.values():
        assert row["delta_plus"].value == row["tau_minus"].value
        assert row["delta_plus"].family == row["tau_minus"].family == "X"
        assert row["delta_plus"].details["chirality"] == 1
        assert row["tau_minus"].details["chirality"] == -1


def test_classify_argument_validation(analex_spec):
    with pytest.raises(ValueError, match="'mass'"):
        classify.classify_dimension(analex_spec, SpinStructure(1, 1), "mass")
    with pytest.raises(ValueError, match="'bogus'"):
        classify.classify_table(analex_spec, ("delta_plus", "bogus"))


def test_classify_report_as_dict(analex_spec):
    rep = classify.classify_dimension(analex_spec, SpinStructure(1, 1))
    d = rep.as_dict()
    assert d["structure"] == [1, 1]
    assert d["value"] == "Infinite"
    assert d["scf"]["kind"] == "analytic"
    assert "cylinder" in d["details"]


def test_spectral_checks_agree_on_the_zoo(flat_spec, sqrt2_spec, analex_spec,
                                          wave12_spec, sanchez_spec):
    """Every geometric report meets its exact count on all four structures:
    X and Y for the constant metrics, X for the closed diagonal ones."""
    both = ("delta_plus", "delta_minus")
    for spec, quantities in ((flat_spec, both), (sqrt2_spec, both),
                             (analex_spec, ("delta_plus",)),
                             (wave12_spec, ("delta_plus",))):
        checked = classify.spectral_checks(
            classify.classify_table(spec, quantities), spec)
        assert len(checked) == 4 * len(quantities)
        assert all(count is not None for _, count in checked)
        assert classify.contradictions(checked) == []
        if spec is sqrt2_spec:      # dense in both families
            assert all(r.value == ("One" if r.structure.trivial else "Zero")
                       for r, _ in checked)
        if spec is wave12_spec:     # closed X-lines wind (2, 1)
            assert all(r.value == ("Infinite" if r.structure.a2 == 1
                                   else "Zero") for r, _ in checked)
    assert classify.spectral_count(sanchez_spec, SpinStructure(1, 1)) is None


@pytest.mark.parametrize("ab", [(1, 1), (1, -1)])
def test_cross_validate_wave(wave12_spec, ab):
    table = classify.classify_table(wave12_spec, ("delta_plus",))
    [(report, count)] = classify.spectral_checks({ab: table[ab]}, wave12_spec)
    assert classify.contradictions([(report, count)]) == []
    # closed lines wind (2, 1), so the kernel is infinite exactly for a2 = 1
    assert report.value == count == ("Infinite" if ab[1] == 1 else "Zero")


def test_cross_validate_left_invariant(sqrt2_spec):
    checked = classify.spectral_checks(
        classify.classify_table(sqrt2_spec, ("delta_plus",)), sqrt2_spec)
    assert classify.contradictions(checked) == []
    for report, count in checked:
        assert count == ("One" if report.structure.trivial else "Zero")


def test_cross_validate_needs_exact_solver(sanchez_spec):
    """No exact solver: the count is None, which contradicts nothing, but a
    report's caveat is still a doubt."""
    assert classify.spectral_count(sanchez_spec, SpinStructure(1, 1)) is None
    table = classify.classify_table(sanchez_spec, ("delta_plus",))
    trivial = table[(1, 1)]["delta_plus"]
    [doubt] = classify.contradictions([(trivial, None)])
    assert "1,1 delta_plus" in doubt and trivial.details["caveat"] in doubt
    assert classify.contradictions([(table[(1, -1)]["delta_plus"], None)]) == []


@pytest.mark.parametrize("b1, b2", [(1, 1), (1, 2), (2, 3), (3, 2), (3, 5),
                                    (5, 8)])
def test_geometric_matches_spectral_all_structures(b1, b2):
    """Every structure of one classify_table against solve_closed_diagonal."""
    spec = catalog.closed_diagonal_wave(float(b1), float(b2))
    table = classify.classify_table(spec, ("delta_plus",))
    for s in all_structures():
        report = table[(s.a1, s.a2)]["delta_plus"]
        spectral = spinorfield.solve_closed_diagonal(
            spec, s, chirality=1, n_fields=0).count_class
        assert report.value == spectral, (s.label, report.certificate)
        assert report.certificate != "DenseLine"


# ---------------------------------------------------------------------------
# mass functional and associated vector field


def test_associated_vector_field_flat(flat_spec):
    s = SpinStructure(1, 1)
    pos = spinorfield.constant_field(flat_spec, s, 1, 1.0, grid_n=32)
    v1, v2 = classify.associated_vector_field(pos)
    assert np.allclose(v1, 1.0) and np.allclose(v2, 1.0)   # V = X
    both = spinorfield.SpinorField(
        positive=pos, negative=spinorfield.constant_field(flat_spec, s, -1,
                                                          1.0, grid_n=32))
    v1, v2 = classify.associated_vector_field(both)
    assert np.allclose(v1, 2.0) and np.allclose(v2, 0.0)   # X - Y = 2 s1


def test_associated_vector_field_is_causal(analex_spec):
    s = SpinStructure(1, 1)
    n = 64
    X1, X2 = grid_points(n)
    pos = spinorfield.HalfSpinorField(
        analex_spec, s, 1, np.exp(2j * np.pi * X1) * (1 + 0.3 * np.cos(
            2 * np.pi * X2)))
    neg = spinorfield.HalfSpinorField(
        analex_spec, s, -1, 0.5 + 0.25 * np.sin(2 * np.pi * (X1 + X2)) + 0j)
    psi = spinorfield.SpinorField(positive=pos, negative=neg)
    v1, v2 = classify.associated_vector_field(psi)
    A, B, C = geometry.coefficients(analex_spec, X1, X2)
    norm2 = A * v1 ** 2 + 2 * B * v1 * v2 + C * v2 ** 2
    expected = -4.0 * np.abs(pos.values) ** 2 * np.abs(neg.values) ** 2
    assert np.max(np.abs(norm2 - expected)) < 1e-9


def test_mass_functional_phase_field(analex_spec):
    cert = classify.semi_conformal_certificate(analex_spec, "X")
    sol = spinorfield.solve_closed_diagonal(analex_spec, SpinStructure(1, 1),
                                            grid_n=256)
    m = classify.mass_functional(analex_spec, cert, sol.fields[1])
    # unit-modulus positive fields have mu = -2 |phi^+|^2 = -2 exactly
    assert m.min() == pytest.approx(-2.0, abs=1e-9)
    assert m.max() == pytest.approx(-2.0, abs=1e-9)
    assert m.drift < 1e-6


def test_mass_functional_gates_inputs(analex_spec):
    cert = classify.semi_conformal_certificate(analex_spec, "X")
    junk = spinorfield.fourier_mode_field(analex_spec, SpinStructure(1, 1),
                                          (2, 0))
    with pytest.raises(NotHarmonic):
        classify.mass_functional(analex_spec, cert, junk)
    bad_cert = classify.SCFCertificate("X", cert.field, 1.0, "analytic",
                                       cert.grid_n)
    good = spinorfield.solve_closed_diagonal(analex_spec, SpinStructure(1, 1),
                                             grid_n=128).fields[0]
    with pytest.raises(NotSCF):
        classify.mass_functional(analex_spec, bad_cert, good)


def test_mass_functional_refuses_nan(analex_spec):
    """A NaN certificate residual is not below the tolerance, and a NaN
    harmonic residual is not within its bound."""
    cert = classify.semi_conformal_certificate(analex_spec, "X")
    s = SpinStructure(1, 1)
    nan_cert = classify.SCFCertificate("X", cert.field, np.nan, "analytic",
                                       cert.grid_n)
    good = spinorfield.constant_field(analex_spec, s, 1, 1.0, grid_n=32)
    with pytest.raises(NotSCF):
        classify.mass_functional(analex_spec, nan_cert, good)
    nan_field = spinorfield.HalfSpinorField(
        analex_spec, s, 1, np.full((32, 32), np.nan + 0j))
    with pytest.raises(NotHarmonic):
        classify.mass_functional(analex_spec, cert, nan_field)
