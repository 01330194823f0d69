"""Flatness certificates, mass functionals, and the dimension classification.

Exits of ``classify.semi_conformal_certificate`` and their witnesses:

* a spec with a phase (every catalog family but a conformal rescaling), by
  ``_phase_analysis`` on its phase velocity V'^1 = (A^-1 V)^1: no zero, an
  analytic certificate w V with w = 1/(sqrt|g| |V'^1|)
  (``test_certificate_closed_diagonal_analytic``,
  ``test_certificate_sanchez_sides``, ``test_certificate_rosatau_sides``,
  ``test_analytic_certificate_witness``); V'^1 = 0 identically, V itself
  (``test_analytic_certificate_witness[rosatau-zero-tau]``); a simple zero,
  NotSCF with loop integral |Gamma(A e2)| at x = A (z, 0)
  (``test_certificate_sanchez_analytic_obstruction``,
  ``test_certificate_rosatau_zero_on_a_sample``,
  ``test_lattice_obstruction_is_twice_the_holonomy_boost``); flat zeros,
  NotSCF with an infinite obstruction
  (``test_phase_rule_obstructs_flat_zeros``).  Over seeded waves every
  answer is one of these, and every NotSCF names a line of its own family
  (``test_seeded_waves_are_decided_on_their_own_lines``);
* conformal rescalings: the inner certificate over the factor
  (``test_certificate_conformal_invariance``) or the inner NotSCF
  (``test_certificate_conformal_propagates_obstruction``);
* a phase-less diagonal metric: closed coefficients certify by the null
  direction; otherwise the transport solve gives a rescaling certificate
  (``test_certificate_numeric_rescaling_route``), or Inconclusive when
  LSQR stalls (``test_stalled_transport_solve_names_lsqr_stop``).

``_certify`` makes a candidate field that misses ``scf_certificate``
Inconclusive, a NaN residual included (``test_certify_refuses_nan``).  A
field of the phase is checked on its phase line, which must also resolve
it: an unresolved field is checked again on a line of twice the samples
(``test_line_certificates_must_be_resolved``, the 512-sample wave), and
Inconclusive past ``MAX_LINE_SAMPLES`` (the same wave with the cap at 256).

Exits of ``classify._verdict``: DenseLine (``test_classify_dense_table``),
XTrivialResonant and NoXTrivialResonant (``test_classify_rosatau_table``),
NoXTrivialResonant with a caveat on the trivial structure
(``test_cross_validate_needs_exact_solver``).  No test reaches either
NonResonant exit.
"""

import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import count_transforms, seeded_waves
from nulltorus import (catalog, classify, geometry, nullflow, spin,
                       spinorfield)
from nulltorus.errors import ConfigError, Inconclusive, NotHarmonic, NotSCF
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
    x1, _ = exc.value.location
    assert 4 * x1 == pytest.approx(round(4 * x1), abs=1e-3)


@pytest.fixture()
def analytic_only(monkeypatch):
    """Fail any test that falls through to the transport solve."""
    def solve(*args, **kwargs):
        raise AssertionError("transport solve taken")

    monkeypatch.setattr(classify, "_solve_rescaling", solve)


def test_certificate_sanchez_analytic_obstruction(sanchez_spec, analytic_only):
    """The G-zeros sit on the sampling grid; the closed form still sees them."""
    with pytest.raises(NotSCF) as exc:
        classify.semi_conformal_certificate(sanchez_spec, "X")
    assert exc.value.obstruction == pytest.approx(0.4 * np.pi, rel=1e-8)
    assert exc.value.location[0] in sanchez_spec.zeros


def test_certificate_rosatau_zero_on_a_sample(analytic_only):
    """zero = 0.3125 = 2560/8192 is a sample of the analytic check."""
    spec = catalog.rosatau_window(zero=0.3125)
    with pytest.raises(NotSCF) as exc:
        classify.semi_conformal_certificate(spec, "X")
    assert exc.value.location[0] == 0.3125
    # loop integral tau'(x0)/2 of the closed line at the zero
    assert exc.value.obstruction == pytest.approx(
        float(spec.dtau_at(np.asarray(0.3125))) / 2, rel=1e-12)


def test_certificate_rosatau_sides(rosatau_spec):
    cert = classify.semi_conformal_certificate(rosatau_spec, "Y")
    assert cert.kind == "analytic"
    # w Y = (-1/sqrt|g|, 0) with |det g| = 1, up to the frame's rounding
    v1, v2 = cert.field.at(0.2, 0.9)
    assert v1 == pytest.approx(-1.0, rel=1e-15) and v2 == 0.0
    # tau has a simple zero of unit slope: loop integral 1/2 obstructs X
    with pytest.raises(NotSCF) as exc:
        classify.semi_conformal_certificate(rosatau_spec, "X")
    assert exc.value.obstruction == pytest.approx(0.5, abs=1e-6)
    assert exc.value.location[0] == pytest.approx(0.3, abs=1e-6)


@pytest.mark.parametrize("metric, family", [
    ("rosatau", "X"), ("analex_sanchez", "X"), ("analex", "Y"),
    ("closed_diagonal:6,8,amp=0.7705,k=2,l=3", "Y")])
def test_lattice_obstruction_is_twice_the_holonomy_boost(metric, family,
                                                         analytic_only):
    """Every simple zero z of the phase velocity's record is the closed line
    x = A (z, t), with loop integral |Gamma(A e2)| of div at A (z, 0): the
    NotSCF obstruction is the largest of them, and each of the |m| points
    where the decomposition puts that line through the section (six lines
    on the 6,8 wave, whose basis is not the identity) carries spin holonomy
    boost of half of it, read from the lattice flow."""
    spec = catalog.load_metric(metric)
    with pytest.raises(NotSCF) as exc:
        classify.semi_conformal_certificate(spec, family)
    record = nullflow.phase_zeros(spec, family, DEFAULT)
    (a, b), (c, d) = record.A
    loops = [abs(float(geometry.connection_along(
        spec, (a * z) % 1.0, (c * z) % 1.0, b, d))) for z in record.zeros]
    assert exc.value.obstruction == max(loops)
    dec = nullflow.cylinder_decomposition(spec, family)
    m = d if dec.axis == 1 else -b
    assert len(dec.isolated_closed) == abs(m) * len(record.zeros)
    for z, loop in zip(record.zeros, loops):
        seeds = [w for w in dec.isolated_closed
                 if abs(torus_delta(m * w, z)) < 1e-9]
        assert len(seeds) == abs(m)
        for w, table in zip(seeds, spin.holonomy_table(spec, family, seeds,
                                                        dec.rotation)):
            boost = table[(1, 1)].boost
            assert abs(2 * abs(boost) - loop) < 1e-6, (z, w)


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
    # G has no zero at c = 2.5: V'^1 has none, the field w X
    lambda: catalog.analex_sanchez(c=2.5),
    # tau vanishes identically, and so does V'^1: the field X
    lambda: catalog.rosatau_window(amplitude=0.0),
    # tau nowhere zero: the field w X
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
    its only zeros are flat, so no simple zero decides the phase rule.
    Off the band X = (tau, 2) pushes x1 towards the band edge, where a
    divergence-free w X needs w ~ 1/tau: the family is not SCF."""
    return 0.5 * mollifier(torus_delta(x1, 0.3) / 0.15)


@pytest.mark.parametrize("spec", [geometry.RosaTau(_tau_band),
                                  catalog.load_metric("rosatau:zero=0.55")],
                         ids=["band", "rosatau:zero=0.55"])
def test_phase_rule_obstructs_flat_zeros(spec, analytic_only):
    """tau is one-signed on (0.15, 0.45) and vanishes flatly off it: the
    lines there accumulate on the band edge x1 = 0.45, so the phase rule
    answers NotSCF in closed form, with an infinite obstruction located at
    that edge (where the phase velocity falls to 1e-12 of its sup,
    bisected)."""
    with pytest.raises(NotSCF, match="accumulate on the closed line") as exc:
        classify.semi_conformal_certificate(spec, "X")
    assert exc.value.obstruction == math.inf
    x1, x2 = exc.value.location
    assert 0.44 < x1 <= 0.45 and x2 == 0.0
    assert abs(float(spec.tau_at(x1))) < 2e-12


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


def test_certify_refuses_nan(analex_spec):
    def field(x1, x2):
        v1, v2 = geometry.null_direction_arrays(analex_spec, x1, x2, "X")
        return np.where((x1 == 0) & (x2 == 0), np.nan, v1), v2

    with pytest.raises(Inconclusive, match="nan"):
        classify._certify(analex_spec, "X", field, "analytic", 32, DEFAULT)


# ---------------------------------------------------------------------------
# certificates on the phase line


def _clear_grid_caches():
    for cached in (geometry._phase_line, geometry.coefficient_grids,
                   geometry.frame_grids, geometry._closedness_residual):
        cached.cache_clear()


@pytest.mark.parametrize("metric,family,kind", [
    ("analex", "X", "analytic"),
    ("closed_diagonal:2,3", "X", "analytic"),
    ("closed_diagonal:2,3", "Y", "analytic"),
    ("closed_diagonal:1,2,amp=0.06,k=1,l=1", "Y", "analytic"),
    ("closed_diagonal:1,2,amp=0.1,k=3,l=-2", "Y", "analytic"),
    ("rosatau", "Y", "analytic"),
    ("analex_sanchez", "Y", "analytic"),
])
def test_line_certificates_match_the_plane_route(metric, family, kind,
                                                 monkeypatch):
    """A spec with a phase line checks its certificate at the line's
    samples; with ``_phase_line`` patched to None the same family takes
    the n x n route and the same kind, both residuals below 1e-8."""
    spec = catalog.load_metric(metric)
    _clear_grid_caches()
    line = classify.semi_conformal_certificate(spec, family)
    _clear_grid_caches()
    with monkeypatch.context() as plane_route:
        plane_route.setattr(geometry, "_phase_line", lambda spec, n: None)
        plane = classify.semi_conformal_certificate(spec, family)
    _clear_grid_caches()
    assert line.kind == plane.kind == kind
    assert max(line.residual, plane.residual) < 1e-8


ROUGH_Y_WAVES = ("closed_diagonal:5,8,amp=1.3294,k=2,l=3",
                 "closed_diagonal:6,8,amp=0.7705,k=2,l=3",
                 "closed_diagonal:8,6,amp=2.9274,k=2,l=3")

#: a Y wave whose phase velocity comes within 0.0034 of zero: its steep
#: field w Y is resolved by the 512-sample line, not by the 256-sample one
STEEP_Y_WAVE = "closed_diagonal:4,8,amp=0.6482,k=2,l=3"


@pytest.mark.parametrize("metric", ROUGH_Y_WAVES)
def test_line_certificates_must_be_resolved(metric, analytic_only,
                                            monkeypatch):
    """The phase velocity of these rough Y waves has simple zeros, so each
    is NotSCF, with a finite obstruction.  The resolution rule's witness is
    the steep wave: certified on the doubled line, and Inconclusive with
    the line capped at 256 samples."""
    with pytest.raises(NotSCF) as exc:
        classify.semi_conformal_certificate(catalog.load_metric(metric), "Y")
    assert math.isfinite(exc.value.obstruction)
    steep = catalog.load_metric(STEEP_Y_WAVE)
    cert = classify.semi_conformal_certificate(steep, "Y")
    assert cert.grid_n == 512 and cert.residual < 1e-10
    monkeypatch.setattr(classify, "MAX_LINE_SAMPLES", 256)
    with pytest.raises(Inconclusive, match="not resolved by its 256-sample"):
        classify.semi_conformal_certificate(steep, "Y")


def test_line_certificate_escapes_plane_aliasing():
    """This X family's direction field is divergence-free: 2.4e-12 on the
    line, 1.9e-11 at 1024^2.  At 256^2 the 2-D route aliases the phase
    harmonics whose |3m| passes 128, and misses the tolerance (6e-8); the
    certificate is the same field over the constant sqrt|g| |V'^1| = 14.3,
    which the line checks at the 256 samples."""
    spec = catalog.load_metric("closed_diagonal:6,4,amp=1.1403,k=-1,l=3")
    cert = classify.semi_conformal_certificate(spec, "X")
    assert cert.kind == "analytic" and cert.residual < 1e-10
    assert classify._field_divergence_residual(spec, cert.field, 1024) < 1e-10
    direction = geometry.VectorField(
        lambda x1, x2: geometry.null_direction_arrays(spec, x1, x2, "X"))
    assert classify._field_divergence_residual(spec, direction, 1024) < 1e-10
    assert (classify._field_divergence_residual(spec, direction, 256)
            > DEFAULT.scf_certificate)


@pytest.mark.parametrize("metric,family", [
    ("analex", "X"), ("closed_diagonal:1,2,amp=0.06,k=1,l=1", "Y"),
    ("analex_sanchez", "Y")])
def test_phase_certificates_take_no_plane_transform(metric, family,
                                                    monkeypatch):
    """The certificate of a spec with a phase line transforms only its n
    samples: no transform of a 2-D array."""
    spec = catalog.load_metric(metric)
    _clear_grid_caches()
    calls = count_transforms(monkeypatch)
    cert = classify.semi_conformal_certificate(spec, family)
    assert cert.residual < 1e-8
    assert calls["rfft"] > 0 and "plane" not in calls


# ---------------------------------------------------------------------------
# the phase rule on waves


@pytest.mark.parametrize("amp", (0.06, 0.09, 0.105))
def test_lattice_certificate_is_a_multiple_of_the_rescaling_field(amp):
    """The Y waves of the numeric-scf benchmark: the phase rule's field and
    the transport solve's rescaling field are both divergence-free sections
    of the family, so their ratio is constant along its dense lines."""
    spec = catalog.closed_diagonal_wave(1.0, 2.0, amp=amp)
    cert = classify.semi_conformal_certificate(spec, "Y")
    assert cert.kind == "analytic" and cert.residual < 1e-8
    rescaling = classify._rescaling_analysis(spec, "Y", 32, DEFAULT)
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
    assert report.scf.kind == "analytic" and report.scf.residual < 1e-8
    assert "scf_obstruction" not in report.details
    assert (report.value, report.certificate) == ("One", "DenseLine")


def test_analex_y_obstruction_names_its_closed_line(analex_spec,
                                                    analytic_only):
    """analex's Y family: its phase velocity has a simple zero at
    y1 = 1/2, and the NotSCF names the point x = A (1/2, 0) of its closed
    line, of winding A e2 = (1, 1).  The obstruction is 0.4 pi, within
    1e-8 of the loop integral 1.2566370614 that RK4 sweeps of analex
    measured along that line, and twice the holonomy boost of the line on
    analex itself, whose flow puts an isolated closed line through the
    same point."""
    A = geometry.lattice_basis(*analex_spec.phase())
    assert A == ((0, 1), (-1, 1))
    with pytest.raises(NotSCF) as exc:
        classify.semi_conformal_certificate(analex_spec, "Y")
    assert exc.value.obstruction == pytest.approx(1.2566370614, abs=1e-8)
    assert exc.value.obstruction == pytest.approx(0.4 * np.pi, rel=1e-8)
    x1, x2 = exc.value.location
    assert (x1, x2) == pytest.approx((0.0, 0.5), abs=1e-9)
    assert "(0.000000, 0.500000), of winding (1, 1)" in str(exc.value)
    dec = nullflow.cylinder_decomposition(analex_spec, "Y")
    assert dec.axis == 0 and x1 == 0.0     # the section x1 = 0 holds it
    assert any(abs(torus_delta(w, x2)) < 1e-9 for w in dec.isolated_closed)
    [table] = spin.holonomy_table(analex_spec, "Y", [x2], dec.rotation)
    assert table[(1, 1)].winding == (1, 1)
    boost = table[(1, 1)].boost
    assert abs(2 * abs(boost) - exc.value.obstruction) < 1e-6


#: waves that reached the transport solve, or a false obstruction, before
#: every phase spec took the phase rule
NAMED_WAVES = ("closed_diagonal:6,8,amp=0.9748,k=2,l=3", STEEP_Y_WAVE,
               "closed_diagonal:4,9,amp=3.1057,k=-1,l=-1",
               "closed_diagonal:5,4,amp=3.8074,k=3,l=1",
               "closed_diagonal:6,4,amp=1.1403,k=-1,l=3") + ROUGH_Y_WAVES


def test_seeded_waves_are_decided_on_their_own_lines(analytic_only):
    """Both families of 200 seeded waves and the named ones: each is
    certified or NotSCF, never by the transport solve (``analytic_only``),
    and every finite obstruction names a closed line of its own family:
    the family's direction at ``location`` is parallel to the winding."""
    outcomes = {"certified": 0, "not_scf": 0}
    for metric in seeded_waves(35, 200) + list(NAMED_WAVES):
        spec = catalog.load_metric(metric)
        for family in ("X", "Y"):
            try:
                classify.semi_conformal_certificate(spec, family)
            except NotSCF as exc:
                outcomes["not_scf"] += 1
                if not math.isfinite(exc.obstruction):
                    continue
                (_, b), (_, d) = geometry.lattice_basis(*spec.phase())
                v1, v2 = geometry.null_direction_arrays(
                    spec, *exc.location, family)
                sine = abs(v1 * d - v2 * b) / math.hypot(v1, v2) / math.hypot(
                    b, d)
                assert sine < 1e-6, (metric, family, exc.location)
            else:
                outcomes["certified"] += 1
    assert outcomes["not_scf"] > 0 and outcomes["certified"] > 0, outcomes


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


def _gate_metrics() -> list[str]:
    """The metric of every table and classify invocation of the artifact
    gate, tools/artifact_diff.py, that builds (its error cases do not)."""
    path = Path(__file__).resolve().parents[1] / "tools" / "artifact_diff.py"
    spec = importlib.util.spec_from_file_location("artifact_diff", path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    metrics = [argv[argv.index("--metric") + 1]
               for argv in gate.BENCHMARK_OPS + gate.CASES
               if {"table", "classify"} & set(argv) and "--metric" in argv]
    assert gate.CONFORMAL_1 in metrics and gate.CONFORMAL_2 in metrics
    built = []
    for metric in dict.fromkeys(metrics):
        try:
            catalog.load_metric(metric)
        except ConfigError:
            continue
        built.append(metric)
    return built


@pytest.mark.parametrize("metric", _gate_metrics())
def test_gate_tables_march_no_line_and_solve_nothing(metric, monkeypatch):
    """Four-quantity tables of every metric the gate's tables and
    classifications read, both conformal rescalings included, take every
    flow from the lattice quadrature and every certificate from a closed
    form: no RK4 march and no transport solve.  A table may only be an
    honest Inconclusive past the period cap, or, on a rough Y wave, where
    no lattice rule covers its flow."""
    calls = []
    for owner, name in ((nullflow, "_march"), (classify, "_solve_rescaling")):
        def recording(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, recording)
    try:
        table = classify.classify_table(catalog.load_metric(metric),
                                        tuple(classify.QUANTITIES))
        assert len(table) == 4
    except Inconclusive as exc:     # past the period cap: left_invariant:1,65
        assert ("no lattice rule covers" in str(exc) if metric in ROUGH_Y_WAVES
                else "closed-line period 65" in str(exc))
    assert not calls


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
