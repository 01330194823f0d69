"""Null line integration, rotation numbers, and cylinder decompositions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import ZOO, frame_direction, seeded_waves
from nulltorus import catalog, classify, geometry, nullflow, spin
from nulltorus.errors import DenseFlow, Inconclusive
from nulltorus.gridtools import circular_zeros, grid_points, torus_delta
from nulltorus.tolerances import DEFAULT


def test_flat_diagonal_line(flat_spec):
    rec = nullflow.integrate_null_line(flat_spec, (0.0, 0.0), "X", t_max=3.0)
    # lambda_1 = lambda_2 = 1: the X line is the diagonal x2 = x1
    np.testing.assert_allclose(rec.points[:, 1], rec.points[:, 0], atol=1e-12)
    rec_y = nullflow.integrate_null_line(flat_spec, (0.0, 0.0), "Y", t_max=3.0)
    np.testing.assert_allclose(rec_y.points[:, 1], -rec_y.points[:, 0],
                               atol=1e-12)


def test_slope_against_null_direction(analex_spec):
    """The recorded velocity must be proportional to the null direction."""
    rec = nullflow.integrate_null_line(analex_spec, (0.2, 0.7), "X",
                                       t_max=1.0)
    for idx in (0, 250, 999):
        p = rec.points[idx]
        v = rec.velocities[idx]
        d = geometry.null_direction_arrays(analex_spec,
                                           np.asarray(p[0] % 1.0),
                                           np.asarray(p[1] % 1.0), "X")
        cross = float(v[0]) * float(d[1]) - float(v[1]) * float(d[0])
        assert abs(cross) < 1e-8


def test_rotation_number_analex(analex_spec):
    est = nullflow.rotation_number(analex_spec, "X")
    assert est.rational is not None
    assert (est.rational.p, est.rational.q) == (-1, 1)
    assert abs(est.value + 1.0) < 1e-9


def test_rotation_number_direct_matches_map(wave12_spec):
    """The marched average states no error, so it carries no certificate;
    it meets the quadrature within about 1/n_returns, closely on a rigid
    rotation and within 1/n where the lines are asymptotic (rosatau X)."""
    fast = nullflow.rotation_number(wave12_spec, "X")
    direct = nullflow.direct_rotation_number(wave12_spec, "X", n_returns=60)
    assert (direct.method, direct.rational) == ("direct", None)
    assert abs(fast.value - direct.value) < 1e-6
    assert abs(fast.value - 0.5) < 1e-9
    spec, n = catalog.rosatau_window(), 32
    direct = nullflow.direct_rotation_number(
        spec, "X", (0.2, 0.0), n_returns=n, tol=DEFAULT.with_(ode_step=1e-2))
    assert abs(direct.value - nullflow.rotation_number(spec, "X").value) < 1 / n


def test_rotation_number_irrational():
    # slope sqrt(2) is steep, so the graph axis flips and rho = 1/sqrt(2)
    spec = catalog.left_invariant(math.sqrt(2.0), 1.0)
    est = nullflow.rotation_number(spec, "X")
    assert abs(est.value - 1.0 / math.sqrt(2.0)) < 1e-9
    # no period up to 64 brackets the rotation number, and the convergents
    # beyond (which always fit the raw residual tolerance) fail the
    # credibility product q * residual <= 1e-6
    assert est.rational is None


def test_rotation_certificate_needs_no_lucky_return_count():
    """q = 3 divides no power of ten, so a marched average over 10^k
    returns misses 2/3; the lattice value is exact and reads no return
    count, so the certificate is 2/3."""
    est = nullflow.rotation_number(catalog.closed_diagonal_wave(2.0, 3.0), "X")
    assert (est.rational.p, est.rational.q) == (2, 3)
    assert abs(est.value - 2.0 / 3.0) < 1e-12


@pytest.mark.parametrize("value, error, expected", [
    (2 / 3, 0.0, (2, 3)),
    (2 / 3 + 2e-11, 0.0, (2, 3)),       # q value within the resonance
    (0.5, 0.0, (1, 2)),                 # the smallest q, not 2/4
    (-0.5, 0.0, (-1, 2)),
    (1 / 65 + 1e-12, 1e-11, (1, 65)),   # past the cap: inside the error
    (1 / 65 + 1e-12, 1e-13, None),      # past the cap: outside it
    (1 / 65 + 1e-12, math.nan, None),   # an unknown error credits nothing
    (math.sqrt(2) - 1, 1e-16, None)])
def test_certify_rotation_reads_the_value_and_its_error(value, error,
                                                        expected):
    """A period up to MAX_PERIOD certifies when q value is within the
    resonance tolerance of p; beyond it a best rational must fit within
    the stated error of the value, never the raw flow residual."""
    cert = nullflow._certify_rotation(value, error, DEFAULT)
    assert (cert and (cert.p, cert.q)) == expected
    if cert is not None:
        assert cert.residual == abs(value - cert.p / cert.q)


def test_classify_line_kinds(flat_spec):
    cls = nullflow.classify_line(flat_spec, (0.0, 0.1), "X")
    assert cls.kind == "Closed"
    assert cls.winding == (1, 1)
    sqrt2 = catalog.left_invariant(math.sqrt(2.0), 1.0)
    cls2 = nullflow.classify_line(sqrt2, (0.0, 0.0), "X")
    assert cls2.kind == "Dense"
    assert cls2.winding is None


def test_classify_line_rosatau(rosatau_spec):
    """Seeds in the band close; seeds in the attracting gap are asymptotic."""
    closed = nullflow.classify_line(rosatau_spec, (0.0, 0.7), "X")
    assert closed.kind == "Closed"
    assert closed.winding == (0, 1)
    at_zero = nullflow.classify_line(rosatau_spec, (0.3, 0.0), "X")
    assert at_zero.kind == "Closed"
    gap = nullflow.classify_line(rosatau_spec, (0.2, 0.0), "X")
    assert gap.kind == "Asymptotic"
    assert gap.limit_winding == (0, 1)


def test_holonomy_table_rejects_open_seeds(rosatau_spec):
    """Graph branch: a certificate with |q rho - p| above closedness_reject
    leaves every line open.  Vertical branch: a seed whose phase is in no
    run and off every zero of the phase velocity is open, while one on the
    zero (within closedness_reject) or in the band closes."""
    sqrt2 = catalog.left_invariant(math.sqrt(2.0), 1.0)
    fake = nullflow.RationalCertificate(3, 2, 0.09)
    with pytest.raises(DenseFlow, match="does not close"):
        spin.holonomy_table(sqrt2, "X", [0.0], fake)
    vertical = nullflow.RationalCertificate(0, 1, 0.0)
    with pytest.raises(DenseFlow, match="w=0.200000 does not close"):
        spin.holonomy_table(rosatau_spec, "X", [0.3, 0.2], vertical)
    [zero] = nullflow.phase_zeros(rosatau_spec, "X", DEFAULT).zeros
    near = zero + 0.5 * DEFAULT.closedness_reject
    tables = spin.holonomy_table(rosatau_spec, "X", [near, 0.7], vertical)
    assert [t[(1, 1)].winding for t in tables] == [(0, 1), (0, 1)]
    with pytest.raises(DenseFlow):
        spin.holonomy_table(rosatau_spec, "X",
                            [zero + 2 * DEFAULT.closedness_reject], vertical)


def test_decomposition_flat_all_resonant(flat_spec):
    dec = nullflow.cylinder_decomposition(flat_spec, "X")
    assert (dec.rotation.p, dec.rotation.q) == (1, 1)
    assert len(dec.resonant_intervals) == 1
    iv = dec.resonant_intervals[0]
    assert iv.width == pytest.approx(1.0, abs=1e-9)
    assert dec.isolated_closed == ()


def test_decomposition_dense_is_certified():
    sqrt2 = catalog.left_invariant(math.sqrt(2.0), 1.0)
    with pytest.raises(DenseFlow):
        nullflow.cylinder_decomposition(sqrt2, "X")


def test_decomposition_rosatau(rosatau_spec):
    """One resonant band away from the tau window, an isolated closed line
    at the simple zero, and asymptotic gaps on both sides of it."""
    dec = nullflow.cylinder_decomposition(rosatau_spec, "X")
    assert (dec.rotation.p, dec.rotation.q) == (0, 1)
    res = dec.resonant_intervals
    assert len(res) == 1
    assert res[0].lo == pytest.approx(0.45, abs=0.02)
    assert res[0].hi == pytest.approx(1.15, abs=0.02)
    assert len(dec.isolated_closed) == 1
    assert dec.isolated_closed[0] == pytest.approx(0.3, abs=1e-6)
    gaps = [iv for iv in dec.intervals if iv.kind == "Asymptotic"]
    assert len(gaps) == 2
    # the X family is quasi-vertical here: the transversal axis is x2
    assert dec.axis == 1


def test_decomposition_interval_bookkeeping(rosatau_spec):
    dec = nullflow.cylinder_decomposition(rosatau_spec, "X")
    total = sum(iv.width for iv in dec.intervals)
    assert total == pytest.approx(1.0, abs=1e-6)
    for iv in dec.intervals:
        assert iv.hi > iv.lo
        mid = 0.5 * (iv.lo + iv.hi)
        assert iv.contains(mid % 1.0)
        pts = iv.interior_points(3)
        assert all(iv.contains(p % 1.0) for p in pts)


@pytest.mark.parametrize("metric", [
    "analex", "closed_diagonal:1,2,k=1,l=2", "closed_diagonal:3,5,k=2,l=1"])
def test_first_integral_analex(metric, rng):
    """F is constant along RK4 X-lines and shifts by the mean coefficients
    (l1, -l2) under the coordinate periods: two oracles outside the
    quadrature."""
    spec = catalog.from_shorthand(metric)
    F = nullflow.first_integral_function(spec)
    l1, l2 = geometry.mean_coefficients(spec)
    assert F.quasi_periods == pytest.approx((l1, -l2), abs=1e-10)

    rec = nullflow.integrate_null_line(spec, (0.1, 0.55), "X", t_max=2.0)
    vals = F(rec.points[::100, 0], rec.points[::100, 1])
    assert np.ptp(vals) < 1e-6

    x1, x2 = rng.random(5), rng.random(5)
    base = F(x1, x2)
    assert F(x1 + 1.0, x2) - base == pytest.approx(l1, abs=1e-10)
    assert F(x1, x2 + 1.0) - base == pytest.approx(-l2, abs=1e-10)


@pytest.mark.parametrize("n", [63, 64, 256, 512])
@pytest.mark.parametrize("metric", [
    "analex", "closed_diagonal:1,2,amp=0.08", "closed_diagonal:1,2,k=1,l=2",
    "closed_diagonal:3,5,amp=0.2,k=2,l=1"])
def test_first_integral_grid_is_the_pointwise_value(metric, n):
    """The inverse-FFT grid of F equals the pointwise series at the grid
    points (n = 63 has no Nyquist bin)."""
    F = nullflow.FirstIntegral(catalog.from_shorthand(metric), n)
    X1, X2 = grid_points(n)
    grid = F.grid()
    assert grid.shape == (n, n) and np.isrealobj(grid)
    assert np.max(np.abs(grid - F(X1, X2))) < 1e-13


def test_completeness_flat_vs_ppwave(flat_spec, rosatau_spec):
    ok = nullflow.probe_completeness(flat_spec, (0.0, 0.0), "X", t_max=5.0)
    assert not ok.blowup_detected
    assert ok.complete_up_to == pytest.approx(5.0)

    probe = nullflow.probe_completeness(rosatau_spec, (0.3, 0.0), "X",
                                        t_max=20.0,
                                        tol=DEFAULT.with_(ode_step=5e-3))
    assert probe.blowup_detected
    assert probe.max_speed >= 1e8
    # the blowup happens within finite affine parameter in one direction
    assert probe.blowup_parameter is not None
    assert probe.blowup_parameter < 20.0


@pytest.mark.parametrize("name", ZOO)
def test_march_matches_frame_slope_march(name, request, monkeypatch):
    """2048 seeds over one period end where a march whose slope sums the
    canonical frame ends, bit for bit."""
    spec = request.getfixturevalue(name)
    seeds = np.arange(2048) / 2048
    for family in ("X", "Y"):
        axis = nullflow.transversal_axis(spec, family)
        ends = nullflow._march(spec, family, axis, 0.0, seeds, 1.0, 0.01)
        with monkeypatch.context() as m:
            m.setattr(geometry, "null_direction_arrays", frame_direction)
            reference = nullflow._march(spec, family, axis, 0.0, seeds, 1.0,
                                        0.01)
        assert np.array_equal(ends, reference)


@pytest.mark.parametrize("name, profile", [("wave12_spec", "lambdas"),
                                           ("analex_spec", "lambdas"),
                                           ("flat_spec", "lambdas"),
                                           ("rosatau_spec", "tau_at")])
def test_march_slope_takes_one_profile_evaluation(name, profile, request,
                                                  monkeypatch):
    """Each RK4 slope evaluates the family profile once and builds no
    frame: 100 steps make 400 slopes."""
    spec = request.getfixturevalue(name)
    axes = {family: nullflow.transversal_axis(spec, family)
            for family in ("X", "Y")}
    counts = {}

    def count(key, owner, attr):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)
    count("frame", geometry, "frame_component_arrays")
    count("slope", geometry, "null_direction_arrays")
    count("profile", type(spec), profile)
    seeds = np.arange(2048) / 2048
    for family, axis in axes.items():
        counts.update(frame=0, slope=0, profile=0)
        nullflow._march(spec, family, axis, 0.0, seeds, 1.0, 0.01)
        assert counts == {"frame": 0, "slope": 400, "profile": 400}


# ---------------------------------------------------------------------------
# the lattice quadrature against marched RK4 lines

#: the seeded zoo-table metrics of tools/artifact_diff.py the quadrature
#: covers, after the other amplitude and c of the x1-only examples
SEEDED = (
    "rosatau:amplitude=0", "analex_sanchez:c=2.5",
    "closed_diagonal:1,2,amp=0.0632,k=1,l=1",
    "closed_diagonal:3,2,amp=0.1083,k=2,l=1",
    "closed_diagonal:3,5,amp=0.1033,k=2,l=1",
    "closed_diagonal:5,8,amp=0.0624,k=1,l=2",
    "closed_diagonal:1,2,amp=0.0816,k=2,l=1",
    "closed_diagonal:3,2,amp=0.0774,k=1,l=2",
    "closed_diagonal:3,5,amp=0.1258,k=2,l=1",
    "closed_diagonal:5,8,amp=0.0986,k=1,l=1",
    '{"family":"rosatau","params":{"support":[0.1678,0.4529],'
    '"zero":0.2826,"amplitude":0.9946}}',
    '{"family":"rosatau","params":{"support":[0.1612,0.4396],'
    '"zero":0.2805,"amplitude":0.8624}}')
#: the seeded conformal rescalings of analex
CONFORMAL = (
    '{"family":"conformal_rescale","params":{"inner":{"family":"analex"},'
    '"factor":{"amp":0.3958,"k":1,"l":2,"phase":2.9308}}}',
    '{"family":"conformal_rescale","params":{"inner":{"family":"analex"},'
    '"factor":{"amp":0.3842,"k":2,"l":2,"phase":5.8605}}}')
SEEDED += CONFORMAL
#: a phase-line wave (k b2 + l b1 = 0): its X lines are the phase lines
SEEDED += ("closed_diagonal:1,-2,k=1,l=2",)
#: a rough wave whose Y lines cross the section three times a period
ROUGH_Y_WAVE = "closed_diagonal:6,8,amp=0.7705,k=2,l=3"

#: |boost| difference allowed between a closed line's lattice table and its
#: RK4 record at ode_step (the largest on ZOO and SEEDED is 1.1e-10, on the
#: rosatau Y lines)
MARCHED_BOOST = 1e-8


def _summary(table):
    """The winding and per structure (character, x_trivial) of a table."""
    return (table[(1, 1)].winding,
            {ab: (r.character, r.x_trivial) for ab, r in table.items()})


@pytest.mark.parametrize("family", ("X", "Y"))
@pytest.mark.parametrize("name", [n for n in ZOO] + list(SEEDED))
def test_lattice_quadrature_agrees_with_marched_lines(name, family, request):
    """RK4 lines marched from the section over q axis units against the
    quadrature: no shorter period brackets their returns and p lies
    between the least and greatest q-return displacement; resonant seeds
    close, asymptotic seeds drift one way, and the displacement changes
    sign across every isolated line (to 1e-6); every closed line has the
    same winding, character and x_trivial, and its boost within
    MARCHED_BOOST, as the holonomy table read from the quadrature (a
    conformal rescaling: the outer Gamma along the marched line against the
    inner one of the table).  A dense flow's marched average is within 1/n
    of the exact value after n returns."""
    spec = (request.getfixturevalue(name) if name in ZOO
            else catalog.load_metric(name))
    assert nullflow._lattice_flow(spec, family, DEFAULT) is not None
    est = nullflow.rotation_number(spec, family)
    assert est.method == "lattice"
    axis = nullflow.transversal_axis(spec, family)
    try:
        dec = nullflow.cylinder_decomposition(spec, family)
    except DenseFlow:
        seeds = np.arange(8) / 8
        ends = nullflow._march(spec, family, axis, 0.0, seeds, 32.0, 1e-2)
        assert np.max(np.abs((ends - seeds) / 32 - est.value)) < 1 / 32
        return
    p, q = dec.rotation.p, dec.rotation.q
    closed = [float(w) % 1.0 for iv in dec.resonant_intervals
              for w in iv.interior_points(5)] + list(dec.isolated_closed)
    probes = [iv.interior_points(5) for iv in dec.intervals]
    crossings = [(z - 1e-6, z + 1e-6) for z in dec.isolated_closed]
    seeds = closed + [w for ws in probes + crossings for w in ws]
    records = nullflow._line_records(spec, family, axis, 0.0, seeds, float(q),
                                     DEFAULT.ode_step)
    per_unit = round(1 / DEFAULT.ode_step)
    returns = np.array([rec.points[::per_unit, 1 - axis]
                        - rec.points[0, 1 - axis] for rec in records])
    for k in range(1, q + 1):
        low = math.ceil(returns[:, k].min() - 1e-6)
        assert (low <= returns[:, k].max() + 1e-6) == (k == q)
    assert low == p
    D = dict(zip(seeds, returns[:, q] - p))
    for iv, ws in zip(dec.intervals, probes):
        values = np.array([D[w] for w in ws])
        if iv.kind == "Resonant":
            assert np.max(np.abs(values)) < DEFAULT.closedness
        else:
            assert np.min(np.abs(values)) > DEFAULT.closedness
            assert np.all(values > 0) or np.all(values < 0)
    for a, b in crossings:
        assert D[a] * D[b] < 0
    winding = nullflow._winding(axis, q, p)
    lattice = spin.holonomy_table(spec, family, closed, dec.rotation)
    for rec, table in zip(records, lattice):
        marched = {(s.a1, s.a2): spin.holonomy_closed_line(spec, rec, s)
                   for s in spin.all_structures()}
        assert _summary(table) == _summary(marched)
        assert table[(1, 1)].winding == winding
        assert abs(table[(1, 1)].boost
                   - marched[(1, 1)].boost) < MARCHED_BOOST


@pytest.mark.parametrize("metric,family,expected", [
    ("left_invariant:1,65", "X", (1, 65)),
    ("closed_diagonal:37,64", "X", (37, 64)),
    ("closed_diagonal:2,3", "Y", None),
    ("closed_diagonal:3,5,amp=0.2,k=2,l=1", "Y", None)])
def test_lattice_certificate_past_the_cap_needs_the_quadrature_error(
        metric, family, expected):
    """A best rational with q > 64 is credible on the lattice route only
    within the quadrature's error: the true 1/65 passes, while the
    convergents 3900/5801 and 566/941 of the two exact Y rotations miss by
    6.1e-11 and 9.9e-10, so those flows are dense.  37/64 is bracketed."""
    spec = catalog.load_metric(metric)
    est = nullflow.rotation_number(spec, family)
    flow = nullflow._lattice_flow(spec, family, DEFAULT)
    assert est.method == "lattice" and flow.error < 1e-13
    got = est.rational and (abs(est.rational.p), est.rational.q)
    assert got == expected
    if expected is None:
        assert nullflow.best_rational(
            est.value, DEFAULT.rational_cap,
            DEFAULT.rational_residual_flow).residual > 1e4 * flow.error


@pytest.mark.parametrize("name, family, A, shift, closed", [
    ("analex_spec", "Y", ((0, 1), (-1, 1)), (1, 1), (0.0, 0.5)),
    ("conformal_spec", "Y", ((0, 1), (-1, 1)), (1, 1), (0.0, 0.5)),
    ("closed_diagonal:1,-2,k=1,l=2", "X", ((1, -2), (0, 1)), (-2, 1), ())])
def test_vertical_branch_runs_in_the_lattice_basis(name, family, A, shift,
                                                   closed, request):
    """Where the phase velocity V'^1 has zeros, the lines run along A e2 in
    the basis A = lattice_basis(phase): rho = (A e2)_(1-a) / (A e2)_a
    exactly, the closed lines through the section are the zeros of
    s' = V'^1/V'^2 (analex Y: w = 0 and 1/2 between asymptotic cylinders;
    the phase-line wave: every line), and each closed line is
    x0 + t A e2 / (A e2)_a."""
    spec = (request.getfixturevalue(name) if name in ZOO
            else catalog.load_metric(name))
    flow = nullflow._lattice_flow(spec, family, DEFAULT)
    assert flow.theta is None and flow.A == A and flow.shift == shift
    axis = flow.axis
    assert flow.rho == shift[1 - axis] / shift[axis] and flow.error == 0.0
    dec = nullflow.cylinder_decomposition(spec, family)
    assert (dec.rotation.p, dec.rotation.q) == (
        int(math.copysign(shift[1 - axis], shift[axis])), abs(shift[axis]))
    assert dec.isolated_closed == closed
    kinds = {iv.kind for iv in dec.intervals}
    assert kinds == ({"Asymptotic"} if closed else {"Resonant"})
    seeds = list(closed) or [0.0, 0.25, 0.7]
    slopes = _section_slope(flow, family, np.array(seeds))
    assert np.max(np.abs(slopes)) < 1e-12
    q = dec.rotation.q
    step = q * np.array(shift) / shift[axis]
    tables = spin.holonomy_table(spec, family, seeds, dec.rotation)
    assert {t[(1, 1)].winding for t in tables} == {
        nullflow._winding(axis, q, dec.rotation.p)}
    for rec in nullflow._line_records(spec, family, axis, 0.0, seeds,
                                      float(q), DEFAULT.ode_step):
        np.testing.assert_allclose(rec.points - rec.points[0],
                                   np.multiply.outer(rec.ts, step / q),
                                   rtol=0, atol=1e-9)


def _section_slope(flow, family, w):
    """s' = V'^1/V'^2 at the section point of transversal coordinate w of a
    vertical-branch flow: zero exactly on the closed lines through it."""
    w = np.asarray(w, dtype=float)
    x = (w, 0.0 * w) if flow.axis == 1 else (0.0 * w, w)
    v1, v2 = geometry.null_direction_arrays(flow.spec, *x, family)
    (a, b), (c, d) = flow.A
    return (d * v1 - b * v2) / (a * v2 - c * v1)


def _section_scan(spec, family):
    """The section scan the decomposition had before it read the phase
    zeros, kept as its partner: s' = V'^1/V'^2 at 1024 section seeds, runs
    below tol.resonance and sign flips bisected on s'.  Returns the
    resonant arcs as (lo mod 1, width) and the isolated lines."""
    flow = nullflow._lattice_flow(spec, family, DEFAULT)
    runs, zeros = circular_zeros(
        _section_slope(flow, family, np.arange(1024) / 1024),
        DEFAULT.resonance, lambda w: float(_section_slope(flow, family, w)),
        DEFAULT.bisection)
    isolated = [z for z in zeros if not any(
        lo <= z <= hi or lo <= z + 1.0 <= hi for lo, hi in runs)]
    return sorted((lo % 1.0, hi - lo) for lo, hi in runs), isolated


def _assert_scan_agrees(spec, family, dec):
    """Same interval kinds and counts as the section scan, isolated lines
    within 1e-9 and resonant ends within 1e-3 (a band edge where V'^1 is
    flat to all orders sits wherever the level cuts)."""
    arcs, isolated = _section_scan(spec, family)
    asymptotic = 0 if arcs == [(0.0, 1.0)] else len(arcs) + len(isolated)
    kinds = [iv.kind for iv in dec.intervals]
    assert (kinds.count("Resonant"), kinds.count("Asymptotic"),
            len(kinds)) == (len(arcs), asymptotic, len(arcs) + asymptotic)
    got = sorted((iv.lo % 1.0, iv.width) for iv in dec.resonant_intervals)
    for (lo, width), (want_lo, want_width) in zip(got, arcs):
        assert abs(torus_delta(lo, want_lo)) < 1e-3, (lo, want_lo)
        assert abs(width - want_width) < 2e-3, (width, want_width)
    assert len(dec.isolated_closed) == len(isolated)
    for w, z in zip(dec.isolated_closed, sorted(isolated)):
        assert abs(torus_delta(w, z)) < 1e-9, (w, z)


@pytest.mark.parametrize("name, family", [
    ("analex_spec", "Y"), ("sanchez_spec", "X"), ("rosatau_spec", "X"),
    ("conformal_spec", "Y")])
def test_section_points_match_the_section_scan(name, family, request):
    """Every vertical-branch family of the zoo: the closed lines that the
    decomposition maps from the phase zeros are those that the section
    scan finds (analex's Y lines at m = -1, analex_sanchez's four zeros on
    samples, rosatau's band, and the inner flow of a rescaling)."""
    spec = request.getfixturevalue(name)
    assert nullflow._lattice_flow(spec, family, DEFAULT).theta is None
    _assert_scan_agrees(spec, family,
                        nullflow.cylinder_decomposition(spec, family))


class _ShiftedWave(catalog.Wave):
    """A wave shifted along its phase: the zeros of its phase velocity are
    not symmetric about y1 = 0, so a section point w = (z + j)/m of the
    wrong sign of m misses them."""

    def lambdas(self, x1, x2):
        c = np.cos(2 * np.pi * (self.k * x1 + self.l * x2) + 1.0)
        return (self.base1 + self.amp * c,
                self.base2 - self.amp * (self.l / self.k) * c)


class _BandWave(catalog.Wave):
    """lam2 = (l/k) lam1 (1 + amp w), w a smooth window that vanishes where
    sin(2 pi phase) <= 0: there the Y phase velocity vanishes, a band."""

    def lambdas(self, x1, x2):
        s = np.sin(2 * np.pi * (self.k * x1 + self.l * x2))
        w = np.where(s > 0, np.exp(-1.0 / np.where(s > 0, s, 1.0)), 0.0)
        lam1 = self.base1 + 0.0 * s
        return lam1, (self.l / self.k) * lam1 * (1.0 + self.amp * w)


def test_section_points_match_the_scan_on_seeded_waves():
    """Seeded waves whose closed lines cross the section |m| >= 2 times a
    period, the 6,8 wave's Y family (m = 3, six lines), and shifted and
    banded waves at m = 3 and m = -2, against the section scan."""
    built = [_ShiftedWave(6.0, 8.0, 0.7705, 2, 3),
             _ShiftedWave(3.0, 1.0, 1.7664, -2, -1),
             _BandWave(2.0, 1.0, 0.5, 2, 3), _BandWave(2.0, 1.0, 0.5, -2, -1)]
    checked = []
    for metric in seeded_waves(35, 200) + [ROUGH_Y_WAVE] + built:
        spec = (metric if isinstance(metric, catalog.Wave)
                else catalog.load_metric(metric))
        for family in ("X", "Y"):
            flow = nullflow._lattice_flow(spec, family, DEFAULT)
            if flow is None or flow.theta is not None:
                continue
            (_, b), (_, d) = flow.A
            if abs(d if flow.axis == 1 else b) < 2:
                continue
            try:
                dec = nullflow.cylinder_decomposition(spec, family)
            except (DenseFlow, Inconclusive):
                continue
            _assert_scan_agrees(spec, family, dec)
            checked.append((metric, family, len(dec.isolated_closed)))
    assert (ROUGH_Y_WAVE, "Y", 6) in checked and len(checked) >= 10, checked
    assert [(family, n) for metric, family, n in checked[-4:]] == [
        ("Y", 6), ("Y", 4), ("Y", 0), ("Y", 0)], checked


@pytest.mark.parametrize("metric, quantities", [
    ("rosatau", ("delta_plus", "tau_minus")),
    (ROUGH_Y_WAVE, ("delta_minus", "tau_plus"))])
def test_one_zero_search_per_family(metric, quantities, monkeypatch):
    """A table searches the phase velocity of its family once
    (``phase_zeros``): the SCF rule, the flow branch and the decomposition
    read that record, and the decomposition evaluates no direction."""
    spec = catalog.load_metric(metric)
    for cached in (nullflow.phase_velocity, nullflow.phase_zeros,
                   nullflow._lattice_flow):
        cached.cache_clear()
    searches = []
    search = nullflow.circular_zeros

    def counting(*args):
        searches.append(args[0].size)
        return search(*args)

    monkeypatch.setattr(nullflow, "circular_zeros", counting)
    classify.classify_table(spec, quantities)
    assert searches == [nullflow.LATTICE_SAMPLES]
    directions = []
    direction = geometry.null_direction_arrays

    def evaluating(*args):
        directions.append(args[1:3])
        return direction(*args)

    monkeypatch.setattr(geometry, "null_direction_arrays", evaluating)
    family = classify.QUANTITIES[quantities[0]][0]
    dec = nullflow.cylinder_decomposition(spec, family)
    assert dec.isolated_closed and not directions


def test_conformal_rescaling_takes_the_inner_flow(conformal_spec,
                                                  monkeypatch):
    """The lines of lam g are those of g: the conformal X table reads the
    inner quadrature and marches no RK4 line."""
    marches = []
    march = nullflow._march

    def counting(*args, **kwargs):
        marches.append(args[:3])
        return march(*args, **kwargs)

    monkeypatch.setattr(nullflow, "_march", counting)
    inner = nullflow._lattice_flow(conformal_spec.inner, "X", DEFAULT)
    assert nullflow._lattice_flow(conformal_spec, "X", DEFAULT) is inner
    table = classify.classify_table(conformal_spec,
                                    ("delta_plus", "tau_minus"))
    assert len(table) == 4 and not marches
    assert nullflow.rotation_number(conformal_spec, "X").method == "lattice"


def test_a_flow_no_lattice_rule_covers_is_inconclusive():
    """A generic diagonal metric names no phase, and neither does its
    conformal rescaling; an x1-only metric with a kink in its graph slope
    leaves a Fourier tail above the resonance tolerance.  Each flow
    question on them is Inconclusive and names the missing route; the
    direct RK4 estimate still runs."""
    generic = geometry.Diagonal(
        lambda x1, x2: 1.0 + 0.1 * np.sin(2 * np.pi * x1) * np.cos(
            2 * np.pi * x2), lambda x1, x2: 2.0 + 0.0 * x2, grid_n=64)
    rescaled = catalog.conformal(generic, catalog.exp_sine_factor(amp=0.2))
    kinked = geometry.Sanchez(lambda x1: 1.0 + 0.5 * np.abs(np.sin(
        2 * np.pi * x1)), lambda x1: 1.0 + 0.0 * x1, lambda x1: 1.0 + 0.0 * x1)
    assert nullflow.transversal_axis(kinked, "X") == 0
    for spec, family in ((generic, "X"), (rescaled, "X"), (kinked, "X")):
        assert nullflow._lattice_flow(spec, family, DEFAULT) is None
        calls = (lambda: nullflow.rotation_number(spec, family),
                 lambda: nullflow.cylinder_decomposition(spec, family),
                 lambda: nullflow.classify_line(spec, (0.0, 0.0), family),
                 lambda: spin.holonomy_table(
                     spec, family, [0.0], nullflow.RationalCertificate(1, 1, 0)))
        for call in calls:
            with pytest.raises(Inconclusive, match="no lattice rule covers"):
                call()
    direct = nullflow.direct_rotation_number(
        generic, "X", n_returns=4, tol=DEFAULT.with_(ode_step=1e-2))
    assert direct.rational is None and abs(direct.value) < 1
    # the kink-free profile is covered
    smooth = geometry.Sanchez(lambda x1: 1.0 + 0.5 * np.sin(2 * np.pi * x1),
                              kinked.F, kinked.G)
    assert nullflow._lattice_flow(smooth, "X", DEFAULT) is not None


@given(b1=st.integers(1, 9), b2=st.integers(1, 9),
       amp=st.floats(0.01, 0.3), k=st.integers(1, 4), l=st.integers(-4, 4))
@example(b1=37, b2=64, amp=0.1, k=1, l=1)
@example(b1=3, b2=5, amp=0.2, k=2, l=1)
@example(b1=3, b2=1, amp=0.3, k=4, l=1)       # Y is -39/124 exactly
@example(b1=1, b2=1, amp=0.25, k=2, l=3)      # Y declined
@settings(max_examples=40, deadline=None)
def test_lattice_certificate_is_the_mean_coefficient_ratio(b1, b2, amp, k, l):
    """The X certificate of a closed wave is best_rational(l1/l2) of the
    mean coefficients, the exact solvers' ratio, read along the winding.
    The Y flow is declined exactly where its direction, in closed form,
    crosses the phase lines and the lines across them both; a Y
    certificate past the period cap fits within the quadrature's stated
    error."""
    # nonvanishing coefficients, and a phase velocity k/lam1 + l/lam2 =
    # (k b2 + l b1)/(lam1 lam2) that is not identically zero
    assume(abs(amp * l / k) < 0.9 * b2 and amp < 0.9 * b1)
    assume(k * b2 + l * b1 != 0)
    spec = catalog.closed_diagonal_wave(b1, b2, amp=amp, k=k, l=l)
    l1, l2 = geometry.mean_coefficients(spec)
    expected = nullflow.best_rational(l1 / l2, nullflow.MAX_PERIOD,
                                      DEFAULT.rational_residual_solver)
    est = nullflow.rotation_number(spec, "X")
    assert est.method == "lattice"
    axis = nullflow.transversal_axis(spec, "X")
    w1, w2 = nullflow._winding(axis, est.rational.q, est.rational.p)
    assert Fraction(w2, w1) == Fraction(expected.p, expected.q)
    # Y = (-1/lam1, 1/lam2) in the basis A = [[a, -l'], [c, k']] of the
    # phase (k', l'): its velocity -k'/lam1 + l'/lam2 along the phase and
    # a/lam2 + c/lam1 across it have numerators const + wave cos(phase)
    kp, lp = spec.phase()
    (a, _), (c, _) = geometry.lattice_basis(kp, lp)
    velocities = ((lp * b1 - kp * b2, 2 * amp * lp),
                  (a * b1 + c * b2, amp * (a - c * lp / kp)))
    # zeros exactly where |const| < |wave|; keep tangent zeros out
    for const, wave in velocities:
        assume(abs(abs(const) - abs(wave)) > 0.05 * abs(wave))
    if all(abs(const) < abs(wave) for const, wave in velocities):
        with pytest.raises(Inconclusive, match="no lattice rule covers"):
            nullflow.rotation_number(spec, "Y")
        return
    est = nullflow.rotation_number(spec, "Y")
    if est.rational is not None and est.rational.q > nullflow.MAX_PERIOD:
        flow = nullflow._lattice_flow(spec, "Y", DEFAULT)
        assert est.rational.residual <= flow.error


def test_lattice_rotation_is_exact_on_analex_sanchez():
    """c = 2.5: the X flow's rotation is 1/Theta with Theta = int_0^1 m, and
    has no certificate (the return-map average was 0.183236851)."""
    spec = catalog.analex_sanchez(2.5)
    est = nullflow.rotation_number(spec, "X")
    assert est.method == "lattice" and est.rational is None
    assert abs(est.value - 0.183303028) < 1e-9
    with pytest.raises(DenseFlow, match="0.183303028"):
        nullflow.cylinder_decomposition(spec, "X")

