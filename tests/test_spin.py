"""Clifford algebra, spin structures, and holonomy of closed null lines."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ZOO
from nulltorus import catalog, classify, geometry, nullflow, spin
from nulltorus.errors import DenseFlow, NotClosed
from nulltorus.nullflow import NullLineRecord, RationalCertificate
from nulltorus.spin import SpinStructure
from nulltorus.tolerances import DEFAULT

coord = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def test_gamma_generator_squares():
    assert np.array_equal(spin.GAMMA1 @ spin.GAMMA1, np.eye(2))
    assert np.array_equal(spin.GAMMA2 @ spin.GAMMA2, -np.eye(2))
    anti = spin.GAMMA1 @ spin.GAMMA2 + spin.GAMMA2 @ spin.GAMMA1
    assert np.array_equal(anti, np.zeros((2, 2)))


@given(coord, coord, coord, coord)
def test_clifford_relation(a, b, c, d):
    # v.w + w.v = -2 g(v,w) Id with g = diag(-1, +1) in frame components
    gv = spin.gamma((a, b))
    gw = spin.gamma((c, d))
    expected = -2.0 * (-a * c + b * d) * np.eye(2)
    assert np.allclose(gv @ gw + gw @ gv, expected, atol=1e-8)


def test_gamma_frame_components(analex_spec):
    # gamma of a coordinate vector routed through the frame equals gamma of
    # its frame components; the null directions give a*s1 + b*s2 with a = +-1
    p = (0.37, 0.21)
    frame = geometry.orthonormal_frame(analex_spec, p)
    X, Y = geometry.null_directions(analex_spec, p)
    assert np.allclose(spin.gamma(X, frame), spin.GAMMA1 + spin.GAMMA2)
    assert np.allclose(spin.gamma(Y, frame), -spin.GAMMA1 + spin.GAMMA2)


def test_chirality_splitting():
    omega = spin.volume_element()
    assert np.array_equal(omega, np.diag([1.0, -1.0]))
    u1 = np.array([1.0, 0.0])
    u2 = np.array([0.0, 1.0])
    # the positive half-spinor line is exactly the kernel of gamma(X)
    gX = spin.gamma((1.0, 1.0))
    gY = spin.gamma((-1.0, 1.0))
    assert np.allclose(gX @ u1, 0.0)
    assert np.allclose(gY @ u2, 0.0)
    assert np.linalg.norm(gX @ u2) > 1.0
    assert np.linalg.norm(gY @ u1) > 1.0


def test_indefinite_product(rng):
    u1 = np.array([1.0, 0.0])
    u2 = np.array([0.0, 1.0])
    # both chiral lines are null for the signature-(1,1) pairing
    assert spin.indefinite_product(u1, u1) == 0
    assert spin.indefinite_product(u2, u2) == 0
    for _ in range(25):
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2)
        # hermitian
        assert spin.indefinite_product(phi, psi) == pytest.approx(
            np.conj(spin.indefinite_product(psi, phi)))
        # gamma-symmetric
        lhs = spin.indefinite_product(spin.gamma(v) @ phi, psi)
        rhs = spin.indefinite_product(phi, spin.gamma(v) @ psi)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_structure_labels_and_characters():
    structures = spin.all_structures()
    assert [s.label for s in structures] == \
        ["(+1,+1)", "(+1,-1)", "(-1,+1)", "(-1,-1)"]
    assert structures[0].trivial
    assert not any(s.trivial for s in structures[1:])
    with pytest.raises(ValueError):
        SpinStructure(0, 1)
    s = SpinStructure(-1, 1)
    assert s.character((1, 0)) == -1
    assert s.character((2, 0)) == 1
    assert s.character((0, 5)) == 1
    assert s.character((3, 4)) == -1
    # character is a homomorphism on windings
    t = SpinStructure(-1, -1)
    for w in [(1, 1), (2, 3), (0, 1), (5, 2)]:
        for v in [(1, 0), (1, 1), (2, 2)]:
            combined = (w[0] + v[0], w[1] + v[1])
            assert t.character(combined) == t.character(w) * t.character(v)


def test_twist_periodicity(rng):
    # the twist picks up exactly the sign a_i across the i-th period, which
    # is what makes the periodic representative encode a twisted section
    for s in spin.all_structures():
        x1, x2 = rng.uniform(0, 1, size=2)
        assert s.twist(x1 + 1, x2) == pytest.approx(s.a1 * s.twist(x1, x2))
        assert s.twist(x1, x2 + 1) == pytest.approx(s.a2 * s.twist(x1, x2))
        assert abs(s.twist(x1, x2)) == pytest.approx(1.0)


def test_flat_holonomy_table(flat_spec):
    [table] = spin.holonomy_table(flat_spec, "X", [0.0],
                                  RationalCertificate(1, 1, 0.0))
    expected_trivial = {(1, 1): True, (1, -1): False,
                        (-1, 1): False, (-1, -1): True}
    for ab, res in table.items():
        assert res.winding == (1, 1)
        assert abs(res.boost) < 1e-9
        assert res.sheet == 1
        assert res.character == SpinStructure(*ab).character((1, 1))
        assert res.x_trivial == expected_trivial[ab]
        assert res.transport_factor == pytest.approx(res.character)


def _marched_closed_lines(spec):
    """RK4 records of the closed lines the classification samples, both
    families: five per resonant interval, then the isolated ones, each
    marched over q axis units from the section."""
    records = []
    for family in ("X", "Y"):
        try:
            dec = nullflow.cylinder_decomposition(spec, family, tol=DEFAULT)
        except DenseFlow:
            continue
        seeds = [float(w) % 1.0 for iv in dec.resonant_intervals
                 for w in iv.interior_points(5)]
        seeds += [float(w) for w in dec.isolated_closed]
        records += nullflow._line_records(spec, family, dec.axis, 0.0, seeds,
                                          float(dec.rotation.q),
                                          DEFAULT.ode_step)
    return records


@pytest.mark.parametrize("name", ZOO)
def test_holonomy_boosts_are_scipys_simpson_bitwise(name, request,
                                                    monkeypatch):
    """The in-package Simpson rule leaves the boost of every marched closed
    line as scipy's rule gave it, bit for bit."""
    from scipy.integrate import simpson as reference
    spec = request.getfixturevalue(name)
    records = _marched_closed_lines(spec)
    assert records or name == "sqrt2_spec"     # irrational: dense both ways
    trivial = SpinStructure(1, 1)
    ours = [spin.holonomy_closed_line(spec, rec, trivial).boost
            for rec in records]
    monkeypatch.setattr(spin, "simpson", reference)
    theirs = [spin.holonomy_closed_line(spec, rec, trivial).boost
              for rec in records]
    assert [b.hex() for b in ours] == [b.hex() for b in theirs]


def _rosatau_line(spec, w):
    """The RK4 record of the vertical X-line x1 = w, one unit of x2."""
    return nullflow.integrate_null_line(spec, (w, 0.0), "X", t_max=1.0)


def test_rosatau_isolated_line_boost(rosatau_spec):
    # the isolated vertical closed line sits where the profile crosses zero
    # with unit slope; its transport eigenvalue log is -slope/4 = -0.25,
    # along the marched line and in the lattice table
    rec = _rosatau_line(rosatau_spec, 0.3)
    res = spin.holonomy_closed_line(rosatau_spec, rec, SpinStructure(1, 1))
    assert res.winding == (0, 1)
    assert res.boost == pytest.approx(-0.25, abs=1e-6)
    assert not res.x_trivial
    [table] = spin.holonomy_table(rosatau_spec, "X", [0.3],
                                  RationalCertificate(0, 1, 0.0))
    assert table[(1, 1)].boost == pytest.approx(-0.25, abs=1e-6)


def test_rosatau_band_line_transport_trivial(rosatau_spec):
    # inside the resonant band the profile vanishes identically, so the
    # connection integral is zero and triviality is decided by the character
    table = {(s.a1, s.a2): spin.holonomy_closed_line(
        rosatau_spec, _rosatau_line(rosatau_spec, 0.7), s)
        for s in spin.all_structures()}
    [lattice] = spin.holonomy_table(rosatau_spec, "X", [0.7],
                                    RationalCertificate(0, 1, 0.0))
    for ab, res in table.items():
        for r in (res, lattice[ab]):
            assert abs(r.boost) < 1e-9
            assert r.x_trivial == (ab[1] == 1)


def test_boost_is_parametrization_invariant(rosatau_spec):
    rec = _rosatau_line(rosatau_spec, 0.3)
    # rescale the parameter t -> t/2; the connection integral is linear in
    # the velocity, so the holonomy must not change
    rescaled = NullLineRecord(family=rec.family, axis=rec.axis,
                              ts=rec.ts / 2.0, points=rec.points,
                              velocities=2.0 * rec.velocities)
    a = spin.holonomy_closed_line(rosatau_spec, rec, SpinStructure(1, -1))
    b = spin.holonomy_closed_line(rosatau_spec, rescaled, SpinStructure(1, -1))
    assert b.boost == pytest.approx(a.boost, abs=1e-12)
    assert b.character == a.character


def test_holonomy_rejects_open_record(flat_spec):
    rec = nullflow.integrate_null_line(flat_spec, (0.0, 0.0), "X")
    m = len(rec.ts) // 2
    half = NullLineRecord(family=rec.family, axis=rec.axis, ts=rec.ts[:m],
                          points=rec.points[:m], velocities=rec.velocities[:m])
    with pytest.raises(NotClosed):
        spin.holonomy_closed_line(flat_spec, half, SpinStructure(1, 1))


def test_parallel_transport_matches_holonomy(rosatau_spec):
    rec = _rosatau_line(rosatau_spec, 0.3)
    phi0 = np.array([1.0 + 0.5j, -0.25j])
    for s in spin.all_structures():
        res = spin.holonomy_closed_line(rosatau_spec, rec, s)
        out = spin.parallel_transport_spin(rosatau_spec, rec, s, phi0)
        # positive component scales by the transport factor of the line
        assert out[0] == pytest.approx(res.transport_factor * phi0[0],
                                       rel=1e-8)
        # negative chirality sees the connection with the opposite sign
        neg_factor = res.sheet * res.character * np.exp(-res.boost)
        assert out[1] == pytest.approx(neg_factor * phi0[1], rel=1e-8)


@pytest.mark.parametrize("metric, quantities, most", [
    ("closed_diagonal:37,64", ("delta_plus", "tau_minus"), 2048 + 5),
    ("closed_diagonal:6,8,amp=0.7705,k=2,l=3", ("delta_minus", "tau_plus"),
     99)])
def test_tables_read_gamma_on_the_phase_line_only(metric, quantities, most,
                                                  monkeypatch):
    """A table's holonomy reads Gamma once per phase sample on the graph
    branch (the 37/64 wave, 101 y1-periods per closed line) and once per
    closed line on the vertical one (six isolated Y-lines of the 6,8 wave),
    and records no line."""
    spec = catalog.load_metric(metric)
    points, records = [], []
    along = geometry.connection_along
    init = NullLineRecord.__init__

    def counting(spec, x1, x2, *args):
        points.append(np.broadcast(x1, x2).size)
        return along(spec, x1, x2, *args)

    def recording(self, *args, **kwargs):
        records.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(geometry, "connection_along", counting)
    monkeypatch.setattr(NullLineRecord, "__init__", recording)
    table = classify.classify_table(spec, quantities)
    assert len(table) == 4
    assert 0 < sum(points) <= most and not records


def test_spin_connection_scalar_routes(analex_spec):
    # chiral scalar = chirality * Gamma/2 + twist form, checked against the
    # geometry route for the connection coefficient
    x1, x2, v1, v2 = 0.12, 0.81, 0.7, -0.4
    gam = geometry.connection_along(analex_spec, x1, x2, v1, v2)
    for s in (SpinStructure(1, 1), SpinStructure(-1, -1)):
        for chir in (+1, -1):
            val = spin.spin_connection_scalar(analex_spec, s, v1, v2, x1, x2,
                                              chirality=chir)
            expected = 0.5 * chir * gam + s.twist_form(v1, v2)
            assert val == pytest.approx(expected, abs=1e-12)
