"""Kernel solvers, covariant operators, and localized resonant sections."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import ZOO, count_operator_builds, count_transforms
from nulltorus import catalog, classify, geometry, nullflow, spin, spinorfield
from nulltorus.errors import (DenseFlow, NotHarmonic, NotXTrivial,
                              UnsupportedFamily, WrongFamily)
from nulltorus.gridtools import grid_points
from nulltorus.spin import GAMMA1, GAMMA2, SpinStructure, all_structures
from nulltorus.tolerances import DEFAULT


# ---------------------------------------------------------------------------
# covariant operators


def test_transport_of_fourier_modes_flat(flat_spec):
    s = SpinStructure(1, 1)
    # on the flat torus X = (1, 1), so nabla_X e(k,l) = 2 pi i (k+l) e(k,l)
    parallel = spinorfield.fourier_mode_field(flat_spec, s, (1, -1))
    moving = spinorfield.fourier_mode_field(flat_spec, s, (1, 0))
    assert spinorfield.residual_norm(parallel, "transport") < 1e-10
    out = spinorfield.nabla_along(moving, "X")
    assert np.allclose(out.values, 2j * np.pi * moving.values, atol=1e-9)


def test_dirac_routes_chiral_components(analex_spec):
    s = SpinStructure(-1, 1)
    pos = spinorfield.fourier_mode_field(analex_spec, s, (2, 1), chirality=1)
    neg = spinorfield.fourier_mode_field(analex_spec, s, (0, 3), chirality=-1)
    phi = spinorfield.SpinorField(positive=pos, negative=neg)
    d = spinorfield.dirac_apply(phi)
    assert np.allclose(d.negative.values,
                       1j * spinorfield.nabla_along(pos, "X").values)
    assert np.allclose(d.positive.values,
                       1j * spinorfield.nabla_along(neg, "Y").values)


def test_penrose_operator_is_gamma_trace_free(analex_spec):
    # -gamma(s1) P_1 + gamma(s2) P_2 = 0 holds identically, for any section
    s = SpinStructure(1, -1)
    pos = spinorfield.fourier_mode_field(analex_spec, s, (1, 2), chirality=1)
    neg = spinorfield.fourier_mode_field(analex_spec, s, (-2, 1), chirality=-1)
    phi = spinorfield.SpinorField(positive=pos, negative=neg)
    p1, p2 = spinorfield.twistor_apply(phi)
    trace = (-np.einsum("ab,b...->a...", GAMMA1, p1.component_grids())
             + np.einsum("ab,b...->a...", GAMMA2, p2.component_grids()))
    assert np.max(np.abs(trace)) < 1e-9


def test_residual_norm_equivalences(analex_spec):
    s = SpinStructure(1, 1)
    f = spinorfield.fourier_mode_field(analex_spec, s, (1, 1), chirality=1)
    # for a pure positive half, the Dirac residual is the X-transport defect
    assert spinorfield.residual_norm(f, "harmonic") == \
        spinorfield.residual_norm(f, "transport")
    with pytest.raises(ValueError):
        spinorfield.residual_norm(f, "heat")


def _plane_norm(phi, operator):
    """``residual_norm`` on the 2-D route, by name: every half read on
    the n x n grid."""
    return spinorfield._residual_norm(phi, operator,
                                      spinorfield._plane_residual)


def test_harmonic_residual_transports_only_nonzero_halves(analex_spec,
                                                          monkeypatch):
    s = SpinStructure(1, -1)
    pos = spinorfield.fourier_mode_field(analex_spec, s, (2, 1), chirality=1)
    neg = spinorfield.fourier_mode_field(analex_spec, s, (0, 3), chirality=-1)
    both = spinorfield.SpinorField(positive=pos, negative=neg)
    d = spinorfield.dirac_apply(both)
    dirac_sup = max(float(np.max(np.abs(d.negative.values))),
                    float(np.max(np.abs(d.positive.values))))
    assert _plane_norm(both, "harmonic") == dirac_sup

    transforms, operators = _count_transforms(monkeypatch)
    _plane_norm(neg, "harmonic")
    assert len(transforms) == 1 and operators == ["Y"]


def _count_transforms(monkeypatch):
    """Lists that record each spectral derivative pair the operators take
    (by the shape of its input, once per pair: the x1 partial comes first)
    and the direction of each transport operator they build (from an empty
    operator cache)."""
    transforms = []
    derivative = spinorfield._axis_derivative

    def counting_derivative(values, axis):
        if axis == 0:
            transforms.append(values.shape)
        return derivative(values, axis)

    monkeypatch.setattr(spinorfield, "_axis_derivative", counting_derivative)
    return transforms, count_operator_builds(monkeypatch)


@pytest.mark.parametrize("chirality", [1, -1])
def test_operators_differentiate_only_nonzero_halves(analex_spec, monkeypatch,
                                                     chirality):
    """One spectral derivative pair per nonzero half and application."""
    f = spinorfield.fourier_mode_field(analex_spec, SpinStructure(1, -1),
                                       (2, 1), chirality=chirality)
    transforms, operators = _count_transforms(monkeypatch)
    d = spinorfield.dirac_apply(f)
    assert transforms == [f.values.shape]
    assert operators == ["X" if chirality == 1 else "Y"]
    zero_half = d.positive if chirality == 1 else d.negative
    assert not np.any(zero_half.values)
    for apply in (spinorfield.twistor_apply,
                  lambda g: _plane_norm(g, "twistor")):
        transforms.clear()
        apply(f)
        assert transforms == [f.values.shape]
    assert operators == (["X", "Y"] if chirality == 1 else ["Y", "X"])
    g = spinorfield.fourier_mode_field(analex_spec, SpinStructure(1, -1),
                                       (0, 3), chirality=-chirality)
    pos, neg = (f, g) if chirality == 1 else (g, f)
    both = spinorfield.SpinorField(positive=pos, negative=neg)
    for apply in (spinorfield.dirac_apply, spinorfield.twistor_apply,
                  lambda g: _plane_norm(g, "twistor")):
        transforms.clear()
        apply(both)
        assert len(transforms) == 2


def _reference_derivative(values, axis):
    """The spectral partial written out: a new spectrum times 2 pi i k, a
    new inverse."""
    if np.all(values == values.flat[0]):
        return np.zeros(values.shape, complex)
    n = values.shape[axis]
    k = np.fft.fftfreq(n, 1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    k = 2j * np.pi * k.reshape((-1,) + (1,) * (1 - axis))
    return np.fft.ifft(np.fft.fft(values, axis=axis) * k, axis=axis)


def _reference_residual(f, operator):
    """``residual_norm`` of a half as one expression: V's components from
    the frame grids, the potential from the connection grids."""
    twistor = operator == "twistor"
    if not np.any(f.values):
        return 0.0
    n = f.grid_n
    a1, a2, b1, b2 = geometry.frame_grids(f.spec, n)
    G1, G2 = geometry.connection_one_form_grids(f.spec, n)
    if (f.chirality == 1) != twistor:       # X
        v1, v2 = a1 + b1, a2 + b2
    else:
        v1, v2 = -a1 + b1, -a2 + b2
    d1, d2 = (_reference_derivative(f.values, axis) for axis in (0, 1))
    potential = (0.5 * f.chirality * (v1 * G1 + v2 * G2)
                 + f.structure.twist_form(v1, v2))
    nabla = v1 * d1 + v2 * d2 + potential * f.values
    return (0.5 if twistor else 1.0) * float(np.max(np.abs(nabla)))


@pytest.mark.parametrize("name", ZOO)
def test_residuals_are_the_written_out_expression_bit_for_bit(name, request):
    """The cached operators and the in-place update change no bit: on
    every structure and chirality, each exact solver field (at 64^2) and a
    zero and a constant field have, on the 2-D route, the residual of the
    written-out expression under each operator, compared with ==."""
    spec = request.getfixturevalue(name)
    for structure in all_structures():
        for chirality in (1, -1):
            fields = [spinorfield.constant_field(spec, structure, chirality,
                                                 value, 64)
                      for value in (0.0, 0.3 - 1.1j)]
            solver = spinorfield.exact_solver(spec, DEFAULT)
            if solver is not None:
                fields += solver(spec, structure, chirality=chirality,
                                 n_fields=4, grid_n=64, tol=DEFAULT).fields
            for f in fields:
                for operator in ("harmonic", "twistor", "transport"):
                    assert (_plane_norm(f, operator)
                            == _reference_residual(f, operator))


CLOSED_ZOO = ("flat_spec", "sqrt2_spec", "analex_spec", "wave12_spec")


@pytest.mark.parametrize("chirality", [1, -1])
@pytest.mark.parametrize("name", CLOSED_ZOO)
def test_operators_are_their_per_direction_composition(name, chirality,
                                                       request):
    """D and P_i, with nabla_X and nabla_Y read off one derivative pair as
    nabla_s1 +- nabla_s2, equal their definitions composed from
    ``nabla_along`` per direction, on every structure and chirality."""
    spec = request.getfixturevalue(name)
    assert geometry.is_closed_diagonal(spec)
    for s in all_structures():
        a, b = (spinorfield.fourier_mode_field(spec, s, mode, chirality,
                                               grid_n=64).values
                for mode in ((2, 1), (-1, 3)))
        f = spinorfield.HalfSpinorField(spec, s, chirality, a + 0.5 * b)
        bound = 1e-12 * f.sup_norm()
        pos, neg = ((f, spinorfield.zero_like(f, 1)) if chirality == 1
                    else (spinorfield.zero_like(f, -1), f))
        dirac = np.stack([1j * spinorfield.nabla_along(neg, "Y").values,
                          1j * spinorfield.nabla_along(pos, "X").values])
        got = spinorfield.dirac_apply(f).component_grids()
        assert np.max(np.abs(got - dirac)) <= bound
        for p, direction, gam in zip(spinorfield.twistor_apply(f),
                                     ("s1", "s2"), (GAMMA1, GAMMA2)):
            want = (np.stack([spinorfield.nabla_along(pos, direction).values,
                              spinorfield.nabla_along(neg, direction).values])
                    + 0.5 * np.einsum("ab,b...->a...", gam, dirac))
            assert np.max(np.abs(p.component_grids() - want)) <= bound


def test_nabla_along_names_only(analex_spec):
    f = spinorfield.constant_field(analex_spec, SpinStructure(1, 1))
    with pytest.raises(ValueError):
        spinorfield.nabla_along(f, "Z")


# ---------------------------------------------------------------------------
# left-invariant solver vs brute-forced mode search


def _mode_condition(spec, structure, family, k, l):
    lam1, lam2 = float(spec.lam1), float(spec.lam2)
    sign = 1.0 if family == "X" else -1.0
    return ((4 * k + 1 - structure.a1) * lam2
            + sign * (4 * l + 1 - structure.a2) * lam1)


@pytest.mark.parametrize("lams", [(1, 1), (1, 2), (3, 2)])
@pytest.mark.parametrize("family", ["X", "Y"])
def test_left_invariant_solver_matches_brute_force(lams, family):
    spec = catalog.left_invariant(*lams)
    ratio = Fraction(lams[0], lams[1])
    p, q = ratio.numerator, ratio.denominator
    for s in all_structures():
        brute = [(k, l) for k in range(-8, 9) for l in range(-8, 9)
                 if _mode_condition(spec, s, family, k, l) == 0]
        sol = spinorfield.solve_left_invariant(spec, s, family=family)
        if not brute:
            assert sol.count_class == "Zero"
            assert sol.congruence_obstructed
            assert sol.fields == ()
        else:
            # solutions always come as a full lattice line, never one point
            assert len(brute) >= 2
            assert sol.count_class == "Infinite"
            assert set(sol.modes) >= set(
                m for m in brute if max(abs(m[0]), abs(m[1])) <= 2)
        # solvability is the character condition on the closed-line winding
        assert (sol.count_class == "Infinite") == (s.character((q, p)) == 1)
        assert sol.ratio == ratio
        assert sol.exact
        for f in sol.fields:
            k, l = f.meta["mode"]
            assert _mode_condition(spec, s, family, k, l) == 0
            defect = spinorfield.nabla_along(f, family)
            assert float(np.max(np.abs(defect.values))) < 1e-9


def test_left_invariant_lattice_line():
    spec = catalog.left_invariant(1, 2)
    sol = spinorfield.solve_left_invariant(spec, SpinStructure(1, 1))
    lat = sol.lattice
    assert lat is not None
    assert set(sol.modes) <= {lat.mode(t) for t in range(-40, 41)}
    # the direction spans the homogeneous solutions: k*q + l*p = 0
    dk, dl = lat.direction
    assert dk * 2 + dl * 1 == 0


def test_left_invariant_irrational(sqrt2_spec):
    for s in all_structures():
        sol = spinorfield.solve_left_invariant(sqrt2_spec, s)
        assert sol.ratio is None
        if s.trivial:
            assert sol.count_class == "One"
            assert sol.modes == ((0, 0),)
            assert spinorfield.residual_norm(sol.fields[0], "transport") < 1e-9
        else:
            assert sol.count_class == "Zero"
            assert sol.fields == ()


def test_left_invariant_rejects_other_families(analex_spec):
    with pytest.raises(WrongFamily):
        spinorfield.solve_left_invariant(analex_spec, SpinStructure(1, 1))


# ---------------------------------------------------------------------------
# closed diagonal solver


def test_closed_diagonal_solvability_pattern(analex_spec):
    # closed X-lines wind (1, -1), so the character test picks a1 == a2
    for s in all_structures():
        sol = spinorfield.solve_closed_diagonal(analex_spec, s, grid_n=256)
        assert sol.ratio is not None and (sol.ratio.p, sol.ratio.q) == (-1, 1)
        if s.a1 == s.a2:
            assert sol.solvable and sol.count_class == "Infinite"
            assert sol.t_parity == (0 if s.trivial else 1)
        else:
            assert not sol.solvable
            assert sol.congruence_obstructed
            assert sol.count_class == "Zero" and sol.fields == ()


@pytest.mark.parametrize("ab,chirality", [((1, 1), 1), ((1, 1), -1),
                                          ((-1, -1), 1), ((-1, -1), -1)])
def test_closed_diagonal_fields_solve_their_equation(analex_spec, ab,
                                                     chirality):
    sol = spinorfield.solve_closed_diagonal(analex_spec, SpinStructure(*ab),
                                            chirality=chirality, grid_n=256)
    op = "harmonic" if chirality == 1 else "twistor"
    for f in sol.fields:
        assert abs(f.sup_norm() - 1.0) < 1e-12
        assert spinorfield.residual_norm(f, op) < 1e-10
    if ab == (1, 1):
        # alpha = 0 gives the constant section
        assert sol.alphas[0] == 0.0
        assert np.allclose(sol.fields[0].values, sol.fields[0].values[0, 0])


def test_closed_diagonal_alphas_are_equivariant(analex_spec):
    # exp(i pi alpha G) changes by exp(2 pi i alpha l1) over the first period
    # and exp(-2 pi i alpha l2) over the second; together with the twist the
    # periodic representative must come back to itself
    for ab in [(1, 1), (-1, -1)]:
        s = SpinStructure(*ab)
        sol = spinorfield.solve_closed_diagonal(analex_spec, s, grid_n=128)
        for alpha in sol.alphas:
            assert s.a1 * np.exp(2j * np.pi * alpha * sol.l1) == \
                pytest.approx(1.0, abs=1e-12)
            assert s.a2 * np.exp(-2j * np.pi * alpha * sol.l2) == \
                pytest.approx(1.0, abs=1e-12)
        # shifting the parity by one breaks equivariance
        bad = sol.alphas[0] + sol.ratio.p / (2 * sol.l1)
        assert abs(s.a1 * np.exp(2j * np.pi * bad * sol.l1) - 1.0) > 1.0


def test_closed_diagonal_count_builds_no_phase_grid(analex_spec,
                                                   monkeypatch):
    monkeypatch.setattr(nullflow, "first_integral_function", None)
    sol = spinorfield.solve_closed_diagonal(analex_spec, SpinStructure(1, 1),
                                            n_fields=0)
    assert sol.count_class == "Infinite" and sol.fields == ()


def _kernel_shapes(n):
    """analex, the (k, l) = (1, 1), (1, 2), (2, 2), (2, 1) and (4, -6)
    waves, and a wave with negative lam2, on the n x n grid, each with its
    closed-form mean coefficients."""
    waves = ((catalog.closed_diagonal_wave(3.0, 5.0, amp=0.2, k=k, l=l,
                                           grid_n=n), (3.0, 5.0))
             for k, l in ((1, 1), (1, 2), (2, 2), (2, 1), (4, -6)))
    return ((catalog.analex(grid_n=n), (1.0, -1.0)), *waves,
            (catalog.from_shorthand("closed_diagonal:1,-2,k=1,l=2", n),
             (1.0, -2.0)))


@pytest.mark.parametrize("n", (63, 64, 256))
def test_closed_diagonal_kernels_match_the_plane_route(n, monkeypatch):
    """The phase-line route against the n x n route (``_phase_line``
    patched to None).  Both routes' means, correctly rounded sums, are
    the closed-form means (the plane route's sums of column means missed
    them by an ulp at 63 on two of the seven shapes).  F agrees
    within a few ulps of max|F| (measured at most 2), both closedness
    residuals are below 1e-12 of the size of d2 lam1 (measured at most
    5.6e-13), and kernel fields agree within 1e-13 (measured at most
    9.4e-15) on every structure with alphas."""
    for spec, exact_means in _kernel_shapes(n):
        assert spec.phase() is not None

        def build():
            F = nullflow.FirstIntegral(spec, n)
            return (geometry.mean_coefficients(spec),
                    geometry._closedness_residual.__wrapped__(spec, n, "X"),
                    F.grid(),
                    [tuple(spinorfield.HalfSpinorField(spec, s, 1, phase).values
                           for phase in F.phase_fields(
                               spinorfield.solve_closed_diagonal(
                                   spec, s, n_fields=0).alphas[:2], s))
                     for s in all_structures()])

        means, closedness, F, fields = build()
        with monkeypatch.context() as plane_route:
            plane_route.setattr(geometry, "_phase_line", lambda spec, n: None)
            want_means, want_closedness, want_F, want_fields = build()
        assert means == want_means == exact_means
        assert np.max(np.abs(F - want_F)) <= 4 * np.spacing(
            float(np.max(np.abs(want_F))))
        scale = float(np.max(np.abs(spec.lambda_partials(
            *grid_points(n))[1])))
        assert max(closedness, want_closedness) < 1e-12 * max(scale, 1.0)
        assert [len(f) for f in fields] == [len(f) for f in want_fields]
        for got, want in zip(sum(fields, ()), sum(want_fields, ())):
            assert np.max(np.abs(got - want)) < 1e-13


def test_closed_diagonal_solve_takes_no_plane_transform(monkeypatch):
    """A 256^2 wave: closedness, means, F, the kernel phases and their
    residuals come from 1-D transforms of the phase line, none of a 2-D
    array."""
    for cached in (geometry._phase_line, geometry._closedness_residual,
                   nullflow.first_integral_function):
        cached.cache_clear()
    calls = count_transforms(monkeypatch)
    spec = catalog.closed_diagonal_wave(2.0, 3.0, amp=0.1, k=1, l=2)
    sol = spinorfield.solve_closed_diagonal(spec, SpinStructure(1, -1),
                                            n_fields=4, grid_n=256)
    assert len(sol.fields) == 4 and sol.fields[0].grid_n == 256
    assert max(spinorfield.residual_norm(f) for f in sol.fields) < 1e-10
    assert "plane" not in calls and calls["fft"] > 0


def test_twistor_residual_is_the_max_over_the_penrose_components(
        analex_spec, conformal_spec):
    """``residual_norm(phi, "twistor")`` on the 2-D route reads
    1/2 nabla_Y psi^+ and 1/2 nabla_X psi^- without building P_1 and P_2,
    bit for bit their sup norm, on either half and on a full spinor, with
    and without a phase line."""
    s = SpinStructure(1, -1)
    for spec in (analex_spec, conformal_spec):
        pos = spinorfield.fourier_mode_field(spec, s, (1, 2), 1, grid_n=64)
        neg = spinorfield.fourier_mode_field(spec, s, (-2, 1), -1, grid_n=64)
        for phi in (pos, neg, spinorfield.SpinorField(positive=pos,
                                                      negative=neg)):
            want = max(half.sup_norm() for p in spinorfield.twistor_apply(phi)
                       for half in (p.positive, p.negative))
            assert _plane_norm(phi, "twistor") == want > 0


#: waves whose kernel fields alias on small grids: phases (2, -3), (-1, 3)
ALIASING_WAVES = ("closed_diagonal:3,5,amp=0.2,k=4,l=-6",
                  "closed_diagonal:6,4,amp=1.1403,k=-1,l=3")


def _route_partners(specs, n):
    """Every exact-solver field of the specs on the n x n grid, on every
    structure and chirality, under both null directions: where the line
    route reads a residual it lies within [plane - 1e-12, plane + 1e-10]
    of the 2-D route's, elsewhere ``residual_norm`` is the 2-D route's bit
    for bit.  Returns the counts of fields read on the line and declined
    (a field counts as declined when either direction is)."""
    taken = declined = 0
    for spec in specs:
        solver = spinorfield.exact_solver(spec, DEFAULT)
        if solver is None:
            continue
        for structure in all_structures():
            for chirality in (1, -1):
                for f in solver(spec, structure, chirality=chirality,
                                n_fields=4, grid_n=n, tol=DEFAULT).fields:
                    lines = []
                    for operator in ("harmonic", "twistor"):
                        got = spinorfield.residual_norm(f, operator)
                        plane = _plane_norm(f, operator)
                        direction = ("X" if (chirality == 1)
                                     != (operator == "twistor") else "Y")
                        lines.append(spinorfield._line_residual(f, direction))
                        if lines[-1] is None:
                            assert got == plane
                        else:
                            assert plane - 1e-12 <= got <= plane + 1e-10, (
                                spec, n, structure, f.factors.mode, operator)
                    declined += None in lines
                    taken += None not in lines
    return taken, declined


@pytest.mark.parametrize("n", (63, 64, 256))
def test_line_residuals_bound_the_plane_residuals(n, request):
    """The differential partner of the phase-line residual: every exact
    solver field of the zoo and of two waves whose fields alias on small
    grids.  At 63 and 64 those waves' 24 fields fall back (their 2-D
    residuals, 1e-10 to 2e-5, come from aliasing); every other field (58
    there, 82 at 256) is read on its line, never below the 2-D residual by more than 1e-12 and
    within 1e-10 of it (measured: at most 1.8e-11 above, never below)."""
    specs = [request.getfixturevalue(name) for name in ZOO] + [
        catalog.from_shorthand(wave, n) for wave in ALIASING_WAVES]
    assert _route_partners(specs, n) == ((58, 24) if n < 256 else (82, 0))


def test_line_residuals_bound_the_plane_residuals_at_512():
    """The partner on a 512^2 grid, where the 2-D route's rounding is
    largest, for the flat torus's mode fields and an aliasing wave."""
    specs = [catalog.flat(), catalog.from_shorthand(ALIASING_WAVES[1], 512)]
    assert _route_partners(specs, 512) == (32, 0)


def test_inadmissible_fields_fail_on_both_routes(wave12_spec):
    """Negative witnesses: an alpha off the admissible lattice (its x1
    factor has a half-integer mode) and a kernel field with a perturbed
    profile are each read on the line, and each residual exceeds
    100 tol.differential there and on the 2-D route."""
    n, structure = 64, SpinStructure(1, 1)
    sol = spinorfield.solve_closed_diagonal(wave12_spec, structure,
                                            n_fields=2, grid_n=n)
    bad_alpha = sol.alphas[1] + sol.ratio.p / (2 * sol.l1)
    [shifted] = nullflow.first_integral_function(wave12_spec, n).phase_fields(
        (bad_alpha,), structure)
    good = sol.fields[1].factors
    ripple = 1 + 1e-3 * np.cos(6 * np.pi * np.arange(n) / n)
    perturbed = geometry.PhaseFactors(good.mode, good.col, good.row,
                                      good.profile * ripple)
    for factors in (shifted, perturbed):
        f = spinorfield.HalfSpinorField(wave12_spec, structure, 1, factors)
        assert spinorfield._line_residual(f, "X") is not None
        for residual in (spinorfield.residual_norm(f),
                         _plane_norm(f, "harmonic")):
            assert residual > 100 * DEFAULT.differential


def test_factored_fields_cannot_go_stale(analex_spec):
    """A factored field's values are read-only, and neither they nor its
    factors can be reassigned.  Its conformal and harmonic <-> twistor
    images (which copy its meta), ``zero_like`` and ``embed``'s padding
    carry no factors, and their residuals are the 2-D route's."""
    s = SpinStructure(1, 1)
    mode = spinorfield.fourier_mode_field(analex_spec, s, (1, 1), grid_n=64)
    kernel = spinorfield.solve_closed_diagonal(analex_spec, s, n_fields=2,
                                               grid_n=64).fields[1]
    for f in (mode, kernel):
        assert f.factors is not None and not f.values.flags.writeable
        with pytest.raises(ValueError):
            f.values[0, 0] = 0.0
        with pytest.raises(ValueError):
            f.values += 1.0
        for name, value in (("values", f.values.copy()), ("factors", None)):
            with pytest.raises(AttributeError):
                setattr(f, name, value)
    target = catalog.conformal(analex_spec, catalog.exp_sine_factor(amp=0.25))
    images = ((spinorfield.conformal_map_spinor(kernel, target), "harmonic"),
              (spinorfield.harmonic_twistor_iso(kernel), "twistor"),
              (spinorfield.zero_like(kernel), "harmonic"),
              (spinorfield.embed(kernel).negative, "twistor"))
    for image, operator in images:
        assert image.factors is None and image.values.flags.writeable
        assert (spinorfield.residual_norm(image, operator)
                == _plane_norm(image, operator))
    assert all(image.meta["alpha"] == kernel.meta["alpha"]
               for image, _ in images[:2])


def test_exact_solver_per_family(analex_spec, sqrt2_spec, monkeypatch):
    spec = catalog.left_invariant(1, 2)
    for family in ("X", "Y"):
        solver = spinorfield.exact_solver(spec, family=family)
        sol = solver(spec, SpinStructure(1, 1), n_fields=0)
        assert sol.family == family
    assert spinorfield.exact_solver(analex_spec) is \
        spinorfield.solve_closed_diagonal
    # no Y solver for closed diagonal metrics, decided without a grid check
    monkeypatch.setattr(geometry, "is_closed_diagonal", None)
    assert spinorfield.exact_solver(analex_spec, family="Y") is None
    assert spinorfield.exact_solver(sqrt2_spec, family="Y") is not None


@pytest.mark.parametrize("lams", [
    (1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 5), (5, 8), (1, -1), (-1, 2),
    (3, -4), (np.sqrt(2.0), 1)], ids=lambda lams: "%g/%g" % lams)
def test_left_invariant_count_matches_closed_diagonal(lams):
    """Both exact solvers count by the one character rule: on constant
    coefficients (a closed diagonal metric too) they agree for either
    family and every structure."""
    spec = catalog.left_invariant(*lams)
    for s in all_structures():
        closed = spinorfield.solve_closed_diagonal(spec, s, n_fields=0)
        for family in ("X", "Y"):
            sol = spinorfield.solve_left_invariant(spec, s, family=family,
                                                   n_fields=0)
            assert sol.count_class == closed.count_class, (s, family)


def test_closed_diagonal_rejects_non_diagonal(sanchez_spec):
    with pytest.raises(WrongFamily):
        spinorfield.solve_closed_diagonal(sanchez_spec, SpinStructure(1, 1))


# ---------------------------------------------------------------------------
# conformal rescaling of kernel fields


def test_conformal_map_weights(analex_spec, conformal_spec):
    sol = spinorfield.solve_closed_diagonal(analex_spec, SpinStructure(1, 1),
                                            grid_n=256)
    f = sol.fields[1]
    from nulltorus.gridtools import grid_points
    X1, X2 = grid_points(f.grid_n)
    lam = conformal_spec.factor_at(X1, X2)

    up = spinorfield.conformal_map_spinor(f, conformal_spec, "harmonic")
    assert up.meta["conformal_weight"] == -0.25
    assert np.allclose(up.values, lam ** -0.25 * f.values)
    assert spinorfield.residual_norm(up, "harmonic") < 1e-6

    tw = spinorfield.conformal_map_spinor(f, conformal_spec, "twistor")
    assert np.allclose(tw.values, lam ** 0.25 * f.values)

    down = spinorfield.conformal_map_spinor(up, analex_spec, "harmonic")
    assert np.allclose(down.values, f.values, rtol=1e-12)


def test_conformal_map_requires_matching_specs(analex_spec, flat_spec):
    f = spinorfield.constant_field(analex_spec, SpinStructure(1, 1))
    with pytest.raises(WrongFamily):
        spinorfield.conformal_map_spinor(f, flat_spec)
    with pytest.raises(ValueError):
        spinorfield.conformal_map_spinor(f, flat_spec, kind="dirac")


# ---------------------------------------------------------------------------
# localized sections on resonant cylinders


def _max_support_overlap(fields):
    worst = 0.0
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            worst = max(worst, float(np.max(np.abs(fields[i].values)
                                            * np.abs(fields[j].values))))
    return worst


def test_resonant_bumps_closed_diagonal(analex_spec):
    fields = spinorfield.construct_resonant_spinors(
        analex_spec, SpinStructure(1, 1), count=2, grid_n=1024)
    assert len(fields) == 2
    assert _max_support_overlap(fields) == 0.0
    for f in fields:
        assert f.sup_norm() == pytest.approx(1.0, abs=1e-6)
        assert spinorfield.residual_norm(f, "harmonic") < 1e-6
    # the same construction must refuse structures whose character on the
    # closed lines (winding (1, -1)) is -1: transport has no periodic fix
    with pytest.raises(NotXTrivial):
        spinorfield.construct_resonant_spinors(
            analex_spec, SpinStructure(1, -1), count=2, grid_n=256)


def test_resonant_bumps_rosatau(rosatau_spec):
    fields = spinorfield.construct_resonant_spinors(
        rosatau_spec, SpinStructure(1, 1), count=2, grid_n=1024)
    assert _max_support_overlap(fields) == 0.0
    lo, hi = fields[0].meta["band"]
    assert lo == pytest.approx(0.45, abs=0.02)
    assert hi == pytest.approx(1.15, abs=0.02)
    for f in fields:
        assert spinorfield.residual_norm(f, "harmonic") < 1e-6
    # vertical lines wind (0, 1): a2 = -1 structures have no periodic fix
    with pytest.raises(NotXTrivial):
        spinorfield.construct_resonant_spinors(
            rosatau_spec, SpinStructure(1, -1), count=2, grid_n=256)


@pytest.mark.parametrize("source", ["closed_diagonal:3,2",
                                    "closed_diagonal:3,2,k=1,l=2",
                                    "closed_diagonal:2,3"])
def test_resonant_bumps_on_steep_closed_lines(source):
    """Steep X-lines (|l1/l2| > 1) are graphs over x2, so their closed line
    takes the rotation along x2, l2/l1, not the slope l1/l2.  Two disjoint
    bumps, each within the bound of the shallow closed_diagonal:2,3 (all
    three measured at 2.2e-2 at 512^2)."""
    spec = catalog.load_metric(source)
    assert nullflow.transversal_axis(spec, "X") == (1 if "3,2" in source
                                                    else 0)
    assert len(spinorfield.construct_resonant_spinors(
        spec, SpinStructure(1, 1), count=2, grid_n=64)) == 2
    fields = spinorfield.construct_resonant_spinors(
        spec, SpinStructure(1, 1), count=2, grid_n=512)
    assert len(fields) == 2
    assert _max_support_overlap(fields) == 0.0
    for f in fields:
        assert spinorfield.residual_norm(f, "harmonic") < 3e-2


def _seeded_window(seed):
    rng = np.random.default_rng(seed)
    lo, hi = rng.uniform(0.13, 0.17), rng.uniform(0.43, 0.47)
    return catalog.rosatau_window(support=(lo, hi),
                                  zero=rng.uniform(0.28, 0.32),
                                  amplitude=rng.uniform(0.8, 1.2))


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_band_line_table_holds_the_marched_holonomy(seed):
    """The vertical band line whose holonomy the pp-wave bumps read from the
    lattice flow carries the holonomy of the RK4 line through the same
    point."""
    spec = catalog.rosatau_window() if seed is None else _seeded_window(seed)
    lo, hi = spinorfield._vertical_band(spec, DEFAULT)
    mid = float((0.5 * (lo + hi)) % 1.0)
    [table] = spin.holonomy_table(spec, "X", [mid],
                                  nullflow.RationalCertificate(0, 1, 0.0))
    marched = nullflow.integrate_null_line(spec, (mid, 0.0), "X", t_max=1.0)
    for s in all_structures():
        got = table[(s.a1, s.a2)]
        want = spin.holonomy_closed_line(spec, marched, s)
        assert (got.winding, got.character, got.x_trivial) == \
            (want.winding, want.character, want.x_trivial)
        assert got.boost == pytest.approx(want.boost, abs=1e-12)


def test_resonant_bumps_conformal_pushforward(conformal_spec):
    fields = spinorfield.construct_resonant_spinors(
        conformal_spec, SpinStructure(1, 1), count=2, grid_n=1024)
    assert _max_support_overlap(fields) == 0.0
    for f in fields:
        assert f.spec is conformal_spec
        assert spinorfield.residual_norm(f, "harmonic") < 1e-6


def _analex_lam1(x1, x2):
    return catalog.analex().lambdas(x1, x2)[0]


def _analex_lam2_tilted(x1, x2):
    return (catalog.analex().lambdas(x1, x2)[1]
            + 1e-8 * np.sin(2 * np.pi * np.asarray(x1)))


def test_closed_diagonal_kernels_read_the_callers_tol():
    """A metric closed only to the caller's closedness tolerance (residual
    6.3e-8 against 1e-6) gets its first integral, bumps and phases under
    that tolerance, not the default's 1e-9."""
    spec = geometry.Diagonal(_analex_lam1, _analex_lam2_tilted)
    tol = DEFAULT.with_(closedness=1e-6)
    assert not geometry.is_closed_diagonal(spec)
    assert geometry.is_closed_diagonal(spec, tol)
    fields = spinorfield.construct_resonant_spinors(
        spec, SpinStructure(1, 1), count=2, grid_n=1024, tol=tol)
    assert len(fields) == 2
    for f in fields:
        assert spinorfield.residual_norm(f, "harmonic") < 1e-6
    sol = spinorfield.solve_closed_diagonal(spec, SpinStructure(1, 1),
                                            n_fields=4, grid_n=128, tol=tol)
    assert sol.count_class == "Infinite" and len(sol.fields) == 4
    for f in sol.fields:
        assert spinorfield.residual_norm(f, "harmonic") < 1e-6


def test_resonant_bumps_dense_and_unsupported(sqrt2_spec, sanchez_spec):
    with pytest.raises(DenseFlow):
        spinorfield.construct_resonant_spinors(sqrt2_spec, SpinStructure(1, 1))
    with pytest.raises(UnsupportedFamily):
        spinorfield.construct_resonant_spinors(sanchez_spec,
                                               SpinStructure(1, 1))
    with pytest.raises(ValueError):
        spinorfield.construct_resonant_spinors(sqrt2_spec, SpinStructure(1, 1),
                                               count=0)


# ---------------------------------------------------------------------------
# harmonic <-> twistor correspondence


def test_harmonic_twistor_iso_roundtrip(analex_spec):
    sol = spinorfield.solve_closed_diagonal(analex_spec, SpinStructure(1, 1),
                                            grid_n=256)
    f = sol.fields[1]
    psi = spinorfield.harmonic_twistor_iso(f)
    assert psi.chirality == -1
    assert spinorfield.residual_norm(psi, "twistor") < 1e-6
    back = spinorfield.harmonic_twistor_iso(psi)
    assert back.chirality == 1
    assert np.allclose(back.values, f.values, rtol=1e-10)


def test_harmonic_twistor_iso_explicit_certificate(analex_spec):
    cert = classify.semi_conformal_certificate(analex_spec, family="X")
    sol = spinorfield.solve_closed_diagonal(analex_spec, SpinStructure(-1, -1),
                                            grid_n=256)
    psi = spinorfield.harmonic_twistor_iso(sol.fields[0], cert)
    assert spinorfield.residual_norm(psi, "twistor") < 1e-6


def test_harmonic_twistor_iso_rejects_non_kernel_input(analex_spec):
    junk = spinorfield.fourier_mode_field(analex_spec, SpinStructure(1, 1),
                                          (3, 0))
    with pytest.raises(NotHarmonic):
        spinorfield.harmonic_twistor_iso(junk)
