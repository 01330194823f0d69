"""Semi-conformal flatness, mass functionals, and the dimension classification.

The geometric side of the package: a metric is *semi-conformally flat* (SCF)
for a null family when some nowhere-zero divergence-free vector field spans
that family.  Certificates are produced analytically for the built-in
families whenever a closed form exists and numerically otherwise; the
numeric route decides through loop integrals of div(X) along closed null
lines (the cohomological obstruction) and, for dense flows, a weighted
Birkhoff average, then tries to construct the rescaling exponent f with
X(f) = -div(X) by a spectral least-squares transport solve.

On an SCF metric the dimension of each chiral kernel (harmonic or twistor)
is 0, 1 or infinite, decided by the cylinder decomposition of the family's
flow and the spin holonomy of its closed lines.  ``classify_dimension``
implements that case analysis and returns a report carrying the certificate
it used; ``spectral_count`` reads the exact spectral solvers where one
exists, and ``cross_validate`` checks the geometric verdict against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import geometry, nullflow, spin, spinorfield
from .errors import (DenseFlow, Inconclusive, NotHarmonic, NotSCF,
                     NotTransverse, WrongFamily)
from .gridtools import (TrigSeries1, TrigSeries2, circular_zeros,
                        grid_points, spectral_derivative,
                        spectral_derivatives)
from .spin import GAMMA1, GAMMA2, SpinStructure, all_structures
from .spinorfield import HalfSpinorField, SpinorField, embed
from .tolerances import DEFAULT, Tolerances

#: quantity -> (null family of the transport equation, chirality of the
#: half-spinor).  Harmonic positives and twistor negatives both live on the
#: X-family; the other two quantities mirror them on Y.
QUANTITIES: dict[str, tuple[str, int]] = {
    "delta_plus": ("X", +1),
    "delta_minus": ("Y", -1),
    "tau_plus": ("Y", +1),
    "tau_minus": ("X", -1),
}


# ---------------------------------------------------------------------------
# SCF certificates


@dataclass(frozen=True, eq=False)
class SCFCertificate:
    """A divergence-free vector field spanning one null family.

    ``kind`` records how it was obtained: "analytic" (closed form for the
    family), "conformal" (inner certificate divided by the factor), or
    "rescaling" (numeric exponent f with X(f) = -div X, stored in
    ``exponent`` on the certificate grid).
    """

    family: str
    field: geometry.VectorField
    residual: float               # sup |div(field)| on the grid
    kind: str
    grid_n: int
    exponent: Optional[np.ndarray] = None

    def as_dict(self) -> dict:
        return {"family": self.family, "kind": self.kind,
                "residual": self.residual, "grid_n": self.grid_n}


def _field_divergence_residual(spec, V: geometry.VectorField, n: int) -> float:
    return _divergence_sup(spec, *V.at(*grid_points(n)), n)


def _divergence_sup(spec, v1, v2, n: int) -> float:
    """sup |div| of the field with components v1, v2 on the n x n grid."""
    v1 = np.broadcast_to(v1, (n, n))
    v2 = np.broadcast_to(v2, (n, n))
    return float(np.max(np.abs(geometry.divergence_grids(spec, v1, v2, n))))


def _certify(spec, family: str, components, kind: str, n: int,
             tol: Tolerances, exponent: Optional[np.ndarray] = None
             ) -> SCFCertificate:
    V = geometry.VectorField(components)
    res = _field_divergence_residual(spec, V, n)
    if res >= tol.scf_certificate:
        raise Inconclusive(
            f"candidate {family}-certificate missed the divergence tolerance "
            f"({res:.3e} on the {n}x{n} grid)", measured=res,
            band=(0.0, tol.scf_certificate))
    return SCFCertificate(family, V, res, kind, n, exponent)


def _diagonal_analysis(spec, family: str, n: int, tol: Tolerances
                       ) -> Optional[SCFCertificate]:
    """X certifies when the coefficients are closed, Y when anti-closed;
    the null direction (+-1/|lam1|, sign(lam1)/lam2) is then the field."""
    if geometry.closedness_residual(spec, min(spec.grid_n, 256),
                                    family) >= tol.closedness:
        return None
    return _certify(spec, family,
                    lambda x1, x2: geometry.null_direction_arrays(
                        spec, x1, x2, family), "analytic", n, tol)


def _rosatau_analysis(spec, family: str, n: int, tol: Tolerances
                      ) -> Optional[SCFCertificate]:
    if family == "Y":
        # the horizontal family; det g = -1 so constant fields are
        # divergence-free
        return _certify(spec, family, lambda x1, x2: (-1.0, 0.0), "analytic",
                        n, tol)
    m = 8192
    t = spec.tau_at(np.arange(m) / m)
    atol = 1e-12 * max(1.0, float(np.max(np.abs(t))))
    runs, zeros = circular_zeros(t, atol, spec.tau_at, tol.bisection)
    if runs == [(0.0, 1.0)]:
        return _certify(spec, family, lambda x1, x2: (0.0, 1.0), "analytic",
                        n, tol)
    if not runs and not zeros:
        return _certify(spec, family,
                        lambda x1, x2: (1.0, 2.0 / spec.tau_at(x1)),
                        "analytic", n, tol)
    # tau vanishes somewhere: each simple zero x0 carries a closed vertical
    # line whose loop integral of div(X) is tau'(x0)/2
    obstructions = []
    for z in zeros:
        slope = float(spec.dtau_at(np.asarray(z)))
        if abs(slope) / 2 > tol.scf_reject:
            obstructions.append((abs(slope) / 2, z))
    if obstructions:
        worst, where = max(obstructions)
        raise NotSCF(
            f"the quasi-vertical family is obstructed: tau has a simple zero "
            f"at x1 = {where:.6f} whose closed line carries loop integral "
            f"{worst:.6f} of div(X)", obstruction=worst, location=where)
    return None   # bands or degenerate zeros only: defer to the numeric route


def _sanchez_analysis(spec, family: str, n: int, tol: Tolerances
                      ) -> Optional[SCFCertificate]:
    s1sig, s2sig = spec.frame_signs
    certified = "Y" if s1sig == s2sig else "X"
    if family == certified:
        # X2/R = (1/R, -E/(w R)) is divergence-free in closed form
        def field(x1, x2):
            E, F, _, R = spec.efgr(x1)
            return 1.0 / R, -E / (F + spec.eta0 * R) / R

        return _certify(spec, family, field, "analytic", n, tol)
    m = 8192
    G = spec.efgr(np.arange(m) / m)[2]
    # zeros of G may sit exactly on samples (analex_sanchez at c = 2 has
    # them at 0, 1/4, 1/2, 3/4), so level 0: exact zeros count as zeros
    _, zeros = circular_zeros(G, 0.0, lambda x: spec.G(np.asarray(x)),
                              tol.bisection)
    near_zero = np.abs(G) < 1e-12 * max(1.0, float(np.max(np.abs(G))))
    if not zeros and not bool(np.any(near_zero)):
        # G nowhere zero: X1/(G R) = (1/R, w/(G R)) closes the divergence
        def field(x1, x2):
            _, F, G, R = spec.efgr(x1)
            return 1.0 / R, (F + spec.eta0 * R) / (G * R)

        return _certify(spec, family, field, "analytic", n, tol)
    obstructions = []
    for z in zeros:
        dG = float(geometry._central(lambda a, _: (spec.G(a),), z, z, 0)[0])
        _, Fz, _, Rz = spec.efgr(np.asarray(z))
        J = abs(dG / float(Fz + spec.eta0 * Rz))
        if J > tol.scf_reject:
            obstructions.append((J, z))
    if obstructions:
        worst, where = max(obstructions)
        raise NotSCF(
            f"the G d1 + w d2 family is obstructed: G has a simple zero at "
            f"x1 = {where:.6f} whose closed vertical line carries loop "
            f"integral {worst:.6f} of div(X)", obstruction=worst,
            location=where)
    return None


def _conformal_analysis(spec, family: str, n: int, tol: Tolerances
                        ) -> SCFCertificate:
    """SCF is conformally invariant: divide the inner certificate by lam."""
    try:
        inner = semi_conformal_certificate(spec.inner, family, grid_n=n,
                                           tol=tol)
    except NotSCF as exc:
        raise NotSCF(f"inner metric obstructed (conformally invariant): {exc}",
                     obstruction=exc.obstruction,
                     location=exc.location) from exc

    def field(x1, x2):
        v1, v2 = inner.field.at(x1, x2)
        lam = spec.factor_at(x1, x2)
        return v1 / lam, v2 / lam

    return _certify(spec, family, field, "conformal", n, tol,
                    exponent=inner.exponent)


# ---------------------------------------------------------------------------
# numeric route: loop integrals, Birkhoff averages, transport solve


def _weighted_birkhoff(D1: TrigSeries1, J1: TrigSeries1) -> float:
    """Exponentially weighted Birkhoff average of J1 along the return orbit
    of w = 0 (1024 returns).

    The bump weighting converges superpolynomially for Diophantine rotation
    numbers, which makes the 1e-6 accept threshold reachable where the
    plain average would be stuck at O(1/n).
    """
    n = 1024
    t = (np.arange(n) + 0.5) / n
    weights = np.exp(-1.0 / (t * (1.0 - t)))
    w = 0.0
    total = 0.0
    for j in range(n):
        total += weights[j] * float(np.real(J1(w)))
        w += float(np.real(D1(w)))
    return total / float(weights.sum())


def lsqr(*args, **kwargs):
    """scipy's LSQR, imported on the first call: the rescaling solve is the
    only user of scipy, so no other route pays for loading it."""
    from scipy.sparse.linalg import lsqr as scipy_lsqr
    return scipy_lsqr(*args, **kwargs)


def _solve_rescaling(spec, family: str, n: int, tol: Tolerances):
    """Least-squares spectral solve of X(f) = -div(X) on the grid.

    Returns (f, field, residual, (istop, itn)) with residual =
    sup |div(e^f X)| and LSQR's stop code and iteration count.  The
    operator has a large kernel (anything constant along the lines), so
    LSQR's minimum-norm behavior is exactly what is needed; an
    unsolvable right-hand side simply leaves a macroscopic residual.
    """
    X1, X2 = grid_points(n)
    v1, v2 = geometry.null_direction_arrays(spec, X1, X2, family)
    v1 = np.broadcast_to(v1, (n, n)).copy()
    v2 = np.broadcast_to(v2, (n, n)).copy()
    rhs = -geometry.divergence_grids(spec, v1, v2, n)

    def matvec(x):
        f = x.reshape(n, n)
        d1, d2 = spectral_derivatives(f)
        return (v1 * d1 + v2 * d2).ravel()

    def rmatvec(y):
        g = y.reshape(n, n)
        return -(spectral_derivative(v1 * g, 0)
                 + spectral_derivative(v2 * g, 1)).ravel()

    from scipy.sparse.linalg import LinearOperator
    op = LinearOperator((n * n, n * n), matvec=matvec, rmatvec=rmatvec,
                        dtype=float)
    x, istop, itn = lsqr(op, rhs.ravel(), atol=1e-13, btol=1e-13,
                         iter_lim=4000)[:3]
    f = x.reshape(n, n)
    f = f - f.mean()
    series = TrigSeries2.from_samples(f.astype(complex))

    def field(x1, x2):
        d1, d2 = geometry.null_direction_arrays(spec, x1, x2, family)
        scale = np.exp(np.real(series(x1, x2)))
        return scale * d1, scale * d2

    # the residual of V on the grid, from the direction already sampled
    scale = np.exp(np.real(series(X1, X2)))
    residual = _divergence_sup(spec, scale * v1, scale * v2, n)
    return f, geometry.VectorField(field), residual, (istop, itn)


def _numeric_analysis(spec, family: str, n: int, tol: Tolerances
                      ) -> SCFCertificate:
    try:
        axis = nullflow.transversal_axis(spec, family)
    except NotTransverse as exc:
        raise Inconclusive(
            f"{family}-family admits no graph axis, the loop-integral test "
            f"cannot run: {exc}") from exc
    # J1 first: its sweep fills D1 too
    sweep = nullflow._return_sweep(spec, family, axis, tol.ode_step)
    J1 = sweep.loop_series()
    D1 = sweep.displacement()
    est = nullflow.rotation_number(spec, family, (0.0, 0.0), n_returns=512,
                                   step=tol.ode_step, tol=tol)
    cert = est.rational
    worst = location = None
    source = "weighted Birkhoff average along the dense line"
    if cert is not None and cert.q <= nullflow.MAX_PERIOD:
        ws = np.arange(nullflow.SECTION_SEEDS) / nullflow.SECTION_SEEDS
        disp, J = nullflow.q_return(D1, ws, cert.q, J1)
        closed = np.abs(disp - cert.p) < tol.closedness_reject
        source = "weighted Birkhoff average (no line closes at resolution)"
        if bool(np.any(closed)):
            idx = int(np.argmax(np.where(closed, np.abs(J), -np.inf)))
            worst, location = float(abs(J[idx])), float(ws[idx])
            source = (f"worst loop integral over {int(closed.sum())} sampled "
                      f"closed lines")
    if worst is None:
        worst = abs(_weighted_birkhoff(D1, J1))
    if worst > tol.scf_reject:
        raise NotSCF(
            f"{family}-family loop obstruction: {source} is {worst:.3e} "
            f"(reject threshold {tol.scf_reject:.0e})", obstruction=worst,
            location=location)
    if worst > tol.scf_accept:
        raise Inconclusive(
            f"{family}-family loop test landed between thresholds: {source} "
            f"is {worst:.3e}", measured=worst,
            band=(tol.scf_accept, tol.scf_reject))
    f, V, residual, (istop, itn) = _solve_rescaling(spec, family, n, tol)
    if residual < tol.scf_certificate:
        return SCFCertificate(family, V, residual, "rescaling", n, f)
    raise Inconclusive(
        f"loop integrals vanish ({source} = {worst:.3e}) but the transport "
        f"solve for the rescaling exponent stalled at divergence residual "
        f"{residual:.3e} (LSQR istop {istop} after {itn} iterations)",
        measured=residual, band=(0.0, tol.scf_certificate))


def semi_conformal_certificate(spec, family: str = "X",
                               grid_n: Optional[int] = None,
                               tol: Tolerances = DEFAULT) -> SCFCertificate:
    """Divergence-free field spanning the family, or NotSCF/Inconclusive.

    Analytic shortcuts cover the built-in families (closed diagonal
    coefficients, the x1-only metrics on their explicitly integrable side,
    conformal rescalings); everything else goes through the numeric
    loop-integral decision plus a constructive transport solve.
    """
    if family not in ("X", "Y"):
        raise ValueError(f"family must be 'X' or 'Y', got {family!r}")
    n = grid_n or min(spec.grid_n, 256)
    if isinstance(spec, geometry.ConformalRescale):
        return _conformal_analysis(spec, family, n, tol)
    if isinstance(spec, geometry.RosaTau):
        out = _rosatau_analysis(spec, family, n, tol)
    elif isinstance(spec, geometry.Sanchez):
        out = _sanchez_analysis(spec, family, n, tol)
    elif geometry.is_diagonal(spec):
        out = _diagonal_analysis(spec, family, n, tol)
    else:
        out = None
    if out is not None:
        return out
    return _numeric_analysis(spec, family, min(n, 128), tol)


def is_x_conformally_flat(spec, tol: Tolerances = DEFAULT
                          ) -> Optional[SCFCertificate]:
    """Certificate for the X-family, or None when obstructed.

    Inconclusive propagates: a loop integral between the accept and reject
    thresholds is evidence of neither.
    """
    try:
        return semi_conformal_certificate(spec, "X", tol=tol)
    except NotSCF:
        return None


def conformal_flatness_test(spec, tol: Tolerances = DEFAULT) -> bool:
    """True iff both null families carry a divergence-free section."""
    for family in ("X", "Y"):
        try:
            semi_conformal_certificate(spec, family, tol=tol)
        except NotSCF:
            return False
    return True


# ---------------------------------------------------------------------------
# mass functional and associated vector field


@dataclass(frozen=True, eq=False)
class MassFunctional:
    """Grid samples of the nonpositive mass mu = <Y.phi, phi> = -2|phi^+|^2.

    ``drift`` is the measured variation of mu along integrated X-lines per
    axis unit (a constant of motion for harmonic fields).
    """

    values: np.ndarray
    grid_n: int
    drift: float

    def series(self) -> TrigSeries2:
        return TrigSeries2.from_samples(self.values.astype(complex))

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


def mass_functional(spec, scf: SCFCertificate,
                    phi: Union[SpinorField, HalfSpinorField],
                    tol: Tolerances = DEFAULT) -> MassFunctional:
    """Mass functional of a positive-harmonic field on an SCF surface."""
    if scf.residual >= tol.scf_certificate:
        raise NotSCF("the supplied certificate does not meet the divergence "
                     f"tolerance (residual {scf.residual:.3e})")
    psi = embed(phi) if isinstance(phi, HalfSpinorField) else phi
    res = spinorfield.residual_norm(psi, operator="harmonic")
    scale = max(psi.positive.sup_norm(), psi.negative.sup_norm(), 1.0)
    if res > 100 * tol.differential * scale:
        raise NotHarmonic(
            f"field is not in the Dirac kernel: residual {res:.3e}")
    comps = psi.component_grids()
    gam_y = -GAMMA1 + GAMMA2
    ycomp = np.einsum("ab,bij->aij", gam_y, comps)
    mu = np.real(np.einsum("aij,ab,bij->ij", np.conj(ycomp), GAMMA1, comps))
    mu_series = TrigSeries2.from_samples(mu.astype(complex))
    drift = 0.0
    for seed in np.linspace(0.05, 0.95, 3):
        rec = nullflow.integrate_null_line(spec, (seed, seed), "X",
                                           t_max=1.0, step=tol.ode_step,
                                           tol=tol)
        vals = np.real(mu_series(rec.points[:, 0], rec.points[:, 1]))
        drift = max(drift, float(vals.max() - vals.min()))
    return MassFunctional(values=mu, grid_n=psi.grid_n, drift=drift)


def associated_vector_field(psi: Union[SpinorField, HalfSpinorField]
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate grids of V = |psi^+|^2 X - |psi^-|^2 Y.

    Null with a nonnegative X-factor for a positive half-spinor, causal in
    general: g(V, V) = -4 |psi^+|^2 |psi^-|^2.
    """
    psi = embed(psi) if isinstance(psi, HalfSpinorField) else psi
    n = psi.grid_n
    a1, a2, b1, b2 = geometry.frame_grids(psi.spec, n)
    p2 = np.abs(psi.positive.values) ** 2
    m2 = np.abs(psi.negative.values) ** 2
    v1 = p2 * (a1 + b1) - m2 * (-a1 + b1)
    v2 = p2 * (a2 + b2) - m2 * (-a2 + b2)
    return v1, v2


# ---------------------------------------------------------------------------
# the dimension classification


@dataclass(frozen=True)
class DimensionReport:
    """Outcome of the geometric case analysis for one structure/quantity.

    ``certificate`` is one of "DenseLine", "XTrivialResonant",
    "NoXTrivialResonant", "NonResonant"; ``details`` carries the evidence
    (seed points, interval bounds, holonomy failures, caveats).
    """

    structure: SpinStructure
    quantity: str
    value: str                    # "Zero" | "One" | "Infinite"
    certificate: str
    family: str
    scf: Optional[SCFCertificate]
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"structure": [self.structure.a1, self.structure.a2],
                "quantity": self.quantity, "value": self.value,
                "certificate": self.certificate, "family": self.family,
                "scf": self.scf.as_dict() if self.scf else None,
                "details": self.details}


@dataclass(frozen=True)
class CrossValidationReport:
    structure: SpinStructure
    geometric: DimensionReport
    spectral: str
    agree: bool


def _family_context(spec, family: str, tol: Tolerances) -> dict:
    """Everything the per-structure classification shares for one family.

    The flatness hypothesis is advisory: when the family is obstructed the
    context records the obstruction instead of a certificate and the
    classification still runs (the Infinite verdict is constructive — bump
    sections on a transport-trivial resonant cylinder — and needs no
    certificate; tori with such a cylinder but no certificate exist).
    """
    try:
        scf = semi_conformal_certificate(spec, family, tol=tol)
        note = None
    except NotSCF as exc:
        scf = None
        note = str(exc)
    ctx: dict = {"scf": scf, "family": family, "scf_note": note}
    try:
        decomp = nullflow.cylinder_decomposition(spec, family,
                                                 step=tol.ode_step, tol=tol)
    except DenseFlow as exc:
        ctx["decomp"] = None
        ctx["dense_message"] = str(exc)
        return ctx
    ctx["decomp"] = decomp
    # all sampled closed lines in one batch: five per resonant interval,
    # then the isolated ones
    per_interval = 5
    seeds = [float(w) % 1.0 for iv in decomp.resonant_intervals
             for w in iv.interior_points(per_interval)]
    seeds += [float(w) for w in decomp.isolated_closed]
    records = nullflow.closed_lines_through(spec, family, seeds,
                                            decomp.rotation,
                                            step=tol.ode_step, tol=tol)
    tables = [(w, spin.holonomy_table(spec, rec, tol=tol))
              for w, rec in zip(seeds, records)]
    ctx["resonant_tables"] = [
        ((iv.lo, iv.hi), tables[k * per_interval:(k + 1) * per_interval])
        for k, iv in enumerate(decomp.resonant_intervals)]
    ctx["isolated_tables"] = tables[len(decomp.resonant_intervals)
                                    * per_interval:]
    return ctx


def classify_dimension(spec, structure: SpinStructure,
                       quantity: str = "delta_plus",
                       tol: Tolerances = DEFAULT,
                       _context: Optional[dict] = None) -> DimensionReport:
    """Dimension (Zero/One/Infinite) of one chiral kernel, with certificate.

    Case analysis on the family's flow:

    1. dense lines: One for the trivial structure, Zero otherwise;
    2. some resonant cylinder whose sampled closed lines are all
       transport-trivial for the structure: Infinite;
    3. otherwise One when the structure is trivial or every sampled closed
       line passes, Zero when a failing closed line obstructs every
       candidate solution (the failure list ships in the details).

    The semi-conformal-flatness certificate is attached when the family
    admits one; when it is obstructed the report carries the obstruction
    note instead (case 2 is constructive and stands without it, the other
    cases are then decided by the same holonomy evidence).  Inconclusive
    propagates from the certificate search and from resonance detection.
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}; "
                         f"expected one of {sorted(QUANTITIES)}")
    family, chirality = QUANTITIES[quantity]
    ctx = _context if _context is not None else _family_context(spec, family,
                                                                tol)
    if ctx["family"] != family:
        raise ValueError("context family does not match the quantity")
    base = dict(structure=structure, quantity=quantity, family=family,
                scf=ctx["scf"])

    def report(value: str, certificate: str, details: dict) -> DimensionReport:
        details["chirality"] = chirality
        if ctx.get("scf_note"):
            details["scf_obstruction"] = ctx["scf_note"]
        return DimensionReport(value=value, certificate=certificate,
                               details=details, **base)

    if ctx["decomp"] is None:
        return report("One" if structure.trivial else "Zero", "DenseLine",
                      {"seed": [0.0, 0.0], "flow": ctx["dense_message"]})
    decomp = ctx["decomp"]

    def failures_among(tables) -> list[dict]:
        """The lines not transport-trivial for the structure."""
        holonomies = ((w, table[(structure.a1, structure.a2)])
                      for w, table in tables)
        return [{"w": w, "boost": hol.boost, "character": hol.character,
                 "winding": list(hol.winding)}
                for w, hol in holonomies if not hol.x_trivial]

    failures: list[dict] = []
    for (lo, hi), tables in ctx["resonant_tables"]:
        interval_failures = failures_among(tables)
        if not interval_failures:
            return report("Infinite", "XTrivialResonant",
                          {"cylinder": [lo, hi], "sampled_lines": len(tables),
                           "rotation": [decomp.rotation.p,
                                        decomp.rotation.q]})
        failures.extend(interval_failures)
    failures.extend(failures_among(ctx["isolated_tables"]))
    kinds = {iv.kind for iv in decomp.intervals}
    if kinds == {"NonResonant"}:
        # rational rotation but no line closes at this resolution: behaves
        # like the dense case for counting purposes
        return report("One" if structure.trivial else "Zero", "NonResonant",
                      {"resolution": decomp.resolution,
                       "rotation": [decomp.rotation.p, decomp.rotation.q]})
    if failures:
        details: dict = {"holonomy_failures": failures}
        if structure.trivial:
            details["caveat"] = (
                "holonomy failed on a closed line despite the trivial "
                "structure: a nonzero boost, which a divergence-free "
                "section of the family would rule out")
        return report("One" if structure.trivial else "Zero",
                      "NoXTrivialResonant", details)
    # no transport-trivial resonant cylinder and no failing line: closed
    # lines all pass but only finitely many candidate directions exist
    return report("One", "NonResonant",
                  {"isolated_closed": [w for w, _ in ctx["isolated_tables"]],
                   "rotation": [decomp.rotation.p, decomp.rotation.q]})


def classify_delta_plus(spec, structure: SpinStructure,
                        tol: Tolerances = DEFAULT) -> DimensionReport:
    """Dimension of the positive-harmonic space (X-family transport)."""
    return classify_dimension(spec, structure, "delta_plus", tol)


def classify_table(spec, quantities: tuple[str, ...] = ("delta_plus",
                                                        "tau_minus"),
                   tol: Tolerances = DEFAULT
                   ) -> dict[tuple[int, int], dict[str, DimensionReport]]:
    """All four structures against the requested quantities.

    The flow decomposition and the line records are computed once per null
    family and shared across structures (the boost is structure-independent;
    only the character changes).
    """
    contexts: dict[str, dict] = {}
    for q in quantities:
        fam = QUANTITIES[q][0]
        if fam not in contexts:
            contexts[fam] = _family_context(spec, fam, tol)
    out: dict[tuple[int, int], dict[str, DimensionReport]] = {}
    for s in all_structures():
        out[(s.a1, s.a2)] = {
            q: classify_dimension(spec, s, q, tol,
                                  _context=contexts[QUANTITIES[q][0]])
            for q in quantities}
    return out


def spectral_count(spec, structure: SpinStructure, family: str = "X",
                   tol: Tolerances = DEFAULT) -> Optional[str]:
    """The exact solver's count class for the family's transport, or None
    where no exact solver exists; the count does not depend on chirality."""
    solver = spinorfield.exact_solver(spec, tol, family)
    return None if solver is None else solver(
        spec, structure, n_fields=0, tol=tol).count_class


def cross_validate(spec, structure: SpinStructure,
                   tol: Tolerances = DEFAULT) -> CrossValidationReport:
    """Geometric delta_plus against the exact spectral solver's count."""
    geometric = classify_delta_plus(spec, structure, tol)
    spectral = spectral_count(spec, structure, "X", tol)
    if spectral is None:
        raise WrongFamily(
            "spectral cross-validation needs constant or closed diagonal "
            f"coefficients; got {type(spec).__name__}")
    return CrossValidationReport(structure=structure, geometric=geometric,
                                 spectral=spectral,
                                 agree=geometric.value == spectral)
