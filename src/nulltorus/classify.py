"""Semi-conformal flatness and the dimension classification.

The geometric side of the package: a metric is *semi-conformally flat* (SCF)
for a null family when some nowhere-zero divergence-free vector field spans
that family.  Every catalog metric but a conformal rescaling has a phase
(k, l), and one rule decides its families from the phase velocity V'^1 of
the direction in the phase's lattice basis (``_phase_analysis``): an
analytic certificate where V'^1 has no zero or vanishes identically, else
NotSCF with the loop integral of div along the closed line at a zero
(infinite where lines accumulate on one).  A conformal rescaling takes its
inner metric's answer, the certificate divided by the factor.  A field of
the phase is checked on its phase line, which must resolve it (doubled up
to MAX_LINE_SAMPLES); others on the n x n grid.  Only a phase-less
diagonal metric with coefficients that are not closed falls back to a
spectral least-squares transport solve for the rescaling exponent f with
X(f) = -div(X), Inconclusive when its divergence residual misses.

On an SCF metric the dimension of each chiral kernel (harmonic or twistor)
is 0, 1 or infinite, decided by the cylinder decomposition of the family's
flow (off a rigid rotation, its closed lines lie at the same zeros of
V'^1) and the spin holonomy of its closed lines (``spin.holonomy_table``
reads their boosts from the same phase samples).  ``classify_table`` runs
that case analysis for all four structures, returning reports that carry
the certificate they used (``classify_dimension`` reads one cell);
``spectral_count`` reads the exact spectral solver where one exists,
``spectral_checks`` pairs each report with it and ``contradictions`` names
every report that disagrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import geometry, nullflow, spin, spinorfield
from .errors import DenseFlow, Inconclusive, NotSCF
from .gridtools import (TrigSeries2, grid_points, resolved_series,
                        spectral_derivative, spectral_derivatives, wrap_unit)
from .spin import SpinStructure, all_structures
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

#: the longest phase line on which ``_certify`` checks a field of the phase
MAX_LINE_SAMPLES = 4096


# ---------------------------------------------------------------------------
# SCF certificates


@dataclass(frozen=True, eq=False)
class SCFCertificate:
    """A divergence-free vector field spanning one null family.

    ``kind`` records how it was obtained: "analytic" (closed form for the
    family: the phase rule, or a closed phase-less diagonal metric's
    direction), "conformal" (inner certificate divided by the factor) or
    "rescaling" (numeric exponent f with X(f) = -div X, stored in
    ``exponent`` on the certificate grid).  ``grid_n`` is the grid or line
    size of the check (a conformal certificate's, its inner one's).
    """

    family: str
    field: geometry.VectorField
    residual: float               # sup |div(field)|; conformal: its bound
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
    """The field, or Inconclusive where sup |div| misses ``scf_certificate``
    on the n x n grid or on its phase line.  The line of n samples (every
    grid point takes one) must also resolve V, whose level-line part div
    never reads: an unresolved field is checked again on the line of twice
    as many samples, up to MAX_LINE_SAMPLES, and Inconclusive past it."""
    V = geometry.VectorField(components)
    m = n
    while True:
        line = geometry._phase_line(spec, m)
        if line is None:
            res = _field_divergence_residual(spec, V, n)
        else:
            v = [np.broadcast_to(c, (m,)) for c in V.at(line.x1, line.x2)]
            res = float(np.max(np.abs(line.divergence(*v))))
        if not res < tol.scf_certificate:
            raise Inconclusive(
                f"candidate {family}-certificate missed the divergence "
                f"tolerance ({res:.3e} on the {m}x{m} grid)", measured=res,
                band=(0.0, tol.scf_certificate))
        if line is None or all(resolved_series(c, tol.resonance) for c in v):
            return SCFCertificate(family, V, res, kind, m, exponent)
        if m >= MAX_LINE_SAMPLES:
            raise Inconclusive(f"candidate {family}-certificate is not "
                               f"resolved by its {m}-sample phase line")
        m *= 2


def _direction(spec, family: str):
    """The family's null direction, as certificate components."""
    return lambda x1, x2: geometry.null_direction_arrays(spec, x1, x2, family)


def _phase_analysis(spec, family: str, n: int, tol: Tolerances
                    ) -> SCFCertificate:
    """The rule for a spec of phase (k, l).  In the lattice basis
    A = ((a, b), (c, d)) = lattice_basis(k, l) the direction V' = A^-1 V is a
    function of the phase y1 alone and det A = 1, so div(w V) = 0 reads
    d/dy1 (sqrt|g| w V'^1) = 0.  The zeros of the phase velocity
    V'^1 = d v1 - b v2, the flow's record (``nullflow.phase_zeros``),
    decide:

    * no zero: w = 1/(sqrt|g| |V'^1|) certifies, with sqrt|g| =
      1/|det(s1, s2)| from the frame that gives V;
    * V'^1 = 0 identically: V itself is divergence-free;
    * a simple zero z: the closed line x = A (z, t) of winding A e2 carries
      loop integral |Gamma(A e2)| of div (twice its holonomy boost), so the
      family is NotSCF there;
    * flat zeros (a band, or a zero of loop integral 0): the lines off them
      accumulate on a closed line at its edge, where a divergence-free w V
      needs w ~ 1/|V'^1|, unbounded: NotSCF with an infinite obstruction.
    """
    record = nullflow.phase_zeros(spec, family, tol)
    (a, b), (c, d) = record.A
    if not record.runs and not record.zeros:
        def field(x1, x2):
            a1, a2, b1, b2 = geometry.frame_component_arrays(spec, x1, x2)
            v1, v2 = (a1 + b1, a2 + b2) if family == "X" else (b1 - a1,
                                                                b2 - a2)
            # w = |det(s1, s2) / V'^1|, in place: a grid field is n^2 points
            w = a1 * b2
            w -= a2 * b1
            w /= d * v1 - b * v2
            w = np.abs(w)
            v1 *= w
            v2 *= w
            return v1, v2

        return _certify(spec, family, field, "analytic", n, tol)

    if record.runs == ((0.0, 1.0),):
        return _certify(spec, family, _direction(spec, family), "analytic", n,
                        tol)

    def point(z):
        return float(wrap_unit(a * z)), float(wrap_unit(c * z))

    def loop(z):
        """|Gamma(A e2)| at A (z, 0): the closed line's loop integral."""
        return abs(float(geometry.connection_along(spec, *point(z), b, d)))

    worst, z = max(((loop(z), z) for z in record.zeros), default=(0.0, None))
    if worst > tol.scf_reject:
        x1, x2 = point(z)
        raise NotSCF(
            f"the {family}-family is obstructed: its phase velocity has a "
            f"simple zero at y1 = {z:.6f}, so its closed line through "
            f"x = ({x1:.6f}, {x2:.6f}), of winding ({b}, {d}), carries loop "
            f"integral {worst:.6f} of div", obstruction=worst,
            location=(x1, x2))
    x1, x2 = point(float(record.runs[0][0] % 1.0) if record.runs else z)
    raise NotSCF(
        f"the {family}-family is obstructed: its lines accumulate on the "
        f"closed line through x = ({x1:.6f}, {x2:.6f}), of winding ({b}, "
        f"{d}), at a flat zero of its phase velocity V'^1, so a "
        "divergence-free multiple w V needs w ~ 1/|V'^1| there, which is "
        "unbounded", obstruction=math.inf, location=(x1, x2))


def _conformal_analysis(spec, family: str, n: int, tol: Tolerances
                        ) -> SCFCertificate:
    """SCF is conformally invariant: divide the inner certificate V by lam.
    In 2-D div_{lam g}(V / lam) = div_g(V) / lam, so the residual is the
    bound inner residual times max(1/lam), lam read on the factor's phase
    line at the inner check's size (Inconclusive where it misses)."""
    try:
        inner = semi_conformal_certificate(spec.inner, family, grid_n=n,
                                           tol=tol)
    except NotSCF as exc:
        raise NotSCF(f"inner metric obstructed (conformally invariant): {exc}",
                     obstruction=exc.obstruction,
                     location=exc.location) from exc
    lam, _ = spec.factor_samples(inner.grid_n)
    bound = inner.residual / float(np.min(lam))
    if not bound < tol.scf_certificate:
        raise Inconclusive(
            f"candidate {family}-certificate missed the divergence tolerance "
            f"({bound:.3e}, the inner residual over min lam)", measured=bound,
            band=(0.0, tol.scf_certificate))

    def field(x1, x2):
        v1, v2 = inner.field.at(x1, x2)
        lam = spec.factor_at(x1, x2)
        return v1 / lam, v2 / lam

    return SCFCertificate(family, geometry.VectorField(field), bound,
                          "conformal", inner.grid_n, inner.exponent)


# ---------------------------------------------------------------------------
# fallback: the transport solve


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


def _rescaling_analysis(spec, family: str, n: int, tol: Tolerances
                        ) -> SCFCertificate:
    """The rescaling certificate e^f X where no closed form applies, or
    Inconclusive when its divergence residual misses the tolerance (the
    solve cannot tell an obstructed family from a stalled one)."""
    f, V, residual, (istop, itn) = _solve_rescaling(spec, family, n, tol)
    if residual < tol.scf_certificate:
        return SCFCertificate(family, V, residual, "rescaling", n, f)
    raise Inconclusive(
        f"no closed-form rule decides the {family}-family, and the transport "
        f"solve for the rescaling exponent stalled at divergence residual "
        f"{residual:.3e} (LSQR istop {istop} after {itn} iterations)",
        measured=residual, band=(0.0, tol.scf_certificate))


def semi_conformal_certificate(spec, family: str = "X",
                               grid_n: Optional[int] = None,
                               tol: Tolerances = DEFAULT) -> SCFCertificate:
    """Divergence-free field spanning the family, or NotSCF/Inconclusive.

    The phase rule decides every spec with a phase, and a conformal
    rescaling takes its inner spec's answer.  A phase-less diagonal metric
    is certified by its null direction where its coefficients are closed
    for the family (anti-closed for Y), and otherwise goes to the
    constructive transport solve.
    """
    if family not in ("X", "Y"):
        raise ValueError(f"family must be 'X' or 'Y', got {family!r}")
    n = grid_n or min(spec.grid_n, 256)
    if isinstance(spec, geometry.ConformalRescale):
        return _conformal_analysis(spec, family, n, tol)
    if spec.phase():
        return _phase_analysis(spec, family, n, tol)
    if geometry.is_closed_diagonal(spec, tol, family):
        return _certify(spec, family, _direction(spec, family), "analytic", n,
                        tol)
    return _rescaling_analysis(spec, family, min(n, 128), tol)


def is_x_conformally_flat(spec, tol: Tolerances = DEFAULT
                          ) -> Optional[SCFCertificate]:
    """Certificate for the X-family, or None when obstructed.

    Inconclusive propagates: a stalled transport solve is evidence of
    neither.
    """
    try:
        return semi_conformal_certificate(spec, "X", tol=tol)
    except NotSCF:
        return None


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
    ctx: dict = {"scf": scf, "scf_note": note}
    try:
        decomp = nullflow.cylinder_decomposition(spec, family, tol=tol)
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
    tables = list(zip(seeds, spin.holonomy_table(spec, family, seeds,
                                                  decomp.rotation, tol)))
    ctx["resonant_tables"] = [
        ((iv.lo, iv.hi), tables[k * per_interval:(k + 1) * per_interval])
        for k, iv in enumerate(decomp.resonant_intervals)]
    ctx["isolated_tables"] = tables[len(decomp.resonant_intervals)
                                    * per_interval:]
    return ctx


def _verdict(ctx: dict, structure: SpinStructure, quantity: str
             ) -> DimensionReport:
    """Dimension (Zero/One/Infinite) of one chiral kernel, with certificate,
    from the family context of the quantity.

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
    cases are then decided by the same holonomy evidence).
    """
    family, chirality = QUANTITIES[quantity]
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
    if decomp.intervals[0].kind == "NonResonant":
        # a rational rotation but no closed line: counted as a dense flow
        return report("One" if structure.trivial else "Zero", "NonResonant",
                      {"rotation": [decomp.rotation.p, decomp.rotation.q]})
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


def classify_table(spec, quantities: tuple[str, ...] = ("delta_plus",
                                                        "tau_minus"),
                   tol: Tolerances = DEFAULT
                   ) -> dict[tuple[int, int], dict[str, DimensionReport]]:
    """All four structures against the requested quantities.

    The flow decomposition and the holonomy tables of the sampled closed
    lines are computed once per null family and shared across structures
    (the boost is structure-independent; only the character changes).
    Inconclusive propagates from the certificate search and from resonance
    detection.
    """
    unknown = [q for q in quantities if q not in QUANTITIES]
    if unknown:
        raise ValueError(f"unknown quantity {unknown[0]!r}; "
                         f"expected one of {sorted(QUANTITIES)}")
    contexts = {family: _family_context(spec, family, tol) for family
                in dict.fromkeys(QUANTITIES[q][0] for q in quantities)}
    return {(s.a1, s.a2): {q: _verdict(contexts[QUANTITIES[q][0]], s, q)
                           for q in quantities}
            for s in all_structures()}


def classify_dimension(spec, structure: SpinStructure,
                       quantity: str = "delta_plus",
                       tol: Tolerances = DEFAULT) -> DimensionReport:
    """One cell of ``classify_table``: the report of one quantity for one
    structure."""
    return classify_table(spec, (quantity,), tol)[
        (structure.a1, structure.a2)][quantity]


def spectral_count(spec, structure: SpinStructure, family: str = "X",
                   tol: Tolerances = DEFAULT) -> Optional[str]:
    """The exact solver's count class for the family's transport, or None
    where no exact solver exists; the count does not depend on chirality."""
    solver = spinorfield.exact_solver(spec, tol, family)
    return None if solver is None else solver(
        spec, structure, n_fields=0, tol=tol).count_class


def spectral_checks(table: dict, spec, tol: Tolerances = DEFAULT
                    ) -> list[tuple[DimensionReport, Optional[str]]]:
    """Every report of a ``classify_table`` (or some of its rows), in row
    order, paired with its ``spectral_count``.

    The count does not hang on chirality, so it is read once per family and
    structure, family by family.
    """
    families = dict.fromkeys(QUANTITIES[q][0] for row in table.values()
                             for q in row)
    counts = {(family, ab): spectral_count(spec, SpinStructure(*ab), family,
                                           tol)
              for family in families for ab in table}
    return [(report, counts[report.family, ab])
            for ab, row in table.items() for report in row.values()]


def contradictions(checked) -> list[str]:
    """[doubt] naming every report of ``spectral_checks`` that contradicts
    its spectral count (None: no exact solver) or carries a caveat, or []
    when none does."""
    def row(r):
        return (f"{r.structure.a1},{r.structure.a2} {r.quantity}: {r.value} "
                f"({r.certificate})")

    clashes = "; ".join(f"{row(r)} vs spectral {count}" for r, count in checked
                        if count not in (None, r.value))
    caveats = "; ".join(f"{row(r)}, {r.details['caveat']}"
                        for r, _ in checked if "caveat" in r.details)
    parts = [f"{head}: {rows}" for head, rows in (
        ("geometric verdicts contradict the exact spectral count", clashes),
        ("geometric verdicts carry a caveat", caveats)) if rows]
    return ["; ".join(parts)] if parts else []
