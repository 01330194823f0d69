"""Executable acceptance suite with measured values.

Each criterion function returns (passed, measured, detail); ``run_all``
executes all ten in order and wraps every criterion so a crash is reported
as that criterion's failure instead of aborting the suite — degraded runs
(coarse step override, tiny solver grid) are expected to fail some checks
and must still produce a complete report.
"""

from __future__ import annotations

import itertools
import math
import time
import traceback
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import catalog, classify, geometry, nullflow, spin, spinorfield
from .errors import DenseFlow, Inconclusive
from .gridtools import grid_points, spectral_derivatives
from .spin import STRUCTURES, SpinStructure, all_structures
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    seconds: float
    measured: dict
    detail: str

    @property
    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index:2d}: {tag} [{self.seconds:6.1f}s] {self.name} — {self.detail}"

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# criterion 1: constant-coefficient table and brute-force mode scan


def _brute_mode_count(spec, structure: SpinStructure, box: int, grid_n: int
                      ) -> int:
    count = 0
    for k in range(-box, box + 1):
        for l in range(-box, box + 1):
            f = spinorfield.fourier_mode_field(spec, structure, (k, l),
                                               chirality=1, grid_n=grid_n)
            if spinorfield.residual_norm(f, "harmonic") < 1e-6:
                count += 1
    return count


def _verdict_of_count(count: int) -> str:
    return {0: "Zero", 1: "One"}.get(count, "Infinite")


def criterion_constant_table(step: Optional[float], grid_n: Optional[int],
                             tol: Tolerances) -> tuple[bool, dict, str]:
    n = grid_n or 64
    spec = catalog.left_invariant(math.sqrt(2.0), 1.0)
    t0 = time.perf_counter()
    verdicts = tuple(
        spinorfield.solve_left_invariant(spec, s, grid_n=n, tol=tol).count_class
        for s in all_structures())
    elapsed = time.perf_counter() - t0
    table_ok = verdicts == ("One", "Zero", "Zero", "Zero")

    ratios = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(2, 3),
              Fraction(3, 2))
    mismatches = []
    counts: dict[str, list[int]] = {}
    for ratio in ratios:
        rspec = catalog.left_invariant(ratio, 1)
        row = []
        for s in all_structures():
            sol = spinorfield.solve_left_invariant(rspec, s, grid_n=n, tol=tol)
            brute = _brute_mode_count(rspec, s, box=8, grid_n=64)
            row.append(brute)
            if _verdict_of_count(brute) != sol.count_class:
                mismatches.append(f"ratio {ratio} {s.label}: solver "
                                  f"{sol.count_class}, scan found {brute}")
        counts[str(ratio)] = row
    passed = table_ok and elapsed < 1.0 and not mismatches
    detail = (f"sqrt(2) table {verdicts} in {elapsed * 1000:.0f} ms; "
              f"{len(ratios)} rational ratios vs |k|,|l|<=8 scan: "
              f"{'all match' if not mismatches else '; '.join(mismatches)}")
    return passed, {"table": list(verdicts), "solve_seconds": elapsed,
                    "mode_counts": counts}, detail


# ---------------------------------------------------------------------------
# criterion 2: the closed diagonal example metric


def criterion_closed_diagonal_example(step, grid_n, tol) -> tuple[bool, dict, str]:
    spec = catalog.analex()
    t0 = time.perf_counter()
    closedness = geometry.closedness_residual(spec)
    l1, l2 = geometry.mean_coefficients(spec, tol)
    n = 256
    X1, X2 = grid_points(n)
    F = nullflow.first_integral_function(spec, n, tol).grid()
    d1, d2 = spectral_derivatives(np.exp(2j * np.pi * F))
    lam1, lam2 = spec.lambdas(X1, X2)
    pde_residual = float(np.max(np.abs(-lam2 * d1 - lam1 * d2)))
    periodic = max(abs(l1 - round(l1)), abs(l2 - round(l2))) < 1e-9
    report = classify.classify_dimension(spec, SpinStructure(1, 1), tol=tol)
    elapsed = time.perf_counter() - t0
    checks = {
        "closedness": closedness < 1e-9,
        "means": abs(l1 - 1.0) < 1e-10 and abs(l2 + 1.0) < 1e-10,
        "doubly_periodic": periodic,
        "pde_residual": pde_residual < 1e-6,
        "infinite": report.value == "Infinite",
        "runtime": elapsed < 10.0,
    }
    detail = (f"closedness {closedness:.1e}, (l1,l2)=({l1:.12f},{l2:.12f}), "
              f"transport-equation residual {pde_residual:.1e}, delta_plus "
              f"{report.value} via {report.certificate}, {elapsed:.1f}s")
    return all(checks.values()), {
        "closedness": closedness, "l1": l1, "l2": l2,
        "pde_residual": pde_residual, "delta_plus": report.value,
        "seconds": elapsed, "checks": checks}, detail


# ---------------------------------------------------------------------------
# criterion 3: rotation number vs mean-coefficient ratio


def criterion_rotation_number(step, grid_n, tol) -> tuple[bool, dict, str]:
    tol = tol.with_(ode_step=step or tol.ode_step)
    cases = (catalog.analex(),
             catalog.closed_diagonal_wave(1.0, 2.0, amp=0.08),
             catalog.closed_diagonal_wave(2.0, 3.0, amp=0.06))
    errors = []
    for spec in cases:
        l1, l2 = geometry.mean_coefficients(spec, tol)
        est = nullflow.rotation_number(spec, "X", tol)
        errors.append(abs(est.value - l1 / l2))
    worst = max(errors)
    detail = (f"worst |rho - l1/l2| = {worst:.2e} over {len(cases)} metrics "
              f"at step {tol.ode_step:g}")
    return worst < 1e-3, {"errors": errors, "step": tol.ode_step}, detail


# ---------------------------------------------------------------------------
# criterion 4: flat-torus holonomy characters


def criterion_flat_holonomy(step, grid_n, tol) -> tuple[bool, dict, str]:
    spec = catalog.flat()
    est = nullflow.rotation_number(spec, "X", tol=tol)
    [table] = spin.holonomy_table(spec, "X", [0.25], est.rational, tol)
    expected = {(1, 1): True, (1, -1): False, (-1, 1): False, (-1, -1): True}
    got = {ab: table[ab].x_trivial for ab in STRUCTURES}
    winding = table[(1, 1)].winding
    boosts = {table[ab].structure.label: table[ab].boost
              for ab in STRUCTURES}
    passed = winding == (1, 1) and got == expected
    detail = (f"winding {winding}; transport-trivial: "
              + ", ".join(f"{SpinStructure(*ab).label}={got[ab]}"
                          for ab in STRUCTURES))
    return passed, {"winding": list(winding),
                    "x_trivial": {str(k): v for k, v in got.items()},
                    "boosts": boosts}, detail


# ---------------------------------------------------------------------------
# criterion 5: conformal invariance of the classification


def criterion_conformal_invariance(step, grid_n, tol) -> tuple[bool, dict, str]:
    base = catalog.analex()
    base_table = classify.classify_table(base, ("delta_plus",), tol=tol)
    sol = spinorfield.solve_closed_diagonal(base, SpinStructure(1, 1),
                                            n_fields=2, grid_n=256, tol=tol)
    f = sol.fields[1]          # the first nonconstant phase solution
    rng = np.random.default_rng(7)
    mismatches = []
    worst_residual = worst_boost = 0.0
    for trial in range(5):
        factor = catalog.exp_sine_factor(
            amp=float(0.1 + 0.3 * rng.random()),
            k=int(rng.integers(-2, 3)), l=int(rng.integers(-2, 3)),
            phase=float(2 * np.pi * rng.random()))
        rescaled = catalog.conformal(base, factor)
        table = classify.classify_table(rescaled, ("delta_plus",), tol=tol)
        for ab in STRUCTURES:
            before = base_table[ab]["delta_plus"].value
            after = table[ab]["delta_plus"].value
            if before != after:
                mismatches.append(f"trial {trial} {ab}: {before} -> {after}")
        mapped = spinorfield.conformal_map_spinor(f, rescaled, "harmonic")
        worst_residual = max(worst_residual,
                             spinorfield.residual_norm(mapped, "harmonic"))
        # the table reads the inner Gamma; lam g's own, along a marched line
        rotation = nullflow.rotation_number(rescaled, "X", tol).rational
        [lattice] = spin.holonomy_table(rescaled, "X", [0.0], rotation, tol)
        line = nullflow.integrate_null_line(rescaled, (0.0, 0.0), "X",
                                            float(rotation.q), tol)
        marched = spin.holonomy_closed_line(rescaled, line,
                                            SpinStructure(1, 1), tol)
        worst_boost = max(worst_boost,
                          abs(marched.boost - lattice[(1, 1)].boost))
    passed = (not mismatches and worst_residual < 1e-6
              and worst_boost < tol.holonomy_boost)
    detail = (f"5 random factors: classification "
              f"{'invariant' if not mismatches else 'CHANGED: ' + '; '.join(mismatches)}; "
              f"worst mapped-spinor residual {worst_residual:.1e}; worst "
              f"boost of a marched X-line on lam g against its table "
              f"{worst_boost:.1e}")
    return passed, {"mismatches": mismatches,
                    "worst_mapped_residual": worst_residual,
                    "worst_boost_difference": worst_boost}, detail


# ---------------------------------------------------------------------------
# criterion 6: Clifford relations


def criterion_clifford(step, grid_n, tol) -> tuple[bool, dict, str]:
    zoo = (catalog.flat(), catalog.left_invariant(1.3, 0.7), catalog.analex(),
           catalog.analex_sanchez(), catalog.rosatau_window())
    rng = np.random.default_rng(11)
    eye = np.eye(2)
    u1 = np.array([1.0, 0.0], dtype=complex)
    worst_anti = 0.0
    worst_kill = 0.0
    for i in range(1000):
        spec = zoo[i % len(zoo)]
        p = (float(rng.random()), float(rng.random()))
        ev = geometry.eval_metric(spec, p)
        fr = geometry.orthonormal_frame(spec, p)
        v = rng.uniform(-2.0, 2.0, 2)
        w = rng.uniform(-2.0, 2.0, 2)
        gv = spin.gamma(v, fr)
        gw = spin.gamma(w, fr)
        anti = gv @ gw + gw @ gv + 2.0 * ev.inner(v, w) * eye
        worst_anti = max(worst_anti, float(np.max(np.abs(anti))))
        gx = spin.gamma(fr.x_direction, fr)
        worst_kill = max(worst_kill, float(np.max(np.abs(gx @ u1))))
    passed = worst_anti < 1e-10 and worst_kill < 1e-10
    detail = (f"1000 samples: worst anticommutator defect {worst_anti:.1e}, "
              f"worst |gamma(X)u1| {worst_kill:.1e}")
    return passed, {"anticommutator": worst_anti, "annihilation": worst_kill}, detail


# ---------------------------------------------------------------------------
# criterion 7: divergence dual route


def _random_trig_field(rng) -> geometry.VectorField:
    """Components c + a cos(2 pi (k x1 + l x2) + ph), drawn per component."""
    params = [(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.3, 1.0)),
               int(rng.integers(-2, 3)), int(rng.integers(-2, 3)),
               float(2 * np.pi * rng.random())) for _ in range(2)]

    def components(x1, x2):
        return tuple(c + a * np.cos(2 * np.pi * (k * x1 + l * x2) + ph)
                     for c, a, k, l, ph in params)

    return geometry.VectorField(components)


def criterion_divergence_oracle(step, grid_n, tol) -> tuple[bool, dict, str]:
    zoo = (catalog.flat(), catalog.left_invariant(1.2, 0.8), catalog.analex(),
           catalog.closed_diagonal_wave(1.0, 2.0), catalog.analex_sanchez(),
           catalog.rosatau_window(),
           catalog.conformal(catalog.analex(), catalog.exp_sine_factor()))
    rng = np.random.default_rng(13)
    n = 128
    X1, X2 = grid_points(n)
    worst = 0.0
    for case in range(100):
        spec = zoo[case % len(zoo)]
        V = _random_trig_field(rng)
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        p = (i / n, j / n)
        v1, v2 = V.at(X1, X2)
        spectral = float(geometry.divergence_grids(spec, v1, v2, n)[i, j])

        def flux(x1, x2):
            det = geometry.eval_metric(spec, (float(x1), float(x2))).det
            rho = math.sqrt(abs(det))
            w1, w2 = V.at(x1, x2)
            return rho * float(w1), rho * float(w2)

        def central(h):
            f1p, _ = flux(p[0] + h, p[1])
            f1m, _ = flux(p[0] - h, p[1])
            _, f2p = flux(p[0], p[1] + h)
            _, f2m = flux(p[0], p[1] - h)
            return ((f1p - f1m) + (f2p - f2m)) / (2 * h)

        h = 1e-4
        rho0 = math.sqrt(abs(geometry.eval_metric(spec, p).det))
        fd = (4 * central(h / 2) - central(h)) / 3 / rho0
        worst = max(worst, abs(spectral - fd))
    passed = worst < 1e-6
    detail = f"worst |spectral - finite-difference| = {worst:.2e} over 100 cases"
    return passed, {"worst": worst}, detail


# ---------------------------------------------------------------------------
# criterion 8: geometric vs spectral classification


def criterion_cross_validation(step, grid_n, tol) -> tuple[bool, dict, str]:
    pairs = ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 3.0), (1.0, -1.0),
             (3.0, 2.0), (math.sqrt(2.0), 1.0), (1.0, math.sqrt(3.0)),
             (math.sqrt(5.0), 2.0), (math.pi / 2, 1.0))
    rows = []
    agreements = 0
    for i, (b1, b2) in enumerate(pairs):
        spec = catalog.closed_diagonal_wave(b1, b2, amp=0.05)
        structure = all_structures()[i % 4]
        ab = (structure.a1, structure.a2)
        table = classify.classify_table(spec, ("delta_plus",), tol)
        checked = classify.spectral_checks({ab: table[ab]}, spec, tol)
        [(report, spectral)] = checked
        agree = spectral is not None and not classify.contradictions(checked)
        agreements += int(agree)
        rows.append({"l1": b1, "l2": b2, "structure": structure.label,
                     "geometric": report.value, "spectral": spectral,
                     "agree": agree})
    passed = agreements == len(pairs)
    detail = f"{agreements}/{len(pairs)} metrics agree (rational and irrational ratios)"
    return passed, {"rows": rows}, detail


# ---------------------------------------------------------------------------
# criterion 9: the pp-wave torus


# a line of the flat band where tau vanishes (opposite the window
# [0.15, 0.45] of catalog.rosatau_window)
PPWAVE_BAND_LINE = 0.8


def _ppwave_expectation(spec, tol: Tolerances
                        ) -> tuple[tuple[int, int], dict, dict]:
    """delta_plus per structure as the closed X-lines force it.

    Evidence from nullflow and spin only, never from classify, and from
    one RK4 line, which the table's lattice quadrature does not use: the
    band line, marched one unit, must close (rotation number 0/1, else
    DenseFlow fails the criterion) and gives the holonomy.  Every closed
    X-line winds like it, so one band line fixes the winding and the spin
    character shared by all of them.
    A positive kernel element is parallel along the X-lines: where
    transport around the band line is trivial, disjoint bump sections
    across the band give Infinite; where the character is -1, every closed
    line flips the half-spinor's sign, so it vanishes: Zero.  Any other
    structure is left undetermined (None), which no table matches.
    Returns (winding, characters, expected), keyed by the (a1, a2) pairs.
    """
    # the X-lines are graphs over x2: the band line is x1 = PPWAVE_BAND_LINE
    band = nullflow.integrate_null_line(spec, (PPWAVE_BAND_LINE, 0.0), "X",
                                        t_max=1.0, tol=tol)
    drift = float(band.points[-1, 0]) - PPWAVE_BAND_LINE
    if not abs(drift) < tol.closedness:
        raise DenseFlow(f"the band line x1 = {PPWAVE_BAND_LINE} does not "
                        f"close after one unit: drift {drift:.3e}")
    characters, expected = {}, {}
    for ab in STRUCTURES:
        hol = spin.holonomy_closed_line(spec, band, SpinStructure(*ab),
                                        tol=tol)
        characters[ab] = hol.character
        expected[ab] = ("Infinite" if hol.x_trivial
                        else "Zero" if hol.character == -1 else None)
    return hol.winding, characters, expected


def criterion_ppwave(step, grid_n, tol) -> tuple[bool, dict, str]:
    spec = catalog.rosatau_window()
    probe = nullflow.probe_completeness(spec, (0.3, 0.0), "X", t_max=20.0,
                                        tol=tol.with_(ode_step=step or 5e-3))
    table = classify.classify_table(spec, ("delta_plus",), tol=tol)
    values = {ab: table[ab]["delta_plus"].value for ab in STRUCTURES}
    certs = {ab: table[ab]["delta_plus"].certificate for ab in STRUCTURES}
    cylinder_found = any(c == "XTrivialResonant" for c in certs.values())
    winding, characters, expected = _ppwave_expectation(spec, tol)
    as_expected = values == expected
    fields = spinorfield.construct_resonant_spinors(
        spec, SpinStructure(1, 1), count=5, grid_n=grid_n or 2048, tol=tol)
    worst_residual = max(spinorfield.residual_norm(f, "harmonic")
                         for f in fields)
    max_overlap = max(f.overlap(g)
                      for f, g in itertools.combinations(fields, 2))
    independent = (len(fields) == 5 and max_overlap == 0.0
                   and all(f.sup_norm() > 0 for f in fields))
    passed = (probe.blowup_detected and cylinder_found and as_expected
              and independent and worst_residual < 1e-6)

    def per_structure(cells: dict) -> str:
        return ", ".join(f"{SpinStructure(*ab).label}={cells[ab]}"
                         for ab in STRUCTURES)

    detail = (f"blowup={probe.blowup_detected} (speed {probe.max_speed:.1e}); "
              f"transport-trivial resonant cylinder={cylinder_found}; "
              f"dimension per structure: {per_structure(values)}; "
              f"closed X-lines wind {winding}, character "
              f"{per_structure(characters)} on the band line "
              f"x1={PPWAVE_BAND_LINE}, so expected {per_structure(expected)}"
              f" (match={as_expected}); 5 disjoint solutions "
              f"residual {worst_residual:.1e}")
    return passed, {"blowup": probe.blowup_detected,
                    "values": {str(k): v for k, v in values.items()},
                    "certificates": {str(k): v for k, v in certs.items()},
                    "winding": winding,
                    "expected": {str(k): v for k, v in expected.items()},
                    "worst_residual": worst_residual,
                    "max_overlap": max_overlap}, detail


# ---------------------------------------------------------------------------
# criterion 10: kernel isomorphism and the delta/tau equality


def criterion_isomorphism(step, grid_n, tol) -> tuple[bool, dict, str]:
    base = catalog.analex(grid_n=128)
    target = catalog.conformal(base, catalog.exp_sine_factor(amp=0.25))
    cert = classify.semi_conformal_certificate(target, "X", tol=tol)
    sol = spinorfield.solve_closed_diagonal(base, SpinStructure(1, 1),
                                            n_fields=2, grid_n=128, tol=tol)
    f0, f1 = sol.fields[0], sol.fields[1]
    rng = np.random.default_rng(17)
    worst_roundtrip = 0.0
    for _ in range(100):
        c0 = complex(rng.normal(), rng.normal())
        c1 = complex(rng.normal(), rng.normal())
        vals = c0 * f0.values + c1 * f1.values
        hb = spinorfield.HalfSpinorField(base, f0.structure, 1, vals)
        h = spinorfield.conformal_map_spinor(hb, target, "harmonic")
        psi = spinorfield.harmonic_twistor_iso(h, cert, tol=tol)
        back = spinorfield.harmonic_twistor_iso(psi, cert, tol=tol)
        scale = float(np.max(np.abs(h.values)))
        worst_roundtrip = max(worst_roundtrip,
                              float(np.max(np.abs(back.values - h.values)))
                              / scale)
    roundtrip_ok = worst_roundtrip < 1e-10

    # each built-in with its metric family, as the report names it
    builtins = (
        ("LeftInvariant", catalog.flat()),
        ("LeftInvariant", catalog.left_invariant(math.sqrt(2.0), 1.0)),
        ("ClosedDiagonal", catalog.analex()),
        ("ClosedDiagonal", catalog.closed_diagonal_wave(1.0, 2.0, amp=0.05)),
        ("Sanchez", catalog.analex_sanchez()),
        ("RosaTau", catalog.rosatau_window()),
        ("ConformalRescale",
         catalog.conformal(catalog.analex(), catalog.exp_sine_factor())))
    mismatches = []
    certified = []
    for name, spec in builtins:
        try:
            scf = classify.is_x_conformally_flat(spec, tol=tol)
        except Inconclusive:
            scf = None
        if scf is None:
            continue
        certified.append(name)
        table = classify.classify_table(spec, ("delta_plus", "tau_minus"),
                                        tol=tol)
        for ab in STRUCTURES:
            dp = table[ab]["delta_plus"].value
            tm = table[ab]["tau_minus"].value
            if dp != tm:
                mismatches.append(f"{name} {ab}: delta_plus={dp} tau_minus={tm}")
    passed = roundtrip_ok and not mismatches and len(certified) >= 3
    detail = (f"worst iso roundtrip defect {worst_roundtrip:.1e} over 100 "
              f"fields; delta_plus == tau_minus on {len(certified)} certified "
              f"built-ins ({', '.join(certified)})"
              + ("" if not mismatches else "; MISMATCH: " + "; ".join(mismatches)))
    return passed, {"worst_roundtrip": worst_roundtrip,
                    "certified": certified, "mismatches": mismatches}, detail


# ---------------------------------------------------------------------------
# the suite


SUITE: tuple[tuple[int, str, Callable], ...] = (
    (1, "constant-coefficient kernel table", criterion_constant_table),
    (2, "closed diagonal example metric", criterion_closed_diagonal_example),
    (3, "rotation number vs coefficient ratio", criterion_rotation_number),
    (4, "flat-torus holonomy characters", criterion_flat_holonomy),
    (5, "conformal invariance", criterion_conformal_invariance),
    (6, "Clifford relations", criterion_clifford),
    (7, "divergence dual route", criterion_divergence_oracle),
    (8, "geometric vs spectral classifiers", criterion_cross_validation),
    (9, "pp-wave torus", criterion_ppwave),
    (10, "kernel isomorphism and dimension equality", criterion_isomorphism),
)


def run_criterion(index: int, step: Optional[float] = None,
                  grid_n: Optional[int] = None,
                  tol: Tolerances = DEFAULT) -> CriterionResult:
    for idx, name, fn in SUITE:
        if idx == index:
            break
    else:
        raise ValueError(f"no criterion {index}")
    t0 = time.perf_counter()
    try:
        passed, measured, detail = fn(step, grid_n, tol)
    except Exception as exc:                      # noqa: BLE001
        passed = False
        measured = {"exception": repr(exc), "traceback": traceback.format_exc()}
        detail = f"crashed: {exc!r}"
    return CriterionResult(index=idx, name=name, passed=passed,
                           seconds=time.perf_counter() - t0,
                           measured=measured, detail=detail)


def run_all(step: Optional[float] = None, grid_n: Optional[int] = None,
            tol: Tolerances = DEFAULT) -> list[CriterionResult]:
    return [run_criterion(idx, step, grid_n, tol) for idx, _, _ in SUITE]
