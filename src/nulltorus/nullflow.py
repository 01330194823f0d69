"""Flows of the null line fields: rotation numbers, closed lines, cylinders.

Both null families are nowhere vertical *or* nowhere horizontal on every
supported metric, so each family is a graph over a transversal coordinate
(the "axis"): x1 for a family with bounded slope over x1, x2 for a
quasi-vertical family (RosaTau's X-family).  The axis is chosen
automatically from the direction field sampled on a coarse grid.

Every flow question is decided by one quadrature (``_LatticeFlow``): the
direction of a family depends on one lattice phase on every catalog metric
(x1-only, single-phase diagonal and left-invariant metrics, and their
conformal rescalings), so it depends on y1 alone in the basis y = A^-1 x
of that phase.  The flow is then a rigid rotation of the transversal
section, exact to a stated error, or has its closed lines at the zeros of
one function of y1, the phase velocity V'^1, whatever V'^2 does.  A flow
that no lattice rule covers (a hand-built metric with no phase) is
Inconclusive.  No closed line of a covered flow is recorded:
``spin.holonomy_table`` reads each line's spin boost from the same phase
samples, and it and ``classify_line`` decide whether the line at a phase
closes by ``PhaseZeros.distance``.  RK4 (``_march``) integrates single
lines (``integrate_null_line``, the only source of a ``NullLineRecord``)
and gives the direct rotation estimate that cross-checks the quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from . import geometry
from .errors import (DenseFlow, Inconclusive, NotTransverse, StepTooLarge,
                     WrongFamily)
from .gridtools import (TrigSeries1, TrigSeries2, circular_zeros, grid_points,
                        resolved_series, torus_delta)
from .tolerances import DEFAULT, Tolerances

Point = tuple[float, float]

#: longest closed-line period the flow code certifies
MAX_PERIOD = 64
#: phases at which the lattice quadrature samples the direction field
LATTICE_SAMPLES = 2048


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class RationalCertificate:
    p: int
    q: int
    residual: float


@dataclass(frozen=True)
class RotationNumberEstimate:
    family: str
    value: float
    rational: Optional[RationalCertificate]
    method: str = "lattice"


@dataclass(frozen=True)
class LineClass:
    kind: str                                  # "Closed" | "Dense" | "Asymptotic"
    winding: Optional[tuple[int, int]] = None  # Closed: exact cover displacement
    period: Optional[float] = None             # Closed: in axis units
    rotation: Optional[float] = None           # Dense
    limit_winding: Optional[tuple[int, int]] = None   # Asymptotic
    displacement: Optional[float] = None       # q rho - p, or phase distance


@dataclass(frozen=True)
class NullLineRecord:
    family: str
    axis: int
    ts: np.ndarray
    points: np.ndarray        # (M, 2) cover coordinates
    velocities: np.ndarray    # (M, 2) coordinate velocity dpoint/dt


@dataclass(frozen=True)
class Interval:
    kind: str          # "Resonant" | "Asymptotic" | "NonResonant"
    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def interior_points(self, count: int) -> np.ndarray:
        pad = 0.05 * self.width
        return np.linspace(self.lo + pad, self.hi - pad, count)


@dataclass(frozen=True)
class CylinderDecomposition:
    family: str
    axis: int
    rotation: RationalCertificate
    intervals: tuple[Interval, ...]
    isolated_closed: tuple[float, ...]   # transversal values of isolated closed lines

    @property
    def resonant_intervals(self) -> tuple[Interval, ...]:
        return tuple(iv for iv in self.intervals if iv.kind == "Resonant")


@dataclass(frozen=True)
class CompletenessProbe:
    family: str
    p0: Point
    complete_up_to: float
    blowup_detected: bool
    blowup_parameter: Optional[float]
    max_speed: float
    directions: tuple[dict, dict]


# ---------------------------------------------------------------------------
# transversality and slopes


@lru_cache(maxsize=128)
def transversal_axis(spec, family: str) -> int:
    """0 if the family is a graph over x1, 1 if over x2; NotTransverse else.

    Decided from the direction field on a coarse grid: the axis is the
    component whose (normalized) magnitude stays farthest from zero.
    """
    X1, X2 = grid_points(64)
    d1, d2 = geometry.null_direction_arrays(spec, X1, X2, family)
    norm = np.hypot(d1, d2)
    r1 = float(np.min(np.abs(d1) / norm))
    r2 = float(np.min(np.abs(d2) / norm))
    if max(r1, r2) < 0.02:
        raise NotTransverse(
            f"{family}-family is near-vertical and near-horizontal at once "
            f"(min component ratios {r1:.3g}, {r2:.3g})")
    return 0 if r1 >= r2 else 1


def slope_function(spec, family: str, axis: int):
    """Vectorized dw/du for the family as a graph over the axis coordinate."""
    if axis == 0:
        def slope(u, w):
            d1, d2 = geometry.null_direction_arrays(spec, u, w, family)
            return d2 / d1
    else:
        def slope(u, w):
            d1, d2 = geometry.null_direction_arrays(spec, w, u, family)
            return d1 / d2
    return slope


def _rk4(f, t, y, h):
    """The increment of one classical RK4 step of y' = f(t, y)."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _march(spec, family: str, axis: int, u0: float, w0, n_units: float,
           step: float, record: bool = False):
    """RK4 in the axis coordinate; w0 may be a batch.  Returns w_end, or
    (w_end, ts, w-path) when record=True."""
    slope = slope_function(spec, family, axis)
    per_unit = max(1, round(1.0 / step))    # whole steps per axis unit
    h = 1.0 / per_unit
    n_steps = int(round(n_units * per_unit))
    w = np.array(w0, dtype=float, copy=True)
    path = [w]
    for i in range(n_steps):
        u = u0 + i * h
        dw = _rk4(slope, u, w, h)
        jump = float(np.max(np.abs(dw)))
        if jump > 0.25:
            raise StepTooLarge(
                f"per-step displacement {jump:.3g} at u={u:.4f} "
                f"(step {h:.2e}); refine the step")
        w = w + dw
        if record:
            path.append(w)
    return (w, np.arange(n_steps + 1) * h, np.array(path)) if record else w


# ---------------------------------------------------------------------------
# integration of single lines


def _line_records(spec, family: str, axis: int, u0: float, w0s,
                  t_max: float, step: float) -> list[NullLineRecord]:
    """Records of the lines through (u0, w) for every w in w0s, all in one
    batched march; each equals the record of its own march."""
    w0s = np.atleast_1d(np.asarray(w0s, dtype=float))
    # one line marches as a 0-d value: numpy scalar arithmetic is faster
    _, ts, paths = _march(spec, family, axis, u0,
                          w0s[0] if w0s.size == 1 else w0s, t_max, step,
                          record=True)
    paths = paths.reshape(len(ts), -1)
    us = u0 + ts
    slopes = np.asarray(slope_function(spec, family, axis)(us[:, None], paths),
                        dtype=float)
    records = []
    for path, m in zip(paths.T, slopes.T):
        if axis == 0:
            points = np.column_stack([us, path])
            velocities = np.column_stack([np.ones_like(m), m])
        else:
            points = np.column_stack([path, us])
            velocities = np.column_stack([m, np.ones_like(m)])
        records.append(NullLineRecord(family=family, axis=axis, ts=ts,
                                      points=points, velocities=velocities))
    return records


def integrate_null_line(spec, p0: Point, family: str = "X",
                        t_max: float = 1.0,
                        tol: Tolerances = DEFAULT) -> NullLineRecord:
    """March the null line through p0 for t_max units of the axis coordinate.

    The record stores cover coordinates; the parametrization is the axis
    coordinate itself (velocity component along the axis is exactly 1).
    """
    axis = transversal_axis(spec, family)
    return _line_records(spec, family, axis, float(p0[axis]),
                         float(p0[1 - axis]), t_max, tol.ode_step)[0]


def best_rational(value: float, max_den: int, residual_tol: float
                  ) -> Optional[RationalCertificate]:
    frac = Fraction(value).limit_denominator(max_den)
    res = abs(value - float(frac))
    if res < residual_tol:
        return RationalCertificate(frac.numerator, frac.denominator, res)
    return None


def _certify_rotation(value: float, error: float, tol: Tolerances
                      ) -> Optional[RationalCertificate]:
    """Rational certificate of the rotation number ``value``, known to
    within ``error``, or None (dense).

    p/q (q <= MAX_PERIOD, the smallest such q) is certified when q * value
    lies within the resonance tolerance of the integer p: the q-return
    displacement of a rigid rotation by the value.  Beyond that, a best
    rational approximation of ``value`` is credible only if its residual is
    within ``error`` (an irrational value always has convergents that fit
    the raw residual tolerance).
    """
    for q in range(1, MAX_PERIOD + 1):
        p = math.ceil(q * value - tol.resonance)
        if p <= q * value + tol.resonance:
            return RationalCertificate(p, q, abs(value - p / q))
    cert = best_rational(value, tol.rational_cap, tol.rational_residual_flow)
    if cert is None or cert.q <= MAX_PERIOD or not cert.residual <= error:
        return None
    return cert


# ---------------------------------------------------------------------------
# the lattice quadrature


class _LatticeFlow:
    """A family whose direction V is a function of y1 alone, y = A^-1 x.

    With V' = A^-1 V, the rotation number on the section x^a = 0 (a the
    graph axis) is rho = d^(1-a)/d^a for a winding vector d.  Graph
    branch (theta set): V'^1 has no zero and every line solves dy2/dy1 =
    m = V'^2/V'^1, so y2 = c + Theta y1 + M(y1) (M periodic) and a
    y1-period moves each line by d = A (1, Theta).
    Its error is a few ulps of rho plus that of Theta (``theta_error``)
    carried through |d rho / d Theta| = 1/(d^a)^2 (det A = 1).  Vertical
    branch: y1 alone solves the autonomous dy1/dt = V'^1(y1) along the
    lines, whatever V'^2 does; a zero z of V'^1 (``phase_zeros``) is the
    closed line x = A (z, t) of winding d = A e2, a run of zeros a resonant
    band, and every other line is asymptotic to them; rho is a ratio of
    integers.
    """

    def __init__(self, spec, axis: int, A, theta=None,
                 theta_error: float = 0.0):
        self.spec, self.axis, self.A = spec, axis, A
        self.theta = theta
        (a, b), (c, d) = A
        self.shift = (b, d) if theta is None else (a + b * theta,
                                                   c + d * theta)
        self.rho = self.shift[1 - axis] / self.shift[axis]
        self.error = 0.0 if theta is None else (
            4 * np.spacing(abs(self.rho)) + theta_error / self.shift[axis] ** 2)


@lru_cache(maxsize=128)
def phase_velocity(spec, family: str):
    """(A, V'^1, V'^2) for a spec with a phase: A = lattice_basis(*phase),
    and the family's direction V' = A^-1 V at the LATTICE_SAMPLES points
    A (y1, 0), y1 = m/LATTICE_SAMPLES, of its phase line (read-only)."""
    A = (a, b), (c, d) = geometry.lattice_basis(*spec.phase())
    y1 = np.arange(LATTICE_SAMPLES) / LATTICE_SAMPLES
    v1, v2 = geometry.null_direction_arrays(spec, a * y1, c * y1, family)
    return (A, *geometry._read_only([np.broadcast_to(v, y1.shape).copy() for v
                                      in (d * v1 - b * v2, a * v2 - c * v1)]))


@dataclass(frozen=True)
class PhaseZeros:
    """Where V'^1 vanishes, in y1: runs (lo, hi) below the SCF rule's level
    (hi may pass 1; ((0, 1),) where V'^1 = 0) and simple zeros, sorted in
    [0, 1).  The closed line x = A (z, t) runs along each zero z."""
    A: tuple
    runs: tuple[tuple[float, float], ...]
    zeros: tuple[float, ...]

    def distance(self, y1: float) -> float:
        """How far the phase y1 is from the nearest closed line: 0 in a run,
        inf with no zero.  The line at y1 is closed iff this is at most
        tol.closedness_reject, the package's one such rule."""
        y1 = float(y1) % 1.0
        if any(lo <= y1 <= hi or lo <= y1 + 1 <= hi for lo, hi in self.runs):
            return 0.0
        ends = self.zeros + sum(self.runs, ())      # a run's ends are zeros
        return float(min((abs(torus_delta(y1, z)) for z in ends),
                         default=math.inf))


@lru_cache(maxsize=128)
def phase_zeros(spec, family: str, tol: Tolerances) -> PhaseZeros:
    """``phase_velocity``'s V'^1 searched at level 1e-12 max(1, max |V'^1|),
    run ends and sign flips bisected on V'^1: the package's one search."""
    A, along, _ = phase_velocity(spec, family)
    (a, b), (c, d) = A

    def velocity(y1):
        v1, v2 = geometry.null_direction_arrays(spec, a * y1, c * y1, family)
        return d * v1 - b * v2

    level = 1e-12 * max(1.0, float(np.max(np.abs(along))))
    runs, zeros = circular_zeros(along, level, velocity, tol.bisection)
    return PhaseZeros(A, tuple(runs), tuple(zeros))


@lru_cache(maxsize=128)
def _lattice_flow(spec, family: str, tol: Tolerances):
    """The family's ``_LatticeFlow``, or None where no lattice rule covers
    it, from the samples of ``phase_velocity`` (A is the identity on x1-only
    and left-invariant metrics).  Declined: a spec with no phase; where V'^1
    has a zero or a run (``phase_zeros``), closed lines parallel to the
    section; else a coefficient of m at |k| >= LATTICE_SAMPLES/4 above
    tol.resonance max |m|.

    A conformal rescaling has its inner metric's null directions, so it
    takes the inner flow, unless that is declined or the two transversal
    axes differ; ``spin.holonomy_table`` reads the inner Gamma from it."""
    if isinstance(spec, geometry.ConformalRescale):
        flow = _lattice_flow(spec.inner, family, tol)
        if flow is None or transversal_axis(spec, family) != flow.axis:
            return None
        return flow
    if not spec.phase():
        return None
    A, along, across = phase_velocity(spec, family)
    axis = transversal_axis(spec, family)
    record = phase_zeros(spec, family, tol)
    if record.runs or record.zeros:
        return _LatticeFlow(spec, axis, A) if A[axis][1] != 0 else None
    m = across / along
    resolved = resolved_series(m, tol.resonance)
    if resolved is None:
        return None
    series, tail = resolved
    scale = np.max(np.abs(m))
    theta, _ = series.antiderivative()
    # Theta is a sum of LATTICE_SAMPLES samples: a few ulps of its terms per
    # halving, plus the tail that aliases onto the mean
    theta_error = (LATTICE_SAMPLES.bit_length() * np.spacing(scale)
                   + float(tail.sum()))
    flow = _LatticeFlow(spec, axis, A, theta.real, theta_error)
    return flow if flow.shift[axis] != 0.0 else None


def _covering_flow(spec, family: str, tol: Tolerances) -> _LatticeFlow:
    """The family's lattice flow, or Inconclusive where no rule covers it."""
    flow = _lattice_flow(spec, family, tol)
    if flow is None:
        raise Inconclusive(
            f"no lattice rule covers the {family}-family of this "
            f"{type(spec).__name__}: the flow route needs a direction of one "
            "lattice phase (spec.phase(), or the inner metric's for a "
            "conformal rescaling) whose slope series the quadrature resolves")
    return flow


def _verifiable(est: RotationNumberEstimate, tol: Tolerances
                ) -> RationalCertificate:
    """The certificate, or DenseFlow / Inconclusive (period too long)."""
    cert = est.rational
    if cert is None:
        raise DenseFlow(
            f"rotation number {est.value:.9f} has no rational certificate: "
            f"no period up to {MAX_PERIOD} brackets it and no credible "
            f"rational approximation (cap {tol.rational_cap}) fits")
    if cert.q > MAX_PERIOD:
        raise Inconclusive(
            f"closed-line period {cert.q} is beyond the decomposition's "
            "practical range", measured=float(cert.q),
            band=(1.0, float(MAX_PERIOD)))
    return cert


def rotation_number(spec, family: str = "X", tol: Tolerances = DEFAULT
                    ) -> RotationNumberEstimate:
    """Average displacement per unit of the axis coordinate: the lattice
    quadrature's exact value, certified within its error; Inconclusive
    where no lattice rule covers the family."""
    flow = _covering_flow(spec, family, tol)
    return RotationNumberEstimate(family, flow.rho,
                                  _certify_rotation(flow.rho, flow.error, tol))


def direct_rotation_number(spec, family: str = "X", p0: Point = (0.0, 0.0),
                           n_returns: int = 1000, tol: Tolerances = DEFAULT
                           ) -> RotationNumberEstimate:
    """One RK4 trajectory from p0 over n_returns axis units, the cross-check
    of the quadrature.  A long average states no error, so it carries no
    certificate: off a rigid rotation (asymptotic or banded lines) it is
    within about 1/n_returns of the lattice value."""
    axis = transversal_axis(spec, family)
    w0 = float(p0[1 - axis])
    w_end = _march(spec, family, axis, float(p0[axis]), w0, float(n_returns),
                   tol.ode_step)
    return RotationNumberEstimate(family, (float(w_end) - w0) / n_returns,
                                  None, "direct")


def _winding(axis: int, q: int, p: int) -> tuple[int, int]:
    return (q, p) if axis == 0 else (p, q)


def classify_line(spec, p0: Point, family: str = "X",
                  tol: Tolerances = DEFAULT) -> LineClass:
    """Closed / Dense / Asymptotic classification of the line through p0.

    Without a rational rotation certificate the flow is dense; a period
    beyond MAX_PERIOD is Inconclusive.  Under the quadrature's rigid
    rotation the q-return displacement q rho - p of every line decides:
    below the closedness tolerance closed, above the open threshold
    asymptotic, in between Inconclusive.  Where the lines turn vertical in
    the lattice basis, the displacement is ``PhaseZeros.distance`` of p0's
    phase y1 = d x1 - b x2 (A = ((a, b), (c, d))): closed up to
    tol.closedness_reject, else asymptotic to the closed lines.
    """
    est = rotation_number(spec, family, tol)
    if est.rational is None:
        return LineClass(kind="Dense", rotation=est.value)
    cert = _verifiable(est, tol)
    p, q = cert.p, cert.q
    flow = _lattice_flow(spec, family, tol)
    winding = _winding(flow.axis, q, p)
    if flow.theta is None:
        (_, b), (_, d) = flow.A
        disp = phase_zeros(flow.spec, family, tol).distance(
            d * p0[0] - b * p0[1])
        closed = disp <= tol.closedness_reject
    else:
        disp = q * flow.rho - p
        closed = abs(disp) < tol.closedness
    if closed:
        return LineClass(kind="Closed", winding=winding, period=float(q),
                         displacement=disp)
    if abs(disp) > tol.closedness_reject:
        return LineClass(kind="Asymptotic", limit_winding=winding,
                         rotation=est.value, displacement=disp)
    raise Inconclusive(
        f"q-return displacement {abs(disp):.3e} falls between the closed "
        f"({tol.closedness:.0e}) and open ({tol.closedness_reject:.0e}) "
        "thresholds", measured=abs(disp),
        band=(tol.closedness, tol.closedness_reject))


# ---------------------------------------------------------------------------
# first integral of closed diagonal metrics


class FirstIntegral:
    """F(x1,x2) = int_0^{x1} lam1(s,x2) ds - int_0^{x2} lam2(0,s) ds.

    dF = lam1 dx1 - lam2 dx2 vanishes nowhere and kills the X-direction, so
    F is constant along X-lines and strictly monotone across them; it is
    quasi-periodic with offsets (l1, -l2) under full coordinate periods.
    The one quadrature of the closed diagonal kernels.  Its series come
    from the n samples of the spec's phase line where it has one (lam1 =
    sum c e^(2 pi i f (k x1 + l x2)), the 2-D series of modes (k f, l f),
    and lam2(0, x2) of frequencies l f), else from the n x n grid.
    ``grid()`` sums them back on that grid by inverse FFT (1-D on a phase
    line); ``phase_fields`` gives the kernel phases exp(2 pi i alpha F)
    of ``spinorfield.solve_closed_diagonal`` (in factored form on a phase
    line), and the resonant bump trains
    of ``spinorfield.construct_resonant_spinors`` and criterion 2's
    transport check read the grid.  The pointwise call serves points off
    the grid (the flow tests check it against RK4 lines).  Closedness is
    decided with the caller's ``tol``.
    """

    def __init__(self, spec, n: Optional[int] = None,
                 tol: Tolerances = DEFAULT):
        if not geometry.is_closed_diagonal(spec, tol):
            raise WrongFamily("first integral requires a closed diagonal metric")
        self.n = n = n or spec.grid_n
        self._line = line = geometry._phase_line(spec, n)
        if line is None:
            l1g, l2g = spec.lambdas(*grid_points(n))
            lam1 = TrigSeries2.from_samples(l1g)
            lam2 = TrigSeries1.from_samples(l2g[0, :])    # along x1 = 0
        else:
            s1, s2 = (TrigSeries1.from_samples(v) for v in line.lambdas)
            lam1 = TrigSeries2(s1.coeffs, line.k * s1.freqs,
                               line.l * s1.freqs)
            lam2 = TrigSeries1(s2.coeffs, line.l * s2.freqs)
        self._mean1, self._osc1 = lam1.antiderivative_x1()
        if line is not None:
            # the oscillating coefficients over their phase frequencies
            self._phase_osc = TrigSeries1(self._osc1.coeffs,
                                          s1.freqs[lam1.k1 != 0])
        mean2, self._osc2 = lam2.antiderivative()
        self._mean2 = mean2.real

    def __call__(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        i1 = x1 * self._mean1(x2).real + (self._osc1(x1, x2)
                                          - self._osc1(np.zeros_like(x1), x2)).real
        i2 = x2 * self._mean2 + (self._osc2(x2) - self._osc2(0.0)).real
        return i1 - i2

    def _lam2_integral(self, x):
        """int_0^{x_j} lam2(0, s) ds at x = j/n."""
        osc2 = self._osc2.on_grid(self.n).real
        return x * self._mean2 + (osc2 - osc2[0])

    def grid(self) -> np.ndarray:
        """F on the n x n grid x = j/n it was built from (``__call__`` at
        ``grid_points(n)``), each series summed by one inverse FFT; on a
        phase line the x1-oscillation is the read-only view
        G[(k i + l j) mod n] of G, the samples of its phase series."""
        x = np.arange(self.n) / self.n
        if self._line is None:
            osc1 = self._osc1.on_grid(self.n).real
        else:
            [osc1] = self._line.grid((self._phase_osc.on_grid(self.n).real,))
        return (np.multiply.outer(x, self._mean1.on_grid(self.n).real)
                + (osc1 - osc1[0]) - self._lam2_integral(x))

    def phase_fields(self, alphas, structure) -> tuple:
        """conj(eps_a) exp(2 pi i alpha F) for each alpha, eps_a the
        structure's twist: the kernel fields of
        ``spinorfield.solve_closed_diagonal``.

        On a phase line F[i, j] = l1 x_i + G[(k i + l j) mod n]
        - G[(l j) mod n] - I2[j] (I2 the lam2 integral; the x1-mean of lam1
        is the constant l1 of a closed metric), so each field is the
        ``geometry.PhaseFactors`` col_i row_j E[(k i + l j) mod n], E the
        n-point exponentials of G.  Its mode m is the integer nearest the
        exponents of col (alpha l1 - (1 - a1)/4) and row (-alpha l2
        - (1 - a2)/4): the row is e^(2 pi i m2 x2) up to the constant
        e^(-2 pi i alpha G(0)) and the quadrature error of F.  Without a
        line each field is F's n x n grid, exponentiated."""
        n = self.n
        if self._line is None:
            X1, X2 = grid_points(n)
            F = self.grid()
            conj_twist = np.conj(structure.twist(X1, X2))
            return tuple(conj_twist * np.exp(2j * np.pi * alpha * F)
                         for alpha in alphas)
        x = np.arange(n) / n
        G = self._phase_osc.on_grid(n).real
        across = self._line.grid((G,))[0][0] + self._lam2_integral(x)
        l1 = self.quasi_periods[0]
        fields = []
        for alpha in alphas:
            turn = 2j * np.pi * alpha
            mode = (round(alpha * l1 - (1 - structure.a1) / 4),
                    round(-alpha * self._mean2 - (1 - structure.a2) / 4))
            col = np.exp(turn * l1 * x) * np.conj(structure.twist(x, 0.0))
            row = np.exp(-turn * across) * np.conj(structure.twist(0.0, x))
            fields.append(geometry.PhaseFactors(mode, col, row,
                                                np.exp(turn * G)))
        return tuple(fields)

    @property
    def quasi_periods(self) -> tuple[float, float]:
        """(shift under x1 -> x1+1, shift under x2 -> x2+1), read off the
        series at x2 = 0; (l1, -l2) for a closed metric."""
        return (float(self._mean1(0.0).real), -self._mean2)


@lru_cache(maxsize=32)
def first_integral_function(spec, n: Optional[int] = None,
                            tol: Tolerances = DEFAULT) -> FirstIntegral:
    return FirstIntegral(spec, n, tol)


# ---------------------------------------------------------------------------
# cylinder decomposition


def cylinder_decomposition(spec, family: str = "X",
                           tol: Tolerances = DEFAULT) -> CylinderDecomposition:
    """Split the transversal circle by the q-return displacement D, for a
    rational rotation with q <= MAX_PERIOD (DenseFlow without one,
    Inconclusive for a longer period).  Under the quadrature's rigid
    rotation D = q rho - p: one Resonant interval where |D| <
    tol.resonance, else one NonResonant.  Where the lines turn vertical in
    the lattice basis, the closed line at a zero z of V'^1 (``phase_zeros``)
    meets the section, where y1 = m w (m = d on axis 1, -b on axis 0), at
    w = (z + j)/m mod 1, j < |m|: each run of zeros gives |m| Resonant
    intervals, each simple zero |m| isolated closed lines bounding
    Asymptotic intervals.
    """
    cert = _verifiable(rotation_number(spec, family, tol), tol)
    flow = _lattice_flow(spec, family, tol)
    result = partial(CylinderDecomposition, family, flow.axis, cert)
    record = phase_zeros(flow.spec, family, tol)
    if flow.theta is not None or record.runs == ((0.0, 1.0),):
        resonant = abs(cert.q * flow.rho - cert.p) < tol.resonance
        return result((Interval("Resonant" if resonant else "NonResonant",
                                0.0, 1.0),), ())
    m = flow.A[1][1] if flow.axis == 1 else -flow.A[0][1]

    def section(y1):
        return [((y1 + j) / m) % 1.0 for j in range(abs(m))]

    zeros = sorted(w for z in record.zeros for w in section(z))
    # w = y1/m reverses a run's ends where m < 0
    runs = sorted((w, w + (hi - lo) / abs(m)) for lo, hi in record.runs
                  for w in section(lo if m > 0 else hi))
    if not runs:
        return result(tuple(Interval("Asymptotic", a, b) for a, b in
                            zip(zeros, zeros[1:] + [zeros[0] + 1.0])),
                      tuple(zeros))
    # resonant runs, with the isolated zeros in the gaps between them
    intervals = [Interval("Resonant", lo, hi) for lo, hi in runs]
    isolated: list[float] = []
    for (_, a), (b, _) in zip(runs, runs[1:] + [(runs[0][0] + 1.0, None)]):
        shifted = (a + (z - a) % 1.0 for z in zeros)
        inside = sorted(z for z in shifted if z < b)
        bounds = [a] + inside + [b]
        intervals += [Interval("Asymptotic", lo, hi)
                      for lo, hi in zip(bounds, bounds[1:])]
        isolated += [z % 1.0 for z in inside]
    return result(tuple(intervals), tuple(sorted(isolated)))


# ---------------------------------------------------------------------------
# geodesic completeness


def probe_completeness(spec, p0: Point, family: str = "X",
                       t_max: float = 20.0,
                       tol: Tolerances = DEFAULT) -> CompletenessProbe:
    """Integrate the null geodesic through p0 in both time directions.

    The geodesic equation is solved in an affine parameter; a blowup
    certificate is issued when the coordinate speed exceeds 1e8 while the
    affine parameter stays below t_max.  The step shrinks as
    ode_step/max(1, |v|), so each step moves a bounded coordinate distance.
    """
    v0 = np.array(geometry.null_directions(spec, p0)[0 if family == "X" else 1],
                  dtype=float)
    legs = tuple(_geodesic_leg(spec, p0, sign * v0, t_max, tol.ode_step, tol)
                 for sign in (+1.0, -1.0))
    blowups = [leg["reached"] for leg in legs if leg["blowup"]]
    return CompletenessProbe(family, p0, min(leg["reached"] for leg in legs),
                             bool(blowups), min(blowups, default=None),
                             max(leg["final_speed"] for leg in legs), legs)


def _geodesic_leg(spec, p0: Point, v0: np.ndarray, t_max: float, step: float,
                  tol: Tolerances) -> dict:
    """RK4 of the stacked state (x1, x2, v1, v2) under x' = v and
    v' = -Gamma(v, v), the step shrunk to step/max(1, |v|)."""

    def rate(t, y):
        gam = geometry.christoffels_at(spec, y[0], y[1])
        v = y[2:]
        a = [-(gam[(k, 0, 0)] * v[0] * v[0] + 2 * gam[(k, 0, 1)] * v[0] * v[1]
               + gam[(k, 1, 1)] * v[1] * v[1]) for k in (0, 1)]
        return np.concatenate((v, [float(a[0]), float(a[1])]))

    y = np.array([p0[0], p0[1], v0[0], v0[1]], dtype=float)
    t = 0.0
    blowup = False
    speed = float(np.hypot(y[2], y[3]))
    while t < t_max:
        speed = float(np.hypot(y[2], y[3]))
        if speed >= tol.velocity_blowup:
            blowup = True
            break
        h = min(step / max(1.0, speed), t_max - t)
        y = y + _rk4(rate, t, y, h)
        t += h
    return {"reached": t, "blowup": blowup, "final_speed": speed}
