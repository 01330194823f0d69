"""Metric families on the 2-torus with signature (1,1) and their frames.

A metric is written in the global chart as

    g = A dx1^2 + 2 B dx1 dx2 + C dx2^2,      det = A*C - B^2 < 0.

The lightcone of such a metric splits into two smooth line fields.  We label
them through a *canonical orthonormal frame* (s1, s2) with g(s1,s1) = -1,
g(s2,s2) = +1:

    X = s1 + s2   and   Y = -s1 + s2

are the two null directions.  Which line field receives which label depends
on the orientation; each family below fixes a deliberate, documented choice:

* diagonal families (g = -lam1^2 dx1^2 + lam2^2 dx2^2, lam_i nonvanishing but
  possibly negative) use s1 = d1/|lam1|, s2 = sign(lam1)/lam2 * d2, so the
  X-lines have slope dx2/dx1 = lam1/lam2 *with signs*.  For closed diagonal
  metrics this makes the X-rotation number equal to l1/l2, the ratio of the
  mean coefficients, including sign.
* RosaTau metrics (g = 2 dx1 dx2 - tau(x1) dx2^2) carry the *reversed*
  orientation: the quasi-vertical family tangent to (tau/2, 1) — the one that
  contains closed incomplete geodesics and the resonant strips where tau
  vanishes identically — is labeled X, and the horizontal family d1 is Y.
* Sanchez metrics (g = E dx1^2 + 2 F dx1 dx2 - G dx2^2 with E, F, G functions
  of x1 and E*G + F^2 > 0) use the globally timelike field X1 - X2 as frame
  seed and the standard orientation.

Frames are time-oriented by fixing the sign of s1 once at the base point
(0, 0) (positive d1-component when that is nonzero).  All family callbacks
must be 1-periodic in each variable and numpy-vectorized.

Each family also owns its null directions: diagonal and RosaTau families
form the X/Y components from their coefficients directly, bit for bit the
frame sums above, and the other families add up their frame.

RosaTau and Sanchez coefficients depend on x1 alone, so d2 is a Killing
field and their phase is (1, 0), as it is for every catalog metric but a
conformal rescaling: a direction field of one lattice phase, which is what
``classify`` certifies and ``nullflow`` integrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateMetric, FrameUndefined, WrongFamily
from .gridtools import (grid_points, spectral_derivative,
                        spectral_derivatives)
from .tolerances import DEFAULT, Tolerances

Point = tuple[float, float]

#: step of every pointwise central difference
FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class MetricEval:
    """Metric coefficients at a point: g = A dx1^2 + 2B dx1 dx2 + C dx2^2."""

    A: float
    B: float
    C: float

    @property
    def det(self) -> float:
        return self.A * self.C - self.B * self.B

    def inner(self, u, v) -> float:
        return (self.A * u[0] * v[0] + self.B * (u[0] * v[1] + u[1] * v[0])
                + self.C * u[1] * v[1])


@dataclass(frozen=True)
class Frame:
    """Orthonormal frame at a point: s1 timelike, s2 spacelike (coordinates)."""

    s1: tuple[float, float]
    s2: tuple[float, float]

    @property
    def orientation(self) -> int:
        d = self.s1[0] * self.s2[1] - self.s1[1] * self.s2[0]
        return 1 if d > 0 else -1

    @property
    def x_direction(self) -> tuple[float, float]:
        return (self.s1[0] + self.s2[0], self.s1[1] + self.s2[1])

    @property
    def y_direction(self) -> tuple[float, float]:
        return (-self.s1[0] + self.s2[0], -self.s1[1] + self.s2[1])


@dataclass(frozen=True)
class VectorField:
    """Vector field V = v1 d1 + v2 d2; the vectorized ``components(x1, x2)``
    returns (v1, v2) from one evaluation."""

    components: Callable

    def at(self, x1, x2):
        v1, v2 = self.components(x1, x2)
        return np.asarray(v1, dtype=float), np.asarray(v2, dtype=float)


# ---------------------------------------------------------------------------
# families
#
# Each family class owns its coefficients (A, B, C), their jet (A, B, C and
# the partials A1, A2, B1, B2, C1, C2 at the same points), its canonical
# frame (a1, a2, b1, b2) and its null directions; the methods take float
# arrays, and the module functions convert the inputs and dispatch to them.


class _FrameNullDirections:
    """Null directions as frame sums: X = s1 + s2, Y = -s1 + s2."""

    def null_direction(self, x1, x2, family):
        a1, a2, b1, b2 = frame_component_arrays(self, x1, x2)
        if family == "X":
            return a1 + b1, a2 + b2
        return -a1 + b1, -a2 + b2


class _DiagonalMetric:
    """Formulas shared by the families g = -lam1^2 dx1^2 + lam2^2 dx2^2."""

    def phase(self) -> Optional[tuple[int, int]]:
        """(k, l), gcd 1, when lam1, lam2 depend on k x1 + l x2 alone."""
        return None

    def coefficients(self, x1, x2):
        l1, l2 = self.lambdas(x1, x2)
        return -l1 * l1, np.zeros_like(l1), l2 * l2

    def jet(self, x1, x2):
        """One lambdas call serves the coefficients and their partials."""
        l1, l2 = self.lambdas(x1, x2)
        d11, d21, d12, d22 = self.lambda_partials(x1, x2)
        z = np.zeros(np.broadcast_shapes(x1.shape, x2.shape))
        return (-l1 * l1, np.zeros_like(l1), l2 * l2, -2 * l1 * d11,
                -2 * l1 * d21, z, z, 2 * l2 * d12, 2 * l2 * d22)

    def frame(self, x1, x2):
        l1, l2 = self.lambdas(x1, x2)
        if np.any(l1 == 0) or np.any(l2 == 0):
            raise DegenerateMetric("diagonal coefficient vanishes")
        a1 = 1.0 / np.abs(l1)
        a2 = np.zeros_like(a1)
        b1 = np.zeros_like(a1)
        b2 = np.sign(l1) / l2
        return a1, a2, b1, b2

    def null_direction(self, x1, x2, family):
        """X = (1/|lam1|, sign(lam1)/lam2), Y = (-1/|lam1|, sign(lam1)/lam2):
        the frame sums without their exact zero terms."""
        l1, l2 = self.lambdas(x1, x2)
        if not (l1.all() and l2.all()):
            raise DegenerateMetric("diagonal coefficient vanishes")
        a1 = 1.0 / np.abs(l1)
        return (a1 if family == "X" else -a1), np.sign(l1) / l2


@dataclass(frozen=True)
class LeftInvariant(_DiagonalMetric):
    """Flat metric -lam1^2 dx1^2 + lam2^2 dx2^2 with constant lam's.

    lam values may be given as int/Fraction to enable exact rational-ratio
    arithmetic in the mode solvers.
    """

    lam1: float | Fraction
    lam2: float | Fraction
    grid_n: int = 256

    def lambdas(self, x1, x2):
        shape = np.broadcast_shapes(np.shape(x1), np.shape(x2))
        return (np.full(shape, float(self.lam1)),
                np.full(shape, float(self.lam2)))

    def lambda_partials(self, x1, x2):
        """All four partials vanish."""
        shape = np.broadcast_shapes(np.shape(x1), np.shape(x2))
        z = np.zeros(shape)
        return (z, z, z, z)

    def phase(self) -> tuple[int, int]:
        """(1, 0): constant coefficients depend on x1 alone, trivially."""
        return 1, 0

    def exact_ratio(self) -> Optional[Fraction]:
        if isinstance(self.lam1, (int, Fraction)) and isinstance(self.lam2, (int, Fraction)):
            return Fraction(self.lam1) / Fraction(self.lam2)
        return None


@dataclass(frozen=True)
class Diagonal(_DiagonalMetric):
    """g = -lam1(x)^2 dx1^2 + lam2(x)^2 dx2^2, lam_i nonvanishing.

    Pointwise partials are central differences (grids always go through
    FFT); a family with analytic partials defines ``lambda_partials``.
    """

    lam1: Callable
    lam2: Callable
    grid_n: int = 256

    def lambdas(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        shape = np.broadcast_shapes(x1.shape, x2.shape)
        l1 = np.broadcast_to(np.asarray(self.lam1(x1, x2), dtype=float), shape)
        l2 = np.broadcast_to(np.asarray(self.lam2(x1, x2), dtype=float), shape)
        return l1.copy(), l2.copy()

    def lambda_partials(self, x1, x2):
        (d11, d12), (d21, d22) = (_central(
            lambda a, b: (self.lam1(a, b), self.lam2(a, b)), x1, x2, axis)
            for axis in (0, 1))
        return d11, d21, d12, d22


class _KillingMetric:
    """Coefficients of x1 alone: a family supplies ``profile(x1)`` =
    (A, B, C) and its x1-partials ``profile_partials(x1)``."""

    def phase(self) -> tuple[int, int]:
        """(1, 0): the coefficients depend on x1 alone."""
        return 1, 0

    def coefficients(self, x1, x2):
        return _spread(np.broadcast_shapes(x1.shape, x2.shape),
                       self.profile(x1))

    def jet(self, x1, x2):
        z = np.zeros(np.broadcast_shapes(x1.shape, x2.shape))
        dA1, dB1, dC1 = _spread(z.shape, self.profile_partials(x1))
        return (*self.coefficients(x1, x2), dA1, z, dB1, z, dC1, z)


@dataclass(frozen=True)
class Sanchez(_KillingMetric, _FrameNullDirections):
    """g = E(x1) dx1^2 + 2 F(x1) dx1 dx2 - G(x1) dx2^2, E*G + F^2 > 0.

    ``zeros`` lists the zeros of G in [0, 1); at those lines one null family
    becomes vertical.  The null fields used throughout:

        X1 = G d1 + (F + eta0*R) d2,
        X2 = d1 - E/(F + eta0*R) d2,      R = sqrt(E*G + F^2),

    with eta0 = sign(F(0)).  The second form of X2 is the globally smooth
    rewrite of d1 + (F - eta0*R)/G d2 (equal wherever G != 0, and F + eta0*R
    is bounded away from zero whenever sign(F) = eta0 holds on the G-zeros).
    """

    E: Callable
    F: Callable
    G: Callable
    zeros: tuple[float, ...] = ()
    grid_n: int = 256

    def efgr(self, x1):
        x1 = np.asarray(x1, dtype=float)
        E, F, G = (np.asarray(f(x1), dtype=float)
                   for f in (self.E, self.F, self.G))
        R2 = E * G + F * F
        if np.any(R2 <= 0):
            raise DegenerateMetric("Sanchez family requires E*G + F^2 > 0; "
                                   f"min value {float(np.min(R2)):.3e}")
        return E, F, G, np.sqrt(R2)

    @cached_property
    def eta0(self) -> int:
        f0 = float(np.asarray(self.F(np.asarray(0.0))))
        if f0 == 0.0:
            raise DegenerateMetric("sign(F(0)) undefined: F(0) = 0")
        return 1 if f0 > 0 else -1

    @cached_property
    def frame_signs(self) -> tuple[int, int]:
        """Signs (of s1, of s2) against (X1 - X2, X1 + X2), fixed at x1 = 0."""
        (X1c, X2c), (Y1c, Y2c), _ = self.null_fields(np.asarray(0.0))
        T = (float(X1c - Y1c), float(X2c - Y2c))
        s1sig = 1 if (T[0] > 0 or (T[0] == 0 and T[1] > 0)) else -1
        U = (float(X1c + Y1c), float(X2c + Y2c))
        det = T[0] * U[1] - T[1] * U[0]
        s2sig = s1sig if det > 0 else -s1sig
        return s1sig, s2sig

    def null_fields(self, x1):
        """Coordinate components of (X1, X2) at x1 (vectorized), and R."""
        E, F, G, R = self.efgr(x1)
        w = F + self.eta0 * R
        return (G, w), (np.ones_like(G), -E / w), R

    def profile(self, x1):
        E, F, G, _ = self.efgr(x1)
        return E, F, -G

    def profile_partials(self, x1):
        return _central(lambda a, _: self.profile(a), x1, x1, 0)

    def frame(self, x1, x2):
        (X1c, X2c), (Y1c, Y2c), R = self.null_fields(x1)
        # T = X1 - X2 is globally timelike (g(T,T) = -4R^2); U = X1 + X2 is
        # spacelike.  Signs are frozen once at the base point.
        s1sig, s2sig = self.frame_signs
        return _spread(np.broadcast_shapes(x1.shape, x2.shape),
                       (s1sig * (X1c - Y1c) / (2 * R),
                        s1sig * (X2c - Y2c) / (2 * R),
                        s2sig * (X1c + Y1c) / (2 * R),
                        s2sig * (X2c + Y2c) / (2 * R)))


def lattice_basis(k: int, l: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """A in SL(2, Z) with (k, l) A = (1, 0): A = [[s, -l], [t, k]] with
    k s + l t = 1 by extended Euclid; ValueError unless gcd(k, l) = 1."""
    old, new = (k, 1, 0), (l, 0, 1)         # rows (r, s, t), r = k s + l t
    while new[0]:
        q = old[0] // new[0]
        old, new = new, tuple(o - q * m for o, m in zip(old, new))
    r, s, t = old
    if abs(r) != 1:
        raise ValueError(f"({k}, {l}) is not a primitive lattice vector")
    return (r * s, -l), (r * t, k)


@dataclass(frozen=True)
class RosaTau(_KillingMetric):
    """g = 2 dx1 dx2 - tau(x1) dx2^2 with tau 1-periodic.

    Carries the reversed orientation (see module docstring): X is the family
    tangent to (tau/2, 1), Y is the horizontal family.  The canonical frame
    requires tau > -2 everywhere (the seed d1 - d2 must stay timelike).
    ``dtau`` is the optional analytic derivative.
    """

    tau: Callable
    dtau: Optional[Callable] = None
    grid_n: int = 256

    def tau_at(self, x1):
        return np.asarray(self.tau(np.asarray(x1, dtype=float)), dtype=float)

    def dtau_at(self, x1):
        if self.dtau is None:
            return _central(lambda a, _: (self.tau_at(a),), x1, x1, 0)[0]
        return np.asarray(self.dtau(np.asarray(x1, dtype=float)), dtype=float)

    def profile(self, x1):
        t = self.tau_at(x1)
        return np.zeros_like(t), np.ones_like(t), -t

    def profile_partials(self, x1):
        dt = self.dtau_at(x1)
        return np.zeros_like(dt), np.zeros_like(dt), -dt

    def _tau_root(self, x1):
        """(tau, sqrt(2 + tau)) at x1; the frame seed needs tau > -2."""
        t = self.tau_at(x1)
        if np.any(2.0 + t <= 0):
            raise FrameUndefined("canonical RosaTau frame needs tau > -2 "
                                 f"(min 2+tau = {float(np.min(2 + t)):.3e})")
        return t, np.sqrt(2.0 + t)

    def frame(self, x1, x2):
        t, den = self._tau_root(x1)
        a1 = 1.0 / den
        return _spread(np.broadcast_shapes(x1.shape, x2.shape),
                       (a1, -a1, -(1.0 + t) / den, -1.0 / den))

    def null_direction(self, x1, x2, family):
        """The frame sums +-s1 + s2 with s1 = a1 (d1 - d2), formed on tau's
        shape (a scalar when x1 is one), broadcast only where x2 widens it."""
        t, den = self._tau_root(x1)
        a1 = 1.0 / den if family == "X" else -(1.0 / den)
        v = a1 - (1.0 + t) / den, -a1 - 1.0 / den
        if x2.shape in ((), x1.shape):
            return v
        shape = np.broadcast_shapes(x1.shape, x2.shape)
        return tuple(np.broadcast_to(c, shape) for c in v)


@dataclass(frozen=True)
class ConformalRescale(_FrameNullDirections):
    """lam * g for a positive factor lam(x1, x2); inherits inner's labels.

    Null line fields coincide with the inner metric's; the canonical frame is
    the inner frame divided by sqrt(lam), so X/Y keep their directions and
    only their scale changes.
    """

    inner: "MetricSpec"
    factor: Callable
    grid_n: int = 256

    def factor_at(self, x1, x2):
        lam = np.asarray(self.factor(np.asarray(x1, dtype=float),
                                     np.asarray(x2, dtype=float)), dtype=float)
        if np.any(lam <= 0):
            raise DegenerateMetric("conformal factor must be positive; "
                                   f"min value {float(np.min(lam)):.3e}")
        return lam

    def coefficients(self, x1, x2):
        A, B, C = coefficients(self.inner, x1, x2)
        lam = self.factor_at(x1, x2)
        return lam * A, lam * B, lam * C

    def jet(self, x1, x2):
        A, B, C, dA1, dA2, dB1, dB2, dC1, dC2 = coefficient_jet(self.inner,
                                                               x1, x2)
        lam = self.factor_at(x1, x2)
        (dl1,), (dl2,) = (_central(lambda a, b: (self.factor(a, b),), x1, x2,
                                   axis) for axis in (0, 1))
        return (lam * A, lam * B, lam * C,
                lam * dA1 + dl1 * A, lam * dA2 + dl2 * A,
                lam * dB1 + dl1 * B, lam * dB2 + dl2 * B,
                lam * dC1 + dl1 * C, lam * dC2 + dl2 * C)

    def frame(self, x1, x2):
        a1, a2, b1, b2 = frame_component_arrays(self.inner, x1, x2)
        root = np.sqrt(self.factor_at(x1, x2))
        return a1 / root, a2 / root, b1 / root, b2 / root


MetricSpec = _DiagonalMetric | _KillingMetric | ConformalRescale


def is_diagonal(spec) -> bool:
    return isinstance(spec, _DiagonalMetric)


def _family(spec) -> "MetricSpec":
    if not isinstance(spec, MetricSpec):
        raise WrongFamily(f"unknown metric family: {type(spec).__name__}")
    return spec


def _spread(shape, arrays):
    """Each array broadcast to ``shape``, as its own writeable copy."""
    return tuple(np.broadcast_to(a, shape).copy() for a in arrays)


def _central(f, x1, x2, axis: int):
    """Central differences along ``axis`` of every component of f(x1, x2).

    ``f`` returns a tuple of arrays and is evaluated once on each side.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if axis == 0:
        plus, minus = f(x1 + FD_STEP, x2), f(x1 - FD_STEP, x2)
    else:
        plus, minus = f(x1, x2 + FD_STEP), f(x1, x2 - FD_STEP)
    return tuple((np.asarray(p, dtype=float) - np.asarray(m, dtype=float))
                 / (2 * FD_STEP) for p, m in zip(plus, minus))


# ---------------------------------------------------------------------------
# coefficients


def coefficients(spec, x1, x2):
    """(A, B, C) arrays at broadcast points."""
    return _family(spec).coefficients(np.asarray(x1, dtype=float),
                                      np.asarray(x2, dtype=float))


def coefficient_jet(spec, x1, x2):
    """(A, B, C, A1, A2, B1, B2, C1, C2): the coefficients and their
    partials at the same points, where suffix i means d/dx_i."""
    return _family(spec).jet(np.asarray(x1, dtype=float),
                             np.asarray(x2, dtype=float))


def eval_metric(spec, p: Point) -> MetricEval:
    A, B, C = coefficients(spec, p[0], p[1])
    ev = MetricEval(float(A), float(B), float(C))
    if not ev.det < 0:
        raise DegenerateMetric(
            f"metric degenerate at {p}: A={ev.A:.6g} B={ev.B:.6g} C={ev.C:.6g}"
            f" det={ev.det:.6g}")
    return ev


# ---------------------------------------------------------------------------
# frames


def frame_component_arrays(spec, x1, x2):
    """Canonical frame components (a1, a2, b1, b2): s1 = a1 d1 + a2 d2, etc.

    Smooth, periodic, vectorized; the per-family conventions are in the
    module docstring.
    """
    return _family(spec).frame(np.asarray(x1, dtype=float),
                               np.asarray(x2, dtype=float))


def orthonormal_frame(spec, p: Point) -> Frame:
    a1, a2, b1, b2 = frame_component_arrays(spec, p[0], p[1])
    return Frame((float(a1), float(a2)), (float(b1), float(b2)))


def orientation(spec) -> int:
    """Orientation class of the canonical frame (+1 standard, -1 reversed)."""
    return orthonormal_frame(spec, (0.0, 0.0)).orientation


def null_directions(spec, p: Point):
    """(xdir, ydir) coordinate components of the two null directions at p."""
    return tuple(np.array([float(c) for c in null_direction_arrays(
        spec, p[0], p[1], family)]) for family in ("X", "Y"))


def null_direction_arrays(spec, x1, x2, family: str):
    """Vectorized coordinate components of the X or Y direction field."""
    spec = _family(spec)
    if family not in ("X", "Y"):
        raise ValueError(f"family must be 'X' or 'Y', got {family!r}")
    return spec.null_direction(np.asarray(x1, dtype=float),
                               np.asarray(x2, dtype=float), family)


# ---------------------------------------------------------------------------
# grids (cached per spec and shared between callers, hence read-only).  Equal
# specs share a cache entry, so a cached result may depend only on what spec
# equality compares: the dataclass fields of the spec and of its profiles.
#
# A spec of phase (k, l) is built on its phase line: sampled at the n grid
# points x = A (m/n, 0) mod 1, A = lattice_basis(k, l), where the phase
# k x1 + l x2 is m/n, and differentiated there by 1-D transforms (d1 = k v',
# d2 = l v'); point (i, j) of its grids, read-only strided views of no n^2
# copy, reads sample (k i + l j) mod n.  The closedness residual and the
# mean coefficients of a diagonal spec, and nullflow.FirstIntegral, read
# the same samples.  Only a spec without a phase
# (a conformal rescaling, whose factor has a phase of its own, or a generic
# Diagonal) is evaluated and differentiated on all n^2 points.


def _read_only(arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


class _PhaseLine:
    """The n samples of a spec of phase (k, l) along its phase line; the
    coefficients and the frame are evaluated when first read."""

    def __init__(self, spec, k: int, l: int, n: int):
        (a, _), (c, _) = lattice_basis(k, l)
        m = np.arange(n)
        self.spec, self.k, self.l, self.n = spec, k, l, n
        self.x1, self.x2 = (a * m % n) / n, (c * m % n) / n

    @cached_property
    def coefficients(self):
        return coefficients(self.spec, self.x1, self.x2)

    @cached_property
    def frame(self):
        return frame_component_arrays(self.spec, self.x1, self.x2)

    @cached_property
    def lambdas(self):
        """(lam1, lam2) of a diagonal spec."""
        return self.spec.lambdas(self.x1, self.x2)

    def partials(self, values):
        """(d1, d2) of line samples: k and l times their derivative."""
        d = spectral_derivative(values, 0)
        return self.k * d, self.l * d

    @cached_property
    def connection_form(self):
        return _spectral_connection_form(self.frame, self.coefficients,
                                         self.partials)

    @cached_property
    def log_det_partials(self):
        A, B, C = self.coefficients
        return self.partials(np.log(np.abs(A * C - B * B)))

    def divergence(self, v1, v2):
        """``divergence_grids`` of a field of the phase, on its samples."""
        (dld1, dld2), d = self.log_det_partials, self.partials
        return d(v1)[0] + d(v2)[1] + 0.5 * (v1 * dld1 + v2 * dld2)

    def class_means(self, values, step: int):
        """The means of line ``values`` along the grid axis that moves
        the sample index by ``step`` (k for x1, l for x2): one per residue
        class of the samples mod gcd(step, n), the class that axis sweeps
        (each sample its own class when step is 0)."""
        g = math.gcd(step, self.n)
        return values.reshape(self.n // g, g).mean(axis=0)

    def grid(self, values):
        """Each line array as a read-only n x n view, point (i, j) reading
        sample (k i + l j) mod n of |k| + |l| + 1 copies of the samples."""
        k, l, n = self.k, self.l, self.n
        start = n * (abs(min(k, 0)) + abs(min(l, 0)))
        return tuple(np.lib.stride_tricks.as_strided(
            np.tile(v, abs(k) + abs(l) + 1)[start:], (n, n),
            (k * v.itemsize, l * v.itemsize), writeable=False)
            for v in values)


@lru_cache(maxsize=64)
def _phase_line(spec, n: int) -> Optional[_PhaseLine]:
    """The phase line the grids of ``spec`` are built on, or None."""
    phase = (None if isinstance(_family(spec), ConformalRescale)
             else spec.phase())
    return None if phase is None else _PhaseLine(spec, *phase, n)


@dataclass(frozen=True, eq=False)
class PhaseFactors:
    """A grid field e^(2 pi i m.x) u(k x1 + l x2) in factored form: point
    (i, j) is col[i] row[j] profile[(k i + l j) mod n], (k, l) the phase
    of the spec it lives on.  col and row are multiples of the mode's
    exponentials e^(2 pi i m_a x) up to rounding (the row of a closed
    diagonal kernel field also carries its first integral's quadrature
    error); the profile u holds the n samples of the phase line (None: the
    constant 1).  The arrays are read-only."""

    mode: tuple[int, int]
    col: np.ndarray
    row: np.ndarray
    profile: Optional[np.ndarray] = None

    def __post_init__(self):
        _read_only([a for a in (self.col, self.row, self.profile)
                    if a is not None])

    def grid(self, spec) -> np.ndarray:
        """The read-only n x n values, the one place they are assembled:
        the profile's view times col along x1, times row along x2."""
        if self.profile is None:
            values = np.multiply.outer(self.col, self.row)
        else:
            [view] = _phase_line(spec, len(self.col)).grid((self.profile,))
            values = view * self.col[:, None]
            values *= self.row
        values.flags.writeable = False
        return values


@lru_cache(maxsize=64)
def coefficient_grids(spec, n: int):
    line = _phase_line(spec, n)
    if line is not None:
        return line.grid(line.coefficients)
    X1, X2 = grid_points(n)
    return _read_only(coefficients(spec, X1, X2))


@lru_cache(maxsize=64)
def frame_grids(spec, n: int):
    line = _phase_line(spec, n)
    if line is not None:
        return line.grid(line.frame)
    X1, X2 = grid_points(n)
    return _read_only(frame_component_arrays(spec, X1, X2))


def _christoffels(A, B, C, dA1, dA2, dB1, dB2, dC1, dC2):
    """Gamma^k_ij; Gamma^k_10 is Gamma^k_01 (the same array: the sum below
    is symmetric in i, j bit for bit)."""
    det = A * C - B * B
    inv00, inv01, inv11 = C / det, -B / det, A / det
    # dg[i][j][k] = d_k g_ij
    dg = {(0, 0): (dA1, dA2), (0, 1): (dB1, dB2),
          (1, 0): (dB1, dB2), (1, 1): (dC1, dC2)}
    inv = {(0, 0): inv00, (0, 1): inv01, (1, 0): inv01, (1, 1): inv11}
    gamma = {}
    for k in (0, 1):
        for i in (0, 1):
            for j in (0, 1):
                if j < i:
                    gamma[(k, i, j)] = gamma[(k, j, i)]
                    continue
                total = 0.0
                for m in (0, 1):
                    total = total + inv[(k, m)] * (
                        dg[(m, j)][i] + dg[(m, i)][j] - dg[(i, j)][m])
                gamma[(k, i, j)] = 0.5 * total
    return gamma


def christoffels_at(spec, x1, x2):
    """Pointwise Christoffel symbols via (analytic or central-diff) partials."""
    return _christoffels(*coefficient_jet(spec, x1, x2))


# ---------------------------------------------------------------------------
# connection scalar and divergence


def _connection_form(s1, ds1, s2, g, gam):
    """[Gamma_1, Gamma_2] with Gamma_i = g(d_i s1 + Gamma^k_ij s1^j, s2).

    ``ds1[i][k]`` is d_i of the k-th component of s1, ``g`` is (A, B, C)
    and ``gam`` the Christoffel symbols; pointwise and grid routes share it.
    """
    A, B, C = g
    g = {(0, 0): A, (0, 1): B, (1, 0): B, (1, 1): C}
    out = []
    for i in (0, 1):
        cov = [ds1[i][k] + sum(gam[(k, i, j)] * s1[j] for j in (0, 1))
               for k in (0, 1)]
        out.append(sum(g[(k, l)] * cov[k] * s2[l]
                       for k in (0, 1) for l in (0, 1)))
    return out


def _spectral_connection_form(frame, g, partials):
    """(Gamma_1, Gamma_2) from frame, g and their ``partials``."""
    a1, a2, b1, b2 = frame
    ds1 = tuple(zip(partials(a1), partials(a2)))
    gam = _christoffels(*g, *(d for c in g for d in partials(c)))
    return tuple(_connection_form((a1, a2), ds1, (b1, b2), g, gam))


@lru_cache(maxsize=64)
def connection_one_form_grids(spec, n: int):
    """(Gamma_1, Gamma_2) grids with Gamma(V) = V^1 Gamma_1 + V^2 Gamma_2.

    Gamma_i = g(nabla_{d_i} s1, s2) for the canonical frame; all derivatives
    spectral, on the phase line where the spec has one.  This is what the
    grid spinor operators consume.
    """
    line = _phase_line(spec, n)
    if line is not None:
        return line.grid(line.connection_form)
    return _read_only(_spectral_connection_form(
        frame_grids(spec, n), coefficient_grids(spec, n), spectral_derivatives))


def connection_along(spec, x1, x2, v1, v2):
    """Vectorized Gamma(V) at sample points (batched pointwise route).

    The frame partials are central differences: one frame evaluation at
    each of the four shifted points.
    """
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    jet = coefficient_jet(spec, x1, x2)
    g, gam = jet[:3], _christoffels(*jet)
    ds1 = tuple(_central(lambda a, b: frame_component_arrays(spec, a, b),
                         x1, x2, axis) for axis in (0, 1))
    a1, a2, b1, b2 = frame_component_arrays(spec, x1, x2)
    gamma_i = _connection_form((a1, a2), ds1, (b1, b2), g, gam)
    return v1 * gamma_i[0] + v2 * gamma_i[1]


def divergence(spec, V: VectorField, p: Point) -> float:
    """div V = d1 V^1 + d2 V^2 + (1/2) V(log |det g|) at p."""
    x1 = np.asarray(p[0], dtype=float)
    x2 = np.asarray(p[1], dtype=float)
    v1, v2 = V.at(x1, x2)
    dk1 = _central(V.at, x1, x2, 0)[0]
    dl2 = _central(V.at, x1, x2, 1)[1]
    A, B, C, dA1, dA2, dB1, dB2, dC1, dC2 = coefficient_jet(spec, x1, x2)
    det = A * C - B * B
    ddet1 = dA1 * C + A * dC1 - 2 * B * dB1
    ddet2 = dA2 * C + A * dC2 - 2 * B * dB2
    return float(dk1 + dl2 + 0.5 * (v1 * ddet1 + v2 * ddet2) / det)


def _log_det_partials(spec, n: int):
    """(d1, d2) of log |det g| on the n x n grid, spectrally (on the phase
    line where the spec has one)."""
    line = _phase_line(spec, n)
    if line is not None:
        return line.grid(line.log_det_partials)
    A, B, C = coefficient_grids(spec, n)
    return spectral_derivatives(np.log(np.abs(A * C - B * B)))


def divergence_grids(spec, v1_grid, v2_grid, n: int):
    """Spectral divergence of a grid vector field (same formula as above)."""
    dld1, dld2 = _log_det_partials(spec, n)
    return (spectral_derivative(v1_grid, 0) + spectral_derivative(v2_grid, 1)
            + 0.5 * (v1_grid * dld1 + v2_grid * dld2))


# ---------------------------------------------------------------------------
# closed diagonal structure


def closedness_residual(spec, n: Optional[int] = None,
                        family: str = "X") -> float:
    """sup |d2 lam1 + d1 lam2| (X) or sup |d2 lam1 - d1 lam2| (Y) on the grid.

    X is closed when the first vanishes, Y when the second does (the
    "anti-closed" sign); spectral derivatives on the n x n grid, or on the
    n samples of the phase line where the spec has one (every grid point
    takes one of them, and each is taken).
    """
    if not is_diagonal(spec):
        raise WrongFamily("closedness is defined for diagonal families only; "
                          f"got {type(spec).__name__}")
    if family not in ("X", "Y"):
        raise ValueError(f"family must be 'X' or 'Y', got {family!r}")
    return _closedness_residual(spec, n or spec.grid_n, family)


@lru_cache(maxsize=64)
def _closedness_residual(spec, n: int, family: str) -> float:
    line = _phase_line(spec, n)
    if line is None:
        l1, l2 = spec.lambdas(*grid_points(n))
        partials = spectral_derivatives
    else:
        (l1, l2), partials = line.lambdas, line.partials
    d2l1 = partials(l1)[1]
    d1l2 = partials(l2)[0]
    combo = d2l1 + d1l2 if family == "X" else d2l1 - d1l2
    return float(np.max(np.abs(combo)))


def is_closed_diagonal(spec, tol: Optional[Tolerances] = None,
                       family: str = "X") -> bool:
    """Diagonal with coefficients closed for the family (anti-closed for Y),
    measured on the grid of min(grid_n, 256) points a side (on its phase
    line of that many samples where the spec has one)."""
    tol = tol or DEFAULT
    if not is_diagonal(spec):
        return False
    if isinstance(spec, LeftInvariant):
        return True
    return closedness_residual(spec, min(spec.grid_n, 256),
                               family) < tol.closedness


def mean_coefficients(spec, tol: Optional[Tolerances] = None) -> tuple[float, float]:
    """(l1, l2): the x1-mean of lam1 and the x2-mean of lam2.

    For closed diagonal metrics these means are independent of the other
    variable (checked here); their ratio l1/l2 is the X-rotation number.
    The means are taken on the n x n grid, n = grid_n, or from the n
    samples of the phase line where the spec has one (a grid column (row)
    sweeps the samples of one residue class mod gcd(k, n) (gcd(l, n))):
    each is the correctly rounded sum of the samples over their count.
    """
    tol = tol or DEFAULT
    if not is_closed_diagonal(spec, tol):
        raise WrongFamily("mean_coefficients requires a closed diagonal metric")
    if isinstance(spec, LeftInvariant):
        return float(spec.lam1), float(spec.lam2)
    line = _phase_line(spec, spec.grid_n)
    if line is None:
        l1g, l2g = spec.lambdas(*grid_points(spec.grid_n))
        col_means = l1g.mean(axis=0)      # integral over x1 for each x2
        row_means = l2g.mean(axis=1)      # integral over x2 for each x1
    else:
        l1g, l2g = line.lambdas
        col_means = line.class_means(l1g, line.k)
        row_means = line.class_means(l2g, line.l)
    means = [math.fsum(v.ravel()) / v.size for v in (l1g, l2g)]
    spread1 = float(col_means.max() - col_means.min())
    spread2 = float(row_means.max() - row_means.min())
    if max(spread1, spread2) > 100 * tol.closedness:
        raise WrongFamily("mean coefficients vary across the torus: "
                          f"spreads ({spread1:.2e}, {spread2:.2e})")
    return float(means[0]), float(means[1])


def validate_spec(spec) -> None:
    """Raise DegenerateMetric/FrameUndefined if the family data is unusable
    on the grid of min(grid_n, 128) points a side."""
    n = min(spec.grid_n, 128)
    X1, X2 = grid_points(n)
    A, B, C = coefficients(spec, X1, X2)
    det = A * C - B * B
    if not np.all(det < 0):
        raise DegenerateMetric(
            f"det >= 0 somewhere on the grid (max {float(det.max()):.3e})")
    frame_component_arrays(spec, X1, X2)  # raises if the frame seed fails
