"""Half-spinor fields on the torus and the kernel solvers.

Fields are stored through their periodic representative: a complex grid h
with the actual section being eps_a * h * u_c (u_c the chiral basis spinor,
eps_a the spin-structure twist).  All derivatives on grids are spectral, and
an operator takes one derivative pair per nonzero half-spinor, along one
null direction: the Dirac operator is (D psi)^- = i nabla_X psi^+ and
(D psi)^+ = i nabla_Y psi^-, and the two frame components of the Penrose
operator are

    P_1 psi = (-1/2 nabla_Y psi^+, 1/2 nabla_X psi^-),
    P_2 psi = (+1/2 nabla_Y psi^+, 1/2 nabla_X psi^-).

Residuals (``residual_norm``) are sup norms on the grid.  A field in
factored form e^(2 pi i m.x) u(k x1 + l x2) (``geometry.PhaseFactors``: a
Fourier mode, a closed diagonal kernel phase on a metric of phase (k, l),
a pp-wave band bump, a profile in x1, or a twistor image of one) is checked
on the n samples of its phase line instead, from one 1-D derivative of u,
as an upper bound of the n x n spectral residual that lies within the
resonance level of it; where the grid would alias u's modes beyond that
level, and for every other field, the grid decides.  Such a field
assembles its n x n values only when they are read, and its sup norm is
the product of its factors' maxima.

Exact solvers:

* ``solve_left_invariant`` reduces the transport equation to a Diophantine
  condition on Fourier modes (the connection form vanishes identically for
  constant coefficients).
* ``solve_closed_diagonal`` builds the phase family exp(2 pi i alpha F) from
  the first integral F of the X-lines (``nullflow.FirstIntegral``: on a
  metric with a phase, factored into x1 and x2 exponentials and n-point
  exponentials of its phase line, read as n x n grids through read-only
  views); the alphas exist when the structure's character on the winding
  of the closed null lines is +1.
* ``construct_resonant_spinors`` produces bump-localized kernel elements
  with pairwise disjoint supports on resonant cylinders (first-integral
  bump trains for closed diagonal metrics, vertical-band bumps for the
  pp-wave family, whose band line's holonomy ``spin.holonomy_table`` reads
  from the phase record, conformal pushforward through a rescaling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Optional, Union

import numpy as np

from . import geometry, nullflow, spin
from .errors import (DenseFlow, NotHarmonic, NotXTrivial, UnsupportedFamily,
                     WrongFamily)
from .gridtools import (_axis_derivative, grid_points, mollifier,
                        spectral_derivative, torus_delta, wrap_unit)
from .spin import SpinStructure
from .tolerances import DEFAULT, Tolerances


# ---------------------------------------------------------------------------
# field containers


@dataclass(eq=False)
class HalfSpinorField:
    """Chiral half of a spinor field, stored as its periodic representative.

    ``chirality`` +1 means the section is eps_a * values * u1 (positive
    chiral line, the one annihilated by gamma(X)), -1 the u2 line.
    ``values`` lives on the uniform n x n grid with x_i = j/n.  Given a
    ``geometry.PhaseFactors`` instead (the exact solvers' fields and the
    pp-wave's band bumps), the field keeps it as ``factors``, and its
    values are the factors' read-only grid, assembled on their first read;
    neither can be reassigned, so the two cannot disagree.  The grid size,
    the sup norm and the phase-line residual read the factors alone, and
    so do ``repr`` (no values) and ``==`` (identity).
    """

    spec: object
    structure: SpinStructure
    chirality: int
    values: Union[np.ndarray, geometry.PhaseFactors] = field(repr=False)
    meta: dict = field(default_factory=dict)
    factors: Optional[geometry.PhaseFactors] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.chirality not in (-1, 1):
            raise ValueError("chirality must be +1 or -1")
        if isinstance(self.values, geometry.PhaseFactors):
            object.__setattr__(self, "factors", self.values)
            del self.__dict__["values"]     # assembled by __getattr__
        else:
            self.values = np.asarray(self.values, dtype=complex)

    def __getattr__(self, name):
        """The factors' grid, on the first read of ``values``."""
        factors = self.__dict__.get("factors")
        if name != "values" or factors is None:
            raise AttributeError(name)
        self.__dict__["values"] = factors.grid(self.spec)
        return self.__dict__["values"]

    def __setattr__(self, name, value):
        if name == "factors" and "factors" in self.__dict__ or (
                name == "values" and self.__dict__.get("factors") is not None):
            raise AttributeError(f"a field's {name} are fixed by its factors")
        super().__setattr__(name, value)

    @property
    def grid_n(self) -> int:
        if self.factors is not None:
            return len(self.factors.col)
        return self.values.shape[0]

    def sup_norm(self) -> float:
        """max |values|; of a factored field max|u| max|col| max|row|,
        from the n samples of each (within a few ulps of the grid's)."""
        factors = self.factors
        if factors is None:
            return float(np.max(np.abs(self.values)))
        u = 1.0 if factors.profile is None else np.max(np.abs(factors.profile))
        return float(u * np.max(np.abs(factors.col))
                     * np.max(np.abs(factors.row)))

    def times(self, w: np.ndarray, chirality: int) -> "HalfSpinorField":
        """This field times w (n x n values, or the n samples of a function
        of the phase on the spec's phase line, which joins a factored
        field's profile), with ``chirality`` and a copy of its meta."""
        factors = self.factors
        if w.ndim == 1 and factors is not None:
            values = geometry.PhaseFactors(
                factors.mode, factors.col, factors.row,
                w if factors.profile is None else factors.profile * w)
        else:
            values = self.values * (w if w.ndim == 2 else geometry._phase_line(
                self.spec, self.grid_n).grid((w,))[0])
        return HalfSpinorField(self.spec, self.structure, chirality, values,
                               meta=dict(self.meta))

    def overlap(self, other: "HalfSpinorField") -> float:
        """max |self other| over the grid of two fields with factored
        profiles u, u' (the pp-wave bumps): max|u u'| max|col col'|
        max|row row'|, exact where |col| and |row| are constant (the bumps'
        are 1), an upper bound otherwise."""
        f, g = self.factors, other.factors
        return float(np.max(np.abs(f.profile) * np.abs(g.profile))
                     * np.max(np.abs(f.col * g.col))
                     * np.max(np.abs(f.row * g.row)))


@dataclass
class SpinorField:
    """Full spinor field: positive (u1) and negative (u2) halves."""

    positive: HalfSpinorField
    negative: HalfSpinorField

    def __post_init__(self):
        if self.negative.chirality != -1 or self.positive.chirality != 1:
            raise ValueError("components attached to the wrong chiral lines")
        if self.negative.grid_n != self.positive.grid_n:
            raise ValueError("component grids disagree")

    @property
    def spec(self):
        return self.positive.spec

    @property
    def structure(self) -> SpinStructure:
        return self.positive.structure

    @property
    def grid_n(self) -> int:
        return self.positive.grid_n

    def component_grids(self) -> np.ndarray:
        """(2, n, n) array ordered (positive, negative) = (u1, u2) rows."""
        return np.stack([self.positive.values, self.negative.values])


def constant_field(spec, structure: SpinStructure, chirality: int = 1,
                   value: complex = 1.0, grid_n: int = 64) -> HalfSpinorField:
    vals = np.full((grid_n, grid_n), value, dtype=complex)
    return HalfSpinorField(spec, structure, chirality, vals,
                           meta={"kind": "constant"})


def fourier_mode_field(spec, structure: SpinStructure, mode: tuple[int, int],
                       chirality: int = 1, grid_n: int = 64) -> HalfSpinorField:
    """The Fourier mode e^(2 pi i (k x1 + l x2)), factored into its x1 and
    x2 exponentials (the profile is the constant 1)."""
    k, l = mode
    x = np.arange(grid_n) / grid_n
    factors = geometry.PhaseFactors((k, l), np.exp(2j * np.pi * k * x),
                                    np.exp(2j * np.pi * l * x))
    return HalfSpinorField(spec, structure, chirality, factors,
                           meta={"kind": "mode", "mode": (k, l)})


def zero_like(f: HalfSpinorField, chirality: Optional[int] = None
              ) -> HalfSpinorField:
    return HalfSpinorField(f.spec, f.structure,
                           chirality if chirality is not None else f.chirality,
                           np.zeros((f.grid_n, f.grid_n), complex))


def embed(f: HalfSpinorField) -> SpinorField:
    """Pad a half-spinor with a zero opposite component."""
    if f.chirality == 1:
        return SpinorField(negative=zero_like(f, -1), positive=f)
    return SpinorField(negative=f, positive=zero_like(f, 1))


# ---------------------------------------------------------------------------
# covariant operators on grids


@lru_cache(maxsize=16)
def _transport_operator(spec, structure: SpinStructure, chirality: int,
                        direction: str, n: int):
    """nabla_V on the n x n grid, as the read-only (v1, v2, potential) of
    V's components and chirality/2 Gamma(V) + omega_a(V), and the same
    three on the n samples of the spec's phase line (None without one),
    which the grids then read through views."""
    line = geometry._phase_line(spec, n)
    if line is None:
        a1, a2, b1, b2 = geometry.frame_grids(spec, n)
        G1, G2 = geometry.connection_one_form_grids(spec, n)
    else:
        (a1, a2, b1, b2), (G1, G2) = line.frame, line.connection_form
    if direction == "X":
        v1, v2 = a1 + b1, a2 + b2
    elif direction == "Y":
        v1, v2 = -a1 + b1, -a2 + b2
    else:               # 's1' or 's2' (nabla_along checks the name)
        v1, v2 = (a1, a2) if direction == "s1" else (b1, b2)
    potential = (0.5 * chirality * (v1 * G1 + v2 * G2)
                 + structure.twist_form(v1, v2))
    ops = geometry._read_only((v1, v2, potential))
    return (ops, None) if line is None else (line.grid(ops), ops)


def _nabla(f: HalfSpinorField, direction: str) -> np.ndarray:
    """Values of nabla_V f along the named direction V from one spectral
    derivative pair; f's own values (not a copy: the callers only read
    them) when f is identically zero.

    Acts on the periodic representative as dh(V) + (chirality/2 * Gamma(V)
    + omega_a(V)) h, updated in the derivatives' own buffers.  One scan
    finds a constant field (the zero field among them), whose derivatives
    are exact zeros: its nabla is the potential times h.
    """
    h = f.values
    constant = np.all(h[0] == h.flat[0]) and np.all(h == h.flat[0])
    if constant and not h.flat[0]:
        return h
    (v1, v2, potential), _ = _transport_operator(
        f.spec, f.structure, f.chirality, direction, f.grid_n)
    if constant:
        return potential * h
    d1, d2 = _axis_derivative(h, 0), _axis_derivative(h, 1)
    d1 *= v1
    d1 += np.multiply(v2, d2, out=d2)
    d1 += np.multiply(potential, h, out=d2)
    return d1


def nabla_along(f: HalfSpinorField, direction: str) -> HalfSpinorField:
    """Covariant derivative of the half-spinor along a frame or null field
    ('X', 'Y', 's1' or 's2')."""
    if direction not in ("X", "Y", "s1", "s2"):
        raise ValueError(f"unknown direction {direction!r}")
    return HalfSpinorField(f.spec, f.structure, f.chirality,
                           _nabla(f, direction))


def _own_family(f: HalfSpinorField) -> str:
    """The null family whose transport is f's harmonic equation."""
    return "X" if f.chirality == 1 else "Y"


def dirac_apply(phi: Union[SpinorField, HalfSpinorField]) -> SpinorField:
    """Dirac operator D = -gamma(s1) nabla_1 + gamma(s2) nabla_2.

    In chiral components: (D phi)^- = i nabla_X phi^+ and
    (D phi)^+ = i nabla_Y phi^-, so the positive kernel is exactly the
    X-parallel line and the negative kernel the Y-parallel one.
    """
    psi = embed(phi) if isinstance(phi, HalfSpinorField) else phi
    # both derivatives before either output: the first one may build the
    # cached connection grids, the memory peak, with no output alive
    dx, dy = (_nabla(half, _own_family(half))
              for half in (psi.positive, psi.negative))
    return SpinorField(
        negative=HalfSpinorField(psi.spec, psi.structure, -1, dx * 1j),
        positive=HalfSpinorField(psi.spec, psi.structure, 1, dy * 1j))


def twistor_apply(phi: Union[SpinorField, HalfSpinorField]
                  ) -> tuple[SpinorField, SpinorField]:
    """Both frame components of the Penrose operator.

    P_i phi = nabla_{s_i} phi + 1/2 gamma(s_i) D phi (the gamma-trace-free
    part of nabla).  With gamma(s1) = [[0, i], [-i, 0]], gamma(s2) =
    [[0, i], [i, 0]] and D as in ``dirac_apply``, in (positive, negative)
    components

        P_1 psi = (-1/2 nabla_Y psi^+, 1/2 nabla_X psi^-),
        P_2 psi = (+1/2 nabla_Y psi^+, 1/2 nabla_X psi^-),

    so each half takes one covariant derivative, and a half-spinor of
    chirality c is in the twistor kernel exactly when its transport along
    the chirality's *opposite* null family vanishes (X for negative, Y for
    positive).
    """
    psi = embed(phi) if isinstance(phi, HalfSpinorField) else phi
    dy, dx = (0.5 * _nabla(psi.positive, "Y"),
              0.5 * _nabla(psi.negative, "X"))
    return tuple(SpinorField(
        positive=HalfSpinorField(psi.spec, psi.structure, 1, plus),
        negative=HalfSpinorField(psi.spec, psi.structure, -1, minus))
        for plus, minus in ((-dy, dx), (dy, dx.copy())))


def residual_norm(phi: Union[SpinorField, HalfSpinorField],
                  operator: str = "harmonic") -> float:
    """Sup norm of the field's defect under the named equation.

    transport: plain nabla along the chirality's own null family (X for
    positive, Y for negative); harmonic: Dirac kernel residual, which is the
    same number because (D phi)^- = i nabla_X phi^+, (D phi)^+ = i nabla_Y
    phi^- and |i z| = |z|; twistor: Penrose kernel residual (max over the
    two frame components), read off ``twistor_apply``'s formulas as
    1/2 |nabla_Y psi^+| and 1/2 |nabla_X psi^-|: the components differ
    only in a sign, and halving is exact.

    A half with ``factors`` (the exact solvers' fields, the pp-wave's band
    bumps and their twistor images) on a spec with a phase line is read on
    that line (``_line_residual``), with no n x n grid: the n samples of
    its defect from one 1-D derivative, plus the factors' deviation from
    exact mode exponentials, the modes the grid's band aliases and the
    grid transform's rounding.  That is an upper bound of the n x n
    spectral residual, taken only where the aliased modes stay below the
    resonance level, so it lies within that level (and rounding) above it.
    Any other half (closed-diagonal bumps, images without factors, fields
    the grid aliases, specs without a phase line) is read on the n x n
    grid from one 2-D derivative pair (``_plane_residual``).
    """
    return _residual_norm(phi, operator, _half_residual)


def _residual_norm(phi, operator: str, half_residual) -> float:
    """``residual_norm`` with each half's sup |nabla_V h| read by
    ``half_residual(h, direction)``."""
    halves = ((phi,) if isinstance(phi, HalfSpinorField)
              else (phi.positive, phi.negative))
    if operator == "twistor":
        scale, family = 0.5, lambda h: "Y" if h.chirality == 1 else "X"
    elif operator in ("harmonic", "transport"):
        scale, family = 1.0, _own_family
    else:
        raise ValueError(f"unknown operator {operator!r}")
    return max(scale * half_residual(h, family(h)) for h in halves)


def _half_residual(h: HalfSpinorField, direction: str) -> float:
    line = _line_residual(h, direction)
    return _plane_residual(h, direction) if line is None else line


def _plane_residual(h: HalfSpinorField, direction: str) -> float:
    """sup |nabla_V h| over the n x n grid (the 2-D route)."""
    return float(np.max(np.abs(_nabla(h, direction))))


def _line_residual(h: HalfSpinorField, direction: str) -> Optional[float]:
    """sup |nabla_V h| of a factored field e^(2 pi i m.x) u(k x1 + l x2)
    read on its spec's phase line, as an upper bound of the grid's
    spectral residual, or None where the grid must decide.

    V and the potential P are functions of the phase, so nabla_V of the
    exact product is e^(2 pi i m.x) ((k V1 + l V2) u' + (2 pi i m.V + P) u),
    whose sup L over the grid is its sup over the n samples (point (i, j)
    reads sample (k i + l j) mod n, and gcd(k, l) = 1 reaches them all).
    With S_a = sup |V_a u| over the samples, the bound is

        |c0 r0| ((1+|g|)(1+|r|) L + (1+|r|) |g'| S1 + (1+|g|) |r'| S2
                 + A + eps log2(n) pi n (S1 + S2)):

    * the factors are c0 e^(2 pi i m1 x1) (1 + g) and r0 e^(2 pi i m2 x2)
      (1 + r), g and r their measured deviations (rounding; in a kernel
      field's row, its first integral's quadrature error), g' and r' their
      1-D spectral derivatives;
    * A = 2 pi sum_s |u_s| (|d1_s| sup|V1| + |d2_s| sup|V2|) is what the
      grid's band changes: on the grid, mode s of u has the wavenumbers
      m_a + (k, l)_a s, each differentiated at its representative in the
      band (0 at the Nyquist wavenumber), d_a_s apart from the multiplier
      the line's 1-D derivative gives it;
    * the last term is the rounding of the grid's transform pair, eps
      log2(n) times the band's largest derivative, pi n.
    The line answers only where A is below the resonance level of max|u|,
    so that the grid's residual lies within that (and rounding) of it.
    """
    factors, n = h.factors, h.grid_n
    if factors is None:
        return None
    _, samples = _transport_operator(h.spec, h.structure, h.chirality,
                                     direction, n)
    if samples is None:
        return None

    def sup(a):
        return float(np.max(np.abs(a)))

    def band(w):
        w = (w + n // 2) % n - n // 2
        return np.where(2 * w == -n, 0, w)

    line = geometry._phase_line(h.spec, n)
    (m1, m2), u, (k, l) = factors.mode, factors.profile, (line.k, line.l)
    if u is None:
        u = np.ones(n, complex)
    v1, v2, potential = samples
    s = np.fft.fftfreq(n, 1.0 / n)
    alias = 2 * np.pi * float(np.sum(np.abs(np.fft.fft(u)) / n * (
        np.abs(m1 + k * band(s) - band(m1 + k * s)) * sup(v1)
        + np.abs(m2 + l * band(s) - band(m2 + l * s)) * sup(v2))))
    if alias > DEFAULT.resonance * sup(u):
        return None
    x, deviations = np.arange(n) / n, []
    for factor, m in ((factors.col, m1), (factors.row, m2)):
        exact = factor[0] * np.exp(2j * np.pi * m * x)
        deviation = (factor - exact) / exact
        deviations += [sup(deviation), sup(spectral_derivative(deviation, 0))]
    g, dg, r, dr = deviations
    defect = ((k * v1 + l * v2) * spectral_derivative(u, 0)
              + (2j * np.pi * (m1 * v1 + m2 * v2) + potential) * u)
    s1, s2 = sup(v1 * u), sup(v2 * u)
    rounding = np.finfo(float).eps * np.log2(n) * np.pi * n * (s1 + s2)
    bound = ((1 + g) * (1 + r) * sup(defect) + (1 + r) * dg * s1
             + (1 + g) * dr * s2 + alias + rounding)
    return float(abs(factors.col[0]) * abs(factors.row[0]) * bound)


# ---------------------------------------------------------------------------
# left-invariant solver (Fourier / Diophantine)


@dataclass(frozen=True)
class LatticeLine:
    """Solution set {base + t * direction, t integer} in the mode lattice."""
    base: tuple[int, int]
    direction: tuple[int, int]

    def mode(self, t: int) -> tuple[int, int]:
        return (self.base[0] + t * self.direction[0],
                self.base[1] + t * self.direction[1])


@dataclass(frozen=True)
class HarmonicSolution:
    structure: SpinStructure
    family: str
    chirality: int
    count_class: str                       # "Zero" | "One" | "Infinite"
    ratio: Optional[Fraction]              # lam1/lam2 when rational
    exact: bool                            # ratio obtained without rounding
    congruence_obstructed: bool
    modes: tuple[tuple[int, int], ...]
    lattice: Optional[LatticeLine]
    fields: tuple[HalfSpinorField, ...]


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def solve_left_invariant(spec, structure: SpinStructure, family: str = "X",
                         chirality: int = 1, n_fields: int = 4,
                         grid_n: Optional[int] = None,
                         tol: Tolerances = DEFAULT) -> HarmonicSolution:
    """Kernel of the null transport equation for constant coefficients.

    The connection form vanishes, so the Fourier mode (k, l) is parallel
    along the family exactly when

        (4k + 1 - a1) * lam2  +-  (4l + 1 - a2) * lam1 = 0

    (+ for the X family, - for Y).  With lam1/lam2 = p/q in lowest terms the
    condition is solvable iff the structure's character on the closed-line
    winding (q, p) is +1 (then q(1-a1) +- p(1-a2) = 0 mod 4); the solutions
    fill an affine line in the mode lattice (infinite dimension).  An
    irrational ratio admits only the constant section of the trivial
    structure.  Fields live on the spec's ``grid_n`` unless one is given.
    """
    if not isinstance(spec, geometry.LeftInvariant):
        raise WrongFamily("solve_left_invariant needs a LeftInvariant metric; "
                          f"got {type(spec).__name__}")
    if family not in ("X", "Y"):
        raise ValueError(f"family must be 'X' or 'Y', got {family!r}")
    grid_n = grid_n or spec.grid_n
    ratio = spec.exact_ratio()
    exact = ratio is not None
    if not exact:
        cert = nullflow.best_rational(float(spec.lam1) / float(spec.lam2),
                                      tol.rational_cap,
                                      tol.rational_residual_solver)
        ratio = None if cert is None else Fraction(cert.p, cert.q)
    if ratio is None:
        if structure.trivial:
            fields = (fourier_mode_field(spec, structure, (0, 0), chirality,
                                         grid_n),)
            return HarmonicSolution(structure, family, chirality, "One",
                                    None, False, False, ((0, 0),), None,
                                    fields)
        return HarmonicSolution(structure, family, chirality, "Zero",
                                None, False, False, (), None, ())

    p, q = ratio.numerator, ratio.denominator
    if structure.character((q, p)) == -1:
        return HarmonicSolution(structure, family, chirality, "Zero",
                                ratio, exact, True, (), None, ())
    sign = 1 if family == "X" else -1
    m = ((1 - structure.a1) * q + sign * (1 - structure.a2) * p) // 4
    # solve k*q + sign*l*p = -m on the integer lattice
    g, u, v = _egcd(q, sign * p)
    assert g == 1
    base = (-m * u, -m * v)
    direction = (sign * p, -q)
    lattice = LatticeLine(base, direction)
    # center the enumeration on the smallest modes
    ts = sorted(range(-2 * n_fields, 2 * n_fields + 1),
                key=lambda t: max(abs(lattice.mode(t)[0]),
                                  abs(lattice.mode(t)[1])))
    modes = tuple(lattice.mode(t) for t in ts[:max(n_fields, 8)])
    fields = tuple(fourier_mode_field(spec, structure, mode, chirality, grid_n)
                   for mode in modes[:n_fields]
                   if max(abs(mode[0]), abs(mode[1])) < grid_n // 2)
    return HarmonicSolution(structure, family, chirality, "Infinite",
                            ratio, exact, False, modes, lattice, fields)


# ---------------------------------------------------------------------------
# closed diagonal solver (phase family of the first integral)


@dataclass(frozen=True)
class ClosedDiagonalSolution:
    structure: SpinStructure
    chirality: int
    l1: float
    l2: float
    ratio: Optional[nullflow.RationalCertificate]
    solvable: bool
    congruence_obstructed: bool
    t_parity: Optional[int]
    alphas: tuple[float, ...]
    count_class: str
    fields: tuple[HalfSpinorField, ...]


def solve_closed_diagonal(spec, structure: SpinStructure, chirality: int = 1,
                          n_fields: int = 2, grid_n: Optional[int] = None,
                          tol: Tolerances = DEFAULT) -> ClosedDiagonalSolution:
    """Kernel of the X-transport equation on a closed diagonal metric.

    Kernel elements are the phases exp(2 pi i alpha F), F the first
    integral ``nullflow.FirstIntegral`` on the field grid (its
    ``phase_fields``, factored on a phase line): F is
    constant along the X-lines, and alpha must make the phase equivariant
    for the structure.  With the closed-line rotation l1/l2 = p/q the
    admissible alphas are (t + 2Z) p / (2 l1), the parity t being 0 for the
    trivial structure and 1 otherwise; none exists exactly when the
    structure's character on the winding (q, p) is -1.
    """
    n = grid_n or spec.grid_n
    l1, l2 = geometry.mean_coefficients(spec, tol)  # WrongFamily if not closed
    cert = nullflow.best_rational(l1 / l2, tol.rational_cap,
                                  tol.rational_residual_solver)
    if cert is None:
        if structure.trivial:
            fields = (constant_field(spec, structure, chirality, 1.0, n),)
            return ClosedDiagonalSolution(structure, chirality, l1, l2, None,
                                          True, False, None, (0.0,), "One",
                                          fields)
        return ClosedDiagonalSolution(structure, chirality, l1, l2, None,
                                      False, False, None, (), "Zero", ())
    p, q = cert.p, cert.q
    if structure.character((q, p)) == -1:
        return ClosedDiagonalSolution(structure, chirality, l1, l2, cert,
                                      False, True, None, (), "Zero", ())
    t = 0 if structure.trivial else 1
    ss = sorted(range(-8, 9), key=abs)[:8]      # the eight smallest |s|
    alphas = tuple((t + 2 * s) * p / (2 * l1) for s in ss)
    fields = ()
    if alphas[:n_fields]:
        phases = nullflow.first_integral_function(spec, n, tol).phase_fields(
            alphas[:n_fields], structure)
        fields = tuple(HalfSpinorField(spec, structure, chirality, values,
                                       meta={"alpha": alpha})
                       for alpha, values in zip(alphas, phases))
    return ClosedDiagonalSolution(structure, chirality, l1, l2, cert, True,
                                  False, t, alphas, "Infinite", fields)


def exact_solver(spec, tol: Tolerances = DEFAULT, family: str = "X"
                 ) -> Optional[Callable]:
    """The exact kernel solver for ``spec`` and the family, or None.

    ``solve_left_invariant`` for constant coefficients (either family) and
    ``solve_closed_diagonal`` for closed diagonal ones (X only); the solver
    accepts ``(spec, structure, chirality=, n_fields=, tol=)``.
    """
    if isinstance(spec, geometry.LeftInvariant):
        return partial(solve_left_invariant, family=family)
    if family == "X" and geometry.is_closed_diagonal(spec, tol):
        return solve_closed_diagonal
    return None


# ---------------------------------------------------------------------------
# conformal rescaling of kernel fields


def conformal_map_spinor(f: HalfSpinorField, target, kind: str = "harmonic"
                         ) -> HalfSpinorField:
    """Move a kernel field through a conformal rescaling.

    For target metric lambda * g the Dirac kernel maps by lambda^(-1/4) and
    the twistor kernel by lambda^(+1/4); the map also works backwards (from
    the rescaled metric down to its base).  The image holds n x n values,
    its weight read from the factor's phase line (``_conformal_weight``).
    """
    if kind == "harmonic":
        exponent = -0.25
    elif kind == "twistor":
        exponent = 0.25
    else:
        raise ValueError(f"kind must be 'harmonic' or 'twistor', got {kind!r}")
    if isinstance(target, geometry.ConformalRescale) and target.inner == f.spec:
        rescaling, power = target, exponent
    elif isinstance(f.spec, geometry.ConformalRescale) and f.spec.inner == target:
        rescaling, power = f.spec, -exponent
    else:
        raise WrongFamily("target must be a conformal rescale of the field's "
                          "metric (or vice versa)")
    vals = _conformal_weight(rescaling, f.grid_n, power) * f.values
    out = HalfSpinorField(target, f.structure, f.chirality, vals,
                          meta=dict(f.meta))
    out.meta["conformal_weight"] = power
    return out


@lru_cache(maxsize=4)
def _conformal_weight(rescaling, n: int, power: float) -> np.ndarray:
    """The read-only lambda^power of a rescaling on the n x n grid, from
    the n samples of its factor's phase line (n^2 with no phase)."""
    lam, line = rescaling.factor_samples(n)
    [weight] = (geometry._read_only([np.broadcast_to(lam, (n, n)) ** power])
                if line is None else line.grid((lam ** power,)))
    return weight


# ---------------------------------------------------------------------------
# localized kernel fields on resonant cylinders


def _closed_diagonal_bumps(spec, structure: SpinStructure, count: int,
                           grid_n: int, tol: Tolerances
                           ) -> tuple[HalfSpinorField, ...]:
    l1, l2 = geometry.mean_coefficients(spec, tol)
    cert = nullflow.best_rational(l1 / l2, tol.rational_cap,
                                  tol.rational_residual_solver)
    if cert is None:
        raise DenseFlow(f"X-lines are dense (rotation {l1 / l2:.9f} has no "
                        f"rational certificate); no resonant cylinder exists")
    if nullflow._lattice_flow(spec, "X", tol) is not None:
        # the line's certificate is along the transversal axis: l2/l1 where
        # the X-lines are steep, not the slope's l1/l2
        rotation = nullflow._verifiable(
            nullflow.rotation_number(spec, "X", tol), tol)
        [table] = spin.holonomy_table(spec, "X", [0.0], rotation, tol)
        hol = table[(structure.a1, structure.a2)]
    else:   # a hand-built closed metric with no phase: march its one line
        record = nullflow.integrate_null_line(spec, (0.0, 0.0), "X",
                                              t_max=float(cert.q), tol=tol)
        hol = spin.holonomy_closed_line(spec, record, structure, tol=tol)
    if not hol.x_trivial:
        raise NotXTrivial(
            f"closed X-lines of winding {hol.winding} carry character "
            f"{hol.character} and boost {hol.boost:.3e} for structure "
            f"{structure.label}; transport admits no periodic solution")
    p, q = cert.p, cert.q
    g = l1 / p                       # first-integral shift of one line lattice
    D = abs(g)
    _, u, v = _egcd(p, q)            # u*p + v*q = 1
    psi = structure.character((u, v))
    F = nullflow.first_integral_function(spec, grid_n, tol).grid()
    x = np.arange(grid_n) / grid_n
    conj_twist = 1.0 if structure.trivial else np.multiply.outer(
        np.conj(structure.twist(x, 0.0)), np.conj(structure.twist(0.0, x)))
    width = 0.4 * D / count
    fields = []
    for j in range(count):
        center = (j + 0.5) * D / count
        steps = (F - center) / D
        nearest = np.round(steps)
        arg = (steps - nearest) * D / width
        signs = np.where(nearest.astype(int) % 2 == 0, 1.0, float(psi))
        vals = conj_twist * signs * mollifier(arg)
        fields.append(HalfSpinorField(
            spec, structure, 1, vals,
            meta={"kind": "first-integral-bump", "center": center,
                  "width": width, "lattice_step": D, "lattice_sign": psi}))
    return tuple(fields)


def _vertical_band(spec, tol: Tolerances) -> tuple[float, float]:
    """Widest run of zeros of the X phase velocity (tau = 0; the basis is
    the identity, so the run is in x1), as (lo, hi) with hi possibly > 1."""
    runs = nullflow.phase_zeros(spec, "X", tol).runs
    if not runs:
        raise UnsupportedFamily(
            "tau vanishes nowhere on the sampling grid; the vertical-band "
            "construction needs an interval of zeros")
    lo, hi = max(runs, key=lambda r: r[1] - r[0])
    if hi - lo < 16 / 4096:
        raise UnsupportedFamily(
            f"widest zero arc of tau has width {hi - lo:.4f}; too narrow "
            "for localized sections")
    return lo, hi


def _rosatau_bumps(spec, structure: SpinStructure, count: int, grid_n: int,
                   tol: Tolerances) -> tuple[HalfSpinorField, ...]:
    lo, hi = _vertical_band(spec, tol)
    mid = wrap_unit(0.5 * (lo + hi))
    # tau vanishes on the band, so the X-line through mid is vertical: the
    # lattice flow's closed line of rotation 0/1 (the vertical branch)
    [table] = spin.holonomy_table(
        spec, "X", [float(mid)], nullflow.RationalCertificate(0, 1, 0.0), tol)
    hol = table[(structure.a1, structure.a2)]
    if not hol.x_trivial:
        raise NotXTrivial(
            f"vertical closed lines (winding {hol.winding}) carry character "
            f"{hol.character} for structure {structure.label}; transport "
            "admits no periodic solution")
    usable = (hi - lo) * 0.9
    base = lo + 0.05 * (hi - lo)
    width = 0.4 * usable / count
    # the bumps depend on x1 alone, the spec's phase: factored as a profile
    # on the n samples of its phase line (x1 = m/n)
    x1, ones = geometry._phase_line(spec, grid_n).x1, np.ones(grid_n)
    fields = []
    for j in range(count):
        center = wrap_unit(base + (j + 0.5) * usable / count)
        bump = mollifier(torus_delta(x1, center) / width).astype(complex)
        fields.append(HalfSpinorField(
            spec, structure, 1,
            geometry.PhaseFactors((0, 0), ones, ones, bump),
            meta={"kind": "vertical-band-bump", "center": float(center),
                  "width": width, "band": (lo, hi)}))
    return tuple(fields)


def construct_resonant_spinors(spec, structure: SpinStructure, count: int = 2,
                               grid_n: int = 512, tol: Tolerances = DEFAULT
                               ) -> tuple[HalfSpinorField, ...]:
    """Positive harmonic fields localized on resonant X-cylinders.

    Returns ``count`` kernel elements with pairwise disjoint supports —
    witnesses that the kernel dimension is infinite.  Requires closed
    X-lines whose spin transport is trivial for the structure
    (NotXTrivial otherwise).  Supported: closed diagonal coefficients
    (bump trains in the first integral, n x n grids), the pp-wave family
    (bumps across the vertical band where tau vanishes, functions of x1
    alone: factored, so their residual and sup norm read n samples), and
    conformal rescalings of either (pushforward with weight
    lambda^(-1/4), n x n grids).
    """
    if count < 1:
        raise ValueError("count must be positive")
    if isinstance(spec, geometry.ConformalRescale):
        inner = construct_resonant_spinors(spec.inner, structure, count,
                                           grid_n, tol)
        return tuple(conformal_map_spinor(f, spec, kind="harmonic")
                     for f in inner)
    if isinstance(spec, geometry.RosaTau):
        return _rosatau_bumps(spec, structure, count, grid_n, tol)
    if geometry.is_closed_diagonal(spec, tol):
        return _closed_diagonal_bumps(spec, structure, count, grid_n, tol)
    raise UnsupportedFamily(
        "localized resonant sections are implemented for closed diagonal "
        "coefficients, the pp-wave family, and conformal rescalings of "
        f"those; got {type(spec).__name__}")


# ---------------------------------------------------------------------------
# harmonic <-> twistor correspondence


def harmonic_twistor_iso(f: HalfSpinorField, certificate=None,
                         tol: Tolerances = DEFAULT) -> HalfSpinorField:
    """The kernel isomorphism between positive-harmonic and negative-twistor.

    Both kernels are cut out by transport along the X-family; they are
    exchanged by h -> -h / w (and its inverse h -> -w h), where w is the
    coefficient of a divergence-free section V = w X from the X-family's
    semi-conformal-flatness certificate, read at the n samples of the
    spec's phase line (a factored input has a factored image), or on the n
    x n grid without one.  Raises WrongFamily for a Y-certificate, NotSCF
    when no certificate exists and NotHarmonic for a non-kernel input.
    """
    if certificate is None:
        from .classify import semi_conformal_certificate
        certificate = semi_conformal_certificate(f.spec, family="X", tol=tol)
    if certificate.family != "X":
        raise WrongFamily("the harmonic <-> twistor map needs an X-certificate"
                          f", not a {certificate.family}-certificate")
    res = residual_norm(f, "harmonic" if f.chirality == 1 else "twistor")
    if res > 100 * tol.differential:
        raise NotHarmonic(
            f"input field residual {res:.3e} exceeds tolerance; refusing to "
            "map a non-kernel field")
    n = f.grid_n
    line = geometry._phase_line(f.spec, n)
    x = grid_points(n) if line is None else (line.x1, line.x2)
    _, _, v1, v2, d1, d2 = np.broadcast_arrays(
        *x, *certificate.field.at(*x),
        *geometry.null_direction_arrays(f.spec, *x, "X"))
    first = np.abs(d1) >= np.abs(d2)
    w = np.where(first, v1, v2) / np.where(first, d1, d2)
    out = f.times(-1.0 / w if f.chirality == 1 else -w, -f.chirality)
    out.meta["kind"] = ("twistor-image" if f.chirality == 1
                        else "harmonic-image")
    return out
