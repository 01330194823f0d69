"""Spin structures on the Lorentzian torus and holonomy of closed null lines.

The spinor bundle is trivialized globally: sections are C^2-valued functions
on the square, and the four inequivalent spin structures are encoded by a
sign pair (a1, a2) in {+1,-1}^2.  Sections of the a-twisted bundle are stored
as periodic functions h; the actual section is eps_a * h with the explicit
unitary twist eps_a(x) = exp(i pi/2 ((1-a1) x1 + (1-a2) x2)).  The twist
contributes the closed one-form (i pi/2)((1-a1) dx1 + (1-a2) dx2) to the
spinor connection.

Clifford action (convention v.w + w.v = -2 g(v,w) against the canonical
orthonormal frame):

    gamma(s1) = [[0, i], [-i, 0]]     gamma(s2) = [[0, i], [i, 0]]

so gamma(s1)^2 = +Id, gamma(s2)^2 = -Id, and the chirality operator
gamma(s^1) gamma(s^2) = -gamma(s1) gamma(s2) = diag(1, -1) splits spinors
into positive (first component, the line annihilated by gamma(X)) and
negative (second component) half-spinors.  The Dirac operator carries the
raised frame index: D = -gamma(s1) nabla_1 + gamma(s2) nabla_2, which makes
positive kernel elements exactly the sections parallel along the X-lines.

A closed line's boost is read from its lattice flow (``holonomy_table``),
or integrated along a marched record by Simpson's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry, nullflow
from .errors import DenseFlow, NotClosed
from .gridtools import simpson
from .tolerances import DEFAULT, Tolerances

GAMMA1 = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
GAMMA2 = np.array([[0.0, 1.0j], [1.0j, 0.0]])

STRUCTURES: tuple[tuple[int, int], ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def gamma(v, frame: Optional[geometry.Frame] = None) -> np.ndarray:
    """Clifford action of a tangent vector given in frame components.

    With no frame, v = (a, b) means a*s1 + b*s2 directly.  With a frame, v is
    in coordinate components and is converted first.
    """
    if frame is not None:
        m = np.array([[frame.s1[0], frame.s2[0]], [frame.s1[1], frame.s2[1]]])
        a, b = np.linalg.solve(m, np.asarray(v, dtype=float))
        a, b = float(a), float(b)
    else:
        a, b = float(v[0]), float(v[1])
    return a * GAMMA1 + b * GAMMA2


# ---------------------------------------------------------------------------
# spin structures


@dataclass(frozen=True)
class SpinStructure:
    """One of the four spin structures, labeled by signs over the two cycles."""
    a1: int
    a2: int

    def __post_init__(self):
        if self.a1 not in (-1, 1) or self.a2 not in (-1, 1):
            raise ValueError("spin structure signs must be +1 or -1")

    @property
    def label(self) -> str:
        fmt = lambda a: "+" if a > 0 else "-"
        return f"({fmt(self.a1)}1,{fmt(self.a2)}1)"

    @property
    def trivial(self) -> bool:
        return self.a1 == 1 and self.a2 == 1

    def character(self, winding: tuple[int, int]) -> int:
        """a1^w1 * a2^w2 on a cycle of integer winding (w1, w2)."""
        w1, w2 = winding
        return (self.a1 ** (w1 % 2)) * (self.a2 ** (w2 % 2))

    def twist(self, x1, x2) -> np.ndarray:
        """eps_a(x): unitary identifying twisted with periodic sections."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        return np.exp(0.5j * np.pi * ((1 - self.a1) * x1 + (1 - self.a2) * x2))

    def twist_form(self, v1, v2):
        """Connection contribution of the twist on a vector (v1, v2)."""
        return 0.5j * np.pi * ((1 - self.a1) * np.asarray(v1)
                               + (1 - self.a2) * np.asarray(v2))


def all_structures() -> tuple[SpinStructure, ...]:
    return tuple(SpinStructure(a1, a2) for a1, a2 in STRUCTURES)


# ---------------------------------------------------------------------------
# the scalar spin connection and transport along null lines


def spin_connection_scalar(spec, structure: SpinStructure, v1, v2, x1, x2,
                           chirality: int):
    """Connection scalar for the chiral component along (v1, v2) at (x1, x2).

    Covariant derivative of a half-spinor of the given chirality (+1 or -1)
    along V acts on the periodic representative h as

        dh(V) + (chirality * Gamma(V)/2 + omega_a(V)) h

    where Gamma(V) = g(nabla_V s1, s2) and omega_a is the twist form.
    """
    gam = geometry.connection_along(spec, x1, x2, v1, v2)
    return 0.5 * chirality * gam + structure.twist_form(v1, v2)


@dataclass(frozen=True)
class HolonomyResult:
    structure: SpinStructure
    winding: tuple[int, int]
    boost: float                 # log of the positive transport eigenvalue
    sheet: int                   # lift sign of the frame path (always +1 here)
    character: int               # structure.character(winding)
    x_trivial: bool

    @property
    def transport_factor(self) -> complex:
        """Scalar acting on the positive chiral line after one loop."""
        return self.sheet * self.character * np.exp(self.boost)


def _gamma_along(spec, record: nullflow.NullLineRecord):
    """Gamma(c') at the points of a record, c' its recorded velocity."""
    return geometry.connection_along(spec, *record.points.T,
                                     *record.velocities.T)


def _holonomy(structure: SpinStructure, winding: tuple[int, int],
              boost: float, tol: Tolerances) -> HolonomyResult:
    sheet = 1
    chi = structure.character(winding)
    x_trivial = abs(boost) < tol.holonomy_boost and sheet * chi == 1
    return HolonomyResult(structure=structure, winding=winding, boost=boost,
                          sheet=sheet, character=chi, x_trivial=x_trivial)


def holonomy_closed_line(spec, record: nullflow.NullLineRecord,
                         structure: SpinStructure,
                         tol: Tolerances = DEFAULT) -> HolonomyResult:
    """Spin holonomy of a marched closed null line, in boost and sign parts.

    The frame (s1, s2) is globally defined, so the loop's frame path lifts to
    a closed path in the spin bundle (sheet +1) and the holonomy acting on
    the positive chiral line is  chi_a(winding) * exp(-1/2 int Gamma).  The
    line is "transport-trivial" for the structure when the boost vanishes
    (|boost| < 1e-8) and the sign is +1.  The winding is the record's
    displacement rounded to integers (NotClosed beyond closedness_reject).

    The boost is a line invariant: it does not depend on the parametrization
    or the starting point of the record.
    """
    disp = record.points[-1] - record.points[0]
    winding = (int(round(float(disp[0]))), int(round(float(disp[1]))))
    closure = abs(disp[0] - winding[0]) + abs(disp[1] - winding[1])
    if closure > tol.closedness_reject:
        raise NotClosed(
            f"record does not close up to integer winding: defect {closure:.3e}")
    boost = -0.5 * float(simpson(_gamma_along(spec, record), x=record.ts))
    return _holonomy(structure, winding, boost, tol)


def holonomy_table(spec, family: str, seeds, rotation, tol: Tolerances = DEFAULT
                   ) -> list[dict[tuple[int, int], HolonomyResult]]:
    """The four-structure holonomy of the closed line through each
    transversal seed (axis coordinate 0), with ``rotation``'s winding, read
    from the family's lattice flow (Inconclusive where none covers it) with
    no line recorded.  Gamma, like the direction, depends on the phase y1
    alone.  With sigma = sign(shift^a) and P = round(q/|shift^a|)
    y1-periods per line, the boost is -1/2 sigma P <Gamma(V)/V'^1> (graph
    branch: the mean over ``phase_velocity``'s samples; the lines are open,
    DenseFlow, when |q rho - p| > closedness_reject), or -1/2 sigma P
    Gamma(A e2) at A (y1, 0) on the line y1 = m w (vertical branch; open
    where ``PhaseZeros.distance`` of y1 exceeds closedness_reject).
    A conformal rescaling reads its inner spec: for a null c' the two
    connections differ by +-d log lam(c'), which integrates to 0 around a
    closed line."""
    flow = nullflow._covering_flow(spec, family, tol)
    seeds = np.asarray(seeds, dtype=float).reshape(-1)
    if not seeds.size:
        return []
    p, q, axis, inner = rotation.p, rotation.q, flow.axis, flow.spec
    (a, b), (c, d) = flow.A
    shift = flow.shift[axis]
    scale = -0.5 * math.copysign(max(1, round(q / abs(shift))), shift)
    if flow.theta is None:
        record = nullflow.phase_zeros(inner, family, tol)
        y1 = ((d if axis == 1 else -b) * seeds) % 1.0
        for w, y in zip(seeds, y1):
            off = record.distance(y)
            if off > tol.closedness_reject:
                raise DenseFlow(
                    f"line through w={w:.6f} does not close: its phase "
                    f"y1 = {y:.6f} is {off:.3e} from the nearest zero of the "
                    "phase velocity and in no run of zeros")
        boosts = scale * geometry.connection_along(inner, a * y1, c * y1, b, d)
    else:
        disp = q * flow.rho - p
        if abs(disp) > tol.closedness_reject:
            raise DenseFlow(
                f"line through w={seeds[0]:.6f} does not close: displacement "
                f"{disp:.3e} after {q} returns")
        _, along, across = nullflow.phase_velocity(inner, family)
        y1 = np.arange(along.size) / along.size
        m = across / along
        gam = geometry.connection_along(inner, a * y1, c * y1, a + b * m,
                                        c + d * m)
        boosts = np.full(seeds.size, scale * float(np.mean(gam)))
    winding = nullflow._winding(axis, q, p)
    return [{(s.a1, s.a2): _holonomy(s, winding, float(boost), tol)
             for s in all_structures()} for boost in boosts]


# ---------------------------------------------------------------------------
# parallel transport of explicit spinors


def parallel_transport_spin(spec, record: nullflow.NullLineRecord,
                            structure: SpinStructure, phi0,
                            tol: Tolerances = DEFAULT) -> np.ndarray:
    """Transport phi0 along the recorded line; returns the endpoint spinor.

    Works per chiral component (the connection is diagonal in the chiral
    splitting); the record's own parametrization is used.
    """
    gam = _gamma_along(spec, record)
    twist = structure.twist_form(*record.velocities.T)
    phi0 = np.asarray(phi0, dtype=complex)
    out = np.empty(2, dtype=complex)
    for comp, chir in ((0, +1), (1, -1)):
        integrand = 0.5 * chir * gam + twist
        total = complex(simpson(integrand.real, x=record.ts)) \
            + 1j * complex(simpson(integrand.imag, x=record.ts))
        out[comp] = phi0[comp] * np.exp(-total)
    return out
