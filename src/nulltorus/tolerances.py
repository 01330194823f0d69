"""Default numeric policy, overridable per call or via CLI config.

Quantities obtained through differentiation or quadrature are checked at
1e-6 and line-closedness at 1e-9 under a rigid rotation, with an explicit
Inconclusive band up to 1e-6 (``nullflow.classify_line``); a line at a
phase closes within 1e-6 of a closed line, with no band.  Every field is
read somewhere in the package (``tests/test_hygiene.py`` checks it), so
the tolerance set an artifact embeds is the one that produced it.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    differential: float = 1e-6
    closedness: float = 1e-9
    closedness_reject: float = 1e-6   # displacements above this are "open"
    holonomy_boost: float = 1e-8
    resonance: float = 1e-10          # |q rho - p| of a resonant rotation
    rational_cap: int = 10_000        # max denominator for rational detection
    rational_residual_flow: float = 1e-6   # |rho - p/q| accepted from flow data
    rational_residual_solver: float = 1e-9  # accepted when classifying ratios
    bisection: float = 1e-10          # isolated-zero refinement
    ode_step: float = 1e-3            # fixed RK4 step (transversal coordinate)
    velocity_blowup: float = 1e8      # geodesic incompleteness certificate
    scf_reject: float = 1e-4          # loop integral above this -> obstructed
    scf_certificate: float = 1e-8     # grid divergence residual a certified field must meet

    def with_(self, **kw) -> "Tolerances":
        return replace(self, **kw)


DEFAULT = Tolerances()
