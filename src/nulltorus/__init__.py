"""Conformal invariants of Lorentzian metrics on the two-torus.

The package revolves around the two null line fields X and Y of a
signature-(1,1) metric on R^2/Z^2: their flows (``nullflow``), the spin
structures and holonomy of their closed lines (``spin``), explicit chiral
Dirac/twistor kernels (``spinorfield``), and the geometric classification
of the kernel dimensions with semi-conformal-flatness certificates
(``classify``).  ``catalog`` collects ready-made metric families and
``nulltorus.cli`` exposes everything as a command line.
"""

from .catalog import (analex, analex_sanchez, closed_diagonal_wave, conformal,
                      exp_sine_factor, flat, from_config, from_shorthand,
                      left_invariant, load_metric, rosatau_window)
from .classify import (DimensionReport, MassFunctional, SCFCertificate,
                       associated_vector_field, classify_dimension,
                       classify_table, conformal_flatness_test,
                       contradictions, is_x_conformally_flat, mass_functional,
                       semi_conformal_certificate, spectral_checks,
                       spectral_count)
from .errors import (ConfigError, DegenerateMetric, DenseFlow, FrameUndefined,
                     Inconclusive, NotClosed, NotHarmonic, NotSCF,
                     NotTransverse, NotXTrivial, NullTorusError, StepTooLarge,
                     UnsupportedFamily, WrongFamily)
from .geometry import (ConformalRescale, Diagonal, Frame, LeftInvariant,
                       MetricEval, RosaTau, Sanchez, VectorField, divergence,
                       eval_metric, null_directions, orientation,
                       orthonormal_frame, validate_spec)
from .nullflow import (CompletenessProbe, CylinderDecomposition,
                       FirstIntegral, Interval, LineClass, NullLineRecord,
                       RationalCertificate, RotationNumberEstimate,
                       classify_line, cylinder_decomposition,
                       direct_rotation_number, first_integral_function,
                       integrate_null_line, probe_completeness,
                       rotation_number)
from .spin import (HolonomyResult, SpinStructure, all_structures, gamma,
                   holonomy_closed_line, holonomy_table, indefinite_product,
                   parallel_transport_spin, spin_connection_scalar,
                   volume_element)
from .spinorfield import (ClosedDiagonalSolution, HalfSpinorField,
                          HarmonicSolution, SpinorField, conformal_map_spinor,
                          constant_field, construct_resonant_spinors,
                          dirac_apply, embed, fourier_mode_field,
                          harmonic_twistor_iso, nabla_along, residual_norm,
                          solve_closed_diagonal, solve_left_invariant,
                          twistor_apply, zero_like)
from .tolerances import DEFAULT, Tolerances
from .validation import CriterionResult, run_all, run_criterion

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
