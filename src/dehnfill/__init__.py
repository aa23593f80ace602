"""Numerical toolkit for Einstein metrics on Dehn-filled hyperbolic ends.

Everything lives in the symmetry-reduced (torus-invariant, cohomogeneity
one) setting: closed-form model metrics, the reduced Einstein residual and
its linearization, weighted norms on the filled end, the glued
almost-Einstein profile, and Newton-type solvers that perturb it to a
discrete Einstein metric.
"""

from .geometry import (ArclengthMap, DiagonalMetricProfile, RadialGrid,
                       TrivialVariation, black_hole_profile,
                       coordinate_curvature_oracle, cusp_profile, metric_gap,
                       r_plus, radius_for_meridian, sectional_curvatures,
                       theta_period, v_profile)
from .operators import (EinsteinResidual, InvariantTensor,
                        bh_kernel_variation, einstein_residual,
                        linearized_residual, sqrtdet_sinh_check)
from .asymptotics import (EulerODE, IndicialRoots, cusp_block_exponents,
                          cusp_kernel_classification, indicial_roots,
                          solve_euler_bvp, ugly_estimate_harness)
from .gluing import (GluedEnd, NormReport, WeightFunction,
                     double_star_decompose, double_star_norm, glue,
                     residual_decay_sweep, rho_cutoff, unit_frame_components,
                     weight, weighted_norms)
from .solver import (BandedLinearization, NewtonReport, SolverConfig,
                     kernel_spectrum, newton_solve, rayleigh_quotient,
                     trivial_direction, verify_einstein)

__version__ = "0.1.0"
