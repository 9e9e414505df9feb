"""Numerical lab for non-unique admissible solutions of a forward-backward
diffusion problem with a bistable piecewise-linear flux.

From one initial datum in the decreasing branch the package constructs a
family of distinct phase-superposition solutions of u_t = phi(u)_xx with
zero-flux sides, certifies the time horizon on which each satisfies every
admissibility condition of the monotone-flux entropy formulation, and audits
the conditions with independent grid checks.
"""

from .config import FinalDatum, Margins, ScenarioConfig
from .counterexample import (SolutionTriple, assemble_state, build_lambda,
                             certify_horizon, construct_family)
from .errors import (BoundaryConditionError, ConfigurationError,
                     DomainViolationError, FbpError, GridMismatchError,
                     InstabilityError, NearSingularError)
from .phase_model import EntropyFlux, PhaseParams, entropy_primitive, eval_phi
from .solvers import (BackwardBranchSolution, EpsSolution, SourcedSolution,
                      inverse_source_from_endpoints, solve_pseudoparabolic,
                      solve_sourced, solve_unstable_backward)
from .spectral import CosineSeries, Field2D, Grid, cosine_analyze
from .verifier import (VerificationReport, distinctness,
                       entropy_inequality_residual, monotonicity_report,
                       pointwise_certificate, run_triple_battery,
                       structural_check, viscous_entropy_audit,
                       viscous_entropy_residual, weak_residual)

__version__ = "0.1.0"
