"""Finite-volume solver for scalar conservation laws on a traffic junction.

A star-shaped network of m incoming and n outgoing roads meets at a single
point. Each road carries a bell-shaped flux; the junction couples them
through one density value chosen so that total inflow matches total
outflow. The package provides the coupled Riemann solver, the equilibrium
(germ) predicates, a well-balanced Godunov marching scheme that also
marches the viscous system as a cross-check, stationary viscous profiles,
and a verification harness with entropy audits and convergence studies.
"""

from .errors import ConfigError, ConsistencyError, PreconditionError
from .fluxes import (Flux, branch_point, conjugate, custom_polynomial,
                     quadratic_lwr, symmetric_quadratic, tabulated)
from .junction import (JunctionSolution, JunctionSpec, RiemannSolution,
                       dissipativity, is_germ_member, is_strict_germ_member,
                       riemann_solve, solve_junction, strict_witness)
from .scheme import (GridState, MassLedger, NetworkMesh, RunConfig,
                     Trajectory, cfl_timestep, discretize_initial,
                     mass_ledger, run, run_batch, step)
from .verify import (ContractionReport, ConvergenceReport, KatoReport,
                     RiemannProblem, TestFunction, adapted_entropy_residual,
                     bump_test_function, convergence_study, germ_sampler,
                     kato_audit, l1_contraction_check, nonstrict_germ_sampler)
from .viscous import (ViscousProfile, initial_smoothing, parabolic_timestep,
                      road_profile, run_parabolic, stationary_profile)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConsistencyError", "PreconditionError",
    "Flux", "branch_point", "conjugate", "custom_polynomial",
    "quadratic_lwr", "symmetric_quadratic", "tabulated",
    "JunctionSolution", "JunctionSpec", "RiemannSolution",
    "dissipativity", "is_germ_member", "is_strict_germ_member",
    "riemann_solve", "solve_junction", "strict_witness",
    "GridState", "MassLedger", "NetworkMesh", "RunConfig", "Trajectory",
    "cfl_timestep", "discretize_initial", "mass_ledger", "run", "run_batch",
    "step",
    "ContractionReport", "ConvergenceReport", "KatoReport",
    "RiemannProblem", "TestFunction", "adapted_entropy_residual",
    "bump_test_function", "convergence_study", "germ_sampler",
    "kato_audit", "l1_contraction_check", "nonstrict_germ_sampler",
    "ViscousProfile", "initial_smoothing", "parabolic_timestep",
    "road_profile", "run_parabolic", "stationary_profile",
    "__version__",
]
