"""Networked bivirus SIS analysis: equilibria, stability, monotone simulation.

Quick tour:

    >>> import numpy as np, bivirus as bv
    >>> sys = bv.BivirusSystem([[1.6, 1], [1, 1.6]], np.eye(2),
    ...                        [[2.1, 0.885], [1.885, 1.1]], np.eye(2))
    >>> bv.validate(sys)                      # model assumptions
    >>> bv.reproduction_numbers(sys)          # (R1, R2)
    >>> a = bv.analysis(sys)                  # validated once: R, profiles
    >>> bv.enumerate_equilibria(a)            # healthy/boundary/coexistence
    >>> bv.boundary_stability(a)              # same context, no recompute
    >>> bv.sandwich_test(sys)                 # corner-trajectory bound
"""

from .exceptions import (ConvergenceError, DomainError, IntegrationError,
                         ValidationError)
from .speclin import (classify_metzler, is_irreducible, perron_vector,
                      spectral_abscissa, spectral_radius)
from .model import (BivirusSystem, State, field, in_feasible_set,
                    is_strictly_interior, jacobian, normalize_recovery,
                    reproduction_numbers, residual, transformed_jacobian,
                    validate, validation_errors)
from .equilibria import (Analysis, BoundaryVerdict, EnumerationResult,
                         Equilibrium, LineFamily, SufficientConditions,
                         analysis, boundary_stability,
                         construct_equilibrium_line, enumerate_equilibria,
                         find_coexistence_newton, single_virus_endemic,
                         solve_coexistence_n2, sufficient_conditions)
from .sim import (GridSpec, Outcome, ProbeResult, SandwichResult, Trajectory,
                  basin_probe, hyperrectangle_contains,
                  integrate, order_leq, sandwich_test)
from .cases import CASES, CaseStudy, demo_starts

__version__ = "0.1.0"

__all__ = [
    "BivirusSystem", "State", "Analysis", "Equilibrium", "BoundaryVerdict",
    "SufficientConditions", "LineFamily", "EnumerationResult", "Trajectory",
    "Outcome", "SandwichResult", "GridSpec", "ProbeResult", "CaseStudy",
    "CASES",
    "validate", "validation_errors", "normalize_recovery",
    "reproduction_numbers", "field", "residual", "jacobian",
    "transformed_jacobian", "in_feasible_set", "is_strictly_interior",
    "is_irreducible", "spectral_radius", "spectral_abscissa", "perron_vector",
    "classify_metzler",
    "analysis", "single_virus_endemic", "boundary_stability", "sufficient_conditions",
    "solve_coexistence_n2", "find_coexistence_newton", "enumerate_equilibria",
    "construct_equilibrium_line",
    "integrate", "order_leq",
    "sandwich_test", "hyperrectangle_contains", "basin_probe", "demo_starts",
    "DomainError", "ValidationError", "ConvergenceError", "IntegrationError",
]
