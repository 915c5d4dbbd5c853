import bivirus

#: The public surface.  A change to it is a deliberate edit here.
EXPORTS = [
    "BivirusSystem", "State", "Analysis", "Equilibrium", "BoundaryVerdict",
    "SufficientConditions", "LineFamily", "EnumerationResult", "Trajectory",
    "Outcome", "SandwichResult", "GridSpec", "ProbeResult", "CaseStudy",
    "CASES",
    "validate", "validation_errors", "normalize_recovery",
    "reproduction_numbers", "field", "residual", "jacobian",
    "transformed_jacobian", "in_feasible_set", "is_strictly_interior",
    "is_irreducible", "spectral_radius", "spectral_abscissa", "perron_vector",
    "classify_metzler",
    "analysis", "single_virus_endemic", "boundary_stability",
    "sufficient_conditions", "solve_coexistence_n2",
    "find_coexistence_newton", "enumerate_equilibria",
    "construct_equilibrium_line",
    "integrate", "order_leq", "sandwich_test", "hyperrectangle_contains",
    "basin_probe", "demo_starts",
    "DomainError", "ValidationError", "ConvergenceError", "IntegrationError",
]


def test_every_exported_name_resolves():
    missing = [name for name in bivirus.__all__
               if not hasattr(bivirus, name)]
    assert missing == []


def test_exports_are_pinned():
    assert bivirus.__all__ == EXPORTS
