"""Equilibrium landscapes of the four bundled two-node case studies.

Both viruses are individually supercritical in every case, so the healthy
state and both boundary equilibria always exist; what changes between the
cases is the coexistence picture and which equilibria attract.

Run:  python3 demos/02_equilibrium_landscape.py
"""

import numpy as np

import bivirus as bv

for name, case in bv.CASES.items():
    system = case.system()
    r1, r2 = bv.reproduction_numbers(system)
    print(f"=== {name}:  R1 = {r1:.3f}, R2 = {r2:.3f}")
    print("    B2 =", np.array2string(case.B2, prefix="    B2 = "))

    enum = bv.enumerate_equilibria(system)
    for e in enum:
        print(f"    {e.kind:16s} x1={np.round(e.state.x1, 4)} "
              f"x2={np.round(e.state.x2, 4)}  {e.spectrum_class}"
              f"  (abscissa {e.abscissa:+.3e})")
    if enum.line_degeneracy_suspected:
        print("    ! line of equilibria suspected (nongeneric rates)")

    # The cross-infection test gives the same verdicts as the Jacobian
    # classes above, from a cheaper computation.
    v1, v2 = bv.boundary_stability(system)
    print(f"    boundary verdicts: (x1,0) {v1.verdict} "
          f"[rho_cross={v1.rho_cross:.4f}], "
          f"(0,x2) {v2.verdict} [rho_cross={v2.rho_cross:.4f}]")

    # Dominance tests that rule out coexistence outright, when conclusive.
    cond = bv.sufficient_conditions(system)
    print(f"    dominance: entrywise={cond.entrywise_dominance}, "
          f"profiles={cond.profile_dominance}")
    print()
