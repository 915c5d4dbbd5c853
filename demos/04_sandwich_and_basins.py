"""Certifying global behaviour from two trajectories, and mapping basins.

The flow preserves the order "x1 up, x2 down", so trajectories from the
two extreme corners bound every interior trajectory forever.  If the two
corner runs meet, that single limit attracts the whole interior; if they
split, their limits span a box that contains every other limit plus a
guaranteed interior unstable equilibrium.  A coarse grid of probe runs
then paints the basins.

Run:  python3 demos/04_sandwich_and_basins.py
"""

import numpy as np

import bivirus as bv
from bivirus.sim import GridSpec

for name in ("case4", "case3", "case2"):
    # One analysis context, shared by every call below, so the equilibria
    # are computed once.
    context = bv.analysis(bv.CASES[name].system())
    res = bv.sandwich_test(context)
    print(f"=== {name}")
    print(f"  corner A -> {np.round(res.limit_A.as_vector(), 4)}")
    print(f"  corner B -> {np.round(res.limit_B.as_vector(), 4)}")
    if res.agree:
        print("  AGREE: every interior start shares this limit.")
    else:
        print("  DISAGREE: limits span a box with an unstable equilibrium "
              "strictly inside;")
        coex = bv.enumerate_equilibria(context).of_kind("coexistence")
        for e in coex:
            inside = bv.hyperrectangle_contains(res, e.state)
            print(f"    coexistence point {np.round(e.coordinates(), 4)} "
                  f"inside the box: {inside}")
    print()

# Basin map for the bistable case: label a grid of starts (a*1, b*1) by
# the equilibrium they reach.  The two basins meet along the stable
# manifold of the unstable coexistence point.  `context` is still
# case2's, from the last pass of the loop.
enum = bv.enumerate_equilibria(context)
probe = bv.basin_probe(context, enum, GridSpec(n_a=9, n_b=9))
symbols = {-2: ".", -1: "?"}
print("case2 basin map over starts (a, b) -> x1 = a*ones, x2 = b*ones")
print("  1 = virus-1 boundary wins, 2 = virus-2 boundary wins, . = infeasible")
legend_symbol = {}
for idx, kind in enumerate(probe.legend):
    legend_symbol[idx] = {"boundary_virus1": "1", "boundary_virus2": "2",
                          "healthy": "0", "coexistence": "c"}.get(kind, "*")
for j in range(probe.labels.shape[1] - 1, -1, -1):
    b = probe.b_values[j]
    row = "".join(symbols.get(int(l), legend_symbol.get(int(l), "*"))
                  for l in probe.labels[:, j])
    print(f"  b={b:4.2f} |{row}|")
print("          " + " " * 1 + "a = " +
      ", ".join(f"{a:.2f}" for a in probe.a_values[[0, -1]]) + " (left to right)")
