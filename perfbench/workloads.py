"""The four workloads: seeded inputs, the op each one times, and the check
of each answer.

Ops reach the library through module attributes (`sim.basin_probe`,
`cli.build_analysis_report`), never through the `bivirus` re-exports, so
the traced run sees every call.  A check returns None for a correct answer
or `(kind, reason)`: kind "inconclusive" when the library gave up on an
input (an op failure), "wrong" when a conclusive answer fails the check.
Checks compare against numpy or the bundled reference tables where they
can, not against the layer that produced the answer.

Every input is a fixed design with seeded noise: `--seed` draws the ±2%
perturbations, while the shapes that set an op's cost (n, coupling, rate
spread) are fixed per workload.  That keeps each seed's inputs distinct
and each run's cost comparable across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from bivirus import cases, cli, equilibria, sim
from bivirus.exceptions import (ConvergenceError, DomainError,
                                IntegrationError, ValidationError)
from bivirus.model import BivirusSystem

#: Exceptions that count as an op failure rather than a benchmark crash.
FAILURES = (ConvergenceError, IntegrationError, DomainError, ValidationError)

#: Seed of the fixed random design behind stiff_rates and weak_communities.
DESIGN_SEED = 2111_07507
#: Relative size of the seeded multiplicative noise on every input.
NOISE = 0.02
#: Tolerance of the lifted block means against the 3-decimal case table.
LIFT_MEAN_TOL = 0.05
#: Agreement of a sandwich limit with a stable equilibrium.
LIMIT_TOL = 1e-6
#: Relative agreement of R1, R2 with numpy's eigenvalues.
R_REL_TOL = 1e-9
RESIDUAL_TOL = 1e-8

BOUNDARY_KINDS = ("boundary_virus1", "boundary_virus2")
#: Boundary-test verdict -> the Jacobian class it must agree with.
VERDICT_CLASS = {"locally_stable": "stable", "unstable": "unstable",
                 "critical": "singular_boundary"}


class Case(NamedTuple):
    system: BivirusSystem
    info: dict


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], list]
    op: Callable[[BivirusSystem], object]
    #: One untimed op at the workload's largest n, run during set-up.
    warmup: Callable[[list], None]
    check: Callable[[Case, object], tuple | None]


# ---------------------------------------------------------------------------
# shared helpers

def _noisy(rng, M):
    return M * (1.0 + NOISE * rng.uniform(-1.0, 1.0, size=np.shape(M)))


def _perron_root(M):
    return float(np.max(np.linalg.eigvals(M).real))


def _boundary_mismatch(rep):
    """Reason the boundary verdicts and the Jacobian classes disagree, or
    None."""
    for verdict, kind in zip(rep.boundary, BOUNDARY_KINDS):
        eqs = rep.enumeration.of_kind(kind)
        if verdict is None:
            if eqs:
                return f"{kind} listed but its virus is subcritical"
            continue
        if len(eqs) != 1:
            return f"{kind}: {len(eqs)} equilibria for one verdict"
        if VERDICT_CLASS[verdict.verdict] != eqs[0].spectrum_class:
            return (f"{kind}: boundary test says {verdict.verdict}, Jacobian "
                    f"says {eqs[0].spectrum_class}")
    return None


# ---------------------------------------------------------------------------
# case2_basins

#: Perturbed copies of case2 alongside case2 itself.
CASE2_PERTURBED = 1
BASIN_GRID = sim.GridSpec(n_a=8, n_b=8)
WARMUP_GRID = sim.GridSpec(n_a=2, n_b=2)


def case2_inputs(seed):
    rng = np.random.default_rng(seed)
    B2 = cases.CASES["case2"].B2
    eye = np.eye(2)
    return [Case(BivirusSystem(cases.B1_SHARED, eye, b2, eye), {})
            for b2 in [B2] + [_noisy(rng, B2) for _ in range(CASE2_PERTURBED)]]


def case2_op(system, grid=BASIN_GRID):
    enum = equilibria.enumerate_equilibria(system)
    sandwich = sim.sandwich_test(system)
    probe = sim.basin_probe(system, enum, grid)
    return enum, sandwich, probe


def case2_warmup(inputs):
    case2_op(inputs[0].system, WARMUP_GRID)


def case2_check(case, answer):
    enum, sandwich, probe = answer
    if not sandwich.conclusive:
        return "inconclusive", "a sandwich corner did not converge"
    if sandwich.agree:
        return "wrong", "corner runs agree on a bistable system"
    coex = enum.of_kind("coexistence")
    if len(coex) != 1:
        return "wrong", f"{len(coex)} coexistence equilibria, expected 1"
    a = sandwich.limit_A.as_vector()
    b = sandwich.limit_B.as_vector()
    v = coex[0].coordinates()
    if ((v < np.minimum(a, b) - LIMIT_TOL).any()
            or (v > np.maximum(a, b) + LIMIT_TOL).any()):
        return "wrong", "coexistence point outside the sandwich box"

    feasible = probe.labels >= sim.LABEL_UNRESOLVED
    unresolved = int(np.count_nonzero(probe.labels == sim.LABEL_UNRESOLVED))
    if unresolved:
        return "inconclusive", f"{unresolved} basin starts unresolved"
    winner = np.zeros(probe.labels.shape, dtype=int)
    for idx, lab in np.ndenumerate(probe.labels):
        if not feasible[idx]:
            continue
        kind = probe.legend[lab]
        if kind not in BOUNDARY_KINDS:
            return "wrong", f"start {idx} labelled {kind}"
        winner[idx] = 1 if kind == "boundary_virus1" else 2
    # The flow preserves "x1 up, x2 down": a start with more virus 1 and
    # less virus 2 than a virus-1 start must also end at virus 1.  Axis 0
    # raises x1, axis 1 raises x2.
    for (i, j), w in np.ndenumerate(winner):
        if w == 1 and (winner[i:, :j + 1] == 2).any():
            return "wrong", f"basin labels not monotone above start {(i, j)}"
    return None


# ---------------------------------------------------------------------------
# lifted_analyze

LIFT_SIZES = (20, 40, 60, 80, 100)
LIFT_CASES = ("case2", "case3")
#: Noise draws per (case, n).
LIFT_DRAWS = 2


def lifted_inputs(seed):
    rng = np.random.default_rng(seed)
    out = []
    for name in LIFT_CASES:
        for n in LIFT_SIZES:
            m = n // 2
            block = np.full((m, m), 1.0 / m)
            for _draw in range(LIFT_DRAWS):
                B1 = _noisy(rng, np.kron(cases.B1_SHARED, block))
                B2 = _noisy(rng, np.kron(cases.CASES[name].B2, block))
                eye = np.eye(n)
                out.append(Case(BivirusSystem(B1, eye, B2, eye),
                                {"case": name, "n": n}))
    return out


def analyze_op(system):
    return cli.build_analysis_report(system)


def largest_n_warmup(inputs):
    """Run the op once on the first input of the largest n; a library
    failure there is part of the workload and is ignored."""
    case = max(inputs, key=lambda c: c.system.n)
    try:
        analyze_op(case.system)
    except FAILURES:
        pass


def lifted_check(case, rep):
    ref = cases.CASES[case.info["case"]]
    coex = rep.enumeration.of_kind("coexistence")
    if len(coex) != 1:
        return "wrong", f"{len(coex)} coexistence equilibria, expected 1"
    e = coex[0]
    if e.spectrum_class != ref.expected_class["coexistence"]:
        return "wrong", (f"coexistence class {e.spectrum_class}, expected "
                         f"{ref.expected_class['coexistence']}")
    m = case.system.n // 2
    x1, x2 = e.state.x1, e.state.x2
    means = np.array([x1[:m].mean(), x1[m:].mean(),
                      x2[:m].mean(), x2[m:].mean()])
    off = float(np.max(np.abs(means - np.concatenate(ref.reference["coexistence"]))))
    if off > LIFT_MEAN_TOL:
        return "wrong", f"block means {off:.3f} from the 2-node reference"
    reason = _boundary_mismatch(rep)
    return ("wrong", reason) if reason else None


# ---------------------------------------------------------------------------
# stiff_rates

#: (n, recovery-rate spread, lowest rate) of each system; system k draws
#: its matrices from design stream (DESIGN_SEED, k).  The 3x systems
#: converge.  The 10x one stops on its residual floor, 5e-9 to 8e-9 with
#: rates from 2 to 20, above stop_tol on every seed probed; with rates from
#: 1 to 10 a similar system's floor sat at 1e-9 to 5e-9 and the op flipped
#: between conclusive and not from seed to seed.  One 10x system only,
#: because a failing op costs about 16 s; spreads stay at 10x or below
#: because a failing op at 30x takes 14-26 s even at rates from 1.
STIFF_DESIGN = ((3, 3.0, 1.0), (4, 3.0, 1.0), (5, 3.0, 1.0), (6, 3.0, 1.0),
                (4, 10.0, 2.0),
                (3, 3.0, 1.0), (4, 3.0, 1.0), (5, 3.0, 1.0), (6, 3.0, 1.0))
STIFF_R_RANGE = (1.3, 2.5)
STIFF_WARMUP_T_END = 50.0


def _spread_rates(design, n, spread):
    """n recovery rates, log-uniform on [1, spread], rescaled so the
    smallest is 1 and the largest is `spread`."""
    u = design.uniform(0.0, 1.0, n)
    return np.exp(np.log(spread) * (u - u.min()) / (u.max() - u.min()))


def stiff_inputs(seed):
    """Each node's infection row is scaled with its recovery rate, so
    D^-1 B is a random matrix with Perron root R: fast nodes stay fast."""
    rng = np.random.default_rng(seed)
    out = []
    for k, (n, spread, low) in enumerate(STIFF_DESIGN):
        design = np.random.default_rng((DESIGN_SEED, k))
        mats = []
        for _virus in range(2):
            d = low * _noisy(rng, _spread_rates(design, n, spread))
            M = _noisy(rng, design.uniform(0.1, 1.0, (n, n)))
            R = design.uniform(*STIFF_R_RANGE)
            mats += [d[:, None] * M * (R / _perron_root(M)), d]
        out.append(Case(BivirusSystem(*mats), {"n": n, "spread": spread}))
    return out


def stiff_op(system):
    return sim.sandwich_test(system)


def stiff_warmup(inputs):
    case = max(inputs, key=lambda c: c.system.n)
    sim.sandwich_test(case.system, t_end=STIFF_WARMUP_T_END)


def stiff_check(case, res):
    if not res.conclusive:
        return "inconclusive", "a sandwich corner did not converge"
    enum = equilibria.enumerate_equilibria(case.system)
    if res.agree:
        limit = res.common_limit.as_vector()
        stable = [e for e in enum if e.spectrum_class == "stable"]
        if not any(np.max(np.abs(limit - e.coordinates())) <= LIMIT_TOL
                   for e in stable):
            return "wrong", "common limit is not a stable equilibrium"
        return None
    a, b = res.limit_A.as_vector(), res.limit_B.as_vector()
    lo, hi = np.minimum(a, b) - LIMIT_TOL, np.maximum(a, b) + LIMIT_TOL
    if not any(((e.coordinates() >= lo) & (e.coordinates() <= hi)).all()
               for e in enum.of_kind("coexistence")):
        return "wrong", "corners disagree but no coexistence point in the box"
    return None


# ---------------------------------------------------------------------------
# weak_communities

#: (n, coupling eps).  eps = 1e-2 succeeds slowly (4-15 s at n = 20-40), so
#: it runs at n = 6 only; eps <= 1e-3 fails at every n.
WEAK_DESIGN = ((6, 1e-1), (6, 1e-2), (6, 1e-3), (6, 1e-5),
               (20, 1e-1), (20, 1e-3), (20, 1e-5),
               (40, 1e-3), (40, 1e-5))
#: Perron root of both communities of B1 and of B2.
WEAK_R = (1.8, 1.6)


def _two_communities(design, rng, n, eps, R):
    h = n // 2
    B = np.zeros((n, n))
    for sl in (slice(0, h), slice(h, n)):
        block = _noisy(rng, design.uniform(0.1, 1.0, (h, h)))
        B[sl, sl] = block * (R / _perron_root(block))
    B[0, h] = B[h, 0] = eps
    return B


def weak_inputs(seed):
    design = np.random.default_rng(DESIGN_SEED)
    rng = np.random.default_rng(seed)
    out = []
    for n, eps in WEAK_DESIGN:
        B1, B2 = (_two_communities(design, rng, n, eps, R) for R in WEAK_R)
        eye = np.eye(n)
        out.append(Case(BivirusSystem(B1, eye, B2, eye), {"n": n, "eps": eps}))
    return out


def weak_check(case, rep):
    s = case.system
    for got, B, D in zip(rep.reproduction_numbers, (s.B1, s.B2), (s.D1, s.D2)):
        want = _perron_root(B / np.diag(D)[:, None])
        if abs(got - want) > R_REL_TOL * want:
            return "wrong", f"R = {got!r}, numpy says {want!r}"
    reason = _boundary_mismatch(rep)
    if reason:
        return "wrong", reason
    worst = max(e.residual for e in rep.enumeration)
    if worst > RESIDUAL_TOL:
        return "wrong", f"equilibrium residual {worst:.1e}"
    return None


# ---------------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload("case2_basins", case2_inputs, case2_op, case2_warmup, case2_check),
    Workload("lifted_analyze", lifted_inputs, analyze_op, largest_n_warmup,
             lifted_check),
    Workload("stiff_rates", stiff_inputs, stiff_op, stiff_warmup, stiff_check),
    Workload("weak_communities", weak_inputs, analyze_op, largest_n_warmup,
             weak_check),
)}
