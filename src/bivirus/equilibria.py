"""Equilibrium location, classification, and construction.

Equilibria of the bivirus dynamics solve

    [-D1 + (I - X1 - X2) B1] x1 = 0,
    [-D2 + (I - X1 - X2) B2] x2 = 0,

and come in four kinds: healthy (both zero), boundary (exactly one virus
present, at the endemic profile of its single-virus system), and
coexistence (both strictly positive at every node).  For generic rate
matrices there are finitely many; a special construction below produces
the nongeneric alternative, a whole line segment of coexistence
equilibria.

For n > 2 the coexistence equilibria are found by damped Newton from a
grid of seeds.  The seeds step in lockstep (`_newton_root`): each
iteration assembles the Jacobians of every seed still running as one
stack and solves them with one stacked `np.linalg.solve`, so at small n
the cost is the arithmetic rather than one round of Python-level numpy
calls per seed.  The endemic profiles are the same solver's batches of
one.  The search stops once the index identity closes (`_index_check`):
a stopping rule, not a proof that no root is missing.

Every analysis of a system accepts the system or its `Analysis`: the
validated system with its recovery-normalized rates, (R1, R2) and both
endemic profiles.  Build that context once with `analysis` and hand it to
several analyses, so they share the spectral work instead of repeating it.

Coexistence is ruled out, and no coexistence search runs at any n,
when `coexistence_excluded` holds: a virus is subcritical, the normalized
rates of one virus dominate the other's entrywise, or one endemic
profile exceeds the other at every node by more than PROFILE_MARGIN.  The
healthy state and the boundary equilibria are then every equilibrium of
the system, and the enumeration says so (`EnumerationResult.complete`).

The flow preserves an order (x1 up, x2 down), and `order_bounds` lists
points beside the unstable equilibria whose orbits are monotone in it, so
each converges to the nearest equilibrium above or below it in that
order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import model, speclin
from .exceptions import ConvergenceError, DomainError
from .model import BivirusSystem, State

log = logging.getLogger(__name__)

#: Roots closer than this in infinity norm are treated as the same point.
DEDUP_RADIUS = 1e-6
#: Minimum entry / minimum distance from the x1 + x2 = 1 face for a root
#: to count as a coexistence (strictly interior) equilibrium.
INTERIOR_FLOOR = 1e-7
#: Largest infinity-norm field residual at which a Newton iterate counts
#: as a root.
NEWTON_TOL = 1e-10
#: Most damped Newton steps one start takes.
NEWTON_MAX_ITER = 80
#: Intensities a, b of the default coexistence seeds (a x1_bar, b x2_bar).
SEED_LEVELS = np.linspace(0.1, 0.9, 9)
#: Byte budget of one lockstep batch's Jacobian stack in the coexistence
#: search: all of the at most 81 seeds fit up to n = 14, then 40 at n = 20,
#: 10 at n = 40 and 1 at n = 100, so memory stays flat in n.
NEWTON_BATCH_BYTES = 512 * 1024
#: The endemic solve stops once every |F_i| is within this many ulps of
#: d_i x_i.  F_i sums two positive terms that balance at the profile, each
#: about d_i x_i, so its rounding error is a few ulps of d_i x_i.
ENDEMIC_FLOOR_ULPS = 4
#: Step from an unstable equilibrium along its Perron vector to the order
#: bounds beside it (`order_bounds`): the field's linear term there
#: outweighs its quadratic one and stays far above rounding (about 1e-8
#: against 1e-16 on the bundled cases).
ORDER_BOUND_EPS = 1e-6
#: Least nodewise gap between the endemic profiles at which the profile
#: test rules coexistence out (`coexistence_excluded`).  The proof needs
#: the exact profiles strictly ordered; the computed ones solve their
#: equations to a few ulps, so on a line of equilibria, where the exact
#: profiles coincide, they differ by about 1e-16 and rounding alone may
#: order every node.  1e-7 stays far above that rounding and far below the
#: gaps where the test matters (6.9e-3 and more on the weakly coupled
#: two-community systems of the benchmark, seeds 1-20).
PROFILE_MARGIN = 1e-7

KIND_HEALTHY = "healthy"
KIND_BOUNDARY_1 = "boundary_virus1"
KIND_BOUNDARY_2 = "boundary_virus2"
KIND_COEXISTENCE = "coexistence"

_SPECTRUM_FROM_METZLER = {
    "hurwitz": "stable",
    "unstable": "unstable",
    "singular_boundary": "singular_boundary",
}
# rho_cross - 1 is the spectral abscissa of the cross block of the
# Jacobian at a boundary equilibrium, so it is classified as one.
_VERDICT_FROM_METZLER = {
    "hurwitz": "locally_stable",
    "unstable": "unstable",
    "singular_boundary": "critical",
}
#: Boundary-test verdict -> the Jacobian class it must agree with.
VERDICT_CLASS = {_VERDICT_FROM_METZLER[k]: v
                 for k, v in _SPECTRUM_FROM_METZLER.items()}


@dataclass(frozen=True)
class Equilibrium:
    """A rest point plus its spectral classification."""

    state: State
    kind: str
    residual: float
    spectrum_class: str   # stable | unstable | singular_boundary
    abscissa: float       # rightmost real part of the Jacobian spectrum
    degenerate: bool = False  # singular_boundary, or a double root

    def coordinates(self) -> np.ndarray:
        return self.state.as_vector()


@dataclass(frozen=True)
class BoundaryVerdict:
    """Outcome of the cross-infection spectral test at a boundary
    equilibrium: rho_cross = rho((I - X_bar) B_other) decides local
    stability (< 1 stable, > 1 unstable, within the classification band
    of 1 -> critical)."""

    rho_cross: float
    verdict: str          # locally_stable | unstable | critical


@dataclass(frozen=True)
class SufficientConditions:
    """Tri-state report for the two proved coexistence-excluding dominance
    tests of `coexistence_excluded`, each one of {holds_for_virus1,
    holds_for_virus2, inconclusive}."""

    entrywise_dominance: str
    profile_dominance: str


@dataclass(frozen=True)
class LineFamily:
    """The constructed family carrying a segment of coexistence equilibria.

    z is the shared endemic profile, C fixes z with unit Perron root, and
    B2 = mu (I - Z)^{-1} C.  At mu = 1 every (alpha z, (1 - alpha) z) for
    alpha in [0, 1] is an equilibrium of the system (B1, I, B2, I).
    """

    z: np.ndarray
    C: np.ndarray
    B2: np.ndarray
    mu: float

    def line_state(self, alpha: float) -> State:
        return State(alpha * self.z, (1.0 - alpha) * self.z)


@dataclass(frozen=True)
class EnumerationResult:
    """Every equilibrium found, in the order healthy, boundary,
    coexistence.  `enumerate_equilibria` says when its two flags are set:
    `complete` only when the list provably holds every equilibrium."""

    equilibria: list[Equilibrium]
    line_degeneracy_suspected: bool = False
    complete: bool = False

    def __iter__(self):
        return iter(self.equilibria)

    def __len__(self):
        return len(self.equilibria)

    def of_kind(self, kind: str) -> list[Equilibrium]:
        return [e for e in self.equilibria if e.kind == kind]


# ---------------------------------------------------------------------------
# classification helper

def classify_state(sys: BivirusSystem, s: State):
    """(spectrum_class, abscissa) of the transformed Jacobian at s.

    Where a virus block of s is zero (the healthy state, the boundary
    equilibria) the Jacobian is block-triangular, so its abscissa is the
    larger of its two n x n diagonal blocks' abscissas.
    """
    PJP = model.transformed_jacobian(sys, s)
    if s.x1.any() and s.x2.any():
        s_val = speclin.spectral_abscissa(PJP)
    else:
        n = sys.n
        s_val = max(speclin.spectral_abscissa(PJP[:n, :n]),
                    speclin.spectral_abscissa(PJP[n:, n:]))
    return _SPECTRUM_FROM_METZLER[speclin.classify_abscissa(s_val)], s_val


def _make_equilibrium(sys, s, kind, degenerate=False):
    spectrum, absc = classify_state(sys, s)
    return Equilibrium(state=s, kind=kind, residual=model.residual(sys, s),
                       spectrum_class=spectrum, abscissa=absc,
                       degenerate=degenerate or spectrum == "singular_boundary")


# ---------------------------------------------------------------------------
# single-virus endemic profile

def single_virus_endemic(B, D, tol: float = 1e-12):
    """Endemic equilibrium of the single-virus SIS system (B, D).

    Returns None when rho(D^{-1} B) <= 1 (the virus dies out); otherwise
    the unique strictly positive profile x with -D x + (I - X) B x = 0,
    found by monotone Newton from x = 1 (see `_endemic_profile`).  The
    solve runs until its residual reaches the rounding floor or no step
    lowers it, and a profile whose residual is then still above `tol`
    raises ConvergenceError, naming that residual, rather than being
    returned.
    """
    B = speclin.require_nonnegative(B, "infection matrix")
    D = speclin.require_positive_diagonal(D, "recovery matrix")
    if not speclin.is_irreducible(B):
        raise DomainError("infection matrix must be irreducible")
    d = np.diag(D)
    if speclin.spectral_radius(B / d[:, None]) <= 1.0:
        return None
    return _endemic_profile(B, d, tol)


def _endemic_profile(B, d, tol=1e-12):
    """The solve behind `single_virus_endemic`, for a B already known to be
    nonnegative, irreducible and supercritical against the rates d.

    Damped Newton (`_newton_root`, a batch of one row) on
    F(x) = -d o x + (1 - x) o (B x), started at x = 1.  It stops at the
    rounding floor, once every |F_i| is within ENDEMIC_FLOOR_ULPS ulps of
    d_i x_i, instead of spending one more Jacobian and solve to learn that
    no step helps; should the floor not be reached, it stops when no step
    helps.  F(1) = -d < 0, so the start is a supersolution; along steps
    s <= 0 the curvature of F_i is -2 s_i (B s)_i <= 0, and the Jacobian
    (1 - x) B - diag(d + B x) is a nonsingular -M-matrix at and above the
    profile.  Every full or damped step therefore stays a supersolution at
    or above the profile, and the iterates fall monotonically to it
    however close the reproduction number is to 1 (Ortega & Rheinboldt,
    Iterative Solution of Nonlinear Equations in Several Variables, 1970,
    13.3).
    """
    diag = np.arange(len(d))

    def f(x):
        return -d * x + (1.0 - x) * (x @ B.T)

    def jac(x):
        J = (1.0 - x)[..., None] * B
        J[..., diag, diag] -= d + x @ B.T
        return J

    def rounding_floor(x):
        return ENDEMIC_FLOOR_ULPS * np.finfo(float).eps * d * x

    (x,), (rnorm,), _ = _newton_root(f, jac, np.ones((1, len(d))),
                                     rounding_floor)
    if not rnorm <= tol:
        raise ConvergenceError(f"endemic Newton stalled at residual "
                               f"{rnorm:.3e} > tol {tol:.1e}", iterate=x)
    if (x <= 0).any() or (x >= 1).any():
        raise ConvergenceError("endemic profile left (0, 1)", iterate=x)
    return x


@dataclass(frozen=True)
class Analysis:
    """What every analysis below starts from; build it with `analysis`.
    Its boundary verdicts and dominance tests are computed once, on use."""

    system: BivirusSystem  # the validated system as given
    ns: BivirusSystem      # its recovery-normalized copy
    R: tuple               # (R1, R2)
    bars: tuple            # (x1_bar, x2_bar); None where Ri <= 1

    @cached_property
    def boundary(self):
        """The verdicts of `boundary_stability`."""
        rhos = [None if xbar is None else
                speclin.spectral_radius((1.0 - xbar)[:, None] * B_other)
                for xbar, B_other in zip(self.bars, (self.ns.B2, self.ns.B1))]
        return tuple(None if rho is None else BoundaryVerdict(
            rho, _VERDICT_FROM_METZLER[speclin.classify_abscissa(rho - 1.0)])
            for rho in rhos)

    @cached_property
    def dominance(self):
        """`_dominance_tests` of this Analysis."""
        return _dominance_tests(self)


def analysis(sys: BivirusSystem | Analysis) -> Analysis:
    """The `Analysis` of sys, validated once (`model.validate`); an
    Analysis is returned unchanged."""
    if isinstance(sys, Analysis):
        return sys
    model.validate(sys)
    ns = model.normalize_recovery(sys)
    rs = model.reproduction_numbers(ns)
    ones = np.ones(ns.n)
    bars = tuple(_endemic_profile(B, ones) if r > 1.0 else None
                 for r, B in zip(rs, (ns.B1, ns.B2)))
    return Analysis(sys, ns, rs, bars)


# ---------------------------------------------------------------------------
# boundary equilibria

def boundary_stability(sys: BivirusSystem | Analysis):
    """(verdict for (x1_bar, 0), verdict for (0, x2_bar)).

    Each entry is a BoundaryVerdict, or None when the corresponding virus
    is subcritical so that its boundary equilibrium does not exist.  The
    system is recovery-normalized internally (equilibria and their
    stability are unchanged by that).
    """
    return analysis(sys).boundary


def _dominance(a, b) -> bool:
    """Entrywise a >= b with at least one strict inequality."""
    return bool((a >= b).all() and (a > b).any())


def _tri(wins2, wins1):
    if wins2:
        return "holds_for_virus2"
    if wins1:
        return "holds_for_virus1"
    return "inconclusive"


def _dominance_tests(a):
    """{test: (verdict, margin)} of the two proved dominance tests on the
    Analysis a, whose viruses are both supercritical.  The entrywise margin
    is the largest entry gap between the normalized rates; the profile
    margin is the least nodewise gap by which one profile exceeds the other
    (at most 0 when neither is higher at every node), and its verdict names
    the virus whose profile is higher by more than PROFILE_MARGIN at every
    node."""
    B1, B2 = a.ns.B1, a.ns.B2
    gap = a.bars[1] - a.bars[0]
    return {
        "entrywise_dominance": (_tri(_dominance(B2, B1), _dominance(B1, B2)),
                                float(np.abs(B1 - B2).max())),
        "profile_dominance": (_tri(gap.min() > PROFILE_MARGIN,
                                   -gap.max() > PROFILE_MARGIN),
                              float(max(gap.min(), -gap.max()))),
    }


def _exclusion(a):
    """(test, margin) of the first test that rules coexistence out on the
    Analysis a, or None when none does.  The margin is 1 - min(R) for a
    subcritical virus and the `_dominance_tests` margin otherwise."""
    if any(bar is None for bar in a.bars):
        return "subcritical virus", 1.0 - min(a.R)
    for test, (verdict, margin) in a.dominance.items():
        if verdict != "inconclusive":
            return test, margin
    return None


def coexistence_excluded(sys: BivirusSystem | Analysis) -> bool:
    """Whether the system provably has no coexistence equilibrium, by one
    of three tests on the recovery-normalized rates B1, B2 (hats dropped)
    and the endemic profiles x1_bar, x2_bar:

    - a virus is subcritical: no equilibrium carries it;
    - entrywise dominance, B1 >= B2 with B1 != B2 (or the reverse);
    - strict profile dominance, x1_bar > x2_bar + PROFILE_MARGIN at every
      node (or the reverse).

    *Entrywise.*  A coexistence point c = (c1, c2) has s = 1 - c1 - c2 > 0
    and c1 = S B1 c1, c2 = S B2 c2 with S = diag(s) and c1, c2 > 0, so
    rho(S B1) = rho(S B2) = 1 (a positive eigenvector of an irreducible
    nonnegative matrix belongs to its Perron root).  But S B1 >= S B2,
    S B1 != S B2 and S B2 irreducible give rho(S B1) > rho(S B2).

    *Strict profiles.*  Let x1_bar > x2_bar at every node and let c be a
    coexistence point.  Write y = c1 + c2, r = c1 / x1_bar with its least
    entry at node i, and q = c2 / x2_bar with its greatest entry at node
    l.  Comparing c1 = (1 - y) o B1 c1, where c1 >= r_i x1_bar, with
    x1_bar = (1 - x1_bar) o B1 x1_bar at node i gives y_i >= x1_bar_i;
    the same comparison for virus 2 at node l, where c2 <= q_l x2_bar,
    gives y_l <= x2_bar_l.  Also r < 1 and q < 1: at the node m where r is
    largest the comparison gives y_m <= x1_bar_m, so r_m >= 1 would leave
    c2_m = y_m - r_m x1_bar_m <= 0, and likewise for q.  Then
    q_l >= q_i = (y_i - c1_i) / x2_bar_i >= (1 - r_i) x1_bar_i / x2_bar_i
    > 1 - r_i, and r_i <= r_l = (y_l - c2_l) / x1_bar_l
    <= (1 - q_l) x2_bar_l / x1_bar_l <= 1 - q_l < r_i, a contradiction.

    The profiles are computed, not exact, so the profile test asks for a
    gap above PROFILE_MARGIN; the entrywise test compares the normalized
    rates exactly, as `sufficient_conditions` does.
    """
    return _exclusion(analysis(sys)) is not None


def sufficient_conditions(sys: BivirusSystem | Analysis) -> SufficientConditions:
    """The verdicts of the two dominance tests of `coexistence_excluded`,
    proved there, in both virus orderings on the recovery-normalized rates;
    `enumerate_equilibria` runs no coexistence search when either holds.
    `profile_dominance` asks for a gap above PROFILE_MARGIN at every node,
    so on a line of equilibria, whose two profiles differ only by rounding,
    it reads inconclusive.

    Requires both viruses supercritical (each boundary equilibrium must
    exist for the comparisons to mean anything).
    """
    a = analysis(sys)
    if any(bar is None for bar in a.bars):
        raise DomainError("sufficient_conditions needs R1 > 1 and R2 > 1")
    return SufficientConditions(
        **{test: verdict for test, (verdict, _) in a.dominance.items()})


# ---------------------------------------------------------------------------
# coexistence equilibria, n = 2 analytic route

def solve_coexistence_n2(sys: BivirusSystem | Analysis):
    """All coexistence equilibria of a two-node system, analytically.

    Writing alpha = x1_2/x1_1 and gamma = x2_2/x2_1, the equilibrium
    equations force

        b1_11 + b1_12 alpha = b2_11 + b2_12 gamma
        b1_21 / alpha + b1_22 = b2_21 / gamma + b2_22

    (rates recovery-normalized).  Eliminating gamma leaves a quadratic in
    alpha, so there are at most two interior equilibria; each real root is
    completed through two susceptible fractions s1, s2 and a 2x2 linear
    solve, and kept only if strictly interior.
    """
    return _coexistence_n2(analysis(sys))[0]


def _coexistence_n2(a):
    """(equilibria, complete) for `solve_coexistence_n2` on the Analysis a.

    complete says that the list holds every coexistence equilibrium: the
    quadratic neither vanishes, nor loses its leading coefficient, nor has
    a double root, and every real root it drops lies outside the feasible
    set: a negative ratio alpha or gamma (beyond 1e-12), or a state more
    than INTERIOR_FLOOR outside.  A root dropped for any other reason (a
    state within INTERIOR_FLOOR of the boundary, say, or a failed residual
    check) and a root merged by dedup leave it False."""
    if a.system.n != 2:
        raise DomainError("analytic coexistence solver requires n = 2")
    ns = a.ns
    b1 = ns.B1
    b2 = ns.B2
    scale = max(b1.max(), b2.max())

    qa = b1[0, 1] * (b1[1, 1] - b2[1, 1])
    qb = (b1[1, 0] * b1[0, 1]
          + (b1[1, 1] - b2[1, 1]) * (b1[0, 0] - b2[0, 0])
          - b2[0, 1] * b2[1, 0])
    qc = b1[1, 0] * (b1[0, 0] - b2[0, 0])

    degenerate_root = False
    complete = True
    if abs(qa) <= 1e-12 * scale**2:
        if abs(qb) <= 1e-12 * scale**2:
            log.debug("coexistence quadratic vanished identically")
            return [], False
        roots = [-qc / qb]
        complete = False
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc < -1e-12 * scale**4:
            return [], True
        if abs(disc) <= 1e-12 * scale**4:
            roots = [-qb / (2.0 * qa)]
            degenerate_root = True
            complete = False
        else:
            sq = np.sqrt(disc)
            roots = [(-qb + sq) / (2.0 * qa), (-qb - sq) / (2.0 * qa)]

    found = []
    for alpha in roots:
        if not np.isfinite(alpha) or alpha <= 1e-12:
            log.debug("root rejected: alpha = %r out of range", alpha)
            complete &= bool(alpha < -1e-12)
            continue
        if abs(b2[0, 1]) > 1e-12 * scale:
            gamma = (b1[0, 0] + b1[0, 1] * alpha - b2[0, 0]) / b2[0, 1]
        else:
            denom = b1[1, 0] / alpha + b1[1, 1] - b2[1, 1]
            if abs(denom) <= 1e-12 * scale:
                log.debug("root rejected: gamma unrecoverable at alpha=%g", alpha)
                complete = False
                continue
            gamma = b2[1, 0] / denom
        if not np.isfinite(gamma) or gamma <= 1e-12:
            log.debug("root rejected: gamma = %r out of range", gamma)
            complete &= bool(gamma < -1e-12)
            continue

        s1 = 1.0 / (b1[0, 0] + b1[0, 1] * alpha)
        s2 = 1.0 / (b1[1, 0] / alpha + b1[1, 1])
        det = gamma - alpha
        if abs(det) <= 1e-10 * (1.0 + abs(alpha) + abs(gamma)):
            log.debug("root rejected: ratio directions coincide "
                      "(alpha = gamma = %g); line of equilibria suspected", alpha)
            complete = False
            continue
        x1_1 = (gamma * (1.0 - s1) - (1.0 - s2)) / det
        x2_1 = ((1.0 - s2) - alpha * (1.0 - s1)) / det
        x1 = np.array([x1_1, alpha * x1_1])
        x2 = np.array([x2_1, gamma * x2_1])
        s = State(x1, x2)
        if not model.is_strictly_interior(s, INTERIOR_FLOOR):
            complete &= not model.in_feasible_set(s, INTERIOR_FLOOR)
            continue
        if model.residual(ns, s) > 1e-8 * max(1.0, scale):
            log.debug("root rejected: residual check failed")
            complete = False
            continue
        found.append(s)

    kept = _dedup(found)
    return ([_make_equilibrium(a.system, s, KIND_COEXISTENCE,
                               degenerate=degenerate_root) for s in kept],
            complete and len(kept) == len(found))


# ---------------------------------------------------------------------------
# coexistence equilibria, general-n Newton search

def default_seed_grid(sys: BivirusSystem | Analysis) -> np.ndarray:
    """Seed states (a * x1_bar, b * x2_bar) for a, b in SEED_LEVELS that lie
    in the feasible set, respecting the geometry equilibria are expected
    to have, as the rows (x1, x2) of one (m, 2n) array, a outer and b
    inner.  Empty when either virus is subcritical (no coexistence is
    possible then).

    The seed a = b = 0.5 is a singular point of the Newton Jacobian J of
    the recovery-normalized field on every system: J u = 0 for
    u = (x1_bar, -x2_bar).  At x = (x1_bar / 2, x2_bar / 2) the first
    block of J u is -x1_bar + (1 - x1 - x2 - x1 + x2) o (B1 x1_bar)
    = -x1_bar + (1 - x1_bar) o (B1 x1_bar), which is 0 because the profile
    solves x_bar = (1 - x_bar) o (B x_bar); the second block is its mirror
    image.  Newton's first step from that seed is therefore a
    least-squares step (`_newton_steps`)."""
    a = analysis(sys)
    x1bar, x2bar = a.bars
    if x1bar is None or x2bar is None:
        return np.empty((0, 2 * a.system.n))
    x1, x2 = np.broadcast_arrays(SEED_LEVELS[:, None, None] * x1bar,
                                 SEED_LEVELS[None, :, None] * x2bar)
    feasible = ((x1 >= 0.0) & (x2 >= 0.0) & (x1 + x2 <= 1.0)).all(axis=-1)
    return np.concatenate([x1, x2], axis=-1)[feasible]


def _ball_radius(J, lipschitz):
    """Radius of the ball around a root with Jacobian J from which Newton
    provably converges to that root: 1 / (2 beta L) with beta the infinity
    norm of J^-1 and L the Lipschitz constant of the Jacobian (Dennis &
    Schnabel, Numerical Methods for Unconstrained Optimization and
    Nonlinear Equations, Thm 5.2.1).  0 when J is singular."""
    try:
        beta = np.linalg.norm(np.linalg.inv(J), np.inf)
    except np.linalg.LinAlgError:
        return 0.0
    if not np.isfinite(beta):
        return 0.0
    return 1.0 / (2.0 * beta * lipschitz)


class _KnownRoots:
    """Roots of the field of the normalized system ns found so far, each
    with the radius of its certified Newton convergence ball and the sign
    of det J, read off the Jacobian the radius is built from.  Newton from
    inside a ball can only end at that ball's root, so an iterate there
    needs no further steps.  Starts with the healthy state and each
    boundary equilibrium whose profile in `bars` exists."""

    def __init__(self, ns, bars, jac):
        self._jac = jac
        # f is quadratic, so J is affine in the state: row i of
        # J(v) - J(w) has infinity norm at most 4 (row sum i of B1 or B2)
        # ||v - w||_inf, hence this infinity-norm Lipschitz constant.
        self._lipschitz = 4.0 * max(ns.B1.sum(axis=1).max(),
                                    ns.B2.sum(axis=1).max())
        self.centres = np.empty((0, 2 * ns.n))
        self.radii = np.empty(0)
        self.signs = np.empty(0)   # sign det J at each centre
        x1bar, x2bar = bars
        zero = np.zeros(ns.n)
        self.add(np.zeros(2 * ns.n))
        if x1bar is not None:
            self.add(np.concatenate([x1bar, zero]))
        if x2bar is not None:
            self.add(np.concatenate([zero, x2bar]))

    def add(self, v):
        if (np.abs(self.centres - v).max(axis=1) <= DEDUP_RADIUS).any():
            return
        J = self._jac(v)
        self.centres = np.vstack([self.centres, v])
        self.radii = np.append(self.radii, _ball_radius(J, self._lipschitz))
        self.signs = np.append(self.signs, np.linalg.slogdet(J)[0])

    def contains(self, V):
        """Whether each row of V lies inside a ball."""
        dist = np.abs(V[:, None, :] - self.centres).max(axis=-1)
        return (dist < self.radii).any(axis=-1)


def _newton_steps(J, r):
    """The Newton steps -J^-1 r of a stack of rows, by one stacked solve.

    A row whose step is not finite or exceeds 1e6 in some entry takes the
    least-squares step instead.  A singular J makes the stacked solve
    raise; the rows are then solved one by one, so only the singular ones
    fall back."""
    try:
        steps = np.linalg.solve(J, -r[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.full_like(r, np.nan)
        for i in range(len(r)):
            try:
                steps[i] = np.linalg.solve(J[i], -r[i])
            except np.linalg.LinAlgError:
                pass
    if not np.abs(steps).max() <= 1e6:   # a NaN compares False too
        for i in np.flatnonzero(~(np.abs(steps).max(axis=-1) <= 1e6)):
            steps[i] = np.linalg.lstsq(J[i], -r[i], rcond=None)[0]
    return steps


def _line_search(f, v, r, rnorm, steps):
    """Backtracking on each row: the largest of 1, 1/2, 1/4, ... >= 1e-4
    times its step that strictly lowers its residual norm.  Each halving
    round is one f call over the rows still searching.  Returns the new
    (v, r, rnorm) and a mask of the rows that no step lowered, which keep
    their old values (False when every row took its full step)."""
    trial = v + steps
    r_try = f(trial)
    n_try = np.abs(r_try).max(axis=-1)
    better = n_try < rnorm
    if better.all():
        return trial, r_try, n_try, False
    v = np.where(better[:, None], trial, v)
    r = np.where(better[:, None], r_try, r)
    rnorm = np.where(better, n_try, rnorm)
    searching = np.flatnonzero(~better)
    lam = 0.5
    while searching.size and lam >= 1e-4:
        trial = v[searching] + lam * steps[searching]
        r_try = f(trial)
        n_try = np.abs(r_try).max(axis=-1)
        better = n_try < rnorm[searching]
        done = searching[better]
        v[done], r[done] = trial[better], r_try[better]
        rnorm[done] = n_try[better]
        searching = searching[~better]
        lam *= 0.5
    stagnated = np.zeros(len(v), dtype=bool)
    stagnated[searching] = True
    return v, r, rnorm, stagnated


def _newton_root(f, jac, v0, tol, known=None):
    """Damped Newton in lockstep over the rows of v0, one start per row.

    f maps rows of shape (m, k) to their residuals and jac to their
    Jacobians, shape (m, k, k).  Each iteration assembles the Jacobians
    of every row still running as one stack, solves them together
    (`_newton_steps`) and runs the line search of every row together
    (`_line_search`).  A row stops when
    - it has converged: every entry of |f| is at most the same entry of
      tol(row), an array (or scalar) of entrywise bounds;
    - it lies in the ball of a root of `known` (a _KnownRoots), checked
      before every step;
    - no step lowers its residual (it stagnated);
    - or it has taken NEWTON_MAX_ITER steps.
    A converged row joins `known` at once, so rows still running retire
    in its ball.  Returns the final rows, the infinity norms of their
    residuals and a mask of the rows that stopped in a ball.
    """
    v = np.array(v0, dtype=float)
    r = f(v)
    rnorm = np.abs(r).max(axis=-1)
    # every row's final state, filled in as the row stops
    V, rnorm_out = np.empty_like(v), np.empty_like(rnorm)
    in_ball = np.zeros(len(v), dtype=bool)
    rows = np.arange(len(v))   # the output positions of the running rows
    stagnated = False
    for it in range(NEWTON_MAX_ITER + 1):
        done = (np.abs(r) <= tol(v)).all(axis=-1)
        stop = done | stagnated
        if known is not None:
            ball = known.contains(v)
            stop |= ball
        if stop.any():
            if known is not None:
                in_ball[rows] = ball
                for i in np.flatnonzero(done & ~ball):
                    known.add(v[i])
            V[rows[stop]], rnorm_out[rows[stop]] = v[stop], rnorm[stop]
            keep = ~stop
            rows, v, r, rnorm = rows[keep], v[keep], r[keep], rnorm[keep]
            if not rows.size:
                break
        if it == NEWTON_MAX_ITER:
            V[rows], rnorm_out[rows] = v, rnorm
            break
        steps = _newton_steps(jac(v), r)
        v, r, rnorm, stagnated = _line_search(f, v, r, rnorm, steps)
    return V, rnorm_out, in_ball


def _polish(f, jac, v):
    """The roots v (one per row), each moved by one full Newton step where
    that lowers its residual norm.  A root accepted at NEWTON_TOL is fixed
    only to about ||J^-1|| NEWTON_TOL, so without the step the seed that
    reached it first would decide its trailing digits."""
    if not len(v):
        return v
    r = f(v)
    trial = v + _newton_steps(jac(v), r)
    better = np.abs(f(trial)).max(axis=-1) < np.abs(r).max(axis=-1)
    return np.where(better[:, None], trial, v)


def _index_check(a, known, fixed, roots):
    """(index sum, expected sum, outcome) of the index identity on the
    Analysis a: sign det(-J) = sign det J summed over the coexistence
    points equals -(i1 + i2) / 2, with i = +1 for a stable boundary
    equilibrium and -1 for an unstable one.  The sum runs over the
    deduplicated `roots`, each signed as its nearest centre of `known`.
    outcome is "closed", "critical boundary" (a verdict is critical or
    absent; no expected sum), "singular root" (a ball of radius 0) or
    "mismatch", which a root nearest the first `fixed` centres reads too."""
    V = np.array([s.as_vector() for s in _dedup(roots)])
    V = V.reshape(-1, 1, known.centres.shape[1])
    near = np.abs(V - known.centres).max(axis=-1).argmin(axis=-1)
    total = int(known.signs[near].sum())
    iota = [{"locally_stable": 1, "unstable": -1}.get(
        getattr(v, "verdict", None)) for v in a.boundary]
    if None in iota:
        return total, None, "critical boundary"
    expected = -(iota[0] + iota[1]) // 2
    if (known.radii[near] == 0.0).any():
        return total, expected, "singular root"
    if total != expected or (near < fixed).any():
        return total, expected, "mismatch"
    return total, expected, "closed"


def find_coexistence_newton(sys: BivirusSystem | Analysis, seeds=None):
    """Coexistence equilibria by damped Newton from a family of seeds:
    `seeds` (States or flat vectors), or `default_seed_grid` when None.

    The seeds run through `_newton_root` in lockstep batches, as many per
    batch as keep its Jacobian stack within NEWTON_BATCH_BYTES.  The
    default grid runs in two stages: its seeds at the levels
    SEED_LEVELS[::4] of both intensities (at most 9, spread over the
    grid), then the rest in grid order.  After stage 1 and after every
    later batch the search stops if the index identity closes on the
    roots found (`_index_check`).  That is a stopping rule, not a proof:
    roots whose indices cancel can remain unfound, so the result is not
    complete.  Where the identity is undefined (a critical boundary, or a
    singular root, as on a line) every seed runs, as explicit `seeds` do.

    A seed converges when its residual falls to NEWTON_TOL, and its root
    then takes one more full Newton step if that lowers the residual
    (`_polish`).  Roots are kept only when strictly interior (so the
    all-or-nothing zero pattern of genuine equilibria is respected),
    deduplicated at DEDUP_RADIUS after a lexicographic sort.  A seed whose
    iterate enters the certified convergence ball of a known root (the
    healthy state, a boundary equilibrium, or any root reached so far) is
    retired: it could only end at that root.  The DEBUG log counts the
    seeds run, converged, retired and failed, and gives the identity's
    outcome; a seed with a NaN or infinite entry raises DomainError.  On a
    line of equilibria the Jacobians are singular, so no seed retires
    there; the returned points are many and carry spectrum_class ==
    'singular_boundary'.
    """
    a = analysis(sys)
    ns = a.ns
    k = 2 * ns.n
    if seeds is None:
        starts = default_seed_grid(a)
    else:
        starts = np.array([s.as_vector() if isinstance(s, State) else s
                           for s in seeds], dtype=float).reshape(len(seeds), k)
    if not np.isfinite(starts).all():
        raise DomainError("newton seed has a NaN or infinite entry")
    staged = len(starts)       # the seeds that run before the first check
    if seeds is None and staged:     # stage 1 first: levels SEED_LEVELS[::4]
        levels = starts[:, [0, ns.n]] / [a.bars[0][0], a.bars[1][0]]
        first = np.isclose(levels[..., None], SEED_LEVELS[::4]).any(-1).all(-1)
        starts = starts[np.argsort(~first, kind="stable")]
        staged = int(first.sum())
    f = model.field(ns)
    jac_rows = 0

    # Damped Newton accepts only steps that strictly lower a finite
    # residual, so iterates from a finite seed stay finite and the
    # Jacobian needs no containment check.
    def jac(v):
        nonlocal jac_rows
        jac_rows += v.size // k
        return model.jacobian(ns, v)

    known = _KnownRoots(ns, a.bars, jac)
    fixed = len(known.centres)
    step = max(1, NEWTON_BATCH_BYTES // (8 * k * k))
    bounds = [*range(0, staged, step), *range(staged, len(starts), step),
              len(starts)]
    roots = []
    converged = retired = ran = 0
    check = _index_check(a, known, fixed, roots)
    for lo, ran in zip(bounds, bounds[1:]):
        v, rnorm, in_ball = _newton_root(f, jac, starts[lo:ran],
                                         lambda v: NEWTON_TOL, known)
        root = ~in_ball & (rnorm <= NEWTON_TOL)
        converged += int(root.sum())
        retired += int(in_ball.sum())
        roots += [s for s in map(State.from_vector, _polish(f, jac, v[root]))
                  if model.is_strictly_interior(s, INTERIOR_FLOOR)]
        if ran >= staged:
            check = _index_check(a, known, fixed, roots)
            if check[2] == "closed":
                break
    log.debug("newton search: %d of %d seeds run (%d converged, %d "
              "retired, %d failed), %d Jacobian rows; ball radii %.3g to "
              "%.3g; index sum %d, expected %s: %s", ran, len(starts),
              converged, retired, ran - converged - retired, jac_rows,
              known.radii.min(), known.radii.max(), *check)
    return [_make_equilibrium(a.system, s, KIND_COEXISTENCE)
            for s in _dedup(roots)]


def _dedup(states):
    """States sorted lexicographically, dropping any within DEDUP_RADIUS
    (infinity norm) of one already kept."""
    out = []
    for v in sorted((s.as_vector() for s in states), key=tuple):
        if all(np.max(np.abs(v - kept)) > DEDUP_RADIUS for kept in out):
            out.append(v)
    return [State.from_vector(v) for v in out]


# ---------------------------------------------------------------------------
# full enumeration

def enumerate_equilibria(sys: BivirusSystem | Analysis,
                         newton_seeds=None) -> EnumerationResult:
    """Assemble and classify every equilibrium: the healthy state, each
    boundary equilibrium that exists, and the coexistence set.  No
    coexistence search runs, at any n, when `coexistence_excluded` holds;
    otherwise the set comes from the analytic quadratic for n = 2 and from
    seeded Newton (`find_coexistence_newton`) for n > 2, from
    `newton_seeds` when given and from `default_seed_grid` when None.  An
    empty `newton_seeds` runs no Newton search: `find_coexistence_newton`
    is not called, and at n > 2 the list holds the healthy and boundary
    equilibria alone (the n = 2 route and an excluded coexistence need no
    seeds).  The DEBUG log names the test that ruled coexistence out and
    its margin.

    `line_degeneracy_suspected` is set when any equilibrium sits on the
    singular boundary of the classification band.  That is the numerical
    signature of the nongeneric line-of-equilibria construction, but a
    critical boundary equilibrium raises it too, line or not: at a
    transcritical switch, where rho_cross of a boundary equilibrium passes
    1 (case2 with B2 scaled to c* +- 1e-10, say), the flag reads True on
    a system that has no line.

    `complete` is True when the list provably holds every equilibrium:
    no equilibrium is on the singular boundary, and either coexistence is
    excluded (so there is nothing to search for) or n = 2 and the analytic
    route accounted for every real root of its quadratic
    (`_coexistence_n2`).  A root that route drops for lying within
    INTERIOR_FLOOR of the boundary leaves it False, and so does the Newton
    route, which may miss roots even once its index identity closes.
    """
    a = analysis(sys)
    sys, (x1bar, x2bar) = a.system, a.bars
    n = sys.n

    items = [_make_equilibrium(sys, State.zero(n), KIND_HEALTHY)]
    if x1bar is not None:
        items.append(_make_equilibrium(sys, State(x1bar, np.zeros(n)),
                                       KIND_BOUNDARY_1))
    if x2bar is not None:
        items.append(_make_equilibrium(sys, State(np.zeros(n), x2bar),
                                       KIND_BOUNDARY_2))
    complete = True
    excluded = _exclusion(a)
    if excluded is not None:
        log.debug("coexistence excluded by %s (margin %.3g): no coexistence "
                  "search", *excluded)
    elif n == 2:
        coexistence, complete = _coexistence_n2(a)
        items.extend(coexistence)
    else:
        complete = False
        if newton_seeds is None or len(newton_seeds):
            items.extend(find_coexistence_newton(a, seeds=newton_seeds))

    degenerate = any(e.degenerate for e in items)
    return EnumerationResult(equilibria=items,
                             line_degeneracy_suspected=degenerate,
                             complete=complete and not degenerate)


def order_bounds(sys: BivirusSystem, eqs, f):
    """Points of the feasible set whose orbits are monotone in the order,
    as (w, side) pairs: the orbit of w rises (side +1) or falls (side -1)
    and converges to the <=K-least equilibrium above w (the greatest below
    it).  f is the field of sys (`model.field`).

    Beside each unstable equilibrium c of `eqs` whose transformed Jacobian
    M = P J(c) P, P = diag(I, -I), has a strictly positive Perron vector
    p: w = c + side ORDER_BOUND_EPS P p, kept when it is feasible and its
    field lies strictly inside the cone (side +1) or its negative (side
    -1).  Such an orbit is monotone (Smith, Monotone Dynamical Systems,
    AMS 1995, Prop. 3.2.1; Hirsch, J. reine angew. Math. 383, 1988), so it
    converges to an equilibrium, which the flow's order keeps below every
    equilibrium above w.  Then the corners: the field at (1, 0) is exactly
    (-d1, 0), in the closed negative cone, so (1, 0) falls, and the field
    at (0, 1) is exactly (0, -d2), in the closed cone, so (0, 1) rises."""
    n = sys.n
    cone = np.repeat([1.0, -1.0], n)    # the diagonal of P
    bounds = []
    for e in eqs:
        if e.spectrum_class != "unstable":
            continue
        # One step of inverse iteration from 1 at a shift mu just right of
        # M's rightmost eigenvalue: (mu I - M)^-1 >= 0 maps 1 along the
        # Perron vector.  (np.linalg.eig's first call would raise a
        # process's peak RSS by about 0.13 MB.)
        M = model.transformed_jacobian(sys, e.state)
        mu = speclin.spectral_abscissa(M) + 1e-8 * np.abs(M).max()
        try:
            p = np.linalg.solve(mu * np.eye(2 * n) - M, np.ones(2 * n))
        except np.linalg.LinAlgError:
            continue
        if not (p > 0.0).all():
            continue
        p /= p.sum()
        for side in (1.0, -1.0):
            w = e.coordinates() + side * ORDER_BOUND_EPS * cone * p
            if (model.in_feasible_set(State.from_vector(w), 0.0)
                    and (side * cone * f(w) > 0.0).all()):
                bounds.append((w, side))
    ones, zero = np.ones(n), np.zeros(n)
    return bounds + [(np.concatenate([ones, zero]), -1.0),
                     (np.concatenate([zero, ones]), 1.0)]


# ---------------------------------------------------------------------------
# line-of-equilibria construction

def construct_equilibrium_line(B1, mu: float = 1.0, c_matrix=None,
                               blend_weight: float = 1.0):
    """Build a system whose coexistence set is a line segment (at mu = 1).

    Given a supercritical B1 (unit recovery rates), let z be its endemic
    profile and pick a nonnegative irreducible C fixing z (C z = z, so
    rho(C) = 1 with Perron vector z).  Then B2 = mu (I - Z)^{-1} C.  At
    mu = 1 every (alpha z, (1 - alpha) z), alpha in [0, 1], is an
    equilibrium of (B1, I, B2, I); for mu < 1 the endpoint (z, 0) is
    locally stable and for mu > 1 it is a saddle.

    c_matrix=None uses the rank-one choice C = z q^T with q = z / (z.z).
    Otherwise C is the convex blend `blend_weight * c_matrix +
    (1 - blend_weight) * rank_one`, row-rescaled so that C z = z holds
    exactly; the result must come out nonnegative and irreducible.
    """
    B1 = speclin.require_nonnegative(B1, "B1")
    if not speclin.is_irreducible(B1):
        raise DomainError("B1 must be irreducible")
    if not 0.0 < mu < np.inf:
        raise DomainError(f"mu must be finite and positive, got {mu:g}")
    n = B1.shape[0]
    eye = np.eye(n)
    if speclin.spectral_radius(B1) <= 1.0:
        raise DomainError("B1 is subcritical: no endemic profile to build on")

    z = single_virus_endemic(B1, eye, tol=1e-13)
    rank_one = np.outer(z, z / float(z @ z))
    if c_matrix is None:
        C = rank_one
    else:
        M = speclin.require_nonnegative(c_matrix, "c_matrix")
        if M.shape != (n, n):
            raise DomainError("c_matrix dimension mismatch")
        if not 0.0 <= blend_weight <= 1.0:
            raise DomainError("blend_weight must lie in [0, 1]")
        blend = blend_weight * M + (1.0 - blend_weight) * rank_one
        w = blend @ z
        if (w <= 0).any():
            raise DomainError("blended C cannot be rescaled to fix z "
                              "(zero row against z)")
        C = (z / w)[:, None] * blend
        if not speclin.is_irreducible(C):
            raise DomainError("constructed C is reducible")

    fix_err = float(np.max(np.abs(C @ z - z)))
    if fix_err > 1e-10 * max(1.0, float(np.max(z))):
        raise DomainError(f"constructed C does not fix z (error {fix_err:g})")

    B2 = mu * np.linalg.solve(eye - np.diag(z), C)
    system = BivirusSystem(B1, eye, B2, eye)
    family = LineFamily(z=z, C=C, B2=B2, mu=mu)
    return system, family
