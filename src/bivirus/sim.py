"""Trajectory integration and the monotone-order simulation harness.

The bivirus flow preserves the orthant order "x1 up, x2 down", so two
trajectories started at extreme corners of the feasible set bound every
interior trajectory for all time.  Integrating just those two corners
therefore certifies global behaviour: if they reach a common limit, every
interior initial condition shares it; if they split, an unstable
equilibrium must sit inside the hyperrectangle spanned by the two limits.

Every run goes through one Dormand-Prince 5(4) stepper that advances a
batch of starts in lockstep: `integrate` is a batch of one, the sandwich
corners are a batch of two and `basin_probe` runs its whole grid as one
batch.  `integrate` and `sandwich_test` step at tolerances `RTOL` and
`ATOL`, since their trajectories and limits are outputs; `basin_probe`
reports labels, so it steps at a tolerance derived from the distances
those resolve (`PROBE_TOL_SHARE`).  Each start keeps its own error test,
containment check and stop rule; sharing the step size means a batched
start may end within about the stepper tolerance of where a lone run
would.
The exact flow keeps the feasible set invariant, so the containment check
only watches for drift: an accepted state within `model.CONTAINMENT_TOL`
of it passes untouched, and one beyond aborts the run.

One rule (`_stop_rule`) decides whether a run converged: at a record,
its field residual is at most `stop_tol` times the system's largest
recovery rate and its state has stopped drifting over a trailing window.
The residual is measured in units of the fastest recovery, so rescaling
every rate (time) leaves the verdict unchanged.  A run the rule stops is
`converged`; a run that reaches t_end unstopped is `budget_exhausted`.
With `stop_tol=None` a run goes on to t_end and the same rule, at
`DEFAULT_STOP_TOL`, judges its final record alone.

A batch run also retires early, at t = 0 or at a later record mark,
once its limit is certified; it then reports that equilibrium as its
limit, bitwise.  The
certificate (`_AttractionBalls`) has three parts.  The first is a ball of
attraction around an equilibrium e (`_attraction_ball`, from the
logarithmic norm of the Metzler transformed Jacobian): a run within half
its radius converges to e.  The second is the order: when a run retires
to e, every state recorded on its path flows to e too, and a running
state y bracketed by two such points, z_lo <=K y <=K z_hi, stays between
their flows for all time (Kamke; Hirsch, J. reine angew. Math. 383,
1988; Smith, Monotone Dynamical Systems, AMS 1995) and so converges to
e as well.  Both parts rest on the same evidence, a numerical run that
entered a half ball, so path retirement is exactly as rigorous as ball
retirement.  The third part orders the equilibria themselves and needs
a list known to hold every one of them (`EnumerationResult.complete`).
Beside an unstable equilibrium c, the point w+ = c + eps P p along the
Perron vector p of the transformed Jacobian, P = diag(I, -I), has its
field inside the cone, so its orbit rises monotonically to the
<=K-least equilibrium above it (Smith, Prop. 3.2.1; Hirsch 1988), and
w- falls to the greatest one below.  Such order bounds
(`equilibria.order_bounds`) bracket states the way path points do.
One constructor builds the certificate from a list of equilibria and
adds the order bounds when the list is a complete `EnumerationResult`.
`basin_probe` hands it the equilibria it is given, and `sandwich_test`
hands it the equilibria that need no Newton search (`Analysis.direct`).
Retirement has one path, the stop rule, which the stepper consults at
t = 0 as well as at every later record: a start held at t = 0 retires
there with a one-record trajectory.  On case2 the corners (1, 0) and
(0, 1) and the bounds beside the saddle bracket both sandwich corners,
so neither takes a step.  `integrate` returns whole trajectories, so it
never retires.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import equilibria, model, speclin
from .exceptions import DomainError, IntegrationError
from .equilibria import Analysis, EnumerationResult, analysis
from .model import BivirusSystem, State

log = logging.getLogger(__name__)

# Dormand-Prince 5(4) embedded pair (the field is autonomous, so the
# stage times c_i are not needed).  The last stage point is the 5th-order
# solution itself, so its slope starts the next step (FSAL).
_DP_A = [
    np.array([], dtype=float),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                    22 / 525, -1 / 40])

#: Relative and absolute error tolerances of `integrate` and
#: `sandwich_test`, whose trajectories and limits are outputs, and the
#: tightest a basin probe ever steps at.
RTOL = 1e-9
ATOL = 1e-12

DEFAULT_ETA = 1e-3
DEFAULT_T_END = 2000.0
DEFAULT_STOP_TOL = 1e-9
#: An integrated state counts as at an equilibrium within this infinity
#: distance of it.
MATCH_TOL = 1e-3
#: The share of the smallest distance a basin probe's answers resolve
#: (MATCH_TOL, and the infinity-norm half radius its certificate reserves
#: for integrator error) that the probe's stepper tolerance takes.  A
#: 5(4) pair's step count grows like tol^(-1/5) (Hairer, Norsett & Wanner,
#: Solving ODEs I, 1993, II.4), so stepping no finer than the answers
#: resolve saves most of the steps.
PROBE_TOL_SHARE = 1e-3
#: How far outside the sandwich box a state may lie and still count as
#: inside it (`hyperrectangle_contains`).
BOX_SLACK = 1e-6


@dataclass(frozen=True)
class Outcome:
    """How a run ended; a converged run ends at `Trajectory.final_state`."""
    # Attracting cycles do not exist for generic bivirus systems (almost
    # every start converges to an equilibrium; Hirsch, J. reine angew.
    # Math. 383, 1988), so there is no third outcome.
    kind: str                  # converged | budget_exhausted


@dataclass
class Trajectory:
    """Recorded solution: strictly increasing times, one flat state row per
    record, plus the stop rule's verdict: `converged` when the rule stopped
    the run at its last record, `budget_exhausted` otherwise."""

    times: np.ndarray
    states: np.ndarray
    outcome: Outcome

    @property
    def final_vector(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_state(self) -> State:
        return State.from_vector(self.states[-1])


# ---------------------------------------------------------------------------
# generic adaptive stepper

def _step_dp(f, y, h, fy):
    """One Dormand-Prince attempt on every row of y, given fy = f(y):
    returns (y5, err, f(y5))."""
    k = np.empty((7,) + y.shape)
    flat = k.reshape(7, -1)
    k[0] = fy
    for i in range(1, 7):
        yi = y + h * (_DP_A[i] @ flat[:i]).reshape(y.shape)
        k[i] = f(yi)
    err = h * (_DP_ERR @ flat).reshape(y.shape)
    return yi, err, k[6]


def _integrate_flat(f, y0, t0, t_end, rtol, atol, record_interval,
                    guard=None, stop_check=None):
    """Adaptive RK5(4) on a batch of starts advanced in lockstep.

    y0 is an (m, d) array, one start per row, and f maps a (k, d) array of
    states to their derivatives row by row.  The active rows share one
    step size: a step is accepted only when every active row passes its
    own RMS error test, and the next step size comes from the worst row.
    Records fall on the uniform grid t0, t0 + record_interval, ..., plus
    a final record at t_end when t_end is off that grid; steps are
    shortened to land exactly on record marks, so records carry no
    interpolation error.  The slope at the last stage of an accepted step
    is reused as the first stage of the next one, so a step costs six
    field evaluations.

    guard(t, y, rows) checks the accepted states y of the active rows
    `rows` and raises to abort the run; it never changes them.
    stop_check(t, rows, times, records, fy) is consulted at every record,
    t0 and the final one included, with the record times, the recorded
    (m, d) arrays so far and the slopes fy of the active rows at the
    record, and returns a boolean mask over `rows`; a row it stops is
    frozen with its own records and leaves the batch.  A row stopped at
    t0 has one record, and when every row stops there no step is taken.
    t_end must be finite and above t0, and record_interval finite and
    positive (NaN is neither), or DomainError names the setting.

    Returns one (times, states, stopped) triple per row.
    """
    y = np.array(y0, dtype=float)
    if y.ndim != 2:
        raise DomainError("starts must be an (m, d) array, one per row")
    if not t0 < t_end < math.inf:
        raise DomainError(f"t_end must be finite and above t0, got {t_end}")
    if not 0.0 < record_interval < math.inf:
        raise DomainError("record_interval must be finite and positive, "
                          f"got {record_interval}")
    m, d = y.shape
    t = float(t0)
    times = [t]
    records = [y.copy()]
    counts = np.zeros(m, dtype=int)
    rows = np.arange(m)      # the active rows; y holds their states
    fy = f(y)                # and fy their slopes
    if stop_check is not None:
        stop = stop_check(t, rows, times, records, fy)
        counts[stop] = 1
        rows, y, fy = rows[~stop], y[~stop], fy[~stop]
    span = t_end - t0
    rec = min(record_interval, span)
    next_rec = t0 + rec
    h = min(1e-2, rec)
    t_last = t_end - 1e-12 * max(1.0, abs(t_end))
    while rows.size and t < t_last:
        h = min(h, t_end - t, next_rec - t)
        y5, err, f5 = _step_dp(f, y, h, fy)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        enorm = np.sqrt(((err / scale) ** 2).sum(axis=1) / d)
        worst = float(enorm.max())
        stepped = rows
        if worst <= 1.0:
            t = t + h
            if guard is not None:
                guard(t, y5, rows)
            y, fy = y5, f5
            if next_rec - t <= 1e-9 * max(1.0, rec) or t >= t_last:
                frame = records[-1].copy()
                frame[rows] = y
                times.append(t)
                records.append(frame)
                next_rec += rec
                if stop_check is not None:
                    stop = stop_check(t, rows, times, records, fy)
                    if stop.any():
                        counts[rows[stop]] = len(times)
                        rows, y, fy = rows[~stop], y[~stop], fy[~stop]
            grow = 0.9 * worst ** -0.2 if worst > 0 else 5.0
            h = h * min(5.0, max(0.2, grow))
        else:
            h = h * min(1.0, max(0.2, 0.9 * worst ** -0.2))
        if h < 1e-14 * max(1.0, abs(t)):
            k = int(np.argmax(enorm))
            r = int(stepped[k])
            state = y[k] if rows is stepped else records[-1][r]
            raise IntegrationError(f"start {r}: step size underflow", t=t,
                                   state=state.copy(), start=r)
    counts[rows] = len(times)
    stopped = np.ones(m, dtype=bool)
    stopped[rows] = False
    times = np.array(times)
    records = np.array(records)
    return [(times[:c], records[:c, i], bool(stopped[i]))
            for i, c in enumerate(counts)]


# ---------------------------------------------------------------------------
# bivirus integration

def _containment_guard(n):
    """A `guard` raising IntegrationError, naming the start, on a state
    beyond `model.CONTAINMENT_TOL` of the feasible set."""
    tol = model.CONTAINMENT_TOL

    def guard(t, y, rows):
        sums = y[:, :n] + y[:, n:]
        cap = 1.0 + tol
        if y.min() < -tol or y.max() > cap or sums.max() > cap:
            lo, top = y.min(axis=1), sums.max(axis=1)
            k = int(np.argmax((lo < -tol) | (y.max(axis=1) > cap)
                              | (top > cap)))
            r = int(rows[k])
            raise IntegrationError(
                f"start {r}: feasible-set invariant violated beyond "
                f"tolerance (min {lo[k]:.3e}, max nodewise sum "
                f"{top[k]:.6f})", t=t, state=y[k].copy(), start=r)
    return guard


def _rate_scale(sys):
    """The largest recovery rate of sys: the unit the stop tests measure
    field residuals in."""
    return float(max(np.diag(sys.D1).max(), np.diag(sys.D2).max()))


def _stop_rule(stop_tol, rate, window, certificate=None, start=0.0):
    """Per-row stop: field residual <= stop_tol * rate and no drift beyond
    10 stop_tol over a trailing window that is at least half populated.
    The residual is read from the slopes the stepper already holds.
    `certificate`, when given, is an `_AttractionBalls`: a row it locates
    stops at once, and its recorded path joins the certificate of the
    equilibrium it retired to.  Records before `start` stop nothing."""
    def stop_check(t, rows, times, records, fy):
        if t < start:
            return np.zeros(len(rows), dtype=bool)
        y = records[-1][rows]
        done = np.zeros(len(rows), dtype=bool)
        if certificate is not None:
            held = certificate.locate(y)
            done = held >= 0
            if done.any():
                certificate.certify(held[done], np.stack(
                    [frame[rows[done]] for frame in records]))
        calm = np.max(np.abs(fy), axis=1) <= stop_tol * rate
        t_floor = t - window
        first = bisect.bisect_left(times, t_floor)
        if not calm.any() or times[first] > t_floor + 0.5 * window:
            return done
        past = np.array(records[first:-1])[:, rows]
        drift = np.max(np.abs(past - y), axis=(0, 2))
        return done | (calm & (drift <= 10.0 * stop_tol))
    return stop_check


def _integrate_starts(sys, starts, t_end, *, record_interval=1.0,
                      stop_tol=DEFAULT_STOP_TOL, certificate=None,
                      rtol=RTOL):
    """One lockstep batch of `integrate` runs from t = 0, one Trajectory
    per start, stepped at the relative tolerance rtol and the absolute
    one rtol * ATOL / RTOL.  A row that the stop rule or `certificate` (see
    `_stop_rule`) stops is converged; any other row is budget_exhausted.
    The rule is consulted at t = 0 too, so a start the certificate holds
    there comes back as a converged trajectory of one record, and the
    stepper takes no step when every start is held.

    The drift window is 10% of t_end, capped at 20 time units but never
    shorter than two record steps.  With stop_tol None the rule judges
    only the final record, at DEFAULT_STOP_TOL, and nothing retires
    before it; any other stop_tol must be finite and >= 0."""
    if stop_tol is not None and not 0.0 <= stop_tol < math.inf:
        raise DomainError(f"stop_tol must be None or finite and >= 0, "
                          f"got {stop_tol}")
    for s in starts:
        if s.n != sys.n:
            raise DomainError(f"start has {s.n} nodes, the system {sys.n}")
        model.require_in_feasible_set(s)
    window = max(min(20.0, 0.1 * t_end), 2.0 * min(record_interval, t_end))
    start = 0.0
    if stop_tol is None:   # judge the stepper's last record only
        stop_tol, start = DEFAULT_STOP_TOL, t_end - 1e-12 * max(1.0, t_end)
    runs = _integrate_flat(model.field(sys),
                           [s.as_vector() for s in starts], 0.0, t_end,
                           rtol, rtol * ATOL / RTOL, record_interval,
                           guard=_containment_guard(sys.n),
                           stop_check=_stop_rule(stop_tol, _rate_scale(sys),
                                                 window, certificate, start))
    return [Trajectory(times, states, Outcome(
        "converged" if stopped else "budget_exhausted"))
        for times, states, stopped in runs]


def integrate(sys: BivirusSystem | Analysis, s0: State,
              t_end: float = DEFAULT_T_END,
              *, record_interval: float = 1.0,
              stop_tol: float | None = DEFAULT_STOP_TOL) -> Trajectory:
    """Integrate the bivirus dynamics from s0 at t = 0 to t_end, at the
    tolerances `RTOL` and `ATOL`, and record at a uniform stride.  sys is
    a system or its `equilibria.Analysis` (`equilibria.analysis`), and s0
    must have its n nodes (DomainError otherwise).

    Every accepted state is checked against the feasible set: drift within
    `model.CONTAINMENT_TOL` passes untouched, and drift beyond it aborts
    the run with an IntegrationError rather than being masked.  The run ends
    at the first record (t_end included) where the field residual is at
    most `stop_tol` times the largest recovery rate and the state has
    stopped drifting over a trailing window (`_stop_rule`); it is then
    marked converged, and a run that reaches t_end unstopped
    budget_exhausted.  With `stop_tol=None` the run always reaches t_end
    and that rule, at DEFAULT_STOP_TOL, judges its final record.

    This is a lockstep batch of one start, the same stepper that
    `sandwich_test` and `basin_probe` run on all their starts at once.
    """
    return _integrate_starts(analysis(sys).system, [s0], t_end,
                             record_interval=record_interval,
                             stop_tol=stop_tol)[0]


# ---------------------------------------------------------------------------
# the orthant order

def _order_leq_rows(a, b, tol=0.0):
    """`order_leq` on flat state vectors (x1, x2) along the last axis,
    broadcast over the others."""
    n = np.shape(a)[-1] // 2
    return ((b[..., :n] >= a[..., :n] - tol).all(axis=-1)
            & (b[..., n:] <= a[..., n:] + tol).all(axis=-1))


def order_leq(s1: State, s2: State, tol: float = 0.0) -> bool:
    """The order the flow preserves: s1 <= s2 iff s2.x1 >= s1.x1 and
    s2.x2 <= s1.x2 entrywise (virus 1 up, virus 2 down)."""
    if s1.n != s2.n:
        raise DomainError("state dimensions do not match")
    return bool(_order_leq_rows(s1.as_vector(), s2.as_vector(), tol))


def _corner_states(n: int, eta: float):
    """The two near-extreme corners bounding the interior in the orthant
    order: A has virus 1 nearly absent and virus 2 nearly saturated, B the
    mirror image."""
    if not 0.0 < eta <= 0.1:
        raise DomainError("eta must lie in (0, 0.1]")
    lo = 0.5 * eta * np.ones(n)
    hi = (1.0 - eta) * np.ones(n)
    return State(lo.copy(), hi.copy()), State(hi.copy(), lo.copy())


# ---------------------------------------------------------------------------
# sandwich harness

@dataclass
class SandwichResult:
    """Outcome of the two-corner bounding simulation.

    When both corner runs converge and agree, every interior initial
    condition shares the common limit.  When they disagree, all interior
    limits lie in the closed hyperrectangle spanned by (limit_A, limit_B)
    (`hyperrectangle_contains`) and an unstable equilibrium sits strictly
    inside it.  `retired` says which corners retired on the certificate
    (`_AttractionBalls`), in a ball of attraction or between two
    certified points bound for its centre: such a corner's limit is that
    centre, an equilibrium the certificate was built on, so two corners
    retired to the same one agree exactly and their common limit is
    proved, not estimated.  A corner that ends unconverged has the limit
    None, and the result is then inconclusive.
    """

    limit_A: State | None
    limit_B: State | None
    eta: float
    agree: bool
    conclusive: bool
    traj_A: Trajectory
    traj_B: Trajectory
    retired: tuple = (False, False)

    @property
    def common_limit(self) -> State | None:
        return self.limit_A if (self.agree and self.conclusive) else None

    @property
    def jittered(self) -> tuple:
        """Always (False, False): no corner is ever retried.  It stays only
        because the benchmark's `sim.sandwich_test` observer in
        `perfbench/spans.py` reads it, and goes once that reader does."""
        return (False, False)


def sandwich_test(sys: BivirusSystem | Analysis,
                  eta: float = DEFAULT_ETA,
                  t_end: float = DEFAULT_T_END, tol: float = 1e-6, *,
                  stop_tol: float = DEFAULT_STOP_TOL) -> SandwichResult:
    """Integrate from the two eta-inset corners and compare limits.  sys
    is a system or its `equilibria.Analysis`.

    Both corners run as one lockstep batch of the `integrate` stepper,
    retiring on the certificate of `_AttractionBalls`, built on the
    equilibria that need no Newton search (`equilibria.Analysis.direct`):
    the complete list, with its order bounds, at n = 2 or where
    `equilibria.coexistence_excluded` holds, and otherwise the healthy
    state and the boundary equilibria alone.  A corner held by the
    certificate, at t = 0 or at a record mark, retires there, and its
    limit is that equilibrium's coordinates.  Any other corner runs to its
    stop rule, and one that reaches t_end unconverged makes the result
    inconclusive; it carries both partial trajectories.  Only the corners
    are extreme in the order, so no other start is tried.  A corner
    stopped by the rule shares its step sizes with its partner, so its
    limit may differ from a lone `integrate` run by about `RTOL`.  The
    `sandwich:` DEBUG line says how each corner ended: in a ball, between
    two certified points bound for an equilibrium, by the stop rule, or
    unconverged.  `tol`, the largest gap between agreeing limits, must be
    finite and >= 0.
    """
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol (the agreement tolerance) must be finite "
                          f"and >= 0, got {tol}")
    a = analysis(sys)
    sys = a.system
    corners = _corner_states(sys.n, eta)
    centres = a.direct
    balls = _AttractionBalls(sys, centres, stop_tol)
    trajs = _integrate_starts(sys, corners, t_end, stop_tol=stop_tol,
                              certificate=balls)
    ends = np.array([tr.final_vector for tr in trajs])
    held = balls.locate(ends)
    in_ball = balls.in_half_ball(ends).any(axis=1)
    limits, notes = [], []
    for tag, tr, k, ball in zip("AB", trajs, held, in_ball):
        if k >= 0:
            e = centres.equilibria[balls.owners[k]]
            limits.append(e.state)
            how = (f"retired in the ball of {e.kind}" if ball else
                   f"retired between two certified points bound for "
                   f"{e.kind}")
        elif tr.outcome.kind == "converged":
            limits.append(tr.final_state)
            how = "stopped by the stop rule"
        else:
            limits.append(None)
            how = "unconverged"
        notes.append(f"corner {tag} {how} at t = {tr.times[-1]:g}")
    log.debug("sandwich: %s; %d balls, radii %.3g to %.3g in their weighted "
              "norms, %d order bounds", ", ".join(notes), len(balls.radii),
              balls.radii.min(initial=np.inf), balls.radii.max(initial=0.0),
              balls.bounds)
    limit_A, limit_B = limits
    conclusive = limit_A is not None and limit_B is not None
    agree = False
    if conclusive:
        gap = float(np.max(np.abs(limit_A.as_vector() - limit_B.as_vector())))
        agree = gap <= tol
    return SandwichResult(limit_A=limit_A, limit_B=limit_B, eta=eta,
                          agree=agree, conclusive=conclusive,
                          traj_A=trajs[0], traj_B=trajs[1],
                          retired=tuple(bool(k >= 0) for k in held))


def hyperrectangle_contains(result: SandwichResult, s: State) -> bool:
    """Membership of a state in the closed hyperrectangle spanned by the
    two sandwich limits (axis-parallel box with those corners), widened by
    BOX_SLACK on every side."""
    if not result.conclusive:
        raise DomainError("sandwich result is inconclusive; no hyperrectangle")
    a = result.limit_A.as_vector()
    b = result.limit_B.as_vector()
    lo = np.minimum(a, b) - BOX_SLACK
    hi = np.maximum(a, b) + BOX_SLACK
    v = s.as_vector()
    return bool((v >= lo).all() and (v <= hi).all())


# ---------------------------------------------------------------------------
# basin probing

@dataclass(frozen=True)
class GridSpec:
    """An n_a x n_b grid of initial conditions (a * 1, b * 1) with the
    intensities a and b evenly spaced over [0.05, 0.9]."""

    n_a: int = 10
    n_b: int = 10

    def axes(self):
        return (np.linspace(0.05, 0.9, self.n_a),
                np.linspace(0.05, 0.9, self.n_b))


#: Label values in ProbeResult.labels below any equilibrium index.
LABEL_UNRESOLVED = -1
LABEL_INVALID = -2


@dataclass
class ProbeResult:
    """Basin labels over a grid of starts.  `final_states` holds each
    start's last integrated state, or the equilibrium itself, bitwise, for
    a start retired to it: inside its certified ball of attraction, or
    between two certified points bound for it (`_AttractionBalls`); NaN
    where the start is invalid."""

    labels: np.ndarray        # (n_a, n_b) ints: index into `legend`, or negative
    final_states: np.ndarray  # (n_a, n_b, 2n), NaN where invalid
    a_values: np.ndarray
    b_values: np.ndarray
    legend: list               # kind strings, one per equilibrium index


def nearest_equilibrium(vectors, equilibria):
    """For each state vector (one per row of `vectors`), the index in
    `equilibria` of the nearest equilibrium in the infinity norm, or
    LABEL_UNRESOLVED when none lies within MATCH_TOL.  Ties go to the
    earlier equilibrium."""
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    if not equilibria:
        return np.full(len(v), LABEL_UNRESOLVED)
    targets = np.array([e.state.as_vector() for e in equilibria])
    dists = np.max(np.abs(v[:, None, :] - targets[None, :, :]), axis=2)
    k = np.argmin(dists, axis=1)
    return np.where(dists[np.arange(len(v)), k] <= MATCH_TOL, k,
                    LABEL_UNRESOLVED)


def _attraction_ball(sys, centre):
    """(v, radius) of a certified ball of attraction around the state of
    `centre`, an Equilibrium, or None when the certificate fails there.

    The certificate is its own classification.  M = P J(centre) P is
    Metzler, and v = (-M)^-1 1 > 0 gives M v = -1 < 0, so M is Hurwitz.
    mu = max_i (Mv)_i / v_i is the logarithmic norm of M in the weighted
    norm ||z||_v = max_i |z_i| / v_i (Soderlind, BIT 46, 2006); it bounds
    the spectral abscissa from above, and a ball needs mu below
    -speclin.CLASSIFY_BAND, so a centre with a ball is classed stable too.
    The field's remainder beyond its linearization at the centre e is
    -(d1 + d2) o (Bk dk) for the offsets d = y - e, at most c ||d||_v^2 in
    that norm, with c = max_i (v1_i + v2_i) max((B1 v1)_i / v1_i,
    (B2 v2)_i / v2_i).  So ||y - e||_v shrinks along the exact flow from
    every y with ||y - e||_v < -mu / c, the radius, and y converges to e.
    The caller checks that the centre is an equilibrium of sys
    (`_AttractionBalls.fresh`).
    """
    s = centre.state
    n = sys.n
    M = model.transformed_jacobian(sys, s)
    try:
        v = np.linalg.solve(-M, np.ones(2 * n))
    except np.linalg.LinAlgError:
        return None
    if not (v > 0.0).all():
        return None
    mu = float(np.max(M @ v / v))
    if not mu < -speclin.CLASSIFY_BAND:
        return None
    v1, v2 = v[:n], v[n:]
    c = float(np.max((v1 + v2) * np.maximum(sys.B1 @ v1 / v1,
                                            sys.B2 @ v2 / v2)))
    return v, (-mu / c if c > 0.0 else np.inf)


def _below_some(y, floor):
    """For each row of y, whether some row of `floor` lies <=K below it."""
    return _order_leq_rows(floor, y[:, None, :]).any(axis=1)


#: Entries of the largest pairwise <=K comparison `_merge_lowest` makes.
_MERGE_CELLS = 1 << 18


def _merge_lowest(lowest, points):
    """The <=K-minimal rows of `lowest` (minimal already) and `points`
    together, one of each run of equal rows.  The points join a block at
    a time, each block first thinned by the minimal rows so far, so the
    pairwise comparison stays within _MERGE_CELLS entries however many
    runs retire at once."""
    size = max(1, math.isqrt(_MERGE_CELLS // points.shape[1]))
    for i in range(0, len(points), size):
        block = points[i:i + size]
        block = block[~_below_some(block, lowest)]
        le = _order_leq_rows(block[:, None, :], block)   # le[i, j]: b_i <= b_j
        earlier = np.triu(np.ones(le.shape, dtype=bool), 1)
        block = block[~(le & (~le.T | earlier)).any(axis=0)]
        lowest = np.concatenate([lowest[~_below_some(lowest, block)], block])
    return lowest


class _AttractionBalls:
    """The retirement certificate of a batch: the certified balls of
    attraction (`_attraction_ball`) around those of `centres`, a list of
    Equilibria or an `EnumerationResult`, that get one, and the certified
    points bound for each; ball k surrounds centres[owners[k]], so a
    caller reads the kind and the state a run retired to off that entry.

    A state within half a ball's radius of its centre is certified to
    converge to that centre; the other half of the radius absorbs the
    integrator's error, so `basin_probe` steps no coarser than a share of
    the smallest half radius in the infinity norm.  A run that retires to
    ball k hands its recorded path to `certify`, and every point on it
    flows to that centre; `bound_orders` files the order bounds of a
    complete list as well.  A state y with z_lo <=K y <=K z_hi for two
    certified points of one ball stays between their flows (Kamke's order
    preservation), so it converges to that centre as well.  Each ball keeps
    only the <=K-minimal certified points (`floors`) and, negated, the
    <=K-maximal ones (`ceilings`): they bracket exactly the states that all
    of them do.  One field closure serves every residual and sign check the
    certificate makes.

    When `centres` is a complete `EnumerationResult`, the constructor
    files its order bounds (`bound_orders`) too, and `bounds` counts
    them; any other list gets none."""

    def __init__(self, sys, centres, stop_tol):
        complete = isinstance(centres, EnumerationResult) and centres.complete
        centres = list(centres)
        d = 2 * sys.n
        self._f = model.field(sys)
        vectors = np.array([e.coordinates() for e in centres]).reshape(-1, d)
        #: whether each centre's residual on sys is at most stop_tol
        self.fresh = np.abs(self._f(vectors)).max(axis=1) <= stop_tol
        self.owners, inv_v, radii = [], [], []
        for i, e in enumerate(centres):
            ball = _attraction_ball(sys, e) if self.fresh[i] else None
            if ball is not None:
                self.owners.append(i)
                inv_v.append(1.0 / ball[0])
                radii.append(ball[1])
        self.centres = vectors[self.owners]
        self.inv_v = np.array(inv_v).reshape(-1, d)
        self.radii = np.array(radii)
        self.floors = [np.empty((0, d)) for _ in radii]
        self.ceilings = [np.empty((0, d)) for _ in radii]
        self.bounds = self.bound_orders(sys, centres) if complete else 0

    def in_half_ball(self, y):
        """(rows, balls) mask: row i of y lies within half of ball k's
        radius."""
        dist = np.max(np.abs(y[:, None, :] - self.centres) * self.inv_v,
                      axis=2)
        return dist < 0.5 * self.radii

    def locate(self, y):
        """For each row of y, the index of the first ball holding it within
        half its radius or between two points of its certified paths, or
        -1."""
        if not len(self.radii):
            return np.full(len(y), -1)
        inside = self.in_half_ball(y)
        for k, (floor, ceiling) in enumerate(zip(self.floors, self.ceilings)):
            if len(floor) and len(ceiling):
                inside[:, k] |= (_below_some(y, floor)
                                 & _below_some(-y, ceiling))
        return np.where(inside.any(axis=1), inside.argmax(axis=1), -1)

    def certify(self, held, paths):
        """Add every point of paths[:, i], the (T, d) recorded path of a
        run that retired to ball held[i], to that ball's certified
        points."""
        for k in set(held.tolist()):
            points = paths[:, held == k].reshape(-1, paths.shape[2])
            self.floors[k] = _merge_lowest(self.floors[k], points)
            # negation reverses the order: max(P) = -min(-P)
            self.ceilings[k] = _merge_lowest(self.ceilings[k], -points)

    def bound_orders(self, sys, eqs):
        """File the order bounds of `eqs` (`equilibria.order_bounds`), a
        list of every equilibrium of sys and the centres this certificate
        was built on, and return how many it filed.  The orbit of a bound
        w is monotone, so it converges to the <=K-least equilibrium above w
        (the greatest below, for one that falls), which the complete list
        names; w joins the floors (ceilings) of that equilibrium's ball, if
        it has one.  A list with an entry whose residual on sys exceeds the
        balls' stop_tol files nothing."""
        if not self.fresh.all():
            return 0
        ball = {i: k for k, i in enumerate(self.owners)}
        targets = np.array([e.coordinates() for e in eqs])
        filed = 0
        for w, side in equilibria.order_bounds(sys, eqs, self._f):
            # negation reverses the order, so for a falling w (side -1)
            # this finds the greatest equilibrium below
            up = side * targets
            near = np.flatnonzero(_order_leq_rows(side * w, up))
            least = [i for i in near if _order_leq_rows(up[i], up[near]).all()]
            if len(least) == 1 and least[0] in ball:
                k = ball[least[0]]
                kept = self.floors if side > 0 else self.ceilings   # negated
                kept[k] = _merge_lowest(kept[k], side * w[None])
                filed += 1
        return filed


def basin_probe(sys: BivirusSystem | Analysis, equilibria,
                grid: GridSpec = None) -> ProbeResult:
    """Integrate from every grid start and label each run by the nearest
    known equilibrium (`nearest_equilibrium`), or unresolved.  sys is a
    system or its `equilibria.Analysis`.

    `equilibria` is the output of enumerate_equilibria (or any list of
    Equilibrium); run the enumeration first so the labels mean something.
    All feasible, strictly interior starts run as one lockstep batch of the
    `integrate` stepper up to DEFAULT_T_END, recording every 5 time units;
    each start keeps its own stop rule at DEFAULT_STOP_TOL.  The labels
    resolve only MATCH_TOL and the infinity-norm half radius the balls
    below reserve for integrator error, so the batch steps at
    PROBE_TOL_SHARE of the smaller of the two (never below `RTOL`, with the
    absolute tolerance scaled alike), and a run stopped by the rule may
    differ from a lone `integrate` run by about its stepper tolerance.
    Around each entry the transformed Jacobian may certify a ball of
    attraction (see `_attraction_ball`; the entries that get one are
    classed stable).  A start found at t = 0 or at a later record mark
    within half that radius has its limit certified, leaves the batch there
    and reports that equilibrium as its final state; every state recorded
    on its path is then certified to flow to the same equilibrium.  A start
    found there between two such points, z_lo <=K y <=K z_hi, retires too:
    the flow preserves the order (Kamke), so its run stays between two runs
    that converge to that equilibrium and converges there as well.  This
    rests on the same numerical evidence as the ball itself, a recorded run
    that entered a half ball, so it is exactly as rigorous.

    When `equilibria` is a `complete` `EnumerationResult`, order bounds
    join those points before the batch starts: beside an unstable
    equilibrium, a point along the Perron vector of its transformed
    Jacobian whose field lies strictly inside the cone rises monotonically
    to the <=K-least equilibrium above it, or falls to the greatest below
    (Smith, Monotone Dynamical Systems, AMS 1995, Prop. 3.2.1; Hirsch, J.
    reine angew. Math. 383, 1988); see `equilibria.order_bounds`.
    A bare list, or a result that is not complete, gets none.  The `basin
    probe:` DEBUG line counts the two kinds of retirement apart (order
    bounds bracket like path points), the order bounds filed, the time
    of the last retirement and the stepper tolerance.
    """
    sys = analysis(sys).system
    grid = grid or GridSpec()
    eq_list = list(equilibria)
    legend = [e.kind for e in eq_list]
    a_vals, b_vals = grid.axes()
    n = sys.n
    ones = np.ones(n)
    labels = np.full((len(a_vals), len(b_vals)), LABEL_INVALID, dtype=int)
    finals = np.full((len(a_vals), len(b_vals), 2 * n), np.nan)
    cells, starts = [], []
    for i, a in enumerate(a_vals):
        for j, b in enumerate(b_vals):
            s0 = State(a * ones, b * ones)
            if model.is_strictly_interior(s0):
                cells.append((i, j))
                starts.append(s0)
    balls = _AttractionBalls(sys, equilibria, DEFAULT_STOP_TOL)
    # the smallest infinity-norm half radius of a ball; none counts as inf
    half = float((0.5 * balls.radii / balls.inv_v.max(axis=1)).min(
        initial=np.inf))
    rtol = max(RTOL, PROBE_TOL_SHARE * min(MATCH_TOL, half))
    by_ball = by_path = by_rule = 0
    last = "none"
    if starts:
        trajs = _integrate_starts(sys, starts, DEFAULT_T_END,
                                  record_interval=5.0, certificate=balls,
                                  rtol=rtol)
        ends = np.array([traj.final_vector for traj in trajs])
        held = balls.locate(ends)
        retired = held >= 0
        in_ball = retired & balls.in_half_ball(ends).any(axis=1)
        ends[retired] = balls.centres[held[retired]]
        stopped = np.array([traj.outcome.kind == "converged" for traj in trajs])
        nearest = nearest_equilibrium(ends, eq_list)
        for cell, end, k, ok in zip(cells, ends, nearest, stopped):
            finals[cell] = end
            labels[cell] = k if ok else LABEL_UNRESOLVED
        by_ball = int(np.count_nonzero(in_ball))
        by_path = int(np.count_nonzero(retired & ~in_ball))
        by_rule = int(np.count_nonzero(stopped & ~retired))
        ages = [tr.times[-1] for tr, gone in zip(trajs, retired) if gone]
        if ages:
            last = f"{max(ages):g}"
    log.debug("basin probe: %d starts retired in a ball, %d between two "
              "certified paths, %d stopped by the stop rule, %d unresolved, "
              "%d order bounds; last retirement at t = %s; %d balls, radii "
              "%.3g to %.3g in their weighted norms; stepper rtol %.3g "
              "(smallest reserved half radius %.3g)",
              by_ball, by_path, by_rule,
              int(np.count_nonzero(labels == LABEL_UNRESOLVED)),
              balls.bounds, last, len(balls.radii),
              balls.radii.min(initial=np.inf),
              balls.radii.max(initial=0.0), rtol, half)
    return ProbeResult(labels=labels, final_states=finals,
                       a_values=a_vals, b_values=b_vals, legend=legend)
