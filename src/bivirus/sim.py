"""Trajectory integration and the monotone-order simulation harness.

The bivirus flow preserves the orthant order "x1 up, x2 down", so two
trajectories started at extreme corners of the feasible set bound every
interior trajectory for all time.  Integrating just those two corners
therefore certifies global behaviour: if they reach a common limit, every
interior initial condition shares it; if they split, an unstable
equilibrium must sit inside the hyperrectangle spanned by the two limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .exceptions import DomainError, IntegrationError
from .model import BivirusSystem, OrderCone, State

# Dormand-Prince 5(4) embedded pair.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([], dtype=float),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                   11 / 84, 0.0])
_DP_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                    22 / 525, -1 / 40])

#: Negative entries no deeper than this are clamped to exactly zero after
#: an accepted step; anything between this and the containment tolerance
#: rides along untouched, and worse than that aborts the run.
CLAMP_DEPTH = 1e-12

DEFAULT_ETA = 1e-3
DEFAULT_T_END = 2000.0
DEFAULT_STOP_TOL = 1e-9


@dataclass(frozen=True)
class Outcome:
    kind: str                  # converged | limit_cycle_suspected | budget_exhausted
    state: State | None        # equilibrium candidate when converged
    residual: float


@dataclass
class Trajectory:
    """Recorded solution: strictly increasing times, one flat state row per
    record, plus the convergence verdict for the endpoint."""

    times: np.ndarray
    states: np.ndarray
    outcome: Outcome | None = None
    n: int | None = None

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_vector(self) -> np.ndarray:
        return self.states[-1]

    def state(self, i: int) -> State:
        return State.from_vector(self.states[i])

    @property
    def final_state(self) -> State:
        return State.from_vector(self.states[-1])


# ---------------------------------------------------------------------------
# generic adaptive stepper

def _step_dp(f, t, y, h):
    """One Dormand-Prince attempt: returns (y5, err_vector)."""
    k = [f(y)]
    for i in range(1, 7):
        yi = y + h * (_DP_A[i] @ np.array(k[:i]))
        k.append(f(yi))
    karr = np.array(k)
    y5 = y + h * (_DP_B5 @ karr)
    err = h * (_DP_ERR @ karr)
    return y5, err


def _integrate_flat(f, y0, t0, t_end, rtol, atol, record_interval,
                    post_step=None, stop_check=None):
    """Adaptive RK5(4) on a flat vector field, recording on the uniform
    grid t0, t0 + record_interval, ...  Steps are shortened to land exactly
    on record marks, so records carry no interpolation error.

    post_step may adjust or reject each accepted state (clamping, invariant
    guards); stop_check is consulted at record marks and ends the run early
    when it returns True.
    """
    y = np.array(y0, dtype=float)
    t = float(t0)
    times = [t]
    states = [y.copy()]
    if t_end <= t0:
        raise DomainError("t_end must exceed t0")
    span = t_end - t0
    rec = min(record_interval, span)
    next_rec = t0 + rec
    h = min(1e-2, rec)
    stopped = False
    while t < t_end - 1e-12 * max(1.0, abs(t_end)):
        h = min(h, t_end - t, next_rec - t)
        y5, err = _step_dp(f, t, y, h)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        enorm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if enorm <= 1.0:
            t = t + h
            if post_step is not None:
                y5 = post_step(t, y5)
            y = y5
            if next_rec - t <= 1e-9 * max(1.0, rec):
                times.append(t)
                states.append(y.copy())
                next_rec += rec
                if stop_check is not None and stop_check(t, y, times, states):
                    stopped = True
                    break
            grow = 0.9 * enorm ** -0.2 if enorm > 0 else 5.0
            h = h * min(5.0, max(0.2, grow))
        else:
            h = h * min(1.0, max(0.2, 0.9 * enorm ** -0.2))
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError("step size underflow", t=t, state=y)
    if not stopped and times[-1] < t - 1e-12:
        times.append(t)
        states.append(y.copy())
    return np.array(times), np.array(states), stopped


# ---------------------------------------------------------------------------
# bivirus integration

def _containment_guard(n, contain_tol):
    def guard(t, y):
        tiny = (y >= -CLAMP_DEPTH) & (y < 0.0)
        if tiny.any():
            y = y.copy()
            y[tiny] = 0.0
        sums = y[:n] + y[n:]
        if (y.min() < -contain_tol or y.max() > 1.0 + contain_tol
                or sums.max() > 1.0 + contain_tol):
            raise IntegrationError(
                "feasible-set invariant violated beyond tolerance "
                f"(min {y.min():.3e}, max nodewise sum {sums.max():.6f})",
                t=t, state=y)
        return y
    return guard


def integrate(sys: BivirusSystem, s0: State, t_end: float = DEFAULT_T_END,
              *, t0: float = 0.0, rtol: float = 1e-9, atol: float = 1e-12,
              record_interval: float = 1.0,
              stop_tol: float | None = DEFAULT_STOP_TOL,
              contain_tol: float = model.CONTAINMENT_TOL) -> Trajectory:
    """Integrate the bivirus dynamics from s0 and record at a uniform stride.

    After every accepted step, entries caught in [-1e-12, 0) are clamped to
    zero and the feasible-set constraints are checked; violations beyond
    `contain_tol` abort rather than being masked.  When `stop_tol` is set,
    the run ends early once the field residual stays below it and the
    state has stopped drifting over a trailing window, and the trajectory
    is marked converged.
    """
    s0 = State(np.asarray(s0.x1, float), np.asarray(s0.x2, float))
    model.require_in_feasible_set(s0, contain_tol)
    n = sys.n
    f = model.field(sys)
    guard = _containment_guard(n, contain_tol)

    window = min(20.0, 0.1 * (t_end - t0))

    def stop_check(t, y, times, states):
        if stop_tol is None:
            return False
        if float(np.max(np.abs(f(y)))) > stop_tol:
            return False
        t_floor = t - window
        drift = 0.0
        earliest = t
        i = len(times) - 2
        while i >= 0 and times[i] >= t_floor:
            drift = max(drift, float(np.max(np.abs(states[i] - y))))
            earliest = times[i]
            i -= 1
        if earliest > t_floor + 0.5 * window:
            return False  # trailing window not yet populated
        return drift <= 10.0 * stop_tol

    times, states, stopped = _integrate_flat(
        f, s0.as_vector(), t0, t_end, rtol, atol, record_interval,
        post_step=guard, stop_check=stop_check)
    traj = Trajectory(times=times, states=states, n=n)
    if stopped:
        final = traj.final_state
        traj.outcome = Outcome("converged", final,
                               float(np.max(np.abs(f(traj.final_vector)))))
    else:
        traj.outcome = detect_convergence(sys, traj,
                                          tol=stop_tol or DEFAULT_STOP_TOL)
    return traj


# ---------------------------------------------------------------------------
# convergence detection

def detect_convergence(system_or_field, traj: Trajectory, window: float = None,
                       tol: float = DEFAULT_STOP_TOL) -> Outcome:
    """Classify the tail of a trajectory.

    converged: endpoint residual <= tol and no drift beyond tol over the
    trailing window (default 10% of the recorded span).
    limit_cycle_suspected: residual stuck >= 10 tol while the window shows
    wide excursions that keep revisiting themselves.  Advisory only --
    attracting cycles do not exist for generic bivirus systems, so seeing
    one numerically is itself a red flag.
    Anything else: budget_exhausted.
    """
    if isinstance(system_or_field, BivirusSystem):
        f = model.field(system_or_field)
    else:
        f = system_or_field
    y_end = traj.states[-1]
    res = float(np.max(np.abs(f(y_end))))
    span = traj.times[-1] - traj.times[0]
    if window is None:
        window = 0.1 * span
    mask = traj.times >= traj.times[-1] - window
    win_t = traj.times[mask]
    win_y = traj.states[mask]

    drift = float(np.max(np.abs(win_y - y_end))) if len(win_y) else 0.0
    state = State.from_vector(y_end) if traj.n is not None else None
    if res <= tol and drift <= tol:
        return Outcome("converged", state, res)

    if res >= 10.0 * tol and len(win_y) >= 8:
        diffs = win_y[:, None, :] - win_y[None, :, :]
        dist = np.max(np.abs(diffs), axis=2)
        diameter = float(dist.max())
        gaps = np.abs(win_t[:, None] - win_t[None, :])
        separated = gaps >= window / 4.0
        if separated.any() and diameter >= 100.0 * tol:
            revisit = float(dist[separated].min())
            if revisit <= 0.05 * diameter:
                return Outcome("limit_cycle_suspected", None, res)
    return Outcome("budget_exhausted", None, res)


# ---------------------------------------------------------------------------
# the orthant order

def order_leq(s1: State, s2: State, tol: float = 0.0) -> bool:
    """The order the flow preserves: s1 <= s2 iff s2.x1 >= s1.x1 and
    s2.x2 <= s1.x2 entrywise (virus 1 up, virus 2 down)."""
    return OrderCone(s1.n).leq(s1, s2, tol)


def corner_states(n: int, eta: float):
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
    and an unstable equilibrium sits strictly inside it.
    """

    limit_A: State | None
    limit_B: State | None
    eta: float
    agree: bool
    hyperrectangle: tuple | None
    conclusive: bool
    traj_A: Trajectory
    traj_B: Trajectory
    jittered: tuple = (False, False)

    @property
    def common_limit(self) -> State | None:
        return self.limit_A if (self.agree and self.conclusive) else None


def _jitter_pattern(dim: int, seed: int) -> np.ndarray:
    signs = np.array([1.0 if (i + seed) % 2 == 0 else -1.0 for i in range(dim)])
    return signs


def sandwich_test(sys: BivirusSystem, eta: float = DEFAULT_ETA,
                  t_end: float = DEFAULT_T_END, tol: float = 1e-6, *,
                  stop_tol: float = DEFAULT_STOP_TOL, rtol: float = 1e-9,
                  atol: float = 1e-12, record_interval: float = 1.0,
                  seed: int = 0) -> SandwichResult:
    """Integrate from the two eta-inset corners and compare limits.

    A corner run that fails to converge is retried once from the corner
    perturbed by a deterministic jitter of magnitude eta/10 (alternating
    sign pattern, rotated by `seed`).  If a corner still fails, the result
    is inconclusive and carries both partial trajectories.
    """
    sA, sB = corner_states(sys.n, eta)
    dim = 2 * sys.n

    def run(corner):
        traj = integrate(sys, corner, t_end, rtol=rtol, atol=atol,
                         record_interval=record_interval, stop_tol=stop_tol)
        if traj.outcome.kind == "converged":
            return traj, False
        bump = (eta / 10.0) * _jitter_pattern(dim, seed)
        v = np.clip(corner.as_vector() + bump, 0.0, 1.0)
        retry = integrate(sys, State.from_vector(v), t_end, rtol=rtol,
                          atol=atol, record_interval=record_interval,
                          stop_tol=stop_tol)
        return (retry, True) if retry.outcome.kind == "converged" else (traj, True)

    traj_A, jit_A = run(sA)
    traj_B, jit_B = run(sB)
    ok_A = traj_A.outcome.kind == "converged"
    ok_B = traj_B.outcome.kind == "converged"
    conclusive = ok_A and ok_B
    limit_A = traj_A.final_state if ok_A else None
    limit_B = traj_B.final_state if ok_B else None
    agree = False
    rect = None
    if conclusive:
        gap = float(np.max(np.abs(limit_A.as_vector() - limit_B.as_vector())))
        agree = gap <= tol
        rect = (limit_A, limit_B)
    return SandwichResult(limit_A=limit_A, limit_B=limit_B, eta=eta,
                          agree=agree, hyperrectangle=rect,
                          conclusive=conclusive, traj_A=traj_A, traj_B=traj_B,
                          jittered=(jit_A, jit_B))


def hyperrectangle_contains(result: SandwichResult, s: State,
                            slack: float = 1e-6) -> bool:
    """Membership of a state in the closed hyperrectangle spanned by the
    two sandwich limits (axis-parallel box with those corners)."""
    if not result.conclusive or result.hyperrectangle is None:
        raise DomainError("sandwich result is inconclusive; no hyperrectangle")
    a = result.limit_A.as_vector()
    b = result.limit_B.as_vector()
    lo = np.minimum(a, b) - slack
    hi = np.maximum(a, b) + slack
    v = s.as_vector()
    return bool((v >= lo).all() and (v <= hi).all())


# ---------------------------------------------------------------------------
# basin probing

@dataclass(frozen=True)
class GridSpec:
    """Grid of initial conditions (a * profile1, b * profile2) over scalar
    intensity ranges.  Default profiles are the all-ones vectors."""

    n_a: int = 10
    n_b: int = 10
    a_range: tuple = (0.05, 0.9)
    b_range: tuple = (0.05, 0.9)
    profile1: np.ndarray | None = None
    profile2: np.ndarray | None = None

    def axes(self):
        return (np.linspace(self.a_range[0], self.a_range[1], self.n_a),
                np.linspace(self.b_range[0], self.b_range[1], self.n_b))


#: Label values in ProbeResult.labels below any equilibrium index.
LABEL_UNRESOLVED = -1
LABEL_INVALID = -2


@dataclass
class ProbeResult:
    labels: np.ndarray        # (n_a, n_b) ints: index into `legend`, or negative
    final_states: np.ndarray  # (n_a, n_b, 2n), NaN where invalid
    a_values: np.ndarray
    b_values: np.ndarray
    legend: list               # kind strings, one per equilibrium index

    def label_counts(self):
        counts = {}
        for lab in self.labels.ravel():
            counts[int(lab)] = counts.get(int(lab), 0) + 1
        return counts


def basin_probe(sys: BivirusSystem, equilibria, grid: GridSpec = None, *,
                t_end: float = DEFAULT_T_END, match_tol: float = 1e-3,
                rtol: float = 1e-9, atol: float = 1e-12,
                record_interval: float = 5.0,
                stop_tol: float = DEFAULT_STOP_TOL) -> ProbeResult:
    """Integrate from every grid start and label each run by the nearest
    known equilibrium (infinity norm <= match_tol), or unresolved.

    `equilibria` is the output of enumerate_equilibria (or any list of
    Equilibrium); run the enumeration first so the labels mean something.
    """
    grid = grid or GridSpec()
    eq_list = list(equilibria)
    targets = [e.state.as_vector() for e in eq_list]
    legend = [e.kind for e in eq_list]
    a_vals, b_vals = grid.axes()
    n = sys.n
    p1 = grid.profile1 if grid.profile1 is not None else np.ones(n)
    p2 = grid.profile2 if grid.profile2 is not None else np.ones(n)
    labels = np.full((len(a_vals), len(b_vals)), LABEL_INVALID, dtype=int)
    finals = np.full((len(a_vals), len(b_vals), 2 * n), np.nan)
    for i, a in enumerate(a_vals):
        for j, b in enumerate(b_vals):
            s0 = State(a * p1, b * p2)
            if not (model.in_feasible_set(s0, 0.0)
                    and model.is_strictly_interior(s0)):
                continue
            traj = integrate(sys, s0, t_end, rtol=rtol, atol=atol,
                             record_interval=record_interval,
                             stop_tol=stop_tol)
            finals[i, j] = traj.final_vector
            if traj.outcome.kind != "converged":
                labels[i, j] = LABEL_UNRESOLVED
                continue
            v = traj.final_vector
            dists = [float(np.max(np.abs(v - tv))) for tv in targets]
            k = int(np.argmin(dists)) if dists else -1
            if k >= 0 and dists[k] <= match_tol:
                labels[i, j] = k
            else:
                labels[i, j] = LABEL_UNRESOLVED
    return ProbeResult(labels=labels, final_states=finals,
                       a_values=a_vals, b_values=b_vals, legend=legend)
