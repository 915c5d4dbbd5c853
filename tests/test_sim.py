import dataclasses
import functools
import logging
import re

import numpy as np
import pytest

import bivirus as bv
from bivirus import CASES, equilibria, model, sim, speclin
from bivirus.exceptions import DomainError, IntegrationError, ValidationError
from bivirus.model import BivirusSystem, State
from bivirus.sim import _integrate_flat, _integrate_starts

from conftest import (random_interior_state, random_ordered_pair,
                      random_supercritical_system)

B1 = np.array([[1.6, 1.0], [1.0, 1.6]])
EYE = np.eye(2)
EPS = np.finfo(float).eps


class TestIntegrate:
    def test_healthy_state_constant(self):
        traj = bv.integrate(CASES["case2"].system(), State.zero(2), 100.0)
        assert traj.outcome.kind == "converged"
        assert np.abs(traj.states).max() == 0.0

    def test_case3_converges_to_coexistence(self):
        sys = CASES["case3"].system()
        traj = bv.integrate(sys, State(0.3 * np.ones(2), 0.3 * np.ones(2)))
        assert traj.outcome.kind == "converged"
        (coex,) = bv.solve_coexistence_n2(sys)
        assert np.max(np.abs(traj.final_vector - coex.coordinates())) <= 1e-6
        reference = np.array([0.462, 0.512, 0.168, 0.089])  # 3-decimal
        assert np.max(np.abs(traj.final_vector - reference)) <= 5e-3

    def test_case2_demo_starts_reach_boundary(self):
        sys = CASES["case2"].system()
        x1bar = bv.single_virus_endemic(B1, EYE)
        x2bar = bv.single_virus_endemic(CASES["case2"].B2, EYE)
        targets = [np.concatenate([x1bar, np.zeros(2)]),
                   np.concatenate([np.zeros(2), x2bar])]
        hits = set()
        for s0 in bv.demo_starts():
            traj = bv.integrate(sys, s0)
            assert traj.outcome.kind == "converged"
            d = [np.max(np.abs(traj.final_vector - t)) for t in targets]
            assert min(d) <= 1e-3
            hits.add(int(np.argmin(d)))
        assert hits == {0, 1}  # the starts straddle the basin boundary

    def test_recorded_states_stay_feasible(self):
        sys = CASES["case2"].system()
        for s0 in bv.demo_starts()[:3]:
            traj = bv.integrate(sys, s0, 200.0, stop_tol=None)
            assert traj.states.min() >= -1e-9
            sums = traj.states[:, :2] + traj.states[:, 2:]
            assert sums.max() <= 1.0 + 1e-9

    def test_strict_interior_preserved(self):
        sys = CASES["case4"].system()
        traj = bv.integrate(sys, State([0.4, 0.3], [0.2, 0.4]), 50.0,
                            stop_tol=None)
        assert traj.states[1:].min() > 0.0
        sums = traj.states[1:, :2] + traj.states[1:, 2:]
        assert sums.max() < 1.0

    def test_record_grid_uniform(self):
        traj = bv.integrate(CASES["case3"].system(),
                            State([0.2, 0.2], [0.1, 0.1]), 10.0,
                            record_interval=0.5, stop_tol=None)
        assert np.allclose(np.diff(traj.times), 0.5, atol=1e-9)
        assert traj.times[-1] == pytest.approx(10.0, abs=1e-9)

    def test_infeasible_start_rejected(self):
        with pytest.raises(DomainError):
            bv.integrate(CASES["case2"].system(), State([0.8, 0.2], [0.8, 0.2]))

    def test_start_of_another_size_rejected(self):
        with pytest.raises(DomainError, match="3 nodes, the system 2"):
            bv.integrate(CASES["case2"].system(), State.zero(3))


class TestDetectConvergence:
    """The stop rule is the one convergence test: a run it stops is
    converged and any other run budget_exhausted."""

    def test_at_rest(self):
        sys = CASES["case3"].system()
        (eq,) = bv.enumerate_equilibria(sys).of_kind("coexistence")
        traj = bv.integrate(sys, eq.state, 50.0, stop_tol=None)
        assert traj.outcome.kind == "converged"
        assert np.max(np.abs(traj.final_vector
                             - eq.coordinates())) <= 1e-8

    def test_case4_limit(self):
        sys = CASES["case4"].system()
        traj = bv.integrate(sys, State([0.25, 0.35], [0.3, 0.2]))
        assert traj.outcome.kind == "converged"
        target = np.array([0.0, 0.0, 0.665, 0.665])
        assert np.max(np.abs(traj.final_vector - target)) <= 1e-3

    def test_steady_drift_is_budget_exhausted(self):
        f = lambda y: np.zeros_like(y) + np.array([0.01, 0.0])
        (_, _, stopped), = _integrate_flat(
            f, np.zeros((1, 2)), 0.0, 40.0, 1e-9, 1e-12, 0.5,
            stop_check=sim._stop_rule(1e-9, 1.0, 15.0))
        assert not stopped

    @pytest.mark.parametrize("window,stops", [(30.0, False), (5.0, True)])
    def test_drift_below_the_residual_bound(self, window, stops):
        # A slope of 9e-10 passes the residual test at stop_tol 1e-9 but
        # drifts 1.35e-8 over half of a 30-unit window (the least the rule
        # judges from), beyond the 1e-8 drift bound.
        f = lambda y: np.zeros_like(y) + np.array([9e-10, 0.0])
        (_, _, stopped), = _integrate_flat(
            f, np.zeros((1, 2)), 0.0, 40.0, 1e-9, 1e-12, 0.5,
            stop_check=sim._stop_rule(1e-9, 1.0, window))
        assert stopped == stops

    def test_stop_tol_none_agrees_with_the_default(self):
        # stop_tol=None runs to t_end and is judged there by the same rule
        # that stops a default run early.
        rng = np.random.default_rng(5)
        for name in ("case2", "case3", "case4"):
            sys = CASES[name].system()
            for _ in range(3):
                s0 = random_interior_state(rng, 2)
                for t_end in (10.0, 20.0, 30.0, 40.0, 50.0, 60.0):
                    full = bv.integrate(sys, s0, t_end, stop_tol=None)
                    early = bv.integrate(sys, s0, t_end)
                    assert full.times[-1] == pytest.approx(t_end)
                    assert full.outcome.kind == early.outcome.kind, (name,
                                                                     t_end)
                    if full.outcome.kind == "converged":
                        assert np.max(np.abs(full.final_vector
                                             - early.final_vector)) <= 1e-7

    @pytest.mark.parametrize("stop_tol", [sim.DEFAULT_STOP_TOL, None])
    def test_short_horizon_at_rest(self, stop_tol):
        # t_end = 5 makes 10% of the horizon half a record step; the drift
        # window still spans two records.
        sys = CASES["case3"].system()
        (eq,) = bv.enumerate_equilibria(sys).of_kind("coexistence")
        traj = bv.integrate(sys, eq.state, 5.0, record_interval=1.0,
                            stop_tol=stop_tol)
        assert traj.outcome.kind == "converged"

    def test_off_grid_t_end_is_judged(self):
        seen = []

        def spy(t, rows, times, records, fy):
            seen.append(t)
            return np.zeros(len(rows), dtype=bool)

        _integrate_flat(lambda y: -y, np.ones((1, 1)), 0.0, 50.5, 1e-9,
                        1e-12, 1.0, stop_check=spy)
        # t0, the 50 marks 1 ... 50 and the off-grid t_end
        assert seen[0] == 0.0 and seen[-1] == pytest.approx(50.5)
        assert len(seen) == 52
        sys = CASES["case3"].system()
        (eq,) = bv.enumerate_equilibria(sys).of_kind("coexistence")
        traj = bv.integrate(sys, eq.state, 50.5, stop_tol=None)
        assert traj.times[-1] == pytest.approx(50.5)
        assert traj.outcome.kind == "converged"


class TestRateScale:
    @pytest.mark.parametrize("name", ["case2", "case4"])
    def test_sandwich_verdict_survives_tenfold_rates(self, name):
        # Every rate x10 is the same flow in time / 10: the same limits,
        # and the stop test must see that rather than a 10x residual.
        sys = CASES[name].system()
        fast = BivirusSystem(10 * sys.B1, 10 * sys.D1, 10 * sys.B2,
                             10 * sys.D2)
        base, res = bv.sandwich_test(sys), bv.sandwich_test(fast)
        assert base.conclusive and res.conclusive
        assert res.agree == base.agree
        for a, b in ((base.limit_A, res.limit_A), (base.limit_B, res.limit_B)):
            assert np.max(np.abs(a.as_vector() - b.as_vector())) <= 1e-7


class TestOrderLeq:
    def test_reflexive(self):
        s = State([0.2, 0.3], [0.1, 0.4])
        assert bv.order_leq(s, s)

    def test_leq(self):
        a = State([0.1, 0.1], [0.5, 0.5])
        b = State([0.2, 0.3], [0.4, 0.1])
        assert bv.order_leq(a, b)
        assert not bv.order_leq(b, a)

    def test_cone_extremes(self):
        bottom = State(np.zeros(2), np.ones(2))
        top = State(np.ones(2), np.zeros(2))
        assert bv.order_leq(bottom, top)
        assert not bv.order_leq(top, bottom)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_the_row_form(self, n):
        # Lattice coordinates, so equal entries and ordered pairs occur.
        rng = np.random.default_rng(n)
        lattice = np.linspace(0.0, 1.0, 3)
        a = rng.choice(lattice, size=(300, 2 * n))
        b = rng.choice(lattice, size=(300, 2 * n))
        b[::3] = np.where(rng.random((100, 2 * n)) < 0.5, a[::3], b[::3])
        for tol in (0.0, 0.3):
            rows = sim._order_leq_rows(a, b, tol)
            lone = [bv.order_leq(State.from_vector(u), State.from_vector(w),
                                 tol=tol) for u, w in zip(a, b)]
            np.testing.assert_array_equal(rows, lone)
            assert rows.any() and not rows.all()
            pairs = sim._order_leq_rows(a[:20, None, :], b[:20], tol)
            assert pairs.shape == (20, 20)
            for i, j in np.ndindex(pairs.shape):
                assert pairs[i, j] == bv.order_leq(State.from_vector(a[i]),
                                                   State.from_vector(b[j]),
                                                   tol=tol)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            bv.order_leq(State([0.1], [0.1]), State([0.1, 0.1], [0.1, 0.1]))

    def test_flow_preserves_order_across_cases(self):
        rng = np.random.default_rng(17)
        for name in ("case1", "case2", "case3", "case4"):
            sys = CASES[name].system()
            for _ in range(3):
                lo, hi = random_ordered_pair(rng, 2)
                assert bv.order_leq(lo, hi)
                tlo = bv.integrate(sys, lo, 20.0, record_interval=1.0,
                                   stop_tol=None)
                thi = bv.integrate(sys, hi, 20.0, record_interval=1.0,
                                   stop_tol=None)
                for a, b in zip(tlo.states, thi.states):
                    assert bv.order_leq(State.from_vector(a),
                                        State.from_vector(b), tol=1e-8), name


class TestSandwich:
    def test_case4_agree_at_boundary(self):
        res = bv.sandwich_test(CASES["case4"].system())
        assert res.conclusive and res.agree
        target = np.array([0.0, 0.0, 0.665, 0.665])
        assert np.max(np.abs(res.common_limit.as_vector() - target)) <= 1e-3

    def test_case2_disagree_and_w_contains_coexistence(self):
        sys = CASES["case2"].system()
        res = bv.sandwich_test(sys)
        assert res.conclusive and not res.agree
        (coex,) = bv.solve_coexistence_n2(sys)
        assert bv.hyperrectangle_contains(res, coex.state)
        # limits are the two boundary equilibria (A ends with virus 2 alive)
        assert np.max(res.limit_A.x1) <= 1e-6
        assert np.max(res.limit_B.x2) <= 1e-6

    def test_case3_agree_at_coexistence(self):
        res = bv.sandwich_test(CASES["case3"].system())
        assert res.conclusive and res.agree
        (coex,) = bv.solve_coexistence_n2(CASES["case3"].system())
        assert np.max(np.abs(res.common_limit.as_vector()
                             - coex.coordinates())) <= 1e-5

    def test_case1_limits_on_the_line(self):
        sys = CASES["case1"].system()
        res = bv.sandwich_test(sys)
        assert res.conclusive and not res.agree
        z = bv.single_virus_endemic(B1, EYE)
        for limit in (res.limit_A, res.limit_B):
            assert bv.residual(sys, limit) <= 1e-8
            alpha = float(np.mean(limit.x1 / z))
            line_pt = np.concatenate([alpha * z, (1 - alpha) * z])
            assert np.max(np.abs(limit.as_vector() - line_pt)) <= 1e-6

    def test_corner_feasibility_guard(self):
        with pytest.raises(DomainError):
            bv.sandwich_test(CASES["case2"].system(), eta=0.5)

    def test_tiny_budget_inconclusive(self, monkeypatch):
        # case1's critical boundaries get no ball and its list is not
        # complete, so only the stop rule can end a corner run; an
        # unconverged corner is not run again
        batches = []

        def spy(sys, starts, *args, **kw):
            batches.append(len(starts))
            return _integrate_starts(sys, starts, *args, **kw)

        monkeypatch.setattr(sim, "_integrate_starts", spy)
        res = bv.sandwich_test(CASES["case1"].system(), t_end=2.0)
        assert not res.conclusive
        assert len(res.traj_A.times) > 1   # partial trajectories retained
        assert batches == [2]
        assert res.jittered == (False, False)

    def test_tiny_budget_is_enough_on_a_certified_split(self):
        # case2's order bounds bracket both corners before the first step
        res = bv.sandwich_test(CASES["case2"].system(), t_end=2.0)
        assert res.conclusive and not res.agree
        assert res.retired == (True, True)

    def test_third_trajectory_sandwiched(self):
        sys = CASES["case2"].system()
        eta = 1e-3
        sA, sB = sim._corner_states(2, eta)
        mid = State([0.3, 0.5], [0.2, 0.3])
        kw = dict(record_interval=0.5, stop_tol=None)
        tA = bv.integrate(sys, sA, 30.0, **kw)
        tB = bv.integrate(sys, sB, 30.0, **kw)
        tC = bv.integrate(sys, mid, 30.0, **kw)
        for a, c, b in zip(tA.states, tC.states, tB.states):
            assert bv.order_leq(State.from_vector(a), State.from_vector(c),
                                tol=1e-8)
            assert bv.order_leq(State.from_vector(c), State.from_vector(b),
                                tol=1e-8)


class TestSandwichRetirement:
    """Corners retire in the certified balls of attraction around the
    healthy state and the boundary equilibria of the analysis."""

    def test_case2_corners_retire_on_the_profiles(self, caplog, monkeypatch):
        # The complete enumeration's order bounds bracket both corners at
        # t = 0, so the stepper never takes a step.
        def refused(*args):
            raise AssertionError("the stepper took a step")

        a = equilibria.analysis(CASES["case2"].system())
        x1bar, x2bar = a.bars
        zero = np.zeros(2)
        monkeypatch.setattr(sim, "_step_dp", refused)
        with caplog.at_level(logging.DEBUG, logger="bivirus.sim"):
            res = bv.sandwich_test(a)
        assert res.conclusive and not res.agree
        assert res.retired == (True, True)
        for tr, corner in zip((res.traj_A, res.traj_B),
                              sim._corner_states(2, res.eta)):
            assert tr.outcome.kind == "converged"
            assert np.array_equal(tr.times, [0.0])
            assert np.array_equal(tr.states, [corner.as_vector()])
        for got, want in ((res.limit_A, (zero, x2bar)),
                          (res.limit_B, (x1bar, zero))):
            assert np.array_equal(got.x1, want[0])
            assert np.array_equal(got.x2, want[1])
        (line,) = [r.getMessage() for r in caplog.records
                   if r.name == "bivirus.sim"]
        assert re.match(r"sandwich: corner A retired between two certified "
                        r"points bound for boundary_virus2 at t = 0, corner B "
                        r"retired between two certified points bound for "
                        r"boundary_virus1 at t = 0; 2 balls, .*, 4 order "
                        r"bounds$", line)

    def test_case3_limits_are_the_enumerated_point(self):
        # The stable coexistence point gets a ball, and the bounds beside
        # the two unstable boundary points bracket the corners soon after.
        sys = CASES["case3"].system()
        res = bv.sandwich_test(sys)
        (coex,) = bv.enumerate_equilibria(sys).of_kind("coexistence")
        assert res.retired == (True, True)
        for limit in (res.limit_A, res.limit_B):
            assert np.array_equal(limit.as_vector(), coex.coordinates())
        assert res.traj_A.times[-1] <= 10.0 and res.traj_B.times[-1] <= 10.0

    def test_no_newton_search_at_n3(self, newton_calls):
        # With both viruses supercritical at n > 2 and no exclusion test
        # holding, the enumeration would need the Newton search; the
        # sandwich keeps to the healthy and boundary centres instead.
        sys = random_supercritical_system(np.random.default_rng(0), 3)
        a = equilibria.analysis(sys)
        assert all(bar is not None for bar in a.bars)
        assert not equilibria.coexistence_excluded(a)
        res = bv.sandwich_test(a)
        assert res.conclusive and not newton_calls
        assert bv.enumerate_equilibria(a) and newton_calls   # the spy sees it

    def test_shares_the_callers_enumeration(self, monkeypatch):
        # After the enumeration of an Analysis, the sandwich on it
        # classifies no equilibrium and solves no quadratic again.
        a = equilibria.analysis(CASES["case2"].system())
        enum = bv.enumerate_equilibria(a)
        calls = []
        for name in ("classify_state", "_coexistence_n2"):
            monkeypatch.setattr(equilibria, name,
                                lambda *args, _name=name: calls.append(_name))
        res = bv.sandwich_test(a)
        assert not calls
        assert not res.agree and res.retired == (True, True)
        assert {res.limit_A.as_vector().tobytes(),
                res.limit_B.as_vector().tobytes()} == {
            e.coordinates().tobytes() for e in enum.of_kind("boundary_virus1")
            + enum.of_kind("boundary_virus2")}

    def test_dominated_n3_builds_on_the_complete_enumeration(
            self, newton_calls, caplog):
        # Strictly ordered profiles rule coexistence out, so the
        # enumeration is complete without a search and the sandwich files
        # its order bounds.
        sys = random_supercritical_system(np.random.default_rng(5), 3)
        assert equilibria.coexistence_excluded(sys)
        with caplog.at_level(logging.DEBUG, logger="bivirus.sim"):
            res = bv.sandwich_test(sys)
        assert res.conclusive and res.agree and not newton_calls
        (line,) = [r.getMessage() for r in caplog.records
                   if r.name == "bivirus.sim"]
        assert re.search(r", [1-9]\d* order bounds$", line)
        (stable,) = [e for e in bv.enumerate_equilibria(sys)
                     if e.spectrum_class == "stable"]
        assert np.array_equal(res.limit_A.as_vector(), stable.coordinates())

    def test_case1_critical_boundary_has_no_ball(self):
        sys = CASES["case1"].system()
        res = bv.sandwich_test(sys)
        assert res.conclusive and res.retired == (False, False)
        z = bv.single_virus_endemic(B1, EYE)
        for limit in (res.limit_A, res.limit_B):
            alpha = float(np.mean(limit.x1 / z))
            line_pt = np.concatenate([alpha * z, (1 - alpha) * z])
            assert np.max(np.abs(limit.as_vector() - line_pt)) <= 1e-6

    @pytest.mark.parametrize("name", ["case2", "case4"])
    def test_retired_limits_match_lone_runs(self, name):
        sys = CASES[name].system()
        res = bv.sandwich_test(sys)
        assert res.retired == (True, True)
        for corner, limit in zip(sim._corner_states(2, res.eta),
                                 (res.limit_A, res.limit_B)):
            lone = bv.integrate(sys, corner)
            assert lone.outcome.kind == "converged"
            assert np.max(np.abs(lone.final_vector
                                 - limit.as_vector())) <= 1e-8

    def test_no_ball_at_a_repelling_healthy_state(self):
        for name in ("case1", "case2", "case3", "case4"):
            sys = CASES[name].system()
            assert equilibria.analysis(sys).R[0] > 1.0
            (healthy,) = bv.enumerate_equilibria(sys).of_kind("healthy")
            assert np.array_equal(healthy.coordinates(), np.zeros(4))
            assert sim._attraction_ball(sys, healthy) is None

    def test_no_ball_at_a_critical_boundary(self):
        sys = CASES["case1"].system()
        a = equilibria.analysis(sys)
        assert [v.verdict for v in bv.boundary_stability(a)] == \
            ["critical", "critical"]
        x1bar, x2bar = a.bars
        enum = bv.enumerate_equilibria(a)
        (b1,) = enum.of_kind("boundary_virus1")
        (b2,) = enum.of_kind("boundary_virus2")
        zero = np.zeros(2)
        for boundary, (x1, x2) in ((b1, (x1bar, zero)), (b2, (zero, x2bar))):
            assert np.array_equal(boundary.coordinates(),
                                  np.concatenate([x1, x2]))
            assert sim._attraction_ball(sys, boundary) is None


class TestBasinProbe:
    def test_case2_two_basins(self):
        sys = CASES["case2"].system()
        enum = bv.enumerate_equilibria(sys)
        probe = bv.basin_probe(sys, enum, sim.GridSpec(n_a=10, n_b=10))
        labelled = probe.labels[probe.labels >= 0]
        kinds = {probe.legend[k] for k in labelled}
        assert kinds == {"boundary_virus1", "boundary_virus2"}

    def test_case3_single_basin(self):
        sys = CASES["case3"].system()
        enum = bv.enumerate_equilibria(sys)
        probe = bv.basin_probe(sys, enum, sim.GridSpec(n_a=5, n_b=5))
        labelled = probe.labels[probe.labels >= 0]
        assert len(labelled) > 0
        assert {probe.legend[k] for k in labelled} == {"coexistence"}

    def test_case4_single_basin(self):
        sys = CASES["case4"].system()
        enum = bv.enumerate_equilibria(sys)
        probe = bv.basin_probe(sys, enum, sim.GridSpec(n_a=5, n_b=5))
        labelled = probe.labels[probe.labels >= 0]
        assert len(labelled) > 0
        assert {probe.legend[k] for k in labelled} == {"boundary_virus2"}

    def test_limits_inside_hyperrectangle(self):
        # every converged probe limit lies inside the sandwich box
        sys = CASES["case2"].system()
        enum = bv.enumerate_equilibria(sys)
        res = bv.sandwich_test(sys)
        probe = bv.basin_probe(sys, enum, sim.GridSpec(n_a=4, n_b=4))
        for i in range(probe.labels.shape[0]):
            for j in range(probe.labels.shape[1]):
                if probe.labels[i, j] >= 0:
                    s = State.from_vector(probe.final_states[i, j])
                    assert bv.hyperrectangle_contains(res, s)


def _broken_b2(B2):
    return BivirusSystem(B1, EYE, B2, EYE)


class TestSystemValidation:
    """`integrate`, `sandwich_test` and `basin_probe` refuse a system that
    breaks the model assumptions, and take an `equilibria.Analysis` as an
    already validated system."""

    BROKEN = {
        "nan": _broken_b2([[2.1, np.nan], [1.885, 1.1]]),
        "negative": _broken_b2([[2.1, -0.5], [1.885, 1.1]]),
        "reducible": _broken_b2([[2.1, 0.0], [3.0, 1.1]]),
    }
    ENTRY_POINTS = {
        "integrate": lambda sys: bv.integrate(
            sys, State([0.3, 0.3], [0.2, 0.2]), 10.0),
        "sandwich_test": lambda sys: bv.sandwich_test(sys, t_end=10.0),
        "basin_probe": lambda sys: bv.basin_probe(
            sys, [], sim.GridSpec(n_a=2, n_b=2)),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("broken", sorted(BROKEN))
    def test_broken_system_refused(self, entry, broken):
        with pytest.raises(ValidationError):
            self.ENTRY_POINTS[entry](self.BROKEN[broken])

    def test_analysis_is_not_validated_again(self, monkeypatch):
        sys = CASES["case2"].system()
        a = equilibria.analysis(sys)
        bare = bv.sandwich_test(sys)
        calls = []
        monkeypatch.setattr(model, "validate", calls.append)
        from_a = bv.sandwich_test(a)
        bv.integrate(a, State([0.3, 0.3], [0.2, 0.2]), 10.0)
        bv.basin_probe(a, [], sim.GridSpec(n_a=2, n_b=2))
        assert calls == []
        assert np.array_equal(from_a.traj_A.states, bare.traj_A.states)
        assert np.array_equal(from_a.traj_B.states, bare.traj_B.states)


class TestLockstepBatch:
    KW = dict(record_interval=1.0, stop_tol=sim.DEFAULT_STOP_TOL)

    def test_basin_probe_matches_lone_runs(self):
        sys = CASES["case2"].system()
        eqs = bv.enumerate_equilibria(sys).equilibria
        grid = sim.GridSpec(n_a=8, n_b=8)
        probe = bv.basin_probe(sys, eqs, grid)
        a_vals, b_vals = grid.axes()
        lone_runs = 0
        for (i, j), label in np.ndenumerate(probe.labels):
            if label == sim.LABEL_INVALID:
                continue
            traj = bv.integrate(sys, State(a_vals[i] * np.ones(2),
                                           b_vals[j] * np.ones(2)),
                                record_interval=5.0)
            assert traj.outcome.kind == "converged"
            (lone,) = sim.nearest_equilibrium(traj.final_vector, eqs)
            assert label == lone
            assert np.max(np.abs(probe.final_states[i, j]
                                 - traj.final_vector)) <= 1e-8
            lone_runs += 1
        assert lone_runs == 36

    def test_rows_stop_on_their_own(self):
        sys = CASES["case2"].system()
        at_rest = [e for e in bv.enumerate_equilibria(sys)
                   if e.kind == "boundary_virus1"][0].state
        far = State([0.4, 0.3], [0.2, 0.3])
        rest_run, far_run = _integrate_starts(sys, [at_rest, far], 2000.0,
                                              **self.KW)
        lone = bv.integrate(sys, far, 2000.0, **self.KW)
        assert rest_run.outcome.kind == far_run.outcome.kind == "converged"
        assert len(rest_run.times) < len(far_run.times)
        assert len(far_run.times) == len(lone.times)
        assert lone.outcome.kind == far_run.outcome.kind
        assert np.max(np.abs(far_run.final_vector
                             - lone.final_vector)) <= 1e-12
        assert np.max(np.abs(rest_run.final_vector
                             - at_rest.as_vector())) <= 1e-12

    def test_containment_error_names_its_start(self):
        # Negative recovery makes virus 1 grow without bound from any
        # positive start; row 0 starts at x1 = 0 and stays feasible.
        sys = BivirusSystem([[0.0]], [-1.0], [[0.0]], [1.0])
        starts = [State([0.0], [0.1]), State([0.1], [0.1])]
        with pytest.raises(IntegrationError, match="start 1") as info:
            _integrate_starts(sys, starts, 50.0, **self.KW)
        err = info.value
        assert err.start == 1 and err.t > 0.0
        assert err.state[0] + err.state[1] > 1.0 + model.CONTAINMENT_TOL

    def test_containment_passes_drift_within_tolerance_untouched(self):
        # x1' = -(1e-3 + 5e-13) from 1e-3 lands at -5e-13 at t = 1; the
        # feasible set is invariant only up to the stepper's error, so the
        # guard lets drift this small through as it is.
        slope = np.array([-(1e-3 + 5e-13), 0.0])
        ((times, states, _),) = _integrate_flat(
            lambda y: np.broadcast_to(slope, y.shape), [[1e-3, 0.5]], 0.0,
            1.0, 1e-9, 1e-12, 0.5, guard=sim._containment_guard(1))
        assert times[-1] == 1.0
        assert states[-1, 0] == pytest.approx(-5e-13, rel=1e-3)
        assert states[-1, 1] == 0.5

    def test_step_underflow_names_its_start(self):
        # y' = y^2 blows up at t = 1 from y = 1; the row at 0 stays put.
        with pytest.raises(IntegrationError, match="start 1") as info:
            _integrate_flat(lambda y: y * y, np.array([[0.0], [1.0]]), 0.0,
                            2.0, 1e-9, 1e-12, 0.5)
        assert info.value.start == 1
        assert info.value.t < 1.0 and info.value.state[0] > 1e3


@pytest.fixture(scope="module")
def lone_labels():
    """Per case: (equilibria, 10x10 grid labels of lone `integrate` runs)."""
    out = {}
    grid = sim.GridSpec(n_a=10, n_b=10)
    a_vals, b_vals = grid.axes()
    for name in ("case2", "case3", "case4"):
        sys = CASES[name].system()
        eqs = bv.enumerate_equilibria(sys).equilibria
        labels = np.full((10, 10), sim.LABEL_INVALID)
        for i, j in np.ndindex(labels.shape):
            s0 = State(a_vals[i] * np.ones(2), b_vals[j] * np.ones(2))
            if model.in_feasible_set(s0, 0.0) and model.is_strictly_interior(s0):
                traj = bv.integrate(sys, s0, record_interval=5.0)
                labels[i, j] = (sim.nearest_equilibrium(traj.final_vector, eqs)[0]
                                if traj.outcome.kind == "converged"
                                else sim.LABEL_UNRESOLVED)
        out[name] = (eqs, labels)
    return out


class TestAttractionBall:
    STABLE = [("case2", "boundary_virus1"), ("case2", "boundary_virus2"),
              ("case3", "coexistence"), ("case4", "boundary_virus2")]

    @staticmethod
    def _equilibrium(name, kind):
        sys = CASES[name].system()
        (e,) = bv.enumerate_equilibria(sys).of_kind(kind)
        return sys, e

    @pytest.mark.parametrize("name,kind", STABLE)
    def test_starts_on_the_ball_converge_to_its_centre(self, name, kind):
        # Offsets of +-rho v_i put a start at weighted distance rho from e;
        # rho is 0.99 of the retirement radius (half the certified one) and
        # of the certified radius itself.
        sys, e = self._equilibrium(name, kind)
        v, radius = sim._attraction_ball(sys, e)
        centre = e.coordinates()
        absent = centre == 0.0       # the absent virus at a boundary point
        runs = 0
        for rho in (0.99 * 0.5 * radius, 0.99 * radius):
            for signs in np.ndindex(*(2,) * len(v)):
                sign = np.where(np.array(signs) == 0, 1.0, -1.0)
                if (sign[absent] < 0).any():
                    continue
                s0 = State.from_vector(centre + rho * sign * v)
                if not model.in_feasible_set(s0, 0.0):
                    continue
                traj = bv.integrate(sys, s0)
                assert traj.outcome.kind == "converged"
                assert np.max(np.abs(traj.final_vector - centre)) <= 1e-7
                runs += 1
        assert runs >= 8

    def test_no_ball_without_a_certificate(self):
        sys2 = CASES["case2"].system()
        enum = bv.enumerate_equilibria(sys2)
        for kind in ("healthy", "coexistence"):
            (e,) = enum.of_kind(kind)
            assert e.spectrum_class == "unstable"
            assert sim._attraction_ball(sys2, e) is None
            # the transformed Jacobian refuses it even when labelled stable
            fake = dataclasses.replace(e, spectrum_class="stable")
            assert sim._attraction_ball(sys2, fake) is None
        # case1's line of equilibria: M is singular at each of its points,
        # the two ends included
        sys1 = CASES["case1"].system()
        ends = bv.enumerate_equilibria(sys1).of_kind("boundary_virus1")
        assert ends[0].spectrum_class == "singular_boundary"
        z = bv.single_virus_endemic(B1, EYE)
        for alpha in (0.0, 0.3, 0.5, 1.0):
            point = dataclasses.replace(
                ends[0], state=State(alpha * z, (1.0 - alpha) * z),
                spectrum_class="stable")
            assert bv.residual(sys1, point.state) <= 1e-12
            assert sim._attraction_ball(sys1, point) is None
        assert sim._attraction_ball(sys1, ends[0]) is None

    def test_no_ball_for_a_stale_equilibrium(self):
        # a stable entry whose residual on the probed system is above
        # stop_tol (here: case2's point handed to a perturbed case2)
        _, e = self._equilibrium("case2", "boundary_virus1")
        other = BivirusSystem(B1 * 1.001, EYE, CASES["case2"].B2, EYE)
        balls = sim._AttractionBalls(other, [e], sim.DEFAULT_STOP_TOL)
        assert not balls.fresh.any() and len(balls.radii) == 0

    @pytest.mark.parametrize("name", ["case2", "case3", "case4"])
    def test_probe_labels_match_lone_runs(self, name, lone_labels, caplog):
        eqs, lone = lone_labels[name]
        with caplog.at_level(logging.DEBUG, logger="bivirus.sim"):
            probe = bv.basin_probe(CASES[name].system(), eqs,
                                   sim.GridSpec(n_a=10, n_b=10))
        assert (lone >= 0).sum() == 55
        np.testing.assert_array_equal(probe.labels, lone)
        (line,) = [r.getMessage() for r in caplog.records]
        counts = re.match(r"basin probe: (\d+) starts retired in a ball, "
                          r"(\d+) between two certified paths, "
                          r"(\d+) stopped by the stop rule, (\d+) unresolved",
                          line).groups()
        by_ball, by_path, by_rule, unresolved = map(int, counts)
        assert by_ball > 0 and by_ball + by_path + by_rule == 55
        assert unresolved == 0
        if name == "case2":
            assert by_path > 0

    def test_inflated_ball_breaks_the_labels(self, lone_labels, monkeypatch):
        # Balls inflated 300x, so that their retirement half holds the
        # saddle (case2's coexistence point), capture starts bound for the
        # other boundary equilibrium.
        eqs, lone = lone_labels["case2"]
        sys = CASES["case2"].system()
        (coex,) = [e for e in eqs if e.kind == "coexistence"]
        certified = sim._attraction_ball
        reached = []

        def inflated(sys_, e):
            ball = certified(sys_, e)
            if ball is None:
                return None
            v, radius = ball
            gap = np.max(np.abs(coex.coordinates() - e.coordinates()) / v)
            reached.append(gap < 0.5 * 300.0 * radius)
            return v, 300.0 * radius

        monkeypatch.setattr(sim, "_attraction_ball", inflated)
        probe = bv.basin_probe(sys, eqs, sim.GridSpec(n_a=10, n_b=10))
        assert reached == [True, True]
        assert (probe.labels != lone).sum() > 0


def _probe_line(caplog):
    """(ball retirements, path retirements, time of the last retirement)
    from the one `basin probe:` DEBUG line in caplog."""
    (line,) = [r.getMessage() for r in caplog.records
               if r.getMessage().startswith("basin probe:")]
    m = re.match(r"basin probe: (\d+) starts retired in a ball, (\d+) "
                 r"between two certified paths, .*; last retirement at "
                 r"t = ([0-9.e+]+);", line)
    return int(m.group(1)), int(m.group(2)), float(m.group(3))


class TestPathRetirement:
    def test_case2_paths_retire_early(self, caplog):
        # Without path certificates the last of the 36 starts retires in
        # a ball at t = 190-220; bracketed starts leave by t = 75-95.
        sys = CASES["case2"].system()
        eqs = bv.enumerate_equilibria(sys).equilibria
        with caplog.at_level(logging.DEBUG, logger="bivirus.sim"):
            probe = bv.basin_probe(sys, eqs, sim.GridSpec(n_a=8, n_b=8))
        by_ball, by_path, last = _probe_line(caplog)
        assert by_path > 0 and by_ball + by_path == 36
        assert last <= 120.0
        assert (probe.labels >= 0).sum() == 36

    def test_misfiled_path_breaks_the_labels(self, lone_labels, monkeypatch):
        # Paths bound for the virus-2 boundary point are filed under the
        # virus-1 ball, so starts they bracket retire to the wrong point.
        eqs, lone = lone_labels["case2"]
        certify = sim._AttractionBalls.certify

        def misfiled(self, held, paths):
            kinds = [eqs[i].kind for i in self.owners]
            e1 = kinds.index("boundary_virus1")
            e2 = kinds.index("boundary_virus2")
            certify(self, np.where(held == e2, e1, held), paths)

        monkeypatch.setattr(sim._AttractionBalls, "certify", misfiled)
        probe = bv.basin_probe(CASES["case2"].system(), eqs,
                               sim.GridSpec(n_a=10, n_b=10))
        assert (probe.labels != lone).sum() > 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pruned_sets_bracket_what_the_paths_do(self, n, monkeypatch):
        # Paths are lattice walks that move one coordinate a step at a
        # time, so ties and ordered pairs are common, as on a trajectory;
        # a query is a path point moved one step.  Small blocks make each
        # merge take several of them.
        monkeypatch.setattr(sim, "_MERGE_CELLS", 8 * n)
        rng = np.random.default_rng(40 + n)
        d = 2 * n
        paths = []
        for _ in range(8):
            steps = np.zeros((rng.integers(2, 30), d))
            steps[np.arange(len(steps)), rng.integers(0, d, len(steps))] = (
                rng.choice([-1, 1], len(steps)))
            walk = rng.integers(0, 9, d) + np.cumsum(steps, axis=0)
            paths.append(np.clip(walk, 0, 8) / 8)
        floor = ceiling = np.empty((0, d))
        for path in paths:
            floor = sim._merge_lowest(floor, path)
            ceiling = sim._merge_lowest(ceiling, -path)
        points = np.concatenate(paths)
        assert len(floor) < len(points) and len(ceiling) < len(points)
        for kept in (floor, -ceiling):
            le = sim._order_leq_rows(kept[:, None, :], kept)
            assert not (le & ~np.eye(len(kept), dtype=bool)).any()
        queries = points[rng.integers(0, len(points), 3000)]
        queries[np.arange(3000), rng.integers(0, d, 3000)] += (
            rng.choice([-1, 1], 3000) / 8)
        lows = sim._below_some(queries, points)
        highs = sim._below_some(-queries, -points)
        np.testing.assert_array_equal(sim._below_some(queries, floor), lows)
        np.testing.assert_array_equal(sim._below_some(-queries, ceiling),
                                      highs)
        assert (lows & highs).any() and not (lows & highs).all()


def _order_bounds(name):
    """(system, equilibria, certificate holding only the order bounds) for
    a bundled case."""
    sys = CASES[name].system()
    eqs = bv.enumerate_equilibria(sys).equilibria
    balls = sim._AttractionBalls(sys, eqs, sim.DEFAULT_STOP_TOL)
    balls.bound_orders(sys, eqs)
    return sys, eqs, balls


class TestOrderBounds:
    #: points w+- filed beside the unstable equilibria, and all points
    #: filed, the corners (1, 0) and (0, 1) included
    FILED = {"case2": (2, 4), "case3": (2, 2), "case4": (1, 2)}

    @pytest.mark.parametrize("name", ["case2", "case3", "case4"])
    def test_probe_of_a_complete_list(self, name, lone_labels, caplog):
        # Handed the EnumerationResult, the probe files order bounds and
        # retires every start by t = 10 (165 / 210 / 25 on the bare list),
        # with the lone-run labels and the bare list's final states.
        eqs, lone = lone_labels[name]
        sys = CASES[name].system()
        enum = bv.enumerate_equilibria(sys)
        grid = sim.GridSpec(n_a=10, n_b=10)
        with caplog.at_level(logging.DEBUG, logger="bivirus.sim"):
            probe = bv.basin_probe(sys, enum, grid)
        np.testing.assert_array_equal(probe.labels, lone)
        by_ball, by_path, last = _probe_line(caplog)
        assert by_ball + by_path == 55 and last <= 10.0
        (line,) = [r.getMessage() for r in caplog.records]
        filed = int(re.search(r"0 unresolved, (\d+) order bounds;",
                              line).group(1))
        assert filed == self.FILED[name][1]
        bare = bv.basin_probe(sys, enum.equilibria, grid)
        assert np.array_equal(probe.final_states, bare.final_states,
                              equal_nan=True)

    @pytest.mark.parametrize("name", ["case2", "case3", "case4"])
    def test_bounds_flow_monotonically_to_their_ball(self, name):
        # Oracle: each w+- has its field strictly inside the cone (or its
        # negative), and a lone run from every filed point rises (floors)
        # or falls (ceilings) in the order at every record, up to a few
        # ulps once it sits at its limit, and ends at the centre of the
        # ball it was filed under.
        sys, eqs, balls = _order_bounds(name)
        f = model.field(sys)
        cone = np.repeat([1.0, -1.0], sys.n)
        beside = filed = 0
        for k, i in enumerate(balls.owners):
            target = eqs[i].coordinates()
            for side, points in ((1.0, balls.floors[k]),
                                 (-1.0, -balls.ceilings[k])):
                for w in points:
                    if not np.isin(w, (0.0, 1.0)).all():   # not a corner
                        assert (side * cone * f(w) > 0.0).all()
                        beside += 1
                    traj = bv.integrate(sys, State.from_vector(w))
                    lo, hi = traj.states[:-1], traj.states[1:]
                    if side < 0:
                        lo, hi = hi, lo
                    assert sim._order_leq_rows(lo, hi, 4 * EPS).all()
                    assert traj.outcome.kind == "converged"
                    assert np.max(np.abs(traj.final_vector - target)) <= 1e-7
                    filed += 1
        assert (beside, filed) == self.FILED[name]

    def test_misfiled_bound_breaks_the_labels(self, lone_labels, monkeypatch):
        # case2's two boundary balls trade their order bounds, so starts
        # above the saddle retire to the virus-2 point and starts below it
        # to the virus-1 point.
        eqs, lone = lone_labels["case2"]
        bound_orders = sim._AttractionBalls.bound_orders

        def misfiled(self, sys_, eqs_):
            filed = bound_orders(self, sys_, eqs_)
            assert len(self.owners) == 2
            self.floors.reverse()
            self.ceilings.reverse()
            return filed

        monkeypatch.setattr(sim._AttractionBalls, "bound_orders", misfiled)
        sys = CASES["case2"].system()
        probe = bv.basin_probe(sys, bv.enumerate_equilibria(sys),
                               sim.GridSpec(n_a=10, n_b=10))
        assert (probe.labels != lone).sum() > 0

    def test_incomplete_list_files_no_bounds(self, caplog):
        sys = CASES["case1"].system()
        enum = bv.enumerate_equilibria(sys)
        assert not enum.complete
        with caplog.at_level(logging.DEBUG, logger="bivirus.sim"):
            bv.basin_probe(sys, enum, sim.GridSpec(n_a=4, n_b=4))
        (line,) = [r.getMessage() for r in caplog.records]
        assert " 0 order bounds;" in line

    def test_one_field_closure_serves_the_certificate(self, monkeypatch):
        # The certificate's residual and sign checks share one closure,
        # and the stepper builds the other; model.residual is not called.
        sys = CASES["case2"].system()
        enum = bv.enumerate_equilibria(sys)
        field, built = model.field, []

        def counted(sys_):
            built.append(sys_)
            return field(sys_)

        def refused(*args):
            raise AssertionError("model.residual called")

        monkeypatch.setattr(model, "field", counted)
        monkeypatch.setattr(model, "residual", refused)
        bv.basin_probe(sys, enum, sim.GridSpec(n_a=4, n_b=4))
        assert len(built) == 2

    @pytest.mark.parametrize("name", ["case2", "case3", "case4"])
    def test_bounds_shift_by_the_listed_abscissa(self, name, monkeypatch,
                                                 caplog):
        # Each unstable equilibrium's abscissa was computed when it was
        # classified, so filing its order bounds computes none.
        sys = CASES[name].system()
        enum = bv.enumerate_equilibria(sys)
        calls = []
        abscissa = speclin.spectral_abscissa

        def counted(M):
            calls.append(M)
            return abscissa(M)

        monkeypatch.setattr(speclin, "spectral_abscissa", counted)
        with caplog.at_level(logging.DEBUG, logger="bivirus.sim"):
            bv.basin_probe(sys, enum, sim.GridSpec(n_a=4, n_b=4))
        (line,) = [r.getMessage() for r in caplog.records]
        filed = int(re.search(r"0 unresolved, (\d+) order bounds;",
                              line).group(1))
        assert filed == TestOrderBounds.FILED[name][1]
        assert calls == []


class TestRetirementAtStart:
    def test_probe_start_bracketed_at_t0_has_one_record(self):
        # The starts the complete certificate holds before the first step
        # come back at once; the others run.
        sys = CASES["case2"].system()
        balls = sim._AttractionBalls(sys, bv.enumerate_equilibria(sys),
                                     sim.DEFAULT_STOP_TOL)
        a_vals, b_vals = sim.GridSpec(n_a=8, n_b=8).axes()
        starts = [State(a * np.ones(2), b * np.ones(2))
                  for a in a_vals for b in b_vals if a + b < 1.0]
        held = balls.locate(np.array([s.as_vector() for s in starts]))
        assert (held >= 0).any() and (held < 0).any()
        trajs = _integrate_starts(sys, starts, sim.DEFAULT_T_END,
                                  record_interval=5.0, certificate=balls)
        for s, k, tr in zip(starts, held, trajs):
            assert tr.outcome.kind == "converged"
            if k >= 0:
                assert np.array_equal(tr.times, [0.0])
                assert np.array_equal(tr.states, [s.as_vector()])
            else:
                assert len(tr.times) > 1

    def test_error_names_its_start_after_others_retire(self):
        # Start 0 (x1 = 0) is held before the first step, so the stepper
        # runs start 1 alone as its row 0; the error still says start 1.
        class HoldVirusFree:
            def locate(self, y):
                return np.where(y[:, 0] == 0.0, 0, -1)

            def certify(self, held, paths):
                pass

        sys = BivirusSystem([[0.0]], [-1.0], [[0.0]], [1.0])
        starts = [State([0.0], [0.1]), State([0.1], [0.1])]
        with pytest.raises(IntegrationError, match="^start 1: feasible") as info:
            _integrate_starts(sys, starts, 50.0, certificate=HoldVirusFree())
        assert info.value.start == 1 and info.value.t > 0.0

    def test_no_retirement_before_the_final_record_without_stop_tol(self):
        sys = CASES["case2"].system()
        balls = sim._AttractionBalls(sys, bv.enumerate_equilibria(sys),
                                     sim.DEFAULT_STOP_TOL)
        corner = sim._corner_states(2, sim.DEFAULT_ETA)[0]
        assert balls.locate(corner.as_vector()[None])[0] >= 0
        (tr,) = _integrate_starts(sys, [corner], 5.0, stop_tol=None,
                                  certificate=balls)
        assert tr.times[-1] == pytest.approx(5.0)

    def test_nonpositive_horizon_refused(self):
        # and every other run setting that cannot mean anything
        sys = CASES["case2"].system()
        corner = sim._corner_states(2, sim.DEFAULT_ETA)[0]
        sandwich = functools.partial(bv.sandwich_test, sys)
        integrate = functools.partial(bv.integrate, sys, corner)
        for run, kw, name in [
                (sandwich, dict(t_end=0.0), "t_end"),
                (sandwich, dict(t_end=np.nan), "t_end"),
                (integrate, dict(t_end=np.inf), "t_end"),
                (integrate, dict(record_interval=0.0), "record_interval"),
                (integrate, dict(record_interval=np.nan), "record_interval"),
                (integrate, dict(record_interval=np.inf), "record_interval"),
                (sandwich, dict(stop_tol=-1.0), "stop_tol"),
                (integrate, dict(stop_tol=np.nan), "stop_tol"),
                (sandwich, dict(tol=-1.0), "agreement tolerance"),
                (sandwich, dict(tol=np.nan), "agreement tolerance")]:
            with pytest.raises(DomainError, match=name):
                run(**kw)


class TestFirstSameAsLast:
    def test_rows_left_keep_their_own_slopes(self):
        # y' = -y from 2 and from 1; row 0 leaves at the first record mark
        # after t0, and row 1 must go on from its own slope, not row 0's.
        def stop_row_0(t, rows, times, records, fy):
            return (rows == 0) & (t > 0.0)

        runs = _integrate_flat(lambda y: -y, np.array([[2.0], [1.0]]), 0.0,
                               4.0, 1e-6, 1e-9, 0.5, stop_check=stop_row_0)
        assert runs[0][2] and len(runs[0][0]) == 2
        times, states, stopped = runs[1]
        assert not stopped and times[-1] == pytest.approx(4.0)
        assert np.max(np.abs(states[:, 0] - np.exp(-times))) <= 1e-6

    def test_stop_rule_reads_the_held_slopes(self, monkeypatch):
        # Inside the stepper a batch costs one field evaluation to start
        # and six per attempted step; the stop rule adds none of its own.
        count = dict(f=0, steps=0, in_flat=0)
        field, step_dp, flat = model.field, sim._step_dp, sim._integrate_flat

        def counted_field(sys_):
            f = field(sys_)

            def g(y):
                count["f"] += 1
                return f(y)
            return g

        def counted_step(*args):
            count["steps"] += 1
            return step_dp(*args)

        def counted_flat(*args, **kw):
            before = count["f"]
            out = flat(*args, **kw)
            count["in_flat"] = count["f"] - before
            return out

        monkeypatch.setattr(model, "field", counted_field)
        monkeypatch.setattr(sim, "_step_dp", counted_step)
        monkeypatch.setattr(sim, "_integrate_flat", counted_flat)
        sys = CASES["case2"].system()
        trajs = _integrate_starts(sys, bv.demo_starts(), 2000.0,
                                  record_interval=1.0,
                                  stop_tol=sim.DEFAULT_STOP_TOL)
        assert all(tr.outcome.kind == "converged" for tr in trajs)
        assert count["steps"] > 0
        assert count["in_flat"] == 1 + 6 * count["steps"]


class TestProbeStepperTolerance:
    """The basin probe steps at PROBE_TOL_SHARE of the smaller of MATCH_TOL
    and its certificate's smallest reserved half radius, never below RTOL;
    `integrate` and `sandwich_test` keep RTOL and ATOL."""

    @staticmethod
    def _spy(monkeypatch):
        """The (rtol, atol) of every `_integrate_flat` call, in order."""
        calls, flat = [], sim._integrate_flat

        def spied(f, y0, t0, t_end, rtol, atol, *args, **kw):
            calls.append((rtol, atol))
            return flat(f, y0, t0, t_end, rtol, atol, *args, **kw)

        monkeypatch.setattr(sim, "_integrate_flat", spied)
        return calls

    @pytest.mark.parametrize("name,complete", [
        ("case2", True), ("case3", True), ("case4", True), ("case2", False)])
    def test_labels_match_a_probe_at_rtol(self, name, complete, monkeypatch,
                                          caplog):
        sys = CASES[name].system()
        enum = bv.enumerate_equilibria(sys)
        eqs = enum if complete else enum.equilibria
        grid = sim.GridSpec(n_a=20, n_b=20)
        with caplog.at_level(logging.DEBUG, logger="bivirus.sim"):
            fast = bv.basin_probe(sys, eqs, grid)
        (line,) = [r.getMessage() for r in caplog.records]
        rtol = float(re.search(r"; stepper rtol ([0-9.e+-]+) \(smallest "
                               r"reserved half radius", line).group(1))
        assert rtol > 100.0 * sim.RTOL
        monkeypatch.setattr(sim, "PROBE_TOL_SHARE", 0.0)
        slow = bv.basin_probe(sys, eqs, grid)
        assert (slow.labels >= 0).sum() == 229
        np.testing.assert_array_equal(fast.labels, slow.labels)
        # every start retires, so each final state is its equilibrium
        assert np.array_equal(fast.final_states, slow.final_states,
                              equal_nan=True)

    def test_probe_steps_at_the_derived_tolerance(self, monkeypatch):
        sys = CASES["case2"].system()
        calls = self._spy(monkeypatch)
        bv.basin_probe(sys, bv.enumerate_equilibria(sys),
                       sim.GridSpec(n_a=4, n_b=4))
        bv.integrate(sys, State(0.3 * np.ones(2), 0.3 * np.ones(2)), 10.0)
        bv.sandwich_test(sys)
        # case2's balls reserve more than MATCH_TOL, so MATCH_TOL decides
        rtol = sim.PROBE_TOL_SHARE * sim.MATCH_TOL
        assert rtol == 1e-6
        assert calls == [(rtol, rtol * sim.ATOL / sim.RTOL),
                         (sim.RTOL, sim.ATOL), (sim.RTOL, sim.ATOL)]

    def test_floors_at_rtol_for_a_tiny_ball(self, monkeypatch, caplog):
        sys = CASES["case2"].system()
        certified = sim._attraction_ball

        def tiny(sys_, e):
            ball = certified(sys_, e)
            return None if ball is None else (ball[0], 1e-7)

        monkeypatch.setattr(sim, "_attraction_ball", tiny)
        calls = self._spy(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="bivirus.sim"):
            bv.basin_probe(sys, bv.enumerate_equilibria(sys),
                           sim.GridSpec(n_a=3, n_b=3))
        assert calls == [(sim.RTOL, sim.ATOL)]
        (line,) = [r.getMessage() for r in caplog.records]
        half = float(re.search(r"reserved half radius ([0-9.e+-]+)\)$",
                               line).group(1))
        assert 0.0 < sim.PROBE_TOL_SHARE * half < sim.RTOL
