import logging
import re
import tracemalloc

import numpy as np
import pytest

import bivirus as bv
from bivirus import CASES, cases, equilibria, model, speclin
from bivirus.exceptions import ConvergenceError, DomainError
from bivirus.model import BivirusSystem, State

import oracles
from conftest import (random_supercritical_system, random_spreading_matrix,
                      weak_communities)

B1 = np.array([[1.6, 1.0], [1.0, 1.6]])
EYE = np.eye(2)
#: Boundary-test verdict -> the Jacobian class it must agree with.
VERDICT_CLASS = {"locally_stable": "stable", "unstable": "unstable",
                 "critical": "singular_boundary"}


class TestSingleVirusEndemic:
    def test_symmetric_closed_form(self):
        x = bv.single_virus_endemic(B1, EYE)
        assert np.allclose(x, (1.0 - 1.0 / 2.6) * np.ones(2), atol=1e-12)

    def test_subcritical_none(self):
        B = 0.9 * B1 / 2.6  # spectral radius 0.9
        assert bv.single_virus_endemic(B, EYE) is None

    def test_case2_profile(self):
        # reference coordinates carry 3-decimal rounding (and the rates that
        # produced them were rounded too), hence the 5e-3 budget
        x = bv.single_virus_endemic(CASES["case2"].B2, EYE)
        assert np.max(np.abs(x - [0.565, 0.715])) <= 5e-3

    def test_residual_tight(self):
        x = bv.single_virus_endemic(CASES["case3"].B2, EYE, tol=1e-13)
        r = -x + (1 - x) * (CASES["case3"].B2 @ x)
        assert np.max(np.abs(r)) <= 1e-13

    def test_heterogeneous_recovery(self):
        d = np.array([0.5, 2.0])
        x = bv.single_virus_endemic(B1, np.diag(d))
        r = -d * x + (1 - x) * (B1 @ x)
        assert np.max(np.abs(r)) <= 1e-12
        assert (x > 0).all() and (x < 1).all()

    @pytest.mark.parametrize("excess", [1e-5, 1e-7])
    def test_near_threshold_equal_row_sums(self, excess):
        # Every row of D^-1 B sums to R, so the profile is exactly
        # (1 - 1/R) 1 = ((R - 1) / R) 1, with R just above 1.
        R = 1.0 + excess
        d = np.array([0.5, 1.0, 2.0, 4.0])
        A = np.random.default_rng(5).uniform(0.1, 1.0, size=(4, 4))
        systems = [((R / 4.0) * np.ones((4, 4)), np.eye(4)),
                   (B1 * (R / 2.6), EYE),
                   (A * (R * d / A.sum(axis=1))[:, None], np.diag(d))]
        expected = (R - 1.0) / R
        for B, D in systems:
            x = bv.single_virus_endemic(B, D)
            assert np.max(np.abs(x / expected - 1.0)) <= 1e-8

    def test_unmet_tol_raises_naming_the_residual(self):
        with pytest.raises(ConvergenceError, match="residual"):
            bv.single_virus_endemic(CASES["case2"].B2, EYE, tol=1e-300)


class TestBoundaryStability:
    @pytest.mark.parametrize("name,expected", [
        ("case2", ("locally_stable", "locally_stable")),
        ("case3", ("unstable", "unstable")),
        ("case4", ("unstable", "locally_stable")),
    ])
    def test_case_verdicts(self, name, expected):
        v1, v2 = bv.boundary_stability(CASES[name].system())
        assert (v1.verdict, v2.verdict) == expected

    def test_case1_critical(self):
        v1, v2 = bv.boundary_stability(CASES["case1"].system())
        assert v1.verdict == v2.verdict == "critical"
        assert v1.rho_cross == pytest.approx(1.0, abs=1e-9)

    def test_subcritical_virus_absent(self):
        sys = BivirusSystem(B1, EYE, 0.5 * B1 / 2.6, EYE)  # R2 = 0.5
        v1, v2 = bv.boundary_stability(sys)
        assert v2 is None
        assert v1 is not None and v1.verdict == "locally_stable"

    def test_consistent_with_jacobian_classification(self):
        # the two stability routes must agree on every case system
        for name, cs in CASES.items():
            sys = cs.system()
            verdicts = bv.boundary_stability(sys)
            enum = bv.enumerate_equilibria(sys)
            for verdict, kind in zip(verdicts,
                                     ("boundary_virus1", "boundary_virus2")):
                (eq,) = [e for e in enum if e.kind == kind]
                assert VERDICT_CLASS[verdict.verdict] == eq.spectrum_class, name

    def test_weakly_coupled_communities(self):
        # two equal-radius communities per virus joined by 1e-5 links: the
        # leading eigenvalues of every spectral test nearly coincide
        rng = np.random.default_rng(5)
        n = 6
        sys = BivirusSystem(weak_communities(rng, n, 1e-5, 1.8), np.eye(n),
                            weak_communities(rng, n, 1e-5, 1.6), np.eye(n))
        enum = bv.enumerate_equilibria(sys)
        verdicts = bv.boundary_stability(sys)
        for verdict, kind in zip(verdicts,
                                 ("boundary_virus1", "boundary_virus2")):
            (eq,) = enum.of_kind(kind)
            assert VERDICT_CLASS[verdict.verdict] == eq.spectrum_class
        assert max(e.residual for e in enum) <= 1e-10


class TestSufficientConditions:
    def test_entrywise_dominance(self):
        sys = BivirusSystem(B1, EYE, B1 + 0.1, EYE)
        rep = bv.sufficient_conditions(sys)
        assert rep.entrywise_dominance == "holds_for_virus2"

    def test_case2_all_inconclusive(self):
        rep = bv.sufficient_conditions(CASES["case2"].system())
        assert rep.entrywise_dominance == "inconclusive"
        assert rep.profile_dominance == "inconclusive"

    def test_reports_only_the_proved_tests(self):
        rep = bv.sufficient_conditions(CASES["case2"].system())
        assert list(vars(rep)) == ["entrywise_dominance", "profile_dominance"]

    def test_virus1_ordering_detected(self):
        sys = BivirusSystem(B1 + 0.1, EYE, B1, EYE)
        rep = bv.sufficient_conditions(sys)
        assert rep.entrywise_dominance == "holds_for_virus1"

    def test_requires_supercritical(self):
        sys = BivirusSystem(B1, EYE, 0.5 * B1 / 2.6, EYE)
        with pytest.raises(DomainError):
            bv.sufficient_conditions(sys)

    def test_soundness_no_coexistence_when_dominated(self):
        # dominance excludes coexistence and fixes the boundary verdicts
        rng = np.random.default_rng(31)
        for _ in range(10):
            base = random_spreading_matrix(rng, 2)
            sys = BivirusSystem(base, EYE,
                                base + rng.uniform(0.05, 0.3, (2, 2)), EYE)
            rep = bv.sufficient_conditions(sys)
            assert rep.entrywise_dominance == "holds_for_virus2"
            enum = bv.enumerate_equilibria(sys)
            assert not enum.of_kind("coexistence")
            v1, v2 = bv.boundary_stability(sys)
            assert v1.verdict == "unstable"
            assert v2.verdict == "locally_stable"


class TestSolveCoexistenceN2:
    def test_case2_unstable_point(self):
        (eq,) = bv.solve_coexistence_n2(CASES["case2"].system())
        assert np.max(np.abs(eq.state.x1 - [0.344, 0.263])) <= 5e-3
        assert np.max(np.abs(eq.state.x2 - [0.233, 0.393])) <= 5e-3
        assert eq.spectrum_class == "unstable"
        assert eq.residual <= 1e-10

    def test_case3_stable_point(self):
        (eq,) = bv.solve_coexistence_n2(CASES["case3"].system())
        assert np.max(np.abs(eq.state.x1 - [0.462, 0.512])) <= 5e-3
        assert np.max(np.abs(eq.state.x2 - [0.168, 0.089])) <= 5e-3
        assert eq.spectrum_class == "stable"

    def test_case4_empty(self):
        assert bv.solve_coexistence_n2(CASES["case4"].system()) == []

    def test_case1_line_yields_no_isolated_point(self):
        assert bv.solve_coexistence_n2(CASES["case1"].system()) == []

    def test_equal_viruses_degenerate(self):
        assert bv.solve_coexistence_n2(BivirusSystem(B1, EYE, B1, EYE)) == []

    def test_linear_fallback_when_leading_coefficient_vanishes(self):
        # b2[1,1] == b1[1,1] kills the quadratic's leading coefficient
        B2 = np.array([[2.1, 0.5], [1.5, 1.6]])
        roots = bv.solve_coexistence_n2(BivirusSystem(B1, EYE, B2, EYE))
        expected = oracles.bruteforce_coexistence_n2(B1, B2, step=0.05)
        assert len(roots) == len(expected)

    def test_requires_two_nodes(self):
        n3 = np.ones((3, 3))
        with pytest.raises(DomainError):
            bv.solve_coexistence_n2(BivirusSystem(n3, np.eye(3), n3, np.eye(3)))

    def test_case2_deep_grid_cross_check(self):
        # exhaustive parity with the fine-grained grid+Newton oracle
        roots = bv.solve_coexistence_n2(CASES["case2"].system())
        grid = oracles.bruteforce_coexistence_n2(B1, CASES["case2"].B2,
                                                 step=0.02)
        assert len(roots) == len(grid) == 1
        assert np.max(np.abs(roots[0].coordinates() - grid[0])) <= 1e-6

    def test_random_parity_with_grid_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(15):
            sys = random_supercritical_system(rng, 2)
            analytic = bv.solve_coexistence_n2(sys)
            grid = oracles.bruteforce_coexistence_n2(sys.B1, sys.B2, step=0.05)
            assert len(analytic) == len(grid)
            for eq, row in zip(analytic, grid):
                assert np.max(np.abs(eq.coordinates() - row)) <= 1e-6

    def test_normalization_invariance(self):
        d1 = np.array([2.0, 0.5])
        d2 = np.array([1.3, 0.7])
        scaled = BivirusSystem(d1[:, None] * B1, d1,
                               d2[:, None] * CASES["case2"].B2, d2)
        (a,) = bv.solve_coexistence_n2(scaled)
        (b,) = bv.solve_coexistence_n2(CASES["case2"].system())
        assert np.max(np.abs(a.coordinates() - b.coordinates())) <= 1e-10
        assert a.spectrum_class == b.spectrum_class


class TestFindCoexistenceNewton:
    def test_case2_grid_matches_analytic(self, monkeypatch):
        sys = CASES["case2"].system()
        x1bar, x2bar = equilibria.analysis(sys).bars
        levels = np.linspace(0.1, 0.9, 5)
        seeds = [np.concatenate([a * x1bar, b * x2bar])
                 for a in levels for b in levels
                 if (a * x1bar + b * x2bar <= 1.0).all()]
        monkeypatch.setattr(equilibria, "default_seed_grid",
                            lambda a: np.array(seeds))
        found = bv.find_coexistence_newton(sys)
        assert len(found) == 1
        (analytic,) = bv.solve_coexistence_n2(sys)
        assert np.max(np.abs(found[0].coordinates()
                             - analytic.coordinates())) <= 1e-8

    def test_case1_line_points_flagged(self):
        found = bv.find_coexistence_newton(CASES["case1"].system())
        assert len(found) >= 5
        assert all(e.spectrum_class == "singular_boundary" for e in found)
        assert all(e.degenerate for e in found)

    def test_subcritical_empty(self):
        sys = BivirusSystem(0.5 * B1 / 2.6, EYE, 0.9 * B1 / 2.6, EYE)
        assert bv.find_coexistence_newton(sys) == []

    def test_three_node_system(self):
        rng = np.random.default_rng(55)
        sys = random_supercritical_system(rng, 3)
        found = bv.find_coexistence_newton(sys)
        for eq in found:
            assert eq.residual <= 1e-9
            assert model.is_strictly_interior(eq.state)


class TestMidpointSeed:
    def test_newton_jacobian_singular_at_the_midpoint_seed(self):
        # J (x1_bar, -x2_bar) = 0 at the seed (x1_bar / 2, x2_bar / 2) of
        # every system (proof in `default_seed_grid`)
        rng = np.random.default_rng(404)
        eps = np.finfo(float).eps
        for n in range(3, 9):
            for _ in range(3):
                a = equilibria.analysis(random_supercritical_system(rng, n))
                x1bar, x2bar = a.bars
                mid = np.concatenate([x1bar, x2bar]) / 2.0
                assert any(np.array_equal(seed, mid)
                           for seed in equilibria.default_seed_grid(a))
                J = model.jacobian(a.ns, mid)
                u = np.concatenate([x1bar, -x2bar])
                assert (np.abs(J @ u).max()
                        <= 16 * eps * np.abs(J).sum(axis=1).max())


#: A two-node system with two coexistence equilibria, one stable and one
#: unstable (found by a seeded search over entries from U(0.05, 3)).
TWO_ROOT_B1 = np.array([[2.01, 2.2], [0.75, 1.83]])
TWO_ROOT_B2 = np.array([[2.49, 0.24], [1.92, 2.53]])
#: Lifts a 2-node matrix to 4 nodes; node i of the 2-node system becomes
#: nodes 2i and 2i + 1, and every 2-node equilibrium lifts to one.
LIFT = np.full((2, 2), 0.5)


def _two_root_system(lifted=False):
    B1, B2 = TWO_ROOT_B1, TWO_ROOT_B2
    if lifted:
        B1, B2 = np.kron(B1, LIFT), np.kron(B2, LIFT)
    eye = np.eye(B1.shape[0])
    return BivirusSystem(B1, eye, B2, eye)


def _index_sum(sys, coexistence):
    """Sum over coexistence points of sign det(-J)."""
    ns = model.normalize_recovery(sys)
    return sum(np.sign(np.linalg.det(-model.jacobian(ns, e.state)))
               for e in coexistence)


class TestSeveralCoexistenceRoots:
    def test_two_node_roots(self):
        roots = bv.solve_coexistence_n2(_two_root_system())
        assert sorted(e.spectrum_class for e in roots) == ["stable", "unstable"]

    def test_lifted_newton_finds_both_roots(self):
        analytic = bv.solve_coexistence_n2(_two_root_system())
        found = bv.find_coexistence_newton(_two_root_system(lifted=True))
        assert len(found) == 2
        for e in analytic:
            lifted = np.repeat(e.coordinates().reshape(2, 2), 2, axis=1).ravel()
            (match,) = [f for f in found
                        if np.max(np.abs(f.coordinates() - lifted)) <= 1e-8]
            assert match.spectrum_class == e.spectrum_class

    @pytest.mark.parametrize("lifted", [False, True])
    def test_index_identity(self, lifted):
        # Poincare-Hopf: sum of sign det(-J) over the coexistence points is
        # -(i1 + i2) / 2, with i = +1 for a stable boundary equilibrium and
        # -1 for an unstable one
        sys = _two_root_system(lifted)
        enum = bv.enumerate_equilibria(sys)
        coex = enum.of_kind("coexistence")
        assert len(coex) == 2
        iota = [1 if v.verdict == "locally_stable" else -1
                for v in bv.boundary_stability(sys)]
        assert _index_sum(sys, coex) == -(iota[0] + iota[1]) / 2


def _polished(f, jac, v):
    """v moved by one full Newton step where that lowers its residual
    norm: the step a root joining `_KnownRoots` takes."""
    r = f(v)
    trial = v + equilibria._newton_steps(jac(v)[None], r[None])[0]
    return trial if np.abs(f(trial)).max() < np.abs(r).max() else v


def _newton_roots(sys, retire):
    """The deduplicated interior roots that `_newton_root` reaches from the
    default seeds, retiring seeds in the balls of known roots or not.  A
    root then takes one Newton step (`_polished`), which `_newton_root`
    takes itself when a root joins the known ones."""
    a = equilibria.analysis(sys)
    ns = a.ns
    f = model.field(ns)

    def jac(v):
        return model.jacobian(ns, v)

    known = equilibria._KnownRoots(ns, a.bars, f, jac) if retire else None
    roots = []
    for seed in equilibria.default_seed_grid(sys):
        (v,), (rnorm,), (in_ball,) = equilibria._newton_root(
            f, jac, seed[None], lambda v: 1e-10, known)
        if in_ball or rnorm > 1e-10:
            continue
        if known is None:
            v = _polished(f, jac, v)
        s = State.from_vector(v)
        if model.is_strictly_interior(s, equilibria.INTERIOR_FLOOR):
            roots.append(s)
    return [s.as_vector() for s in equilibria._dedup(roots)]


def _retirement_systems():
    rng = np.random.default_rng(77)
    yield _two_root_system(lifted=True)
    yield CASES["case1"].system()
    yield bv.construct_equilibrium_line(random_spreading_matrix(rng, 3))[0]
    for n in (3, 4, 5, 6):
        yield random_supercritical_system(rng, n)


class TestNewtonRetirement:
    def test_retirement_changes_no_answer(self):
        for sys in _retirement_systems():
            with_balls = _newton_roots(sys, retire=True)
            without = _newton_roots(sys, retire=False)
            assert len(with_balls) == len(without)
            for a, b in zip(with_balls, without):
                assert np.max(np.abs(a - b)) <= 1e-8

    @pytest.mark.parametrize("J", [np.zeros((4, 4)),
                                   np.array([[1.0, 2.0], [2.0, 4.0]])])
    def test_singular_jacobian_radius_zero(self, J):
        assert equilibria._ball_radius(J, 1.0) == 0.0

    def test_seed_in_ball_retires_without_a_step(self):
        sys = _two_root_system(lifted=True)
        a = equilibria.analysis(sys)
        ns = a.ns
        f = model.field(ns)
        steps = []

        def jac(v):
            steps.append(v)
            return model.jacobian(ns, v)

        known = equilibria._KnownRoots(ns, a.bars, f, jac)
        e, r = known.centres[2], known.radii[2]   # (0, x2_bar)
        assert r > 0
        seed = e + 0.9 * r * np.linspace(-1.0, 1.0, e.size)
        steps.clear()
        (v,), _, (in_ball,) = equilibria._newton_root(f, jac, seed[None],
                                                      lambda v: 1e-10, known)
        assert in_ball and not steps
        assert np.array_equal(v, seed)
        # and Newton from there does end at e
        (v,), (rnorm,), (in_ball,) = equilibria._newton_root(
            f, jac, seed[None], lambda v: 1e-10)
        assert not in_ball and rnorm <= 1e-10
        assert np.max(np.abs(v - e)) <= 1e-9


def _newton_parts(sys):
    a = equilibria.analysis(sys)
    ns = a.ns
    return a, model.field(ns), lambda v: model.jacobian(ns, v)


class TestLockstepNewton:
    def test_batch_rows_match_lone_runs(self):
        rng = np.random.default_rng(31)
        for sys in (_two_root_system(lifted=True),
                    random_supercritical_system(rng, 5)):
            a, f, jac = _newton_parts(sys)
            starts = equilibria.default_seed_grid(a)
            v, rnorm, in_ball = equilibria._newton_root(f, jac, starts,
                                                        lambda v: 1e-10)
            assert not in_ball.any()
            for i, start in enumerate(starts):
                (w,), (r,), _ = equilibria._newton_root(f, jac, start[None],
                                                        lambda v: 1e-10)
                assert np.max(np.abs(v[i] - w)) <= 1e-12
                assert (r <= 1e-10) == (rnorm[i] <= 1e-10)

    def test_singular_row_leaves_regular_rows_alone(self):
        # run to the rounding floor (tol 0), so the point of case1's line,
        # whose residual is one rounding error, steps with its singular J
        a, f, jac = _newton_parts(CASES["case1"].system())
        z = a.bars[0]
        on_line = np.concatenate([z / 3.0, 2.0 * z / 3.0])
        assert np.linalg.matrix_rank(jac(on_line)) < 4
        assert np.max(np.abs(f(on_line))) > 0.0
        direction = np.array([1.0, 0.5, 0.8, 0.3])
        starts = np.array([0.02 * direction, 0.05 * direction, on_line,
                           0.1 * direction])
        v, rnorm, _ = equilibria._newton_root(f, jac, starts, lambda v: 0.0)
        assert np.max(np.abs(v[2] - on_line)) <= 1e-12
        for i in (0, 1, 3):
            (w,), (r,), _ = equilibria._newton_root(f, jac, starts[i][None],
                                                    lambda v: 0.0)
            assert np.max(np.abs(v[i] - w)) <= 1e-12
            assert rnorm[i] == r <= 1e-15

    def test_singular_stack_falls_back_row_by_row(self):
        rng = np.random.default_rng(8)
        J = rng.uniform(size=(3, 4, 4)) + 4.0 * np.eye(4)
        J[1] = 0.0
        r = rng.uniform(size=(3, 4))
        steps = equilibria._newton_steps(J, r)
        for i in (0, 2):
            assert np.allclose(steps[i], np.linalg.solve(J[i], -r[i]),
                               rtol=1e-14, atol=0.0)
        # the least-squares step of J = 0 is the zero step
        assert np.array_equal(steps[1], np.zeros(4))

    def test_search_memory_bounded_at_n100(self):
        # One lockstep batch of every default seed at n = 100 would stack
        # about 74 Jacobians of 320 KB; the byte budget keeps the search's
        # allocation peak near one Jacobian and its solve.
        a = equilibria.analysis(_lifted_case2(n=100))
        tracemalloc.start()
        try:
            found = bv.find_coexistence_newton(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(found) == 1
        assert peak <= 3 * 2**20


class TestRootPolish:
    def test_root_is_pinned_to_the_polished_root(self):
        # The 7th n = 6 draw after 20 draws at each of n = 3, 4, 5: at its
        # stable coexistence point ||J^-1||inf is about 6,800, so a root
        # accepted at NEWTON_TOL lay 3.2e-8 from the Newton-polished one,
        # a distance set by which seed converged first.
        rng = np.random.default_rng(2025)
        for n in (3, 4, 5):
            for _ in range(20):
                random_supercritical_system(rng, n)
        for _ in range(7):
            sys = random_supercritical_system(rng, 6)
        (e,) = bv.find_coexistence_newton(sys)
        ns = model.normalize_recovery(sys)
        f = model.field(ns)
        w = e.coordinates()
        for _ in range(3):
            w = w - np.linalg.solve(model.jacobian(ns, w), f(w))
        assert np.linalg.norm(np.linalg.inv(model.jacobian(ns, w)),
                              np.inf) > 1e3
        assert np.max(np.abs(e.coordinates() - w)) <= 1e-12

    def test_a_step_that_raises_the_residual_is_dropped(self):
        # Beside the midpoint seed, where J is singular, the full step
        # overshoots and raises the residual; from 0.3 * 1 it lowers it.
        a, f, jac = _newton_parts(CASES["case2"].system())
        near_mid = np.concatenate(a.bars) / 2 + [1e-3, 0.0, 0.0, 0.0]
        v = np.array([near_mid, np.full(4, 0.3)])
        trial = np.array([w + equilibria._newton_steps(jac(w)[None],
                                                       f(w)[None])[0]
                          for w in v])
        worse = np.abs(f(trial)).max(axis=1) > np.abs(f(v)).max(axis=1)
        assert worse.tolist() == [True, False]
        known = equilibria._KnownRoots(a.ns, a.bars, f, jac)
        polished = [known.add(w, f(w)) for w in v]
        assert np.array_equal(polished[0], v[0])
        assert np.array_equal(polished[1], trial[1])
        # each point joins as a centre, unpolished
        assert np.array_equal(known.centres[-2:], v)

    def test_one_jacobian_per_point(self, monkeypatch):
        # A new root's Jacobian serves its ball radius, its sign and its
        # polishing step, so no row repeats a point within one search.
        a = equilibria.analysis(_lift(CASES["case3"].system()))
        rows = []
        jacobian = model.jacobian

        def spy(ns, v):
            w = v.as_vector() if isinstance(v, State) else v
            rows.extend(np.reshape(w, (-1, 2 * ns.n)).tolist())
            return jacobian(ns, v)
        monkeypatch.setattr(model, "jacobian", spy)
        (e,) = bv.find_coexistence_newton(a)
        assert len({tuple(row) for row in rows}) == len(rows)


class TestEnumerate:
    def test_case4_three_equilibria(self):
        enum = bv.enumerate_equilibria(CASES["case4"].system())
        kinds = [e.kind for e in enum]
        assert kinds == ["healthy", "boundary_virus1", "boundary_virus2"]
        classes = [e.spectrum_class for e in enum]
        assert classes == ["unstable", "unstable", "stable"]
        assert not enum.line_degeneracy_suspected

    def test_case2_four_equilibria(self):
        enum = bv.enumerate_equilibria(CASES["case2"].system())
        by_kind = {e.kind: e for e in enum}
        assert len(enum) == 4
        assert by_kind["healthy"].spectrum_class == "unstable"
        assert by_kind["boundary_virus1"].spectrum_class == "stable"
        assert by_kind["boundary_virus2"].spectrum_class == "stable"
        assert by_kind["coexistence"].spectrum_class == "unstable"

    def test_subcritical_only_healthy(self):
        sys = BivirusSystem(0.8 * B1 / 2.6, EYE, 0.9 * B1 / 2.6, EYE)
        enum = bv.enumerate_equilibria(sys)
        assert [e.kind for e in enum] == ["healthy"]
        assert enum.equilibria[0].spectrum_class == "stable"

    def test_case1_degeneracy_flag(self):
        enum = bv.enumerate_equilibria(CASES["case1"].system())
        assert enum.line_degeneracy_suspected

    def test_a_result_leaves_later_results_unchanged(self):
        # One Analysis hands out the same equilibria to every caller, so
        # no caller can change them for the next.
        a = equilibria.analysis(CASES["case2"].system())
        first = bv.enumerate_equilibria(a)
        with pytest.raises(AttributeError):
            first.equilibria.pop()
        assert len(bv.enumerate_equilibria(a)) == len(a.direct) == 4

    def test_zero_pattern_dichotomy(self):
        # per virus: identically zero, or strictly positive everywhere
        for name, cs in CASES.items():
            for e in bv.enumerate_equilibria(cs.system()):
                for x in (e.state.x1, e.state.x2):
                    assert (x == 0).all() or (x > 0).all()
                assert (e.state.x1 + e.state.x2 < 1).all()

    def test_residuals_small(self):
        for cs in CASES.values():
            for e in bv.enumerate_equilibria(cs.system()):
                assert e.residual <= 1e-10


class TestConstructLine:
    def test_reproduces_case1(self):
        sysr, fam = bv.construct_equilibrium_line(B1, mu=1.0)
        C_user = (np.eye(2) - np.diag(fam.z)) @ CASES["case1"].B2
        sys1, fam1 = bv.construct_equilibrium_line(B1, mu=1.0, c_matrix=C_user)
        assert np.max(np.abs(fam1.B2 - CASES["case1"].B2)) <= 1e-12
        assert np.max(np.abs((np.eye(2) - np.diag(fam1.z)) @ fam1.B2 @ fam1.z
                             - fam1.z)) <= 1e-12

    def test_line_residuals_and_null_vector(self):
        sys, fam = bv.construct_equilibrium_line(B1, mu=1.0)
        zz = np.concatenate([fam.z, fam.z])
        for a in (0.0, 0.25, 0.5, 0.75, 1.0):
            s = fam.line_state(a)
            assert bv.residual(sys, s) <= 1e-10
            PJP = bv.transformed_jacobian(sys, s)
            assert np.max(np.abs(PJP @ zz)) <= 1e-10
            assert bv.spectral_abscissa(PJP) == pytest.approx(0.0, abs=1e-9)

    def test_c_invariants(self):
        _, fam = bv.construct_equilibrium_line(B1, mu=1.0)
        assert bv.spectral_radius(fam.C) == pytest.approx(1.0, abs=1e-11)
        v = bv.perron_vector(fam.C)
        assert np.max(np.abs(v - fam.z / fam.z.sum())) <= 1e-9

    def test_mu_bifurcation(self):
        for mu, expected in ((0.9, "stable"), (1.1, "unstable")):
            sys, fam = bv.construct_equilibrium_line(B1, mu=mu)
            cls, absc = equilibria.classify_state(sys, State(fam.z, np.zeros(2)))
            assert cls == expected
            assert absc == pytest.approx(mu - 1.0, abs=1e-9)
            v1, _ = bv.boundary_stability(sys)
            assert v1.rho_cross == pytest.approx(mu, abs=1e-10)

    def test_blend_strategy(self):
        rng = np.random.default_rng(91)
        M = rng.uniform(0.1, 1.0, (3, 3))
        B = random_spreading_matrix(rng, 3, 1.5, 2.0)
        sys, fam = bv.construct_equilibrium_line(B, mu=1.0, c_matrix=M,
                                                 blend_weight=0.5)
        assert np.max(np.abs(fam.C @ fam.z - fam.z)) <= 1e-12
        for a in (0.0, 0.5, 1.0):
            assert bv.residual(sys, fam.line_state(a)) <= 1e-10

    def test_subcritical_rejected(self):
        with pytest.raises(DomainError, match="subcritical"):
            bv.construct_equilibrium_line(0.5 * B1 / 2.6)

    def test_unfixable_user_matrix_rejected(self):
        M = np.array([[0.0, 0.0], [1.0, 1.0]])  # zero row: cannot fix z
        with pytest.raises(DomainError):
            bv.construct_equilibrium_line(B1, c_matrix=M, blend_weight=1.0)

    def test_newton_near_line_flags_degeneracy(self):
        sys, fam = bv.construct_equilibrium_line(B1, mu=1.0)
        enum = bv.enumerate_equilibria(sys)
        assert enum.line_degeneracy_suspected

    @pytest.mark.parametrize("dc", [-1e-10, 1e-10])
    def test_critical_boundary_without_line_flags_degeneracy(self, dc):
        # case2 with B2 scaled next to c*, where rho_cross of (0, x2_bar)
        # passes 1: no line, yet the critical boundary raises the flag
        c_star = 0.9498439582505509
        sys = BivirusSystem(cases.B1_SHARED, EYE,
                            (c_star + dc) * CASES["case2"].B2, EYE)
        assert bv.boundary_stability(sys)[1].verdict == "critical"
        enum = bv.enumerate_equilibria(sys)
        assert not enum.of_kind("coexistence")
        assert enum.line_degeneracy_suspected


def _enumeration_doc(enum):
    return [(e.kind, e.coordinates().tolist(), e.spectrum_class, e.abscissa,
             e.residual, e.degenerate) for e in enum] + \
        [enum.line_degeneracy_suspected]


def _lifted_case2(n=20, seed=101):
    rng = np.random.default_rng(seed)
    block = np.full((n // 2, n // 2), 2.0 / n)

    def noisy(M):
        return M * (1.0 + 0.02 * rng.uniform(-1.0, 1.0, size=M.shape))

    eye = np.eye(n)
    return BivirusSystem(noisy(np.kron(cases.B1_SHARED, block)), eye,
                         noisy(np.kron(CASES["case2"].B2, block)), eye)


def test_enumeration_same_from_system_or_analysis():
    systems = [CASES[name].system() for name in CASES] + [_lifted_case2()]
    for sys in systems:
        a = equilibria.analysis(sys)
        assert equilibria.analysis(a) is a
        assert _enumeration_doc(bv.enumerate_equilibria(a)) == \
            _enumeration_doc(bv.enumerate_equilibria(sys))


def test_analysis_only_validates(monkeypatch):
    # The spectral work waits for first use, and happens once.
    calls = []

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted
    monkeypatch.setattr(speclin, "spectral_radius",
                        spy("radius", speclin.spectral_radius))
    monkeypatch.setattr(equilibria, "_endemic_profile",
                        spy("profile", equilibria._endemic_profile))
    a = equilibria.analysis(CASES["case2"].system())
    assert calls == []
    assert a.bars is a.bars
    assert calls == ["radius", "radius", "profile", "profile"]


#: B2 scale at which rho_cross of case2's (0, x2_bar) crosses 1.
C_STAR = 0.9498439582505509


def _scaled_case2(c):
    return BivirusSystem(cases.B1_SHARED, EYE, c * CASES["case2"].B2, EYE)


class TestEnumerationComplete:
    @pytest.mark.parametrize("name", ["case2", "case3", "case4"])
    def test_bundled_cases_are_complete(self, name):
        assert bv.enumerate_equilibria(CASES[name].system()).complete

    def test_line_is_not_complete(self):
        assert not bv.enumerate_equilibria(CASES["case1"].system()).complete

    def test_newton_route_is_not_complete(self):
        enum = bv.enumerate_equilibria(_lifted_case2())
        assert enum.of_kind("coexistence")
        assert not enum.complete

    @pytest.mark.parametrize("dc", [-1e-8, 1e-8])
    def test_root_at_the_interior_floor_is_not_complete(self, dc):
        # Next to the switch the coexistence root lies about 5e-9 from the
        # boundary, inside the floor on one side and outside the feasible
        # set on the other; either way the analytic route drops it without
        # knowing that it is no equilibrium, and no class is critical.
        enum = bv.enumerate_equilibria(_scaled_case2(C_STAR + dc))
        assert not enum.of_kind("coexistence")
        assert not enum.line_degeneracy_suspected
        assert not enum.complete

    @pytest.mark.parametrize("dc,found", [(-1e-6, 0), (1e-6, 1)])
    def test_root_clear_of_the_floor_is_complete(self, dc, found):
        enum = bv.enumerate_equilibria(_scaled_case2(C_STAR + dc))
        assert len(enum.of_kind("coexistence")) == found
        assert enum.complete

    @pytest.mark.parametrize("n", [2, 3])
    def test_subcritical_virus_is_complete(self, n):
        # No equilibrium carries a subcritical virus, so no search runs.
        B = np.full((n, n), 2.0 / n)         # R1 = 2, R2 = 0.8
        sys = BivirusSystem(B, np.eye(n), 0.4 * B, np.eye(n))
        enum = bv.enumerate_equilibria(sys)
        assert [e.kind for e in enum] == ["healthy", "boundary_virus1"]
        assert enum.complete


def _lift(sys, copies=10):
    """The noise-free block lift of a two-node system to n = 2 * copies:
    every equilibrium of the lift is block-constant, the lift of one of
    sys, so both carry the same number of coexistence points."""
    block = np.full((copies, copies), 1.0 / copies)
    eye = np.eye(2 * copies)
    return BivirusSystem(np.kron(sys.B1, block), eye,
                         np.kron(sys.B2, block), eye)


_SPURIOUS = pytest.mark.xfail(
    strict=True, reason="open defect: next to the switch the Newton route "
    "keeps 3 spurious roots within about 1e-5 of (0, x2_bar)")


class TestNearSwitchLift:
    """Case2 with B2 scaled by c* + dc, lifted to n = 20, against the n = 2
    analytic count, which is complete at every dc here."""

    @pytest.mark.parametrize("dc", [
        1e-2, -1e-2, 1e-3, -1e-3, 1e-5, -1e-5,
        pytest.param(1e-6, marks=_SPURIOUS),
        pytest.param(-1e-6, marks=_SPURIOUS),
        pytest.param(1e-7, marks=_SPURIOUS),
        pytest.param(-1e-7, marks=_SPURIOUS)])
    def test_lift_keeps_the_n2_count(self, dc):
        sys = _scaled_case2(C_STAR + dc)
        oracle = bv.enumerate_equilibria(sys)
        assert oracle.complete
        count = len(oracle.of_kind("coexistence"))
        assert count == (dc > 0)
        lifted = bv.enumerate_equilibria(_lift(sys))
        assert len(lifted.of_kind("coexistence")) == count


def _lognormal_rates(rng, n):
    """Rates with lognormal entries, scaled to a Perron root drawn from
    [1.3, 2.5]: their spread makes coexistence common (about a fifth of
    the n = 2 pairs)."""
    M = rng.lognormal(0.0, 1.0, (n, n))
    return M * (rng.uniform(1.3, 2.5) / np.max(np.abs(np.linalg.eigvals(M))))


def _lognormal_system(rng, n):
    eye = np.eye(n)
    return BivirusSystem(_lognormal_rates(rng, n), eye,
                         _lognormal_rates(rng, n), eye)


def _constructed_lines(count, seed=17):
    """Systems carrying a segment of coexistence points, n = 2 to 6, with
    a random C blended into the rank-one choice."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        yield bv.construct_equilibrium_line(
            random_spreading_matrix(rng, n), mu=1.0,
            c_matrix=rng.uniform(0.1, 1.0, (n, n)),
            blend_weight=rng.uniform(0.0, 1.0))[0]


def _agreement_systems():
    """The bundled cases, a subcritical pair and ten random supercritical
    draws at each n = 2 to 5."""
    rng = np.random.default_rng(41)
    return ([CASES[name].system() for name in CASES]
            + [BivirusSystem(B1, EYE, 0.3 * B1, EYE)]
            + [random_supercritical_system(rng, n)
               for n in (2, 3, 4, 5) for _ in range(10)])


class TestCoexistenceExcluded:
    def test_n2_analytic_oracle(self):
        # The analytic route is complete at n = 2: wherever the predicate
        # holds it must find no coexistence point.
        rng = np.random.default_rng(23)
        excluded = coexisting = 0
        for _ in range(300):
            a = equilibria.analysis(_lognormal_system(rng, 2))
            found, complete = equilibria._coexistence_n2(a)
            if equilibria.coexistence_excluded(a):
                excluded += 1
                assert complete and not found
            coexisting += bool(found)
        assert excluded >= 100 and coexisting >= 50

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_newton_oracle(self, n):
        rng = np.random.default_rng(29 + n)
        excluded = coexisting = 0
        for _ in range(40):
            a = equilibria.analysis(_lognormal_system(rng, n))
            found = bv.find_coexistence_newton(a)
            if equilibria.coexistence_excluded(a):
                excluded += 1
                assert not found
            coexisting += bool(found)
        assert excluded >= 5 and coexisting >= 1

    def test_case4_skips_the_search(self, caplog):
        sys = CASES["case4"].system()
        assert equilibria.coexistence_excluded(sys)
        with caplog.at_level(logging.DEBUG, logger="bivirus.equilibria"):
            enum = bv.enumerate_equilibria(sys)
        assert enum.complete and not enum.of_kind("coexistence")
        assert any(re.match(r"coexistence excluded by profile_dominance "
                            r"\(margin 0\.0496\)", r.getMessage())
                   for r in caplog.records)

    @pytest.mark.parametrize("sys", [
        CASES["case1"].system(), _scaled_case2(C_STAR - 1e-8),
        _scaled_case2(C_STAR + 1e-8)], ids=["case1", "c*-1e-8", "c*+1e-8"])
    def test_controls_search(self, sys):
        assert not equilibria.coexistence_excluded(sys)

    def test_lifted_case2_still_searches(self, newton_calls):
        sys = _lifted_case2()
        assert not equilibria.coexistence_excluded(sys)
        enum = bv.enumerate_equilibria(sys)
        assert newton_calls and not enum.complete

    def test_no_seeds_no_search(self, newton_calls):
        # The equilibria that need no search keep the healthy and boundary
        # equilibria of the full enumeration and run no search.
        a = equilibria.analysis(_lifted_case2())
        bare = a.direct
        assert not newton_calls and not bare.complete
        full = [e for e in bv.enumerate_equilibria(a)
                if e.kind != "coexistence"]
        assert newton_calls
        assert [e.kind for e in bare] == [e.kind for e in full] == \
            ["healthy", "boundary_virus1", "boundary_virus2"]
        for e, f in zip(bare, full):
            assert e.coordinates().tobytes() == f.coordinates().tobytes()

    def test_dominated_n3_skips_newton_and_is_complete(self, newton_calls):
        sys = random_supercritical_system(np.random.default_rng(5), 3)
        assert bv.sufficient_conditions(sys).profile_dominance != "inconclusive"
        enum = bv.enumerate_equilibria(sys)
        assert not newton_calls
        assert enum.complete
        assert [e.kind for e in enum] == ["healthy", "boundary_virus1",
                                          "boundary_virus2"]

    @pytest.mark.parametrize("raise_by,complete", [(1e-7, True),
                                                   (1e-9, False)])
    def test_entrywise_dominance_skips_newton(self, newton_calls, raise_by,
                                              complete):
        # One rate raised by 1e-7 moves the profiles by far less than
        # PROFILE_MARGIN, so only the exact entrywise test holds.  Raised
        # by 1e-9, both boundary equilibria are critical: the list is not
        # complete although no coexistence point exists.
        base = random_spreading_matrix(np.random.default_rng(37), 4)
        raised = base.copy()
        raised[1, 2] += raise_by
        sys = BivirusSystem(raised, np.eye(4), base, np.eye(4))
        rep = bv.sufficient_conditions(sys)
        assert rep.entrywise_dominance == "holds_for_virus1"
        assert rep.profile_dominance == "inconclusive"
        assert equilibria.coexistence_excluded(sys)
        enum = bv.enumerate_equilibria(sys)
        assert enum.complete == complete and not newton_calls

    def test_lines_are_not_excluded(self, newton_calls):
        # The two profiles of a line differ only by rounding; a bare
        # comparison orders them on most of these systems, the margin on
        # none, and the search still runs.
        rounding_ordered = []
        for sys in _constructed_lines(400):
            a = equilibria.analysis(sys)
            x1bar, x2bar = a.bars
            assert np.max(np.abs(x1bar - x2bar)) <= 1e-14
            if (equilibria._dominance(x1bar, x2bar)
                    or equilibria._dominance(x2bar, x1bar)):
                rounding_ordered.append(a)
            assert not equilibria.coexistence_excluded(a)
            assert bv.sufficient_conditions(a).profile_dominance == \
                "inconclusive"
        assert len(rounding_ordered) >= 100
        searched = [a for a in rounding_ordered if a.system.n > 2][:3]
        for a in searched:
            enum = bv.enumerate_equilibria(a)
            assert enum.line_degeneracy_suspected and not enum.complete
        assert len(newton_calls) == len(searched) == 3

    @pytest.mark.parametrize("sys", _agreement_systems())
    def test_agrees_with_the_reported_verdicts(self, sys):
        # Excluded exactly when a virus is subcritical or a proved
        # dominance test reads a verdict.
        a = equilibria.analysis(sys)
        if min(a.R) <= 1.0:
            assert equilibria.coexistence_excluded(a)
            return
        rep = bv.sufficient_conditions(a)
        assert equilibria.coexistence_excluded(a) == any(
            v != "inconclusive" for v in vars(rep).values())

    def test_case_reports_unchanged(self):
        rep = {name: bv.sufficient_conditions(CASES[name].system())
               for name in ("case1", "case4")}
        assert rep["case1"].profile_dominance == "inconclusive"
        assert rep["case4"].profile_dominance == "holds_for_virus2"


@pytest.mark.parametrize("sys", [CASES["case2"].system(), _lifted_case2(),
                                 CASES["case4"].system()],
                         ids=["case2", "lifted", "case4"])
def test_seed_grid_matches_the_loop(sys):
    # The broadcast grid keeps the loop's rows, bitwise and in order,
    # including where the feasibility test drops some.
    a = equilibria.analysis(sys)
    x1bar, x2bar = a.bars
    loop = [State(p * x1bar, q * x2bar).as_vector()
            for p in equilibria.SEED_LEVELS for q in equilibria.SEED_LEVELS
            if model.in_feasible_set(State(p * x1bar, q * x2bar), 0.0)]
    grid = equilibria.default_seed_grid(a)
    assert 0 < len(loop) < len(equilibria.SEED_LEVELS) ** 2
    assert grid.tobytes() == np.array(loop).tobytes()


#: Draws k of np.random.default_rng((26, k)).uniform(0.05, 3, (2, 2, 2))
#: that are two-node systems (B1, I, B2, I) with two coexistence points
#: and a complete analytic enumeration.
TWO_ROOT_DRAWS = (560, 1735, 3139, 7550)


def _two_root_draw(k):
    B1_, B2_ = np.random.default_rng((26, k)).uniform(0.05, 3.0, (2, 2, 2))
    return BivirusSystem(B1_, EYE, B2_, EYE)


def _staged_search_systems():
    """The lifted two-root system, each two-root draw lifted to n = 4 and
    6 with and without 1% noise, and random draws at n = 3 to 6."""
    rng = np.random.default_rng(61)

    def noisy(M, noise):
        return M * (1.0 + noise * rng.uniform(-1.0, 1.0, M.shape))

    yield _two_root_system(lifted=True)
    for k in TWO_ROOT_DRAWS:
        sys = _two_root_draw(k)
        for copies in (2, 3):
            for noise in (0.0, 0.01):
                lift = _lift(sys, copies)
                yield BivirusSystem(noisy(lift.B1, noise), lift.D1,
                                    noisy(lift.B2, noise), lift.D2)
    for n in (3, 4, 5, 6):
        yield random_supercritical_system(rng, n)


def _newton_log(caplog, sys):
    """The DEBUG line of one coexistence search on sys."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="bivirus.equilibria"):
        bv.find_coexistence_newton(sys)
    (line,) = [r.getMessage() for r in caplog.records
               if r.getMessage().startswith("newton search")]
    return line


class TestStagedSearch:
    """The default grid runs its coarse seeds first and stops once the
    index identity closes."""

    def test_draws_have_two_roots(self):
        for k in TWO_ROOT_DRAWS:
            found, complete = equilibria._coexistence_n2(
                equilibria.analysis(_two_root_draw(k)))
            assert len(found) == 2 and complete

    def test_roots_match_a_full_grid_run(self):
        # The reference runs every seed, none retired, and its roots take
        # the final Newton step (`_polished`) that the search's roots take.
        for sys in _staged_search_systems():
            a = equilibria.analysis(sys)
            full = np.array(_newton_roots(sys, retire=False))
            full = full.reshape(-1, 2 * sys.n)
            found = bv.find_coexistence_newton(a)
            assert len(found) == len(full)
            for e in found:
                assert np.abs(full - e.coordinates()).max(axis=1).min() <= 1e-8

    @pytest.mark.parametrize("name", ["case2", "case3"])
    def test_fewer_jacobian_rows(self, monkeypatch, name):
        a = equilibria.analysis(_lift(CASES[name].system()))
        rows = []
        jacobian = model.jacobian

        def counted(ns, v):
            rows.append(np.size(v) // (2 * ns.n))
            return jacobian(ns, v)
        monkeypatch.setattr(model, "jacobian", counted)
        staged = bv.find_coexistence_newton(a)
        staged_rows = sum(rows)
        rows.clear()
        # the reference runs the whole grid: its identity never closes
        monkeypatch.setattr(equilibria, "_index_check",
                            lambda *args: (0, None, "never closed"))
        full = bv.find_coexistence_newton(a)
        assert len(staged) == len(full) == 1
        assert 4 * staged_rows <= sum(rows)

    @pytest.mark.parametrize("sys", [
        CASES["case1"].system(), _lift(_scaled_case2(C_STAR - 1e-10)),
        _lift(_scaled_case2(C_STAR + 1e-10))],
        ids=["case1", "c*-1e-10", "c*+1e-10"])
    def test_every_seed_runs_where_the_identity_is_undefined(self, caplog,
                                                            sys):
        line = _newton_log(caplog, sys)
        ran, size = re.match(r"newton search: (\d+) of (\d+) seeds run",
                             line).groups()
        assert ran == size
        assert line.endswith("expected None: critical boundary")

    def test_log_says_subcritical(self, caplog):
        sys = _lift(BivirusSystem(B1, EYE, 0.3 * CASES["case2"].B2, EYE))
        line = _newton_log(caplog, sys)
        assert line.startswith("newton search: 0 of 0 seeds run")
        assert line.endswith("index sum 0, expected None: subcritical virus")

    def test_empty_grid_builds_no_jacobian(self, monkeypatch):
        a = equilibria.analysis(
            _lift(BivirusSystem(B1, EYE, 0.3 * CASES["case2"].B2, EYE)))
        a.direct   # the boundary verdicts, whose profiles need Jacobians
        calls = []
        jacobian = model.jacobian

        def counted(ns, v):
            calls.append(v)
            return jacobian(ns, v)
        monkeypatch.setattr(model, "jacobian", counted)
        assert bv.find_coexistence_newton(a) == []
        assert calls == []

    def test_log_says_closed(self, caplog):
        line = _newton_log(caplog, _lift(CASES["case3"].system()))
        ran = int(re.match(r"newton search: (\d+) of 75 seeds run",
                           line).group(1))
        assert ran <= 9
        assert line.endswith("index sum 1, expected 1: closed")

    def test_log_says_mismatch_near_the_switch(self, caplog):
        line = _newton_log(caplog, _lift(_scaled_case2(C_STAR + 1e-6)))
        assert line.startswith("newton search: 75 of 75 seeds run")
        assert line.endswith("index sum -3, expected -1: mismatch")

    def test_singular_root_leaves_the_identity_open(self):
        a, f, jac = _newton_parts(_two_root_system(lifted=True))
        known = equilibria._KnownRoots(a.ns, a.bars, f, jac)
        fixed = len(known.centres)
        states = [e.state for e in bv.find_coexistence_newton(a)]
        for s in states:
            known.add(s.as_vector(), f(s.as_vector()))
        check = equilibria._index_check(a, known, fixed, states)
        assert check == (0, 0, "closed")
        known.radii[fixed] = 0.0
        check = equilibria._index_check(a, known, fixed, states)
        assert check == (0, 0, "singular root")

    @pytest.mark.parametrize("mu", [np.nan, np.inf])
    def test_line_construction_refuses_a_non_finite_mu(self, mu):
        with pytest.raises(DomainError, match="mu must be finite"):
            bv.construct_equilibrium_line(B1, mu=mu)
