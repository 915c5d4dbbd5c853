import re

import numpy as np
import pytest

import bivirus as bv
from bivirus import CASES, equilibria, model
from bivirus.exceptions import DomainError, ValidationError
from bivirus.model import BivirusSystem, State

import oracles
from conftest import random_interior_state, random_supercritical_system

B1 = np.array([[1.6, 1.0], [1.0, 1.6]])
EYE = np.eye(2)


class TestValidation:
    def test_case_systems_valid(self):
        for cs in CASES.values():
            bv.validate(cs.system())

    def test_reducible_b1(self):
        sys = BivirusSystem(np.eye(2), EYE, CASES["case2"].B2, EYE)
        with pytest.raises(ValidationError, match="irreducibility violated"):
            bv.validate(sys)

    def test_zero_recovery_rate(self):
        sys = BivirusSystem(B1, np.diag([1.0, 0.0]), B1, EYE)
        with pytest.raises(ValidationError, match="recovery"):
            bv.validate(sys)

    def test_all_violations_reported_at_once(self):
        sys = BivirusSystem(np.eye(2), np.diag([1.0, -1.0]),
                            np.array([[0.0, 1.0], [0.0, 0.0]]), EYE)
        errors = bv.validation_errors(sys)
        assert len(errors) >= 3  # two reducible B's and a bad recovery rate

    def test_dimension_mismatch(self):
        sys = BivirusSystem(B1, EYE, np.ones((3, 3)), np.eye(3))
        assert any("dimension" in e for e in bv.validation_errors(sys))

    def test_vector_recovery_rates_accepted(self):
        sys = BivirusSystem(B1, [2.0, 2.0], B1, [1.0, 1.0])
        bv.validate(sys)
        assert np.array_equal(sys.D1, 2 * EYE)


class TestNormalizeRecovery:
    def test_scalar_division(self):
        sys = BivirusSystem(B1, 2 * EYE, B1, EYE)
        ns = bv.normalize_recovery(sys)
        assert np.allclose(ns.B1, [[0.8, 0.5], [0.5, 0.8]])
        assert np.array_equal(ns.D1, EYE)

    def test_idempotent(self):
        sys = CASES["case3"].system()
        ns = bv.normalize_recovery(sys)
        ns2 = bv.normalize_recovery(ns)
        assert np.array_equal(ns.B1, ns2.B1)
        assert np.array_equal(ns.B2, ns2.B2)

    def test_equilibria_coincide_with_unnormalized(self):
        # scale case3 rates per node; equilibria and classes must survive
        d1 = np.array([2.0, 0.5])
        d2 = np.array([1.25, 0.8])
        case3 = CASES["case3"]
        sys = BivirusSystem(d1[:, None] * B1, d1,
                            d2[:, None] * case3.B2, d2)
        eq_raw = bv.enumerate_equilibria(sys)
        eq_norm = bv.enumerate_equilibria(bv.normalize_recovery(sys))
        assert len(eq_raw) == len(eq_norm) == 4
        for a, b in zip(eq_raw, eq_norm):
            assert a.kind == b.kind
            assert np.max(np.abs(a.coordinates() - b.coordinates())) <= 1e-10
            assert a.spectrum_class == b.spectrum_class


class TestReproductionNumbers:
    def test_constant_row_sum(self):
        r1, _ = bv.reproduction_numbers(CASES["case2"].system())
        assert r1 == pytest.approx(2.6, rel=1e-12)

    def test_case4_closed_form(self):
        lam_hi, _ = oracles.eigvals_2x2(CASES["case4"].B2)
        _, r2 = bv.reproduction_numbers(CASES["case4"].system())
        assert r2 == pytest.approx(lam_hi, rel=1e-12)

    def test_recovery_scaling_halves(self):
        sys = BivirusSystem(B1, EYE, B1, EYE)
        scaled = BivirusSystem(B1, 2 * EYE, B1, EYE)
        assert bv.reproduction_numbers(scaled)[0] == \
            pytest.approx(bv.reproduction_numbers(sys)[0] / 2, rel=1e-12)


class TestVectorField:
    def test_zero_at_healthy(self):
        f = bv.field(CASES["case2"].system())
        assert np.all(f(State.zero(2).as_vector()) == 0)

    def test_small_at_reported_equilibria(self):
        # the 3-decimal reference coordinates are near-equilibria
        for name in ("case2", "case3", "case4"):
            cs = CASES[name]
            sys = cs.system()
            scale = max(sys.B1.max(), sys.B2.max())
            for ref in cs.reference.values():
                if ref is None:
                    continue
                s = State(np.array(ref[0]), np.array(ref[1]))
                assert bv.residual(sys, s) <= 5e-3 * scale

    def test_rejects_far_outside_states(self):
        with pytest.raises(DomainError):
            model.require_in_feasible_set(State([0.9, 0.9], [0.9, 0.9]))

    def test_tolerates_drift_band(self):
        s = State([-1e-10, 0.2], [0.3, 0.4])
        assert model.require_in_feasible_set(s) is s

    def test_directional_derivative_matches_jacobian(self):
        rng = np.random.default_rng(5)
        sys = CASES["case3"].system()
        f = bv.field(sys)
        for _ in range(10):
            s = random_interior_state(rng, 2)
            v = s.as_vector()
            J = bv.jacobian(sys, s)
            d = rng.standard_normal(4)
            d /= np.linalg.norm(d)
            h = 1e-6
            fd = (f(v + h * d) - f(v - h * d)) / (2 * h)
            assert np.linalg.norm(fd - J @ d) <= 1e-6 * max(1.0, np.linalg.norm(J @ d))

    def test_outflow_on_saturated_face(self):
        # on the face x1_i + x2_i = 1 the unoccupied fraction grows
        rng = np.random.default_rng(8)
        sys = CASES["case2"].system()
        for _ in range(10):
            x1 = rng.uniform(0.2, 0.8, size=2)
            x2 = 1.0 - x1
            dx = bv.field(sys)(State(x1, x2).as_vector())
            dz = -(dx[:2] + dx[2:])
            assert (dz > 0).all()


class TestState:
    @pytest.mark.parametrize("x1, x2", [
        ([0.1, 0.1], [0.1, 0.1, 0.1]), ([[0.1], [0.1]], [[0.1], [0.1]])])
    def test_ragged_or_not_flat_refused(self, x1, x2):
        shapes = f"shapes {np.shape(x1)} and {np.shape(x2)}"
        with pytest.raises(DomainError, match=re.escape(shapes)):
            State(x1, x2)


class TestJacobian:
    def test_block_diagonal_at_healthy(self):
        sys = CASES["case2"].system()
        J = bv.jacobian(sys, State.zero(2))
        expected = np.zeros((4, 4))
        expected[:2, :2] = -EYE + B1
        expected[2:, 2:] = -EYE + CASES["case2"].B2
        assert np.allclose(J, expected, atol=0)

    def test_boundary_structure(self):
        sys = CASES["case2"].system()
        xbar = bv.single_virus_endemic(B1, EYE)
        J = bv.jacobian(sys, State(xbar, np.zeros(2)))
        assert np.all(J[2:, :2] == 0)    # lower-left vanishes at x2 = 0
        lower = J[2:, 2:]
        expected = -EYE + (1 - xbar)[:, None] * CASES["case2"].B2
        assert np.allclose(lower, expected, atol=1e-15)
        upper = J[:2, :2]
        from bivirus import spectral_abscissa
        assert spectral_abscissa(upper) < 0

    def test_matches_central_differences(self):
        rng = np.random.default_rng(13)
        sys = CASES["case2"].system()
        f = bv.field(sys)
        for _ in range(20):
            s = random_interior_state(rng, 2)
            J = bv.jacobian(sys, s)
            J_fd = oracles.central_difference_jacobian(f, s.as_vector())
            denom = max(1.0, np.abs(J).max())
            assert np.abs(J - J_fd).max() / denom <= 1e-6


    def test_stack_matches_single_states(self):
        # heterogeneous recovery rates, so the diagonal blocks' -D terms
        # are checked too, and rows outside the feasible set, which the
        # array form (for Newton iterates) does not refuse; the feasible
        # rows match the checked State form
        rng = np.random.default_rng(21)
        n = 5
        sys = BivirusSystem(rng.uniform(0.1, 1.0, (n, n)),
                            rng.uniform(0.5, 2.0, n),
                            rng.uniform(0.1, 1.0, (n, n)),
                            rng.uniform(0.5, 2.0, n))
        V = rng.uniform(-0.2, 0.8, (2, 3, 2 * n))
        V[0] = np.abs(V[0]) / 2.0   # these three rows are feasible
        stack = bv.jacobian(sys, V)
        assert stack.shape == (2, 3, 2 * n, 2 * n)
        feasible = 0
        for idx in np.ndindex(2, 3):
            single = bv.jacobian(sys, V[idx])
            assert np.abs(stack[idx] - single).max() <= 1e-15
            s = State.from_vector(V[idx])
            if bv.in_feasible_set(s):
                feasible += 1
                assert np.array_equal(bv.jacobian(sys, s), single)
        assert feasible == 3

    def test_state_outside_feasible_set_refused(self):
        with pytest.raises(DomainError):
            bv.jacobian(CASES["case2"].system(),
                        State([0.9, 0.9], [0.9, 0.9]))

class TestTransformedJacobian:
    def test_metzler_and_irreducible_interior(self):
        rng = np.random.default_rng(2)
        sys = CASES["case2"].system()
        for _ in range(10):
            s = random_interior_state(rng, 2)
            PJP = bv.transformed_jacobian(sys, s)
            off = PJP - np.diag(np.diag(PJP))
            assert off.min() >= 0
            assert bv.is_irreducible(np.maximum(off, 0.0) + np.eye(4) * 0)

    def test_reducible_on_boundary(self):
        sys = CASES["case2"].system()
        PJP = bv.transformed_jacobian(sys, State([0.3, 0.4], [0.0, 0.0]))
        assert np.all(PJP[2:, :2] == 0)

    def test_similarity_preserves_spectrum(self):
        rng = np.random.default_rng(23)
        sys = CASES["case3"].system()
        for _ in range(5):
            s = random_interior_state(rng, 2)
            J = bv.jacobian(sys, s)
            PJP = bv.transformed_jacobian(sys, s)
            lam_J = np.sort_complex(np.linalg.eigvals(J))
            lam_P = np.sort_complex(np.linalg.eigvals(PJP))
            assert np.allclose(lam_J, lam_P, atol=1e-10)
            assert bv.spectral_abscissa(PJP) == \
                pytest.approx(max(lam_J.real), abs=1e-9)


    def test_negative_rate_is_named(self):
        # an unvalidated system with a negative infection rate: the
        # entries of P J P it makes negative are blamed on that rate
        sys = BivirusSystem(B1, EYE, [[2.1, -0.5], [1.885, 1.1]], EYE)
        s = State([0.2, 0.2], [0.2, 0.2])
        with pytest.raises(DomainError, match=r"B2\[0, 1\] = -0.5 is a "
                                              "negative infection rate"):
            bv.transformed_jacobian(sys, s)
        with pytest.raises(DomainError, match="negative infection rate"):
            equilibria.classify_state(sys, s)

    def test_lost_structure_on_valid_rates_is_a_bug(self, monkeypatch):
        sys = CASES["case2"].system()
        jacobian = model.jacobian

        def broken(sys_, s):
            J = jacobian(sys_, s)
            J[0, 1] = -1.0
            return J

        monkeypatch.setattr(model, "jacobian", broken)
        with pytest.raises(AssertionError, match="lost Metzler structure"):
            bv.transformed_jacobian(sys, State([0.2, 0.2], [0.2, 0.2]))


def _near_face_state(rng, n):
    """A state on the faces of the feasible set or up to CONTAINMENT_TOL
    beyond them: per node, x1, x2 or both at -u tol, or x1 + x2 at
    1 + u tol, or left interior, with u = 1 (the edge of the slack) half
    the time and uniform in [0, 1] otherwise."""
    tol = model.CONTAINMENT_TOL
    s = random_interior_state(rng, n)
    x1, x2 = s.x1.copy(), s.x2.copy()
    for i in range(n):
        u = 1.0 if rng.random() < 0.5 else rng.random()
        face = rng.integers(5)
        if face in (1, 3):
            x1[i] = -u * tol
        if face in (2, 3):
            x2[i] = -u * tol
        if face == 4:
            total = 1.0 + u * tol
            x1[i] = rng.random() * total
            x2[i] = total - x1[i]
    return State(x1, x2)


def _face_stress_systems(rng):
    """Random systems at n = 2..6, plus all-ones and cyclic infection
    matrices: their row sums exceed 1 + max B, and a cyclic row has one
    entry, which its row sum equals."""
    for n in range(2, 7):
        eye = np.eye(n)
        yield random_supercritical_system(rng, n)
        yield BivirusSystem(np.ones((n, n)), eye, np.ones((n, n)), eye)
        cyclic = 2.0 * np.roll(eye, 1, axis=1)
        yield BivirusSystem(cyclic, eye, 1.5 * cyclic.T, eye)


class TestMetzlerOnTheFeasibleSet:
    """Every state that `in_feasible_set` accepts, up to CONTAINMENT_TOL
    outside the set, has an exactly Metzler transformed Jacobian that the
    spectral kernel classifies."""

    def test_states_within_tolerance_of_the_faces(self):
        rng = np.random.default_rng(12)
        accepted = 0
        for sys in _face_stress_systems(rng):
            n = sys.n
            P = np.diag(np.r_[np.ones(n), -np.ones(n)])
            rows = max(sys.B1.sum(axis=1).max(), sys.B2.sum(axis=1).max())
            for _ in range(40):
                s = _near_face_state(rng, n)
                if not bv.in_feasible_set(s):
                    continue
                accepted += 1
                J = bv.jacobian(sys, s)
                PJP = bv.transformed_jacobian(sys, s)
                off = PJP - np.diag(np.diag(PJP))
                assert off.min() >= 0.0
                # rounding moved no entry by more than the slack allows
                assert np.abs(PJP - P @ J @ P).max() <= \
                    2.0 * model.CONTAINMENT_TOL * rows
                equilibria.classify_state(sys, s)
        assert accepted >= 500

    def test_case2_just_past_the_saturated_face(self):
        s = State([0.6, 0.3], [0.4 + 1e-12, 0.3])
        cls, absc = equilibria.classify_state(CASES["case2"].system(), s)
        assert cls in ("stable", "unstable", "singular_boundary")
        assert np.isfinite(absc)

    def test_row_sums_above_one_plus_max_entry(self):
        eye = np.eye(3)
        sys = BivirusSystem(np.ones((3, 3)), eye, np.ones((3, 3)), eye)
        s = State(-0.9e-9 * np.ones(3), 0.3 * np.ones(3))
        PJP = bv.transformed_jacobian(sys, s)
        assert (PJP - np.diag(np.diag(PJP))).min() >= 0.0
        # only off-diagonal entries are rounded
        assert np.array_equal(np.diag(PJP), np.diag(bv.jacobian(sys, s)))
