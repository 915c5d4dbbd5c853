import numpy as np
import pytest

import bivirus as bv
from bivirus import CASES, model
from bivirus.exceptions import DomainError, ValidationError
from bivirus.model import BivirusSystem, State

import oracles
from conftest import random_interior_state

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
        dx1, dx2 = bv.vector_field(CASES["case2"].system(), State.zero(2))
        assert np.all(dx1 == 0) and np.all(dx2 == 0)

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
            bv.vector_field(CASES["case2"].system(),
                            State([0.9, 0.9], [0.9, 0.9]))

    def test_tolerates_drift_band(self):
        bv.vector_field(CASES["case2"].system(),
                        State([-1e-10, 0.2], [0.3, 0.4]))

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
            dx1, dx2 = bv.vector_field(sys, State(x1, x2))
            dz = -(dx1 + dx2)
            assert (dz > 0).all()


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
        # array form (for Newton iterates) does not refuse
        rng = np.random.default_rng(21)
        n = 5
        sys = BivirusSystem(rng.uniform(0.1, 1.0, (n, n)),
                            rng.uniform(0.5, 2.0, n),
                            rng.uniform(0.1, 1.0, (n, n)),
                            rng.uniform(0.5, 2.0, n))
        V = rng.uniform(-0.2, 0.8, (2, 3, 2 * n))
        stack = bv.jacobian(sys, V)
        assert stack.shape == (2, 3, 2 * n, 2 * n)
        for idx in np.ndindex(2, 3):
            single = bv.jacobian(sys, State.from_vector(V[idx]), tol=np.inf)
            assert np.abs(stack[idx] - single).max() <= 1e-15
            assert np.array_equal(bv.jacobian(sys, V[idx]), single)

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
