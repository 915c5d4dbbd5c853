import logging
import re

import numpy as np
import pytest

from bivirus import CASES, model, speclin
from bivirus.cli import build_analysis_report
from bivirus.exceptions import DomainError
from bivirus.model import BivirusSystem, State

import oracles
from conftest import weak_communities

B_SYM = np.array([[1.6, 1.0], [1.0, 1.6]])


class TestIrreducible:
    def test_positive_2x2(self):
        assert speclin.is_irreducible(B_SYM)

    def test_identity_reducible(self):
        assert not speclin.is_irreducible(np.eye(2))

    def test_single_node(self):
        assert speclin.is_irreducible([[0.0]])
        assert speclin.is_irreducible([[2.0]])

    def test_negative_entry_rejected(self):
        with pytest.raises(DomainError):
            speclin.is_irreducible([[1.0, -0.1], [1.0, 1.0]])

    @pytest.mark.parametrize("A", [np.ones((2, 3)), [[1.0, np.nan], [1.0, 1.0]]])
    def test_non_square_or_non_finite_rejected(self, A):
        with pytest.raises(DomainError):
            speclin.is_irreducible(A)

    def test_random_patterns_match_transitive_closure(self):
        rng = np.random.default_rng(42)
        agree = 0
        for _ in range(80):
            A = (rng.random((6, 6)) < 0.3) * rng.uniform(0.5, 2.0, (6, 6))
            expected = oracles.floyd_warshall_strongly_connected(A)
            assert speclin.is_irreducible(A) == expected
            agree += 1
        assert agree == 80

    @staticmethod
    def assert_matches_oracle(A, expected):
        assert oracles.floyd_warshall_strongly_connected(A) == expected
        assert speclin.is_irreducible(A) == expected

    @pytest.mark.parametrize("n", [2, 3, 10, 60])
    def test_directed_cycle_and_broken_cycle(self, n):
        # the cycle needs n breadth-first sweeps, the most any pattern needs
        cycle = np.roll(np.eye(n), 1, axis=0)
        self.assert_matches_oracle(cycle, True)
        broken = cycle.copy()
        broken[0, n - 1] = 0.0
        self.assert_matches_oracle(broken, False)

    def test_dense_blocks_joined_one_way_or_both(self):
        rng = np.random.default_rng(3)
        A = np.zeros((9, 9))
        A[:4, :4] = rng.uniform(0.5, 2.0, (4, 4))
        A[4:, 4:] = rng.uniform(0.5, 2.0, (5, 5))
        A[5, 1] = 0.3
        self.assert_matches_oracle(A, False)
        self.assert_matches_oracle(A.T, False)
        A[2, 7] = 0.3
        self.assert_matches_oracle(A, True)

    def test_weak_communities_pattern(self):
        A = weak_communities(np.random.default_rng(11), 40, 1e-5, 2.0)
        self.assert_matches_oracle(A, True)

    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_zero_matrix_reducible(self, n):
        self.assert_matches_oracle(np.zeros((n, n)), False)


class TestSpectralRadius:
    def test_constant_row_sums(self):
        assert speclin.spectral_radius(B_SYM) == pytest.approx(2.6, rel=1e-12)

    def test_2x2_closed_form(self):
        A = np.array([[2.1, 0.5], [1.5, 1.1]])
        lam_hi, _ = oracles.eigvals_2x2(A)  # larger root of l^2 - 3.2 l + 1.56
        assert lam_hi == pytest.approx(2.6, rel=1e-14)
        assert speclin.spectral_radius(A) == pytest.approx(lam_hi, rel=1e-12)

    def test_unity_after_endemic_shrink(self):
        # (I - Z) B2 with the shared endemic level z = 1 - 1/2.6 has Perron
        # root exactly one for the line-construction matrix.
        B2 = np.array([[2.1, 0.5], [1.5, 1.1]])
        z = 1.0 - 1.0 / 2.6
        shrunk = (1.0 - z) * B2
        assert speclin.spectral_radius(shrunk) == pytest.approx(1.0, abs=1e-12)
        # with the 4-decimal rounded level the root is still 1 to ~5e-4
        shrunk_rounded = (1.0 - 0.6154) * B2
        assert speclin.spectral_radius(shrunk_rounded) == pytest.approx(1.0, abs=5e-4)

    def test_periodic_pattern_converges(self):
        # zero diagonal, eigenvalues +-1: plain power iteration would cycle
        A = np.array([[0.0, 2.0], [0.5, 0.0]])
        assert speclin.spectral_radius(A) == pytest.approx(1.0, rel=1e-11)

    def test_perron_bounds_random(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            A = rng.uniform(0.05, 1.5, size=(5, 5))
            rho = speclin.spectral_radius(A)
            rows = A.sum(axis=1)
            cols = A.sum(axis=0)
            assert max(rows.min(), cols.min()) <= rho + 1e-9
            assert rho <= rows.max() + 1e-9

    def test_entrywise_monotonicity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = rng.uniform(0.05, 1.0, size=(4, 4))
            bump = rng.uniform(0.0, 0.5, size=(4, 4))
            assert (speclin.spectral_radius(A + bump)
                    >= speclin.spectral_radius(A) - 1e-10)
            assert (speclin.spectral_radius(A + bump + 0.01)
                    > speclin.spectral_radius(A))

    def test_reducible_rejected(self):
        with pytest.raises(DomainError):
            speclin.spectral_radius(np.eye(3))


class TestSpectralAbscissa:
    def test_shifted_symmetric(self):
        assert speclin.spectral_abscissa(-np.eye(2) + B_SYM) == \
            pytest.approx(1.6, rel=1e-11)

    def test_diagonal(self):
        assert speclin.spectral_abscissa(np.diag([-1.0, -2.0])) == \
            pytest.approx(-1.0, abs=1e-12)

    def test_sign_agrees_with_reproduction_threshold(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            B = rng.uniform(0.05, 1.2, size=(4, 4))
            d = rng.uniform(0.3, 2.0, size=4)
            s = speclin.spectral_abscissa(-np.diag(d) + B)
            gap = speclin.spectral_radius(B / d[:, None]) - 1.0
            assert s * gap > 0 or (abs(s) < 1e-9 and abs(gap) < 1e-9)

    def test_block_triangular_reducible(self):
        # abscissa of a reducible Metzler matrix = max over diagonal blocks
        M = np.zeros((4, 4))
        M[:2, :2] = -np.eye(2) + B_SYM      # abscissa 1.6
        M[2:, 2:] = -3 * np.eye(2)          # abscissa -3
        M[:2, 2:] = 0.7                     # strictly upper-block coupling
        assert speclin.spectral_abscissa(M) == pytest.approx(1.6, rel=1e-11)

    def test_non_metzler_rejected(self):
        with pytest.raises(DomainError):
            speclin.spectral_abscissa([[1.0, -0.2], [0.3, 1.0]])


class TestPerronVector:
    def test_symmetric(self):
        v = speclin.perron_vector(B_SYM)
        assert np.allclose(v, [0.5, 0.5], atol=1e-12)

    def test_rank_one(self):
        z = np.array([0.2, 0.5, 0.3])
        q = z / (z @ z)
        A = np.outer(z, q)
        v = speclin.perron_vector(A)
        assert np.allclose(v, z / z.sum(), atol=1e-10)

    def test_residual_and_oracle_match_random(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            A = rng.uniform(0.1, 2.0, size=(5, 5))
            v = speclin.perron_vector(A, tol=1e-13)
            rho = speclin.spectral_radius(A)
            assert np.max(np.abs(A @ v - rho * v)) <= 1e-13 * rho
            lam_o, v_o = oracles.inverse_iteration_perron(A)
            assert rho == pytest.approx(lam_o, rel=1e-9)
            assert np.max(np.abs(v - v_o)) <= 1e-8
            assert (v > 0).all() and v.sum() == pytest.approx(1.0, abs=1e-14)


#: (n, eps) pairs on which a shifted power iteration cannot separate the
#: two near-equal leading eigenvalues within its iteration cap.
WEAK_COUPLING = [(6, 1e-5), (20, 1e-5), (60, 1e-7)]
#: Rounding slack on the row-sum bracket, far below every eps above.
ROUNDING = 1e-13


class TestWeakCoupling:
    @pytest.mark.parametrize("n,eps", WEAK_COUPLING)
    def test_spectral_radius_bracketed_by_row_sums(self, n, eps):
        R = 1.8
        A = weak_communities(np.random.default_rng(n), n, eps, R)
        rho = speclin.spectral_radius(A)
        assert R * (1 - ROUNDING) <= rho <= (R + eps) * (1 + ROUNDING)

    @pytest.mark.parametrize("n,eps", WEAK_COUPLING)
    def test_perron_vector_positive_with_small_residual(self, n, eps):
        A = weak_communities(np.random.default_rng(n), n, eps, 1.8)
        tol = speclin.DEFAULT_TOL
        v = speclin.perron_vector(A, tol=tol)
        rho = speclin.spectral_radius(A)
        assert (v > 0).all()
        assert v.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(A @ v - rho * v)) <= tol * rho

    @pytest.mark.parametrize("n,eps", WEAK_COUPLING)
    def test_spectral_abscissa_bracketed(self, n, eps):
        R = 1.8
        A = weak_communities(np.random.default_rng(n), n, eps, R)
        s = speclin.spectral_abscissa(-np.eye(n) + A)
        assert R - 1 - ROUNDING * R <= s <= R - 1 + eps + ROUNDING * R


class TestClassifyMetzler:
    def test_hurwitz(self):
        assert speclin.classify_metzler(-2 * np.eye(3)) == "hurwitz"

    def test_unstable(self):
        assert speclin.classify_metzler(-np.eye(2) + B_SYM) == "unstable"

    def test_singular_boundary_at_endemic_linearization(self):
        # -I + (I - X_bar) B is singular exactly at the endemic profile
        xbar = (1.0 - 1.0 / 2.6) * np.ones(2)
        M = -np.eye(2) + (1.0 - xbar)[:, None] * B_SYM
        assert speclin.classify_metzler(M) == "singular_boundary"


def _dense_rightmost(M):
    return float(np.max(np.linalg.eigvals(M).real))


def _random_metzler(rng, n):
    """Irreducible Metzler matrix: a sparse nonnegative pattern closed into
    a directed cycle, with a diagonal of either sign."""
    A = (rng.random((n, n)) < 0.1) * rng.uniform(0.1, 1.0, (n, n))
    A += 0.2 * np.roll(np.eye(n), 1, axis=0)
    np.fill_diagonal(A, rng.uniform(-3.0, 1.0, n))
    return A


def _lifted_line_jacobian(copies):
    """Transformed Jacobian at the midpoint of case1's line of equilibria,
    lifted to n = 2 * copies: singular, with abscissa 0."""
    block = np.full((copies, copies), 1.0 / copies)
    eye = np.eye(2 * copies)
    case1 = CASES["case1"].system()
    sys = BivirusSystem(np.kron(case1.B1, block), eye,
                        np.kron(case1.B2, block), eye)
    z = (1.0 - 1.0 / 2.6) * np.ones(2 * copies)   # both profiles
    return model.transformed_jacobian(sys, State(z / 2, z / 2))


class TestNodaKernel:
    """From NODA_MIN_N nodes up the rightmost eigenvalue comes from Noda's
    iteration, which must agree with the dense eigensolver to rounding and
    fall back to it where it stalls."""

    @staticmethod
    def assert_agrees(M):
        s = speclin._noda(M)
        assert s is not None
        assert abs(s - _dense_rightmost(M)) <= 1e-13 * np.abs(M).max()
        return s

    @pytest.mark.parametrize("n", [32, 50, 100, 200])
    def test_random_irreducible_metzler(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            M = _random_metzler(rng, n)
            assert speclin.is_irreducible(M - np.diag(np.diag(M)))
            s = self.assert_agrees(M)
            assert speclin.spectral_abscissa(M) == s
            c = M.diagonal().min()     # M - c I is nonnegative
            assert speclin.spectral_radius(M - c * np.eye(n)) == \
                pytest.approx(s - c, rel=1e-13)

    def test_weak_communities(self):
        A = weak_communities(np.random.default_rng(40), 40, 1e-5, 1.8)
        self.assert_agrees(A)
        self.assert_agrees(-np.eye(40) + A)

    def test_singular_line_point(self):
        PJP = _lifted_line_jacobian(20)
        s = self.assert_agrees(PJP)
        assert abs(s) <= 1e-12
        assert speclin.classify_metzler(PJP) == "singular_boundary"

    @pytest.mark.parametrize("coupled", [False, True])
    def test_reducible_input_falls_back(self, caplog, coupled):
        # Block-diagonal, or block-triangular with the dominant block (the
        # first, root 11.13 against 10.47) fed by the other: either way the
        # Perron vector is zero on the second block.
        rng = np.random.default_rng(3)
        M = np.zeros((40, 40))
        M[:20, :20] = rng.uniform(0.1, 1.0, (20, 20))
        M[20:, 20:] = rng.uniform(0.1, 1.0, (20, 20))
        M[:20, 20:] = 0.3 * coupled
        with caplog.at_level(logging.DEBUG, logger="bivirus.speclin"):
            s = speclin.spectral_abscissa(M)
        assert s == _dense_rightmost(M)
        (line,) = [r.getMessage() for r in caplog.records]
        assert line.startswith("spectral kernel: Noda iteration at n = 40 "
                               "stopped")
        solves = re.search(r"after (\d+) solves, bracket \[\S+, \S+\] of "
                           r"width \S+ against tolerance \S+", line).group(1)
        # the upper end stalls after 6 (10) solves; without that stop the
        # run would go on until rounding spoils an iterate, at 27 (31)
        assert int(solves) <= 16

    def test_below_the_threshold_is_dense(self, monkeypatch):
        M = _random_metzler(np.random.default_rng(5), speclin.NODA_MIN_N - 1)

        def refused(M):
            raise AssertionError("Noda iteration below NODA_MIN_N")
        monkeypatch.setattr(speclin, "_noda", refused)
        assert speclin.spectral_abscissa(M) == _dense_rightmost(M)

    def test_analysis_at_n_100_never_falls_back(self, monkeypatch):
        # Every matrix of the report is n x n or 2n x 2n with n = 100, so an
        # eigvals call would be a silent fallback.
        rng = np.random.default_rng(101)
        block = np.full((50, 50), 1.0 / 50)

        def noisy(M):
            return M * (1.0 + 0.02 * rng.uniform(-1.0, 1.0, size=M.shape))
        eye = np.eye(100)
        case2 = CASES["case2"].system()
        sys = BivirusSystem(noisy(np.kron(case2.B1, block)), eye,
                            noisy(np.kron(case2.B2, block)), eye)
        calls = []
        eigvals = np.linalg.eigvals

        def counted(M):
            calls.append(M.shape)
            return eigvals(M)
        monkeypatch.setattr(np.linalg, "eigvals", counted)
        rep = build_analysis_report(sys)
        assert len(rep.enumeration.of_kind("coexistence")) == 1
        assert calls == []
