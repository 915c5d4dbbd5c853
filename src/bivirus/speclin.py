"""Spectral primitives for nonnegative and Metzler matrices.

Everything downstream (reproduction numbers, boundary-stability tests,
Jacobian classification) reduces to three questions about small dense
matrices: is the adjacency pattern strongly connected, what is the Perron
root of a nonnegative matrix, and what is the rightmost eigenvalue of a
Metzler matrix.  Strong connectivity is a two-sided breadth-first search
over the boolean pattern in numpy; scipy.sparse cost about 300 ms and
26 MB to import for this one boolean test.  LAPACK's dense eigensolver
(`np.linalg.eigvals` / `eig`) answers the two spectral questions, taking
the eigenvalue with the largest real part.  For a Metzler matrix that
eigenvalue is real, reducible or not, so no strongly-connected-component
condensation is needed, and a weakly coupled pattern (two nearly equal
Perron roots) costs no more than any other.  Nothing iterates to a
tolerance, so ConvergenceError here only means that a computed Perron
vector failed its residual (or positivity) check.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConvergenceError, DomainError

DEFAULT_TOL = 1e-12
#: Half-width of the band around 0 inside which a spectral abscissa is
#: reported as sitting on the singular boundary.
CLASSIFY_BAND = 1e-9


# ---------------------------------------------------------------------------
# input checking

def as_square_matrix(A, what="matrix") -> np.ndarray:
    """Coerce to a float64 square 2-D array with finite entries."""
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise DomainError(f"{what} must be square 2-D, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise DomainError(f"{what} contains NaN or Inf entries")
    return M


def require_nonnegative(A, what="matrix") -> np.ndarray:
    M = as_square_matrix(A, what)
    if (M < 0).any():
        raise DomainError(f"{what} has negative entries")
    return M


def require_positive_diagonal(D, what="matrix") -> np.ndarray:
    """Positive diagonal matrix: off-diagonals exactly zero, diagonal > 0."""
    M = as_square_matrix(D, what)
    off = M - np.diag(np.diag(M))
    if np.any(off != 0.0):
        raise DomainError(f"{what} has nonzero off-diagonal entries")
    if (np.diag(M) <= 0).any():
        raise DomainError(f"{what} has nonpositive diagonal entries")
    return M


def is_metzler(M) -> bool:
    M = as_square_matrix(M)
    off = M - np.diag(np.diag(M))
    return bool((off >= 0).all())


def require_metzler(M, what="matrix") -> np.ndarray:
    M = as_square_matrix(M, what)
    if not is_metzler(M):
        raise DomainError(f"{what} is not Metzler (negative off-diagonal)")
    return M


# ---------------------------------------------------------------------------
# graph structure

def _reaches_all(P) -> bool:
    """True iff node 0 reaches every node along edges j -> i with P[i, j]."""
    seen = np.zeros(P.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = P[:, frontier].any(axis=1) & ~seen
        seen |= frontier
    return bool(seen.all())


def is_irreducible(A) -> bool:
    """True iff the directed graph with an edge j -> i whenever A[i, j] > 0
    is strongly connected: node 0 reaches every node and every node reaches
    node 0.  A 1x1 matrix counts as irreducible."""
    P = require_nonnegative(A) > 0
    return _reaches_all(P) and _reaches_all(P.T)


def _rightmost_eigenvalue(M):
    """Eigenvalue of the Metzler matrix M with the largest real part, as a
    real number (Perron-Frobenius applied to M + cI makes it real)."""
    return float(np.max(np.linalg.eigvals(M).real))


def spectral_radius(A) -> float:
    """Perron root of a nonnegative irreducible matrix."""
    M = require_nonnegative(A)
    if not is_irreducible(M):
        raise DomainError("spectral_radius requires an irreducible matrix")
    return _rightmost_eigenvalue(M)


def perron_vector(A, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Strictly positive right eigenvector of the Perron root, unit 1-norm.

    Satisfies ||A v - rho(A) v||_inf <= tol * rho(A) at return; a vector
    failing that check, or with an entry that is not positive, raises
    ConvergenceError.
    """
    M = require_nonnegative(A)
    if not is_irreducible(M):
        raise DomainError("perron_vector requires an irreducible matrix")
    w, V = np.linalg.eig(M)
    k = int(np.argmax(w.real))
    lam = float(w[k].real)
    v = V[:, k].real
    v = v / np.sum(v)
    resid = float(np.max(np.abs(M @ v - lam * v)))
    if resid > tol * lam or (v <= 0).any():
        raise ConvergenceError(
            f"Perron vector check failed: residual {resid:.1e} against "
            f"{tol * lam:.1e}, smallest entry {float(v.min()):.1e}",
            estimate=lam, iterate=v)
    return v


def spectral_abscissa(M) -> float:
    """Largest real part among eigenvalues of a Metzler matrix.

    M + cI is nonnegative for c large enough, so by Perron-Frobenius the
    rightmost eigenvalue of M is real and equal to rho(M + cI) - c.  That
    holds for reducible M too (block-triangular Jacobians at boundary
    equilibria), so the dense spectrum needs no condensation into strongly
    connected components.
    """
    return _rightmost_eigenvalue(require_metzler(M, "spectral_abscissa input"))


def classify_abscissa(s: float) -> str:
    """Map a spectral abscissa to {hurwitz, singular_boundary, unstable},
    with the +-CLASSIFY_BAND band around zero reported as
    `singular_boundary` (lines of equilibria sit exactly there)."""
    if s < -CLASSIFY_BAND:
        return "hurwitz"
    if s > CLASSIFY_BAND:
        return "unstable"
    return "singular_boundary"


def classify_metzler(M) -> str:
    """Stability class of a Metzler matrix (see `classify_abscissa`)."""
    return classify_abscissa(spectral_abscissa(M))
