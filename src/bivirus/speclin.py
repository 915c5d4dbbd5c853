"""Spectral primitives for nonnegative and Metzler matrices.

Everything downstream (reproduction numbers, boundary-stability tests,
Jacobian classification) reduces to three questions about small dense
matrices: is the adjacency pattern strongly connected, what is the Perron
root of a nonnegative matrix, and what is the rightmost eigenvalue of a
Metzler matrix.  Strong connectivity is a two-sided breadth-first search
over the boolean pattern in numpy; scipy.sparse cost about 300 ms and
26 MB to import for this one boolean test.

The two spectral questions are one: the rightmost eigenvalue of a Metzler
matrix M, which is real (Perron-Frobenius applied to M + cI), reducible
or not.  Below NODA_MIN_N nodes LAPACK's dense eigensolver
(`np.linalg.eigvals`) answers it.  From NODA_MIN_N up, Noda's inverse
iteration does (`_noda`): a few shifted solves (sigma I - M) w = v, each
tightening the Collatz-Wielandt bracket
min (M v)_i / v_i <= s(M) <= max (M v)_i / v_i of its positive iterate v
until the bracket is within rounding of closed.  Where it cannot close
the bracket (a reducible or defective matrix, whose Perron vector has
zeros), it falls back to the dense eigensolver and logs one DEBUG line
with the bracket it reached.  A weakly coupled pattern (two nearly equal
Perron roots) costs no more than any other either way.
`perron_vector` uses the dense `np.linalg.eig`, and ConvergenceError
here only means that the vector it computed failed its residual (or
positivity) check.
"""

from __future__ import annotations

import logging

import numpy as np

from .exceptions import ConvergenceError, DomainError

log = logging.getLogger(__name__)

DEFAULT_TOL = 1e-12
#: Half-width of the band around 0 inside which a spectral abscissa is
#: reported as sitting on the singular boundary.
CLASSIFY_BAND = 1e-9
#: Least order at which the rightmost eigenvalue comes from Noda's
#: iteration rather than the dense eigensolver.  Per call on the package's
#: own matrices, eigvals takes 11-14 us at n = 2-6, 57 us at 20, 231 us at
#: 40 and 2.8 ms at 100, and the iteration's 4.5-5.3 shifted solves take
#: 59-107, 108, 173 and 506 us: the two cross between n = 20 and 40.
NODA_MIN_N = 32
#: Most shifted solves one Noda run takes before it falls back.  The
#: package's own matrices need at most 8; a contrived 40 x 40 block-
#: triangular matrix whose two diagonal blocks share their Perron root,
#: with a positive Perron vector, needs 49.
NODA_MAX_SOLVES = 64


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
    real number (Perron-Frobenius applied to M + cI makes it real): by
    `_noda` from NODA_MIN_N nodes up, else, or where that stalls, by the
    dense eigensolver."""
    if len(M) >= NODA_MIN_N:
        s = _noda(M)
        if s is not None:
            return s
    return float(np.max(np.linalg.eigvals(M).real))


def _noda(M):
    """Rightmost eigenvalue s of the Metzler matrix M by Noda's inverse
    iteration (T. Noda, Numer. Math. 17, 1971; quadratic for irreducible
    M, L. Elsner, Linear Algebra Appl. 15, 1976), or None where it stalls.

    For v > 0, min (M v)_i / v_i <= s <= max (M v)_i / v_i (Collatz-
    Wielandt), reducible M included.  From v = 1, each step solves
    (hi I - M) w = v at the bracket's upper end hi, where the inverse is
    nonnegative, and takes v = w / max w.  The midpoint is returned once
    the bracket is within 8 n eps max|M|, a few times the rounding of
    (M v)_i / v_i.  A singular shift, an iterate that is not strictly
    positive, or an upper end that falls by no more than that tolerance
    in a step stops the run (a reducible or defective M, whose Perron
    vector has zeros), as does NODA_MAX_SOLVES."""
    n = len(M)
    tol = 8 * n * np.finfo(float).eps * np.abs(M).max()
    eye = np.eye(n)
    v = np.ones(n)
    ratio = M.sum(axis=1)           # (M v) / v at v = 1
    lo, hi = ratio.min(), ratio.max()
    solves, stop = 0, "solve cap"
    while hi - lo > tol:
        if solves == NODA_MAX_SOLVES:
            break
        try:
            w = np.linalg.solve(hi * eye - M, v)
        except np.linalg.LinAlgError:
            stop = "singular shift"
            break
        solves += 1
        top = w.max()
        if not (w.min() > 0.0 and np.isfinite(top)):
            stop = "iterate not positive"
            break
        v = w / top
        if not v.min() > 0.0:       # an entry underflowed
            stop = "iterate not positive"
            break
        with np.errstate(over="ignore"):    # a tiny v_i: inf, no closing
            ratio = (M @ v) / v
        lo = max(lo, ratio.min())
        upper = min(hi, ratio.max())
        if upper - lo > tol and hi - upper <= tol:
            stop = "upper bound stalled"
            break
        hi = upper
    else:
        return float(0.5 * (lo + hi))
    log.debug("spectral kernel: Noda iteration at n = %d stopped (%s) "
              "after %d solves, bracket [%.17g, %.17g] of width %.3g "
              "against tolerance %.3g; dense eigvals instead", n, stop,
              solves, lo, hi, hi - lo, tol)
    return None


def spectral_radius(A) -> float:
    """Perron root of a nonnegative irreducible matrix: its rightmost
    eigenvalue (`_rightmost_eigenvalue`), by Noda's iteration from
    NODA_MIN_N nodes up and by the dense eigensolver below."""
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
    equilibria), so no condensation into strongly connected components is
    needed: from NODA_MIN_N nodes up Noda's iteration finds it
    (`_rightmost_eigenvalue`), falling back to the dense eigensolver where
    a reducible M stalls the iteration, and below NODA_MIN_N the dense
    eigensolver does.  Input with a negative off-diagonal entry
    raises DomainError: the package hands in exactly Metzler matrices
    (`model.transformed_jacobian`), so this check guards outside input.
    """
    M = as_square_matrix(M, "spectral_abscissa input")
    if (M - np.diag(np.diag(M)) < 0).any():
        raise DomainError("spectral_abscissa input is not Metzler "
                          "(negative off-diagonal)")
    return _rightmost_eigenvalue(M)


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
