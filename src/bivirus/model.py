"""Bivirus SIS model: system data, state space, vector field, Jacobians.

Two competing SIS viruses spread over the same n nodes on possibly
different strongly connected graphs.  With infection-rate matrices B1, B2,
recovery-rate matrices D1, D2 (positive diagonal) and per-node infected
fractions x1, x2, the dynamics are

    dx1/dt = [-D1 + (I - X1 - X2) B1] x1
    dx2/dt = [-D2 + (I - X1 - X2) B2] x2

where Xi = diag(xi).  States live in the closed feasible set
{0 <= x1, 0 <= x2, x1 + x2 <= 1} (entrywise), which the exact flow leaves
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import speclin
from .exceptions import DomainError, ValidationError

#: How far a state may stray outside the feasible set (integrator drift)
#: before operations refuse it.
CONTAINMENT_TOL = 1e-9


def _frozen_array(a, dtype=float):
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BivirusSystem:
    """The quadruple (B1, D1, B2, D2) defining a bivirus network.

    D1/D2 may be given as length-n vectors of recovery rates; they are
    stored as full diagonal matrices.  Construction only coerces shapes;
    call `validate` to check the model assumptions (irreducibility,
    positive recovery rates).
    """

    B1: np.ndarray
    D1: np.ndarray
    B2: np.ndarray
    D2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "B1", _frozen_array(self.B1))
        object.__setattr__(self, "B2", _frozen_array(self.B2))
        for name in ("D1", "D2"):
            d = np.asarray(getattr(self, name), dtype=float)
            if d.ndim == 1:
                d = np.diag(d)
            object.__setattr__(self, name, _frozen_array(d))

    @property
    def n(self) -> int:
        return self.B1.shape[0] if self.B1.ndim == 2 else 0


@dataclass(frozen=True)
class State:
    """Paired infection-fraction vectors (x1, x2), 1-D and of one length."""

    x1: np.ndarray
    x2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x1", _frozen_array(np.atleast_1d(self.x1)))
        object.__setattr__(self, "x2", _frozen_array(np.atleast_1d(self.x2)))
        if self.x1.ndim != 1 or self.x1.shape != self.x2.shape:
            raise DomainError(f"x1 and x2 must be 1-D of one length, got "
                              f"shapes {self.x1.shape} and {self.x2.shape}")

    @property
    def n(self) -> int:
        return self.x1.shape[0]

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.x1, self.x2])

    @classmethod
    def from_vector(cls, v) -> "State":
        v = np.asarray(v, dtype=float)
        if v.ndim != 1 or v.size % 2 != 0:
            raise DomainError(f"state vector must be flat of even length, "
                              f"got shape {v.shape}")
        n = v.size // 2
        return cls(v[:n], v[n:])

    @classmethod
    def zero(cls, n: int) -> "State":
        return cls(np.zeros(n), np.zeros(n))


# ---------------------------------------------------------------------------
# validation

def validation_errors(sys: BivirusSystem) -> list[str]:
    """Every violated model assumption, as human-readable messages."""
    problems = []
    mats = {"B1": sys.B1, "D1": sys.D1, "B2": sys.B2, "D2": sys.D2}
    for name, M in mats.items():
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            problems.append(f"{name}: not a square matrix (shape {M.shape})")
        elif not np.isfinite(M).all():
            problems.append(f"{name}: contains NaN or Inf")
    if problems:
        return problems

    n = sys.B1.shape[0]
    for name, M in mats.items():
        if M.shape[0] != n:
            problems.append(f"{name}: dimension {M.shape[0]} != {n}")
    if problems:
        return problems

    for name in ("B1", "B2"):
        B = mats[name]
        if (B < 0).any():
            problems.append(f"{name}: negative infection rate")
        elif not speclin.is_irreducible(B):
            problems.append(f"{name}: irreducibility violated "
                            "(spreading graph not strongly connected)")
    for name in ("D1", "D2"):
        D = mats[name]
        if np.any(D - np.diag(np.diag(D)) != 0.0):
            problems.append(f"{name}: not diagonal")
        if (np.diag(D) <= 0).any():
            problems.append(f"{name}: nonpositive recovery rate")
    return problems


def validate(sys: BivirusSystem) -> BivirusSystem:
    """Return the system unchanged, or raise ValidationError listing every
    violated assumption."""
    problems = validation_errors(sys)
    if problems:
        raise ValidationError(problems)
    return sys


# ---------------------------------------------------------------------------
# recovery-rate normalization

def normalize_recovery(sys: BivirusSystem) -> BivirusSystem:
    """Equivalent system with unit recovery rates: Bi <- Di^{-1} Bi, Di <- I.

    The rescaled system has the same equilibria with the same local
    stability properties, so analyses may assume D = I without loss of
    generality.  Idempotent.
    """
    d1 = np.diag(sys.D1)
    d2 = np.diag(sys.D2)
    if (d1 <= 0).any() or (d2 <= 0).any():
        raise DomainError("recovery rates must be positive to normalize")
    eye = np.eye(sys.n)
    return BivirusSystem(sys.B1 / d1[:, None], eye, sys.B2 / d2[:, None], eye)


def reproduction_numbers(sys: BivirusSystem):
    """(R1, R2) with Ri the Perron root of Di^{-1} Bi.  Virus i alone dies
    out iff Ri <= 1."""
    d1 = np.diag(sys.D1)
    d2 = np.diag(sys.D2)
    return (speclin.spectral_radius(sys.B1 / d1[:, None]),
            speclin.spectral_radius(sys.B2 / d2[:, None]))


# ---------------------------------------------------------------------------
# state containment

def in_feasible_set(s: State, tol: float = CONTAINMENT_TOL) -> bool:
    """Containment in the closed feasible set, with slack `tol` for
    integrator drift."""
    lo = -tol
    return bool((s.x1 >= lo).all() and (s.x2 >= lo).all()
                and (s.x1 + s.x2 <= 1.0 + tol).all())


def require_in_feasible_set(s: State) -> State:
    if not in_feasible_set(s):
        raise DomainError("state outside the feasible set "
                          "{0 <= x1, 0 <= x2, x1 + x2 <= 1} beyond tolerance")
    return s


def is_strictly_interior(s: State, margin: float = 0.0) -> bool:
    return bool((s.x1 > margin).all() and (s.x2 > margin).all()
                and (s.x1 + s.x2 < 1.0 - margin).all())


# ---------------------------------------------------------------------------
# dynamics

def field(sys: BivirusSystem):
    """Unchecked flat vector field f for solvers and integrators (Newton
    iterates and RK stages may leave the feasible set slightly;
    containment is enforced on accepted results instead).  f maps an
    array of shape (..., 2n) to one of the same shape, one state per row,
    so a batch of states costs one call."""
    n = sys.n
    neg_d = -np.concatenate([np.diag(sys.D1), np.diag(sys.D2)])
    # v @ BT is (B1 x1, B2 x2) in one product
    BT = np.zeros((2 * n, 2 * n))
    BT[:n, :n] = sys.B1.T
    BT[n:, n:] = sys.B2.T

    def f(v):
        out = v @ BT
        shrink = 1.0 - v[..., :n]
        shrink -= v[..., n:]
        blocks = out.reshape(out.shape[:-1] + (2, n))   # a view of out
        blocks *= shrink[..., None, :]
        out += neg_d * v
        return out

    return f


def residual(sys: BivirusSystem, s: State) -> float:
    """Infinity norm of the vector field; the uniform equilibrium-residual
    convention used throughout the package."""
    return float(np.max(np.abs(field(sys)(s.as_vector()))))


def jacobian(sys: BivirusSystem, s) -> np.ndarray:
    """Dense 2n x 2n Jacobian of the dynamics at state s.

    Blocks: [[-D1 + S B1 - T1, -T1], [-T2, -D2 + S B2 - T2]] with
    S = diag(1 - x1 - x2) and Ti = diag(Bi xi).  A State is checked
    against the feasible set (`require_in_feasible_set`).  Like `field`,
    s may instead be an unchecked array of shape (..., 2n), one flat state
    per row (Newton iterates may leave the feasible set); the result then
    has shape (..., 2n, 2n), one Jacobian per row, so a stack of Jacobians
    costs one call.
    """
    if isinstance(s, State):
        v = require_in_feasible_set(s).as_vector()
    else:
        v = np.asarray(s, dtype=float)
    n = sys.n
    x1, x2 = v[..., :n], v[..., n:]
    shrink = (1.0 - x1 - x2)[..., None]
    t1 = x1 @ sys.B1.T
    t2 = x2 @ sys.B2.T
    J = np.zeros(v.shape[:-1] + (2 * n, 2 * n))
    np.multiply(shrink, sys.B1, out=J[..., :n, :n])
    np.multiply(shrink, sys.B2, out=J[..., n:, n:])
    # Each diagonal of an n x n block is a strided view of the flattened J.
    flat = J.reshape(v.shape[:-1] + (4 * n * n,))
    k = 2 * n + 1
    corner = 2 * n * n   # flat index of (n, 0)
    d11, d22 = flat[..., :corner:k], flat[..., corner + n::k]
    d11 -= sys.D1.diagonal()
    d11 -= t1
    d22 -= sys.D2.diagonal()
    d22 -= t2
    np.negative(t1, out=flat[..., n:corner:k])
    np.negative(t2, out=flat[..., corner::k])
    return J


def transformed_jacobian(sys: BivirusSystem, s: State) -> np.ndarray:
    """P J P with P = diag(I, -I): the Metzler conjugate of the Jacobian,
    exactly Metzler at every state that `in_feasible_set` accepts.

    Its off-diagonal entries are S_i (Bk)_ij and (Bk xk)_i, which are
    nonnegative on the feasible set.  A state within CONTAINMENT_TOL of
    that set makes them at worst -CONTAINMENT_TOL times the largest row
    sum of B1 or B2 (plus a few ulps of 1 from rounding 1 - x1 - x2).
    Negative entries within that bound are rounded up to 0.  One below it
    comes from a negative infection rate, a broken system that `validate`
    refuses, and raises DomainError naming that rate; with valid rates it
    is an implementation bug, not a user error, and raises AssertionError.
    Irreducible whenever the state is strictly interior.
    """
    PJP = jacobian(sys, s)
    n = sys.n
    PJP[:n, n:] *= -1.0
    PJP[n:, :n] *= -1.0
    diag = PJP.diagonal().copy()
    np.fill_diagonal(PJP, 0.0)
    low = PJP.min()
    if low < 0.0:
        rows = max(sys.B1.sum(axis=1).max(), sys.B2.sum(axis=1).max())
        bound = (CONTAINMENT_TOL + 4.0 * np.finfo(float).eps) * rows
        if low < -bound:
            for name in ("B1", "B2"):
                B = getattr(sys, name)
                if (B < 0).any():
                    i, j = np.unravel_index(np.argmin(B), B.shape)
                    raise DomainError(f"{name}[{i}, {j}] = {B[i, j]:g} is a "
                                      "negative infection rate")
            # raised, not asserted: -O must not clip it away
            raise AssertionError("transformed Jacobian lost Metzler structure")
        np.maximum(PJP, 0.0, out=PJP)
    np.fill_diagonal(PJP, diag)
    return PJP
