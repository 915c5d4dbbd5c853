import numpy as np
import pytest

from bivirus import CASES, BivirusSystem, equilibria
from bivirus.model import State


@pytest.fixture(scope="session")
def case_systems():
    return {name: cs.system() for name, cs in CASES.items()}


@pytest.fixture
def newton_calls(monkeypatch):
    """The calls made to `equilibria.find_coexistence_newton`, which still
    runs."""
    calls = []
    search = equilibria.find_coexistence_newton

    def spy(*args, **kw):
        calls.append(args)
        return search(*args, **kw)

    monkeypatch.setattr(equilibria, "find_coexistence_newton", spy)
    return calls


def random_spreading_matrix(rng, n, rho_lo=1.3, rho_hi=2.5):
    """Strictly positive (hence irreducible) matrix scaled to a spectral
    radius drawn from [rho_lo, rho_hi] with numpy's eigensolver.  Tests that
    need an oracle independent of any eigensolver build their matrices with
    a known Perron root instead (see `weak_communities`)."""
    M = rng.uniform(0.1, 1.0, size=(n, n))
    rho = float(np.max(np.abs(np.linalg.eigvals(M))))
    target = rng.uniform(rho_lo, rho_hi)
    return M * (target / rho)


def weak_communities(rng, n, eps, R):
    """Two random communities of h = n // 2 and n - h nodes, each with every
    row summing to R (so each block's Perron root is exactly R), linked by
    eps at [0, h] and [h, 0].  Row sums of the whole matrix lie in
    [R, R + eps], which brackets its Perron root without an eigensolver."""
    h = n // 2
    A = np.zeros((n, n))
    for sl in (slice(0, h), slice(h, n)):
        M = rng.uniform(0.1, 1.0, size=(sl.stop - sl.start,) * 2)
        A[sl, sl] = M * (R / M.sum(axis=1))[:, None]
    A[0, h] = A[h, 0] = eps
    return A


def random_supercritical_system(rng, n):
    eye = np.eye(n)
    return BivirusSystem(random_spreading_matrix(rng, n), eye,
                         random_spreading_matrix(rng, n), eye)


def random_interior_state(rng, n, margin=0.05):
    """A strictly interior state: per node, x1 + x2 <= 1 - margin."""
    u = rng.uniform(margin, 1.0 - margin, size=n)     # total infected
    frac = rng.uniform(margin, 1.0 - margin, size=n)  # split between viruses
    return State(u * frac, u * (1.0 - frac))


def random_ordered_pair(rng, n, margin=0.02):
    """Two feasible states ordered in the flow's cone: lo has the smaller
    x1 and the larger x2."""
    x2_hi = rng.uniform(margin, 0.9, size=n)
    x1_lo = rng.uniform(margin, 1.0, size=n) * (1.0 - margin - x2_hi)
    x1_hi = x1_lo + rng.uniform(0.0, 1.0, size=n) * (1.0 - x2_hi - x1_lo)
    x2_lo = rng.uniform(0.0, 1.0, size=n) * x2_hi
    lo = State(x1_lo, x2_hi)
    hi = State(x1_hi, x2_lo)
    return lo, hi
