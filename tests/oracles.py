"""Independent oracles the tests check library results against.

Each routine here deliberately takes a different computational route from
the library code (dense eigensolvers, transitive closure, batched plain
Newton over a grid, finite differences), so agreement is meaningful.
"""

import numpy as np


def floyd_warshall_strongly_connected(A):
    """Strong connectivity of the pattern of A by boolean transitive closure."""
    n = A.shape[0]
    reach = (np.asarray(A) > 0) | np.eye(n, dtype=bool)
    for k in range(n):
        reach = reach | (reach[:, k][:, None] & reach[k, :][None, :])
    return bool(reach.all())


def eig_dominant(A):
    """Dominant eigenpair via numpy's dense eigensolver (rightmost real part)."""
    w, V = np.linalg.eig(np.asarray(A, float))
    k = int(np.argmax(w.real))
    lam = w[k]
    v = V[:, k]
    v = np.real_if_close(v / v.sum())
    return float(lam.real), np.asarray(v, float)


def inverse_iteration_perron(A, iters=100):
    """Perron pair by inverse iteration with a fixed shift above the Perron
    root (max row sum + 1)."""
    A = np.asarray(A, float)
    n = A.shape[0]
    mu = float(A.sum(axis=1).max()) + 1.0
    M = A - mu * np.eye(n)
    v = np.full(n, 1.0 / n)
    for _ in range(iters):
        w = np.linalg.solve(M, v)
        v = w / w.sum()
    lam = float(v @ (A @ v)) / float(v @ v)
    return lam, v / v.sum()


def eigvals_2x2(M):
    """Closed-form eigenvalues of a 2x2 matrix from its characteristic
    polynomial lambda^2 - tr lambda + det."""
    M = np.asarray(M, float)
    tr = M[0, 0] + M[1, 1]
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    disc = tr * tr - 4.0 * det
    if disc >= 0:
        s = np.sqrt(disc)
        return (tr + s) / 2.0, (tr - s) / 2.0
    s = np.sqrt(-disc)
    return complex(tr / 2.0, s / 2.0), complex(tr / 2.0, -s / 2.0)


def central_difference_jacobian(f, v, h=1e-6):
    v = np.asarray(v, float)
    m = v.size
    cols = []
    for i in range(m):
        e = np.zeros(m)
        e[i] = h
        cols.append((f(v + e) - f(v - e)) / (2.0 * h))
    return np.column_stack(cols)


def bruteforce_coexistence_n2(B1, B2, step=0.05, tol=1e-11, max_iter=60,
                              chunk=200_000):
    """All interior equilibria of the two-node system (B1, I, B2, I) by
    plain (undamped) Newton from every grid point of the feasible set.

    Vectorized over seeds; divergent or non-interior iterates are simply
    discarded at the end.  Returns unique roots as rows (x1_1, x1_2,
    x2_1, x2_2), lexicographically sorted.
    """
    B1 = np.asarray(B1, float)
    B2 = np.asarray(B2, float)
    axis = np.arange(step, 1.0, step)
    g = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"),
                 axis=-1).reshape(-1, 4)
    feasible = ((g[:, 0] + g[:, 2] <= 1.0 - step / 2)
                & (g[:, 1] + g[:, 3] <= 1.0 - step / 2))
    seeds = g[feasible]

    eye2 = np.eye(2)

    def F(Y):
        x1 = Y[:, :2]
        x2 = Y[:, 2:]
        s = 1.0 - x1 - x2
        return np.hstack([-x1 + s * (x1 @ B1.T), -x2 + s * (x2 @ B2.T)])

    def J(Y):
        m = Y.shape[0]
        x1 = Y[:, :2]
        x2 = Y[:, 2:]
        s = 1.0 - x1 - x2
        t1 = x1 @ B1.T
        t2 = x2 @ B2.T
        out = np.zeros((m, 4, 4))
        out[:, :2, :2] = -eye2 + s[:, :, None] * B1
        out[:, :2, :2][:, [0, 1], [0, 1]] -= t1
        out[:, :2, 2:][:, [0, 1], [0, 1]] = -t1
        out[:, 2:, :2][:, [0, 1], [0, 1]] = -t2
        out[:, 2:, 2:] = -eye2 + s[:, :, None] * B2
        out[:, 2:, 2:][:, [0, 1], [0, 1]] -= t2
        return out

    roots = []
    for lo in range(0, len(seeds), chunk):
        active = seeds[lo:lo + chunk].copy()
        settled = []
        for _ in range(max_iter):
            if not len(active):
                break
            Fa = F(active)
            res = np.abs(Fa).max(axis=1)
            done = res <= tol
            if done.any():
                settled.append(active[done])
                active = active[~done]
                Fa = Fa[~done]
            if not len(active):
                break
            Ja = J(active)
            try:
                step_vec = np.linalg.solve(Ja, -Fa[..., None])[..., 0]
                ok = True
            except np.linalg.LinAlgError:
                # some Jacobian is singular: step only the rows whose
                # determinant is clear of zero, and drop the others
                ok = np.abs(np.linalg.det(Ja)) > 1e-30
                step_vec = np.zeros_like(active)
                if ok.any():
                    step_vec[ok] = np.linalg.solve(
                        Ja[ok], -Fa[ok][..., None])[..., 0]
            active = active + step_vec
            keep = (ok & np.isfinite(active).all(axis=1)
                    & (np.abs(active).max(axis=1) <= 10.0))
            active = active[keep]
        if settled:
            Y = np.vstack(settled)
            s = 1.0 - Y[:, :2] - Y[:, 2:]
            interior = (Y > 1e-6).all(axis=1) & (s > 1e-6).all(axis=1)
            roots.append(Y[interior])
    allr = np.vstack(roots) if roots else np.empty((0, 4))
    if not len(allr):
        return allr
    rest = allr[np.lexsort(allr.T[::-1])]
    keep = []
    while len(rest):
        # keep the first remaining row and drop every row within 1e-6 of it
        keep.append(rest[0])
        rest = rest[np.abs(rest - rest[0]).max(axis=1) > 1e-6]
    return np.array(keep)
