"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the package's computational paths: the scrambling
oracle is a literal triple loop, the velocity field a literal double loop
over agent pairs (stepped by a plain RK4 loop), the connectivity oracles use either a dense
symmetric eigensolver with the constant direction shifted away or brute-force
Rayleigh-quotient minimization over direction grids, and window averages are
cross-checked by Riemann summation.
"""
import numpy as np


def scrambling_direct(entries):
    """Literal evaluation: min over ordered (i, j) of (1/n) sum_k min(a_ik, a_jk)."""
    n = len(entries)
    best = None
    for i in range(n):
        for j in range(n):
            total = 0.0
            for k in range(n):
                total += min(entries[i][k], entries[j][k])
            if best is None or total < best:
                best = total
    return best / n


def rhs_direct(pos, adj, constant, p1, p2):
    """Literal velocity field: (1/n) sum_j a_ij phi(|x_i - x_j|) (x_j - x_i),
    phi = p1 when `constant`, else p1 / (1 + r^2)^p2."""
    n, d = pos.shape
    out = np.zeros((n, d))
    for i in range(n):
        for j in range(n):
            a = adj[i, j]
            if a == 0.0:
                continue
            r2 = 0.0
            for c in range(d):
                diff = pos[j, c] - pos[i, c]
                r2 += diff * diff
            w = a * p1 if constant else a * p1 / (1.0 + r2) ** p2
            for c in range(d):
                out[i, c] += w * (pos[j, c] - pos[i, c])
    return out / n


def rk4_direct(x0, adj, h, steps, constant, p1, p2):
    """Classical RK4 on `rhs_direct` with one adjacency; every state, (steps+1, n, d)."""
    states = [np.array(x0, dtype=np.float64)]
    for _ in range(steps):
        x = states[-1]
        k1 = rhs_direct(x, adj, constant, p1, p2)
        k2 = rhs_direct(x + 0.5 * h * k1, adj, constant, p1, p2)
        k3 = rhs_direct(x + 0.5 * h * k2, adj, constant, p1, p2)
        k4 = rhs_direct(x + h * k3, adj, constant, p1, p2)
        states.append(x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.stack(states)


def laplacian_sym(entries):
    entries = np.asarray(entries, dtype=np.float64)
    n = entries.shape[0]
    lap = (np.diag(entries.sum(axis=1)) - entries) / n
    return 0.5 * (lap + lap.T)


def lambda2_eigh(entries):
    """Connectivity via numpy's dense symmetric eigensolver: shift the
    constant direction above the spectrum, take the smallest eigenvalue."""
    sym = laplacian_sym(entries)
    n = sym.shape[0]
    if n == 1:
        return 0.0
    shifted = sym + 3.0 * np.ones((n, n)) / n
    return float(np.linalg.eigvalsh(shifted)[0])


def _complement_basis(n):
    # orthonormal basis of the complement of constants, via QR (not Householder)
    cols = np.concatenate([np.ones((n, 1)) / np.sqrt(n), np.eye(n)[:, : n - 1]],
                          axis=1)
    q, _ = np.linalg.qr(cols)
    return q[:, 1:]


def _angle_directions(grids, m):
    mesh = np.meshgrid(*grids, indexing="ij")
    angles = np.stack([g.ravel() for g in mesh], axis=1)
    w = np.ones((angles.shape[0], m))
    for k in range(m - 1):
        w[:, k] *= np.cos(angles[:, k])
        w[:, k + 1:] *= np.sin(angles[:, k])[:, None]
    return w, angles


def _grid_min_quadratic(bmat, coarse, refine, stages, top):
    """Brute-force min of w^T B w over unit vectors w by refined angle grids.

    Refines around the best `top` mutually separated coarse candidates, so a
    near-degenerate second eigendirection cannot crowd the true minimizer out
    of the refinement region.
    """
    m = bmat.shape[0]
    if m == 1:
        return float(bmat[0, 0])

    lo = np.zeros(m - 1)
    hi = np.full(m - 1, np.pi)
    hi[-1] = 2 * np.pi
    grids = [np.linspace(lo[k], hi[k], coarse) for k in range(m - 1)]
    w, angles = _angle_directions(grids, m)
    vals = np.einsum("ki,ij,kj->k", w, bmat, w)
    spans = (hi - lo) / (coarse - 1)

    order = np.argsort(vals)
    centres = []
    for idx in order[: 50 * top]:
        a = angles[idx]
        if all(np.abs(a - c).max() > 4 * spans.max() for c in centres):
            centres.append(a)
        if len(centres) == top:
            break

    best = float(vals[order[0]])
    for centre in centres:
        c_lo, c_hi = centre - 2 * spans, centre + 2 * spans
        for _ in range(stages):
            grids = [np.linspace(c_lo[k], c_hi[k], refine)
                     for k in range(m - 1)]
            w, angles = _angle_directions(grids, m)
            vals = np.einsum("ki,ij,kj->k", w, bmat, w)
            idx = int(np.argmin(vals))
            best = min(best, float(vals[idx]))
            span = (c_hi - c_lo) / (refine - 1)
            c_lo = angles[idx] - 2 * span
            c_hi = angles[idx] + 2 * span
    return best


def lambda2_rayleigh_grid(entries, coarse=None, refine=61, stages=3, top=5):
    """Connectivity by Rayleigh-quotient grid minimization over unit vectors
    orthogonal to constants (projected to the complement, then angle grids)."""
    entries = np.asarray(entries, dtype=np.float64)
    n = entries.shape[0]
    if n == 1:
        return 0.0
    basis = _complement_basis(n)
    bmat = basis.T @ laplacian_sym(entries) @ basis
    if coarse is None:
        coarse = {1: 2, 2: 4001, 3: 401, 4: 61}[n - 1]
    return _grid_min_quadratic(bmat, coarse, refine, stages, top)


def riemann_window_average(sig, t, tau, steps=10_000):
    """Left-endpoint Riemann sum of (1/tau) * integral A over [t, t+tau]."""
    h = tau / steps
    total = np.zeros((sig.n, sig.n))
    for k in range(steps):
        total += sig.pieces[sig.piece_index_at(t + k * h)].entries
    avg = total * h / tau
    np.fill_diagonal(avg, 1.0)
    return avg


def two_agent_closed_form(times, x0=(-1.0, 1.0)):
    """Exact solution for two agents, all-ones graph, unit constant kernel:
    the gap obeys delta' = -delta, the mean is conserved."""
    times = np.asarray(times, dtype=np.float64)
    mean = 0.5 * (x0[0] + x0[1])
    half_gap = 0.5 * (x0[1] - x0[0]) * np.exp(-times)
    return np.stack([mean - half_gap, mean + half_gap], axis=1)
