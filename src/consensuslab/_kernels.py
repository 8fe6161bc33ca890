"""Hot numeric kernels, vectorized with numpy.

`dynamics` and `graphs` look these up by name on this module.
"""
import numpy as np

KERNEL_CONSTANT = 0
KERNEL_CUCKER_SMALE = 1


def rhs_velocity(pos, adj, kind, p1, p2):
    """Coupling velocity field of the interaction dynamics, shape (n, d).

    velocity_i = (1/n) sum_j a_ij * phi(|x_i - x_j|) * (x_j - x_i), with
    phi = p1 for the constant kernel and p1 / (1 + r^2)^p2 otherwise.
    """
    diff = pos[None, :, :] - pos[:, None, :]  # diff[i, j] = x_j - x_i
    r2 = np.einsum("ijc,ijc->ij", diff, diff)
    if kind == KERNEL_CONSTANT:
        w = adj * p1
    else:
        w = adj * (p1 / (1.0 + r2) ** p2)
    return np.einsum("ij,ijc->ic", w, diff) / pos.shape[0]


def scrambling_min(adj):
    """Minimum over ordered index pairs of the normalized shared-weight sum."""
    n = adj.shape[0]
    pair_sums = np.minimum(adj[:, None, :], adj[None, :, :]).sum(axis=2)
    return float(pair_sums.min() / n)


def rk4_run(x0, pieces, piece_idx, hs, rec, kind, p1, p2):
    """Fixed-step RK4 over a prebuilt step grid; returns recorded states.

    ``pieces`` is the (m, n, n) stack of adjacency matrices, ``piece_idx``
    assigns one piece per step, ``hs`` the step sizes and ``rec`` flags which
    grid points to record.
    """
    out = np.empty((int(np.count_nonzero(rec)), x0.shape[0], x0.shape[1]))
    x = x0.copy()
    r = 0
    if rec[0]:
        out[r] = x
        r += 1
    for s in range(hs.shape[0]):
        h = hs[s]
        adj = pieces[piece_idx[s]]
        k1 = rhs_velocity(x, adj, kind, p1, p2)
        k2 = rhs_velocity(x + 0.5 * h * k1, adj, kind, p1, p2)
        k3 = rhs_velocity(x + 0.5 * h * k2, adj, kind, p1, p2)
        k4 = rhs_velocity(x + h * k3, adj, kind, p1, p2)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if rec[s + 1]:
            out[r] = x
            r += 1
    return out
