"""Hot numeric kernels, vectorized with numpy.

`dynamics` and `graphs` look these up by name on this module.
"""
import numpy as np

KERNEL_CONSTANT = 0
KERNEL_CUCKER_SMALE = 1


def rhs_velocity(pos, adj, kind, p1, p2):
    """Coupling velocity field of the interaction dynamics, shape (..., n, d).

    velocity_i = (1/n) sum_j a_ij * phi(|x_i - x_j|) * (x_j - x_i), with
    phi = p1 for the constant kernel and p1 / (1 + r^2)^p2 otherwise.
    Leading axes of ``pos`` are independent configurations sharing ``adj``.

    The constant kernel needs no distances: its field is the Laplacian form
    -(p1/n) L x = (p1/n) (A x - deg * x), with deg_i = sum_j a_ij, for any
    adjacency, balanced or not.  It costs one (n, n) @ (n, d) product instead
    of an (n, n, d) difference array.
    """
    return _velocity(adj, kind, p1, p2)(pos)


def _velocity(adj, kind, p1, p2):
    """`rhs_velocity` on one adjacency, as a function of the positions.

    The degree vector of the constant kernel is computed here, once.
    """
    if kind == KERNEL_CONSTANT:
        deg = adj.sum(axis=-1)[:, None]
        return lambda pos: p1 * (adj @ pos - deg * pos) / pos.shape[-2]

    def field(pos):
        diff = pos[..., None, :, :] - pos[..., :, None, :]  # diff[i, j] = x_j - x_i
        r2 = np.einsum("...ijc,...ijc->...ij", diff, diff)
        w = adj * (p1 / (1.0 + r2) ** p2)
        return np.einsum("...ij,...ijc->...ic", w, diff) / pos.shape[-2]
    return field


# rows per block of `scrambling_min`: a block's minima take
# _SCRAMBLING_BLOCK * n * n floats, 2 MB at n = 128, against 16 MB for one
# (n, n, n) broadcast.  8-row blocks measured the same at n = 128.
_SCRAMBLING_BLOCK = 16


def scrambling_min(stack):
    """Minimum over ordered index pairs of the normalized shared-weight sum,
    for every matrix of an (m, n, n) stack; shape (m,).

    The pair sums are symmetric, so each block of rows is compared only
    with the rows at or below it.  Every pair sum is still one contiguous
    last-axis sum of n terms, as in a full (n, n, n) broadcast.
    """
    n = stack.shape[-1]
    out = np.empty(stack.shape[0])
    for k, adj in enumerate(stack):
        out[k] = min(
            np.minimum(adj[lo:lo + _SCRAMBLING_BLOCK, None, :],
                       adj[None, lo:, :]).sum(axis=2).min()
            for lo in range(0, n, _SCRAMBLING_BLOCK))
    return out / n


def rk4_run(x0, pieces, piece_idx, hs, rec, kind, p1, p2):
    """Fixed-step RK4 over a prebuilt step grid; returns recorded states.

    ``x0`` holds states of shape (..., n, d), all stepped on the same grid;
    the result has shape (recorded,) + x0.shape.  ``pieces`` is a sequence of
    (n, n) adjacency matrices, such as a tuple of the signal's piece entries
    or an (m, n, n) stack; ``piece_idx`` assigns one piece per step, ``hs``
    the step sizes and ``rec`` flags which grid points to record.
    """
    out = np.empty((int(np.count_nonzero(rec)),) + x0.shape)
    x = x0.copy()
    r = 0
    if rec[0]:
        out[r] = x
        r += 1
    fields = {}  # piece index -> its velocity, built on the piece's first step
    for s in range(hs.shape[0]):
        h = hs[s]
        p = piece_idx[s]
        if p not in fields:
            fields[p] = _velocity(pieces[p], kind, p1, p2)
        f = fields[p]
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if rec[s + 1]:
            out[r] = x
            r += 1
    return out
