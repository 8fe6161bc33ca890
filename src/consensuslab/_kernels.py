"""Communication kernels and the hot numeric kernels, vectorized with numpy.

Callers reach `rk4_run` through this module (`_kernels.rk4_run`) at call
time, and its step sizes stay its 4th positional argument: the pipeline
benchmark wraps the module attribute and counts steps from that argument.

The integrator steps its states coordinate-major, shape (..., d, n): batch
axes outermost, agents innermost, so every elementwise op and every
reduction runs its inner loop over the agents (or the agent pairs), not
over the d = 2 or 3 coordinates.  At sweep sizes (n = 5, d = 2) a step costs
numpy's overhead per call, not arithmetic, and an inner loop of two
elements pays that overhead for almost no work.  `rhs_velocity` keeps the
public (..., n, d) layout by swapping axes at its boundary.
"""
from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class Constant:
    """Constant communication kernel phi(r) = c > 0."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("c must be > 0")


@dataclass(frozen=True)
class CuckerSmale:
    """Decreasing communication kernel phi(r) = K / (1 + r^2)^beta."""

    K: float
    beta: float

    def __post_init__(self):
        if not self.K > 0:
            raise ValueError("K must be > 0")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")


Kernel = Union[Constant, CuckerSmale]


def rhs_velocity(pos, adj, kernel: Kernel):
    """Coupling velocity field of the interaction dynamics, shape (..., n, d).

    velocity_i = (1/n) sum_j a_ij * phi(|x_i - x_j|) * (x_j - x_i), with phi
    the communication kernel.  Leading axes of ``pos`` are independent
    configurations sharing ``adj``.

    The constant kernel needs no distances: its field is the Laplacian form
    -(c/n) L x = (c/n) (A x - deg * x), with deg_i = sum_j a_ij, for any
    adjacency, balanced or not.  It costs one (d, n) @ (n, n) product per
    configuration instead of a difference array.

    ``pos`` is copied into the integrator's (..., d, n) layout, so the field
    is bitwise the one `rk4_run` evaluates; the result is a (..., n, d) view.
    """
    x = np.swapaxes(pos, -1, -2).copy()
    return np.swapaxes(_velocity(adj, kernel)(x), -1, -2)


def _velocity(adj, kernel):
    """`rhs_velocity` on one adjacency, as a function of coordinate-major
    positions of shape (..., d, n); the velocity has the same shape.

    The degree vector of the constant kernel is computed here, once.
    """
    if isinstance(kernel, Constant):
        deg = adj.sum(axis=-1)
        # (x @ A^T)[c, i] = sum_j a_ij x[c, j].  A view, not a copy: BLAS then
        # runs the product the (n, d) layout ran, bit for bit
        adj_t = adj.T
        return lambda pos: kernel.c * (pos @ adj_t - deg * pos) / pos.shape[-1]

    def field(pos):
        diff = pos[..., None, :] - pos[..., :, None]  # diff[c, i, j] = x_j - x_i
        r2 = np.einsum("...cij,...cij->...ij", diff, diff)
        w = adj * (kernel.K / (1.0 + r2) ** kernel.beta)
        return np.einsum("...ij,...cij->...ci", w, diff) / pos.shape[-1]
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


def rk4_run(x0, pieces, piece_idx, hs, rec, kernel: Kernel):
    """Fixed-step RK4 over a prebuilt step grid; returns recorded states.

    ``x0`` holds states of shape (..., n, d), all stepped on the same grid;
    the result is a C-contiguous array of shape (recorded,) + x0.shape, and
    ``x0`` is left as it is.  ``pieces`` is a sequence of (n, n) adjacency
    matrices, such as a tuple of the signal's piece entries or an (m, n, n)
    stack; ``piece_idx`` assigns one piece per step, ``hs`` the step sizes,
    ``rec`` flags which grid points to record and ``kernel`` is phi.

    The states are stepped as one (..., d, n) copy (see the module
    docstring) and written back transposed at each recorded point.  An
    overflow or an invalid operation raises FloatingPointError at the step
    that produced it, instead of warning and stepping on to the end; only
    einsum's reductions overflow to inf without a report.
    """
    out = np.empty((int(np.count_nonzero(rec)),) + x0.shape)
    x = np.swapaxes(x0, -1, -2).copy()
    r = 0
    if rec[0]:
        out[r] = x0
        r += 1
    fields = {}  # piece index -> its velocity, built on the piece's first step
    with np.errstate(over="raise", invalid="raise"):
        for s in range(hs.shape[0]):
            h = hs[s]
            p = piece_idx[s]
            if p not in fields:
                fields[p] = _velocity(pieces[p], kernel)
            f = fields[p]
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if rec[s + 1]:
                out[r] = np.swapaxes(x, -1, -2)
                r += 1
    return out
