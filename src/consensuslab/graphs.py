"""Static graph quantities for weighted interaction digraphs.

Adjacency matrices carry weights in [0, 1] with unit diagonal.  The module
computes the scrambling coefficient, degree vectors, the balance test, the
normalized Laplacian (D - A)/n, the algebraic connectivity of balanced
graphs, pairwise squared distances and the Dirichlet energy of a
configuration.  The balance test, the algebraic connectivity and the Dirichlet
energy also take stacks of entries; the single-matrix forms are batches of one.
"""
from __future__ import annotations

import functools

import numpy as np

from . import _kernels
from ._kernels import Record
from .errors import DimensionMismatch, UnbalancedGraph

BALANCE_TOL = 1e-9
_ENTRY_TOL = 1e-12


def _as_readonly(arr):
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


def _in_unit_range(arr) -> bool:
    # NaN and inf fail min/max, so no mask is built
    return bool(arr.min() >= -_ENTRY_TOL and arr.max() <= 1.0 + _ENTRY_TOL)


def check_entries(entries) -> None:
    """Raise ValueError unless each (n, n) matrix of `entries` has weights in
    [0, 1] and a unit diagonal.

    A broadcast view, such as a rotating star's n shifts of one hub, holds
    more entries than the float64 array under it.  When the view and that
    array are both aligned, every entry is one of the array's values: the
    range is tested on the smaller array first, and on the entries
    themselves only if it fails there.  (Either one unaligned, an entry can
    read the bytes of two of the array's values.)
    """
    base = entries.base
    if not (isinstance(base, np.ndarray)
            and base.dtype == entries.dtype == np.float64
            and base.size < entries.size
            and base.flags.aligned and entries.flags.aligned
            and _in_unit_range(base)) and not _in_unit_range(entries):
        raise ValueError("entries must be finite and lie in [0, 1]")
    diag = np.diagonal(entries, 0, -2, -1)
    if not (diag.min() >= 1.0 - _ENTRY_TOL and diag.max() <= 1.0 + _ENTRY_TOL):
        raise ValueError("diagonal entries must equal 1")


class AdjacencyMatrix(Record):
    """n x n interaction weights; entry (i, j) is the influence of j on i.
    Matrices compare equal by their entries and are not hashable."""

    _fields = ("n", "entries")

    def __init__(self, n: int, entries):
        entries = _as_readonly(entries)
        if n < 1:
            raise ValueError("agent count must be >= 1")
        if entries.shape != (n, n):
            raise ValueError(f"entries must be {n}x{n}, got {entries.shape}")
        check_entries(entries)
        vars(self).update(n=n, entries=entries)

    @classmethod
    def _view(cls, entries) -> "AdjacencyMatrix":
        """Wrap a checked, read-only (n, n) float64 array without a copy."""
        adj = object.__new__(cls)
        vars(adj).update(n=entries.shape[-1], entries=entries)
        return adj

    @classmethod
    def from_entries(cls, entries) -> "AdjacencyMatrix":
        entries = np.asarray(entries, dtype=np.float64)
        return cls(entries.shape[0], entries)

    @classmethod
    def ones(cls, n: int) -> "AdjacencyMatrix":
        return cls(n, np.ones((n, n)))

    @classmethod
    def identity(cls, n: int) -> "AdjacencyMatrix":
        return cls(n, np.eye(n))

    @classmethod
    def star(cls, n: int, center: int) -> "AdjacencyMatrix":
        """Symmetric star: unit diagonal plus full row/column at `center`."""
        entries = np.eye(n)
        entries[center, :] = 1.0
        entries[:, center] = 1.0
        return cls(n, entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AdjacencyMatrix):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.entries, other.entries)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "entries": self.entries.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "AdjacencyMatrix":
        return cls(int(data["n"]), np.asarray(data["entries"], dtype=np.float64))


class LaplacianMatrix(Record):
    """Normalized Laplacian (D - A)/n with its out-degree vector."""

    _fields = ("n", "entries")  # the repr leaves out the degrees

    def __init__(self, n: int, entries, degrees):
        vars(self).update(n=n, entries=_as_readonly(entries),
                          degrees=_as_readonly(degrees))


def scrambling(adj: AdjacencyMatrix) -> float:
    """Scrambling coefficient: min over ordered pairs (i, j), i = j included,
    of (1/n) * sum_k min(a_ik, a_jk).
    """
    return float(_kernels.scrambling_min(adj.entries[None])[0])


def degrees(adj: AdjacencyMatrix):
    """(in_degrees, out_degrees): column sums and row sums, diagonal included."""
    out_deg = adj.entries.sum(axis=1)
    in_deg = adj.entries.sum(axis=0)
    return in_deg, out_deg


def unbalanced(stack, tol: float = BALANCE_TOL) -> np.ndarray:
    """Mask over an (m, n, n) stack of adjacency entries, shape (m,): True
    where some agent's in-degree and out-degree differ by more than tol."""
    if not tol >= 0:  # NaN too
        raise ValueError("tol must be >= 0")
    gap = np.abs(stack.sum(axis=-2) - stack.sum(axis=-1)).max(axis=-1)
    return ~(gap <= tol)


def is_balanced(adj: AdjacencyMatrix, tol: float = BALANCE_TOL) -> bool:
    """True iff every agent's in-degree matches its out-degree within tol."""
    return not unbalanced(adj.entries[None], tol)[0]


def _laplacians(stack):
    """(entries, out-degrees) of (diag(out_degrees) - A)/n for every matrix
    of an (m, n, n) stack."""
    n = stack.shape[-1]
    out_deg = stack.sum(axis=-1)
    return (out_deg[..., None] * np.eye(n) - stack) / n, out_deg


def laplacian(adj: AdjacencyMatrix) -> LaplacianMatrix:
    """Normalized Laplacian (diag(out_degrees) - A)/n; rows sum to zero."""
    entries, out_deg = _laplacians(adj.entries[None])
    return LaplacianMatrix(adj.n, entries[0], out_deg[0])


def algebraic_connectivity_unchecked(stack) -> np.ndarray:
    """`algebraic_connectivity` of every matrix of an (m, n, n) stack of
    adjacency entries known to be balanced; shape (m,).  Certification
    calls it without a check: its window averages are convex combinations
    of checked pieces, whose degree gaps bound theirs up to rounding.

    The symmetric parts of the Laplacians are restricted to the orthogonal
    complement of the constants by the Householder reflection sending
    ones/sqrt(n) to the first basis vector (dropping the first row and
    column), and go to LAPACK's symmetric eigensolver
    (`numpy.linalg.eigvalsh`), which raises instead of returning an
    unconverged value.  Tiny negative roundoff is clamped to 0.
    """
    n = stack.shape[-1]
    if n == 1:
        return np.zeros(stack.shape[0])
    lap, _ = _laplacians(stack)
    sym = 0.5 * (lap + lap.swapaxes(-1, -2))
    v = np.full(n, 1.0 / np.sqrt(n))
    v[0] -= 1.0
    h = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
    lams = np.linalg.eigvalsh((h @ sym @ h)[:, 1:, 1:])[:, 0]
    return np.maximum(lams, 0.0)


def algebraic_connectivity(adj: AdjacencyMatrix) -> float:
    """Smallest eigenvalue of the symmetric part of the Laplacian on the
    complement of the constant vector; defined for balanced graphs only.

    A batch of one through `algebraic_connectivity_unchecked`, after
    `is_balanced`; raises UnbalancedGraph when that check fails.
    """
    if not is_balanced(adj):
        raise UnbalancedGraph(
            f"algebraic connectivity requires a balanced graph (tol={BALANCE_TOL})"
        )
    return float(algebraic_connectivity_unchecked(adj.entries[None])[0])


@functools.cache
def pair_indices(n) -> np.ndarray:
    """The rows i, j of `np.triu_indices(n, 1)`, built once per n, read-only."""
    pairs = np.array(np.triu_indices(n, 1))
    pairs.setflags(write=False)
    return pairs


def pair_squared_distances(positions) -> np.ndarray:
    """|x_i - x_j|^2 over the `pair_indices` pairs i < j of (..., n, d)
    positions; shape (..., n(n-1)/2).  Gathered with `np.take`, the result
    is C-ordered, the pairs of each sample contiguous whatever the sample
    count."""
    i, j = pair_indices(positions.shape[-2])
    diff = np.take(positions, i, -2)
    diff -= np.take(positions, j, -2)
    return np.einsum("...pc,...pc->...p", diff, diff)


def dirichlet_energies(entries, positions) -> np.ndarray:
    """(1/(2 n^2)) * sum_ij a_ij |x_i - x_j|^2 of (..., n, n) entries and
    (..., n, d) positions, over the pairs i < j; shape (...)."""
    n = entries.shape[-1]
    i, j = pair_indices(n)
    # `take` along the flat last axis gathers faster than [..., i, j]
    flat = entries.reshape(*entries.shape[:-2], n * n)
    weights = np.take(flat, i * n + j, -1) + np.take(flat, j * n + i, -1)
    terms = weights * pair_squared_distances(positions)
    return terms.sum(axis=-1) / (2.0 * n**2)


def dirichlet_energy(adj: AdjacencyMatrix, x) -> float:
    """`dirichlet_energies` of one adjacency and one Configuration x."""
    pos = np.asarray(x.positions, dtype=np.float64)
    if pos.shape[0] != adj.n:
        raise DimensionMismatch(
            f"adjacency has n={adj.n} but configuration has n={pos.shape[0]}"
        )
    return float(dirichlet_energies(adj.entries, pos))
