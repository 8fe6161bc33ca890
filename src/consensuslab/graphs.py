"""Static graph quantities for weighted interaction digraphs.

Adjacency matrices carry weights in [0, 1] with unit diagonal.  The module
computes the scrambling coefficient, degree vectors, the balance test, the
normalized Laplacian (D - A)/n, the algebraic connectivity of balanced
graphs, pairwise squared distances and the Dirichlet energy of a
configuration.  The balance test and the algebraic connectivity also take
(m, n, n) stacks of entries; the single-matrix forms are batches of one.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DimensionMismatch, UnbalancedGraph

BALANCE_TOL = 1e-9
_ENTRY_TOL = 1e-12


def _as_readonly(arr):
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """n x n interaction weights; entry (i, j) is the influence of j on i."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        entries = _as_readonly(self.entries)
        object.__setattr__(self, "entries", entries)
        if self.n < 1:
            raise ValueError("agent count must be >= 1")
        if entries.shape != (self.n, self.n):
            raise ValueError(f"entries must be {self.n}x{self.n}, got {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        if entries.min() < -_ENTRY_TOL or entries.max() > 1.0 + _ENTRY_TOL:
            raise ValueError("entries must lie in [0, 1]")
        if np.abs(np.diag(entries) - 1.0).max() > _ENTRY_TOL:
            raise ValueError("diagonal entries must equal 1")

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


@dataclass(frozen=True, eq=False)
class LaplacianMatrix:
    """Normalized Laplacian (D - A)/n with its out-degree vector."""

    n: int
    entries: np.ndarray
    degrees: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_readonly(self.entries))
        object.__setattr__(self, "degrees", _as_readonly(self.degrees))


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
    if tol < 0:
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


def algebraic_connectivity_batch(stack) -> np.ndarray:
    """`algebraic_connectivity` of every matrix of an (m, n, n) stack of
    adjacency entries; shape (m,).  Raises UnbalancedGraph when a matrix
    fails the balance check.  Certification skips it: its window averages
    are convex combinations of checked pieces, whose degree gaps bound
    theirs up to rounding.
    """
    if unbalanced(stack).any():
        raise UnbalancedGraph(
            f"algebraic connectivity requires a balanced graph (tol={BALANCE_TOL})"
        )
    return algebraic_connectivity_unchecked(stack)


def algebraic_connectivity_unchecked(stack) -> np.ndarray:
    """`algebraic_connectivity_batch` of a stack known to be balanced.

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

    A batch of one through `algebraic_connectivity_batch`.
    Raises UnbalancedGraph when the balance check fails.
    """
    return float(algebraic_connectivity_batch(adj.entries[None])[0])


def squared_distances(positions) -> np.ndarray:
    """|x_i - x_j|^2 for (..., n, d) positions; shape (..., n, n)."""
    diff = positions[..., :, None, :] - positions[..., None, :, :]
    return np.einsum("...ijc,...ijc->...ij", diff, diff)


def dirichlet_energy(adj: AdjacencyMatrix, x) -> float:
    """(1/(2 n^2)) * sum_ij a_ij |x_i - x_j|^2 for a Configuration x."""
    pos = np.asarray(x.positions, dtype=np.float64)
    if pos.shape[0] != adj.n:
        raise DimensionMismatch(
            f"adjacency has n={adj.n} but configuration has n={pos.shape[0]}"
        )
    return float((adj.entries * squared_distances(pos)).sum() / (2.0 * adj.n**2))
