"""Static graph quantities for weighted interaction digraphs.

Adjacency matrices carry weights in [0, 1] with unit diagonal.  The module
computes the scrambling coefficient, degree vectors, the balance test, the
normalized Laplacian (D - A)/n, the algebraic connectivity of balanced
graphs and the Dirichlet energy of a configuration.
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
    return _kernels.scrambling_min(adj.entries)


def degrees(adj: AdjacencyMatrix):
    """(in_degrees, out_degrees): column sums and row sums, diagonal included."""
    out_deg = adj.entries.sum(axis=1)
    in_deg = adj.entries.sum(axis=0)
    return in_deg, out_deg


def is_balanced(adj: AdjacencyMatrix, tol: float = BALANCE_TOL) -> bool:
    """True iff every agent's in-degree matches its out-degree within tol."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    in_deg, out_deg = degrees(adj)
    return bool(np.abs(in_deg - out_deg).max() <= tol)


def laplacian(adj: AdjacencyMatrix) -> LaplacianMatrix:
    """Normalized Laplacian (diag(out_degrees) - A)/n; rows sum to zero."""
    _, out_deg = degrees(adj)
    entries = (np.diag(out_deg) - adj.entries) / adj.n
    return LaplacianMatrix(adj.n, entries, out_deg)


def _project_off_constants(sym: np.ndarray) -> np.ndarray:
    """Restrict a symmetric matrix to the orthogonal complement of constants.

    Uses the Householder reflection sending ones/sqrt(n) to the first basis
    vector, then drops the first row and column.
    """
    n = sym.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n))
    v[0] -= 1.0
    h = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
    return (h @ sym @ h)[1:, 1:]


def algebraic_connectivity(adj: AdjacencyMatrix, tol: float = BALANCE_TOL) -> float:
    """Smallest eigenvalue of the symmetric part of the Laplacian on the
    complement of the constant vector; defined for balanced graphs only.

    The projected matrix goes to LAPACK's symmetric eigensolver
    (`numpy.linalg.eigvalsh`), which raises instead of returning an
    unconverged value.  Tiny negative roundoff (>= -tol) is clamped to 0.
    Raises UnbalancedGraph when the balance check fails.
    """
    if not is_balanced(adj, tol):
        raise UnbalancedGraph(
            f"algebraic connectivity requires a balanced graph (tol={tol})"
        )
    if adj.n == 1:
        return 0.0
    lap = laplacian(adj).entries
    sym = 0.5 * (lap + lap.T)
    lam = float(np.linalg.eigvalsh(_project_off_constants(sym))[0])
    return max(lam, 0.0)


def dirichlet_energy(adj: AdjacencyMatrix, x) -> float:
    """(1/(2 n^2)) * sum_ij a_ij |x_i - x_j|^2 for a Configuration x."""
    pos = np.asarray(x.positions, dtype=np.float64)
    if pos.shape[0] != adj.n:
        raise DimensionMismatch(
            f"adjacency has n={adj.n} but configuration has n={pos.shape[0]}"
        )
    diff = pos[:, None, :] - pos[None, :, :]
    sq = np.einsum("ijc,ijc->ij", diff, diff)
    return float((adj.entries * sq).sum() / (2.0 * adj.n**2))
