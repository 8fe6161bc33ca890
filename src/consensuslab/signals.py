"""Time-varying interaction topologies as piecewise-constant signals.

A signal holds adjacency pieces on consecutive intervals and either repeats
periodically or clamps its last piece.  Window averages are computed exactly
from cached cumulative integrals, and persistence of the scrambling
coefficient / algebraic connectivity over sliding windows is certified
exactly by evaluating only critical window starts: the averaged matrix is
piecewise-affine in the start time and both metrics are concave, so segment
minima sit at segment endpoints.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HorizonUncovered, UnbalancedGraph
from .graphs import (
    BALANCE_TOL,
    AdjacencyMatrix,
    algebraic_connectivity,
    is_balanced,
    scrambling,
)

PERIODIC = "periodic"
CLAMPED = "clamped"

_TIME_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PiecewiseConstantSignal:
    """Adjacency pieces on [t_{k-1}, t_k); periodic repeat or clamped tail."""

    n: int
    breakpoints: np.ndarray
    pieces: tuple
    mode: str

    def __post_init__(self):
        bp = np.array(self.breakpoints, dtype=np.float64)
        bp.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if self.mode not in (PERIODIC, CLAMPED):
            raise ValueError(f"mode must be '{PERIODIC}' or '{CLAMPED}'")
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if bp[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.pieces) != bp.size - 1:
            raise ValueError("piece count must equal breakpoint count - 1")
        for piece in self.pieces:
            if not isinstance(piece, AdjacencyMatrix):
                raise TypeError("pieces must be AdjacencyMatrix values")
            if piece.n != self.n:
                raise ValueError("all pieces must share the signal's agent count")

    @property
    def period(self) -> float:
        return float(self.breakpoints[-1])

    @cached_property
    def piece_stack(self) -> np.ndarray:
        stack = np.stack([p.entries for p in self.pieces])
        stack.setflags(write=False)
        return stack

    @cached_property
    def _cumulative(self) -> np.ndarray:
        # _cumulative[k] = integral of the signal over [0, breakpoints[k]]
        durations = np.diff(self.breakpoints)
        chunks = durations[:, None, None] * self.piece_stack
        cum = np.zeros((len(self.pieces) + 1, self.n, self.n))
        np.cumsum(chunks, axis=0, out=cum[1:])
        cum.setflags(write=False)
        return cum

    def piece_index_at(self, t: float) -> int:
        """Index of the piece active at time t >= 0 (right-continuous)."""
        if t < 0:
            raise ValueError("t must be >= 0")
        bp = self.breakpoints
        if self.mode == PERIODIC:
            t = float(np.fmod(t, self.period))
        elif t >= bp[-1]:
            return len(self.pieces) - 1
        idx = int(np.searchsorted(bp, t, side="right")) - 1
        return min(max(idx, 0), len(self.pieces) - 1)

    def _integral_to(self, t: float) -> np.ndarray:
        """Entrywise integral of the signal over [0, t]."""
        bp = self.breakpoints
        cum = self._cumulative
        if self.mode == PERIODIC:
            laps, rem = divmod(t, self.period)
            total = laps * cum[-1]
        else:
            total = 0.0
            rem = t
            if rem > bp[-1]:
                total = (rem - bp[-1]) * self.piece_stack[-1]
                rem = bp[-1]
        idx = min(max(int(np.searchsorted(bp, rem, side="right")) - 1, 0),
                  len(self.pieces) - 1)
        return total + cum[idx] + (rem - bp[idx]) * self.piece_stack[idx]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "breakpoints": self.breakpoints.tolist(),
            "pieces": [p.to_json_dict() for p in self.pieces],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PiecewiseConstantSignal":
        pieces = tuple(AdjacencyMatrix.from_json_dict(p) for p in data["pieces"])
        return cls(int(data["n"]), np.asarray(data["breakpoints"], dtype=np.float64),
                   pieces, data["mode"])


@dataclass(frozen=True)
class Window:
    """Sliding-window parameters: length tau > 0 and threshold mu in (0, 1]."""

    tau: float
    mu: float

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be > 0")
        if not 0 < self.mu <= 1:
            raise ValueError("mu must lie in (0, 1]")


@dataclass(frozen=True)
class PersistenceReport:
    """Result of certifying a windowed graph metric over all window starts."""

    kind: str
    window: Window
    infimum_value: float
    worst_start: float
    passes: bool
    checked_starts: int

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "window": {"tau": self.window.tau, "mu": self.window.mu},
            "infimum_value": self.infimum_value,
            "worst_start": self.worst_start,
            "passes": self.passes,
            "checked_starts": self.checked_starts,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PersistenceReport":
        return cls(
            kind=data["kind"],
            window=Window(data["window"]["tau"], data["window"]["mu"]),
            infimum_value=float(data["infimum_value"]),
            worst_start=float(data["worst_start"]),
            passes=bool(data["passes"]),
            checked_starts=int(data["checked_starts"]),
        )


def evaluate(sig: PiecewiseConstantSignal, t: float) -> AdjacencyMatrix:
    """Active piece at time t (periodic wrap or clamp); right-continuous."""
    return sig.pieces[sig.piece_index_at(t)]


def window_average(sig: PiecewiseConstantSignal, t: float, tau: float) -> AdjacencyMatrix:
    """Exact entrywise value of (1/tau) * integral of A over [t, t+tau]."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if not tau > 0:
        raise ValueError("tau must be > 0")
    avg = (sig._integral_to(t + tau) - sig._integral_to(t)) / tau
    np.clip(avg, 0.0, 1.0, out=avg)
    np.fill_diagonal(avg, 1.0)
    return AdjacencyMatrix(sig.n, avg)


def window_average_batch(sig: PiecewiseConstantSignal, starts, tau: float) -> np.ndarray:
    """Vectorized window averages for many start times; shape (len(starts), n, n).

    Same exact integration as `window_average`, convenient for dense scans.
    """
    starts = np.asarray(starts, dtype=np.float64)
    if not tau > 0:
        raise ValueError("tau must be > 0")

    bp = sig.breakpoints
    cum = sig._cumulative
    stack = sig.piece_stack
    m = len(sig.pieces)

    def integrals(ts):
        if sig.mode == PERIODIC:
            laps = np.floor(ts / sig.period)
            rem = ts - laps * sig.period
            total = laps[:, None, None] * cum[-1]
        else:
            over = np.maximum(ts - bp[-1], 0.0)
            rem = np.minimum(ts, bp[-1])
            total = over[:, None, None] * stack[-1]
        idx = np.clip(np.searchsorted(bp, rem, side="right") - 1, 0, m - 1)
        return total + cum[idx] + (rem - bp[idx])[:, None, None] * stack[idx]

    avg = (integrals(starts + tau) - integrals(starts)) / tau
    np.clip(avg, 0.0, 1.0, out=avg)
    ii = np.arange(sig.n)
    avg[:, ii, ii] = 1.0
    return avg


def _critical_starts(sig, tau, horizon):
    """Window starts where the averaged matrix can attain its infimum.

    These are the kink locations of t -> (1/tau) * integral over [t, t+tau]:
    every start where t or t+tau crosses a breakpoint, plus the endpoints of
    the scanned interval [0, horizon].  In periodic mode the kinks repeat with
    the period, so a horizon of at least one period is scanned as [0, period].
    """
    bp = sig.breakpoints
    if sig.mode == PERIODIC:
        period = sig.period
        kinks = np.concatenate([np.mod(bp, period), np.mod(bp - tau, period)])
        horizon = min(horizon, period)
    else:
        if bp[-1] + _TIME_TOL < horizon + tau:
            raise HorizonUncovered(
                f"clamped signal covers [0, {bp[-1]}] but certification needs "
                f"[0, {horizon + tau}]"
            )
        kinks = np.concatenate([bp, bp - tau])
    cands = np.concatenate([kinks, [0.0, horizon]])
    cands = cands[(cands >= 0.0) & (cands <= horizon + _TIME_TOL)]
    cands = np.sort(np.minimum(cands, horizon))
    keep = np.concatenate([[True], np.diff(cands) > _TIME_TOL])
    return cands[keep]


def _certify(sig, window, horizon, metric, kind):
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    starts = _critical_starts(sig, window.tau, horizon)
    values = np.array([metric(window_average(sig, float(t), window.tau))
                       for t in starts])
    worst = int(np.argmin(values))
    infimum = float(values[worst])
    return PersistenceReport(
        kind=kind,
        window=window,
        infimum_value=infimum,
        worst_start=float(starts[worst]),
        passes=bool(infimum >= window.mu),
        checked_starts=len(starts),
    )


def certify_eta(sig: PiecewiseConstantSignal, window: Window,
                horizon: float) -> PersistenceReport:
    """Exact infimum over window starts of the scrambling coefficient of the
    windowed average; passes iff the infimum reaches window.mu.
    """
    return _certify(sig, window, horizon, scrambling, "scrambling")


def certify_lambda2(sig: PiecewiseConstantSignal, window: Window,
                    horizon: float) -> PersistenceReport:
    """Exact infimum over window starts of the algebraic connectivity of the
    windowed average.  Every piece must be balanced; averaging adjacencies
    commutes with taking Laplacians, so this certifies the averaged Laplacian.
    """
    for k, piece in enumerate(sig.pieces):
        if not is_balanced(piece, BALANCE_TOL):
            raise UnbalancedGraph(f"signal piece {k} is not balanced")
    return _certify(sig, window, horizon, algebraic_connectivity, "connectivity")


def gen_rotating_star(n: int, dwell: float, seed=None) -> PiecewiseConstantSignal:
    """Periodic signal cycling a symmetric star through every center.

    Piece k (length `dwell`) is the star centered at agent k: every snapshot
    is a single hub, while the period average couples every agent pair.
    Deterministic; `seed` is accepted for interface uniformity and unused.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not dwell > 0:
        raise ValueError("dwell must be > 0")
    pieces = tuple(AdjacencyMatrix.star(n, k) for k in range(n))
    breakpoints = dwell * np.arange(n + 1, dtype=np.float64)
    return PiecewiseConstantSignal(n, breakpoints, pieces, PERIODIC)


def _round_robin_rounds(n):
    # circle method: fix player n-1, rotate the rest
    rounds = []
    for r in range(n - 1):
        pairs = [(n - 1, r)]
        for i in range(1, n // 2):
            pairs.append(((r + i) % (n - 1), (r - i) % (n - 1)))
        rounds.append(pairs)
    return rounds


def gen_blinking_pairs(n: int, dwell: float, duty: float,
                       seed=None) -> PiecewiseConstantSignal:
    """Periodic round-robin perfect matchings, on for duty*dwell per dwell.

    Each dwell slot shows one matching of the round-robin schedule, active
    for the first duty fraction and replaced by the identity adjacency for
    the rest.  All pieces are symmetric, hence balanced.  Deterministic;
    `seed` is accepted for interface uniformity and unused.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be an even integer >= 2")
    if not dwell > 0:
        raise ValueError("dwell must be > 0")
    if not 0 < duty <= 1:
        raise ValueError("duty must lie in (0, 1]")
    rounds = _round_robin_rounds(n) if n > 2 else [[(1, 0)]]
    identity = AdjacencyMatrix.identity(n)
    pieces = []
    breakpoints = [0.0]
    for r, pairs in enumerate(rounds):
        entries = np.eye(n)
        for i, j in pairs:
            entries[i, j] = 1.0
            entries[j, i] = 1.0
        pieces.append(AdjacencyMatrix(n, entries))
        if duty < 1:
            breakpoints.append(r * dwell + duty * dwell)
            pieces.append(identity)
        breakpoints.append((r + 1) * dwell)
    return PiecewiseConstantSignal(n, np.asarray(breakpoints), tuple(pieces),
                                   PERIODIC)
