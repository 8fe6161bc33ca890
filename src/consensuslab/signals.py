"""Time-varying interaction topologies as piecewise-constant signals.

A signal holds adjacency pieces on consecutive intervals and either repeats
periodically or clamps its last piece.  `PiecewiseConstantSignal` is the one
place that maps time onto a signal (wrap or clamp, piece lookup, piece starts
and exact integrals from cached cumulative sums), vectorized over times.
Persistence of the scrambling coefficient / algebraic connectivity over
sliding windows is certified exactly by evaluating only critical window
starts: the averaged matrix is piecewise-affine in the start time and both
metrics are concave, so segment minima sit at segment endpoints.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import scrambling_min
from .errors import HorizonUncovered, UnbalancedGraph
from .graphs import AdjacencyMatrix, algebraic_connectivity_unchecked, unbalanced

PERIODIC = "periodic"
CLAMPED = "clamped"

_TIME_TOL = 1e-12

# floats in one chunk of the (starts, n, n) window averages that `_certify`
# builds and hands to one batched metric call.  128 KB stays in cache:
# certifying both metrics over all 63 critical starts of blinking pairs at
# n=32 as one 2^20-float chunk instead took 0.016-0.019 s against
# 0.011-0.014 s (medians of 30) and raised the peak RSS by 1.7 MB (2 CPUs,
# BLAS on one thread)
_CHUNK_FLOATS = 1 << 14


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
    def unbalanced_pieces(self) -> tuple:
        """Indices of the pieces that fail `graphs.unbalanced`'s check."""
        return tuple(np.flatnonzero(unbalanced(self.piece_stack)).tolist())

    def require_balanced(self) -> None:
        """Raise UnbalancedGraph naming the first unbalanced piece, if any."""
        if self.unbalanced_pieces:
            raise UnbalancedGraph(
                f"signal piece {self.unbalanced_pieces[0]} is not balanced")

    @cached_property
    def _cumulative(self) -> np.ndarray:
        # _cumulative[k] = integral of the signal over [0, breakpoints[k]]
        durations = np.diff(self.breakpoints)
        chunks = durations[:, None, None] * self.piece_stack
        cum = np.zeros((len(self.pieces) + 1, self.n, self.n))
        np.cumsum(chunks, axis=0, out=cum[1:])
        cum.setflags(write=False)
        return cum

    def _locate(self, ts):
        """Split times t >= 0 (scalar or array) into (lead, rem, idx).

        Piece idx is active at time rem in [0, period].  `lead` counts whole
        periods (periodic) or the time past the last breakpoint (clamped), so
        the integral over [0, t] is lead * (integral per unit of lead) plus the
        integral over [0, rem].
        """
        bp = self.breakpoints
        if self.mode == PERIODIC:
            lead, rem = np.divmod(ts, self.period)
        else:
            rem = np.minimum(ts, bp[-1])
            lead = ts - rem
        idx = np.clip(np.searchsorted(bp, rem, side="right") - 1,
                      0, len(self.pieces) - 1)
        return lead, rem, idx

    def piece_index_at(self, t: float) -> int:
        """Index of the piece active at time t >= 0 (right-continuous)."""
        if t < 0:
            raise ValueError("t must be >= 0")
        return int(self._locate(t)[2])

    def piece_starts(self, t_end: float):
        """(times, piece indices) of every piece start inside [0, t_end).

        Periodic signals repeat their starts every period; a clamped signal
        starts each piece once.
        """
        bp = self.breakpoints[:-1]
        laps = int(t_end // self.period) + 2 if self.mode == PERIODIC else 1
        times = ((np.arange(laps) * self.period)[:, None] + bp).ravel()
        pieces = np.tile(np.arange(bp.size), laps)
        keep = times < t_end
        return times[keep], pieces[keep]

    def _integrals(self, ts) -> np.ndarray:
        """Entrywise integral of the signal over [0, t] for every t in the
        1-d array ts >= 0; shape (len(ts), n, n)."""
        lead, rem, idx = self._locate(ts)
        stack = self.piece_stack
        per_lead = self._cumulative[-1] if self.mode == PERIODIC else stack[-1]
        return (lead[:, None, None] * per_lead + self._cumulative[idx]
                + (rem - self.breakpoints[idx])[:, None, None] * stack[idx])

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
    return AdjacencyMatrix(sig.n, window_average_batch(sig, [t], tau)[0])


def window_average_batch(sig: PiecewiseConstantSignal, starts, tau: float) -> np.ndarray:
    """Window averages for many start times t >= 0; shape (len(starts), n, n).

    Each is the exact (1/tau) * integral of A over [t, t+tau], clipped to
    [0, 1] against roundoff, with a unit diagonal.
    """
    starts = np.asarray(starts, dtype=np.float64)
    if np.any(starts < 0):
        raise ValueError("t must be >= 0")
    if not tau > 0:
        raise ValueError("tau must be > 0")
    avg = (sig._integrals(starts + tau) - sig._integrals(starts)) / tau
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
    step = max(1, _CHUNK_FLOATS // sig.n**2)
    values = np.empty(len(starts))
    for lo in range(0, len(starts), step):
        values[lo:lo + step] = metric(
            window_average_batch(sig, starts[lo:lo + step], window.tau))
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
    return _certify(sig, window, horizon, scrambling_min, "scrambling")


def certify_lambda2(sig: PiecewiseConstantSignal, window: Window,
                    horizon: float) -> PersistenceReport:
    """Exact infimum over window starts of the algebraic connectivity of the
    windowed average.  Every piece must be balanced; averaging adjacencies
    commutes with taking Laplacians, so this certifies the averaged Laplacian.
    Only the pieces are checked: a window average is a convex combination of
    them, so its degree gap is at most theirs, up to rounding.
    """
    sig.require_balanced()
    return _certify(sig, window, horizon, algebraic_connectivity_unchecked,
                    "connectivity")


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
