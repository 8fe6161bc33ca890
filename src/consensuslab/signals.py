"""Time-varying interaction topologies as piecewise-constant signals.

A signal holds adjacency pieces on consecutive intervals and either repeats
periodically or clamps its last piece.  It holds its pieces once, in one
read-only (m, n, n) stack read by the integrator, certifier and analysis.
`PiecewiseConstantSignal` is the one place that maps time onto a signal
(wrap or clamp, piece starts, the one piece lookup `pieces_at` and exact
integrals from cached cumulative sums), vectorized over times.
Persistence of the scrambling coefficient / algebraic connectivity over
sliding windows is certified exactly by evaluating only critical window
starts: the averaged matrix is piecewise-affine in the start time and both
metrics are concave, so segment minima sit at segment endpoints.  Both
metrics are functions of the same window averages, so `certify` takes every
requested kind in one pass: each chunk of averages is built once and fed to
the metric of every kind.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from ._kernels import Record, ValueRecord, chunk_slices, scrambling_min
from .errors import HorizonUncovered, UnbalancedGraph
from .graphs import (AdjacencyMatrix, algebraic_connectivity_unchecked,
                     check_entries, unbalanced)

PERIODIC = "periodic"
CLAMPED = "clamped"

_TIME_TOL = 1e-12  # of a window start's time scale; see `_critical_starts`

# floats in one chunk of the (starts, n, n) window averages that `certify`
# builds once and hands to the batched metric of every kind.  128 KB stays in
# cache: certifying both metrics over all 63 critical starts of blinking
# pairs at n=32 as one 2^20-float chunk instead took 0.016-0.019 s against
# 0.011-0.014 s (medians of 30) and raised the peak RSS by 1.7 MB (2 CPUs,
# BLAS on one thread)
_CHUNK_FLOATS = 1 << 14


class PiecewiseConstantSignal(Record):
    """Adjacency pieces on [t_{k-1}, t_k); periodic repeat or clamped tail.

    `pieces` is a sequence of AdjacencyMatrix values, stacked once, or an
    (m, n, n) array, checked once and adopted.  A read-only float64 array is
    adopted as it is, whatever its strides (`gen_rotating_star` hands over a
    view of one hub pattern); any other array is converted to C-contiguous
    float64 (no copy if it already is) and made read-only.  That
    `piece_stack` is the one storage: `pieces` become AdjacencyMatrix views
    into it.
    """

    _fields = ("n", "breakpoints", "pieces", "mode")

    def __init__(self, n: int, breakpoints, pieces, mode: str):
        bp = np.array(breakpoints, dtype=np.float64)
        bp.setflags(write=False)
        if mode not in (PERIODIC, CLAMPED):
            raise ValueError(f"mode must be '{PERIODIC}' or '{CLAMPED}'")
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if bp[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if not (np.all(np.diff(bp) > 0) and np.isfinite(bp[-1])):
            raise ValueError("breakpoints must be finite and strictly increasing")
        if not isinstance(pieces, np.ndarray):  # AdjacencyMatrix values
            pieces = [p.entries for p in pieces]
        stack = pieces
        if not (isinstance(pieces, np.ndarray) and pieces.dtype == np.float64
                and not pieces.flags.writeable):
            stack = np.ascontiguousarray(pieces, dtype=np.float64)
        if stack.shape != (bp.size - 1, n, n):
            raise ValueError(f"need one ({n}, {n}) piece per interval "
                             f"({bp.size - 1}), got shape {stack.shape}")
        check_entries(stack)
        stack.setflags(write=False)
        vars(self).update(n=n, breakpoints=bp,
                          pieces=tuple(map(AdjacencyMatrix._view, stack)),
                          mode=mode, piece_stack=stack)

    @property
    def period(self) -> float:
        return float(self.breakpoints[-1])

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
        # np.cumsum of width * piece, bit for bit: row 1 is a product, later rows add
        cum = np.zeros((len(self.pieces) + 1, self.n, self.n))
        for k, width in enumerate(np.diff(self.breakpoints), start=1):
            np.multiply(width, self.piece_stack[k - 1], out=cum[k])
            if k > 1:
                cum[k] += cum[k - 1]
        cum.setflags(write=False)
        return cum

    def _lap_starts(self, lo, hi):
        """(times, piece indices) of the piece starts of the laps of times
        lo..hi and of the lap after, in order; a clamped signal has one lap."""
        bp = self.breakpoints[:-1]
        laps = (np.arange(lo // self.period, hi // self.period + 2)
                if self.mode == PERIODIC else np.zeros(1))
        times = ((laps * self.period)[:, None] + bp).ravel()
        return times, np.tile(np.arange(bp.size), len(laps))

    def piece_starts(self, t_end: float):
        """(times, piece indices) of every piece start inside [0, t_end):
        every lap's of a periodic signal, each piece's once of a clamped one."""
        times, pieces = self._lap_starts(0.0, t_end)
        keep = times < t_end
        return times[keep], pieces[keep]

    def pieces_at(self, times) -> np.ndarray:
        """Index of the piece active at each finite time t >= 0 (right-
        continuous), the package's one time-to-piece lookup: that of the
        last start at or before t among the starts of the laps the times
        span, computed as `piece_starts` computes them."""
        times = np.asarray(times, dtype=np.float64)
        if not np.all((times >= 0) & (times < np.inf)):
            raise ValueError("t must be >= 0 and finite")
        starts, pieces = self._lap_starts(times.min(), times.max())
        # index -1, a t before every start, is the lap before's last piece
        return pieces[np.searchsorted(starts, times, side="right") - 1]

    def _integrals(self, ts) -> np.ndarray:
        """Entrywise integral of the signal over [0, t] for every t in the
        1-d array ts >= 0; shape (len(ts), n, n)."""
        # `lead` counts whole periods (periodic) or the time past the last
        # breakpoint (clamped), so the integral over [0, t] is lead times the
        # integral per unit of lead plus the integral over [0, rem].  The
        # integral is continuous in t, so a piece that `divmod` places an
        # ulp off a start moves no bit that matters
        bp = self.breakpoints
        if self.mode == PERIODIC:
            lead, rem = np.divmod(ts, self.period)
        else:
            rem = np.minimum(ts, bp[-1])
            lead = ts - rem
        idx = np.clip(np.searchsorted(bp, rem, side="right") - 1,
                      0, len(self.pieces) - 1)
        stack = self.piece_stack
        per_lead = self._cumulative[-1] if self.mode == PERIODIC else stack[-1]
        return (lead[:, None, None] * per_lead + self._cumulative[idx]
                + (rem - bp[idx])[:, None, None] * stack[idx])

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "breakpoints": self.breakpoints.tolist(),
            "pieces": [p.to_json_dict() for p in self.pieces],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PiecewiseConstantSignal":
        pieces = [AdjacencyMatrix.from_json_dict(p) for p in data["pieces"]]
        return cls(int(data["n"]), data["breakpoints"], pieces, data["mode"])


class Window(ValueRecord):
    """Sliding-window parameters: finite length tau > 0 and threshold mu in
    (0, 1]."""

    _fields = ("tau", "mu")

    def __init__(self, tau: float, mu: float):
        if not 0 < tau < np.inf:
            raise ValueError("tau must be finite and > 0")
        if not 0 < mu <= 1:
            raise ValueError("mu must lie in (0, 1]")
        vars(self).update(tau=tau, mu=mu)


class PersistenceReport(ValueRecord):
    """Result of certifying a windowed graph metric over all window starts."""

    _fields = ("kind", "window", "infimum_value", "worst_start", "passes",
               "checked_starts")

    def to_json_dict(self) -> dict:
        return dict(vars(self), window={"tau": self.window.tau, "mu": self.window.mu})

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
    return sig.pieces[sig.pieces_at(t)]


def window_average(sig: PiecewiseConstantSignal, t: float, tau: float) -> AdjacencyMatrix:
    """Exact entrywise value of (1/tau) * integral of A over [t, t+tau]."""
    # the row is clipped to [0, 1] with a unit diagonal: wrapped unchecked
    [row] = window_average_batch(sig, [t], tau)
    row.setflags(write=False)
    return AdjacencyMatrix._view(row)


def window_average_batch(sig: PiecewiseConstantSignal, starts, tau: float) -> np.ndarray:
    """Window averages for many finite start times t >= 0; shape
    (len(starts), n, n).

    Each is the exact (1/tau) * integral of A over [t, t+tau], clipped to
    [0, 1] against roundoff, with a unit diagonal; tau must be finite, and
    every end t + tau finite and above its start (a start whose ulp exceeds
    tau would round its window away).
    """
    starts = np.asarray(starts, dtype=np.float64)
    if not np.all((starts >= 0) & (starts < np.inf)):
        raise ValueError("t must be >= 0 and finite")
    if not 0 < tau < np.inf:
        raise ValueError("tau must be finite and > 0")
    with np.errstate(over="ignore"):
        ends = starts + tau
    if not np.all((ends > starts) & (ends < np.inf)):
        raise ValueError("t + tau must be finite and exceed t")
    avg = (sig._integrals(ends) - sig._integrals(starts)) / tau
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

    Starts within _TIME_TOL of their time scale are one: max(period, tau) if
    wrapped into [0, period), else t + tau (clamped kink t = b - tau rounds at
    b), never the last clamped breakpoint, which the last piece lasts past.
    """
    bp = sig.breakpoints
    if sig.mode == PERIODIC:
        period = sig.period
        kinks = np.concatenate([np.mod(bp, period), np.mod(bp - tau, period)])
        horizon = min(horizon, period)
    else:
        if bp[-1] + _TIME_TOL * (horizon + tau) < horizon + tau:
            raise HorizonUncovered(
                f"clamped signal covers [0, {bp[-1]}] but certification needs "
                f"[0, {horizon + tau}]"
            )
        kinks = np.concatenate([bp, bp - tau])
    cands = np.concatenate([kinks, [0.0, horizon]])
    cands = np.sort(np.minimum(cands[cands >= 0.0], horizon))
    scale = max(period, tau) if sig.mode == PERIODIC else cands[1:] + tau
    keep = np.concatenate([[True], np.diff(cands) > _TIME_TOL * scale])
    return cands[keep]


# kind -> (its batched metric, report kind)
_KINDS = {"eta": (scrambling_min, "scrambling"),
          "lambda2": (algebraic_connectivity_unchecked, "connectivity")}


def certify(sig: PiecewiseConstantSignal, window: Window, horizon: float,
            kinds) -> list:
    """One PersistenceReport per kind of `kinds` ("eta", "lambda2"), in order.

    Every kind is certified over the same critical starts in one pass: each
    chunk of window averages is built once and handed to the metric of every
    kind.  "lambda2" requires balanced pieces (see `certify_lambda2`), checked
    before any window average is built.  Raises ValueError naming the first
    unknown kind.
    """
    for kind in kinds:
        if not (isinstance(kind, str) and kind in _KINDS):
            raise ValueError(f"unknown certify kind {kind!r}")
    if "lambda2" in kinds:
        sig.require_balanced()
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    starts = _critical_starts(sig, window.tau, horizon)
    metrics = [_KINDS[kind][0] for kind in kinds]
    values = np.empty((len(kinds), len(starts)))
    for part in chunk_slices(len(starts), sig.n**2, _CHUNK_FLOATS):
        avgs = window_average_batch(sig, starts[part], window.tau)
        for row, metric in zip(values, metrics):
            row[part] = metric(avgs)
    reports = []
    for kind, row in zip(kinds, values):
        worst = int(np.argmin(row))
        infimum = float(row[worst])
        reports.append(PersistenceReport(
            kind=_KINDS[kind][1],
            window=window,
            infimum_value=infimum,
            worst_start=float(starts[worst]),
            passes=bool(infimum >= window.mu),
            checked_starts=len(starts),
        ))
    return reports


def certify_eta(sig: PiecewiseConstantSignal, window: Window,
                horizon: float) -> PersistenceReport:
    """Exact infimum over window starts of the scrambling coefficient of the
    windowed average; passes iff the infimum reaches window.mu.
    """
    return certify(sig, window, horizon, ("eta",))[0]


def certify_lambda2(sig: PiecewiseConstantSignal, window: Window,
                    horizon: float) -> PersistenceReport:
    """Exact infimum over window starts of the algebraic connectivity of the
    windowed average.  Every piece must be balanced; averaging adjacencies
    commutes with taking Laplacians, so this certifies the averaged Laplacian.
    Only the pieces are checked: a window average is a convex combination of
    them, so its degree gap is at most theirs, up to rounding.
    """
    return certify(sig, window, horizon, ("lambda2",))[0]


def gen_rotating_star(n: int, dwell: float) -> PiecewiseConstantSignal:
    """Periodic signal cycling a symmetric star through every center.

    Piece k (length `dwell`) is the star centered at agent k: every snapshot
    is a single hub, while the period average couples every agent pair.
    Deterministic.

    Piece k is the star centered at agent 0 shifted by k along both axes, so
    the (n, n, n) stack is a read-only view of one (2n - 1, 2n - 1) hub
    pattern, 4n^2 floats instead of n^3: a unit diagonal with an all-ones
    middle row and column, entry [k, i, j] at hub[i - k + n - 1, j - k + n - 1].
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not dwell > 0:
        raise ValueError("dwell must be > 0")
    hub = np.eye(2 * n - 1)
    hub[n - 1, :] = hub[:, n - 1] = 1.0
    hub.setflags(write=False)
    row, col = hub.strides
    # np.ndarray checks that every entry lies inside the hub (as_strided would not)
    stack = np.ndarray((n, n, n), np.float64, buffer=hub,
                       offset=(n - 1) * (row + col),
                       strides=(-(row + col), row, col))
    return PiecewiseConstantSignal(n, dwell * np.arange(n + 1.0), stack, PERIODIC)


def gen_blinking_pairs(n: int, dwell: float,
                       duty: float) -> PiecewiseConstantSignal:
    """Periodic round-robin perfect matchings, on for duty*dwell per dwell.

    Each dwell slot shows one matching of the round-robin schedule, active
    for the first duty fraction and replaced by the identity adjacency for
    the rest.  All pieces are symmetric, hence balanced.  Deterministic.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be an even integer >= 2")
    if not dwell > 0:
        raise ValueError("dwell must be > 0")
    if not 0 < duty <= 1:
        raise ValueError("duty must lie in (0, 1]")
    # circle method: round r pairs n-1 with r and r+i with r-i (mod n-1)
    r = np.arange(n - 1)
    i = np.arange(n // 2)
    left = np.where(i == 0, n - 1, (r[:, None] + i) % (n - 1))
    right = (r[:, None] - i) % (n - 1)
    ends = (r + 1) * dwell
    if duty < 1:
        # each matching is followed by the identity for the rest of its slot
        ends = np.stack([r * dwell + duty * dwell, ends], axis=1).ravel()
    stack = np.zeros((len(ends), n, n))
    stack[:, np.arange(n), np.arange(n)] = 1.0
    on = (len(ends) // (n - 1) * r)[:, None]
    stack[on, left, right] = stack[on, right, left] = 1.0
    return PiecewiseConstantSignal(n, np.concatenate([[0.0], ends]), stack,
                                   PERIODIC)
