"""Trajectory generation for the interaction dynamics.

Integrates x_i' = (1/n) sum_j a_ij(t) phi(|x_i - x_j|) (x_j - x_i) with
classic fixed-step RK4.  Every signal breakpoint inside the horizon is forced
onto the step grid (steps shorten to land on it), so the right-hand side is
smooth within each step.  With the constant kernel phi = c the field is the
Laplacian form x' = -(c/n) L(t) x, L = diag(A 1) - A, evaluated as one matrix
product per stage; on balanced graphs this is exactly the linear balanced
consensus system.

Diameters are exact but screened (Akl & Toussaint's throw-away principle):
with c the midpoint of a sample's bounding box, r_i = |x_i - c| and
R = max r, an endpoint of a diameter pair has r_i + R >= D, and D is at
least the diameter of the 2d axis-extreme points.  Only the points that pass
this test, with a 1e-12 relative slack for rounding, have their pairs
evaluated, by the same arithmetic as a full evaluation, so every computed
maximum comes out to the bit.  Samples of at most _SCREEN_MAX_AGENTS points
skip the screen, which costs more than it saves there.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from ._kernels import Constant, CuckerSmale, Kernel  # noqa: F401  (re-exported)
from .errors import DegenerateDiameter, DimensionMismatch, NonFiniteState
from .graphs import squared_distances
from .signals import PiecewiseConstantSignal


@dataclass(frozen=True, eq=False)
class Configuration:
    """Positions of n agents in d-dimensional space; shape (n, d)."""

    n: int
    d: int
    positions: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=np.float64)
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if pos.shape != (self.n, self.d):
            raise ValueError(f"positions must be {self.n}x{self.d}, got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")

    @classmethod
    def from_positions(cls, positions) -> "Configuration":
        pos = np.asarray(positions, dtype=np.float64)
        if pos.ndim == 1:
            pos = pos[:, None]
        return cls(pos.shape[0], pos.shape[1], pos)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return (self.n, self.d) == (other.n, other.d) and np.array_equal(
            self.positions, other.positions
        )


# floats in one chunk of the (samples, k, k, d) pairwise-difference array
_CHUNK_FLOATS = 1 << 20

# `diameters` evaluates every pair of a sample with at most this many agents,
# because below n = 16-20 the screen costs more than the pairs it removes.
# 1002 Gaussian samples in the plane, screened against in full: n = 5
# 2.4 / 0.58 ms, n = 12 6.4 / 5.1 ms, n = 16-20 about even, n = 24
# 7.6 / 16.0 ms, n = 32 10.7 / 25.3 ms (2 CPUs).  A verify sweep at n = 5
# makes one such call per run.
_SCREEN_MAX_AGENTS = 16

# relative slack of the screen: it covers the rounding of the computed radii
# and of the computed lower bound, a few units of 2^-53 each
_SCREEN_SLACK = 1e-12
# diameter bounds between which no square of a distance under- or overflows
_SCREEN_RANGE = (1e-100, 1e100)


def reduce_squared_distances(positions, reduce, keep=None) -> np.ndarray:
    """`reduce` applied to the flattened squared distances of every sample.

    ``positions`` has shape (..., n, d); ``reduce`` maps an (s, k * k) block
    of samples to s values.  ``keep``, a (..., n) mask with at least one
    point per sample, restricts each sample to its kept points: a sample with
    fewer than its block's k kept points repeats one of them, so ``reduce``
    must not change when a point repeats (a max does not).  By default every
    point is kept and k = n.  Samples go through in chunks of at most
    _CHUNK_FLOATS floats of (s, k, k, d), so memory stays bounded for any
    sample count.  Returns shape positions.shape[:-2].
    """
    n, d = positions.shape[-2:]
    flat = positions.reshape(-1, n, d)
    out = np.empty(flat.shape[0])
    for rows, pts in _chunks(flat, keep):
        sq = squared_distances(pts)
        out[rows] = reduce(sq.reshape(sq.shape[0], -1))
    return out.reshape(positions.shape[:-2])


def _chunks(flat, keep):
    """(rows, points) blocks of the (s, n, d) samples for the reduction."""
    n, d = flat.shape[1:]
    if keep is None:
        step = max(1, _CHUNK_FLOATS // (n * n * d))
        for lo in range(0, flat.shape[0], step):
            yield slice(lo, lo + step), flat[lo:lo + step]
        return
    keep = keep.reshape(flat.shape[:2])
    counts = np.count_nonzero(keep, axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")  # kept points first
    by_count = np.argsort(counts, kind="stable")
    ks = counts[by_count]
    lo = 0
    while lo < len(ks):
        # ks is sorted, so a chunk's k is the count of its last sample
        window = ks[lo:lo + max(1, _CHUNK_FLOATS // (ks[lo] ** 2 * d))]
        fits = np.arange(1, len(window) + 1) * window ** 2 * d <= _CHUNK_FLOATS
        hi = lo + max(1, np.count_nonzero(fits))
        rows, k = by_count[lo:hi], ks[hi - 1]
        # pad each row with its own first kept point
        idx = np.where(np.arange(k) < counts[rows, None],
                       order[rows, :k], order[rows, :1])
        yield rows, np.take_along_axis(flat[rows], idx[..., None], axis=1)
        lo = hi


def _diameter_candidates(flat) -> np.ndarray:
    """(s, n) mask of the points of each (n, d) sample that can end its diameter.

    With c any center, r_i = |x_i - c| and R = max r, the triangle inequality
    gives |x_i - x_j| <= r_i + R for every j, so a point with r_i + R below a
    lower bound of the diameter ends no diameter pair.  The bound is the
    computed diameter of the 2d axis-extreme points, and c is the midpoint of
    their bounding box: it comes from the same argmin/argmax, where a mean over
    the sample axis took 2.3-3 ms of a (1001, 128, 2) call.
    """
    lowest, highest = flat.argmin(axis=1), flat.argmax(axis=1)
    center = 0.5 * (np.take_along_axis(flat, lowest[:, None], axis=1)
                    + np.take_along_axis(flat, highest[:, None], axis=1))
    centered = flat - center
    r = np.sqrt(np.einsum("sic,sic->si", centered, centered))
    reach = r + r.max(axis=1, keepdims=True)
    extreme = np.concatenate([lowest, highest], axis=1)
    ends = np.take_along_axis(flat, extreme[..., None], axis=1)
    low = np.sqrt(squared_distances(ends).max(axis=(1, 2)))
    # the slack is relative, so a sample whose squares may underflow or
    # overflow keeps every point (all its distances are within sqrt(d) * low);
    # so does one with a NaN radius or bound, as `not <` is true for NaN
    drop = reach < low[:, None] * (1.0 - _SCREEN_SLACK)
    return ~(drop & ((low > _SCREEN_RANGE[0]) & (low < _SCREEN_RANGE[1]))[:, None])


def diameters(positions) -> np.ndarray:
    """Largest pairwise distance of each (n, d) configuration in (..., n, d).

    With more than _SCREEN_MAX_AGENTS points, only the points that pass
    `_diameter_candidates` have their pairs evaluated.  A pair attaining the
    computed maximum has a true length within rounding of it, and its points
    pass because the screen's slack exceeds that rounding, so the result is
    bit-identical to evaluating every pair.  Smaller samples evaluate every
    pair.
    """
    n, d = positions.shape[-2:]
    keep = None
    if n > _SCREEN_MAX_AGENTS:
        keep = _diameter_candidates(positions.reshape(-1, n, d))
    return reduce_squared_distances(positions, lambda sq: np.sqrt(sq.max(axis=1)),
                                    keep)


def kernel_bounds(kernel: Kernel, diam_max: float):
    """(c_phi, C_phi): inf and sup of the kernel on [0, diam_max]."""
    if diam_max < 0:
        raise ValueError("diam_max must be >= 0")
    if isinstance(kernel, Constant):
        return kernel.c, kernel.c
    low = kernel.K / (1.0 + diam_max**2) ** kernel.beta
    return low, kernel.K


def rhs(x: Configuration, adj, kernel: Kernel) -> np.ndarray:
    """Velocity field (1/n) sum_j a_ij phi(|x_i - x_j|)(x_j - x_i), shape (n, d)."""
    if adj.n != x.n:
        raise DimensionMismatch(f"adjacency n={adj.n}, configuration n={x.n}")
    return _kernels.rhs_velocity(x.positions, adj.entries, kernel)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution: times (T,), states (T, n, d), plus the inputs used."""

    times: np.ndarray
    states: np.ndarray
    signal_ref: PiecewiseConstantSignal
    kernel_ref: Kernel

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64)
        states = np.array(self.states, dtype=np.float64)
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        if times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValueError("times must start at 0 and increase strictly")
        if states.shape[0] != times.shape[0]:
            raise ValueError("states count must match times count")

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def d(self) -> int:
        return self.states.shape[2]

    def state(self, i: int) -> Configuration:
        return Configuration(self.n, self.d, self.states[i])

    @cached_property
    def diameters(self) -> np.ndarray:
        return diameters(self.states)

    @cached_property
    def variances(self) -> np.ndarray:
        centered = self.states - self.states.mean(axis=1, keepdims=True)
        return np.einsum("tic,tic->t", centered, centered) / self.n

    @cached_property
    def means(self) -> np.ndarray:
        return self.states.mean(axis=1)

    def to_csv(self, path) -> None:
        """Write t, x_1_1, ..., x_N_d rows with 17 significant digits."""
        header = ["t"] + [f"x_{i + 1}_{c + 1}" for i in range(self.n)
                          for c in range(self.d)]
        write_csv(path, header, self.times,
                  self.states.reshape(len(self.times), -1))


def write_csv(path, header, times, rows) -> None:
    """Write the header, then one ``t, row...`` line per sample.

    Every value is printed with 17 significant digits, which round-trips
    float64.  ``rows`` has shape (T, k); one row at a time is converted to
    Python floats, so the writer holds no text copy of the table.
    """
    line = ",".join(["%.17g"] * (1 + rows.shape[1])) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for t, row in zip(times.tolist(), rows):
            fh.write(line % (t, *row.tolist()))


def _build_grid(sig, t_end, dt, forced_times):
    """Step grid: uniform dt points, breakpoints, forced times and t_end.

    Points closer than a relative tolerance are merged, preferring breakpoint
    values (so signal evaluation at piece starts stays exact).  Returns the
    grid, the per-step piece indices and which grid points are forced records.
    """
    ev_t, ev_p = sig.piece_starts(t_end)
    n_uniform = int(np.ceil(t_end / dt - 1e-9))
    uniform = dt * np.arange(n_uniform)
    forced = np.asarray(forced_times, dtype=np.float64)
    if forced.size and (forced.min() < 0 or forced.max() > t_end + 1e-9):
        raise ValueError("forced record times must lie in [0, t_end]")
    forced = np.minimum(forced, t_end)

    # priority: 0 = breakpoint event, 1 = forced record, 2 = uniform/t_end
    cand_t = np.concatenate([ev_t, forced, uniform, [t_end]])
    cand_p = np.concatenate([
        np.zeros(len(ev_t), dtype=np.int64),
        np.ones(len(forced), dtype=np.int64),
        np.full(n_uniform + 1, 2, dtype=np.int64),
    ])
    order = np.lexsort((cand_p, cand_t))
    cand_t, cand_p = cand_t[order], cand_p[order]

    tol = 1e-9 * dt
    times, is_forced = [], []
    for t, p in zip(cand_t, cand_p):
        if times and t - times[-1] <= tol:
            if p < 2:
                is_forced[-1] = is_forced[-1] or p == 1
            if p == 0:
                times[-1] = t  # keep the exact breakpoint value
            continue
        times.append(float(t))
        is_forced.append(p == 1)
    times = np.asarray(times)
    is_forced = np.asarray(is_forced, dtype=bool)

    step_piece = ev_p[np.searchsorted(ev_t, times[:-1], side="right") - 1]
    return times, step_piece, is_forced


def integrate_batch(x0s, sig: PiecewiseConstantSignal, kernel: Kernel,
                    t_end: float, dt: float, sample_every: int = 1, *,
                    forced_times=()):
    """Integrate a batch of starts, shape (B, n, d), in one RK4 run.

    Every start is stepped on the same breakpoint-aligned grid as
    `integrate` would use.  Returns an iterator of B Trajectory objects, in
    batch order; each is copied out of the shared (T, B, n, d) record only
    when it is reached, so one per-run copy is alive at a time.
    Raises NonFiniteState if a coordinate of any start diverges.
    """
    x0s = np.asarray(x0s, dtype=np.float64)
    if x0s.ndim != 3 or x0s.shape[0] < 1:
        raise ValueError(f"starts must have shape (B, n, d) with B >= 1, "
                         f"got {x0s.shape}")
    if sig.n != x0s.shape[1]:
        raise DimensionMismatch(f"signal n={sig.n}, configuration n={x0s.shape[1]}")
    if not np.all(np.isfinite(x0s)):
        raise ValueError("positions must be finite")
    if not t_end > 0:
        raise ValueError("t_end must be > 0")
    if not dt > 0:
        raise ValueError("dt must be > 0")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")

    times, step_piece, is_forced = _build_grid(sig, t_end, dt, forced_times)
    rec = (np.arange(len(times)) % sample_every == 0) | is_forced
    rec[-1] = True

    # the pieces' own entries: `sig.piece_stack` would be a second dense copy
    pieces = tuple(p.entries for p in sig.pieces)
    try:
        states = _kernels.rk4_run(x0s, pieces, step_piece, np.diff(times), rec,
                                  kernel)
    except FloatingPointError as exc:
        raise NonFiniteState("integration produced non-finite coordinates") from exc
    # einsum reports no overflow, so a last step can still end non-finite
    if not np.all(np.isfinite(states)):
        raise NonFiniteState("integration produced non-finite coordinates")
    rec_times = times[rec]
    return (Trajectory(rec_times, states[:, b], sig, kernel)
            for b in range(states.shape[1]))


def integrate(x0: Configuration, sig: PiecewiseConstantSignal, kernel: Kernel,
              t_end: float, dt: float, sample_every: int = 1, *,
              forced_times=()) -> Trajectory:
    """Fixed-step RK4 run over [0, t_end], breakpoint-aligned.

    Records every `sample_every`-th accepted step plus the final state;
    `forced_times` are additionally snapped onto the grid and always recorded
    (used to place window endpoints on the sample grid).  Deterministic.
    Raises NonFiniteState if a coordinate diverges.
    """
    return next(integrate_batch(x0.positions[None], sig, kernel, t_end, dt,
                                sample_every, forced_times=forced_times))


def default_dt(dwell_min: float, tau: float, cap: float = 1e-2) -> float:
    """Step size resolving both switching and window structure."""
    return min(cap, dwell_min / 20.0, tau / 100.0)


def dilate(states, origin) -> np.ndarray:
    """Map states (..., n, d) to (x - mean(origin)) / diameter(origin).

    ``origin`` is one (n, d) configuration or a stack of them that
    broadcasts against ``states``.  Raises DegenerateDiameter when a
    diameter of ``origin`` is 0.
    """
    diam = diameters(origin)
    if np.any(diam <= 0.0):
        raise DegenerateDiameter("cannot rescale a zero-diameter configuration")
    center = origin.mean(axis=-2, keepdims=True)
    return (states - center) / diam[..., None, None]


def rescale_dilation(x0: Configuration, traj: Trajectory) -> Trajectory:
    """Map every state to (x - mean(x0)) / diameter(x0).

    The rescaled initial state is centered, has diameter 1 and lies in the
    unit max-norm ball.  Raises DegenerateDiameter when diameter(x0) is 0.
    """
    return Trajectory(traj.times.copy(), dilate(traj.states, x0.positions),
                      traj.signal_ref, traj.kernel_ref)
