"""Trajectory generation for the interaction dynamics.

Integrates x_i' = (1/n) sum_j a_ij(t) phi(|x_i - x_j|) (x_j - x_i) with
classic fixed-step RK4.  Every signal breakpoint inside the horizon is forced
onto the step grid (steps shorten to land on it), so the right-hand side is
smooth within each step.  With the constant kernel phi = c the field is the
Laplacian form x' = -(c/n) L(t) x, L = diag(A 1) - A, evaluated as one matrix
product per stage; on balanced graphs this is exactly the linear balanced
consensus system.

An `Integration` is read through `Integration.series`, the one caller of
`_kernels.rk4_run`: each of its measures maps every block of recorded
states to values kept in one array per measure, and its tables are written
a block at a time.  `simulate` and `verify` keep only diameter or variance
series; `integrate_batch` measures the identity and so keeps the
(B, T, n, d) record.  Every CSV is written through `staged_csvs`, so a
failed run leaves no partial file.

Diameters and variances go through one chunk loop, `_per_chunk`, over
`sample_slices` of at most _CHUNK_FLOATS floats, sized to the L2 cache; so
beside the samples they are given their memory is bounded for any number of
samples, and the dissipation residual walks its samples by the same slices.
Their values do not depend on the chunking, so a block's are those of its
samples in the whole record.  A diameter is
the maximum over the pairs i < j of `graphs.pair_squared_distances`, screened
above _SCREEN_MAX_AGENTS points (Akl & Toussaint's throw-away principle): with
c the midpoint of a sample's bounding box, r_i = |x_i - c| and R = max r, an
endpoint of a diameter pair has r_i + R >= D, and D is at least the diameter
of the 2d axis-extreme points.  Only the points that pass, with a 1e-12
relative slack for rounding, have their pairs evaluated, so every computed
maximum comes out to the bit.
"""
from __future__ import annotations

import contextlib
from functools import cached_property
from pathlib import Path

import numpy as np

from . import _kernels
from ._kernels import Constant, Kernel, Record, chunk_slices
from .errors import DegenerateDiameter, DimensionMismatch, NonFiniteState
from .graphs import pair_squared_distances
from .signals import PiecewiseConstantSignal


class Configuration(Record):
    """Positions of n agents in d-dimensional space; shape (n, d).

    Equal configurations have equal n, d and positions; they are unhashable.
    """

    _fields = ("n", "d", "positions")

    def __init__(self, n: int, d: int, positions):
        pos = np.array(positions, dtype=np.float64)
        pos.setflags(write=False)
        if n < 1 or d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        if pos.shape != (n, d):
            raise ValueError(f"positions must be {n}x{d}, got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        vars(self).update(n=n, d=d, positions=pos)

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


# floats in one chunk of (samples, n, d) states or (samples, pairs, d)
# differences, sized so a chunk and its temporaries stay in a 2 MB L2 cache.
# `diameters` plus `variances` of the (1001, 128, 2) record of the reference
# simulate at seed 208, then of Gaussian states of that shape (which keep 6
# points a sample in the median and up to 43, and a chunk pads to its widest),
# with the tracemalloc peak of one `diameters` call on each (2 CPUs, best of 7):
#   2^14   9.5 ms 0.39 MB   16.1 ms  0.44 MB
#   2^15   8.7 ms 0.76 MB   14.6 ms  0.80 MB
#   2^16   8.5 ms 1.49 MB   15.6 ms  1.58 MB
#   2^17   8.6 ms 2.97 MB   16.4 ms  3.18 MB
#   2^18   8.7 ms 5.88 MB   19.1 ms  6.42 MB
#   2^19   8.6 ms 8.42 MB   19.1 ms 10.61 MB
#   2^20   8.5 ms 8.42 MB   19.1 ms 18.99 MB
# Below 2^15 a verify sweep's (1001, 5, 2) run would take its 20 floats a
# sample of pair differences in two chunks instead of one.
_CHUNK_FLOATS = 1 << 15
# cells per block of rows that `append_csv` formats at once.  A block's text
# and scratch arrays take about 0.22 kB a cell, 0.85 MB at 4096 cells.  A
# (1001, 257) table took 22.3 ms in 4096-cell blocks, against 34.2, 25.6,
# 23.4, 22.1 and 26.1 ms in 1024-, 2048-, 3072-, 6144- and 8192-cell ones
# (2 CPUs, medians of 40 interleaved rounds)
_CSV_CHUNK_CELLS = 4096

# `diameters` screens samples of more than this many agents: up to n = 16-17
# the screen costs more than the pairs it removes.  1002 Gaussian samples in
# the plane, screened against the full pair list, in 2^15-float chunks: n = 5
# 1.14 / 0.22 ms, n = 12 2.66 / 1.88 ms, n = 16 3.61 / 3.34 ms, n = 17 3.70 /
# 3.86 ms, n = 20 5.23 / 5.53 ms, n = 32 6.00 / 15.3 ms, n = 128 21.7 / 515 ms
# (2 CPUs, best of 7 interleaved rounds).  A verify sweep at n = 5 makes one
# such call per run.
_SCREEN_MAX_AGENTS = 16

# relative slack of the screen: it covers the rounding of the computed radii
# and of the computed lower bound, a few units of 2^-53 each
_SCREEN_SLACK = 1e-12
# diameter bounds between which no square of a distance under- or overflows
_SCREEN_RANGE = (1e-100, 1e100)


def sample_slices(count, floats):
    """`chunk_slices` of ``count`` samples under _CHUNK_FLOATS floats."""
    return chunk_slices(count, floats, _CHUNK_FLOATS)


def _per_chunk(positions, floats, fn) -> np.ndarray:
    """``fn`` of every chunk of the (s, n, d) samples of (..., n, d) positions.

    Chunks are `sample_slices` at ``floats`` a sample; ``fn`` maps a chunk to
    s values.  Returns shape positions.shape[:-2].
    """
    n, d = positions.shape[-2:]
    flat = positions.reshape(-1, n, d)
    out = np.empty(len(flat))
    for part in sample_slices(len(flat), floats):
        out[part] = fn(flat[part])
    return out.reshape(positions.shape[:-2])


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
    low = np.sqrt(pair_squared_distances(ends).max(axis=1))
    # the slack is relative, so a sample whose squares may underflow or
    # overflow keeps every point (all its distances are within sqrt(d) * low);
    # so does one with a NaN radius or bound, as `not <` is true for NaN
    drop = reach < low[:, None] * (1.0 - _SCREEN_SLACK)
    return ~(drop & ((low > _SCREEN_RANGE[0]) & (low < _SCREEN_RANGE[1]))[:, None])


def _chunk_diameters(pts) -> np.ndarray:
    """Diameters of the (s, n, d) samples of one chunk."""
    kept = pts
    if pts.shape[1] > _SCREEN_MAX_AGENTS:
        keep = _diameter_candidates(pts)
        counts = np.count_nonzero(keep, axis=1)
        k = counts.max()
        order = np.argsort(~keep, axis=1, kind="stable")  # kept points first
        # a sample with fewer than k kept points repeats its first one
        idx = np.where(np.arange(k) < counts[:, None], order[:, :k], order[:, :1])
        kept = np.take_along_axis(pts, idx[..., None], axis=1)
    # a sub-chunk's (s, pairs, d) differences hold at most _CHUNK_FLOATS
    # floats, or one sample
    n, d = kept.shape[1:]
    peak = _per_chunk(kept, n * (n - 1) // 2 * d, lambda sub:
                      pair_squared_distances(sub).max(axis=1, initial=0.0))
    # the diagonal of a sample with an inf coordinate is NaN, and so is the
    # maximum over every ordered pair; the pair list has no diagonal
    if not np.isfinite(peak).all():
        peak[~np.isfinite(pts).all(axis=(1, 2))] = np.nan
    return np.sqrt(peak)


def diameters(positions) -> np.ndarray:
    """Largest pairwise distance of each (n, d) configuration in (..., n, d).

    A pair attaining the computed maximum has a true length within rounding
    of it, and its points pass `_diameter_candidates` because the screen's
    slack exceeds that rounding.  The square of (i, j) is the square of
    (j, i) bit for bit and the diagonal is 0, so the maximum over the kept
    pairs i < j is bit-identical to the maximum over every ordered pair.
    """
    n, d = positions.shape[-2:]
    return _per_chunk(positions, n * d, _chunk_diameters)


def variances(positions) -> np.ndarray:
    """Mean squared distance to the barycenter, (1/n) * sum |x_i - mean|^2,
    of each (n, d) configuration in (..., n, d)."""
    n, d = positions.shape[-2:]
    return _per_chunk(positions, n * d, _variances)


def kernel_bounds(kernel: Kernel, diam_max: float):
    """(c_phi, C_phi): inf and sup of the kernel on [0, diam_max]."""
    if not diam_max >= 0:  # NaN too
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


class Trajectory(Record):
    """Sampled solution: times (T,), states (T, n, d), plus the inputs used.

    ``times`` and ``states`` are held read-only; a C-contiguous float64
    array is adopted as it is, and so becomes read-only for its owner too.
    The observables are computed on first use and kept.
    """

    _fields = ("times", "states", "signal_ref", "kernel_ref")

    def __init__(self, times, states, signal_ref: PiecewiseConstantSignal,
                 kernel_ref: Kernel):
        times = np.ascontiguousarray(times, dtype=np.float64)
        states = np.ascontiguousarray(states, dtype=np.float64)
        times.setflags(write=False)
        states.setflags(write=False)
        if not (np.all(np.isfinite(times)) and times[0] == 0.0
                and np.all(np.diff(times) > 0)):
            raise ValueError("times must be finite, start at 0 and increase strictly")
        if states.shape[0] != times.shape[0]:
            raise ValueError("states count must match times count")
        vars(self).update(times=times, states=states, signal_ref=signal_ref,
                          kernel_ref=kernel_ref)

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
        return variances(self.states)

    @cached_property
    def means(self) -> np.ndarray:
        return self.states.mean(axis=1)

    def to_csv(self, path) -> None:
        """Write t, x_1_1, ..., x_N_d rows with 17 significant digits."""
        write_csv(path, state_header(self.n, self.d), self.times,
                  self.states.reshape(len(self.times), -1))


def _variances(pts) -> np.ndarray:
    """Mean squared distance to the barycenter of each (s, n, d) sample."""
    centered = pts - pts.mean(axis=1, keepdims=True)
    return np.einsum("tic,tic->t", centered, centered) / pts.shape[1]


def state_header(n, d) -> list:
    """Header of a trajectory table: t, x_1_1, ..., x_n_d."""
    return ["t"] + [f"x_{i + 1}_{c + 1}" for i in range(n) for c in range(d)]


def write_csv(path, header, times, rows) -> None:
    """Write the header, then one ``t, row...`` line per sample, as
    `append_csv` writes them; through `staged_csvs`, so the file appears
    only when every line is written."""
    with staged_csvs([path], header) as [part]:
        append_csv(part, times, rows)


def append_csv(path, times, rows) -> None:
    """Append one ``t, row...`` line per sample to the file at ``path``.

    Every value is printed as "%.17g" prints it, 17 significant digits,
    which round-trips float64, so the text does not depend on how a table
    is split into calls.  ``rows`` has shape (T, k); the lines are
    formatted by `_text.format_g17` a block of rows at a time, so the
    writer holds the text of one block (at most _CSV_CHUNK_CELLS cells, or
    one row), not of the table.
    """
    from . import _text

    with open(path, "a") as fh:
        for part in chunk_slices(len(times), 1 + rows.shape[1],
                                 _CSV_CHUNK_CELLS):
            fh.write(_text.format_g17(np.column_stack([times[part],
                                                       rows[part]])))


@contextlib.contextmanager
def staged_csvs(paths, header):
    """Write a set of tables all or none.

    Yields one temporary path per path, next to it and holding the header
    line, for `append_csv` to fill.  When the block exits cleanly each is
    renamed to its path; when it raises, every one is removed, so a failed
    run leaves no partial table behind.
    """
    parts = [Path(f"{path}.part") for path in paths]
    try:
        for part in parts:
            part.write_text(",".join(header) + "\n")
        yield parts
    except BaseException:
        for part in parts:
            part.unlink(missing_ok=True)
        raise
    for part, path in zip(parts, paths):
        part.replace(path)


def _build_grid(sig, t_end, dt, forced_times):
    """Step grid: uniform dt points, breakpoints, forced times and t_end.

    A sorted candidate more than 1e-9 * dt above the one before starts a grid
    point, which takes its last breakpoint's value (signals stay exact at
    piece starts) and is forced if any of its candidates is.  Measuring from
    the point kept so far would differ only on a chain of gaps within the
    tolerance spanning more than it; no config makes one, as every candidate
    rounds an exact time.  Forced times may pass t_end by 1e-9 * dt, or by
    1e-12 t_end for their rounding, and are clamped to it.  Returns the grid,
    per-step pieces and forced flags.
    """
    ev_t, ev_p = sig.piece_starts(t_end)
    n_uniform = int(np.ceil(t_end / dt - 1e-9))
    forced = np.asarray(forced_times, dtype=np.float64)
    past = max(1e-9 * dt, 1e-12 * t_end)
    if forced.size and not (forced.min() >= 0 and forced.max() <= t_end + past):
        raise ValueError("forced record times must lie in [0, t_end]")
    forced = np.minimum(forced, t_end)

    # priority: 0 = breakpoint event, 1 = forced record, 2 = uniform/t_end
    cand_t = np.concatenate([ev_t, forced, dt * np.arange(n_uniform), [t_end]])
    cand_p = np.repeat([0, 1, 2], [len(ev_t), len(forced), n_uniform + 1])
    order = np.lexsort((cand_p, cand_t))
    cand_t, cand_p = cand_t[order], cand_p[order]

    head = np.diff(cand_t, prepend=-np.inf) > 1e-9 * dt
    point = np.cumsum(head) - 1
    times = cand_t[head]
    # a point's last breakpoint is its largest, whichever order `at` goes in
    np.maximum.at(times, point[cand_p == 0], cand_t[cand_p == 0])
    is_forced = np.bincount(point[cand_p == 1], minlength=len(times)) > 0

    step_piece = ev_p[np.searchsorted(ev_t, times[:-1], side="right") - 1]
    return times, step_piece, is_forced


class Integration(Record):
    """A batch of starts, shape (B, n, d), to be stepped together by RK4 on
    one breakpoint-aligned grid over [0, t_end].

    Records every `sample_every`-th accepted step plus the final state;
    `forced_times` are additionally snapped onto the grid and always
    recorded (used to place window endpoints on the sample grid).  The
    recorded times are the read-only ``times``, known before integrating.
    Every start is stepped on the same grid, and is bit-identical to its
    own run.  Validates the starts and builds the grid on construction.
    """

    _fields = ("starts", "signal_ref", "kernel_ref", "times")

    def __init__(self, x0s, sig: PiecewiseConstantSignal, kernel: Kernel,
                 t_end: float, dt: float, sample_every: int = 1, *,
                 forced_times=()):
        x0s = np.asarray(x0s, dtype=np.float64)
        if x0s.ndim != 3 or x0s.shape[0] < 1:
            raise ValueError(f"starts must have shape (B, n, d) with B >= 1, "
                             f"got {x0s.shape}")
        if sig.n != x0s.shape[1]:
            raise DimensionMismatch(
                f"signal n={sig.n}, configuration n={x0s.shape[1]}")
        if not np.all(np.isfinite(x0s)):
            raise ValueError("positions must be finite")
        if not t_end > 0:
            raise ValueError("t_end must be > 0")
        if not dt > 0:
            raise ValueError("dt must be > 0")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")

        grid, step_piece, is_forced = _build_grid(sig, t_end, dt, forced_times)
        rec = (np.arange(len(grid)) % sample_every == 0) | is_forced
        rec[-1] = True
        vars(self).update(starts=x0s, signal_ref=sig, kernel_ref=kernel,
                          times=grid[rec], _step_piece=step_piece,
                          _hs=np.diff(grid), _rec=rec)
        self.times.setflags(write=False)

    def series(self, measures, tables=()) -> list:
        """Integrate, keeping only what each of ``measures`` makes of every
        recorded state: one (B, T, ...) array per measure.

        A measure maps a (k, B, n, d) block of states (see
        `_kernels.rk4_run`) to a (k, B, ...) array: `diameters` gives the
        (B, T) diameter series, ``lambda block: block`` the (B, T, n, d)
        record.  Each array is allocated from the first block's values and
        filled a block at a time.

        ``tables`` is empty or names one CSV file per start, which gets that
        start's states as `Trajectory.to_csv` writes them.  They are written
        a block at a time through `staged_csvs`, so they appear only when
        the whole run succeeds.  Raises NonFiniteState if a coordinate of
        any start diverges.
        """
        kept = [None] * len(measures)
        n, d = self.starts.shape[1:]
        with staged_csvs(tables, state_header(n, d)) as parts:
            def sink(lo, block):
                hi = lo + len(block)
                for k, measure in enumerate(measures):
                    values = measure(block).swapaxes(0, 1)
                    if kept[k] is None:
                        kept[k] = np.empty(values.shape[:1] + self.times.shape
                                           + values.shape[2:], values.dtype)
                    kept[k][:, lo:hi] = values
                for b, part in enumerate(parts):
                    append_csv(part, self.times[lo:hi],
                               block[:, b].reshape(len(block), -1))

            try:
                _kernels.rk4_run(self.starts, self.signal_ref.piece_stack,
                                 self._step_piece, self._hs, self._rec,
                                 self.kernel_ref, sink)
            except FloatingPointError as exc:
                raise NonFiniteState(
                    "integration produced non-finite coordinates") from exc
        return kept


def integrate_batch(x0s, sig: PiecewiseConstantSignal, kernel: Kernel,
                    t_end: float, dt: float, sample_every: int = 1, *,
                    forced_times=()) -> list:
    """Integrate a batch of starts, shape (B, n, d), as one `Integration`.

    Returns B Trajectory objects in batch order, each a read-only view of
    one (B, T, n, d) record, all holding the run's one ``times``.  Raises
    NonFiniteState if a coordinate of any start diverges.
    """
    run = Integration(x0s, sig, kernel, t_end, dt, sample_every,
                      forced_times=forced_times)
    [record] = run.series([lambda block: block])
    return [Trajectory(run.times, states, sig, kernel) for states in record]


def integrate(x0: Configuration, sig: PiecewiseConstantSignal, kernel: Kernel,
              t_end: float, dt: float, sample_every: int = 1, *,
              forced_times=()) -> Trajectory:
    """Fixed-step RK4 run of one start over [0, t_end]: `integrate_batch`
    of a batch of one.  Deterministic."""
    [traj] = integrate_batch(x0.positions[None], sig, kernel, t_end, dt,
                             sample_every, forced_times=forced_times)
    return traj


def dilate(states, origin) -> np.ndarray:
    """Map states (..., n, d) to (x - mean(origin)) / diameter(origin).

    ``origin`` is one (n, d) configuration or a stack of them that
    broadcasts against ``states``.  Raises DegenerateDiameter when a
    diameter of ``origin`` is 0 or infinite.
    """
    diam = diameters(origin)
    if np.any((diam <= 0.0) | (diam == np.inf)):
        raise DegenerateDiameter("cannot rescale a configuration of zero or "
                                 "infinite diameter")
    center = origin.mean(axis=-2, keepdims=True)
    return (states - center) / diam[..., None, None]


def rescale_dilation(x0: Configuration, traj: Trajectory) -> Trajectory:
    """Map every state to (x - mean(x0)) / diameter(x0).

    The rescaled initial state is centered, has diameter 1 and lies in the
    unit max-norm ball.  Raises DegenerateDiameter when diameter(x0) is 0
    or infinite.
    """
    return Trajectory(traj.times, dilate(traj.states, x0.positions),
                      traj.signal_ref, traj.kernel_ref)
