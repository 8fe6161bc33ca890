"""Trajectory generation for the interaction dynamics.

Integrates x_i' = (1/n) sum_j a_ij(t) phi(|x_i - x_j|) (x_j - x_i) with
classic fixed-step RK4.  Every signal breakpoint inside the horizon is forced
onto the step grid (steps shorten to land on it), so the right-hand side is
smooth within each step.  With the constant unit kernel this is exactly the
linear balanced consensus system.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from . import _kernels
from .errors import DegenerateDiameter, DimensionMismatch, NonFiniteState
from .signals import PERIODIC, PiecewiseConstantSignal


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


def kernel_bounds(kernel: Kernel, diam_max: float):
    """(c_phi, C_phi): inf and sup of the kernel on [0, diam_max]."""
    if diam_max < 0:
        raise ValueError("diam_max must be >= 0")
    if isinstance(kernel, Constant):
        return kernel.c, kernel.c
    low = kernel.K / (1.0 + diam_max**2) ** kernel.beta
    return low, kernel.K


def _kernel_code(kernel: Kernel):
    if isinstance(kernel, Constant):
        return _kernels.KERNEL_CONSTANT, kernel.c, 0.0
    return _kernels.KERNEL_CUCKER_SMALE, kernel.K, kernel.beta


def rhs(x: Configuration, adj, kernel: Kernel) -> np.ndarray:
    """Velocity field (1/n) sum_j a_ij phi(|x_i - x_j|)(x_j - x_i), shape (n, d)."""
    if adj.n != x.n:
        raise DimensionMismatch(f"adjacency n={adj.n}, configuration n={x.n}")
    kind, p1, p2 = _kernel_code(kernel)
    return _kernels.rhs_velocity(x.positions, adj.entries, kind, p1, p2)


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
        diff = self.states[:, :, None, :] - self.states[:, None, :, :]
        dist = np.sqrt(np.einsum("tijc,tijc->tij", diff, diff))
        return dist.reshape(len(self.times), -1).max(axis=1)

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
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            flat = self.states.reshape(len(self.times), -1)
            for t, row in zip(self.times, flat):
                cells = [f"{t:.17g}"] + [f"{v:.17g}" for v in row]
                fh.write(",".join(cells) + "\n")


def _breakpoint_events(sig, t_end):
    """(times, piece indices) of every piece start inside [0, t_end)."""
    bp = sig.breakpoints
    m = len(sig.pieces)
    ev_t, ev_p = [], []
    if sig.mode == PERIODIC:
        period = sig.period
        lap = 0
        while lap * period < t_end:
            base = lap * period
            for k in range(m):
                t = base + bp[k]
                if t >= t_end:
                    break
                ev_t.append(t)
                ev_p.append(k)
            lap += 1
    else:
        for k in range(m):
            if bp[k] < t_end:
                ev_t.append(bp[k])
                ev_p.append(k)
    return np.asarray(ev_t, dtype=np.float64), np.asarray(ev_p, dtype=np.int64)


def _build_grid(sig, t_end, dt, forced_times):
    """Step grid: uniform dt points, breakpoints, forced times and t_end.

    Points closer than a relative tolerance are merged, preferring breakpoint
    values (so signal evaluation at piece starts stays exact).  Returns the
    grid, the per-step piece indices and which grid points are forced records.
    """
    ev_t, ev_p = _breakpoint_events(sig, t_end)
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


def integrate(x0: Configuration, sig: PiecewiseConstantSignal, kernel: Kernel,
              t_end: float, dt: float, sample_every: int = 1, *,
              forced_times=()) -> Trajectory:
    """Fixed-step RK4 run over [0, t_end], breakpoint-aligned.

    Records every `sample_every`-th accepted step plus the final state;
    `forced_times` are additionally snapped onto the grid and always recorded
    (used to place window endpoints on the sample grid).  Deterministic.
    Raises NonFiniteState if a coordinate diverges.
    """
    if sig.n != x0.n:
        raise DimensionMismatch(f"signal n={sig.n}, configuration n={x0.n}")
    if not t_end > 0:
        raise ValueError("t_end must be > 0")
    if not dt > 0:
        raise ValueError("dt must be > 0")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")

    times, step_piece, is_forced = _build_grid(sig, t_end, dt, forced_times)
    rec = (np.arange(len(times)) % sample_every == 0) | is_forced
    rec[-1] = True

    kind, p1, p2 = _kernel_code(kernel)
    states = _kernels.rk4_run(
        x0.positions, sig.piece_stack, step_piece, np.diff(times), rec,
        kind, p1, p2,
    )
    if not np.all(np.isfinite(states)):
        raise NonFiniteState("integration produced non-finite coordinates")
    return Trajectory(times[rec], states, sig, kernel)


def default_dt(dwell_min: float, tau: float, cap: float = 1e-2) -> float:
    """Step size resolving both switching and window structure."""
    return min(cap, dwell_min / 20.0, tau / 100.0)


def rescale_dilation(x0: Configuration, traj: Trajectory) -> Trajectory:
    """Map every state to (x - mean(x0)) / diameter(x0).

    The rescaled initial state is centered, has diameter 1 and lies in the
    unit max-norm ball.  Raises DegenerateDiameter when diameter(x0) is 0.
    """
    pos = x0.positions
    diff = pos[:, None, :] - pos[None, :, :]
    diam = float(np.sqrt(np.einsum("ijc,ijc->ij", diff, diff)).max())
    if diam <= 0.0:
        raise DegenerateDiameter("cannot rescale a zero-diameter configuration")
    center = pos.mean(axis=0)
    return Trajectory((traj.times).copy(), (traj.states - center) / diam,
                      traj.signal_ref, traj.kernel_ref)
