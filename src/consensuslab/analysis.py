"""Observables and decay certification along trajectories.

Diameter, variance and barycenter of configurations; the geometry check for
diameter-attaining pairs; per-window contraction factors; log-linear
exponential fits; and the variance dissipation identity for balanced linear
runs (dV/dt = -2 * Dirichlet energy).
"""
from __future__ import annotations

import numpy as np

from ._kernels import Constant, Record, ValueRecord
from .dynamics import (Configuration, Trajectory, diameters, sample_slices,
                       variances)
from .errors import DimensionMismatch, InvalidPair, NonPositiveValue, SpanTooShort
from .graphs import dirichlet_energies, pair_indices, pair_squared_distances

PAIR_TOL = 1e-9
STRICT_MARGIN = 1e-12
CONSENSUS_FLOOR = 1e-10  # of a series' largest value
_MATCH_TOL = 1e-9  # of tau: how near a sample a window's end is matched


class DecayFit(ValueRecord):
    """Least-squares log-linear fit value(t) ~ alpha * value(0) * exp(-gamma t)."""

    _fields = ("alpha", "gamma", "rms_log_residual", "t_range")

    def to_json_dict(self) -> dict:
        return dict(vars(self), t_range=list(self.t_range))


class ContractionReport(Record):
    """Per-window observable ratios over a trajectory."""

    _fields = ("tau", "factors", "kappa_hat", "all_strict")

    def to_json_dict(self) -> dict:
        """The fields by name, `factors` the array itself: `cli._write_json`
        prints a float64 array as the list of its floats."""
        return dict(vars(self))


class DiameterPairSet(Record):
    """Ordered index pairs attaining the diameter within tolerance."""

    _fields = ("pairs", "value")


def diameter(x: Configuration) -> float:
    """Maximum pairwise Euclidean distance (0 for a single agent)."""
    return float(diameters(x.positions))


def variance(x: Configuration) -> float:
    """Mean squared distance to the barycenter, (1/n) * sum |x_i - mean|^2."""
    return float(variances(x.positions))


def mean(x: Configuration) -> np.ndarray:
    """Barycenter of the configuration, shape (d,)."""
    return x.positions.mean(axis=0)


def diameter_pairs(x: Configuration, tol: float = PAIR_TOL) -> DiameterPairSet:
    """All ordered pairs whose distance is within tol of the diameter."""
    if x.n < 2:
        raise ValueError("need at least two agents")
    if not tol >= 0:  # NaN too
        raise ValueError("tol must be >= 0")
    dist = np.sqrt(pair_squared_distances(x.positions))
    value = float(dist.max())
    near = dist >= value - tol
    ii, jj = (idx[near].tolist() for idx in pair_indices(x.n))
    return DiameterPairSet(frozenset(zip(ii + jj, jj + ii)), value)


def check_maximizer_geometry(x: Configuration, pair, y_index: int,
                             tol: float = PAIR_TOL) -> float:
    """Signed gap <x_i - x_y, x_i - x_j> for a diameter-attaining pair (i, j).

    Positive whenever x_y differs from x_i: points of the (current or any
    later) configuration lie strictly on the j-side of the maximizer i.
    Raises InvalidPair when (i, j) does not attain the diameter.
    """
    if not tol >= 0:  # NaN too
        raise ValueError("tol must be >= 0")
    i, j = pair
    pos = x.positions
    delta = pos[i] - pos[j]
    if abs(float(np.linalg.norm(delta)) - diameter(x)) > tol:
        raise InvalidPair(f"pair {pair} does not attain the diameter")
    if y_index == i or np.array_equal(pos[y_index], pos[i]):
        raise ValueError("test point must differ from the maximizer x_i")
    return float(np.dot(pos[i] - pos[y_index], delta))


def window_contraction(traj: Trajectory, tau: float,
                       observable: str = "diameter") -> ContractionReport:
    """`series_contraction` of the trajectory's diameters or variances."""
    if observable == "diameter":
        series = traj.diameters
    elif observable == "variance":
        series = traj.variances
    else:
        raise ValueError("observable must be 'diameter' or 'variance'")
    return series_contraction(traj.times, series, tau)


def series_contraction(times, series, tau: float) -> ContractionReport:
    """Ratios value(t + tau) / value(t) of a series sampled at ``times`` at
    every sample whose endpoint is also a sample.  Window starts where the
    value is at most CONSENSUS_FLOOR times the series' largest value are
    skipped, so a series times 2^k gives the same report.  tau must be
    finite and > 0, as a `Window`'s is.  Raises SpanTooShort when the
    samples span less than tau.
    """
    if not 0 < tau < np.inf:
        raise ValueError("tau must be finite and > 0")
    if times[-1] - times[0] + 1e-12 * tau < tau:
        raise SpanTooShort(f"trajectory spans {times[-1] - times[0]}, need {tau}")

    tol = _MATCH_TOL * tau
    targets = times + tau
    starts = np.flatnonzero(targets <= times[-1] + tol)
    targets = targets[starts]
    # the endpoint is the sample just below the target if that matches, else
    # the one just above; clipping at either end only repeats the other index
    above = np.searchsorted(times, targets)
    below = np.maximum(above - 1, 0)
    above = np.minimum(above, len(times) - 1)
    hit_below = np.abs(times[below] - targets) <= tol
    hit_above = np.abs(times[above] - targets) <= tol
    ends = np.where(hit_below, below, above)
    floor = CONSENSUS_FLOOR * np.fmax.reduce(series)  # fmax skips NaN
    keep = (hit_below | hit_above) & (series[starts] > floor)
    factors = series[ends[keep]] / series[starts[keep]]
    kappa_hat = float(factors.max()) if factors.size else 0.0
    all_strict = bool(np.all(factors < 1.0 - STRICT_MARGIN)) if factors.size else True
    return ContractionReport(tau, factors, kappa_hat, all_strict)


def fit_exponential(times, values) -> DecayFit:
    """OLS fit of log(values / values[0]) against time.

    alpha = exp(intercept), gamma = -slope.  Requires at least 3 samples and
    strictly positive values (NonPositiveValue otherwise) and finite times
    and values (ValueError otherwise); callers should truncate a decaying
    series before it reaches the floor.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.size < 3:
        raise ValueError("need at least 3 samples to fit")
    if np.any(values <= 0.0):
        raise NonPositiveValue("fit requires strictly positive values")
    if not (np.isfinite(times).all() and np.isfinite(values).all()):
        raise ValueError("fit requires finite times and values")
    y = np.log(values / values[0])
    slope, intercept = np.polyfit(times, y, 1)
    resid = y - (intercept + slope * times)
    return DecayFit(
        alpha=float(np.exp(intercept)),
        gamma=float(-slope),
        rms_log_residual=float(np.sqrt(np.mean(resid**2))),
        t_range=(float(times[0]), float(times[-1])),
    )


def analysis_report_json(kind: str, contraction: ContractionReport,
                         fit: DecayFit) -> dict:
    """Combined per-run report: observable kind, contraction and fit."""
    return {"kind": kind, **contraction.to_json_dict(), "fit": fit.to_json_dict()}


def variance_dissipation_residual(traj: Trajectory, sig) -> float:
    """Max |centered-difference dV/dt + 2 * Dirichlet energy| over samples.

    Valid for unit-constant-kernel runs on balanced signals, where
    dV/dt = -2 E(A(t), x(t)) holds exactly.  Stencils spanning a topology
    switch (or uneven sample spacing) are skipped: the slope of V jumps
    there, so a centered difference does not estimate either one-sided value.
    The energies are `graphs.dirichlet_energies` of a chunk of samples at a
    time and of their pieces by `pieces_at`, so memory scales with the chunk.
    Contract: residual = O(dt^2) + O(sample spacing^2).
    """
    kernel = traj.kernel_ref
    if not (isinstance(kernel, Constant) and kernel.c == 1.0):
        raise ValueError("dissipation identity requires the constant unit kernel")
    sig.require_balanced()
    if sig.n != traj.n:
        raise DimensionMismatch(f"signal n={sig.n}, trajectory n={traj.n}")

    times = traj.times
    var = traj.variances
    switch_times, _ = sig.piece_starts(float(times[-1]))
    left, mid, right = times[:-2], times[1:-1], times[2:]
    even = np.abs((right - mid) - (mid - left)) <= 1e-9 * (right - left)
    # a switch inside a stencil, by a slack relative to its width, makes lo < hi
    slack = 1e-12 * (right - left)
    lo = np.searchsorted(switch_times, left + slack, side="right")
    hi = np.searchsorted(switch_times, right - slack)
    mids = np.flatnonzero(even & (hi <= lo)) + 1
    if mids.size == 0:
        return 0.0
    slope = (var[mids + 1] - var[mids - 1]) / (times[mids + 1] - times[mids - 1])

    piece = sig.pieces_at(times[mids])
    energy = np.empty(mids.size)
    for part in sample_slices(mids.size, traj.n * (traj.n - 1) // 2 * traj.d):
        energy[part] = dirichlet_energies(sig.piece_stack[piece[part]],
                                          traj.states[mids[part]])
    return float(np.abs(slope + 2.0 * energy).max())
