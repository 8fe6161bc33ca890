"""Observables and decay certification along trajectories.

Diameter, variance and barycenter of configurations; the geometry check for
diameter-attaining pairs; per-window contraction factors; log-linear
exponential fits; and the variance dissipation identity for balanced linear
runs (dV/dt = -2 * Dirichlet energy).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (Configuration, Constant, Trajectory, diameters,
                       reduce_squared_distances)
from .errors import DimensionMismatch, InvalidPair, NonPositiveValue, SpanTooShort
from .graphs import squared_distances

PAIR_TOL = 1e-9
STRICT_MARGIN = 1e-12
CONSENSUS_FLOOR = 1e-10
_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class DecayFit:
    """Least-squares log-linear fit value(t) ~ alpha * value(0) * exp(-gamma t)."""

    alpha: float
    gamma: float
    rms_log_residual: float
    t_range: tuple

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "gamma": self.gamma,
            "rms_log_residual": self.rms_log_residual,
            "t_range": list(self.t_range),
        }


@dataclass(frozen=True, eq=False)
class ContractionReport:
    """Per-window observable ratios over a trajectory."""

    tau: float
    factors: np.ndarray
    kappa_hat: float
    all_strict: bool

    def to_json_dict(self) -> dict:
        return {
            "tau": self.tau,
            "factors": np.asarray(self.factors).tolist(),
            "kappa_hat": self.kappa_hat,
            "all_strict": self.all_strict,
        }


@dataclass(frozen=True, eq=False)
class DiameterPairSet:
    """Ordered index pairs attaining the diameter within tolerance."""

    pairs: frozenset
    value: float


def diameter(x: Configuration) -> float:
    """Maximum pairwise Euclidean distance (0 for a single agent)."""
    return float(diameters(x.positions))


def variance(x: Configuration) -> float:
    """Mean squared distance to the barycenter, (1/n) * sum |x_i - mean|^2."""
    centered = x.positions - x.positions.mean(axis=0)
    return float(np.einsum("ic,ic->", centered, centered) / x.n)


def mean(x: Configuration) -> np.ndarray:
    """Barycenter of the configuration, shape (d,)."""
    return x.positions.mean(axis=0)


def diameter_pairs(x: Configuration, tol: float = PAIR_TOL) -> DiameterPairSet:
    """All ordered pairs whose distance is within tol of the diameter."""
    if x.n < 2:
        raise ValueError("need at least two agents")
    dist = np.sqrt(squared_distances(x.positions))
    value = float(dist.max())
    ii, jj = np.nonzero(dist >= value - tol)
    pairs = frozenset((int(i), int(j)) for i, j in zip(ii, jj) if i != j)
    return DiameterPairSet(pairs, value)


def check_maximizer_geometry(x: Configuration, pair, y_index: int,
                             tol: float = PAIR_TOL) -> float:
    """Signed gap <x_i - x_y, x_i - x_j> for a diameter-attaining pair (i, j).

    Positive whenever x_y differs from x_i: points of the (current or any
    later) configuration lie strictly on the j-side of the maximizer i.
    Raises InvalidPair when (i, j) does not attain the diameter.
    """
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
    """Ratios value(t + tau) / value(t) at every sample whose endpoint is also
    a sample.  Window starts where the observable is below the consensus
    floor are skipped.  Raises SpanTooShort when the trajectory is shorter
    than tau.
    """
    if observable == "diameter":
        series = traj.diameters
    elif observable == "variance":
        series = traj.variances
    else:
        raise ValueError("observable must be 'diameter' or 'variance'")
    times = traj.times
    if times[-1] - times[0] + 1e-12 < tau:
        raise SpanTooShort(f"trajectory spans {times[-1] - times[0]}, need {tau}")

    targets = times + tau
    starts = np.flatnonzero(targets <= times[-1] + _MATCH_TOL)
    targets = targets[starts]
    # the endpoint is the sample just below the target if that matches, else
    # the one just above; clipping at either end only repeats the other index
    above = np.searchsorted(times, targets)
    below = np.maximum(above - 1, 0)
    above = np.minimum(above, len(times) - 1)
    hit_below = np.abs(times[below] - targets) <= _MATCH_TOL
    hit_above = np.abs(times[above] - targets) <= _MATCH_TOL
    ends = np.where(hit_below, below, above)
    keep = (hit_below | hit_above) & (series[starts] > CONSENSUS_FLOOR)
    factors = series[ends[keep]] / series[starts[keep]]
    kappa_hat = float(factors.max()) if factors.size else 0.0
    all_strict = bool(np.all(factors < 1.0 - STRICT_MARGIN)) if factors.size else True
    return ContractionReport(tau, factors, kappa_hat, all_strict)


def fit_exponential(times, values) -> DecayFit:
    """OLS fit of log(values / values[0]) against time.

    alpha = exp(intercept), gamma = -slope.  Requires at least 3 samples and
    strictly positive values (NonPositiveValue otherwise); callers should
    truncate a decaying series before it reaches the floor.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.size < 3:
        raise ValueError("need at least 3 samples to fit")
    if np.any(values <= 0.0):
        raise NonPositiveValue("fit requires strictly positive values")
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
                         fit: DecayFit | None) -> dict:
    """Combined per-run report: observable kind, contraction and fit."""
    return {"kind": kind, **contraction.to_json_dict(),
            "fit": fit.to_json_dict() if fit is not None else None}


def variance_dissipation_residual(traj: Trajectory, sig) -> float:
    """Max |centered-difference dV/dt + 2 * Dirichlet energy| over samples.

    Valid for unit-constant-kernel runs on balanced signals, where
    dV/dt = -2 E(A(t), x(t)) holds exactly.  Stencils spanning a topology
    switch (or uneven sample spacing) are skipped: the slope of V jumps
    there, so a centered difference does not estimate either one-sided value.
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
    switch_times, switch_piece = sig.piece_starts(float(times[-1]) + 1e-12)
    left, mid, right = times[:-2], times[1:-1], times[2:]
    even = np.abs((right - mid) - (mid - left)) <= 1e-9 * (right - left)
    # a switch strictly inside a stencil makes lo < hi
    lo = np.searchsorted(switch_times, left + 1e-12)
    hi = np.searchsorted(switch_times, right - 1e-12)
    mids = np.flatnonzero(even & (hi <= lo)) + 1
    if mids.size == 0:
        return 0.0
    slope = (var[mids + 1] - var[mids - 1]) / (times[mids + 1] - times[mids - 1])

    # Dirichlet energy (1/(2 n^2)) sum_ij a_ij |x_i - x_j|^2, batched per piece
    piece = switch_piece[np.searchsorted(switch_times, times[mids], side="right") - 1]
    energy = np.empty(mids.size)
    for k in np.unique(piece):
        sel = piece == k
        weights = sig.pieces[k].entries.ravel()
        energy[sel] = reduce_squared_distances(
            traj.states[mids[sel]], lambda sq, w=weights: (w * sq).sum(axis=1))
    energy /= 2.0 * traj.n**2
    return float(np.abs(slope + 2.0 * energy).max())
