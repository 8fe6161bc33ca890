"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the package's computational paths: the scrambling
oracle is a literal triple loop or one (n, n, n) min-broadcast per matrix,
the velocity field a literal double loop over agent pairs (stepped by a
plain RK4 loop), the connectivity oracles use either a dense symmetric
eigensolver with the constant direction shifted away, one Householder
projection and eigensolver call per matrix, or brute-force Rayleigh-quotient
minimization over direction grids, and window averages are cross-checked by
Riemann summation or by a scalar integral that walks one time at a time.
Piece starts come from a per-lap loop.  Window contraction factors and the
variance dissipation residual are literal per-sample loops, diameters a full
(T, n, n, d) broadcast, and CSV output a per-cell f-string writer.
"""
import numpy as np

import consensuslab as cl
from consensuslab.signals import PERIODIC


def scrambling_direct(entries):
    """Literal evaluation: min over ordered (i, j) of (1/n) sum_k min(a_ik, a_jk)."""
    n = len(entries)
    best = None
    for i in range(n):
        for j in range(n):
            total = 0.0
            for k in range(n):
                total += min(entries[i][k], entries[j][k])
            if best is None or total < best:
                best = total
    return best / n


def scrambling_broadcast(entries):
    """Scrambling coefficient of one matrix from a full (n, n, n) broadcast of
    min(a_ik, a_jk), summed over k."""
    entries = np.asarray(entries, dtype=np.float64)
    n = entries.shape[0]
    pair_sums = np.minimum(entries[:, None, :], entries[None, :, :]).sum(axis=2)
    return float(pair_sums.min() / n)


def rhs_direct(pos, adj, kernel):
    """Literal velocity field: (1/n) sum_j a_ij phi(|x_i - x_j|) (x_j - x_i),
    phi = c for a `Constant` kernel, else K / (1 + r^2)^beta."""
    constant = isinstance(kernel, cl.Constant)
    n, d = pos.shape
    out = np.zeros((n, d))
    for i in range(n):
        for j in range(n):
            a = adj[i, j]
            if a == 0.0:
                continue
            r2 = 0.0
            for c in range(d):
                diff = pos[j, c] - pos[i, c]
                r2 += diff * diff
            w = (a * kernel.c if constant
                 else a * kernel.K / (1.0 + r2) ** kernel.beta)
            for c in range(d):
                out[i, c] += w * (pos[j, c] - pos[i, c])
    return out / n


def rk4_direct(x0, adj, h, steps, kernel):
    """Classical RK4 on `rhs_direct` with one adjacency; every state, (steps+1, n, d)."""
    states = [np.array(x0, dtype=np.float64)]
    for _ in range(steps):
        x = states[-1]
        k1 = rhs_direct(x, adj, kernel)
        k2 = rhs_direct(x + 0.5 * h * k1, adj, kernel)
        k3 = rhs_direct(x + 0.5 * h * k2, adj, kernel)
        k4 = rhs_direct(x + h * k3, adj, kernel)
        states.append(x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.stack(states)


def laplacian_sym(entries):
    entries = np.asarray(entries, dtype=np.float64)
    n = entries.shape[0]
    lap = (np.diag(entries.sum(axis=1)) - entries) / n
    return 0.5 * (lap + lap.T)


def lambda2_eigh(entries):
    """Connectivity via numpy's dense symmetric eigensolver: shift the
    constant direction above the spectrum, take the smallest eigenvalue."""
    sym = laplacian_sym(entries)
    n = sym.shape[0]
    if n == 1:
        return 0.0
    shifted = sym + 3.0 * np.ones((n, n)) / n
    return float(np.linalg.eigvalsh(shifted)[0])


def lambda2_householder(entries):
    """Connectivity of one balanced matrix: the symmetric part of
    (diag(out_degrees) - A)/n, reflected by the Householder matrix sending
    ones/sqrt(n) to the first basis vector, first row and column dropped,
    then one `eigvalsh` call; negative roundoff is clamped to 0."""
    entries = np.asarray(entries, dtype=np.float64)
    n = entries.shape[0]
    if n == 1:
        return 0.0
    lap = (np.diag(entries.sum(axis=1)) - entries) / n
    sym = 0.5 * (lap + lap.T)
    v = np.full(n, 1.0 / np.sqrt(n))
    v[0] -= 1.0
    h = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
    return max(float(np.linalg.eigvalsh((h @ sym @ h)[1:, 1:])[0]), 0.0)


def _complement_basis(n):
    # orthonormal basis of the complement of constants, via QR (not Householder)
    cols = np.concatenate([np.ones((n, 1)) / np.sqrt(n), np.eye(n)[:, : n - 1]],
                          axis=1)
    q, _ = np.linalg.qr(cols)
    return q[:, 1:]


def _angle_directions(grids, m):
    mesh = np.meshgrid(*grids, indexing="ij")
    angles = np.stack([g.ravel() for g in mesh], axis=1)
    w = np.ones((angles.shape[0], m))
    for k in range(m - 1):
        w[:, k] *= np.cos(angles[:, k])
        w[:, k + 1:] *= np.sin(angles[:, k])[:, None]
    return w, angles


def _grid_min_quadratic(bmat, coarse, refine, stages, top):
    """Brute-force min of w^T B w over unit vectors w by refined angle grids.

    Refines around the best `top` mutually separated coarse candidates, so a
    near-degenerate second eigendirection cannot crowd the true minimizer out
    of the refinement region.
    """
    m = bmat.shape[0]
    if m == 1:
        return float(bmat[0, 0])

    lo = np.zeros(m - 1)
    hi = np.full(m - 1, np.pi)
    hi[-1] = 2 * np.pi
    grids = [np.linspace(lo[k], hi[k], coarse) for k in range(m - 1)]
    w, angles = _angle_directions(grids, m)
    vals = np.einsum("ki,ij,kj->k", w, bmat, w)
    spans = (hi - lo) / (coarse - 1)

    order = np.argsort(vals)
    centres = []
    for idx in order[: 50 * top]:
        a = angles[idx]
        if all(np.abs(a - c).max() > 4 * spans.max() for c in centres):
            centres.append(a)
        if len(centres) == top:
            break

    best = float(vals[order[0]])
    for centre in centres:
        c_lo, c_hi = centre - 2 * spans, centre + 2 * spans
        for _ in range(stages):
            grids = [np.linspace(c_lo[k], c_hi[k], refine)
                     for k in range(m - 1)]
            w, angles = _angle_directions(grids, m)
            vals = np.einsum("ki,ij,kj->k", w, bmat, w)
            idx = int(np.argmin(vals))
            best = min(best, float(vals[idx]))
            span = (c_hi - c_lo) / (refine - 1)
            c_lo = angles[idx] - 2 * span
            c_hi = angles[idx] + 2 * span
    return best


def lambda2_rayleigh_grid(entries, coarse=None, refine=61, stages=3, top=5):
    """Connectivity by Rayleigh-quotient grid minimization over unit vectors
    orthogonal to constants (projected to the complement, then angle grids)."""
    entries = np.asarray(entries, dtype=np.float64)
    n = entries.shape[0]
    if n == 1:
        return 0.0
    basis = _complement_basis(n)
    bmat = basis.T @ laplacian_sym(entries) @ basis
    if coarse is None:
        coarse = {1: 2, 2: 4001, 3: 401, 4: 61}[n - 1]
    return _grid_min_quadratic(bmat, coarse, refine, stages, top)


def riemann_window_average(sig, t, tau, steps=10_000):
    """Left-endpoint Riemann sum of (1/tau) * integral A over [t, t+tau]."""
    h = tau / steps
    total = np.zeros((sig.n, sig.n))
    for k in range(steps):
        total += sig.pieces[sig.piece_index_at(t + k * h)].entries
    avg = total * h / tau
    np.fill_diagonal(avg, 1.0)
    return avg


def integral_scalar(sig, t):
    """Entrywise integral of the signal over [0, t] for one time t >= 0,
    from Python `divmod` laps (periodic) or an explicit clamped tail."""
    bp = sig.breakpoints
    cum = sig._cumulative
    if sig.mode == PERIODIC:
        laps, rem = divmod(t, sig.period)
        total = laps * cum[-1]
    else:
        total = 0.0
        rem = t
        if rem > bp[-1]:
            total = (rem - bp[-1]) * sig.piece_stack[-1]
            rem = bp[-1]
    idx = min(max(int(np.searchsorted(bp, rem, side="right")) - 1, 0),
              len(sig.pieces) - 1)
    return total + cum[idx] + (rem - bp[idx]) * sig.piece_stack[idx]


def window_average_scalar(sig, t, tau):
    """(1/tau) * integral A over [t, t+tau] from two `integral_scalar` calls,
    clipped to [0, 1] with a unit diagonal."""
    avg = (integral_scalar(sig, t + tau) - integral_scalar(sig, t)) / tau
    np.clip(avg, 0.0, 1.0, out=avg)
    np.fill_diagonal(avg, 1.0)
    return avg


def breakpoint_events_loop(sig, t_end):
    """(times, piece indices) of every piece start inside [0, t_end), walking
    the laps of a periodic signal one piece at a time."""
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


def two_agent_closed_form(times, x0=(-1.0, 1.0)):
    """Exact solution for two agents, all-ones graph, unit constant kernel:
    the gap obeys delta' = -delta, the mean is conserved."""
    times = np.asarray(times, dtype=np.float64)
    mean = 0.5 * (x0[0] + x0[1])
    half_gap = 0.5 * (x0[1] - x0[0]) * np.exp(-times)
    return np.stack([mean - half_gap, mean + half_gap], axis=1)


def diameters_broadcast(states):
    """Diameter of every sample of (T, n, d) states from one unchunked broadcast."""
    diff = states[:, :, None, :] - states[:, None, :, :]
    dist = np.sqrt(np.einsum("tijc,tijc->tij", diff, diff))
    return dist.reshape(len(states), -1).max(axis=1)


def csv_per_cell(path, header, times, rows):
    """Header, then `t, row...` lines, each cell formatted on its own as
    f"{v:.17g}"."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for t, row in zip(times, rows):
            cells = [f"{t:.17g}"] + [f"{v:.17g}" for v in row]
            fh.write(",".join(cells) + "\n")


def contraction_factors_loop(times, series, tau, match_tol=1e-9, floor=1e-10):
    """series(t + tau) / series(t) per sample t whose endpoint matches a sample
    within match_tol (the one just below the target first), skipping starts
    with series(t) <= floor; stops at the first endpoint past the last sample."""
    factors = []
    for i, t in enumerate(times):
        target = t + tau
        if target > times[-1] + match_tol:
            break
        j = int(np.searchsorted(times, target))
        for cand in (j - 1, j):
            if 0 <= cand < len(times) and abs(times[cand] - target) <= match_tol:
                if series[i] > floor:
                    factors.append(series[cand] / series[i])
                break
    return np.asarray(factors)


def dissipation_residual_loop(traj, sig):
    """Max |centered dV/dt + 2 * Dirichlet energy| by a per-sample loop that
    builds each state's Configuration and calls `dirichlet_energy`."""
    times = traj.times
    var = traj.variances
    switch_times, _ = breakpoint_events_loop(sig, float(times[-1]) + 1e-12)
    worst = 0.0
    for i in range(1, len(times) - 1):
        left, right = times[i - 1], times[i + 1]
        if abs((right - times[i]) - (times[i] - left)) > 1e-9 * (right - left):
            continue
        lo = np.searchsorted(switch_times, left + 1e-12)
        hi = np.searchsorted(switch_times, right - 1e-12)
        if hi > lo:  # a switch lies strictly inside the stencil
            continue
        slope = (var[i + 1] - var[i - 1]) / (right - left)
        energy = cl.dirichlet_energy(cl.evaluate(sig, float(times[i])),
                                     traj.state(i))
        worst = max(worst, abs(slope + 2.0 * energy))
    return worst
