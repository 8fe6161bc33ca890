"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the package's computational paths: the scrambling
oracle is a literal triple loop or one (n, n, n) min-broadcast per matrix,
the velocity field a literal double loop over agent pairs (stepped by a
plain RK4 loop) or one array expression per kernel (stepped by one RK4
expression per step), the connectivity oracles use either a dense symmetric
eigensolver with the constant direction shifted away, one Householder
projection and eigensolver call per matrix, or brute-force Rayleigh-quotient
minimization over direction grids, and window averages are cross-checked by
Riemann summation or by a scalar integral that walks one time at a time.
Piece starts come from a per-lap loop, the piece at a time from a forward
walk over those starts, and the step grid from a walk that merges one
candidate time at a time.  Window contraction factors and the variance
dissipation residual are literal per-sample loops (the residual also a
batched energy per piece), their energies and pair distances the per-sample
indexed gathers of `dirichlet_energies_loop`, diameters a full
(T, n, n, d) broadcast, and CSV output a per-cell f-string writer.  The
signal generators are rebuilt one AdjacencyMatrix per piece, and the
cumulative integrals by one `np.cumsum` over the whole stack.
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


def velocity_expression(adj, kernel):
    """The velocity field of `_kernels._velocity` as one expression per
    kernel, on coordinate-major positions of shape (..., d, n)."""
    if isinstance(kernel, cl.Constant):
        deg = adj.sum(axis=-1)
        adj_t = adj.T
        return lambda pos: kernel.c * (pos @ adj_t - deg * pos) / pos.shape[-1]

    def field(pos):
        diff = pos[..., None, :] - pos[..., :, None]  # diff[c, i, j] = x_j - x_i
        r2 = np.einsum("...cij,...cij->...ij", diff, diff)
        w = adj * (kernel.K / (1.0 + r2) ** kernel.beta)
        return np.einsum("...ij,...cij->...ci", w, diff) / pos.shape[-1]
    return field


def rk4_expression(x0, pieces, piece_idx, hs, rec, kernel):
    """Every state `_kernels.rk4_run` records, shape (recorded,) + x0.shape:
    one RK4 step expression on `velocity_expression` per step, with the
    step data read as numpy scalars."""
    x = np.swapaxes(x0, -1, -2).copy()
    out = [np.array(x0, dtype=np.float64)] if rec[0] else []
    fields = {}
    for s in range(hs.shape[0]):
        h = hs[s]
        p = piece_idx[s]
        if p not in fields:
            fields[p] = velocity_expression(pieces[p], kernel)
        f = fields[p]
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if rec[s + 1]:
            out.append(np.swapaxes(x, -1, -2).copy())
    return np.stack(out)


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
    """Left-endpoint Riemann sum of (1/tau) * integral A over [t, t+tau],
    each node's piece found by `pieces_at_loop`."""
    h = tau / steps
    nodes = [t + k * h for k in range(steps)]
    total = np.zeros((sig.n, sig.n))
    for p in pieces_at_loop(sig, nodes):
        total += sig.pieces[p].entries
    avg = total * h / tau
    np.fill_diagonal(avg, 1.0)
    return avg


def integral_scalar(sig, t):
    """Entrywise integral of the signal over [0, t] for one time t >= 0,
    from Python `divmod` laps (periodic) or an explicit clamped tail, and
    the `cumulative_cumsum` integrals up to each breakpoint."""
    bp = sig.breakpoints
    cum = np.concatenate([np.zeros((1, sig.n, sig.n)), cumulative_cumsum(sig)])
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


def pieces_at_loop(sig, times):
    """The index of the piece active at each of the ascending times >= 0
    (right-continuous): the piece of the last `breakpoint_events_loop` start
    at or before it, walking the starts forward once."""
    ev_t, ev_p = breakpoint_events_loop(sig, np.nextafter(times[-1], np.inf))
    e = 0
    pieces = []
    for t in times:
        while e + 1 < len(ev_t) and ev_t[e + 1] <= t:
            e += 1
        pieces.append(int(ev_p[e]))
    return pieces


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


def variances_whole(states):
    """Variance of every sample of (T, n, d) states from one whole-record
    expression, as `Trajectory.variances` took it before it went by chunks."""
    centered = states - states.mean(axis=1, keepdims=True)
    return np.einsum("tic,tic->t", centered, centered) / states.shape[1]


def csv_per_cell(path, header, times, rows):
    """Header, then `t, row...` lines, each cell formatted on its own as
    f"{v:.17g}"."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for t, row in zip(times, rows):
            cells = [f"{t:.17g}"] + [f"{v:.17g}" for v in row]
            fh.write(",".join(cells) + "\n")


def repr_join(values, sep):
    """`sep` between Python's repr of each value, one float at a time."""
    return sep.join(repr(float(v)) for v in values)


def contraction_factors_loop(times, series, tau, match_tol=1e-9, floor=1e-10):
    """series(t + tau) / series(t) per sample t whose endpoint matches a sample
    within match_tol (the one just below the target first), skipping starts
    with series(t) <= floor * max(series); stops at the first endpoint past
    the last sample."""
    floor *= max(series)
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
    takes each state's piece from `pieces_at_loop` and its energy from
    `dirichlet_energies_loop`."""
    times = traj.times
    var = traj.variances
    switch_times, _ = breakpoint_events_loop(sig, float(times[-1]) + 1e-12)
    pieces = pieces_at_loop(sig, times)
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
        energy = float(dirichlet_energies_loop(sig.pieces[pieces[i]].entries,
                                               traj.states[i]))
        worst = max(worst, abs(slope + 2.0 * energy))
    return worst


def dissipation_residual_per_piece(traj, sig):
    """The dissipation residual as one batched energy per piece, summing the
    weighted `pair_squares_indexed` of each piece's samples per sample, as
    `variance_dissipation_residual` took it before it walked chunks, over
    the piece starts of `breakpoint_events_loop`.

    Its sums are per sample, pairwise over the contiguous pairs of each
    sample, however many samples a piece holds: `pair_squares_indexed`
    keeps each sample's pairs contiguous.
    """
    times = traj.times
    var = traj.variances
    switch_times, switch_piece = breakpoint_events_loop(sig,
                                                        float(times[-1]) + 1e-12)
    left, mid, right = times[:-2], times[1:-1], times[2:]
    even = np.abs((right - mid) - (mid - left)) <= 1e-9 * (right - left)
    lo = np.searchsorted(switch_times, left + 1e-12)
    hi = np.searchsorted(switch_times, right - 1e-12)
    mids = np.flatnonzero(even & (hi <= lo)) + 1
    if mids.size == 0:
        return 0.0
    slope = (var[mids + 1] - var[mids - 1]) / (times[mids + 1] - times[mids - 1])
    piece = switch_piece[np.searchsorted(switch_times, times[mids], side="right") - 1]
    energy = np.empty(mids.size)
    for k in np.unique(piece):
        sel, adj = piece == k, sig.piece_stack[k]
        weights = (adj + adj.T)[np.triu_indices(traj.n, 1)]
        energy[sel] = (weights * pair_squares_indexed(traj.states[mids[sel]])
                       ).sum(axis=1)
    energy /= 2.0 * traj.n**2
    return float(np.abs(slope + 2.0 * energy).max())


def rotating_star_loop(n, dwell):
    """`gen_rotating_star` built one `AdjacencyMatrix.star` per piece."""
    pieces = tuple(cl.AdjacencyMatrix.star(n, k) for k in range(n))
    breakpoints = dwell * np.arange(n + 1, dtype=np.float64)
    return cl.PiecewiseConstantSignal(n, breakpoints, pieces, PERIODIC)


def blinking_pairs_loop(n, dwell, duty):
    """`gen_blinking_pairs` built by a round-robin loop (circle method: fix
    player n-1, rotate the rest), one AdjacencyMatrix per piece."""
    rounds = []
    for r in range(n - 1):
        pairs = [(n - 1, r)]
        for i in range(1, n // 2):
            pairs.append(((r + i) % (n - 1), (r - i) % (n - 1)))
        rounds.append(pairs)
    identity = cl.AdjacencyMatrix.identity(n)
    pieces = []
    breakpoints = [0.0]
    for r, pairs in enumerate(rounds):
        entries = np.eye(n)
        for i, j in pairs:
            entries[i, j] = 1.0
            entries[j, i] = 1.0
        pieces.append(cl.AdjacencyMatrix(n, entries))
        if duty < 1:
            breakpoints.append(r * dwell + duty * dwell)
            pieces.append(identity)
        breakpoints.append((r + 1) * dwell)
    return cl.PiecewiseConstantSignal(n, np.asarray(breakpoints), tuple(pieces),
                                      PERIODIC)


def cumulative_cumsum(sig):
    """Integrals of the signal over [0, breakpoints[k]] for k >= 1, from one
    `np.cumsum` over the duration-weighted stack."""
    durations = np.diff(sig.breakpoints)
    return np.cumsum(durations[:, None, None] * sig.piece_stack, axis=0)


def pair_squares_indexed(positions):
    """|x_i - x_j|^2 over the pairs i < j, one (n, d) sample at a time,
    gathered by advanced indexing and summed over the coordinates by
    einsum."""
    n = positions.shape[-2]
    i, j = np.triu_indices(n, 1)
    flat = positions.reshape(-1, n, positions.shape[-1])
    out = np.empty((len(flat), len(i)))
    for s, x in enumerate(flat):
        diff = x[i] - x[j]
        out[s] = np.einsum("pc,pc->p", diff, diff)
    return out.reshape(positions.shape[:-2] + (len(i),))


def dirichlet_energies_loop(entries, positions):
    """(1/(2 n^2)) * sum over i < j of (a_ij + a_ji) |x_i - x_j|^2, one
    sample at a time: the pair weights by advanced indexing, the squares by
    `pair_squares_indexed` and one contiguous sum over the pairs."""
    n = entries.shape[-1]
    i, j = np.triu_indices(n, 1)
    shape = np.broadcast_shapes(entries.shape[:-2], positions.shape[:-2])
    entries = np.broadcast_to(entries, shape + (n, n)).reshape(-1, n, n)
    positions = np.broadcast_to(positions, shape + positions.shape[-2:])
    squares = pair_squares_indexed(positions).reshape(len(entries), -1)
    out = np.empty(len(entries))
    for s, (a, sq) in enumerate(zip(entries, squares)):
        out[s] = ((a[i, j] + a[j, i]) * sq).sum() / (2.0 * n**2)
    return out.reshape(shape)


def build_grid_loop(sig, t_end, dt, forced_times):
    """`dynamics._build_grid` as one Python walk over the sorted candidates
    (the piece starts of `breakpoint_events_loop`, forced and uniform
    times): each is merged into the last grid point kept when within
    1e-9 * dt of it, a breakpoint replacing that point's value, else starts
    a new one."""
    ev_t, ev_p = breakpoint_events_loop(sig, t_end)
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
