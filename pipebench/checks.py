"""Output checks behind `failed`: run after the timed region, never inside.

Each check reads what a pipeline call wrote and returns a list of problems
(empty when the output is correct).  Besides the verdicts in summary.json it
compares against oracles that do not use the program's numerics:

- verify: an independent batched numpy RK4 of the whole sweep, giving every
  run's contraction factor and decay rate;
- certify: lambda2 from `np.linalg.eigvalsh` and eta from a direct min-sum at
  the reported worst start, and a seeded scan of random starts that must
  never read below the reported infimum;
- simulate: an independent linear RK4 (x' = -c L(t) x), mean conservation and
  the variance dissipation identity on the written trajectory.csv.

Numeric summary fields are also compared with `reference.json`, recorded
from the seed commit by `record_reference.py`, when it holds the seed.
"""
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SCAN_STARTS = 64


def _close(a, b, rel=REL_TOL, abs_tol=1e-12):
    return a is not None and b is not None and math.isclose(
        float(a), float(b), rel_tol=rel, abs_tol=abs_tol)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _reference(workload, seed):
    """Recorded fields for this workload and seed, or None if not recorded."""
    if not REFERENCE.exists():
        return None
    table = _read_json(REFERENCE).get(workload, {})
    return table.get("any", table.get(str(seed)))


def _compare(problems, label, got, want, abs_tol=1e-12):
    for key, value in want.items():
        if not _close(got.get(key), value, abs_tol=abs_tol):
            problems.append(f"{label} {key}={got.get(key)!r}, expected {value!r}")


def _growth(summary):
    """Largest diameter increase between samples, as simulate reports it."""
    return next(c["value"] for c in summary["checks"]
                if c["name"] == "diameter_nonincreasing")


def _compare_growth(problems, label, growth, want, diameter):
    """Growth is a difference of two diameters, so its rounding error scales
    with the diameter, not with the growth itself."""
    _compare(problems, label, {"growth": growth}, {"growth": want},
             abs_tol=REL_TOL * diameter)


def reference_fields(workload, out_dir):
    """The numeric fields of an output that `reference.json` records."""
    out = Path(out_dir)
    summary = _read_json(out / "summary.json")
    if workload == "sweep_cs_n5":
        return {k: summary[k] for k in ("persistence_infimum", "worst_kappa_hat",
                                        "worst_gamma", "gamma_from_kappa")}
    if workload == "certify_pairs_n32":
        fields = {}
        for kind in ("eta", "lambda2"):
            report = _read_json(out / f"persistence_{kind}.json")
            # not worst_start: many starts reach the same infimum, and rounding
            # decides which is reported; the oracle checks the value there
            for key in ("infimum_value", "checked_starts"):
                fields[f"{kind}.{key}"] = report[key]
        return fields
    obs = np.loadtxt(out / "observables.csv", delimiter=",", skiprows=1)
    return {"growth": _growth(summary),
            "final_diameter": float(obs[-1, 1]), "final_variance": float(obs[-1, 2])}


def check(workload, seed, data, out_dir, reference=True):
    """Problems found in the output of one pipeline call (empty = correct);
    `reference=False` skips the comparison with `reference.json`."""
    out = Path(out_dir)
    summary = _read_json(out / "summary.json")
    problems = [f"check {c['name']} reads {c['verdict']}"
                for c in summary["checks"] if c["verdict"] != "pass"]
    problems += CHECKS[workload](seed, data, out, summary)
    want = _reference(workload, seed) if reference else None
    if want is not None:
        got, want = reference_fields(workload, out), dict(want)
        if "growth" in want:
            _compare_growth(problems, "reference", got.pop("growth"), want.pop("growth"),
                            want["final_diameter"])
        _compare(problems, "reference", got, want)
    return problems


# --- verify --------------------------------------------------------------

def _draw_unit_ball(n, d, count, seed):
    """The sweep's documented draw: Philox(seed), uniform in the unit ball."""
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    draws = []
    for _ in range(count):
        direction = rng.normal(size=(n, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = rng.random(n) ** (1.0 / d)
        draws.append(direction * radius[:, None])
    return np.stack(draws)


def _diameters(x):
    """Diameter of every configuration in a (..., n, d) stack."""
    diff = x[..., :, None, :] - x[..., None, :, :]
    return np.sqrt((diff**2).sum(-1)).max(axis=(-1, -2))


def _star_stack(n):
    stars = np.repeat(np.eye(n)[None], n, axis=0)
    for k in range(n):
        stars[k, k, :] = 1.0
        stars[k, :, k] = 1.0
    return stars


def _aligned_steps(data):
    """(steps, steps per dwell, steps per window); the oracles need a grid
    on which every switch and window end is a uniform step."""
    run, dt = data["run"], data["run"]["dt"]
    counts = [run["t_end"] / dt, data["signal"]["dwell"] / dt, data["window"]["tau"] / dt]
    rounded = [round(c) for c in counts]
    if any(abs(c - r) > 1e-9 for c, r in zip(counts, rounded)):
        raise ValueError("oracle needs t_end, dwell and tau on the dt grid")
    return rounded


def _rk4_states(x, rhs, pieces, steps, per_piece, dt):
    """Classic RK4 through the periodic piece schedule; yields every state."""
    yield x
    for s in range(steps):
        adj = pieces[(s // per_piece) % len(pieces)]
        k1 = rhs(x, adj)
        k2 = rhs(x + 0.5 * dt * k1, adj)
        k3 = rhs(x + 0.5 * dt * k2, adj)
        k4 = rhs(x + dt * k3, adj)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield x


def _check_verify(seed, data, out, summary):
    system, sweep = data["system"], data["sweep"]
    n, d = system["n"], system["d"]
    K, beta = system["kernel"]["K"], system["kernel"]["beta"]
    steps, per_piece, per_window = _aligned_steps(data)
    dt = data["run"]["dt"]

    x0 = _draw_unit_ball(n, d, sweep["num_initial"], seed)
    x0 = (x0 - x0.mean(axis=1, keepdims=True)) / _diameters(x0)[:, None, None]

    def rhs(x, adj):
        diff = x[:, None, :, :] - x[:, :, None, :]  # x_j - x_i at [b, i, j]
        w = adj * K / (1.0 + (diff**2).sum(-1)) ** beta
        return (w[..., None] * diff).sum(axis=2) / n

    diam = np.array([_diameters(x) for x in
                     _rk4_states(x0, rhs, _star_stack(n), steps, per_piece, dt)])

    times = dt * np.arange(steps + 1)
    problems = []
    runs = summary["runs"]
    if len(runs) != len(x0):
        return [f"summary has {len(runs)} runs, expected {len(x0)}"]
    for b, run in enumerate(runs):
        series = diam[:, b]
        start = series[:-per_window]
        ratios = series[per_window:][start > 1e-10] / start[start > 1e-10]
        keep = series > 1e-14 * series[0]
        slope = np.polyfit(times[keep], np.log(series[keep] / series[0]), 1)[0]
        _compare(problems, f"run {b}", run,
                 {"kappa_hat": float(ratios.max()), "gamma": float(-slope)})
    live = [r for r in runs if not r["consensus_at_t0"]]
    worst = max(r["kappa_hat"] for r in live)
    _compare(problems, "summary", summary, {
        "worst_kappa_hat": worst,
        "worst_gamma": min(r["gamma"] for r in live),
        "gamma_from_kappa": -math.log(worst) / data["window"]["tau"],
    })
    return problems


# --- certify -------------------------------------------------------------

def _eta(adj):
    n = adj.shape[0]
    return float(np.minimum(adj[:, None, :], adj[None, :, :]).sum(-1).min() / n)


def _lambda2(adj):
    """Smallest eigenvalue of sym((D - A)/n) on the complement of ones."""
    n = adj.shape[0]
    lap = (np.diag(adj.sum(axis=1)) - adj) / n
    basis = np.linalg.qr(np.column_stack([np.ones(n), np.eye(n)[:, :n - 1]]))[0][:, 1:]
    return max(float(np.linalg.eigvalsh(basis.T @ (0.5 * (lap + lap.T)) @ basis)[0]), 0.0)


def _check_certify(seed, data, out, summary):
    from consensuslab import cli, signals

    cfg = cli.parse_config(data)
    tau, horizon = cfg.window.tau, cfg.t_end
    rng = np.random.default_rng(int(seed))
    scan = rng.uniform(0.0, horizon, SCAN_STARTS)
    problems = []
    for kind, metric in (("eta", _eta), ("lambda2", _lambda2)):
        report = _read_json(out / f"persistence_{kind}.json")
        infimum = report["infimum_value"]
        at_worst = metric(signals.window_average(cfg.signal, report["worst_start"],
                                                 tau).entries)
        if not _close(at_worst, infimum):
            problems.append(f"{kind} at worst_start is {at_worst!r}, "
                            f"report says {infimum!r}")
        lowest = min(metric(signals.window_average(cfg.signal, float(t), tau).entries)
                     for t in scan)
        if lowest < infimum - REL_TOL * abs(infimum) - 1e-15:
            problems.append(f"{kind} scan found {lowest!r} below infimum {infimum!r}")
    return problems


# --- simulate ------------------------------------------------------------

def _check_simulate(seed, data, out, summary):
    from consensuslab import analysis, cli
    from consensuslab.dynamics import Trajectory

    cfg = cli.parse_config(data)
    steps, per_piece, _ = _aligned_steps(data)
    dt, n, c = data["run"]["dt"], cfg.n, cfg.kernel.c
    table = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    times, states = table[:, 0], table[:, 1:].reshape(len(table), n, cfg.d)
    if len(times) != steps + 1:
        return [f"trajectory.csv has {len(times)} samples, expected {steps + 1}"]
    problems = []
    if not np.array_equal(states[0], cfg.initial):
        problems.append("trajectory.csv does not start at the initial state")

    def rhs(x, adj):
        return c * (adj @ x - adj.sum(axis=1)[:, None] * x) / n

    expect = np.array(list(_rk4_states(cfg.initial, rhs, cfg.signal.piece_stack,
                                       steps, per_piece, dt)))
    scale = np.abs(cfg.initial).max()
    error = np.abs(expect - states).max()
    if error > REL_TOL * scale:
        problems.append(f"states differ from the linear RK4 oracle by {error:.3e}")

    obs = np.loadtxt(out / "observables.csv", delimiter=",", skiprows=1)
    diam = np.array([_diameters(x) for x in expect])
    centered = expect - expect.mean(axis=1, keepdims=True)
    variance = (centered**2).sum(axis=(1, 2)) / n
    for label, got, want in (("diameter", obs[:, 1], diam), ("variance", obs[:, 2], variance)):
        if not np.allclose(got, want, rtol=REL_TOL, atol=0.0):
            problems.append(f"observables.csv {label} differs from the oracle")
    _compare_growth(problems, "summary", _growth(summary), float(np.diff(diam).max()),
                    float(diam[-1]))

    drift = np.abs(states.mean(axis=1) - states[0].mean(axis=0)).max()
    if drift > 1e-9:
        problems.append(f"mean drifts by {drift:.3e}")
    traj = Trajectory(times, states, cfg.signal, cfg.kernel)
    residual = analysis.variance_dissipation_residual(traj, cfg.signal)
    if residual > 1e-5 * variance[0]:
        problems.append(f"variance dissipation residual {residual:.3e} "
                        f"exceeds 1e-5 * V(0)")
    return problems


CHECKS = {
    "sweep_cs_n5": _check_verify,
    "certify_pairs_n32": _check_certify,
    "simulate_linear_n128": _check_simulate,
}
