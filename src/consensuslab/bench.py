"""Time the hot numeric kernels: each row is the median and quartiles of
`repeats` timed calls of one kernel, after one untimed warm-up call.

Run with `python -m consensuslab.bench`.  A scaling row, one of
TRACED_ROWS, also prints the tracemalloc peak of one more call, in MiB.  The
last row, `import`, times `from consensuslab import cli` alone in each of
`repeats` fresh interpreters after importing numpy; it compiles the sources
unless their bytecode is cached.  A median with its quartiles shows how far
the calls of one run spread, which a best-of hides.  `--rows rk4,rk4_star`
times only the rows it names, so two trees can be timed in alternating
processes on the rows a change touches.
"""
import argparse
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from . import _kernels, analysis, cli, dynamics
from .graphs import algebraic_connectivity_unchecked
from .signals import (Window, _critical_starts, certify, certify_lambda2,
                      gen_blinking_pairs, gen_rotating_star,
                      window_average_batch)

# agents and dimension of the `rhs`, `rk4` and `rk4_linear` rows, and agents
# of the rotating star of the `scrambling`, `lambda2` and `window_avg` rows:
# the shape of the README verify
KERNEL_N = 5
KERNEL_D = 2
# starts integrated in one `rk4` call, the sweep size of the README verify,
# and the steps of that call
RK4_BATCH = 32
RK4_STEPS = 2000
# dwell, step size, end time and window length of the `rk4_star` row, the
# Cucker-Smale `rk4` run over the pieces of a rotating star of KERNEL_N
# agents on the step grid `dynamics._build_grid` builds for the README
# verify, window ends forced: its pieces are strided views of one hub, where
# the `rk4` row steps one contiguous piece, and its 1,000 step sizes take 13
# values, where the `rk4` row's take one
STAR_DWELL = 0.2
STAR_DT = 0.01
STAR_T_END = 10.0
STAR_TAU = 1.0
# (agents, starts) and steps of the `rk4_large` row, a Cucker-Smale `rk4` run
# in the plane whose (B, d, n, n) pair differences, 32 MiB, outgrow the cache:
# the field's cost is arithmetic there, not per-call overhead
LARGE_RK4_SHAPE = (128, 128)
LARGE_RK4_STEPS = 20
# starts and steps of the `rk4_long` row, a constant-kernel `rk4` run of
# KERNEL_N agents in KERNEL_D dimensions recorded at its two ends: its traced
# peak shows what a run holds as its steps grow, not its states
LONG_RK4_BATCH = 1
LONG_RK4_STEPS = 10**5
# window length of the `scrambling`, `lambda2` and `window_avg` rows, over
# one period of a rotating star, and of the `certify_large` and
# `certify_huge` rows
WINDOW_TAU = 0.35
# agents of the `certify_large` and `certify_huge` rows, each a
# `certify_lambda2` over one period of a rotating star (dwell
# SIMULATE_DWELL) built in the call, so its (n + 1, n, n) prefix sums of
# the pieces are built and held in every call: 16.1 and 128.5 MiB
LARGE_STAR_N = 128
HUGE_STAR_N = 256
# agents and window length of the `certify` row, both kinds over one period
# of blinking pairs (dwell 0.1, duty 0.5): the pipeline benchmark's certify
# config
CERTIFY_N = 32
CERTIFY_TAU = 3.2
# (samples, n, d) of the `diameters`, `contraction`, `fit`, `residual` and
# `csv` rows, the shape of the states of a 1001-sample simulate at n = 128 in
# the plane
TRAJECTORY_SHAPE = (1001, 128, 2)
# the pipeline benchmark's simulate config: a rotating star at n = 128 (the
# `signal` row builds it, the `residual` row reads its pieces), stepped on a
# grid to t_end with step dt and records forced at every multiple of tau (the
# `grid` row), whose windows of tau the `contraction` row scans
SIMULATE_DWELL = 0.05
SIMULATE_T_END = 10.0
SIMULATE_DT = 0.01
SIMULATE_TAU = 1.0
# (runs, samples, n, d) of the `diameters_small` row, one call per run, and
# the (runs, factors) of the `json` row's reports, whose factors are float64
# arrays as verify writes them: the README verify sweep
SWEEP_SHAPE = (32, 1001, 5, 2)
SWEEP_FACTORS = 901
# the scaling rows, which also print the tracemalloc peak of one more call
TRACED_ROWS = ("rk4_large", "rk4_long", "certify_large", "certify_huge")
# what the `import` row's interpreters run, with this package's parent
# directory as argv[1]
IMPORT_PROBE = """
import sys, time
import numpy
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
from consensuslab import cli
print(time.perf_counter() - start)
"""


def _time(fn, repeats):
    """Seconds of `repeats` calls of ``fn`` after a warm-up call."""
    fn()  # warm up (cache touch)
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - start)
    return seconds


def _traced_peak(fn):
    """Peak bytes tracemalloc traces during one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _row(name, seconds, peak=None):
    median, q1, q3 = np.percentile(seconds, [50, 25, 75]) * 1e3
    traced = "" if peak is None else f" {peak / 2**20:>12.1f}"
    print(f"{name:<16} {median:>12.3f} {q1:>12.3f} {q3:>12.3f}{traced}")


def _import_seconds():
    """Seconds of `from consensuslab import cli` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(Path(__file__).parents[1])],
        capture_output=True, text=True, check=True).stdout
    return float(out)


def _cases(rng):
    adj = rng.random((KERNEL_N, KERNEL_N))
    np.fill_diagonal(adj, 1.0)
    pos = rng.normal(size=(KERNEL_N, KERNEL_D))
    starts = rng.normal(size=(RK4_BATCH, KERNEL_N, KERNEL_D))

    pieces = np.stack([adj])
    piece_idx = np.zeros(RK4_STEPS, dtype=np.int64)
    hs = np.full(RK4_STEPS, 1e-3)
    rec = np.zeros(RK4_STEPS + 1, dtype=bool)
    rec[0] = rec[-1] = True
    def discard(lo, block):  # the sink of the rk4 rows
        pass

    cs = _kernels.CuckerSmale(1.0, 1.0)
    linear = _kernels.Constant(1.0)
    sweep_star = gen_rotating_star(KERNEL_N, STAR_DWELL)
    star_grid, star_idx, _ = dynamics._build_grid(
        sweep_star, STAR_T_END, STAR_DT,
        STAR_TAU * np.arange(STAR_T_END // STAR_TAU + 1))
    star_hs = np.diff(star_grid)
    star_rec = np.zeros(len(star_grid), dtype=bool)
    star_rec[0] = star_rec[-1] = True
    star = gen_rotating_star(KERNEL_N, 0.1)
    star_starts = _critical_starts(star, WINDOW_TAU, star.period)
    star_avgs = window_average_batch(star, star_starts, WINDOW_TAU)
    pairs = gen_blinking_pairs(CERTIFY_N, 0.1, 0.5)
    pairs_window = Window(CERTIFY_TAU, 0.01)
    states = rng.normal(size=TRAJECTORY_SHAPE)
    times = np.linspace(0.0, SIMULATE_T_END, TRAJECTORY_SHAPE[0])
    sim_n = TRAJECTORY_SHAPE[1]
    sim_star = gen_rotating_star(sim_n, SIMULATE_DWELL)
    forced = SIMULATE_TAU * np.arange(SIMULATE_T_END // SIMULATE_TAU + 1)
    # the observables are cached on first use (the warm-up call), so the
    # `contraction` and `residual` rows time what follows the diameters and
    # variances, which have rows of their own
    traj = dynamics.Trajectory(times, states, sim_star, linear)
    decay = np.exp(-0.3 * times)
    flat = states.reshape(TRAJECTORY_SHAPE[0], -1)
    sweep_states = rng.normal(size=SWEEP_SHAPE)
    fit = {"alpha": 1.0, "gamma": 0.3, "rms_log_residual": 0.01,
           "t_range": [0.0, 10.0]}
    reports = [{"kind": "diameter", "tau": 1.0, "kappa_hat": 0.8,
                "all_strict": True, "fit": fit,
                "factors": rng.uniform(0.6, 0.8, SWEEP_FACTORS)}
               for _ in range(SWEEP_SHAPE[0])]
    large_n, large_batch = LARGE_RK4_SHAPE
    large_pieces = rng.random((1, large_n, large_n))
    large_starts = rng.normal(size=(large_batch, large_n, KERNEL_D))
    large_rec = np.zeros(LARGE_RK4_STEPS + 1, dtype=bool)
    large_rec[0] = large_rec[-1] = True
    long_starts = rng.normal(size=(LONG_RK4_BATCH, KERNEL_N, KERNEL_D))
    long_idx = np.zeros(LONG_RK4_STEPS, dtype=np.int64)
    long_hs = np.full(LONG_RK4_STEPS, 1e-3)
    long_rec = np.zeros(LONG_RK4_STEPS + 1, dtype=bool)
    long_rec[0] = long_rec[-1] = True

    def certify_star(n):
        star = gen_rotating_star(n, SIMULATE_DWELL)
        return certify_lambda2(star, Window(WINDOW_TAU, 0.01), star.period)

    return {
        "rhs": lambda: _kernels.rhs_velocity(pos, adj, cs),
        "scrambling": lambda: _kernels.scrambling_min(star_avgs),
        "lambda2": lambda: algebraic_connectivity_unchecked(star_avgs),
        "signal": lambda: gen_rotating_star(sim_n, SIMULATE_DWELL),
        "grid": lambda: dynamics._build_grid(sim_star, SIMULATE_T_END,
                                             SIMULATE_DT, forced),
        "rk4": lambda: _kernels.rk4_run(starts, pieces, piece_idx, hs, rec, cs,
                                        discard),
        "rk4_star": lambda: _kernels.rk4_run(starts, sweep_star.piece_stack,
                                             star_idx, star_hs, star_rec, cs,
                                             discard),
        "rk4_linear": lambda: _kernels.rk4_run(starts, pieces, piece_idx, hs,
                                               rec, linear, discard),
        "rk4_large": lambda: _kernels.rk4_run(
            large_starts, large_pieces, piece_idx[:LARGE_RK4_STEPS],
            hs[:LARGE_RK4_STEPS], large_rec, cs, discard),
        "rk4_long": lambda: _kernels.rk4_run(long_starts, pieces, long_idx,
                                             long_hs, long_rec, linear, discard),
        "window_avg": lambda: window_average_batch(star, star_starts, WINDOW_TAU),
        "certify": lambda: certify(pairs, pairs_window, pairs.period,
                                   ("eta", "lambda2")),
        "certify_large": lambda: certify_star(LARGE_STAR_N),
        "certify_huge": lambda: certify_star(HUGE_STAR_N),
        "diameters": lambda: dynamics.diameters(states),
        "diameters_small": lambda: [dynamics.diameters(x) for x in sweep_states],
        "contraction": lambda: analysis.window_contraction(traj, SIMULATE_TAU),
        "fit": lambda: analysis.fit_exponential(times, decay),
        "residual": lambda: analysis.variance_dissipation_residual(traj,
                                                                   sim_star),
        "csv": lambda: dynamics.append_csv(os.devnull, times, flat),
        "json": lambda: cli._write_json(os.devnull, reports),
    }


def run(cases, rows, repeats=5):
    """Print the header and one row per name in ``rows``, of ``cases`` (see
    `_cases`) or `import`."""
    print(f"kernel benchmark: n={KERNEL_N}, d={KERNEL_D}, rk4 steps={RK4_STEPS} "
          f"on a batch of {RK4_BATCH} starts (rk4_star over the pieces of a "
          f"rotating star, dwell {STAR_DWELL}, on the grid to {STAR_T_END} of "
          f"step {STAR_DT} with window ends every {STAR_TAU}), rk4_large steps="
          f"{LARGE_RK4_STEPS} at (n, starts)={LARGE_RK4_SHAPE}, rk4_long "
          f"steps={LONG_RK4_STEPS} of the constant kernel on {LONG_RK4_BATCH} "
          f"start recorded at both ends, scrambling, "
          f"lambda2 and window_avg "
          f"over the critical starts of a rotating star (tau {WINDOW_TAU}), "
          f"signal of a rotating star (n {TRAJECTORY_SHAPE[1]}, dwell "
          f"{SIMULATE_DWELL}) and grid of its steps (t_end {SIMULATE_T_END}, "
          f"dt {SIMULATE_DT}, records every {SIMULATE_TAU}), "
          f"certify of both kinds over one period of blinking pairs (n "
          f"{CERTIFY_N}, tau {CERTIFY_TAU}), certify_large and certify_huge "
          f"of lambda2 over one period of a rotating star (n {LARGE_STAR_N} "
          f"and {HUGE_STAR_N}, dwell {SIMULATE_DWELL}, tau {WINDOW_TAU}), "
          f"diameters and csv of {TRAJECTORY_SHAPE} states, and contraction "
          f"(tau {SIMULATE_TAU}), fit and residual on them, diameters_small "
          f"of {SWEEP_SHAPE[0]} x {SWEEP_SHAPE[1:]} states, json of "
          f"{SWEEP_SHAPE[0]} reports of {SWEEP_FACTORS} factors, and import of "
          f"consensuslab.cli in a fresh interpreter after numpy; median and "
          f"quartiles of {repeats}")
    print(f"{'kernel':<16} {'median [ms]':>12} {'q1 [ms]':>12} {'q3 [ms]':>12}"
          f" {'peak [MiB]':>12}")
    for name in rows:
        if name == "import":
            _row(name, [_import_seconds() for _ in range(repeats)])
            continue
        fn = cases[name]
        seconds = _time(fn, repeats)
        _row(name, seconds, _traced_peak(fn) if name in TRACED_ROWS else None)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--rows", type=lambda text: text.split(","),
                        help="comma-separated rows to time, in that order "
                             "(default: every row)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    cases = _cases(np.random.default_rng(7))
    names = [*cases, "import"]
    unknown = [name for name in args.rows or () if name not in names]
    if unknown:
        parser.error(f"--rows: unknown rows {', '.join(map(repr, unknown))}; "
                     f"the rows are {', '.join(names)}")
    run(cases, args.rows or names, args.repeats)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
