"""Time the hot numeric kernels: best-of-`repeats` wall time per kernel.

Run with `python -m consensuslab.bench`.
"""
import argparse
import time

import numpy as np

from . import _kernels, dynamics
from .graphs import algebraic_connectivity_batch
from .signals import _critical_starts, gen_rotating_star, window_average_batch

# starts integrated in one `rk4` call: the sweep size of the README verify
RK4_BATCH = 32
# window length of the `scrambling`, `lambda2` and `window_avg` rows, over
# one period of a rotating star
WINDOW_TAU = 0.35
# (samples, n, d) of the `diameters` row, the shape of the states of a
# 1001-sample simulate at n = 128 in the plane
DIAMETERS_SHAPE = (1001, 128, 2)


def _time(fn, repeats):
    fn()  # warm up (cache touch)
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _cases(rng, n_agents, dim, steps):
    adj = rng.random((n_agents, n_agents))
    np.fill_diagonal(adj, 1.0)
    pos = rng.normal(size=(n_agents, dim))
    starts = rng.normal(size=(RK4_BATCH, n_agents, dim))

    pieces = np.stack([adj])
    piece_idx = np.zeros(steps, dtype=np.int64)
    hs = np.full(steps, 1e-3)
    rec = np.zeros(steps + 1, dtype=bool)
    rec[0] = rec[-1] = True
    cs = _kernels.CuckerSmale(1.0, 1.0)
    linear = _kernels.Constant(1.0)
    star = gen_rotating_star(n_agents, 0.1)
    star_starts = _critical_starts(star, WINDOW_TAU, star.period)
    star_avgs = window_average_batch(star, star_starts, WINDOW_TAU)
    states = rng.normal(size=DIAMETERS_SHAPE)

    return {
        "rhs": lambda: _kernels.rhs_velocity(pos, adj, cs),
        "scrambling": lambda: _kernels.scrambling_min(star_avgs),
        "lambda2": lambda: algebraic_connectivity_batch(star_avgs),
        "rk4": lambda: _kernels.rk4_run(starts, pieces, piece_idx, hs, rec, cs),
        "rk4_linear": lambda: _kernels.rk4_run(starts, pieces, piece_idx, hs,
                                               rec, linear),
        "window_avg": lambda: window_average_batch(star, star_starts, WINDOW_TAU),
        "diameters": lambda: dynamics.diameters(states),
    }


def run(n_agents=5, dim=2, steps=2000, repeats=5):
    rng = np.random.default_rng(7)
    cases = _cases(rng, n_agents, dim, steps)

    print(f"kernel benchmark: n={n_agents}, d={dim}, rk4 steps={steps} on a "
          f"batch of {RK4_BATCH} starts, scrambling, lambda2 and window_avg "
          f"over the critical starts of a rotating star (tau {WINDOW_TAU}), "
          f"diameters of {DIAMETERS_SHAPE} states, best of {repeats}")
    print(f"{'kernel':<12} {'time [ms]':>12}")
    for name, fn in cases.items():
        print(f"{name:<12} {_time(fn, repeats) * 1e3:>12.3f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--agents", type=int, default=5)
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    run(args.agents, args.dim, args.steps, args.repeats)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
