"""Time the hot numeric kernels: best-of-`repeats` wall time per kernel.

Run with `python -m consensuslab.bench`.
"""
import argparse
import time

import numpy as np

from . import _kernels
from .graphs import AdjacencyMatrix, algebraic_connectivity


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
    adj = 0.5 * (adj + adj.T)  # symmetric, hence balanced, for lambda2
    np.fill_diagonal(adj, 1.0)
    pos = rng.normal(size=(n_agents, dim))
    balanced = AdjacencyMatrix(n_agents, adj)

    pieces = np.stack([adj])
    piece_idx = np.zeros(steps, dtype=np.int64)
    hs = np.full(steps, 1e-3)
    rec = np.zeros(steps + 1, dtype=bool)
    rec[0] = rec[-1] = True
    cs = _kernels.KERNEL_CUCKER_SMALE

    return {
        "rhs": lambda: _kernels.rhs_velocity(pos, adj, cs, 1.0, 1.0),
        "scrambling": lambda: _kernels.scrambling_min(adj),
        "lambda2": lambda: algebraic_connectivity(balanced),
        "rk4": lambda: _kernels.rk4_run(pos, pieces, piece_idx, hs, rec,
                                        cs, 1.0, 1.0),
    }


def run(n_agents=6, dim=2, steps=2000, repeats=5):
    rng = np.random.default_rng(7)
    cases = _cases(rng, n_agents, dim, steps)

    print(f"kernel benchmark: n={n_agents}, d={dim}, rk4 steps={steps}, "
          f"best of {repeats}")
    print(f"{'kernel':<12} {'time [ms]':>12}")
    for name, fn in cases.items():
        print(f"{name:<12} {_time(fn, repeats) * 1e3:>12.3f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--agents", type=int, default=6)
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    run(args.agents, args.dim, args.steps, args.repeats)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
