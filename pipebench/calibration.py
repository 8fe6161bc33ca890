"""Host-speed calibration: a fixed task timed next to every measurement.

On a shared host the speed given to one process drifts by up to 2x in
phases of tens of seconds, which dominates the run-to-run spread of raw
times.  The benchmark therefore times this task just before and just after
each measurement and reports `REFERENCE_S * measured / task`: the seconds
the measurement would take on a host where the task takes `REFERENCE_S`
(about its median on the 2-vCPU host the benchmark was built on).  The task
uses no consensuslab code, so a change to the program cannot move it.
"""
import time

import numpy as np

REFERENCE_S = 0.3


def task_s():
    """Seconds of the fixed task.  It mixes the kinds of work the pipelines
    do: small-array numpy steps in a Python loop, an n=128 pairwise-distance
    broadcast and float formatting."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    adj, y = rng.random((5, 5)), rng.random((128, 2))
    for _ in range(10):
        x = rng.random((5, 2))
        for _ in range(1500):
            diff = x[None, :, :] - x[:, None, :]
            w = adj / (1.0 + (diff**2).sum(-1))
            x = x + 1e-3 * (w[..., None] * diff).sum(axis=1)
        for _ in range(15):
            d = y[:, None, :] - y[None, :, :]
            np.sqrt(np.einsum("ijc,ijc->ij", d, d)).max()
        ",".join(f"{v:.17g}" for v in y.ravel())
    return time.perf_counter() - start


def scaled(measured, tasks):
    """Reference seconds of each measurement; `tasks[i]` and `tasks[i + 1]`
    are the task's seconds just before and just after `measured[i]`."""
    return [REFERENCE_S * m / (0.5 * (before + after))
            for m, before, after in zip(measured, tasks, tasks[1:])]
