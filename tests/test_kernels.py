import warnings

import numpy as np
import pytest

import consensuslab as cl
import consensuslab._kernels as kernels

from oracles import lambda2_eigh, rhs_direct, rk4_direct


def random_case(seed, n=7, d=3):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, d))
    adj = rng.random((n, n))
    np.fill_diagonal(adj, 1.0)
    return pos, adj


KERNEL_CASES = ((kernels.KERNEL_CONSTANT, 1.3, 0.0),
                (kernels.KERNEL_CUCKER_SMALE, 0.9, 1.4))


@pytest.mark.parametrize("kind, p1, p2", KERNEL_CASES)
def test_rhs_matches_double_loop(kind, p1, p2):
    for seed in range(10):
        pos, adj = random_case(seed)
        got = kernels.rhs_velocity(pos, adj, kind, p1, p2)
        want = rhs_direct(pos, adj, kind == kernels.KERNEL_CONSTANT, p1, p2)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("kind, p1, p2", KERNEL_CASES)
def test_rk4_matches_loop_rk4(kind, p1, p2):
    pos, adj = random_case(3, n=5, d=2)
    steps, h = 50, 0.02
    rec = np.zeros(steps + 1, dtype=bool)
    rec[::7] = True
    rec[-1] = True
    got = kernels.rk4_run(pos, np.stack([adj]), np.zeros(steps, dtype=np.int64),
                          np.full(steps, h), rec, kind, p1, p2)
    want = rk4_direct(pos, adj, h, steps, kind == kernels.KERNEL_CONSTANT, p1, p2)
    assert np.allclose(got, want[rec], rtol=1e-12, atol=1e-14)


def test_certify_lambda2_n64_warning_free():
    # at n=64 the eigensolver must neither warn nor drift from the oracle
    sig = cl.gen_rotating_star(64, 0.1)
    tau = 0.35
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = cl.certify_lambda2(sig, cl.Window(tau, 0.01), sig.period)
    avg = cl.window_average(sig, rep.worst_start, tau)
    assert rep.infimum_value == pytest.approx(lambda2_eigh(avg.entries), abs=1e-12)
    assert rep.infimum_value > 0.0


def test_benchmark_runs():
    from consensuslab import bench

    assert bench.main(["--agents", "8", "--dim", "2", "--steps", "20",
                       "--repeats", "1"]) == 0
