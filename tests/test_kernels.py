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
    for d in (1, 2, 3):
        for seed in range(10):
            pos, adj = random_case(seed, d=d)
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


@pytest.mark.parametrize("kind, p1, p2", KERNEL_CASES)
def test_rk4_equals_per_stage_rhs(kind, p1, p2):
    # per-piece constants are computed once and the states are stepped
    # coordinate-major, yet every stage is bitwise the public rhs_velocity of
    # the step's own piece
    rng = np.random.default_rng(12)
    steps = 30
    piece_idx = rng.integers(0, 3, size=steps)
    hs = rng.uniform(0.005, 0.02, size=steps)
    rec = np.ones(steps + 1, dtype=bool)
    for n, d in ((6, 2), (33, 3)):
        pieces = rng.random((3, n, n))
        x = rng.normal(size=(n, d))
        want = [x]
        for h, p in zip(hs, piece_idx):
            k1 = kernels.rhs_velocity(x, pieces[p], kind, p1, p2)
            k2 = kernels.rhs_velocity(x + 0.5 * h * k1, pieces[p], kind, p1, p2)
            k3 = kernels.rhs_velocity(x + 0.5 * h * k2, pieces[p], kind, p1, p2)
            k4 = kernels.rhs_velocity(x + h * k3, pieces[p], kind, p1, p2)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            want.append(x)
        got = kernels.rk4_run(want[0], pieces, piece_idx, hs, rec, kind, p1, p2)
        assert np.array_equal(got, np.stack(want)), (n, d)


def random_grid(rng, steps):
    """Piece indices over three pieces, step sizes and every 4th point
    recorded, plus the last."""
    piece_idx = rng.integers(0, 3, size=steps)
    hs = rng.uniform(0.005, 0.02, size=steps)
    rec = np.zeros(steps + 1, dtype=bool)
    rec[::4] = True
    rec[-1] = True
    return piece_idx, hs, rec


@pytest.mark.parametrize("batch", (pytest.param((1,), id="1"),
                                   pytest.param((3,), id="3"),
                                   pytest.param((2, 3), id="2x3")))
@pytest.mark.parametrize("kind, p1, p2", KERNEL_CASES)
def test_rk4_batch_equals_single_starts(kind, p1, p2, batch):
    # a batch shares the grid but not the arithmetic: every start is bitwise
    # what its own run gives, whatever the agent count and dimension
    rng = np.random.default_rng(11)
    steps = 40
    piece_idx, hs, rec = random_grid(rng, steps)
    for n in (1, 5, 33):
        pieces = rng.random((3, n, n))
        for d in (1, 2, 3):
            x0s = rng.normal(size=batch + (n, d))
            got = kernels.rk4_run(x0s, pieces, piece_idx, hs, rec, kind, p1, p2)
            assert got.shape == (np.count_nonzero(rec),) + x0s.shape
            for b in np.ndindex(batch):
                one = kernels.rk4_run(x0s[b], pieces, piece_idx, hs, rec,
                                      kind, p1, p2)
                assert np.array_equal(got[(slice(None),) + b], one), (n, d, b)


@pytest.mark.parametrize("kind, p1, p2", KERNEL_CASES)
def test_rk4_layout_contract(kind, p1, p2):
    # the record is C-ordered (n, d) states, the start is not written to,
    # and a strided start steps exactly like its contiguous copy
    rng = np.random.default_rng(13)
    n, d, steps = 6, 3, 20
    pieces = rng.random((3, n, n))
    piece_idx, hs, rec = random_grid(rng, steps)
    x0 = rng.normal(size=(4, n, d))
    before = x0.copy()
    got = kernels.rk4_run(x0, pieces, piece_idx, hs, rec, kind, p1, p2)
    assert got.flags.c_contiguous
    assert np.array_equal(x0, before)
    assert np.array_equal(got[0], x0)

    strided = rng.normal(size=(d, n, 8)).T[::2]  # shape (4, n, d), no unit stride
    assert not strided.flags.c_contiguous
    want = kernels.rk4_run(strided.copy(), pieces, piece_idx, hs, rec,
                           kind, p1, p2)
    got = kernels.rk4_run(strided, pieces, piece_idx, hs, rec, kind, p1, p2)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind, p1, p2", KERNEL_CASES)
def test_rhs_batch_equals_single_configurations(kind, p1, p2):
    rng = np.random.default_rng(14)
    for n, d in ((1, 2), (5, 2), (7, 3), (33, 1), (33, 2)):
        adj = rng.random((n, n))
        stack = rng.normal(size=(4, n, d))
        got = kernels.rhs_velocity(stack, adj, kind, p1, p2)
        assert got.shape == stack.shape
        for b in range(4):
            one = kernels.rhs_velocity(stack[b], adj, kind, p1, p2)
            assert np.array_equal(got[b], one), (n, d, b)


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


def test_benchmark_runs(capsys):
    from consensuslab import bench

    assert bench.main(["--agents", "8", "--dim", "2", "--steps", "20",
                       "--repeats", "1"]) == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[2:]]
    assert rows == ["rhs", "scrambling", "lambda2", "rk4", "rk4_linear",
                    "window_avg", "diameters"]
