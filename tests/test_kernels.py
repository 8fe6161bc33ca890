import inspect
import itertools
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import consensuslab as cl
import consensuslab._kernels as kernels
import consensuslab._text as text
from consensuslab import dynamics

from oracles import (csv_per_cell, lambda2_eigh, repr_join, rhs_direct,
                     rk4_direct, rk4_expression, velocity_expression)


def rk4_record(x0, pieces, piece_idx, hs, rec, kernel):
    """The blocks `rk4_run` hands its sink, concatenated: every recorded
    state, shape (recorded,) + x0.shape."""
    blocks = []
    kernels.rk4_run(x0, pieces, piece_idx, hs, rec, kernel,
                    lambda lo, block: blocks.append(block.copy()))
    return np.concatenate(blocks)


def random_case(seed, n=7, d=3):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, d))
    adj = rng.random((n, n))
    np.fill_diagonal(adj, 1.0)
    return pos, adj


# agent counts of the batch and field tests: the two sides of the size up to
# which the Cucker-Smale field builds its pair differences as a product
PAIR_EDGE = (kernels._PAIR_PRODUCT_MAX_N, kernels._PAIR_PRODUCT_MAX_N + 1)


# the ids keep the test names of the cases stable
KERNEL_CASES = (pytest.param(kernels.Constant(1.3), id="0-1.3-0.0"),
                pytest.param(kernels.CuckerSmale(0.9, 1.4), id="1-0.9-1.4"))


@pytest.mark.parametrize("kernel", KERNEL_CASES)
def test_rhs_matches_double_loop(kernel):
    for d in (1, 2, 3):
        for seed in range(10):
            pos, adj = random_case(seed, d=d)
            got = kernels.rhs_velocity(pos, adj, kernel)
            want = rhs_direct(pos, adj, kernel)
            assert np.allclose(got, want, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("kernel", KERNEL_CASES)
def test_rk4_matches_loop_rk4(kernel):
    pos, adj = random_case(3, n=5, d=2)
    steps, h = 50, 0.02
    rec = np.zeros(steps + 1, dtype=bool)
    rec[::7] = True
    rec[-1] = True
    got = rk4_record(pos, np.stack([adj]), np.zeros(steps, dtype=np.int64),
                          np.full(steps, h), rec, kernel)
    want = rk4_direct(pos, adj, h, steps, kernel)
    assert np.allclose(got, want[rec], rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("kernel", KERNEL_CASES)
def test_rk4_equals_per_stage_rhs(kernel):
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
            k1 = kernels.rhs_velocity(x, pieces[p], kernel)
            k2 = kernels.rhs_velocity(x + 0.5 * h * k1, pieces[p], kernel)
            k3 = kernels.rhs_velocity(x + 0.5 * h * k2, pieces[p], kernel)
            k4 = kernels.rhs_velocity(x + h * k3, pieces[p], kernel)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            want.append(x)
        got = rk4_record(want[0], pieces, piece_idx, hs, rec, kernel)
        assert np.array_equal(got, np.stack(want)), (n, d)


# c = 1 and beta = 1 leave out a factor and a power; beta = 0.5 and 0 are
# powers numpy computes as a square root and as ones
EXPRESSION_CASES = (kernels.Constant(1.0), kernels.Constant(1.3),
                    kernels.CuckerSmale(1.0, 1.0), kernels.CuckerSmale(0.9, 1.4),
                    kernels.CuckerSmale(1.0, 0.5), kernels.CuckerSmale(1.0, 0.0))


@pytest.mark.parametrize("star", (False, True), ids=("contiguous", "star_view"))
@pytest.mark.parametrize("kernel", EXPRESSION_CASES, ids=repr)
def test_rk4_equals_step_expression(kernel, star, monkeypatch):
    # in-place fields and stage sums, and step data read as Python scalars
    # from memoryviews of the grid, record bitwise what one expression per
    # step gives, at and next to every block hand-over: at n = 5 on one and
    # three starts in every dimension, and on both sides of
    # _PAIR_PRODUCT_MAX_N on two batch axes
    rng = np.random.default_rng(23)
    rows = 3  # records a block holds
    records = 3 * rows + 2  # three full blocks and one of two
    steps = 2 * (records - 1)  # every other point recorded, the ends among them
    hs = rng.uniform(5e-4, 2e-3, size=steps)
    rec = np.zeros(steps + 1, dtype=bool)
    rec[::2] = True
    cases = [(5, batch, d) for batch in ((1,), (3,)) for d in (1, 2, 3)]
    cases += [(n, (2, 3), d) for n in PAIR_EDGE for d in (1, 3)]
    for n, batch, d in cases:
        if star:
            pieces = cl.gen_rotating_star(n, 0.1).piece_stack
            assert not pieces.flags.c_contiguous
        else:
            pieces = rng.random((3, n, n))
        piece_idx = rng.integers(0, len(pieces), size=steps)
        x0s = rng.normal(size=batch + (n, d))
        monkeypatch.setattr(kernels, "_RECORD_BLOCK_FLOATS", rows * x0s.size)
        blocks = []
        kernels.rk4_run(x0s, pieces, piece_idx, hs, rec, kernel,
                        lambda lo, block: blocks.append((lo, block.copy())))
        assert [lo for lo, _ in blocks] == list(range(0, records, rows))
        got = np.concatenate([block for _, block in blocks])
        want = rk4_expression(x0s, pieces, piece_idx, hs, rec, kernel)
        assert np.array_equal(got, want), (n, batch, d)


def test_rk4_memory_does_not_grow_with_steps():
    # 10^5 steps at n = 5, recorded at the two ends: the step data held as
    # Python lists would peak near 4.8 MB; read through memoryviews of the
    # grid, the run peaks near 6 kB
    rng = np.random.default_rng(29)
    steps = 10**5
    pieces = rng.random((3, 5, 5))
    piece_idx = rng.integers(0, 3, size=steps)
    hs = np.full(steps, 1e-4)
    rec = np.zeros(steps + 1, dtype=bool)
    rec[0] = rec[-1] = True
    x0 = rng.normal(size=(5, 2))
    tracemalloc.start()
    try:
        kernels.rk4_run(x0, pieces, piece_idx, hs, rec, kernels.Constant(1.0),
                        lambda lo, block: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


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
@pytest.mark.parametrize("kernel", KERNEL_CASES)
def test_rk4_batch_equals_single_starts(kernel, batch):
    # a batch shares the grid but not the arithmetic: every start is bitwise
    # what its own run gives, whatever the agent count and dimension, on
    # random pieces and on a rotating star's strided views of its hub
    rng = np.random.default_rng(11)
    steps = 40
    piece_idx, hs, rec = random_grid(rng, steps)
    for n in (1, 5, 33) + PAIR_EDGE:
        stacks = [rng.random((3, n, n))]
        if n > 1:
            stacks.append(cl.gen_rotating_star(n, 0.1).piece_stack)
        for pieces, d in itertools.product(stacks, (1, 2, 3)):
            x0s = rng.normal(size=batch + (n, d))
            got = rk4_record(x0s, pieces, piece_idx, hs, rec, kernel)
            assert got.shape == (np.count_nonzero(rec),) + x0s.shape
            for b in np.ndindex(batch):
                one = rk4_record(x0s[b], pieces, piece_idx, hs, rec, kernel)
                assert np.array_equal(got[(slice(None),) + b], one), (n, d, b)


@pytest.mark.parametrize("batch", (1, 3))
@pytest.mark.parametrize("kernel", KERNEL_CASES)
def test_rk4_on_star_view_equals_contiguous_stack(kernel, batch):
    # a rotating star's pieces are views of one (2n - 1, 2n - 1) hub, so BLAS
    # reads them with a leading dimension of 2n - 1 instead of n
    rng = np.random.default_rng(17)
    steps = 24
    hs = rng.uniform(0.005, 0.02, size=steps)
    rec = np.zeros(steps + 1, dtype=bool)
    rec[::4] = rec[-1] = True
    for n in (2, 5, 33, 128):
        view = cl.gen_rotating_star(n, 0.1).piece_stack
        assert not view.flags.c_contiguous
        piece_idx = rng.integers(0, n, size=steps)
        x0s = rng.normal(size=(batch, n, 2))
        got = rk4_record(x0s, view, piece_idx, hs, rec, kernel)
        want = rk4_record(x0s, np.ascontiguousarray(view), piece_idx, hs,
                               rec, kernel)
        assert np.array_equal(got, want), n


@pytest.mark.parametrize("kernel", KERNEL_CASES)
def test_rk4_layout_contract(kernel):
    # every block is C-ordered (n, d) states, the start is not written to,
    # and a strided start steps exactly like its contiguous copy
    rng = np.random.default_rng(13)
    n, d, steps = 6, 3, 20
    pieces = rng.random((3, n, n))
    piece_idx, hs, rec = random_grid(rng, steps)
    x0 = rng.normal(size=(4, n, d))
    before = x0.copy()
    layouts = []
    kernels.rk4_run(x0, pieces, piece_idx, hs, rec, kernel, lambda lo, block:
                    layouts.append((block.flags.c_contiguous, block.shape[1:])))
    assert layouts == [(True, x0.shape)]
    got = rk4_record(x0, pieces, piece_idx, hs, rec, kernel)
    assert np.array_equal(x0, before)
    assert np.array_equal(got[0], x0)

    strided = rng.normal(size=(d, n, 8)).T[::2]  # shape (4, n, d), no unit stride
    assert not strided.flags.c_contiguous
    want = rk4_record(strided.copy(), pieces, piece_idx, hs, rec, kernel)
    got = rk4_record(strided, pieces, piece_idx, hs, rec, kernel)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("over", ("ignore", "raise"))
def test_rk4_sink_runs_in_the_callers_error_state(over, monkeypatch):
    # the steps raise on overflow; the sink, of full blocks mid-run as of
    # the last block, does what its caller's error state says
    rng = np.random.default_rng(31)
    steps = 20
    pieces = rng.random((3, 4, 4))
    piece_idx, hs, rec = random_grid(rng, steps)
    x0 = 10.0 + rng.random(size=(3, 4, 2))
    monkeypatch.setattr(kernels, "_RECORD_BLOCK_FLOATS", 2 * x0.size)
    products = []

    def run():
        kernels.rk4_run(x0, pieces, piece_idx, hs, rec, kernels.Constant(1.0),
                        lambda lo, block: products.append(block * 1e308))

    with np.errstate(over=over):
        if over == "raise":
            with pytest.raises(FloatingPointError, match="overflow"):
                run()
        else:
            run()
    if over == "ignore":
        assert len(products) == 3  # 6 records, 2 a block
        assert all(np.isinf(b).all() for b in products)


@pytest.mark.parametrize("kernel", KERNEL_CASES)
def test_rk4_reads_strided_and_int32_step_grids(kernel):
    # the grid is read through memoryviews: strided float64 step sizes, a
    # strided bool record and int32 pieces step exactly like contiguous
    # int64 copies
    rng = np.random.default_rng(37)
    steps, n = 30, 5
    pieces = rng.random((3, n, n))
    piece_idx, hs, rec = random_grid(rng, steps)
    wide_hs = np.repeat(hs, 2)[::2]
    wide_rec = np.repeat(rec, 3)[::3]
    assert not (wide_hs.flags.c_contiguous or wide_rec.flags.c_contiguous)
    x0 = rng.normal(size=(2, n, 2))
    want = rk4_record(x0, pieces, piece_idx.astype(np.int64), hs, rec, kernel)
    got = rk4_record(x0, pieces, piece_idx.astype(np.int32), wide_hs, wide_rec,
                     kernel)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kernel", KERNEL_CASES)
def test_rhs_batch_equals_single_configurations(kernel):
    rng = np.random.default_rng(14)
    for n, d in ((1, 2), (5, 2), (7, 3), (33, 1), (33, 2)):
        adj = rng.random((n, n))
        stack = rng.normal(size=(4, n, d))
        got = kernels.rhs_velocity(stack, adj, kernel)
        assert got.shape == stack.shape
        for b in range(4):
            one = kernels.rhs_velocity(stack[b], adj, kernel)
            assert np.array_equal(got[b], one), (n, d, b)


def test_field_calls_the_einsum_of_np_einsum():
    # the Cucker-Smale field calls the C function np.einsum itself returns
    # with optimize False, skipping only its Python dispatch
    assert kernels.c_einsum is np.einsum._implementation.__globals__["c_einsum"]


@pytest.mark.parametrize("batch", ((), (2, 3)), ids=("single", "2x3"))
@pytest.mark.parametrize("kernel", EXPRESSION_CASES, ids=repr)
def test_rhs_equals_field_expression(kernel, batch):
    # the field's direct einsum entry against public np.einsum in the oracle,
    # bit for bit, with no batch axis and with two, on a random piece and on
    # a rotating star's piece, a strided view of its hub
    rng = np.random.default_rng(15)
    for n in (1, 5, 33) + PAIR_EDGE:
        adjs = [rng.random((n, n))]
        if n > 1:
            adjs.append(cl.gen_rotating_star(n, 0.1).piece_stack[1])
            assert not adjs[-1].flags.c_contiguous
        for adj, d in itertools.product(adjs, (1, 3)):
            pos = rng.normal(size=batch + (n, d))
            want = velocity_expression(adj, kernel)(pos.swapaxes(-1, -2).copy())
            got = kernels.rhs_velocity(pos, adj, kernel)
            assert np.array_equal(got, want.swapaxes(-1, -2)), (n, d)


@pytest.mark.parametrize("n", (1, 2, 5) + PAIR_EDGE)
def test_pair_differences_equal_broadcast_subtract(n):
    # the field's pair differences, one product x @ P up to
    # _PAIR_PRODUCT_MAX_N agents and the broadcast subtract above, bit for
    # bit against the subtract, on the inputs that test the signs of zero.
    # The product moves one bit: where the subtract gives (-0) - (+0) = -0
    # it gives +0.  The velocity does not see that sign
    rng = np.random.default_rng(31)
    kernel = kernels.CuckerSmale(0.9, 1.4)
    adj = rng.random((n, n))
    np.fill_diagonal(adj, 1.0)
    field = kernels._velocity(adj, kernel)
    moved = 0
    for d in (1, 2, 3):
        shape = (4, d, n)
        negative = -rng.uniform(0.5, 2.0, size=shape)
        zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
        coincident = np.repeat(rng.normal(size=(4, d, 1)), n, axis=-1)
        for x in (negative, zeros, coincident):
            src = kernels._sources(shape, kernel)(x)
            v = np.empty_like(x)
            field(src, v)
            diff = src[4]
            want = x[..., None, :] - x[..., :, None]
            if n <= kernels._PAIR_PRODUCT_MAX_N:
                moved += np.count_nonzero(np.signbit(want) & (want == 0))
                want = want + 0.0  # -0 + 0 = +0, every other value kept
            assert np.array_equal(diff.view(np.int64), want.view(np.int64))
            assert not np.signbit(np.diagonal(diff, 0, -2, -1)).any()
            expected = velocity_expression(adj, kernel)(x)
            assert np.array_equal(v.view(np.int64), expected.view(np.int64))
    assert (moved > 0) == (2 <= n <= kernels._PAIR_PRODUCT_MAX_N)


def test_pair_operator_is_built_once_and_read_only():
    op = kernels._pair_operator(4)
    assert op is kernels._pair_operator(4)
    assert not op.flags.writeable
    x = np.arange(4.0) ** 2
    assert np.array_equal((x @ op).reshape(4, 4), x[None, :] - x[:, None])


def numpy_calls(run):
    """Calls into Python functions defined in numpy's package while ``run()``
    runs: numpy's Python wrappers, not its C functions and methods."""
    numpy_dir = os.path.dirname(np.__file__) + os.sep
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("kernel", KERNEL_CASES)
def test_rk4_step_calls_no_numpy_python_function(kernel):
    # a numpy Python wrapper costs about 1 us a call, so none runs per step:
    # what the run calls into numpy's Python code does not grow with the
    # number of steps, every state recorded
    rng = np.random.default_rng(16)
    pieces = rng.random((3, 5, 5))
    x0 = rng.normal(size=(4, 5, 2))
    counts = []
    for steps in (64, 128):
        piece_idx = np.arange(steps) % 3
        hs = np.full(steps, 1e-2)
        rec = np.ones(steps + 1, dtype=bool)
        calls = numpy_calls(lambda: kernels.rk4_run(
            x0, pieces, piece_idx, hs, rec, kernel, lambda lo, block: None))
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


def ndarrays(obj):
    """Every ndarray in ``obj``, a nest of tuples and lists."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in ndarrays(item)]
    return []


@pytest.mark.parametrize("kernel", KERNEL_CASES)
def test_rk4_fields_reuse_one_workspace(kernel, monkeypatch):
    # every array a field receives or returns is kept alive, so no id is
    # reused: with one workspace per run their number does not grow with
    # the steps, every state recorded
    velocity = kernels._velocity
    seen = []

    def recording(adj, kernel):
        field = velocity(adj, kernel)

        def f(*args):
            result = field(*args)
            seen.extend(ndarrays((args, result)))
            return result
        return f

    monkeypatch.setattr(kernels, "_velocity", recording)
    rng = np.random.default_rng(18)
    pieces = rng.random((3, 5, 5))
    x0 = rng.normal(size=(4, 5, 2))
    counts = []
    for steps in (64, 128):
        seen.clear()
        piece_idx = np.arange(steps) % 3
        hs = np.full(steps, 1e-2)
        rec = np.ones(steps + 1, dtype=bool)
        kernels.rk4_run(x0, pieces, piece_idx, hs, rec, kernel,
                        lambda lo, block: None)
        assert len(seen) >= 4 * steps
        counts.append(len({id(a) for a in seen}))
    assert counts[0] == counts[1], counts


def test_rk4_workspace_memory_bound():
    # one Cucker-Smale run holds one field scratch, (B, d, n, n) differences
    # and (B, n, n) kernel values, and up to _PAIR_PRODUCT_MAX_N agents
    # (B, d, n, n) weights of their own, beside its (B, d, n) state, stage
    # input and k1 to k4 and its record block: a second scratch set would
    # not fit.  Nor does the field copy a piece above _PAIR_PRODUCT_MAX_N
    # agents: over the 64 strided pieces of a rotating star, a copy of each
    # would add 64 x 32 kB
    rng = np.random.default_rng(19)
    d, steps = 2, 128
    hs = np.full(steps, 1e-2)
    rec = np.zeros(steps + 1, dtype=bool)
    rec[0] = rec[-1] = True
    m = kernels._PAIR_PRODUCT_MAX_N
    star = cl.gen_rotating_star(64, 0.1).piece_stack
    for pieces, batch in ((rng.random((1, 64, 64)), 16),
                          (rng.random((1, m, m)), 256), (star, 32)):
        n = pieces.shape[-1]
        piece_idx = np.arange(steps) % len(pieces)
        x0 = rng.normal(size=(batch, n, d))
        weights = batch * d * n * n if n <= m else 0
        floats = (batch * d * n * n + weights + batch * n * n + 6 * x0.size
                  + 2 * x0.size)
        tracemalloc.start()
        try:
            kernels.rk4_run(x0, pieces, piece_idx, hs, rec,
                            kernels.CuckerSmale(1.0, 1.0),
                            lambda lo, block: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 8 * floats, (n, len(pieces))


def test_rk4_run_leads_with_the_step_grid():
    # the pipeline benchmark counts RK4 steps as len(args[3]) of each
    # `_kernels.rk4_run` call
    params = list(inspect.signature(kernels.rk4_run).parameters)
    assert params[:4] == ["x0", "pieces", "piece_idx", "hs"]


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


def test_benchmark_runs(capsys, monkeypatch):
    from consensuslab import bench

    # the scaling rows at small shapes: the rows and columns stay the same
    monkeypatch.setattr(bench, "LARGE_RK4_SHAPE", (8, 4))
    monkeypatch.setattr(bench, "LONG_RK4_STEPS", 300)
    monkeypatch.setattr(bench, "LARGE_STAR_N", 8)
    monkeypatch.setattr(bench, "HUGE_STAR_N", 16)
    assert bench.main(["--repeats", "1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert [row[0] for row in rows] == [
        "rhs", "scrambling", "lambda2", "signal", "grid", "rk4", "rk4_star",
        "rk4_linear",
        "rk4_large", "rk4_long", "window_avg", "certify", "certify_large",
        "certify_huge", "diameters", "diameters_small", "contraction", "fit",
        "residual", "csv", "json", "import"]
    # a scaling row adds its traced peak to the median and quartiles
    assert [len(row) for row in rows] == [
        5 if row[0] in bench.TRACED_ROWS else 4 for row in rows]


@pytest.mark.parametrize("flag, value", [("--repeats", "0")])
def test_benchmark_rejects_too_small_sizes(capsys, flag, value):
    from consensuslab import bench

    with pytest.raises(SystemExit) as exc:
        bench.main([flag, value])
    assert exc.value.code == 2
    assert f"{flag} must be >= " in capsys.readouterr().err


def exact_ties(rng, per_k=100, digits=18):
    """Doubles m / 2^k (m odd) whose exact decimal expansion has `digits`
    significant digits, the last a 5: ties for rounding to one digit less."""
    ties = []
    for k in range(1, 40):
        lo = max(1, -(-10**(digits - 1) // 5**k))
        hi = min(2**53 - 1, 10**digits // 5**k)
        if lo > hi:
            continue
        m = rng.integers(lo, hi, size=per_k, endpoint=True) | 1
        ties += [int(v) / 2**k for v in m if len(str(int(v) * 5**k)) == digits]
    return np.array(ties)


class TestFormatG17:
    """`write_csv` (through `_text.format_g17`) against the per-cell
    "%.17g" writer, on values laid out as tables of a few widths."""

    def assert_per_cell(self, tmp_path, table):
        table = np.asarray(table, dtype=np.float64)
        header = ["t"] + [f"c{k}" for k in range(1, table.shape[1])]
        dynamics.write_csv(tmp_path / "got.csv", header, table[:, 0], table[:, 1:])
        csv_per_cell(tmp_path / "want.csv", header, table[:, 0], table[:, 1:])
        assert ((tmp_path / "got.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    def assert_values(self, tmp_path, values, width=9):
        values = np.concatenate([values, -values])
        pad = np.full(-len(values) % width, 0.5)
        self.assert_per_cell(tmp_path,
                             np.concatenate([values, pad]).reshape(-1, width))

    def test_exact_ties(self, tmp_path):
        ties = exact_ties(np.random.default_rng(3))
        window = (ties >= 1e-4) & (ties < 1e17)
        assert window.sum() > 1000 and (~window).sum() > 100
        self.assert_values(tmp_path, ties)

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        powers = np.array([float(f"1e{k}") for k in range(-6, 19)])
        self.assert_values(tmp_path, np.concatenate(
            [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))

    @pytest.mark.parametrize("exponents", [(-14, 57), (-1074, 1024)],
                             ids=["window", "all"])
    def test_random_binades(self, tmp_path, exponents):
        rng = np.random.default_rng(sum(exponents) % 1000)
        values = np.ldexp(rng.uniform(0.5, 1.0, 20_000),
                          rng.integers(*exponents, size=20_000))
        self.assert_values(tmp_path, values)

    def test_random_bit_patterns_and_round_decimals(self, tmp_path):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2**63, size=20_000).view(np.float64)
        decimals = np.round(rng.normal(size=5_000) * 1e3, 3)
        self.assert_values(tmp_path, np.concatenate(
            [bits[np.isfinite(bits)], decimals, np.arange(-500, 500) * 0.5]))

    def test_special_values(self, tmp_path):
        special = np.array([0.0, -0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308,
                            np.inf, -np.inf, np.nan, 1.0, 1e-4, 9.99e-5,
                            1e17, 99999999999999984.0, 1.7976931348623157e308])
        self.assert_values(tmp_path, special, width=5)
        self.assert_per_cell(tmp_path, special[:, None])
        self.assert_per_cell(tmp_path, special[None, :])

    def test_trajectory_width(self, tmp_path):
        # 257 columns, as the table of a 128-agent planar trajectory, over
        # several blocks of the default size, every cell class in each block
        step = dynamics._CSV_CHUNK_CELLS // 257  # rows per block
        rng = np.random.default_rng(257)
        shape = (3 * step + 5, 257)
        table = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 20, shape)
        table.reshape(-1)[::11] = 0.0
        table.reshape(-1)[5::13] = -0.0
        for lo in range(0, shape[0], step):
            block = table[lo:lo + step]
            ax = np.abs(block)
            for cls in (ax == 0, (0 < ax) & (ax < 1e-4), ax >= 1e17, block < 0):
                assert cls.any()
        self.assert_per_cell(tmp_path, table)

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (13, 4)],
                             ids=["1x1", "1x9", "9x1", "13x4"])
    def test_chunk_edges(self, tmp_path, monkeypatch, chunk, shape):
        monkeypatch.setattr(dynamics, "_CSV_CHUNK_CELLS", chunk)
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        table = rng.normal(size=shape) * 10.0 ** rng.integers(-7, 20, size=shape)
        table.reshape(-1)[::3] = 0.0
        self.assert_per_cell(tmp_path, table)


class TestFormatRepr:
    """`_text.format_repr` against Python's repr, one float at a time.
    Its fast path covers 1e-4 <= |x| < 1e16; every other cell falls back."""

    def assert_repr(self, values, sep=","):
        values = np.asarray(values, dtype=np.float64)
        values = np.concatenate([values, -values])
        assert text.format_repr(values, sep) == repr_join(values, sep)

    @pytest.mark.parametrize("digits", (16, 17, 18))
    def test_exact_ties(self, digits):
        # ties for rounding to 15, 16 and 17 digits
        ties = exact_ties(np.random.default_rng(digits), per_k=200, digits=digits)
        ties = ties[(ties >= 1e-4) & (ties < 1e16)]
        assert len(ties) > 1000
        self.assert_repr(ties)

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-6, 19)])
        self.assert_repr(np.concatenate(
            [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))

    def test_powers_of_two_and_neighbours(self):
        # every power of two in the fast window, where the lower half-gap is
        # half as wide, and a few on each side of it
        powers = np.ldexp(1.0, np.arange(-17, 57))
        self.assert_repr(np.concatenate(
            [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))

    def test_random_binades(self):
        # 2^-14 < 1e-4 and 2^53 < 1e16 < 2^54: every binade the window meets
        rng = np.random.default_rng(12)
        exponents = np.repeat(np.arange(-13, 55), 400)
        self.assert_repr(np.ldexp(rng.uniform(0.5, 1.0, exponents.size),
                                  exponents))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(13)
        low, high = np.array([1e-4, 1e16]).view(np.int64)
        self.assert_repr(rng.integers(low, high, 50_000).view(np.float64))

    def test_short_decimals_and_integers(self):
        rng = np.random.default_rng(14)
        decimals = [round(v, k) for v, k in zip(rng.uniform(0, 1e3, 5_000).tolist(),
                                                 rng.integers(0, 13, 5_000).tolist())]
        integers = rng.integers(1, 10**15, 5_000) // 10 ** rng.integers(0, 15, 5_000)
        self.assert_repr(np.concatenate([
            [0.1, 0.2, 0.3, 0.7, 1 / 3, 2 / 3, 0.1 + 0.2, 1.0, 2.5, 100.0, 1e15,
             2.0**53 - 1, 2.0**53, 2.0**53 + 2, 9999999999999998.0],
            decimals, integers.astype(np.float64), np.arange(1, 1000) / 8]))

    def test_fallback_classes(self):
        self.assert_repr([0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308,
                          1e-300, 1e-5, 9.99e-5, np.nextafter(1e-4, 0.0), 1e16,
                          1e17, 1.5e300, 1.7976931348623157e308, np.inf,
                          np.nan, 0.5, 1.0])

    @pytest.mark.parametrize("sep", [",", ",\n    ", "%s%%", ""])
    def test_separators_and_sizes(self, sep):
        assert text.format_repr(np.array([]), sep) == ""
        for values in ([0.1], [1e-5], [0.1, np.inf, 2.0, 0.0]):
            assert text.format_repr(np.array(values), sep) == repr_join(values, sep)
