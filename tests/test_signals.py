import re
import tracemalloc
import warnings

import numpy as np
import pytest

import consensuslab as cl
from consensuslab import graphs, signals
from consensuslab.errors import HorizonUncovered, UnbalancedGraph

from oracles import (blinking_pairs_loop, breakpoint_events_loop,
                     cumulative_cumsum, lambda2_eigh, pieces_at_loop,
                     riemann_window_average, rotating_star_loop,
                     scrambling_direct, window_average_scalar)


def adj(entries):
    return cl.AdjacencyMatrix.from_entries(np.asarray(entries, dtype=float))


def blinking_two():
    return cl.gen_blinking_pairs(2, dwell=1.0, duty=0.5)


def constant_signal(piece, span=1.0, mode="periodic"):
    return cl.PiecewiseConstantSignal(piece.n, np.array([0.0, span]), (piece,), mode)


def clamped_blinking_pairs(last):
    """The pieces of blinking pairs (n = 6, dwell 0.1, duty 0.5) that start
    before 1.35, clamped, with the last breakpoint at ``last``."""
    base = cl.gen_blinking_pairs(6, 0.1, 0.5)
    starts = np.concatenate([base.breakpoints[:-1] + j * base.period
                             for j in range(3)])
    keep = starts < 1.35
    return cl.PiecewiseConstantSignal(
        6, np.append(starts[keep], last),
        np.concatenate([base.piece_stack] * 3)[keep], "clamped")


def scrambling_scan(sig, starts, tau):
    """Least scrambling coefficient of the window averages at `starts`."""
    return min(cl.scrambling(cl.AdjacencyMatrix(sig.n, avg))
               for avg in cl.window_average_batch(sig, starts, tau))


def lattice_random_signal(rng, n, pieces, total_units=200, unit=1.0 / 200.0,
                          balanced=False, mode="periodic"):
    """Random signal whose durations are lattice multiples of `unit`."""
    cuts = np.sort(rng.choice(np.arange(1, total_units), size=pieces - 1,
                              replace=False))
    counts = np.diff(np.concatenate([[0], cuts, [total_units]]))
    mats = []
    for _ in range(pieces):
        entries = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
        if balanced:
            entries = 0.5 * (entries + entries.T)
        np.fill_diagonal(entries, 1.0)
        mats.append(adj(entries))
    breakpoints = np.concatenate([[0.0], np.cumsum(counts)]) * unit
    return cl.PiecewiseConstantSignal(n, breakpoints, tuple(mats), mode)


class TestSignalType:
    def test_validates_breakpoints(self):
        piece = cl.AdjacencyMatrix.ones(2)
        with pytest.raises(ValueError):
            cl.PiecewiseConstantSignal(2, np.array([0.5, 1.0]), (piece,), "periodic")
        with pytest.raises(ValueError):
            cl.PiecewiseConstantSignal(2, np.array([0.0, 1.0, 1.0]),
                                       (piece, piece), "periodic")

    def test_piece_count(self):
        piece = cl.AdjacencyMatrix.ones(2)
        with pytest.raises(ValueError):
            cl.PiecewiseConstantSignal(2, np.array([0.0, 1.0]), (piece, piece),
                                       "periodic")

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_breakpoint_rejected(self, bad):
        piece = cl.AdjacencyMatrix.ones(2)
        with pytest.raises(ValueError, match="finite"):
            cl.PiecewiseConstantSignal(2, np.array([0.0, bad]), (piece,), "periodic")
        with pytest.raises(ValueError, match="finite"):
            cl.PiecewiseConstantSignal(2, np.array([0.0, 1.0, bad]),
                                       (piece, piece), "periodic")

    # `hub`: the stack is a view of one (2n - 1, 2n - 1) hub pattern
    @pytest.mark.parametrize("build, hub", [
        pytest.param(lambda: cl.gen_rotating_star(5, 0.2), True,
                     id="rotating_star"),
        pytest.param(lambda: cl.gen_blinking_pairs(6, 0.5, 0.3), False,
                     id="blinking"),
        pytest.param(lambda: cl.PiecewiseConstantSignal(
            2, [0.0, 1.0, 2.0], [cl.AdjacencyMatrix.ones(2),
                                 cl.AdjacencyMatrix.identity(2)], "clamped"),
            False, id="adjacency_sequence"),
        pytest.param(lambda: cl.PiecewiseConstantSignal(
            3, [0.0, 0.5], np.ones((1, 3, 3)), "periodic"), False, id="array"),
    ])
    def test_pieces_are_views_of_one_stack(self, build, hub):
        sig = build()
        stack = sig.piece_stack
        assert stack.shape == (len(sig.pieces), sig.n, sig.n)
        assert stack.dtype == np.float64
        if hub:
            # (2n - 1)^2 floats, not n^3
            base = stack.base
            assert base.shape == (2 * sig.n - 1,) * 2
            assert base.dtype == np.float64 and not base.flags.writeable
        else:
            assert stack.flags.c_contiguous
        assert not stack.flags.writeable
        for k, piece in enumerate(sig.pieces):
            assert isinstance(piece, cl.AdjacencyMatrix) and piece.n == sig.n
            assert np.shares_memory(piece.entries, stack)
            assert not piece.entries.flags.writeable
            assert np.array_equal(piece.entries, stack[k])

    def test_array_adopted_without_copy(self):
        stack = np.tile(np.eye(3), (2, 1, 1))
        sig = cl.PiecewiseConstantSignal(3, [0.0, 1.0, 2.0], stack, "periodic")
        assert sig.piece_stack is stack
        assert not stack.flags.writeable
        # an array that is not C-contiguous float64 is converted once
        strided = np.ones((2, 3, 6))[:, :, ::2]
        sig = cl.PiecewiseConstantSignal(3, [0.0, 1.0, 2.0], strided, "periodic")
        assert sig.piece_stack.flags.c_contiguous
        assert np.array_equal(sig.piece_stack, strided)
        # ... unless it is float64 and already read-only: then it is adopted
        # as it is, whatever its strides
        strided.setflags(write=False)
        sig = cl.PiecewiseConstantSignal(3, [0.0, 1.0, 2.0], strided, "periodic")
        assert sig.piece_stack is strided
        # a read-only array of another dtype is still converted
        ints = np.ones((2, 3, 3), dtype=np.int64)
        ints.setflags(write=False)
        sig = cl.PiecewiseConstantSignal(3, [0.0, 1.0, 2.0], ints, "periodic")
        assert sig.piece_stack.dtype == np.float64
        assert sig.piece_stack.flags.c_contiguous

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda s: s.__setitem__((1, 0, 2), np.nan), id="nan"),
        pytest.param(lambda s: s.__setitem__((0, 2, 0), np.inf), id="inf"),
        pytest.param(lambda s: s.__setitem__((1, 1, 2), 1.5), id="above_one"),
        pytest.param(lambda s: s.__setitem__((0, 0, 1), -0.1), id="negative"),
        pytest.param(lambda s: s.__setitem__((1, 2, 2), 0.5), id="diagonal"),
        pytest.param(lambda s: s.__setitem__((1, 2, 2), np.nan),
                     id="nan_diagonal"),
    ])
    def test_bad_stack_entries_rejected(self, edit):
        stack = np.ones((2, 3, 3))
        edit(stack)
        with pytest.raises(ValueError):
            cl.PiecewiseConstantSignal(3, [0.0, 1.0, 2.0], stack, "periodic")

    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 4, 4), (3, 3, 3), (1, 3, 3),
                                       (3, 3), (2, 3, 3, 1)])
    def test_bad_stack_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            cl.PiecewiseConstantSignal(3, [0.0, 1.0, 2.0], np.ones(shape),
                                       "periodic")

    def test_cumulative_matches_cumsum_bitwise(self):
        rng = np.random.default_rng(17)
        for pieces in (1, 2, 7):
            sig = lattice_random_signal(rng, 4, pieces=pieces)
            cum = sig._cumulative
            assert not cum[0].any()
            assert cum[1:].tobytes() == cumulative_cumsum(sig).tobytes()
        # irregular durations, entries just below zero and negative zeros
        entries = rng.random((9, 5, 5)) * (rng.random((9, 5, 5)) < 0.6)
        entries[entries == 0] = -0.0
        entries[:, 0, 1] = -1e-13
        entries[:, np.arange(5), np.arange(5)] = 1.0
        bp = np.concatenate([[0.0], np.cumsum(rng.random(9) + 0.01)])
        sig = cl.PiecewiseConstantSignal(5, bp, entries, "clamped")
        assert sig._cumulative[1:].tobytes() == cumulative_cumsum(sig).tobytes()

    def test_json_round_trip(self):
        sig = blinking_two()
        again = cl.PiecewiseConstantSignal.from_json_dict(sig.to_json_dict())
        assert again.mode == sig.mode
        assert np.array_equal(again.breakpoints, sig.breakpoints)
        assert all(a == b for a, b in zip(again.pieces, sig.pieces))


class TestEvaluate:
    def test_single_piece(self):
        piece = cl.AdjacencyMatrix.ones(3)
        sig = constant_signal(piece)
        for t in (0.0, 0.3, 5.7):
            assert cl.evaluate(sig, t) == piece

    def test_periodic_wrap(self):
        first, second = cl.AdjacencyMatrix.ones(2), cl.AdjacencyMatrix.identity(2)
        sig = cl.PiecewiseConstantSignal(2, np.array([0.0, 1.0, 2.0]),
                                         (first, second), "periodic")
        assert cl.evaluate(sig, 2.5) == first
        assert cl.evaluate(sig, 1.0) == second  # right-continuous

    def test_clamped_tail(self):
        first, second = cl.AdjacencyMatrix.ones(2), cl.AdjacencyMatrix.identity(2)
        sig = cl.PiecewiseConstantSignal(2, np.array([0.0, 1.0, 2.0]),
                                         (first, second), "clamped")
        assert cl.evaluate(sig, 7.0) == second

    @pytest.mark.parametrize("make, t_end", [
        (lambda: cl.gen_rotating_star(5, 0.2), 10.0),
        (lambda: cl.gen_rotating_star(128, 0.05), 10.0),
        (lambda: cl.gen_blinking_pairs(32, 0.1, 0.5), 10.0),
        (lambda: cl.gen_rotating_star(7, 0.13), 50.0),
        (lambda: cl.PiecewiseConstantSignal(
            7, 0.13 * np.arange(8.0), cl.gen_rotating_star(7, 0.13).piece_stack,
            "clamped"), 50.0),
    ], ids=("star5", "star128", "pairs32", "star7", "star7_clamped"))
    def test_agrees_with_piece_starts(self, make, t_end):
        # every piece starts where the step grid starts it: at the times
        # `piece_starts` computes, not an ulp later (divmod(1.2, 1.0) leaves
        # 0.19999999999999996, before the star5 start at 0.2, while
        # 1.0 + 0.2 rounds to 1.2), and the ulp before a start is still in
        # the piece before
        sig = make()
        m = len(sig.pieces)
        times, pieces = sig.piece_starts(t_end)
        assert len(times) >= m
        for t, p in zip(times.tolist(), pieces.tolist()):
            assert sig.pieces_at(t) == p, t
            if t > 0:
                assert sig.pieces_at(np.nextafter(t, -np.inf)) == (p - 1) % m, t
        # one call on every start, and one on every ulp before a start, agree
        # with the independent forward walk
        before = np.nextafter(times[1:], -np.inf)
        for at in (times, before):
            assert sig.pieces_at(at).tolist() == pieces_at_loop(sig, at)

    @pytest.mark.parametrize("mode", ("periodic", "clamped"))
    def test_nan_time_rejected(self, mode):
        # NaN, inf or a negative time anywhere in the array
        sig = constant_signal(cl.AdjacencyMatrix.ones(2), mode=mode)
        for bad in (np.nan, np.inf, -1e-300):
            with pytest.raises(ValueError, match="finite"):
                sig.pieces_at(np.array([0.0, 0.5, bad, 2.0]))
        with pytest.raises(ValueError, match="finite"):
            cl.evaluate(sig, np.inf)

    def test_lookup_is_lap_local(self):
        # only the starts of the laps the time spans are built: a lookup
        # from lap 0 would build 5e5 starts (4 MB of times) here
        sig = cl.gen_rotating_star(5, 0.2)
        t = 1e5 * sig.period + 0.1  # 0.1 into a lap: the first piece
        cl.evaluate(sig, 0.1)
        tracemalloc.start()
        try:
            piece = cl.evaluate(sig, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024
        assert piece == sig.pieces[0]


class TestWindow:
    def test_infinite_tau_rejected(self):
        with pytest.raises(ValueError, match="tau must be finite and > 0"):
            cl.Window(np.inf, 0.5)


class TestWindowAverage:
    def test_constant_signal(self):
        piece = adj([[1.0, 0.25], [0.75, 1.0]])
        sig = constant_signal(piece)
        for t, tau in ((0.0, 1.0), (0.3, 0.7), (2.2, 3.5)):
            assert np.allclose(cl.window_average(sig, t, tau).entries,
                               piece.entries, atol=1e-12)

    def test_blinking_duty_cycle(self):
        sig = blinking_two()
        avg = cl.window_average(sig, 0.0, 1.0)
        assert np.allclose(avg.entries, [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)
        off = cl.window_average(sig, 0.5, 0.5)
        assert np.array_equal(off.entries, np.eye(2))

    def test_is_the_read_only_batch_row(self):
        sig = cl.gen_blinking_pairs(6, 0.4, 0.5)
        avg = cl.window_average(sig, 0.3, 1.1)
        assert not avg.entries.flags.writeable
        assert np.array_equal(avg.entries,
                              cl.window_average_batch(sig, [0.3], 1.1)[0])
        assert avg == cl.AdjacencyMatrix(6, avg.entries)

    def test_riemann_sum_agreement_lattice(self):
        # durations on the Riemann lattice, so the sums are exact
        rng = np.random.default_rng(31)
        for _ in range(5):
            sig = lattice_random_signal(rng, 3, pieces=4, total_units=100,
                                        unit=1e-2)
            t = float(rng.integers(0, 100)) * 1e-4 * 100
            avg = cl.window_average(sig, t, 1.0)
            oracle = riemann_window_average(sig, t, 1.0, steps=10_000)
            assert np.abs(avg.entries - oracle).max() <= 1e-6

    def test_riemann_sum_agreement_generic(self):
        # off-lattice windows: agreement at the Riemann resolution only
        rng = np.random.default_rng(32)
        sig = lattice_random_signal(rng, 3, pieces=5)
        for _ in range(3):
            t, tau = float(rng.random() * 2.0), float(0.2 + rng.random())
            avg = cl.window_average(sig, t, tau)
            oracle = riemann_window_average(sig, t, tau, steps=10_000)
            assert np.abs(avg.entries - oracle).max() <= 2e-3

    def test_batch_matches_single(self):
        rng = np.random.default_rng(33)
        for mode in ("periodic", "clamped"):
            # a period of 0.7 (not a power of two) makes t - floor(t/P)*P
            # round differently from divmod on many of these starts
            sig = lattice_random_signal(rng, 4, pieces=5, total_units=70,
                                        unit=1e-2, mode=mode)
            starts = np.concatenate([rng.random(50) * 3.0, sig.breakpoints,
                                     sig.breakpoints + 1.0, 0.1 * np.arange(40)])
            batch = cl.window_average_batch(sig, starts, 0.77)
            for k, t in enumerate(starts):
                assert np.array_equal(batch[k],
                                      window_average_scalar(sig, float(t), 0.77))

    def test_negative_start_rejected(self):
        sig = lattice_random_signal(np.random.default_rng(37), 3, pieces=3,
                                    mode="clamped")
        with pytest.raises(ValueError, match="t must be >= 0"):
            cl.window_average_batch(sig, [0.5, -1.0], 0.5)
        with pytest.raises(ValueError, match="t must be >= 0"):
            cl.window_average(sig, -1.0, 0.5)

    def test_nan_start_rejected(self):
        sig = lattice_random_signal(np.random.default_rng(38), 3, pieces=3)
        with pytest.raises(ValueError, match="t must be >= 0 and finite"):
            cl.window_average_batch(sig, [np.nan], 0.3)
        with pytest.raises(ValueError, match="t must be >= 0 and finite"):
            cl.window_average_batch(sig, [0.5, np.nan], 0.3)

    @pytest.mark.parametrize("mode", ("periodic", "clamped"))
    @pytest.mark.parametrize("start, tau", [(np.inf, 0.3), (0.0, np.inf)],
                             ids=["inf_start", "inf_tau"])
    def test_infinite_start_or_tau_rejected(self, mode, start, tau):
        sig = lattice_random_signal(np.random.default_rng(39), 3, pieces=3,
                                    mode=mode)
        with pytest.raises(ValueError, match="finite"):
            cl.window_average_batch(sig, [start], tau)

    @pytest.mark.parametrize("start, tau", [(1e300, 0.3), (1.7e308, 1e308)],
                             ids=["rounded_away", "overflow"])
    def test_window_lost_to_rounding_rejected(self, start, tau):
        # 1e300 + 0.3 rounds back to 1e300 (an empty window), and
        # 1.7e308 + 1e308 overflows: both raise instead of a wrong average
        # or a RuntimeWarning
        sig = cl.gen_rotating_star(3, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="t \\+ tau must be finite"):
                cl.window_average_batch(sig, [start], tau)

    def test_clamped_beyond_coverage(self):
        first = cl.AdjacencyMatrix.ones(2)
        sig = constant_signal(first, span=1.0, mode="clamped")
        assert np.allclose(cl.window_average(sig, 5.0, 2.0).entries,
                           first.entries)


class TestPieceStarts:
    def test_matches_loop(self):
        rng = np.random.default_rng(38)
        for mode in ("periodic", "clamped"):
            for pieces in (1, 2, 5):
                sig = lattice_random_signal(rng, 2, pieces=pieces, mode=mode)
                ends = [1e-9, 0.37, *sig.breakpoints[1:], 2.0, 3.0, 7.3,
                        10.0 + 1e-12]
                for t_end in ends:
                    times, idx = sig.piece_starts(float(t_end))
                    old_times, old_idx = breakpoint_events_loop(sig, float(t_end))
                    assert np.array_equal(times, old_times)
                    assert np.array_equal(idx, old_idx)
                    assert idx.dtype == old_idx.dtype == np.int64


class TestCertify:
    @pytest.mark.parametrize("kinds", [("foo",), ("eta", "foo"), (["eta"],)])
    def test_unknown_kind_named(self, kinds):
        sig = cl.gen_blinking_pairs(4, 0.5, 0.5)
        with pytest.raises(ValueError, match=re.escape(repr(kinds[-1]))):
            signals.certify(sig, cl.Window(1.0, 0.1), 2.0, kinds)

    def test_chunked_matches_single_chunk(self, monkeypatch):
        rng = np.random.default_rng(39)
        sig = lattice_random_signal(rng, 3, pieces=5, balanced=True)
        window = cl.Window(0.3, 0.1)
        seen, calls = [], []
        for kind, (metric, report_kind) in list(signals._KINDS.items()):
            monkeypatch.setitem(signals._KINDS, kind, (
                lambda avgs, metric=metric: calls.append(len(avgs))
                or seen.extend(avgs) or metric(avgs), report_kind))

        def certify_both():
            seen.clear()
            calls.clear()
            return ([certify(sig, window, 10.0)
                     for certify in (cl.certify_eta, cl.certify_lambda2)],
                    list(seen), list(calls))

        whole, whole_seen, whole_calls = certify_both()
        starts = signals._critical_starts(sig, window.tau, 10.0)
        expect = [window_average_scalar(sig, float(t), window.tau) for t in starts]
        assert whole_calls == [len(starts)] * 2  # one metric call per chunk
        assert len(whole_seen) == 2 * len(starts)
        assert all(np.array_equal(a, b) for a, b in zip(whole_seen, expect * 2))
        # three starts per chunk, and a short last chunk
        assert len(starts) > 6 and len(starts) % 3 != 0
        monkeypatch.setattr(signals, "_CHUNK_FLOATS", 3 * sig.n**2)
        chunked, chunked_seen, chunked_calls = certify_both()
        assert chunked == whole
        per_metric = [3] * (len(starts) // 3) + [len(starts) % 3]
        assert chunked_calls == per_metric * 2
        assert len(chunked_seen) == len(whole_seen)
        assert all(np.array_equal(a, b) for a, b in zip(chunked_seen, whole_seen))

    @pytest.mark.parametrize("mode, tau, horizon", [
        ("periodic", 0.3, 10.0), ("periodic", 2.7, 10.0),
        ("periodic", 0.3, 0.45), ("clamped", 0.3, 0.6)],
        ids=["periodic", "tau_over_period", "short_horizon", "clamped"])
    @pytest.mark.parametrize("per_chunk", [None, 3])
    def test_one_pass_matches_each_kind(self, monkeypatch, mode, tau,
                                        horizon, per_chunk):
        rng = np.random.default_rng(40)
        sig = lattice_random_signal(rng, 3, pieces=6, balanced=True, mode=mode)
        window = cl.Window(tau, 0.1)
        if per_chunk is not None:
            monkeypatch.setattr(signals, "_CHUNK_FLOATS", per_chunk * sig.n**2)
        eta = cl.certify_eta(sig, window, horizon)
        lam = cl.certify_lambda2(sig, window, horizon)
        assert (eta.kind, lam.kind) == ("scrambling", "connectivity")
        kinds = ("eta", "lambda2")
        assert signals.certify(sig, window, horizon, kinds) == [eta, lam]
        assert signals.certify(sig, window, horizon, kinds[::-1]) == [lam, eta]

    @pytest.mark.parametrize("mode, tau", [("periodic", 0.3), ("periodic", 2.7),
                                           ("clamped", 0.3)])
    def test_one_window_average_per_chunk(self, monkeypatch, mode, tau):
        rng = np.random.default_rng(41)
        sig = lattice_random_signal(rng, 3, pieces=6, balanced=True, mode=mode)
        horizon = 10.0 if mode == "periodic" else 0.6
        starts = signals._critical_starts(sig, tau, horizon)
        per = 3 if len(starts) % 3 else 4
        assert len(starts) > per and len(starts) % per  # a short last chunk
        monkeypatch.setattr(signals, "_CHUNK_FLOATS", per * sig.n**2)
        sizes = []
        batch = signals.window_average_batch
        monkeypatch.setattr(signals, "window_average_batch",
                            lambda sig, starts, tau:
                            sizes.append(len(starts)) or batch(sig, starts, tau))
        reports = signals.certify(sig, cl.Window(tau, 0.1), horizon,
                                  ("eta", "lambda2"))
        assert [r.checked_starts for r in reports] == [len(starts)] * 2
        assert sizes == [per] * (len(starts) // per) + [len(starts) % per]

    def test_blinking_full_period_passes(self):
        rep = cl.certify_eta(blinking_two(), cl.Window(1.0, 0.5), 10.0)
        assert rep.passes
        assert rep.infimum_value == pytest.approx(0.5, abs=1e-12)
        assert rep.kind == "scrambling"

    def test_blinking_half_window_fails(self):
        rep = cl.certify_eta(blinking_two(), cl.Window(0.5, 0.1), 10.0)
        assert not rep.passes
        assert rep.infimum_value == pytest.approx(0.0, abs=1e-12)
        assert rep.worst_start == pytest.approx(0.5, abs=1e-12)

    def test_constant_all_ones(self):
        sig = constant_signal(cl.AdjacencyMatrix.ones(4))
        rep = cl.certify_eta(sig, cl.Window(0.7, 1.0), 5.0)
        assert rep.passes and rep.infimum_value == pytest.approx(1.0)
        rep2 = cl.certify_lambda2(sig, cl.Window(1.0, 1.0), 5.0)
        assert rep2.passes and rep2.infimum_value == pytest.approx(1.0)

    def test_blinking_lambda2(self):
        rep = cl.certify_lambda2(blinking_two(), cl.Window(1.0, 0.5), 10.0)
        assert rep.passes
        assert rep.infimum_value == pytest.approx(0.5, abs=1e-12)

    def test_identity_signal_fails(self):
        sig = constant_signal(cl.AdjacencyMatrix.identity(3))
        rep = cl.certify_lambda2(sig, cl.Window(1.0, 0.05), 5.0)
        assert not rep.passes and rep.infimum_value == 0.0

    def test_unbalanced_piece_rejected(self):
        piece = adj([[1.0, 1.0], [0.0, 1.0]])
        sig = constant_signal(piece)
        with pytest.raises(UnbalancedGraph):
            cl.certify_lambda2(sig, cl.Window(1.0, 0.1), 5.0)

    def test_balance_decided_once_per_signal(self, monkeypatch):
        # the pieces are checked once per signal, the window averages never
        sig = cl.gen_blinking_pairs(4, 0.5, 0.5)
        seen = []
        for module in (signals, graphs):
            check = module.unbalanced
            monkeypatch.setattr(module, "unbalanced", lambda stack, check=check:
                                seen.append(stack.shape) or check(stack))
        for _ in range(2):
            cl.certify_lambda2(sig, cl.Window(1.5, 0.05), 6.0)
        assert seen == [sig.piece_stack.shape]

    def test_certification_holds_the_pieces_once(self):
        # the stack, the cumulative integrals and chunk-sized scratch: at
        # n=64 three dense copies of the pieces plus _cumulative reached
        # about 4x the stack's bytes
        window = cl.Window(0.35, 0.01)
        cl.certify_eta(cl.gen_rotating_star(4, 0.1), window, 10.0)
        tracemalloc.start()
        try:
            sig = cl.gen_rotating_star(64, 0.1)
            cl.certify_eta(sig, window, 10.0)
            cl.certify_lambda2(sig, window, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * sig.piece_stack.nbytes

    def test_first_unbalanced_piece_named(self):
        ones, skew = cl.AdjacencyMatrix.ones(2), adj([[1.0, 1.0], [0.0, 1.0]])
        sig = cl.PiecewiseConstantSignal(2, np.arange(4.0), (ones, skew, skew),
                                         "periodic")
        with pytest.raises(UnbalancedGraph, match="piece 1 is not balanced"):
            cl.certify_lambda2(sig, cl.Window(1.0, 0.1), 5.0)

    def test_clamped_horizon_uncovered(self):
        piece = cl.AdjacencyMatrix.ones(2)
        sig = cl.PiecewiseConstantSignal(2, np.array([0.0, 1.0, 2.0]),
                                         (piece, piece), "clamped")
        with pytest.raises(HorizonUncovered):
            cl.certify_eta(sig, cl.Window(1.0, 0.5), 1.5)
        rep = cl.certify_eta(sig, cl.Window(1.0, 0.5), 1.0)  # covered
        assert rep.passes

    def test_periodic_short_horizon_scans_only_horizon(self):
        # the all-ones half of the period covers every window starting in [0, 2]
        sig = cl.PiecewiseConstantSignal(
            3, np.array([0.0, 5.0, 10.0]),
            (cl.AdjacencyMatrix.ones(3), cl.AdjacencyMatrix.identity(3)), "periodic")
        for certify in (cl.certify_eta, cl.certify_lambda2):
            rep = certify(sig, cl.Window(1.0, 0.5), 2.0)
            assert rep.passes and rep.infimum_value == pytest.approx(1.0)
            assert 0.0 <= rep.worst_start <= 2.0
        assert not cl.certify_eta(sig, cl.Window(1.0, 0.5), 20.0).passes

    def test_certified_matches_dense_scan(self):
        rng = np.random.default_rng(34)
        for case in range(8):
            sig = lattice_random_signal(rng, 3, pieces=int(rng.integers(2, 7)),
                                        balanced=True)
            tau = float(rng.integers(20, 180)) / 200.0
            for horizon in (10.0, 0.37 * sig.period):
                rep = cl.certify_eta(sig, cl.Window(tau, 0.5), horizon)
                span = min(horizon, sig.period)
                starts = span * np.arange(2001) / 2000.0
                scan = scrambling_scan(sig, starts, tau)
                assert rep.infimum_value <= scan + 1e-9
                assert rep.infimum_value >= scan - 1e-9

    def test_shift_invariance_over_periods(self):
        # scanning any period-length interval yields the same infimum
        rng = np.random.default_rng(35)
        sig = lattice_random_signal(rng, 3, pieces=4)
        tau = 0.4
        base = cl.certify_eta(sig, cl.Window(tau, 0.5), 10.0)
        for shift in (0.13, 0.5, 0.87):
            starts = shift + sig.period * np.arange(1500) / 1500.0
            scan = scrambling_scan(sig, starts, tau)
            assert scan >= base.infimum_value - 1e-12

    @pytest.mark.parametrize("mode", ("periodic", "clamped"))
    @pytest.mark.parametrize("k", range(-60, 61, 4))
    def test_certificate_independent_of_time_unit(self, k, mode):
        # metamorphic relation: breakpoints, tau and horizon times 2^k (an
        # exact scaling) give the same infimum bits and critical starts, and
        # the worst start times 2^k, for both kinds
        scale = 2.0 ** k
        base = (cl.gen_blinking_pairs(6, 0.1, 0.5) if mode == "periodic"
                else clamped_blinking_pairs(1.0 + 0.35))
        sig = cl.PiecewiseConstantSignal(6, base.breakpoints * scale,
                                         base.piece_stack, mode)
        kinds = ("eta", "lambda2")
        want = signals.certify(base, cl.Window(0.35, 0.06), 1.0, kinds)
        got = signals.certify(sig, cl.Window(0.35 * scale, 0.06), scale, kinds)
        for g, w in zip(got, want):
            assert g.infimum_value.hex() == w.infimum_value.hex()
            assert g.checked_starts == w.checked_starts
            assert g.worst_start == w.worst_start * scale

    def test_clamped_certificate_independent_of_last_breakpoint(self):
        # the last piece of a clamped signal lasts past its last breakpoint,
        # so moving that breakpoint from horizon + tau out to 1e11 keeps the
        # signal: kinks 0.05 apart stay distinct starts, and the half-on
        # window fails at 1/21 either way
        kinds = ("eta", "lambda2")
        window = cl.Window(0.35, 0.06)
        want = signals.certify(clamped_blinking_pairs(1.0 + 0.35), window,
                               1.0, kinds)
        got = signals.certify(clamped_blinking_pairs(1e11), window, 1.0, kinds)
        for g, w in zip(got, want):
            assert g.infimum_value.hex() == w.infimum_value.hex()
            assert g.checked_starts == w.checked_starts
            assert g.worst_start == w.worst_start
            assert g.infimum_value == pytest.approx(1 / 21, rel=1e-12)

    def test_lambda2_concavity_direction(self):
        # lambda2(window average) >= window average of per-piece lambda2
        rng = np.random.default_rng(36)
        for _ in range(5):
            sig = lattice_random_signal(rng, 3, pieces=4, balanced=True)
            piece_lams = np.array([cl.algebraic_connectivity(p)
                                   for p in sig.pieces])
            durations = np.diff(sig.breakpoints)
            for t in (0.0, 0.25, 0.6):
                tau = sig.period
                lam_avg = cl.algebraic_connectivity(
                    cl.window_average(sig, t, tau))
                avg_lam = float((piece_lams * durations).sum() / tau)
                assert lam_avg >= avg_lam - 1e-9


class TestGenerators:
    @pytest.mark.parametrize("make", [
        lambda: cl.gen_rotating_star(4, 0.1, 7),
        lambda: cl.gen_blinking_pairs(4, 0.1, 0.5, 7)], ids=["star", "pairs"])
    def test_no_seed_parameter(self, make):
        # both generators are deterministic; the unused seed is gone
        with pytest.raises(TypeError):
            make()

    def test_rotating_star_two_agents(self):
        sig = cl.gen_rotating_star(2, 1.0)
        assert len(sig.pieces) == 2
        for piece in sig.pieces:
            assert piece == cl.AdjacencyMatrix.ones(2)

    def test_rotating_star_three(self):
        sig = cl.gen_rotating_star(3, 1.0)
        assert sig.period == 3.0
        assert sig.pieces[0] == cl.AdjacencyMatrix.star(3, 0)

    def test_rotating_star_holds_one_hub(self):
        # 4n^2 floats of hub pattern (0.5 MB at n = 128), not n^3 (16.8 MB)
        cl.gen_rotating_star(4, 0.05)
        tracemalloc.start()
        try:
            sig = cl.gen_rotating_star(128, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert sig.piece_stack.nbytes == 8 * 128**3

    def test_rotating_star_pieces_balanced(self):
        for n in (2, 3, 5, 8):
            sig = cl.gen_rotating_star(n, 0.25)
            assert all(cl.is_balanced(p) for p in sig.pieces)

    def test_blinking_two_matches_reference(self):
        sig = blinking_two()
        assert np.array_equal(sig.breakpoints, [0.0, 0.5, 1.0])
        assert sig.pieces[0] == cl.AdjacencyMatrix.ones(2)
        assert sig.pieces[1] == cl.AdjacencyMatrix.identity(2)

    def test_blinking_duty_one_has_no_off_segments(self):
        sig = cl.gen_blinking_pairs(4, dwell=0.5, duty=1.0)
        assert len(sig.pieces) == 3
        for piece in sig.pieces:
            assert not np.array_equal(piece.entries, np.eye(4))

    def test_blinking_four_visits_all_matchings(self):
        sig = cl.gen_blinking_pairs(4, dwell=0.5, duty=0.5)
        matchings = {
            frozenset({frozenset({i, j})
                       for i, j in zip(*np.nonzero(np.triu(p.entries, 1)))})
            for p in sig.pieces[::2]
        }
        expected = {
            frozenset({frozenset({0, 3}), frozenset({1, 2})}),
            frozenset({frozenset({1, 3}), frozenset({0, 2})}),
            frozenset({frozenset({2, 3}), frozenset({0, 1})}),
        }
        assert matchings == expected

    @pytest.mark.parametrize("n", (2, 4, 6, 32))
    def test_rotating_star_matches_per_piece_loop(self, n):
        for dwell in (0.05, 0.3, 1.0):
            sig, ref = cl.gen_rotating_star(n, dwell), rotating_star_loop(n, dwell)
            assert sig.breakpoints.tobytes() == ref.breakpoints.tobytes()
            assert sig.piece_stack.tobytes() == ref.piece_stack.tobytes()

    @pytest.mark.parametrize("n", (2, 4, 6, 32))
    @pytest.mark.parametrize("duty", (0.3, 0.5, 1.0))
    def test_blinking_matches_round_robin_loop(self, n, duty):
        for dwell in (0.1, 0.7, 1.0):
            sig = cl.gen_blinking_pairs(n, dwell, duty)
            ref = blinking_pairs_loop(n, dwell, duty)
            assert sig.breakpoints.tobytes() == ref.breakpoints.tobytes()
            assert sig.piece_stack.tobytes() == ref.piece_stack.tobytes()

    def test_blinking_rejects_odd(self):
        with pytest.raises(ValueError):
            cl.gen_blinking_pairs(3, 1.0, 0.5)

    def test_reference_lambda2_infimum(self):
        sig = cl.gen_blinking_pairs(4, dwell=0.5, duty=0.5)
        rep = cl.certify_lambda2(sig, cl.Window(1.5, 0.1), 10.0)
        avg = cl.window_average(sig, 0.0, 1.5)
        assert rep.infimum_value == pytest.approx(lambda2_eigh(avg.entries),
                                                  abs=1e-10)
        assert rep.infimum_value == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_rotating_star_eta_infimum(self):
        sig = cl.gen_rotating_star(5, 0.2)
        rep = cl.certify_eta(sig, cl.Window(1.0, 0.04), 10.0)
        avg = cl.window_average(sig, 0.0, 1.0)
        assert rep.infimum_value == pytest.approx(scrambling_direct(avg.entries),
                                                  abs=1e-12)
        assert rep.infimum_value == pytest.approx(0.4, abs=1e-12)
