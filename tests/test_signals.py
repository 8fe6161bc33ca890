import numpy as np
import pytest

import consensuslab as cl
from consensuslab import graphs, signals
from consensuslab.errors import HorizonUncovered, UnbalancedGraph

from oracles import (breakpoint_events_loop, lambda2_eigh, riemann_window_average,
                     scrambling_direct, window_average_scalar)


def adj(entries):
    return cl.AdjacencyMatrix.from_entries(np.asarray(entries, dtype=float))


def blinking_two():
    return cl.gen_blinking_pairs(2, dwell=1.0, duty=0.5)


def constant_signal(piece, span=1.0, mode="periodic"):
    return cl.PiecewiseConstantSignal(piece.n, np.array([0.0, span]), (piece,), mode)


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
    def test_chunked_matches_single_chunk(self, monkeypatch):
        rng = np.random.default_rng(39)
        sig = lattice_random_signal(rng, 3, pieces=5, balanced=True)
        window = cl.Window(0.3, 0.1)
        seen, calls = [], []
        for name in ("scrambling_min", "algebraic_connectivity_unchecked"):
            metric = getattr(signals, name)
            monkeypatch.setattr(signals, name, lambda avgs, metric=metric:
                                calls.append(len(avgs)) or seen.extend(avgs)
                                or metric(avgs))

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
    def test_rotating_star_two_agents(self):
        sig = cl.gen_rotating_star(2, 1.0)
        assert len(sig.pieces) == 2
        for piece in sig.pieces:
            assert piece == cl.AdjacencyMatrix.ones(2)

    def test_rotating_star_three(self):
        sig = cl.gen_rotating_star(3, 1.0)
        assert sig.period == 3.0
        assert sig.pieces[0] == cl.AdjacencyMatrix.star(3, 0)

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
