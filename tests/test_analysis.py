import tracemalloc

import numpy as np
import pytest

import consensuslab as cl
from consensuslab.errors import (
    InvalidPair,
    NonPositiveValue,
    SpanTooShort,
    UnbalancedGraph,
)

from consensuslab import analysis, dynamics

from oracles import (contraction_factors_loop, dissipation_residual_loop,
                     dissipation_residual_per_piece)


def config(positions):
    return cl.Configuration.from_positions(np.asarray(positions, dtype=float))


def all_ones_signal(n=2):
    return cl.PiecewiseConstantSignal(
        n, np.array([0.0, 1.0]), (cl.AdjacencyMatrix.ones(n),), "periodic")


def identity_signal(n):
    return cl.PiecewiseConstantSignal(
        n, np.array([0.0, 1.0]), (cl.AdjacencyMatrix.identity(n),), "periodic")


class TestObservables:
    def test_diameter_examples(self):
        assert cl.diameter(config(np.full((3, 2), 0.7))) == 0.0
        assert cl.diameter(config([0.0, 0.5, 1.0])) == 1.0
        assert cl.diameter(config([[0.0, 0.0], [3.0, 4.0]])) == 5.0

    def test_variance_examples(self):
        assert cl.variance(config(np.full((5, 1), 2.0))) == 0.0
        assert cl.variance(config([-1.0, 1.0])) == 1.0

    def test_variance_translation_invariant(self):
        rng = np.random.default_rng(71)
        x = rng.normal(size=(6, 3))
        shift = rng.normal(size=3)
        assert cl.variance(config(x + shift)) == pytest.approx(
            cl.variance(config(x)), rel=1e-12)

    def test_variance_is_batch_of_one(self):
        # one (n, d) configuration, alone and inside a stack of them
        rng = np.random.default_rng(76)
        for _ in range(300):
            n, d = int(rng.integers(1, 40)), int(rng.integers(1, 4))
            scale = 10.0 ** rng.uniform(-6, 6)
            stack = scale * (rng.normal(size=(3, n, d)) + rng.normal())
            batch = dynamics.variances(stack)
            for k, pos in enumerate(stack):
                got = cl.variance(config(pos))
                assert got == dynamics.variances(pos) == batch[k]

    def test_mean_examples(self):
        assert cl.mean(config([-1.0, 1.0]))[0] == 0.0
        assert np.array_equal(cl.mean(config([[2.0, 3.0]])), [2.0, 3.0])
        rng = np.random.default_rng(72)
        x, shift = rng.normal(size=(4, 2)), rng.normal(size=2)
        assert np.allclose(cl.mean(config(x + shift)),
                           cl.mean(config(x)) + shift)

    def test_diameter_bounds(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            x = config(rng.normal(size=(rng.integers(1, 7), rng.integers(1, 4))))
            dia, var = cl.diameter(x), cl.variance(x)
            assert dia <= 2.0 * np.linalg.norm(x.positions, axis=1).max() + 1e-12
            assert var <= dia**2 + 1e-12
            assert (dia == 0.0) == (var <= 1e-30)


class TestDiameterPairs:
    def test_line_endpoints(self):
        pairs = cl.diameter_pairs(config([0.0, 0.5, 1.0]))
        assert pairs.pairs == {(0, 2), (2, 0)}
        assert pairs.value == 1.0

    def test_square_diagonals(self):
        square = config([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        pairs = cl.diameter_pairs(square)
        assert pairs.pairs == {(0, 2), (2, 0), (1, 3), (3, 1)}

    def test_two_clusters_all_cross_pairs(self):
        x = config([[0.0], [0.0], [1.0], [1.0]])
        pairs = cl.diameter_pairs(x)
        assert pairs.pairs == {(0, 2), (0, 3), (1, 2), (1, 3),
                               (2, 0), (3, 0), (2, 1), (3, 1)}

    @pytest.mark.parametrize("tol", [np.nan, -1.0])
    def test_bad_tol_rejected(self, tol):
        # NaN or a negative tol used to give an empty pair set
        with pytest.raises(ValueError, match="tol"):
            cl.diameter_pairs(config([0.0, 0.5, 1.0]), tol)


class TestMaximizerGeometry:
    def test_line_midpoint_gap(self):
        x = config([0.0, 0.5, 1.0])
        gap = cl.check_maximizer_geometry(x, (2, 0), 1)
        assert gap == pytest.approx(0.5)

    def test_gap_at_opposite_end_is_squared_diameter(self):
        x = config([[0.0, 0.0], [3.0, 4.0]])
        gap = cl.check_maximizer_geometry(x, (1, 0), 0)
        assert gap == pytest.approx(25.0)

    def test_invalid_pair(self):
        x = config([0.0, 0.5, 1.0])
        with pytest.raises(InvalidPair):
            cl.check_maximizer_geometry(x, (0, 1), 2)

    def test_coincident_test_point_rejected(self):
        x = config([0.0, 0.5, 1.0])
        with pytest.raises(ValueError):
            cl.check_maximizer_geometry(x, (2, 0), 2)

    @pytest.mark.parametrize("tol", [np.nan, -1.0])
    def test_bad_tol_rejected(self, tol):
        # a NaN tol used to accept any pair, here one not attaining the diameter
        with pytest.raises(ValueError, match="tol"):
            cl.check_maximizer_geometry(config([0.0, 0.5, 1.0]), (0, 1), 2, tol)

    def test_gaps_against_later_states(self):
        # hull nesting: positions from any later time are valid test points
        rng = np.random.default_rng(74)
        sig = cl.gen_rotating_star(5, 0.2)
        x0 = config(rng.normal(size=(5, 2)))
        traj = cl.integrate(x0, sig, cl.CuckerSmale(1.0, 1.0), 3.0, 1e-2,
                            sample_every=20)
        for ti in range(len(traj.times)):
            x_t = traj.state(ti)
            report = cl.diameter_pairs(x_t)
            for (i, j) in report.pairs:
                delta = x_t.positions[i] - x_t.positions[j]
                later = traj.states[ti:] @ delta  # (S, n) scalar products
                gaps = float(x_t.positions[i] @ delta) - later
                assert gaps.min() >= -1e-9


class TestWindowContraction:
    def test_closed_form_factors(self):
        traj = cl.integrate(config([-1.0, 1.0]), all_ones_signal(),
                            cl.Constant(1.0), 5.0, 1e-3)
        report = cl.window_contraction(traj, 1.0)
        assert np.abs(report.factors - np.exp(-1.0)).max() <= 1e-6
        assert report.kappa_hat == pytest.approx(np.exp(-1.0), abs=1e-6)
        assert report.all_strict
        assert report.kappa_hat == report.factors.max()

    def test_frozen_dynamics_not_strict(self):
        x0 = config([[0.0], [1.0], [2.0]])
        traj = cl.integrate(x0, identity_signal(3), cl.Constant(1.0), 3.0, 1e-2)
        report = cl.window_contraction(traj, 1.0)
        assert np.all(report.factors == 1.0)
        assert not report.all_strict

    def test_factors_never_exceed_one(self):
        rng = np.random.default_rng(75)
        for seed in range(4):
            n = 4
            sig = cl.gen_blinking_pairs(n, 0.5, 0.5)
            x0 = config(rng.normal(size=(n, 2)))
            traj = cl.integrate(x0, sig, cl.CuckerSmale(1.0, 0.5), 4.0, 1e-2)
            report = cl.window_contraction(traj, 1.5)
            assert report.factors.max() <= 1.0 + 1e-9

    def test_variance_observable(self):
        traj = cl.integrate(config([-1.0, 1.0]), all_ones_signal(),
                            cl.Constant(1.0), 4.0, 1e-3)
        report = cl.window_contraction(traj, 1.0, observable="variance")
        assert np.abs(report.factors - np.exp(-2.0)).max() <= 1e-6

    def test_matches_loop_oracle(self):
        # uneven grid; some endpoints on the grid, some within the match
        # tolerance (one or two samples), some off it; some starts under the
        # consensus floor
        rng = np.random.default_rng(82)
        tau = 1.0
        base = np.sort(rng.uniform(0.0, 8.0, size=60))
        times = np.unique(np.concatenate([
            [0.0], base, base[::3] + tau, base[1::5] + tau + 4e-10,
            base[2::5] + tau - 4e-10, base[2::5] + tau + 4e-10,
            base[4::7] + tau + 3e-9, [9.5]]))
        series = np.exp(-0.3 * times) * (1.0 + 0.2 * rng.random(times.size))
        series[rng.random(times.size) < 0.2] = 1e-12
        states = np.stack([np.zeros_like(series), series], axis=1)[:, :, None]
        traj = cl.Trajectory(times, states, all_ones_signal(), cl.Constant(1.0))
        for observable, values in (("diameter", traj.diameters),
                                   ("variance", traj.variances)):
            want = contraction_factors_loop(times, values, tau)
            got = cl.window_contraction(traj, tau, observable).factors
            assert np.array_equal(got, want)
            assert want.size > 0
        assert np.any(series <= 1e-10)

    @pytest.mark.parametrize("k", range(-60, 61, 4))
    def test_independent_of_series_unit(self, k):
        # metamorphic relation: a series times 2^k keeps every ratio and every
        # comparison with a floor relative to its largest value, so it gives
        # the same report bit for bit.  The series holds 1 until t = 2, so
        # its first windows do not contract, then decays past 1e-10 of it
        times = np.linspace(0.0, 12.0, 1201)
        series = np.exp(-3.0 * np.maximum(times - 2.0, 0.0))
        want = analysis.series_contraction(times, series, 1.0)
        got = analysis.series_contraction(times, series * 2.0 ** k, 1.0)
        assert 0 < want.factors.size < 1101
        assert not want.all_strict and want.kappa_hat == 1.0
        assert np.array_equal(got.factors, want.factors)
        assert got.kappa_hat == want.kappa_hat
        assert got.all_strict == want.all_strict

    @pytest.mark.parametrize("tau", [np.nan, -1.0, 0.0, np.inf])
    def test_bad_tau_rejected(self, tau):
        # NaN gave no factors and a vacuous all_strict, -1 backward ratios
        # and 0 factors of 1
        traj = cl.integrate(config([-1.0, 1.0]), all_ones_signal(),
                            cl.Constant(1.0), 2.0, 1e-2)
        for observable in ("diameter", "variance"):
            with pytest.raises(ValueError, match="tau"):
                cl.window_contraction(traj, tau, observable)

    def test_span_too_short(self):
        traj = cl.integrate(config([-1.0, 1.0]), all_ones_signal(),
                            cl.Constant(1.0), 0.5, 1e-2)
        with pytest.raises(SpanTooShort):
            cl.window_contraction(traj, 1.0)


class TestFitExponential:
    def test_exact_log_linear(self):
        times = np.arange(6.0)
        fit = cl.fit_exponential(times, 2.0 * np.exp(-times))
        assert fit.gamma == pytest.approx(1.0, abs=1e-12)
        assert fit.alpha == pytest.approx(1.0, abs=1e-12)
        assert fit.rms_log_residual <= 1e-12

    def test_constant_series(self):
        fit = cl.fit_exponential(np.arange(5.0), np.full(5, 3.3))
        assert fit.gamma == pytest.approx(0.0, abs=1e-15)

    def test_noisy_rate_recovered(self):
        rng = np.random.default_rng(76)
        times = np.linspace(0.0, 5.0, 200)
        values = 3.0 * np.exp(-0.7 * times) * (1.0 + 1e-6 * rng.normal(size=200))
        fit = cl.fit_exponential(times, values)
        assert 0.699 <= fit.gamma <= 0.701

    def test_reproduces_alpha_gamma_relative(self):
        times = np.linspace(0.0, 3.0, 40)
        fit = cl.fit_exponential(times, 5.0 * 1.7 * np.exp(-0.31 * times))
        assert fit.gamma == pytest.approx(0.31, rel=1e-12)
        assert fit.alpha == pytest.approx(1.0, rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveValue):
            cl.fit_exponential([0.0, 1.0, 2.0], [1.0, 0.0, 1.0])

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            cl.fit_exponential([0.0, 1.0], [1.0, 0.5])

    @pytest.mark.parametrize("times, values", [
        ([0.0, 1.0, 2.0], [1.0, np.nan, 0.25]),
        ([0.0, 1.0, 2.0], [1.0, np.inf, 0.25]),
        ([0.0, 1.0, 2.0], [np.inf, 0.5, 0.25]),
        ([0.0, np.nan, 2.0], [1.0, 0.5, 0.25]),
        ([0.0, 1.0, np.inf], [1.0, 0.5, 0.25]),
    ], ids=["nan_value", "inf_value", "inf_first_value", "nan_time", "inf_time"])
    def test_non_finite_rejected(self, capfd, times, values):
        with pytest.raises(ValueError, match="finite"):
            cl.fit_exponential(times, values)
        assert capfd.readouterr().err == ""


class TestVarianceDissipation:
    def test_identity_signal_zero(self):
        x0 = config([[0.0], [1.0], [2.0]])
        sig = identity_signal(3)
        traj = cl.integrate(x0, sig, cl.Constant(1.0), 2.0, 1e-2)
        assert cl.variance_dissipation_residual(traj, sig) == 0.0

    def test_two_agent_closed_form(self):
        # V = e^{-2t}, dV/dt = -2V and the energy equals V; the centered
        # difference carries truncation (dt^2/6)|V'''| = (4/3)e-6 at dt=1e-3
        sig = all_ones_signal()
        traj = cl.integrate(config([-1.0, 1.0]), sig, cl.Constant(1.0),
                            2.0, 1e-3)
        res = cl.variance_dissipation_residual(traj, sig)
        assert res <= 1.4e-6

    def test_blinking_pairs_residual(self):
        rng = np.random.default_rng(77)
        sig = cl.gen_blinking_pairs(4, 0.5, 0.5)
        x0 = config(rng.normal(size=(4, 2)))
        traj = cl.integrate(x0, sig, cl.Constant(1.0), 2.0, 1e-3)
        assert cl.variance_dissipation_residual(traj, sig) <= 1e-5

    def test_matches_loop_oracle(self):
        # clamped and periodic signals, several laps, uneven samples from
        # forced record times and sample_every > 1
        rng = np.random.default_rng(2028)
        for run in range(9):
            n = int(rng.integers(2, 6))
            pick = run % 3
            if pick == 0:
                sig = cl.gen_rotating_star(n, dwell=0.25)
            elif pick == 1:
                sig = cl.gen_blinking_pairs(n + (n % 2), dwell=0.3, duty=0.5)
            else:
                mats = []
                for _ in range(3):
                    entries = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
                    entries = 0.5 * (entries + entries.T)
                    np.fill_diagonal(entries, 1.0)
                    mats.append(cl.AdjacencyMatrix.from_entries(entries))
                bp = np.array([0.0, 0.13, 0.5, 0.71])
                sig = cl.PiecewiseConstantSignal(n, bp, tuple(mats),
                                                 ("periodic", "clamped")[run % 2])
            x0 = config(rng.normal(size=(sig.n, int(rng.integers(1, 4)))))
            traj = cl.integrate(x0, sig, cl.Constant(1.0), 1.5, 2e-3,
                                sample_every=1 + run % 2,
                                forced_times=rng.uniform(0.0, 1.5, size=5))
            want = dissipation_residual_loop(traj, sig)
            got = cl.variance_dissipation_residual(traj, sig)
            assert abs(got - want) <= 1e-12 * want
            assert got == dissipation_residual_per_piece(traj, sig)

    def test_chunks_match_per_piece_oracle(self, monkeypatch):
        # 496 pairs of 32 agents: the batched per-piece sums, taken one
        # sample at a time, equal every chunking of the samples to the bit
        rng = np.random.default_rng(2029)
        sig = cl.gen_rotating_star(32, dwell=0.1)
        x0 = config(rng.normal(size=(32, 2)))
        traj = cl.integrate(x0, sig, cl.Constant(1.0), 2.5, 2e-3,
                            forced_times=rng.uniform(0.0, 2.5, size=5))
        monkeypatch.setattr(dynamics, "_CHUNK_FLOATS", 1)
        want = dissipation_residual_per_piece(traj, sig)
        # one sample per chunk, 5 per chunk with an uneven tail, all samples
        for chunk in (1, 5000, 1 << 30):
            monkeypatch.setattr(dynamics, "_CHUNK_FLOATS", chunk)
            assert cl.variance_dissipation_residual(traj, sig) == want, chunk

    def test_memory_bounded_in_samples(self):
        # the samples are read a chunk at a time, each beside the pieces of
        # its own samples: not a gather of the 20 MB record
        states = np.random.default_rng(2030).normal(size=(20000, 64, 2))
        traj = cl.Trajectory(1e-3 * np.arange(20000.0), states,
                             cl.gen_rotating_star(64, 0.5), cl.Constant(1.0))
        traj.variances  # cached, and bounded by the dynamics tests
        tracemalloc.start()
        try:
            cl.variance_dissipation_residual(traj, traj.signal_ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= states.nbytes / 4, peak

    def test_memory_bounded_in_pieces(self):
        # the weights come from each chunk's own pieces: no (pieces, pairs)
        # table, which with its addend took 16.8 MB for the 128 pieces of
        # 8128 pairs of a rotating star at n = 128
        states = np.random.default_rng(2031).normal(size=(1001, 128, 2))
        traj = cl.Trajectory(np.linspace(0.0, 10.0, 1001), states,
                             cl.gen_rotating_star(128, 0.05), cl.Constant(1.0))
        traj.variances
        tracemalloc.start()
        try:
            cl.variance_dissipation_residual(traj, traj.signal_ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak

    def test_unbalanced_rejected(self):
        piece = cl.AdjacencyMatrix.from_entries([[1.0, 1.0], [0.0, 1.0]])
        sig = cl.PiecewiseConstantSignal(2, np.array([0.0, 1.0]), (piece,),
                                         "periodic")
        traj = cl.integrate(config([-1.0, 1.0]), sig, cl.Constant(1.0),
                            1.0, 1e-2)
        with pytest.raises(UnbalancedGraph):
            cl.variance_dissipation_residual(traj, sig)
        # the first unbalanced piece is named, as certify_lambda2 names it
        sig = cl.PiecewiseConstantSignal(2, np.array([0.0, 0.5, 1.0]),
                                         (cl.AdjacencyMatrix.ones(2), piece),
                                         "periodic")
        traj = cl.integrate(config([-1.0, 1.0]), sig, cl.Constant(1.0),
                            1.0, 1e-2)
        with pytest.raises(UnbalancedGraph, match="piece 1 is not balanced"):
            cl.variance_dissipation_residual(traj, sig)

    def test_requires_unit_constant_kernel(self):
        sig = all_ones_signal()
        traj = cl.integrate(config([-1.0, 1.0]), sig, cl.CuckerSmale(1.0, 1.0),
                            1.0, 1e-2)
        with pytest.raises(ValueError):
            cl.variance_dissipation_residual(traj, sig)

    def test_log_variance_slope_bounded_by_certified_rate(self):
        # quantitative link: along balanced linear runs the per-window slope
        # of log V stays below -2 * certified connectivity infimum
        rng = np.random.default_rng(78)
        sig = cl.gen_blinking_pairs(4, 0.5, 0.5)
        tau = 1.5
        rep = cl.certify_lambda2(sig, cl.Window(tau, 0.05), 6.0)
        for _ in range(3):
            x0 = config(rng.normal(size=(4, 2)))
            traj = cl.integrate(x0, sig, cl.Constant(1.0), 6.0, 1e-2)
            contraction = cl.window_contraction(traj, tau, "variance")
            slopes = np.log(contraction.factors) / tau
            assert slopes.max() <= -2.0 * rep.infimum_value + 1e-3
