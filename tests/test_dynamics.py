import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import consensuslab as cl
from consensuslab.errors import (
    DegenerateDiameter,
    DimensionMismatch,
    NonFiniteState,
)

from consensuslab import _kernels, _text, analysis, dynamics
from consensuslab.dynamics import state_header
from consensuslab.cli import _window_grid, cmd_simulate, parse_config

from oracles import (build_grid_loop, csv_per_cell, diameters_broadcast,
                     two_agent_closed_form, variances_whole)


def config(positions):
    return cl.Configuration.from_positions(np.asarray(positions, dtype=float))


def all_ones_signal(n=2):
    return cl.PiecewiseConstantSignal(
        n, np.array([0.0, 1.0]), (cl.AdjacencyMatrix.ones(n),), "periodic")


def identity_signal(n):
    return cl.PiecewiseConstantSignal(
        n, np.array([0.0, 1.0]), (cl.AdjacencyMatrix.identity(n),), "periodic")


class TestKernels:
    def test_constant_validation(self):
        with pytest.raises(ValueError):
            cl.Constant(0.0)

    def test_cucker_smale_validation(self):
        with pytest.raises(ValueError):
            cl.CuckerSmale(1.0, -0.1)

    @pytest.mark.parametrize("kernel, args", [
        ("Constant", (np.inf,)), ("Constant", (np.nan,)),
        ("CuckerSmale", (np.inf, 1.0)), ("CuckerSmale", (np.nan, 1.0)),
        ("CuckerSmale", (1.0, np.nan)), ("CuckerSmale", (1.0, np.inf))])
    def test_non_finite_parameters_rejected(self, kernel, args):
        with pytest.raises(ValueError, match="finite"):
            getattr(cl, kernel)(*args)

    def test_kernel_bounds_constant(self):
        assert cl.kernel_bounds(cl.Constant(3.0), 17.0) == (3.0, 3.0)

    def test_kernel_bounds_cucker_smale(self):
        low, high = cl.kernel_bounds(cl.CuckerSmale(1.0, 1.0), 2.0)
        assert (low, high) == (pytest.approx(0.2), 1.0)

    def test_kernel_bounds_beta_zero(self):
        assert cl.kernel_bounds(cl.CuckerSmale(2.0, 0.0), 5.0) == (2.0, 2.0)

    @pytest.mark.parametrize("kernel", [cl.Constant(1.0),
                                        cl.CuckerSmale(1.0, 1.0)])
    def test_kernel_bounds_nan_diameter_rejected(self, kernel):
        # returned (nan, K) for Cucker-Smale
        with pytest.raises(ValueError, match="diam_max"):
            cl.kernel_bounds(kernel, np.nan)


class TestRhs:
    def test_coincident_agents_zero(self):
        x = config(np.ones((4, 3)))
        vel = cl.rhs(x, cl.AdjacencyMatrix.ones(4), cl.CuckerSmale(1.0, 1.0))
        assert np.array_equal(vel, np.zeros((4, 3)))

    def test_two_agent_constant(self):
        vel = cl.rhs(config([0.0, 2.0]), cl.AdjacencyMatrix.ones(2),
                     cl.Constant(1.0))
        assert np.allclose(vel[:, 0], [1.0, -1.0])

    def test_two_agent_cucker_smale(self):
        # phi(2) = 1/5, so each agent moves at (1/2) * (1/5) * 2 = 1/5
        vel = cl.rhs(config([0.0, 2.0]), cl.AdjacencyMatrix.ones(2),
                     cl.CuckerSmale(1.0, 1.0))
        assert np.allclose(vel[:, 0], [0.2, -0.2], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cl.rhs(config([0.0, 1.0]), cl.AdjacencyMatrix.ones(3),
                   cl.Constant(1.0))


class TestIntegrate:
    def test_closed_form_two_agents(self):
        traj = cl.integrate(config([-1.0, 1.0]), all_ones_signal(),
                            cl.Constant(1.0), 5.0, 1e-3)
        exact = two_agent_closed_form(traj.times)
        assert np.abs(traj.states[:, :, 0] - exact).max() <= 1e-6
        assert np.abs(traj.diameters - 2.0 * np.exp(-traj.times)).max() <= 1e-6

    def test_identity_signal_is_frozen(self):
        x0 = config([[0.4, -1.0], [2.0, 0.5], [-0.7, 0.1]])
        for kernel in (cl.CuckerSmale(0.8, 1.2), cl.Constant(1.3)):
            traj = cl.integrate(x0, identity_signal(3), kernel, 2.0, 1e-2)
            assert np.array_equal(traj.states, np.broadcast_to(
                x0.positions, traj.states.shape))

    def test_linear_matches_eigendecomposition(self):
        # x(t) = V exp(-c Lambda t / n) V^T x0 for one symmetric piece; RK4's
        # stability polynomial misses exp(z) by at most |z|^5/120 per step
        # (z = -h c lambda / n), so over N steps the state error is at most
        # N (h rho)^5 / 120 |x0| with rho = c lambda_max / n, plus a few ulps
        # of rounding per step
        rng = np.random.default_rng(23)
        n, d, c, h, t_end = 6, 2, 1.7, 1e-2, 2.0
        entries = rng.random((n, n))
        entries = 0.5 * (entries + entries.T)
        np.fill_diagonal(entries, 1.0)
        sig = cl.PiecewiseConstantSignal(
            n, np.array([0.0, 1.0]), (cl.AdjacencyMatrix(n, entries),),
            "periodic")
        x0 = config(rng.normal(size=(n, d)))
        traj = cl.integrate(x0, sig, cl.Constant(c), t_end, h)

        lam, vec = np.linalg.eigh(np.diag(entries.sum(axis=1)) - entries)
        decay = np.exp(-c * lam[None, :] * traj.times[:, None] / n)  # (T, n)
        exact = np.einsum("ik,tk,jk,jc->tic", vec, decay, vec, x0.positions)
        steps = len(traj.times) - 1
        rho = c * lam[-1] / n
        bound = (steps * (h * rho) ** 5 / 120.0
                 + 8 * steps * np.finfo(float).eps) * np.linalg.norm(x0.positions)
        assert np.abs(traj.states - exact).max() <= bound

    def test_mean_conserved_on_balanced_linear(self):
        rng = np.random.default_rng(41)
        sig = cl.gen_blinking_pairs(4, dwell=0.5, duty=0.5)
        x0 = config(rng.normal(size=(4, 2)))
        traj = cl.integrate(x0, sig, cl.Constant(1.0), 3.0, 1e-2)
        drift = np.abs(traj.means - x0.positions.mean(axis=0)).max()
        assert drift <= 1e-9

    def test_breakpoints_land_on_grid(self):
        sig = cl.gen_rotating_star(3, dwell=0.25)
        traj = cl.integrate(config([[0.0], [1.0], [2.0]]), sig,
                            cl.Constant(1.0), 2.0, dt=0.1)
        for b in (0.25, 0.5, 0.75, 1.0, 1.25):
            assert np.min(np.abs(traj.times - b)) <= 1e-12

    def test_sampling_stride_and_final_state(self):
        traj = cl.integrate(config([-1.0, 1.0]), all_ones_signal(),
                            cl.Constant(1.0), 1.0, 1e-2, sample_every=7)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 1.0
        assert len(traj.times) == len(np.unique(traj.times))

    def test_forced_times_recorded(self):
        traj = cl.integrate(config([-1.0, 1.0]), all_ones_signal(),
                            cl.Constant(1.0), 1.0, 1e-2, sample_every=1000,
                            forced_times=[0.335, 0.61])
        for t in (0.335, 0.61):
            assert np.min(np.abs(traj.times - t)) <= 1e-12

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(42)
        sig = cl.gen_rotating_star(4, dwell=0.3)
        x0 = config(rng.normal(size=(4, 3)))
        a = cl.integrate(x0, sig, cl.CuckerSmale(1.0, 0.7), 2.0, 1e-2)
        b = cl.integrate(x0, sig, cl.CuckerSmale(1.0, 0.7), 2.0, 1e-2)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cl.integrate(config([0.0, 1.0]), identity_signal(3),
                         cl.Constant(1.0), 1.0, 1e-2)

    def test_horizon_and_step_must_fit(self):
        # an infinite horizon has no grid, and a step longer than the horizon
        # would merge every grid point into one
        x0 = np.array([[[-1.0], [1.0]]])
        for t_end, dt in ((np.inf, 1e-2), (1.0, np.inf), (1.0, 1.0 + 1e-12),
                          (3.5, 1e300)):
            with pytest.raises(ValueError, match="t_end"):
                dynamics.Integration(x0, all_ones_signal(), cl.Constant(1.0),
                                     t_end, dt)
        run = dynamics.Integration(x0, all_ones_signal(), cl.Constant(1.0),
                                   1.0, 1.0)
        assert run.times.tolist() == [0.0, 1.0]

    def test_nonfinite_state_detected(self):
        # absurdly large step makes RK4 unstable and overflows
        sig = cl.PiecewiseConstantSignal(
            2, np.array([0.0, 1.0]), (cl.AdjacencyMatrix.ones(2),), "clamped")
        with pytest.raises(NonFiniteState):
            cl.integrate(config([-1.0, 1.0]), sig, cl.Constant(1.0),
                         60000.0, 1000.0)

    def test_halving_dt_divides_error_by_sixteen(self):
        # classic fourth-order convergence, measured where truncation error
        # still dominates double-precision roundoff (~1e-15 on this problem)
        def max_err(dt):
            traj = cl.integrate(config([-1.0, 1.0]), all_ones_signal(),
                                cl.Constant(1.0), 5.0, dt)
            return np.abs(traj.diameters - 2.0 * np.exp(-traj.times)).max()

        ratio = max_err(8e-3) / max_err(4e-3)
        assert 12.0 <= ratio <= 20.0


def random_grid_case(rng):
    """(signal, t_end, dt, forced times) of a random step grid: a periodic
    star, blinking pairs or a clamped signal with breakpoints just off the
    uniform points and one pair closer than the merge tolerance; dt need
    not divide the dwell, tau or t_end, and the forced times hold the
    multiples of tau, times just off the uniform points and the tolerance
    itself, which merges into 0.  The candidates within the tolerance of a
    uniform point span less than it (see `dynamics._build_grid`)."""
    dt = float(rng.choice([0.01, 0.013, 0.025, 0.03, 0.07, 0.1]))
    dwell = float(rng.choice([0.05, 0.1, 0.2, 0.25, 0.3, rng.uniform(0.04, 0.4)]))
    t_end = float(rng.uniform(0.7, 3.0))
    tol = 1e-9 * dt
    kind = rng.integers(3)
    if kind == 0:
        sig = cl.gen_rotating_star(int(rng.integers(2, 6)), dwell)
    elif kind == 1:
        sig = cl.gen_blinking_pairs(2 * int(rng.integers(1, 4)), dwell,
                                    float(rng.choice([0.3, 0.5, 1.0])))
    else:
        steps = dt * rng.choice(int(t_end / dt) + 2, size=6, replace=False)
        near = steps + tol * rng.choice([-3.0, -0.3, 0.0, 0.3, 3.0], size=6)
        bp = np.unique(np.concatenate([[0.0], near, rng.uniform(0.0, t_end, 3)]))
        bp = bp[bp >= 0.0]
        bp = np.insert(bp, 2, bp[1] + 0.25 * min(tol, bp[2] - bp[1]))
        sig = cl.PiecewiseConstantSignal(
            2, bp, np.tile(np.eye(2), (len(bp) - 1, 1, 1)), "clamped")
    tau = float(rng.choice([0.3, 0.5, 1.0, 2 * dwell]))
    uniform = dt * rng.integers(0, int(t_end / dt), size=4)
    forced = np.concatenate([
        tau * np.arange(int(t_end / tau + 1e-9) + 1),
        uniform + tol * rng.choice([-6.0, -0.3, 0.3, 6.0], size=4),
        [tol, t_end]])
    return sig, t_end, dt, np.clip(forced, 0.0, t_end)


def assert_grids_equal(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestBuildGrid:
    def test_matches_the_merge_loop(self):
        # times, step pieces and forced flags, bit for bit and dtype for
        # dtype; breakpoints rounded onto the grid keep their own value and
        # a forced time merged after a breakpoint or a uniform point still
        # marks its point
        rng = np.random.default_rng(71)
        for _ in range(1200):
            case = random_grid_case(rng)
            assert_grids_equal(dynamics._build_grid(*case), build_grid_loop(*case))

    @pytest.mark.parametrize("forced", [[-1e-3], [1.0 + 1e-6], [0.5, np.nan]])
    def test_forced_times_outside_the_horizon_rejected(self, forced):
        # a NaN compares false both ways, so a check for times below 0 or
        # past t_end alone let it through
        with pytest.raises(ValueError, match="forced record times"):
            dynamics._build_grid(all_ones_signal(), 1.0, 0.1, forced)

    @pytest.mark.parametrize("name", ["sweep_cs_n5", "certify_pairs_n32",
                                      "simulate_linear_n128"])
    def test_pipeline_benchmark_grids(self, name):
        path = Path(__file__).parents[1] / "pipebench" / "configs" / f"{name}.json"
        cfg = parse_config(json.loads(path.read_text()))
        case = (cfg.signal, cfg.t_end, cfg.dt, _window_grid(cfg))
        assert_grids_equal(dynamics._build_grid(*case), build_grid_loop(*case))


class TestStabilityEstimates:
    def run_random(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(3, 6)), int(rng.integers(1, 4))
        if rng.random() < 0.5:
            sig = cl.gen_rotating_star(n, dwell=float(0.1 + rng.random() * 0.4))
        else:
            n += n % 2
            sig = cl.gen_blinking_pairs(n, dwell=float(0.2 + rng.random() * 0.4),
                                        duty=float(0.3 + 0.7 * rng.random()))
        kernel = (cl.Constant(float(0.3 + rng.random()))
                  if rng.random() < 0.5 else
                  cl.CuckerSmale(float(0.5 + rng.random()), float(rng.random())))
        x0 = config(rng.normal(size=(sig.n, d)))
        traj = cl.integrate(x0, sig, kernel, 3.0, 1e-2, sample_every=5)
        return traj, kernel

    def test_max_norm_nonincreasing(self):
        for seed in range(50, 60):
            traj, _ = self.run_random(seed)
            norms = np.linalg.norm(traj.states, axis=2).max(axis=1)
            assert np.diff(norms).max() <= 1e-9

    def test_support_functions_nonincreasing(self):
        dir_rng = np.random.default_rng(64)
        for seed in range(60, 66):
            traj, _ = self.run_random(seed)
            dirs = dir_rng.normal(size=(traj.d, 64))
            dirs /= np.linalg.norm(dirs, axis=0)
            support = (traj.states @ dirs).max(axis=1)  # (T, 64)
            assert np.diff(support, axis=0).max() <= 1e-9

    def test_diameter_decay_rate_lower_bound(self):
        for seed in range(66, 72):
            traj, kernel = self.run_random(seed)
            d0 = traj.diameters[0]
            _, c_phi = cl.kernel_bounds(kernel, d0)
            floor = d0 * np.exp(-2.0 * c_phi * traj.times) - 1e-8
            assert np.all(traj.diameters >= floor)


class TestStream:
    @pytest.mark.parametrize("floats", (1, 7, None), ids=("1", "7", "whole"))
    @pytest.mark.parametrize("batch", (1, 3))
    @pytest.mark.parametrize("kernel", (cl.Constant(1.3), cl.CuckerSmale(0.9, 1.4)),
                             ids=("constant", "cucker_smale"))
    def test_blocks_concatenate_to_the_record(self, monkeypatch, kernel, batch,
                                              floats):
        # every third step and the forced times recorded: `series` hands its
        # measures the blocks in order, each as large as the block size
        # allows, and they join bit for bit into the record that
        # `integrate_batch` keeps; so do the diameters and variances
        # measured a block at a time
        rng = np.random.default_rng(61)
        starts = rng.normal(size=(batch, 5, 2))
        sig = cl.gen_rotating_star(5, 0.15)
        args = (starts, sig, kernel, 1.0, 2e-2, 3)
        forced = [0.33, 0.5, 0.71]
        trajs = cl.integrate_batch(*args, forced_times=forced)
        record = np.stack([traj.states for traj in trajs], axis=1)
        run = dynamics.Integration(*args, forced_times=forced)
        assert len(np.unique(np.diff(run.times).round(9))) > 1  # gaps in rec
        assert np.array_equal(run.times, trajs[0].times)

        floats = floats or record.size
        monkeypatch.setattr(_kernels, "_RECORD_BLOCK_FLOATS", floats)
        blocks = []

        def recording(block):
            blocks.append(block.copy())
            return block[:, :, 0, 0]

        firsts, diams, variances = run.series(
            [recording, dynamics.diameters, dynamics.variances])
        rows = max(1, floats // starts.size)
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert np.array_equal(np.concatenate(blocks), record)
        assert np.array_equal(firsts, record[:, :, 0, 0].T)
        for b, traj in enumerate(trajs):
            assert np.array_equal(diams[b], traj.diameters)
            assert np.array_equal(variances[b], traj.variances)

    def test_non_finite_record_raises_before_the_sink(self, tmp_path,
                                                      monkeypatch):
        # einsum can overflow to inf without raising a floating-point flag.
        # A field that fills its output with inf after a few calls raises
        # none either, so only the record's own check can stop its inf
        # record before a block reaches a measure or a table
        velocity, calls = _kernels._velocity, []

        def overflowing(adj, kernel):
            field = velocity(adj, kernel)

            def f(src, out):
                calls.append(None)
                if len(calls) > 6:
                    out.fill(np.inf)
                else:
                    field(src, out)
            return f

        monkeypatch.setattr(_kernels, "_velocity", overflowing)
        starts = np.random.default_rng(62).normal(size=(2, 3, 2))
        run = dynamics.Integration(starts, cl.gen_rotating_star(3, 0.05),
                                   cl.Constant(1.0), 0.1, 0.01)
        seen = []
        with pytest.raises(NonFiniteState):
            run.series([lambda block: seen.append(len(block)) or block],
                       [tmp_path / "a.csv", tmp_path / "b.csv"])
        assert len(calls) > 6 and seen == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n", (4, 34), ids=("product", "broadcast"))
    def test_pair_difference_overflow_raises(self, tmp_path, n):
        # two agents at +-1.7e308: their difference overflows in the first
        # Cucker-Smale field call, whether the field builds its pair
        # differences as a product (n = 4) or as a broadcast subtract
        # (n = 34), and the run stops there, before any block is handed on
        assert (n <= _kernels._PAIR_PRODUCT_MAX_N) == (n == 4)
        starts = np.random.default_rng(64).normal(size=(2, n, 2))
        starts[:, 0], starts[:, 1] = 1.7e308, -1.7e308
        run = dynamics.Integration(starts, cl.gen_rotating_star(n, 0.05),
                                   cl.CuckerSmale(1.0, 1.0), 0.1, 0.01)
        seen = []
        with pytest.raises(NonFiniteState) as info:
            run.series([lambda block: seen.append(len(block)) or block],
                       [tmp_path / "a.csv", tmp_path / "b.csv"])
        assert isinstance(info.value.__cause__, FloatingPointError)
        assert seen == []
        assert list(tmp_path.iterdir()) == []


class TestTimeUnit:
    @staticmethod
    def run(starts, scale):
        """Times, record and diameter contraction factors of a rotating-star
        run with every time times ``scale`` and c times 1 / ``scale``."""
        integration = dynamics.Integration(
            starts, cl.gen_rotating_star(5, 0.2 * scale), cl.Constant(1.3 / scale),
            10.0 * scale, 0.01 * scale, forced_times=scale * np.arange(11.0))
        times = integration.times
        record, diams = integration.series([lambda block: block,
                                            dynamics.diameters])
        factors = [analysis.series_contraction(times, series, scale).factors
                   for series in diams]
        return times, record, factors

    @pytest.mark.parametrize("k", range(-60, 61, 4))
    def test_run_independent_of_time_unit(self, k):
        # metamorphic relation: times times 2^k and c times 2^-k scale every
        # grid point and step exactly, so every state keeps its bits and
        # every window end matches the same sample
        starts = np.random.default_rng(63).normal(size=(4, 5, 2))
        times, record, factors = self.run(starts, 1.0)
        got_times, got_record, got_factors = self.run(starts, 2.0 ** k)
        assert np.array_equal(got_times / 2.0 ** k, times)
        assert np.array_equal(got_record, record)
        assert [len(f) for f in factors] == [901] * 4
        for got, want in zip(got_factors, factors):
            assert np.array_equal(got, want)


class TestIntegrateBatch:
    def test_each_start_equals_its_own_run(self):
        rng = np.random.default_rng(44)
        sig = cl.gen_rotating_star(4, 0.15)
        starts = rng.normal(size=(3, 4, 2))
        kernel = cl.CuckerSmale(1.0, 1.0)
        runs = list(cl.integrate_batch(starts, sig, kernel, 1.0, 2e-2, 2,
                                       forced_times=[0.33]))
        assert len(runs) == 3
        for start, got in zip(starts, runs):
            want = cl.integrate(config(start), sig, kernel, 1.0, 2e-2, 2,
                                forced_times=[0.33])
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.states, want.states)

    def test_states_are_c_ordered(self):
        rng = np.random.default_rng(45)
        sig = cl.gen_rotating_star(4, 0.15)
        starts = rng.normal(size=(3, 4, 2))
        kernel = cl.CuckerSmale(1.0, 1.0)
        one = cl.integrate(config(starts[0]), sig, kernel, 1.0, 2e-2)
        assert one.states.flags.c_contiguous
        for traj in cl.integrate_batch(starts, sig, kernel, 1.0, 2e-2):
            assert traj.states.flags.c_contiguous

    def test_single_run_adopts_the_record(self):
        # the blocks are kept in one (B, T, n, d) record, and every run's
        # Trajectory, a single run's too, is a read-only view of it
        starts = np.random.default_rng(46).normal(size=(2, 4, 2))
        one = cl.integrate(config(starts[0]), cl.gen_rotating_star(4, 0.15),
                           cl.Constant(1.0), 1.0, 2e-2)
        assert one.states.base.shape == (1, len(one.times), 4, 2)
        runs = cl.integrate_batch(starts, cl.gen_rotating_star(4, 0.15),
                                  cl.Constant(1.0), 1.0, 2e-2)
        assert len(runs) == 2
        base = runs[0].states.base
        assert base.shape == (2, len(one.times), 4, 2)
        for traj in [one] + runs:
            assert traj.states.flags.c_contiguous
            assert not traj.states.flags.writeable
        for b, traj in enumerate(runs):
            assert traj.states.base is base
            assert np.shares_memory(traj.states, base[b])

    def test_runs_share_one_read_only_times(self):
        # the recorded times are built once per batch and held by every run
        starts = np.random.default_rng(48).normal(size=(3, 4, 2))
        runs = cl.integrate_batch(starts, cl.gen_rotating_star(4, 0.15),
                                  cl.Constant(1.0), 1.0, 2e-2)
        assert all(traj.times is runs[0].times for traj in runs)
        assert not runs[0].times.flags.writeable

    def test_non_contiguous_states_are_copied(self):
        states = np.random.default_rng(47).normal(size=(5, 3, 4))[:, :, ::2]
        traj = cl.Trajectory(np.arange(5.0), states, all_ones_signal(3),
                             cl.Constant(1.0))
        assert not np.shares_memory(traj.states, states)
        assert np.array_equal(traj.states, states)
        assert traj.states.flags.c_contiguous and not traj.states.flags.writeable
        assert states.flags.writeable

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            cl.integrate_batch(np.zeros((0, 2, 1)), all_ones_signal(),
                               cl.Constant(1.0), 1.0, 1e-2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cl.integrate_batch(np.zeros((2, 3, 1)), all_ones_signal(),
                               cl.Constant(1.0), 1.0, 1e-2)


CLOUD_SHAPES = ("normal", "rounded", "coincident", "offset", "sphere",
                "symmetric")


def random_clouds(rng, shape, size):
    """Point clouds of one kind: Gaussian at a random scale, rounded to a
    grid (tied distances), all points coincident, a 1e-6 spread around a 1e6
    offset, on the unit sphere (every point an endpoint candidate), or
    centrally symmetric about a random point, where the screen's bound is
    attained and only its slack keeps the endpoints."""
    x = rng.normal(size=size)
    if shape == "symmetric":
        half = x[:, :size[1] // 2]
        middle = x[:, :size[1] % 2] * 0.0
        return (rng.normal(size=(size[0], 1, size[2]))
                + np.concatenate([half, middle, -half], axis=1))
    if shape == "normal":
        return x * 10.0 ** rng.uniform(-8, 6)
    if shape == "rounded":
        return np.round(2.0 * x) / 2.0
    if shape == "coincident":
        return np.broadcast_to(x[:, :1], size) * 3.0
    if shape == "offset":
        return 1e6 + 1e-6 * x
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


class TestDiameters:
    def test_chunks_match_one_broadcast(self, monkeypatch):
        rng = np.random.default_rng(45)
        states = rng.normal(size=(37, 6, 3))
        want = diameters_broadcast(states)
        # 108 floats per sample: chunks of 1, 4 (uneven tail) and all samples
        for chunk in (1, 500, dynamics._CHUNK_FLOATS):
            monkeypatch.setattr(dynamics, "_CHUNK_FLOATS", chunk)
            assert np.array_equal(dynamics.diameters(states), want)
            traj = cl.Trajectory(np.arange(37.0), states, all_ones_signal(6),
                                 cl.Constant(1.0))
            assert np.array_equal(traj.diameters, want)

    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_screened_matches_one_broadcast(self, monkeypatch, d):
        rng = np.random.default_rng(46 + d)
        small = dynamics._SCREEN_MAX_AGENTS
        for n in (2, small, small + 1, 48):
            for shape in CLOUD_SHAPES:
                states = random_clouds(rng, shape, (25, n, d))
                want = diameters_broadcast(states)
                # one sample per chunk, a few per chunk, all in one chunk
                for chunk in (1, 40 * d, dynamics._CHUNK_FLOATS):
                    monkeypatch.setattr(dynamics, "_CHUNK_FLOATS", chunk)
                    got = dynamics.diameters(states)
                    assert np.array_equal(got, want), (n, shape, chunk)

    @pytest.mark.parametrize("d", (1, 2, 3, 4, 7))
    def test_pair_list_matches_one_broadcast(self, d):
        # samples of at most _SCREEN_MAX_AGENTS points reduce over the pairs
        # i < j; every result is the full (n, n) maximum to the bit
        rng = np.random.default_rng(70 + d)
        for n in range(1, dynamics._SCREEN_MAX_AGENTS + 1):
            x = rng.normal(size=(30, n, d))
            repeated = np.concatenate([x, x[:, ::-1]], axis=1)[:, :n]
            for states in (x, np.round(x, 1), repeated, 1e150 * x, 1e-150 * x):
                want = diameters_broadcast(states)
                assert np.array_equal(dynamics.diameters(states), want), (n, d)

    def test_pair_list_chunks_and_leading_shape(self, monkeypatch):
        # 1300 samples of 16 points in 7 dimensions span two default chunks
        rng = np.random.default_rng(75)
        states = rng.normal(size=(1300, 16, 7))
        assert 1300 * 120 * 7 > dynamics._CHUNK_FLOATS
        assert np.array_equal(dynamics.diameters(states),
                              diameters_broadcast(states))
        states = rng.normal(size=(3, 5, 4, 2))
        want = diameters_broadcast(states.reshape(-1, 4, 2)).reshape(3, 5)
        for chunk in (1, 50, dynamics._CHUNK_FLOATS):
            monkeypatch.setattr(dynamics, "_CHUNK_FLOATS", chunk)
            got = dynamics.diameters(states)
            assert got.shape == (3, 5) and np.array_equal(got, want)

    def test_extreme_scales(self):
        # squares of distances underflow or overflow at these scales, where
        # a relative slack bounds no rounding error
        rng = np.random.default_rng(51)
        for scale in (1e-160, 1e-150, 1e154, 1e155):
            for shape in ("normal", "symmetric", "sphere"):
                states = scale * random_clouds(rng, shape, (40, 30, 2))
                with np.errstate(over="ignore"):
                    got = dynamics.diameters(states)
                    want = diameters_broadcast(states)
                assert np.array_equal(got, want), (scale, shape)

    def test_gather_pads_within_each_chunk(self, monkeypatch):
        # Gaussian samples keep a few points and circle samples keep all of
        # them, so one chunk gathers samples of different kept counts to its
        # largest; a short sample repeats one of its own points.  The clouds
        # sit far from the origin, where padding with a zero vector or with
        # another sample's point would lengthen a diameter.
        rng = np.random.default_rng(49)
        n = dynamics._SCREEN_MAX_AGENTS + 4
        circle = random_clouds(rng, "sphere", (30, n, 2))
        states = np.where((np.arange(30) % 3 == 0)[:, None, None], circle,
                          rng.normal(size=(30, n, 2)))
        states = states + rng.normal(scale=50.0, size=(30, 1, 2))
        counts = np.count_nonzero(dynamics._diameter_candidates(states), axis=1)
        assert counts.min() < n and len(set(counts.tolist())) > 2
        want = diameters_broadcast(states)
        # one sample per chunk; 12 per chunk, each reducing its pairs alone;
        # all samples in one chunk
        for chunk in (1, 500, dynamics._CHUNK_FLOATS):
            monkeypatch.setattr(dynamics, "_CHUNK_FLOATS", chunk)
            assert np.array_equal(dynamics.diameters(states), want), chunk

    def test_memory_bounded_in_samples(self, monkeypatch):
        # a long record is read a chunk at a time, so what `diameters` and
        # `variances` allocate is a few chunks (0.5 MB each here), not a
        # multiple of the 20 MB record
        monkeypatch.setattr(dynamics, "_CHUNK_FLOATS", 1 << 16)
        states = np.random.default_rng(54).normal(size=(20000, 64, 2))
        traj = cl.Trajectory(np.arange(20000.0), states, all_ones_signal(64),
                             cl.Constant(1.0))
        for name in ("diameters", "variances"):
            tracemalloc.start()
            try:
                getattr(traj, name)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * 8 * dynamics._CHUNK_FLOATS, (name, peak)

    def test_default_chunk_working_set(self):
        # Gaussian samples of the bench's `diameters` shape keep 5 points in
        # the median and up to 43, and a chunk pads to its widest sample; at
        # the default chunk one call still works in well under 2 MB
        states = np.random.default_rng(53).normal(size=(1001, 128, 2))
        counts = np.count_nonzero(dynamics._diameter_candidates(states), axis=1)
        assert np.median(counts) <= 6 and counts.max() >= 40
        tracemalloc.start()
        try:
            dynamics.diameters(states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20, peak

    def test_non_finite_sample_stays_non_finite(self):
        states = np.random.default_rng(50).normal(size=(3, 40, 2))
        states[1, 7, 0] = np.nan
        states[2, 3, 1] = np.inf
        with np.errstate(invalid="ignore"):  # inf - inf, as in the oracle
            got = dynamics.diameters(states)
            want = diameters_broadcast(states)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isfinite(got[0]) and not np.isfinite(got[1:]).any()

    def test_non_finite_small_sample_as_full_array(self):
        # the pair list has no diagonal, but an inf point still gives NaN
        states = np.random.default_rng(52).normal(size=(4, 4, 2))
        states[1, 3, 0] = np.nan
        states[2, 3, 1] = np.inf
        states[3, 1] = 1e200  # finite, but its squared distances overflow
        with np.errstate(invalid="ignore", over="ignore"):  # as in the oracle
            got = dynamics.diameters(states)
            want = diameters_broadcast(states)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isfinite(got[0]) and np.isnan(got[1:3]).all()
        assert got[3] == np.inf

    def test_batch_shape_and_single_agent(self):
        assert dynamics.diameters(np.zeros((4, 2, 1, 3))).shape == (4, 2)
        assert dynamics.diameters(np.ones((1, 2))) == 0.0


class TestVariances:
    @pytest.mark.parametrize("shape", [(50, 2, 1), (41, 3, 2), (37, 6, 3),
                                       (13, 40, 2), (9, 33, 1), (5, 1, 2)])
    def test_chunks_match_whole_array(self, monkeypatch, shape):
        rng = np.random.default_rng(55)
        states = 1e3 + rng.normal(size=shape)
        want = variances_whole(states)
        # one sample per chunk, a few with an uneven tail, all samples
        for chunk in (1, 7, dynamics._CHUNK_FLOATS):
            monkeypatch.setattr(dynamics, "_CHUNK_FLOATS", chunk)
            traj = cl.Trajectory(np.arange(float(shape[0])), states,
                                 all_ones_signal(shape[1]), cl.Constant(1.0))
            assert np.array_equal(traj.variances, want), chunk


class TestRescaleDilation:
    def test_identity_on_normalized_input(self):
        x0 = config([-0.5, 0.5])
        traj = cl.integrate(x0, all_ones_signal(), cl.Constant(1.0), 1.0, 1e-2)
        rescaled = cl.rescale_dilation(x0, traj)
        assert np.allclose(rescaled.states, traj.states, atol=1e-15)

    def test_two_agent_rescale(self):
        x0 = config([-1.0, 1.0])
        traj = cl.integrate(x0, all_ones_signal(), cl.Constant(1.0), 1.0, 1e-2)
        rescaled = cl.rescale_dilation(x0, traj)
        assert np.allclose(rescaled.states[0, :, 0], [-0.5, 0.5])

    def test_initial_diameter_one_and_in_unit_ball(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            x0 = config(rng.normal(size=(5, 2)) * rng.random() * 4)
            traj = cl.integrate(x0, cl.gen_rotating_star(5, 0.2),
                                cl.Constant(1.0), 0.5, 1e-2)
            rescaled = cl.rescale_dilation(x0, traj)
            assert rescaled.diameters[0] == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(rescaled.states[0], axis=1).max() <= 1.0 + 1e-12

    def test_degenerate_diameter(self):
        x0 = config(np.zeros((3, 2)))
        traj = cl.integrate(x0, identity_signal(3), cl.Constant(1.0), 1.0, 1e-2)
        with pytest.raises(DegenerateDiameter):
            cl.rescale_dilation(x0, traj)

    def test_infinite_diameter(self):
        # finite positions whose squared distance overflows: dividing by the
        # infinite diameter would map the start to zeros
        start = np.array([[[0.0, 0.0], [1e200, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
        with pytest.raises(DegenerateDiameter):
            dynamics.dilate(start, start)
        assert np.array_equal(dynamics.dilate(start[1:], start[1:]),
                              [[[-0.5, 0.0], [0.5, 0.0]]])


class TestTrajectoryTimes:
    @pytest.mark.parametrize("times", [
        pytest.param([0.0, np.nan, 2.0], id="nan_inside"),
        pytest.param([0.0, 1.0, np.nan], id="nan_last"),
        pytest.param([0.0, 1.0, np.inf], id="inf_last"),
        pytest.param([0.0, np.inf, np.inf], id="inf_twice"),
    ])
    def test_non_finite_times_rejected(self, times):
        # NaN compares false both ways, so a check for decreasing steps
        # alone let [0, nan, 2] through and window_contraction then found
        # no factors
        with pytest.raises(ValueError, match="times must be finite"):
            cl.Trajectory(times, np.zeros((3, 3, 1)), all_ones_signal(3),
                          cl.Constant(1.0))


class TestTrajectoryExport:
    # -0.0, subnormals, +-1e300 and integer-valued floats, in the times too
    SPECIAL = np.array([-0.0, 5e-324, 2.5e-310, 1e-300, 1.0, 3.0, 1e16, 1e300])

    def special_trajectory(self):
        rng = np.random.default_rng(8)
        states = rng.normal(size=(len(self.SPECIAL), 3, 2))
        states.reshape(-1)[::2][:len(self.SPECIAL)] = self.SPECIAL
        states.reshape(-1)[1::5][:len(self.SPECIAL)] = -self.SPECIAL
        return cl.Trajectory(self.SPECIAL, states, all_ones_signal(3),
                             cl.Constant(1.0))

    def test_csv_matches_per_cell_writer(self, tmp_path):
        traj = self.special_trajectory()
        traj.to_csv(tmp_path / "got.csv")
        header = ["t"] + [f"x_{i}_{c}" for i in (1, 2, 3) for c in (1, 2)]
        csv_per_cell(tmp_path / "want.csv", header, traj.times,
                     traj.states.reshape(len(traj.times), -1))
        assert ((tmp_path / "got.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    def test_observables_csv_matches_per_cell_writer(self, tmp_path):
        # simulate measures and writes its observables a block at a time;
        # the file is what the per-cell writer makes of the whole run's
        start = [[0.0, 3.0], [-0.0, 1e-300], [2.0, -1.0]]
        traj = cl.integrate(config(start), cl.gen_rotating_star(3, 0.2),
                            cl.Constant(1.0), 1.0, 0.05)
        cmd_simulate(parse_config({
            "system": {"n": 3, "d": 2, "kernel": {"form": "constant", "c": 1.0}},
            "signal": {"type": "rotating_star", "dwell": 0.2},
            "window": {"tau": 1.0, "mu": 0.01},
            "run": {"t_end": 1.0, "dt": 0.05},
            "initial": start,
            "outputs": {"dir": str(tmp_path)},
        }))
        csv_per_cell(tmp_path / "want.csv", ["t", "diameter", "variance"],
                     traj.times,
                     np.column_stack([traj.diameters, traj.variances]))
        assert ((tmp_path / "observables.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    @pytest.fixture
    def failing_format(self, monkeypatch):
        """`_text.format_g17` that raises on the second block of a table of
        the given width, a few rows a block."""
        def install(width):
            original, calls = _text.format_g17, []

            def format_g17(table):
                if table.shape[1] == width:
                    calls.append(len(table))
                    if len(calls) == 2:
                        raise OSError("no space left")
                return original(table)

            monkeypatch.setattr(_text, "format_g17", format_g17)
            monkeypatch.setattr(dynamics, "_CSV_CHUNK_CELLS", 8)
        return install

    @pytest.mark.parametrize("writer", ("to_csv", "write_csv"))
    def test_failed_write_leaves_no_file(self, tmp_path, failing_format,
                                         writer):
        # a table appears whole or not at all: neither the file nor its
        # staged `.part` is left behind when a block fails to format
        traj = self.special_trajectory()
        failing_format(1 + traj.n * traj.d)
        path = tmp_path / "traj.csv"
        with pytest.raises(OSError):
            if writer == "to_csv":
                traj.to_csv(path)
            else:
                dynamics.write_csv(path, state_header(traj.n, traj.d), traj.times,
                                   traj.states.reshape(len(traj.times), -1))
        assert list(tmp_path.iterdir()) == []

    def test_failed_simulate_leaves_no_observables(self, tmp_path,
                                                   failing_format):
        # the trajectory is written whole, then the observables fail
        failing_format(3)
        with pytest.raises(OSError):
            cmd_simulate(parse_config({
                "system": {"n": 3, "d": 2,
                           "kernel": {"form": "constant", "c": 1.0}},
                "signal": {"type": "rotating_star", "dwell": 0.2},
                "window": {"tau": 1.0, "mu": 0.01},
                "run": {"t_end": 1.0, "dt": 0.05},
                "initial": [[0.0, 3.0], [1.0, 1.0], [2.0, -1.0]],
                "outputs": {"dir": str(tmp_path)},
            }))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trajectory.csv"]

    def test_csv_round_trip(self, tmp_path):
        traj = cl.integrate(config([-1.0, 1.0]), all_ones_signal(),
                            cl.Constant(1.0), 1.0, 0.1)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,x_1_1,x_2_1"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], traj.times)
        assert np.array_equal(data[:, 1:], traj.states[:, :, 0])
