import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import consensuslab as cl
from consensuslab import cli, signals
from consensuslab.analysis import analysis_report_json
from consensuslab.cli import (
    MAX_GRID_STEPS,
    _write_json,
    cmd_certify,
    cmd_simulate,
    cmd_verify,
    main,
    parse_config,
)
from consensuslab.errors import ConfigError

from oracles import csv_per_cell


def two_agent_config(out_dir):
    return {
        "system": {"n": 2, "d": 1, "kernel": {"form": "constant", "c": 1.0}},
        "signal": {"type": "inline", "data": {
            "n": 2, "mode": "periodic", "breakpoints": [0.0, 1.0],
            "pieces": [{"n": 2, "entries": [[1.0, 1.0], [1.0, 1.0]]}],
        }},
        "window": {"tau": 1.0, "mu": 0.9},
        "run": {"t_end": 5.0, "dt": 1e-3, "sample_every": 1},
        "initial": [[-1.0], [1.0]],
        "outputs": {"dir": str(out_dir)},
    }


def blinking_config(out_dir, tau=1.0, mu=0.5):
    return {
        "system": {"n": 2, "d": 1, "kernel": {"form": "constant", "c": 1.0}},
        "signal": {"type": "blinking_pairs", "dwell": 1.0, "duty": 0.5},
        "window": {"tau": tau, "mu": mu},
        "run": {"t_end": 6.0, "dt": 1e-2},
        "outputs": {"dir": str(out_dir)},
    }


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestParseConfig:
    def test_tau_exceeding_t_end_names_field(self, tmp_path):
        data = two_agent_config(tmp_path)
        data["window"]["tau"] = 10.0
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.field == "window.tau"

    def test_missing_kernel_named(self, tmp_path):
        data = two_agent_config(tmp_path)
        del data["system"]["kernel"]
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert "system.kernel" in str(err.value)

    def test_bad_dt(self, tmp_path):
        data = two_agent_config(tmp_path)
        data["run"]["dt"] = 0.0
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.field == "run.dt"

    @pytest.mark.parametrize("route", ("config", "--dt"))
    def test_step_grid_cap(self, tmp_path, capsys, monkeypatch, route):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated a config past the step cap")

        monkeypatch.setattr(cl._kernels, "rk4_run", no_integration)
        data = two_agent_config(tmp_path)
        dt = data["run"]["t_end"] / (MAX_GRID_STEPS + 1)
        argv = []
        if route == "config":
            data["run"]["dt"] = dt
        else:
            argv = ["--dt", repr(dt)]
        path = write_config(tmp_path, data)
        assert main(["simulate", "--config", str(path)] + argv) == 1
        assert "run.dt" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    # a grid point per piece start (10^13) or per window end (10^10):
    # before the cap counted them, the first raised MemoryError building
    # the piece starts and the second building the window ends
    DENSE_GRIDS = [
        pytest.param("sweep_cs_n5", "signal", "dwell", 1e-12, "signal",
                     id="dwell"),
        pytest.param("simulate_linear_n128", "window", "tau", 1e-9,
                     "window.tau", id="tau"),
    ]

    @staticmethod
    def dense_grid_config(tmp_path, name, block, key, value):
        path = Path(__file__).parents[1] / "pipebench" / "configs" / f"{name}.json"
        data = json.loads(path.read_text())
        data[block][key] = value
        data["outputs"]["dir"] = str(tmp_path)
        return data

    @pytest.mark.parametrize("name, block, key, value, field", DENSE_GRIDS)
    def test_grid_cap_counts_every_point(self, tmp_path, name, block, key,
                                         value, field):
        data = self.dense_grid_config(tmp_path, name, block, key, value)
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.field == field

    @pytest.mark.parametrize("name, block, key, value, field", DENSE_GRIDS)
    def test_dense_grid_exits_1(self, tmp_path, capsys, name, block, key,
                                value, field):
        data = self.dense_grid_config(tmp_path, name, block, key, value)
        command = "verify" if "sweep" in data else "simulate"
        if command == "simulate":
            data["initial"] = np.zeros((128, 2)).tolist()
        path = write_config(tmp_path, data)
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {field}: ")
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("field, edit", [
        pytest.param("system.kernel", lambda d: d["system"].update(
            kernel={"form": "cucker_smale", "K": -1.0, "beta": 0.5}),
            id="negative_K"),
        pytest.param("system.kernel", lambda d: d["system"]["kernel"].update(
            c="fast"), id="non_numeric_c"),
        pytest.param("system.kernel", lambda d: d["system"]["kernel"].update(
            c=None), id="null_c"),
        pytest.param("signal", lambda d: d.update(
            signal={"type": "rotating_star", "dwell": -0.5}),
            id="negative_dwell"),
        pytest.param("signal", lambda d: d["signal"]["data"].update(
            breakpoints=[0.0, 1.0, 0.5],
            pieces=[{"n": 2, "entries": [[1.0, 1.0], [1.0, 1.0]]}] * 2),
            id="unsorted_breakpoints"),
        pytest.param("signal", lambda d: d["signal"]["data"].pop("breakpoints"),
                     id="missing_breakpoints"),
        pytest.param("signal", lambda d: d["signal"]["data"].update(
            breakpoints=[0.0, float("nan")]), id="nan_breakpoint"),
        pytest.param("signal", lambda d: d["signal"]["data"].update(
            breakpoints=[0.0, float("inf")]), id="inf_breakpoint"),
        pytest.param("system.kernel", lambda d: d["system"].update(
            kernel={"form": "cucker_smale", "K": 1.0, "beta": float("nan")}),
            id="nan_beta"),
        pytest.param("system.kernel", lambda d: d["system"].update(
            kernel={"form": "cucker_smale", "K": float("inf"), "beta": 1.0}),
            id="inf_K"),
        pytest.param("system.kernel", lambda d: d["system"]["kernel"].update(
            c=float("inf")), id="inf_c"),
        pytest.param("window", lambda d: d["window"].update(tau=None),
                     id="null_tau"),
        pytest.param("system.n", lambda d: d["system"].update(n="two"),
                     id="non_numeric_n"),
        pytest.param("system.d", lambda d: d["system"].update(d=[1]),
                     id="list_d"),
        # pieces of 10^15 floats are refused before any is allocated
        pytest.param("system.n", lambda d: d.update(
            system=dict(d["system"], n=100_000),
            signal={"type": "rotating_star", "dwell": 0.05}),
            id="oversized_rotating_star"),
        pytest.param("system.n", lambda d: d.update(
            system=dict(d["system"], n=100_000),
            signal={"type": "blinking_pairs", "dwell": 0.05, "duty": 1.0}),
            id="oversized_blinking_pairs"),
        # sweeps of 10^12 and 10^10 floats are refused before any start is drawn
        pytest.param("sweep.num_initial", lambda d: d.update(
            sweep={"num_initial": 10**9}), id="oversized_num_initial"),
        pytest.param("system.d", lambda d: d.update(
            system=dict(d["system"], d=10**8), sweep={}, initial=None),
            id="oversized_d"),
        pytest.param("run.t_end", lambda d: d["run"].update(t_end="soon"),
                     id="non_numeric_t_end"),
        pytest.param("run.dt", lambda d: d["run"].update(dt="small"),
                     id="non_numeric_dt"),
        pytest.param("run.sample_every", lambda d: d["run"].update(
            sample_every="x"), id="non_numeric_sample_every"),
        pytest.param("sweep.num_initial", lambda d: d.update(
            sweep={"num_initial": "many"}), id="non_numeric_num_initial"),
        pytest.param("sweep.seed", lambda d: d.update(sweep={"seed": "abc"}),
                     id="non_numeric_seed"),
        pytest.param("sweep.seed", lambda d: d.update(sweep={"seed": -1}),
                     id="negative_seed"),
        pytest.param("initial", lambda d: d.update(initial=[["a"], ["b"]]),
                     id="non_numeric_initial"),
        pytest.param("initial", lambda d: d.update(initial=[[np.nan], [1.0]]),
                     id="non_finite_initial"),
        pytest.param("outputs.emit", lambda d: d["outputs"].update(emit=5),
                     id="numeric_emit"),
        pytest.param("outputs.emit", lambda d: d["outputs"].update(
            emit=["trajectory"]), id="unknown_emit"),
        pytest.param("outputs.emit", lambda d: d["outputs"].update(
            emit=["trajectories", "csv"]), id="unknown_second_emit"),
        pytest.param("outputs.emit", lambda d: d["outputs"].update(
            emit=[["trajectories"]]), id="nested_emit"),
        pytest.param("outputs.dir", lambda d: d["outputs"].update(dir=5),
                     id="numeric_dir"),
        pytest.param("certify.kinds", lambda d: d.update(certify={"kinds": 5}),
                     id="numeric_kinds"),
        pytest.param("certify.kinds", lambda d: d.update(certify={"kinds": []}),
                     id="empty_kinds"),
        pytest.param("certify.kinds", lambda d: d.update(
            certify={"kinds": ["eta", "foo"]}), id="unknown_kind"),
        pytest.param("certify.kinds", lambda d: d.update(
            certify={"kinds": [["eta"]]}), id="nested_kind"),
        pytest.param("system.n", lambda d: d["system"].update(n=True),
                     id="boolean_n"),
        pytest.param("system.d", lambda d: d["system"].update(d=True),
                     id="boolean_d"),
        pytest.param("run.sample_every", lambda d: d["run"].update(
            sample_every=True), id="boolean_sample_every"),
        pytest.param("sweep.num_initial", lambda d: d.update(
            sweep={"num_initial": True}), id="boolean_num_initial"),
        pytest.param("sweep.seed", lambda d: d.update(sweep={"seed": False}),
                     id="boolean_seed"),
        pytest.param("certify", lambda d: d.update(certify=[1]), id="list_certify"),
        pytest.param("verify", lambda d: d.update(verify="x"), id="string_verify"),
        pytest.param("sweep", lambda d: d.update(sweep=[1]), id="list_sweep"),
        pytest.param("system.kernel.form", lambda d: d["system"]["kernel"].update(
            form="quadratic"), id="unknown_kernel_form"),
        pytest.param("signal.type", lambda d: d.update(
            signal={"type": "random"}), id="unknown_signal_type"),
        pytest.param("signal", lambda d: d["signal"]["data"].update(
            n=3, pieces=[{"n": 3, "entries": np.eye(3).tolist()}]),
            id="inline_n_mismatch"),
        pytest.param("system.n", lambda d: d["system"].update(n=0), id="zero_n"),
        pytest.param("system.d", lambda d: d["system"].update(d=0), id="zero_d"),
        pytest.param("run.t_end", lambda d: d["run"].update(t_end=0.0),
                     id="zero_t_end"),
        pytest.param("run.t_end", lambda d: d["run"].update(t_end=np.inf),
                     id="infinite_t_end"),
        pytest.param("run.dt", lambda d: d["run"].update(dt=np.inf),
                     id="infinite_dt"),
        pytest.param("run.dt", lambda d: d["run"].update(dt=1e300),
                     id="dt_past_t_end"),
        pytest.param("run.sample_every", lambda d: d["run"].update(
            sample_every=0), id="zero_sample_every"),
        pytest.param("sweep.num_initial", lambda d: d.update(
            sweep={"num_initial": 0}), id="zero_num_initial"),
        pytest.param("verify.observable", lambda d: d.update(
            verify={"observable": "energy"}), id="unknown_observable"),
        pytest.param("initial", lambda d: d.pop("initial"),
                     id="simulate_without_initial"),
    ])
    def test_invalid_value_names_field(self, tmp_path, capsys, field, edit):
        data = two_agent_config(tmp_path)
        edit(data)
        assert main(["simulate", "--config", str(write_config(tmp_path, data))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ("system.n", 2.5), ("system.d", 1.5), ("run.sample_every", 1.9),
        ("sweep.num_initial", 3.5), ("sweep.seed", 1.5)])
    def test_non_integral_number_names_field(self, tmp_path, field, value):
        data = two_agent_config(tmp_path)
        block, key = field.split(".")
        data.setdefault(block, {})[key] = value
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.field == field and "not an integer" in str(err.value)
        data[block][key] = float(int(value))  # an integral float is accepted
        parse_config(data)

    @pytest.mark.parametrize("kind, duty, pieces", [
        pytest.param("rotating_star", 0.5, 6, id="rotating_star-6"),
        pytest.param("blinking_pairs", 0.5, 10, id="blinking_pairs-10"),
        pytest.param("blinking_pairs", 1.0, 5, id="blinking_pairs-duty1-5")])
    def test_generated_signal_cap(self, tmp_path, monkeypatch, kind, duty,
                                  pieces):
        # the cap counts the `pieces` (n, n) pieces made at n = 6
        monkeypatch.setattr(cli, "MAX_SIGNAL_FLOATS", pieces * 36)
        data = blinking_config(tmp_path)
        data["system"]["n"] = 6
        data["signal"].update(type=kind, duty=duty)
        assert len(parse_config(data).signal.pieces) == pieces
        monkeypatch.setattr(cli, "MAX_SIGNAL_FLOATS", pieces * 36 - 1)
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.field == "system.n"

    @pytest.mark.parametrize("field, sweep, starts", [
        pytest.param("sweep.num_initial", {"num_initial": 3}, 3, id="drawn"),
        pytest.param("sweep.init_set", {"init_set": [[[0.0], [1.0]]] * 3}, 3,
                     id="listed"),
        pytest.param("system.d", {"num_initial": 1}, 1, id="one_start")])
    def test_sweep_cap(self, tmp_path, monkeypatch, field, sweep, starts):
        # the cap counts each start's 2x1 positions and its series of 5,011
        # grid points (5,000 steps, 5 laps of one piece, 6 window ends)
        data = dict(two_agent_config(tmp_path), sweep=sweep)
        monkeypatch.setattr(cli, "MAX_SWEEP_FLOATS", starts * 5013)
        parse_config(data)
        monkeypatch.setattr(cli, "MAX_SWEEP_FLOATS", starts * 5013 - 1)
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.field == field

    def test_certify_kinds_are_the_certifiers(self, tmp_path, monkeypatch):
        # parse_config accepts exactly the kinds signals.certify knows
        data = blinking_config(tmp_path)
        data["certify"] = {"kinds": ["eta2"]}
        with pytest.raises(ConfigError, match="'eta2'"):
            parse_config(data)
        monkeypatch.setitem(signals._KINDS, "eta2", signals._KINDS["eta"])
        assert parse_config(data).certify_kinds == ("eta2",)

    @pytest.mark.parametrize("kind", ["rotating_star", "blinking_pairs"])
    def test_signal_seed_ignored(self, tmp_path, kind):
        # the generators are deterministic; a config may still carry a seed
        data = blinking_config(tmp_path)
        data["signal"]["type"] = kind
        want = parse_config(data).signal.to_json_dict()
        data["signal"]["seed"] = 5
        assert parse_config(data).signal.to_json_dict() == want

    def test_default_dt_rule(self, tmp_path):
        data = blinking_config(tmp_path)
        data["run"].pop("dt", None)
        cfg = parse_config(data)
        # min(1e-2, min piece duration / 20, tau / 100)
        assert cfg.dt == pytest.approx(min(1e-2, 0.5 / 20, 1.0 / 100))

    def test_initial_shape_checked(self, tmp_path):
        data = two_agent_config(tmp_path)
        data["initial"] = [[0.0], [1.0], [2.0]]
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.field == "initial"

    def test_overflowing_initial_exits_1_and_writes_nothing(self, tmp_path,
                                                             capsys):
        # finite positions whose squared distance (4e320) overflows to inf
        data = two_agent_config(tmp_path / "out")
        data["initial"] = [[-1e160], [1e160]]
        path = write_config(tmp_path, data)
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: initial: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        data["initial"] = [[-1e150], [1e150]]
        assert parse_config(data).initial[1, 0] == 1e150


class TestSimulate:
    def test_reference_run_matches_closed_form(self, tmp_path):
        bundle = cmd_simulate(parse_config(two_agent_config(tmp_path)))
        assert bundle.exit_code == 0
        obs = np.loadtxt(tmp_path / "observables.csv", delimiter=",",
                         skiprows=1)
        t, diam = obs[:, 0], obs[:, 1]
        assert np.abs(diam - 2.0 * np.exp(-t)).max() <= 1e-6
        from pathlib import Path
        for path in bundle.trajectory_files + [bundle.summary_path]:
            assert Path(path).exists()
        assert (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("scale", (1.0, 2.0 ** 40), ids=("unit", "2^40"))
    def test_last_window_end_rounding_past_t_end(self, tmp_path, capsys, scale):
        # t_end / tau is 5e-10 short of 3, within the window count's 1e-9,
        # so the last window end is 3 tau, past t_end: it is clamped to
        # t_end at any time unit (c scales with 1 / unit)
        data = two_agent_config(tmp_path)
        data["system"]["kernel"]["c"] = 1.0 / scale
        data["signal"]["data"]["breakpoints"] = [0.0, scale]
        data["window"]["tau"] = scale
        data["run"].update(t_end=2.9999999995 * scale, dt=0.01 * scale)
        assert main(["simulate", "--config",
                     str(write_config(tmp_path, data))]) == 0
        assert capsys.readouterr().err == ""
        times = np.loadtxt(tmp_path / "observables.csv", delimiter=",",
                           skiprows=1)[:, 0]
        assert times[-1] == 2.9999999995 * scale

    def test_identity_signal_constant_positions(self, tmp_path):
        data = two_agent_config(tmp_path)
        data["signal"]["data"]["pieces"] = [
            {"n": 2, "entries": [[1.0, 0.0], [0.0, 1.0]]}]
        bundle = cmd_simulate(parse_config(data))
        assert bundle.exit_code == 0
        rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",",
                          skiprows=1)
        assert np.array_equal(rows[:, 1:], np.broadcast_to(
            [-1.0, 1.0], (rows.shape[0], 2)))

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        data = two_agent_config(tmp_path)
        data["window"]["tau"] = 99.0
        path = write_config(tmp_path, data)
        code = main(["simulate", "--config", str(path)])
        assert code == 1
        assert "window.tau" in capsys.readouterr().err

    def test_diverging_run_fails_with_one_line(self, tmp_path, capsys):
        # RK4 at h * c / n far past its stability bound overflows within a
        # few steps; the run stops there, with no numpy warning on the way
        data = {
            "system": {"n": 4, "d": 1, "kernel": {"form": "constant", "c": 1e6}},
            "signal": {"type": "rotating_star", "dwell": 1.0},
            "window": {"tau": 4.0, "mu": 0.01},
            "run": {"t_end": 4000.0, "dt": 1.0},
            "initial": [[-1.0], [0.5], [2.0], [3.0]],
            "outputs": {"dir": str(tmp_path / "out")},
        }
        path = write_config(tmp_path, data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--config", str(path)])
        assert code == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == [
            "error: integration produced non-finite coordinates"]
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_star_simulate_memory_bound(self, tmp_path):
        # the shape of the pipeline benchmark's simulate: n = 128 in the
        # plane, a rotating star of dwell 0.05, 1001 samples.  The star's
        # pieces are one hub pattern (0.5 MB); as a dense (n, n, n) stack
        # they alone took 16.8 MB of an 18.9 MB peak
        data = {
            "system": {"n": 128, "d": 2, "kernel": {"form": "constant", "c": 1.0}},
            "signal": {"type": "rotating_star", "dwell": 0.05},
            "window": {"tau": 1.0, "mu": 0.01},
            "run": {"t_end": 10.0, "dt": 0.01, "sample_every": 1},
            "initial": np.random.default_rng(3).normal(size=(128, 2)).tolist(),
            "outputs": {"dir": str(tmp_path / "warm")},
        }
        cmd_simulate(parse_config(dict(data, run={"t_end": 1.0, "dt": 0.01})))
        data["outputs"] = {"dir": str(tmp_path / "out")}
        tracemalloc.start()
        try:
            cmd_simulate(parse_config(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20


    def test_long_simulate_memory_bound(self, tmp_path):
        # 10^4 steps of the pipeline benchmark's simulate: the (10001, 1,
        # 128, 2) record would take 20.5 MB, but the run streams it and
        # holds a few blocks of it and the two 10001-sample series
        data = {
            "system": {"n": 128, "d": 2, "kernel": {"form": "constant", "c": 1.0}},
            "signal": {"type": "rotating_star", "dwell": 0.05},
            "window": {"tau": 1.0, "mu": 0.01},
            "run": {"t_end": 100.0, "dt": 0.01},
            "initial": np.random.default_rng(4).normal(size=(128, 2)).tolist(),
            "outputs": {"dir": str(tmp_path / "warm")},
        }
        cmd_simulate(parse_config(dict(data, run={"t_end": 1.0, "dt": 0.01})))
        data["outputs"] = {"dir": str(tmp_path / "out")}
        tracemalloc.start()
        try:
            cmd_simulate(parse_config(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * cl._kernels._RECORD_BLOCK_FLOATS + 2 * 8 * 10001


class TestCertify:
    def test_blinking_pass(self, tmp_path):
        bundle = cmd_certify(parse_config(blinking_config(tmp_path)))
        assert bundle.exit_code == 0
        report = json.loads((tmp_path / "persistence_eta.json").read_text())
        assert report["passes"] is True
        assert report["infimum_value"] == pytest.approx(0.5)
        lam = json.loads((tmp_path / "persistence_lambda2.json").read_text())
        assert lam["passes"] is True

    def test_blinking_fail_half_window(self, tmp_path):
        data = blinking_config(tmp_path, tau=0.5, mu=0.1)
        bundle = cmd_certify(parse_config(data))
        assert bundle.exit_code == 2
        report = json.loads((tmp_path / "persistence_eta.json").read_text())
        assert report["passes"] is False
        assert report["worst_start"] == pytest.approx(0.5)

    def test_unbalanced_lambda2_request_errors(self, tmp_path, capsys):
        data = two_agent_config(tmp_path)
        data["signal"]["data"]["pieces"] = [
            {"n": 2, "entries": [[1.0, 1.0], [0.0, 1.0]]}]
        data["certify"] = {"kinds": ["eta", "lambda2"]}
        path = write_config(tmp_path, data)
        code = main(["certify", "--config", str(path)])
        assert code == 1
        assert "balanced" in capsys.readouterr().err
        assert not list(tmp_path.glob("persistence_*.json"))

    def test_uncovered_horizon_writes_no_report(self, tmp_path, capsys):
        # both kinds fail before either report is written
        data = two_agent_config(tmp_path)
        data["signal"]["data"].update(mode="clamped", breakpoints=[0.0, 1.0, 2.0],
                                      pieces=data["signal"]["data"]["pieces"] * 2)
        data["certify"] = {"kinds": ["eta", "lambda2"]}
        code = main(["certify", "--config", str(write_config(tmp_path, data))])
        assert code == 1
        assert "certification needs" in capsys.readouterr().err
        assert not list(tmp_path.glob("persistence_*.json"))

    def test_unbalanced_defaults_to_eta_only(self, tmp_path):
        data = two_agent_config(tmp_path)
        data["signal"]["data"]["pieces"] = [
            {"n": 2, "entries": [[1.0, 1.0], [0.0, 1.0]]}]
        bundle = cmd_certify(parse_config(data))
        assert not (tmp_path / "persistence_lambda2.json").exists()
        assert (tmp_path / "persistence_eta.json").exists()
        assert bundle.summary["checks"][0]["name"] == "eta_persistence"

    def test_certifiers_looked_up_at_call_time(self, tmp_path, monkeypatch):
        # the pipeline benchmark wraps functions on the `signals` module, so
        # both pipelines must reach `signals.certify` through it, once a call
        calls = []
        certify = signals.certify
        monkeypatch.setattr(signals, "certify", lambda sig, window, horizon, kinds:
                            calls.append(list(kinds))
                            or certify(sig, window, horizon, kinds))
        cmd_certify(parse_config(blinking_config(tmp_path)))
        assert calls == [["eta", "lambda2"]]
        for observable, kind in (("diameter", "eta"), ("variance", "lambda2")):
            calls.clear()
            data = TestVerify().verify_config(tmp_path / observable, observable)
            cmd_verify(parse_config(data))
            assert calls == [[kind]]

    def test_tiny_time_unit_fails_as_at_unit_scale(self, tmp_path):
        # blinking pairs with every time in units of 1e-13: kinks 1e-13
        # apart are distinct window starts, so the half-on window fails at
        # 1/21 as it does with the same config in units of 0.1
        data = {
            "system": {"n": 6, "d": 1, "kernel": {"form": "constant", "c": 1.0}},
            "signal": {"type": "blinking_pairs", "dwell": 1e-13, "duty": 0.5},
            "window": {"tau": 3.5e-13, "mu": 0.06},
            "run": {"t_end": 1e-12, "dt": 1e-12},
            "outputs": {"dir": str(tmp_path)},
        }
        assert main(["certify", "--config",
                     str(write_config(tmp_path, data))]) == 2
        for kind in ("eta", "lambda2"):
            report = json.loads(
                (tmp_path / f"persistence_{kind}.json").read_text())
            assert report["passes"] is False
            assert report["infimum_value"] == pytest.approx(1 / 21, rel=1e-12)

    def test_round_trip_persistence_report(self, tmp_path):
        cmd_certify(parse_config(blinking_config(tmp_path)))
        data = json.loads((tmp_path / "persistence_eta.json").read_text())
        report = cl.PersistenceReport.from_json_dict(data)
        assert report.to_json_dict() == data


class TestVerify:
    def verify_config(self, out_dir, observable="diameter"):
        return {
            "system": {"n": 5, "d": 2,
                       "kernel": {"form": "cucker_smale", "K": 1.0, "beta": 1.0}},
            "signal": {"type": "rotating_star", "dwell": 0.2},
            "window": {"tau": 1.0, "mu": 0.04},
            "run": {"t_end": 4.0, "dt": 1e-2},
            "sweep": {"num_initial": 4, "init_set": "unit_ball", "seed": 5},
            "verify": {"observable": observable},
            "outputs": {"dir": str(out_dir)},
        }

    def test_rotating_star_sweep(self, tmp_path):
        bundle = cmd_verify(parse_config(self.verify_config(tmp_path)))
        assert bundle.exit_code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["worst_kappa_hat"] < 1.0
        assert summary["worst_gamma"] > 0.0
        assert all(r["all_strict"] for r in summary["runs"])
        assert summary["persistence_infimum"] == pytest.approx(0.4)

    def test_too_few_fit_samples_names_field(self, tmp_path, capsys):
        # samples at t = 0 and at the window end t = 1 only: no fit, and no
        # report or trajectory left behind
        data = self.verify_config(tmp_path / "out")
        data["run"] = {"t_end": 1.0, "dt": 0.01, "sample_every": 1000}
        data["outputs"]["emit"] = ["trajectories"]
        path = write_config(tmp_path, data)
        assert main(["verify", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run.sample_every: ") and "need at least 3" in err
        assert err.count("\n") == 1
        assert list((tmp_path / "out").iterdir()) == []
        # a third sample at t = 0.5 is enough
        data["run"]["sample_every"] = 50
        assert main(["verify", "--config", str(write_config(tmp_path, data))]) in (0, 2)

    def test_identity_sweep_never_strict(self, tmp_path):
        data = self.verify_config(tmp_path)
        data["signal"] = {"type": "inline", "data": {
            "n": 5, "mode": "periodic", "breakpoints": [0.0, 1.0],
            "pieces": [{"n": 5, "entries": np.eye(5).tolist()}],
        }}
        bundle = cmd_verify(parse_config(data))
        assert bundle.exit_code == 2
        assert all(not r["all_strict"] for r in bundle.summary["runs"])

    def test_coincident_initial_skipped(self, tmp_path):
        data = self.verify_config(tmp_path)
        data["sweep"] = {"num_initial": 1, "seed": 0,
                         "init_set": [np.zeros((5, 2)).tolist()]}
        bundle = cmd_verify(parse_config(data))
        assert bundle.summary["runs"][0]["consensus_at_t0"] is True

        # with no live run there is no worst rate: strict JSON null, not Infinity
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        summary = json.loads((tmp_path / "summary.json").read_text(),
                             parse_constant=reject)
        assert summary["worst_gamma"] is None
        check = summary["checks"][-1]
        assert check["name"] == "every_gamma_positive"
        assert (check["value"], check["verdict"]) == (None, "pass")

    def test_malformed_init_set_rejected(self, tmp_path):
        # checked as `initial` is, when the config is read: a transposed
        # (d x n) or flat start is not reshaped into other positions
        start = np.zeros((5, 2))
        start[2, 1] = np.nan
        ramp = np.arange(10.0)
        for init_set in ([start.tolist()], [np.zeros((4, 2)).tolist()], [],
                         [ramp.reshape(2, 5).tolist()], [ramp.tolist()]):
            data = self.verify_config(tmp_path)
            data["sweep"] = {"init_set": init_set}
            with pytest.raises(ConfigError) as err:
                parse_config(data)
            assert err.value.field == "sweep.init_set"

    @pytest.mark.parametrize("case", ("transposed", "non_finite", "overflow"))
    def test_bad_init_set_exits_1_and_writes_nothing(self, tmp_path, capsys,
                                                     case):
        start = np.random.default_rng(48).normal(size=(5, 2))
        if case == "transposed":
            start = start.T
        elif case == "non_finite":
            start[1, 0] = np.inf
        else:
            # finite, but its squared distances overflow to inf
            start *= 1e200
        data = self.verify_config(tmp_path / "out")
        data["sweep"] = {"init_set": [np.zeros((5, 2)).tolist(), start.tolist()]}
        path = write_config(tmp_path, data)
        assert main(["verify", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sweep.init_set: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("observable", ("diameter", "variance"))
    def test_mixed_sweep_matches_per_run_reference(self, tmp_path, observable):
        rng = np.random.default_rng(46)
        starts = [rng.normal(size=(5, 2)), np.full((5, 2), 0.3),
                  rng.normal(size=(5, 2)) * 4.0, rng.uniform(size=(5, 2))]
        data = self.verify_config(tmp_path, observable)
        data["sweep"] = {"init_set": [s.tolist() for s in starts]}
        cfg = parse_config(data)
        bundle = cmd_verify(cfg)

        runs, reports, fits = [], [], []
        for idx, start in enumerate(starts):
            diam = cl.diameter(cl.Configuration.from_positions(start))
            if diam == 0.0:
                runs.append({"run": idx, "consensus_at_t0": True})
                continue
            x0 = cl.Configuration.from_positions((start - start.mean(axis=0)) / diam)
            traj = cl.integrate(x0, cfg.signal, cfg.kernel, cfg.t_end, cfg.dt,
                                forced_times=np.arange(5) * cfg.window.tau)
            series = traj.diameters if observable == "diameter" else traj.variances
            contraction = cl.window_contraction(traj, cfg.window.tau, observable)
            keep = series > 1e-14 * series[0]
            fit = cl.fit_exponential(traj.times[keep], series[keep])
            runs.append({"run": idx, "consensus_at_t0": False,
                         "kappa_hat": contraction.kappa_hat,
                         "all_strict": contraction.all_strict,
                         "gamma": fit.gamma, "alpha": fit.alpha,
                         "rms_log_residual": fit.rms_log_residual})
            reports.append(analysis_report_json(observable, contraction, fit))
            fits.append(fit.to_json_dict())

        assert [r["consensus_at_t0"] for r in runs] == [False, True, False, False]
        assert bundle.summary["runs"] == runs
        for name, payload in (("analysis_reports", reports), ("decay_fits", fits)):
            assert json.loads((tmp_path / f"{name}.json").read_text()) == json.loads(
                json.dumps(payload, default=np.ndarray.tolist))

    def test_emitted_trajectories_match_per_cell_writer(self, tmp_path):
        rng = np.random.default_rng(47)
        starts = [rng.normal(size=(5, 2)), np.full((5, 2), -0.7),
                  rng.normal(size=(5, 2)) * 1e-3]
        data = self.verify_config(tmp_path)
        data["sweep"] = {"init_set": [s.tolist() for s in starts]}
        data["outputs"]["emit"] = ["trajectories"]
        cfg = parse_config(data)
        bundle = cmd_verify(cfg)

        header = ["t"] + [f"x_{i}_{c}" for i in range(1, 6) for c in (1, 2)]
        assert [Path(p).name for p in bundle.trajectory_files] == [
            "trajectory_000.csv", "trajectory_002.csv"]
        for idx in (0, 2):
            start = starts[idx]
            x0 = cl.Configuration.from_positions(
                (start - start.mean(axis=0)) / cl.diameter(
                    cl.Configuration.from_positions(start)))
            traj = cl.integrate(x0, cfg.signal, cfg.kernel, cfg.t_end, cfg.dt,
                                forced_times=np.arange(5) * cfg.window.tau)
            want = tmp_path / f"want_{idx:03d}.csv"
            csv_per_cell(want, header, traj.times,
                         traj.states.reshape(len(traj.times), -1))
            assert ((tmp_path / f"trajectory_{idx:03d}.csv").read_bytes()
                    == want.read_bytes())

    def test_sweep_memory_below_the_record(self, tmp_path):
        # the pipeline benchmark's verify: 32 runs of 1001 samples of 5
        # agents in the plane.  The sweep streams its (1001, 32, 5, 2)
        # record, so it peaks below the 2.56 MB the record would take
        data = {
            "system": {"n": 5, "d": 2,
                       "kernel": {"form": "cucker_smale", "K": 1.0, "beta": 1.0}},
            "signal": {"type": "rotating_star", "dwell": 0.2},
            "window": {"tau": 1.0, "mu": 0.04},
            "run": {"t_end": 10.0, "dt": 0.01, "sample_every": 1},
            "sweep": {"num_initial": 32, "init_set": "unit_ball", "seed": 0},
            "outputs": {"dir": str(tmp_path / "warm")},
        }
        cmd_verify(parse_config(dict(data, run={"t_end": 1.0, "dt": 0.01})))
        data["outputs"] = {"dir": str(tmp_path / "out")}
        tracemalloc.start()
        try:
            cmd_verify(parse_config(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1001 * 32 * 5 * 2 * 8

    @pytest.mark.parametrize("floats", (1, None), ids=("1", "default"))
    def test_diverging_sweep_leaves_no_trajectories(self, tmp_path, capsys,
                                                    monkeypatch, floats):
        # as the diverging simulate, with every run's table asked for; at one
        # sample a block, each table has rows before the overflow, and the
        # failed run removes them all
        if floats is not None:
            monkeypatch.setattr(cl._kernels, "_RECORD_BLOCK_FLOATS", floats)
        data = {
            "system": {"n": 4, "d": 1, "kernel": {"form": "constant", "c": 1e6}},
            "signal": {"type": "rotating_star", "dwell": 1.0},
            "window": {"tau": 4.0, "mu": 0.01},
            "run": {"t_end": 4000.0, "dt": 1.0},
            "sweep": {"num_initial": 3, "seed": 1},
            "outputs": {"dir": str(tmp_path / "out"), "emit": ["trajectories"]},
        }
        path = write_config(tmp_path, data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["verify", "--config", str(path)])
        assert code == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == [
            "error: integration produced non-finite coordinates"]
        assert list((tmp_path / "out").iterdir()) == []

    def test_sweep_required(self, tmp_path):
        data = self.verify_config(tmp_path)
        del data["sweep"]
        with pytest.raises(ConfigError) as err:
            cmd_verify(parse_config(data))
        assert err.value.field == "sweep"

    def test_emitted_paths_exist(self, tmp_path):
        bundle = cmd_verify(parse_config(self.verify_config(tmp_path)))
        from pathlib import Path
        for path in (bundle.persistence_report, bundle.contraction_report,
                     bundle.decay_fit, bundle.summary_path):
            assert path is not None and Path(path).exists()


class TestDeterminismAndOverrides:
    def test_byte_identical_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            data = blinking_config(out)
            cmd_certify(parse_config(data))
        for name in ("persistence_eta.json", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_verify_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = TestVerify().verify_config
        for out in (out_a, out_b):
            cmd_verify(parse_config(cfg(out)))
        for name in ("summary.json", "analysis_reports.json",
                     "decay_fits.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_out_and_dt_overrides(self, tmp_path):
        data = blinking_config(tmp_path / "ignored")
        path = write_config(tmp_path, data)
        out = tmp_path / "actual"
        code = main(["certify", "--config", str(path), "--out", str(out),
                     "--dt", "0.02"])
        assert code == 0
        assert (out / "persistence_eta.json").exists()

    @pytest.mark.parametrize("flag, value, block", [
        ("--out", "elsewhere", "outputs"), ("--dt", "0.01", "run"),
        ("--seed", "1", "sweep")])
    def test_override_of_non_object_block(self, tmp_path, capsys, flag, value,
                                          block):
        # one message, with the flag that overrides the block or without it
        data = TestVerify().verify_config(tmp_path)
        data[block] = 5
        path = write_config(tmp_path, data)
        for argv in ([flag, value], []):
            assert main(["verify", "--config", str(path)] + argv) == 1
            err = capsys.readouterr().err
            assert err == f"error: {block}: expected an object\n", argv

    @pytest.mark.parametrize("block", ("system", "signal", "window", "run"))
    def test_missing_block_named_by_key(self, tmp_path, block):
        data = TestVerify().verify_config(tmp_path)
        del data[block]
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert str(err.value) == f"{block}: missing"

    @pytest.mark.parametrize("flags", [[], ["--out", "elsewhere"],
                                       ["--dt", "0.01"], ["--seed", "1"]],
                             ids=["none", "out", "dt", "seed"])
    @pytest.mark.parametrize("top", [[1, 2], "system"], ids=["list", "string"])
    def test_top_level_not_an_object(self, tmp_path, capsys, top, flags):
        path = write_config(tmp_path, top)
        assert main(["verify", "--config", str(path)] + flags) == 1
        assert capsys.readouterr().err == "error: config: expected an object\n"

    def test_seed_override_changes_draws(self, tmp_path):
        data = TestVerify().verify_config(tmp_path / "base")
        data["sweep"]["num_initial"] = 2
        path = write_config(tmp_path, data)
        assert main(["verify", "--config", str(path),
                     "--out", str(tmp_path / "a"), "--seed", "9"]) == 0
        assert main(["verify", "--config", str(path),
                     "--out", str(tmp_path / "b")]) == 0
        kappa_a = json.loads(
            (tmp_path / "a" / "summary.json").read_text())["worst_kappa_hat"]
        kappa_b = json.loads(
            (tmp_path / "b" / "summary.json").read_text())["worst_kappa_hat"]
        assert kappa_a != kappa_b

    def test_non_finite_value_fails_loudly(self, tmp_path):
        with pytest.raises(ValueError):
            _write_json(tmp_path / "out.json", {"value": float("inf")})

    @pytest.mark.parametrize("payload", [
        [0.5, 0.5, float("nan")], [0.5] * 299 + [float("nan")],
        [0.5] * 299 + [float("-inf")], {"a": [1.0, float("inf")]},
        [1, float("nan")], float("-inf"), {"a": {"b": float("inf")}}],
        ids=["short_list", "long_list", "long_list_inf", "nested_list",
             "mixed_list", "scalar", "nested_scalar"])
    def test_non_finite_raises_value_error(self, tmp_path, payload):
        with pytest.raises(ValueError):
            json.dumps(payload, allow_nan=False)
        with pytest.raises(ValueError):
            _write_json(tmp_path / "out.json", payload)

    def test_config_json_round_trip(self, tmp_path):
        data = blinking_config(tmp_path)
        text = json.dumps(data)
        cfg = parse_config(json.loads(text))
        again = parse_config(json.loads(text))
        assert again.window == cfg.window
        assert again.dt == cfg.dt
        assert np.array_equal(again.signal.breakpoints, cfg.signal.breakpoints)


def json_dump_bytes(tmp_path, payload):
    """The bytes json.dump writes for `payload`, each array as its list: the
    writer's reference."""
    path = tmp_path / "want.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False,
                  default=np.ndarray.tolist)
        fh.write("\n")
    return path.read_bytes()


FLOAT_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1.7976931348623157e308,
                  1e16, 1e17, 1e-5, 1e-4, 0.1, 1.0, -3.0, 2.0**53, 1e15, 123.0]
STRINGS = ["", "plain", "ü Ω 漢字 \U0001f600", 'quote " and \\ backslash',
           "tab\tnew\nline\x00\x1f\x7f", "\u2028\ud800"]


def pick(rng, values):
    return values[rng.integers(len(values))]


def random_payload(rng, depth=0, arrays=True):
    """A nested value of every kind `json` writes: dicts (str keys, some
    non-str), lists and tuples of floats alone or mixed, np.float64, bool,
    int, None and awkward strings, empty containers included; with `arrays`,
    also 1-D float64 arrays (empty, strided or holding FLOAT_SPECIALS), but
    none under a non-str key."""
    kind = rng.integers(0, 10 if depth < 4 else 5)
    as_array = arrays and rng.random() < 0.5
    if kind == 0:
        values = rng.choice(FLOAT_SPECIALS, rng.integers(0 if as_array else 1, 6))
        return values if as_array else [float(v) for v in values]
    if kind == 1:
        values = rng.normal(size=rng.integers(1, 400)) * 10.0 ** rng.integers(-8, 18)
        values[rng.random(values.size) < 0.1] = pick(rng, FLOAT_SPECIALS)
        return values[::rng.integers(1, 3)] if as_array else values.tolist()
    if kind == 2:
        return [rng.normal(), 1, True, None, False, -7, "s", np.float64(0.25),
                float(rng.normal())][:rng.integers(1, 10)]
    if kind == 3:
        return pick(rng, [True, False, None, 0, -12, 2**70, 0.5, -0.0,
                          np.float64(1e-7), rng.normal(), pick(rng, STRINGS)])
    if kind == 4:
        return pick(rng, [[], {}, (), [[]], [{}], {"": {}}])
    if kind == 5:
        return [np.float64(v) for v in rng.normal(size=rng.integers(1, 5))]
    if kind == 6:
        return tuple(random_payload(rng, depth + 1, arrays)
                     for _ in range(rng.integers(1, 4)))
    if kind == 7:
        keys = rng.choice([0, 1, 2, 3, 4, 5], rng.integers(1, 4), replace=False)
        return {int(k): random_payload(rng, depth + 1, False) for k in keys}
    if kind == 8:
        return [random_payload(rng, depth + 1, arrays)
                for _ in range(rng.integers(1, 5))]
    keys = rng.choice(STRINGS + ["a", "b", "kappa", "Z", "ä"], rng.integers(1, 6),
                      replace=False)
    return {str(k): random_payload(rng, depth + 1, arrays) for k in keys}


def arrays_in(obj):
    """The arrays held by a payload, at any depth."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple, dict)):
        values = obj.values() if isinstance(obj, dict) else obj
        return [a for value in values for a in arrays_in(value)]
    return []


class TestWriteJson:
    """`_write_json` writes the bytes of json.dump(indent=2, sort_keys=True,
    allow_nan=False, default=np.ndarray.tolist) and a newline: a 1-D float64
    array is written as its list."""

    def test_sweep_payloads(self, tmp_path, monkeypatch):
        written = []

        def record(path, payload):
            written.append((path, payload))
            _write_json(path, payload)

        monkeypatch.setattr(cli, "_write_json", record)
        for observable in ("diameter", "variance"):
            data = TestVerify().verify_config(tmp_path / observable, observable)
            data["run"]["t_end"] = 10.0  # the README sweep: 901 factors a run
            cmd_verify(parse_config(data))
        assert len(written) == 8
        factors = [a for _, payload in written for a in arrays_in(payload)]
        assert factors and all(a.dtype == np.float64 and a.size == 901 for a in factors)
        for path, payload in written:
            assert Path(path).read_bytes() == json_dump_bytes(tmp_path, payload)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_payloads(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            payload = random_payload(rng)
            _write_json(tmp_path / "got.json", payload)
            assert ((tmp_path / "got.json").read_bytes()
                    == json_dump_bytes(tmp_path, payload)), payload

    def test_random_payloads_hold_arrays(self):
        arrays = []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            for _ in range(20):
                arrays += arrays_in(random_payload(rng))
        assert any(a.size == 0 for a in arrays)
        assert any(not a.flags.c_contiguous for a in arrays)
        assert any(np.isin(a, [5e-324, -0.0, 1e17]).any() for a in arrays)

    @pytest.mark.parametrize("payload", [
        {"a": {"b": [0.5, 1.0], "c": [[1, 2.5], {"d": None}]}, "e": "\n"},
        [[0.1] * 3, ({"x": (0.25, -0.0)},), []],
        {"long": [0.1 * k for k in range(300)], "short": [0.5, 1.5],
         "fit": {"t_range": [0.0, 10.0]}, "ints": list(range(300))},
        [{"factors": [1.0 / k for k in range(1, 257)], "kappa": 0.8},
         [0.5] * 255, [np.float64(0.25)] * 256, "s"],
        {"runs": [{"run": k, "gamma": 0.1 * k} for k in range(260)]},
        {1: [0.5] * 300, 2: {"a": [0.25]}},
        np.linspace(0.1, 0.9, 901),
        {"factors": np.geomspace(1e-6, 1e18, 300), "empty": np.array([]),
         "kappa": 0.5, "in": [np.array([-0.0, 5e-324]), (np.array([1e16]),)]},
    ], ids=["nested_short", "nested_tuples", "long_and_short",
            "long_lists_mixed", "long_list_of_dicts", "int_keys", "array",
            "nested_arrays"])
    def test_nested_payloads(self, tmp_path, payload):
        _write_json(tmp_path / "got.json", payload)
        assert ((tmp_path / "got.json").read_bytes()
                == json_dump_bytes(tmp_path, payload))

    @pytest.mark.parametrize("payload", [
        {"a": {"b": [0.5, float("nan")]}},
        {"long": [0.5] * 300, "fit": {"gamma": float("nan")}},
        [[0.5] * 300, [float("nan")] * 2],
        [{"run": 0, "gamma": float("nan")}] + [{"run": 1}] * 300,
    ], ids=["nested_short", "beside_long", "short_beside_long", "in_long_list"])
    def test_nested_nan_raises_value_error(self, tmp_path, payload):
        with pytest.raises(ValueError):
            _write_json(tmp_path / "out.json", payload)

    @pytest.mark.parametrize("payload", [
        np.array([0.5, np.nan]), [np.full(300, np.inf)],
        {"a": ({"b": np.array([-np.inf])},)},
    ], ids=["array", "in_list", "nested"])
    def test_non_finite_array_raises_value_error(self, tmp_path, payload):
        with pytest.raises(ValueError):
            _write_json(tmp_path / "out.json", payload)

    @pytest.mark.parametrize("payload", [
        np.zeros((2, 2)), [np.arange(3)], {"a": np.zeros(3, np.float32)},
        np.zeros(()), {1: np.zeros(3)}, {"a": [{2: np.zeros(1)}]},
    ], ids=["2d", "int", "float32", "0d", "int_key", "nested_int_key"])
    def test_other_arrays_raise_type_error(self, tmp_path, payload):
        with pytest.raises(TypeError):
            json.dumps(payload)
        with pytest.raises(TypeError):
            _write_json(tmp_path / "out.json", payload)
