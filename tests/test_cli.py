import json
import warnings

import numpy as np
import pytest

import consensuslab as cl
from consensuslab import signals
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
        pytest.param("window", lambda d: d["window"].update(tau=None),
                     id="null_tau"),
        pytest.param("system.n", lambda d: d["system"].update(n="two"),
                     id="non_numeric_n"),
        pytest.param("system.d", lambda d: d["system"].update(d=[1]),
                     id="list_d"),
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
        pytest.param("outputs.dir", lambda d: d["outputs"].update(dir=5),
                     id="numeric_dir"),
        pytest.param("certify.kinds", lambda d: d.update(certify={"kinds": 5}),
                     id="numeric_kinds"),
        pytest.param("certify", lambda d: d.update(certify=[1]), id="list_certify"),
        pytest.param("verify", lambda d: d.update(verify="x"), id="string_verify"),
        pytest.param("sweep", lambda d: d.update(sweep=[1]), id="list_sweep"),
    ])
    def test_invalid_value_names_field(self, tmp_path, capsys, field, edit):
        data = two_agent_config(tmp_path)
        edit(data)
        assert main(["simulate", "--config", str(write_config(tmp_path, data))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ") and "Traceback" not in err

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

    def test_unbalanced_defaults_to_eta_only(self, tmp_path):
        data = two_agent_config(tmp_path)
        data["signal"]["data"]["pieces"] = [
            {"n": 2, "entries": [[1.0, 1.0], [0.0, 1.0]]}]
        bundle = cmd_certify(parse_config(data))
        assert not (tmp_path / "persistence_lambda2.json").exists()
        assert (tmp_path / "persistence_eta.json").exists()
        assert bundle.summary["checks"][0]["name"] == "eta_persistence"

    def test_certifiers_looked_up_at_call_time(self, tmp_path, monkeypatch):
        # the pipeline benchmark wraps `signals.certify_*` on the module, so
        # both pipelines must reach the certifiers through it
        calls = []
        for kind in ("eta", "lambda2"):
            certify = getattr(signals, f"certify_{kind}")
            monkeypatch.setattr(signals, f"certify_{kind}",
                                lambda *args, kind=kind, certify=certify:
                                calls.append(kind) or certify(*args))
        cmd_certify(parse_config(blinking_config(tmp_path)))
        assert calls == ["eta", "lambda2"]
        for observable, kind in (("diameter", "eta"), ("variance", "lambda2")):
            calls.clear()
            data = TestVerify().verify_config(tmp_path / observable, observable)
            cmd_verify(parse_config(data))
            assert calls == [kind]

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
        start = np.zeros((5, 2))
        start[2, 1] = np.nan
        for init_set in ([start.tolist()], [np.zeros((4, 2)).tolist()], []):
            data = self.verify_config(tmp_path)
            data["sweep"] = {"init_set": init_set}
            with pytest.raises(ConfigError) as err:
                cmd_verify(parse_config(data))
            assert err.value.field == "sweep.init_set"

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
        assert json.loads((tmp_path / "analysis_reports.json").read_text()) == reports
        assert json.loads((tmp_path / "decay_fits.json").read_text()) == fits

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

    def test_config_json_round_trip(self, tmp_path):
        data = blinking_config(tmp_path)
        cfg = parse_config(json.loads(json.dumps(data)))
        again = parse_config(cfg.raw)
        assert again.window == cfg.window
        assert again.dt == cfg.dt
        assert np.array_equal(again.signal.breakpoints, cfg.signal.breakpoints)
