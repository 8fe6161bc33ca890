"""Experiment orchestration: `consensus-lab simulate|certify|verify`.

Parses a JSON experiment config, runs the requested pipeline, writes CSV
trajectories and JSON reports into the output directory and returns an
OutputBundle.  Exit codes: 0 when every check passes, 2 when a check fails,
1 on input or domain errors.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, dynamics, signals
from .dynamics import Configuration, Constant, CuckerSmale, Trajectory
from .errors import ConfigError, ConsensusLabError
from .signals import PiecewiseConstantSignal, Window

SERIES_FLOOR_REL = 1e-14

# Largest step grid a config may ask for, ceil(run.t_end / run.dt).  The grid
# is built by a Python walk over every step and the integrator records all its
# samples in one array, so a mistyped dt must fail here instead of stalling or
# exhausting memory; the reference configs use 1000 steps.
MAX_GRID_STEPS = 1_000_000


@dataclass
class ExperimentConfig:
    n: int
    d: int
    kernel: object
    signal: PiecewiseConstantSignal
    window: Window
    t_end: float
    dt: float
    sample_every: int
    out_dir: str
    emit: tuple
    initial: np.ndarray | None = None
    sweep: dict | None = None
    certify_kinds: tuple | None = None
    observable: str = "diameter"
    raw: dict = field(default_factory=dict, repr=False)


@dataclass
class OutputBundle:
    trajectory_files: list
    persistence_report: str | None
    contraction_report: str | None
    decay_fit: str | None
    summary_path: str
    summary: dict

    @property
    def exit_code(self) -> int:
        ok = all(c["verdict"] == "pass" for c in self.summary["checks"])
        return 0 if ok else 2


def _get(data, key, where, expect=None, required=True, default=None):
    if key not in data:
        if required:
            raise ConfigError(f"{where}.{key}", "missing")
        return default
    value = data[key]
    if expect is not None and not isinstance(value, expect):
        raise ConfigError(f"{where}.{key}", f"expected {expect}")
    return value


def _block(data, key):
    """The optional top-level object `key` of a config, {} when absent."""
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(key, "expected an object")
    return value


def _number(cast, value, where):
    """``cast(value)``; a value it cannot convert is a ConfigError for `where`."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(where, str(exc)) from exc


def _parse_kernel(data):
    form = _get(data, "form", "system.kernel", str)
    try:
        if form == "constant":
            return Constant(float(_get(data, "c", "system.kernel")))
        if form == "cucker_smale":
            return CuckerSmale(float(_get(data, "K", "system.kernel")),
                               float(_get(data, "beta", "system.kernel")))
    except (TypeError, ValueError) as exc:
        raise ConfigError("system.kernel", str(exc)) from exc
    raise ConfigError("system.kernel.form", f"unknown kernel form {form!r}")


def _parse_signal(data, n):
    kind = _get(data, "type", "signal", str)
    try:
        if kind == "rotating_star":
            sig = signals.gen_rotating_star(
                n, float(_get(data, "dwell", "signal")), data.get("seed"))
        elif kind == "blinking_pairs":
            sig = signals.gen_blinking_pairs(
                n, float(_get(data, "dwell", "signal")),
                float(_get(data, "duty", "signal")), data.get("seed"))
        elif kind == "inline":
            sig = PiecewiseConstantSignal.from_json_dict(
                _get(data, "data", "signal", dict))
        else:
            raise ConfigError("signal.type", f"unknown signal type {kind!r}")
    except KeyError as exc:
        raise ConfigError("signal", f"missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError("signal", str(exc)) from exc
    if sig.n != n:
        raise ConfigError("signal", f"signal has n={sig.n} but system.n={n}")
    return sig


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a config dictionary; ConfigError diagnostics name the field."""
    system = _get(data, "system", "config", dict)
    n = _number(int, _get(system, "n", "system"), "system.n")
    d = _number(int, _get(system, "d", "system"), "system.d")
    if n < 1:
        raise ConfigError("system.n", "must be >= 1")
    if d < 1:
        raise ConfigError("system.d", "must be >= 1")
    kernel = _parse_kernel(_get(system, "kernel", "system", dict))
    sig = _parse_signal(_get(data, "signal", "config", dict), n)

    window_data = _get(data, "window", "config", dict)
    try:
        window = Window(float(_get(window_data, "tau", "window")),
                        float(_get(window_data, "mu", "window")))
    except (TypeError, ValueError) as exc:
        raise ConfigError("window", str(exc)) from exc

    run = _get(data, "run", "config", dict)
    t_end = _number(float, _get(run, "t_end", "run"), "run.t_end")
    if not t_end > 0:
        raise ConfigError("run.t_end", "must be > 0")
    if window.tau > t_end:
        raise ConfigError("window.tau", f"tau={window.tau} exceeds run.t_end={t_end}")
    dt = run.get("dt")
    if dt is None:
        dwell_min = float(np.diff(sig.breakpoints).min())
        dt = dynamics.default_dt(dwell_min, window.tau)
    dt = _number(float, dt, "run.dt")
    if not dt > 0:
        raise ConfigError("run.dt", "must be > 0")
    if t_end / dt > MAX_GRID_STEPS:
        raise ConfigError("run.dt", f"t_end/dt = {t_end / dt:.6g} steps exceeds "
                                    f"the cap of {MAX_GRID_STEPS}")
    sample_every = _number(int, run.get("sample_every", 1), "run.sample_every")
    if sample_every < 1:
        raise ConfigError("run.sample_every", "must be >= 1")

    initial = data.get("initial")
    if initial is not None:
        initial = _number(lambda v: np.asarray(v, dtype=np.float64), initial,
                          "initial")
        if initial.ndim == 1:
            initial = initial[:, None]
        if initial.shape != (n, d):
            raise ConfigError("initial", f"must be {n}x{d}, got {initial.shape}")
        if not np.all(np.isfinite(initial)):
            raise ConfigError("initial", "positions must be finite")

    sweep = data.get("sweep")
    if sweep is not None:
        sweep = dict(_block(data, "sweep"))
        sweep.setdefault("num_initial", 32)
        sweep.setdefault("init_set", "unit_ball")
        sweep.setdefault("seed", 0)
        if _number(int, sweep["num_initial"], "sweep.num_initial") < 1:
            raise ConfigError("sweep.num_initial", "must be >= 1")
        if not 0 <= _number(int, sweep["seed"], "sweep.seed") < 2**128:
            raise ConfigError("sweep.seed", "must be in [0, 2**128)")
        init_set = sweep["init_set"]
        if not (init_set == "unit_ball" or isinstance(init_set, list)):
            raise ConfigError("sweep.init_set",
                              "must be 'unit_ball' or an explicit list")

    outputs = _get(data, "outputs", "config", dict, required=False, default={})
    emit = tuple(_get(outputs, "emit", "outputs", list, required=False, default=[]))
    certify_kinds = _get(_block(data, "certify"), "kinds", "certify", list,
                         required=False)
    if certify_kinds is not None:
        certify_kinds = tuple(certify_kinds)
        for kind in certify_kinds:
            if kind not in ("eta", "lambda2"):
                raise ConfigError("certify.kinds", f"unknown kind {kind!r}")

    observable = _block(data, "verify").get("observable", "diameter")
    if observable not in ("diameter", "variance"):
        raise ConfigError("verify.observable", "must be 'diameter' or 'variance'")

    return ExperimentConfig(
        n=n, d=d, kernel=kernel, signal=sig, window=window,
        t_end=t_end, dt=dt, sample_every=sample_every,
        out_dir=_get(outputs, "dir", "outputs", str, required=False, default="."),
        emit=emit,
        initial=initial, sweep=sweep, certify_kinds=certify_kinds,
        observable=observable, raw=data,
    )


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _observables_csv(path: Path, traj: Trajectory) -> None:
    dynamics.write_csv(path, ["t", "diameter", "variance"], traj.times,
                       np.column_stack([traj.diameters, traj.variances]))


def _check(name, value, threshold, ok):
    return {"name": name, "value": value, "threshold": threshold,
            "verdict": "pass" if ok else "fail"}


def _window_grid(cfg):
    """Multiples of tau inside [0, t_end]: forced onto the sample grid."""
    count = int(math.floor(cfg.t_end / cfg.window.tau + 1e-9))
    return cfg.window.tau * np.arange(count + 1)


def cmd_simulate(cfg: ExperimentConfig) -> OutputBundle:
    """Integrate one initial configuration; emit trajectory and observables."""
    if cfg.initial is None:
        raise ConfigError("initial", "simulate requires an initial configuration")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traj = dynamics.integrate(Configuration(cfg.n, cfg.d, cfg.initial), cfg.signal,
                              cfg.kernel, cfg.t_end, cfg.dt, cfg.sample_every,
                              forced_times=_window_grid(cfg))

    traj_path = out / "trajectory.csv"
    traj.to_csv(traj_path)
    obs_path = out / "observables.csv"
    _observables_csv(obs_path, traj)

    growth = float(np.diff(traj.diameters).max()) if len(traj.times) > 1 else 0.0
    checks = [
        _check("state_finite", True, True, True),
        _check("diameter_nonincreasing", growth, 1e-9, growth <= 1e-9),
    ]
    summary = {"command": "simulate", "checks": checks,
               "files": [traj_path.name, obs_path.name]}
    summary_path = out / "summary.json"
    _write_json(summary_path, summary)
    return OutputBundle([str(traj_path), str(obs_path)], None, None, None,
                        str(summary_path), summary)


def _certify_kind(cfg, kind, out):
    """(report, path) of `signals.certify_<kind>` over the run, written to
    `out/persistence_<kind>.json`.  The certifier is looked up at call time,
    so a wrapper installed on `signals` sees the call."""
    report = getattr(signals, f"certify_{kind}")(cfg.signal, cfg.window, cfg.t_end)
    path = out / f"persistence_{kind}.json"
    _write_json(path, report.to_json_dict())
    return report, path


def cmd_certify(cfg: ExperimentConfig) -> OutputBundle:
    """Certify window persistence of the signal; emit PersistenceReport JSON.
    Without `certify.kinds`, λ2 is certified only for a balanced signal."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kinds = cfg.certify_kinds
    if kinds is None:
        kinds = ("eta",) if cfg.signal.unbalanced_pieces else ("eta", "lambda2")
    elif "lambda2" in kinds:
        cfg.signal.require_balanced()  # before any report is written

    checks, paths = [], {}
    for kind in dict.fromkeys(kinds):  # a kind listed twice is certified once
        report, path = _certify_kind(cfg, kind, out)
        paths[kind] = str(path)
        checks.append(_check(f"{kind}_persistence", report.infimum_value,
                             cfg.window.mu, report.passes))
    summary = {"command": "certify", "checks": checks,
               "files": [Path(p).name for p in paths.values()]}
    summary_path = out / "summary.json"
    _write_json(summary_path, summary)
    return OutputBundle([], paths.get("eta") or paths.get("lambda2"), None, None,
                        str(summary_path), summary)


def _draw_initials(cfg):
    """Every start of the sweep, stacked: shape (runs, n, d)."""
    sweep = cfg.sweep
    init_set = sweep["init_set"]
    if isinstance(init_set, list):
        try:
            starts = np.stack([np.asarray(p, dtype=np.float64).reshape(cfg.n, cfg.d)
                               for p in init_set])
        except (TypeError, ValueError) as exc:
            raise ConfigError("sweep.init_set",
                              f"must list starts of {cfg.n}x{cfg.d} positions") from exc
        if not np.all(np.isfinite(starts)):
            raise ConfigError("sweep.init_set", "positions must be finite")
        return starts
    rng = np.random.Generator(np.random.Philox(key=int(sweep["seed"])))
    draws = []
    for _ in range(int(sweep["num_initial"])):
        direction = rng.normal(size=(cfg.n, cfg.d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = rng.random(cfg.n) ** (1.0 / cfg.d)
        draws.append(direction * radius[:, None])
    return np.stack(draws)


def cmd_verify(cfg: ExperimentConfig) -> OutputBundle:
    """Sweep initial configurations, measure per-window contraction and the
    fitted decay rate of the configured observable; certify the signal too.
    """
    if cfg.sweep is None:
        raise ConfigError("sweep", "verify requires a sweep block")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    kind = "eta" if cfg.observable == "diameter" else "lambda2"
    persistence, persistence_path = _certify_kind(cfg, kind, out)

    # every start off consensus, normalised to diameter 1, in one batched run
    starts = _draw_initials(cfg)
    at_consensus = dynamics.diameters(starts) <= 0.0
    runs = [{"run": idx, "consensus_at_t0": bool(flag)}
            for idx, flag in enumerate(at_consensus)]
    live = np.flatnonzero(~at_consensus)
    trajs = ()
    if live.size:
        live_starts = starts[live]
        trajs = dynamics.integrate_batch(
            dynamics.dilate(live_starts, live_starts), cfg.signal, cfg.kernel,
            cfg.t_end, cfg.dt, cfg.sample_every, forced_times=_window_grid(cfg))
    contraction_dicts, fit_dicts, traj_files = [], [], []
    for idx, traj in zip(live, trajs):
        if "trajectories" in cfg.emit:
            path = out / f"trajectory_{idx:03d}.csv"
            traj.to_csv(path)
            traj_files.append(str(path))

        series = traj.diameters if cfg.observable == "diameter" else traj.variances
        contraction = analysis.window_contraction(traj, cfg.window.tau,
                                                  cfg.observable)
        keep = series > SERIES_FLOOR_REL * series[0]
        fit = analysis.fit_exponential(traj.times[keep], series[keep])
        runs[idx].update(
            kappa_hat=contraction.kappa_hat,
            all_strict=contraction.all_strict,
            gamma=fit.gamma,
            alpha=fit.alpha,
            rms_log_residual=fit.rms_log_residual,
        )
        contraction_dicts.append(
            analysis.analysis_report_json(cfg.observable, contraction, fit))
        fit_dicts.append(fit.to_json_dict())

    contraction_path = out / "analysis_reports.json"
    _write_json(contraction_path, contraction_dicts)
    fits_path = out / "decay_fits.json"
    _write_json(fits_path, fit_dicts)

    live_runs = [runs[idx] for idx in live]
    worst_kappa = max((r["kappa_hat"] for r in live_runs), default=0.0)
    worst_gamma = min((r["gamma"] for r in live_runs), default=None)
    all_strict = all(r["all_strict"] for r in live_runs)
    checks = [
        _check("persistence", persistence.infimum_value, cfg.window.mu,
               persistence.passes),
        _check("all_strict_every_run", all_strict, True, all_strict),
        _check("worst_kappa_hat", worst_kappa, 1.0, worst_kappa < 1.0),
        _check("every_gamma_positive", worst_gamma, 0.0,
               worst_gamma is None or worst_gamma > 0.0),
    ]
    summary = {
        "command": "verify",
        "observable": cfg.observable,
        "checks": checks,
        "persistence_infimum": persistence.infimum_value,
        "worst_kappa_hat": worst_kappa,
        "worst_gamma": worst_gamma,
        "gamma_from_kappa": (-math.log(worst_kappa) / cfg.window.tau
                             if 0.0 < worst_kappa < 1.0 else None),
        "runs": runs,
        "files": [persistence_path.name, contraction_path.name, fits_path.name],
    }
    summary_path = out / "summary.json"
    _write_json(summary_path, summary)
    return OutputBundle(traj_files, str(persistence_path), str(contraction_path),
                        str(fits_path), str(summary_path), summary)


COMMANDS = {"simulate": cmd_simulate, "certify": cmd_certify, "verify": cmd_verify}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="consensus-lab",
        description="Simulate, certify and verify consensus dynamics on "
                    "switching interaction graphs.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--dt", type=float, help="override run.dt")
    parser.add_argument("--seed", type=int, help="override sweep.seed")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            data = json.load(fh)
        if args.out is not None:
            data.setdefault("outputs", {})["dir"] = args.out
        if args.dt is not None:
            data.setdefault("run", {})["dt"] = args.dt
        if args.seed is not None and "sweep" in data:
            data["sweep"]["seed"] = args.seed
        cfg = parse_config(data)
        bundle = COMMANDS[args.command](cfg)
    except (ConsensusLabError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for check in bundle.summary["checks"]:
        print(f"{check['name']}: {check['verdict']} "
              f"(value={check['value']}, threshold={check['threshold']})")
    return bundle.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
