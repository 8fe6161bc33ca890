"""Experiment orchestration: `consensus-lab simulate|certify|verify`.

Parses a JSON experiment config, runs the requested pipeline, writes CSV
trajectories and JSON reports into the output directory and returns an
OutputBundle.  Exit codes: 0 when every check passes, 2 when a check fails,
1 on input or domain errors.

`dynamics`, `analysis` and the float text of `_text` are imported by the
commands that use them, on first use, so parsing a config and certifying
load none of them.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import signals
from ._kernels import Constant, CuckerSmale, Record
from .errors import ConfigError, ConsensusLabError
from .signals import PiecewiseConstantSignal, Window

SERIES_FLOOR_REL = 1e-14

# Most points a config's step grid may hold, counted before any is built:
# ceil(t_end/dt) uniform steps, floor(t_end/tau) + 1 window ends and the
# signal's piece starts in [0, t_end).  A mistyped dt, a tiny tau or a dense
# signal must fail here instead of exhausting memory or stalling; the record
# is streamed and not bounded by it.  The reference configs count 1,061-4,253.
MAX_GRID_STEPS = 1_000_000
# Largest dense (pieces, n, n) array a generated signal's pieces may make, in
# floats (256 MB).  The dense arrays built from pieces (the blinking pairs'
# stack, the prefix sums a certify caches) are allocated at once, so an
# oversized system.n must fail here instead of raising MemoryError or
# exhausting memory; a rotating star (whose own stack is a view of one hub
# pattern, but whose prefix sums are dense) fits up to n = 322, blinking pairs
# up to n = 256, or n = 322 at duty 1.
MAX_SIGNAL_FLOATS = 1 << 25
# Most floats a sweep's starts and kept series may hold, counted before any
# start is drawn: B * (n*d + grid points) for B starts, each keeping at most
# one value a grid point.  The starts are drawn one at a time and held whole,
# so an oversized sweep.num_initial or system.d must fail here instead of
# drawing for hours or exhausting memory.  The reference sweep counts
# 32 * 1,071.
MAX_SWEEP_FLOATS = 1 << 25


class ExperimentConfig(Record):
    """A validated config, as `parse_config` returns it."""

    _fields = ("n", "d", "kernel", "signal", "window", "t_end", "dt",
               "sample_every", "out_dir", "emit", "initial", "sweep",
               "certify_kinds", "observable")

    _defaults = {"initial": None, "sweep": None, "certify_kinds": None,
                 "observable": "diameter"}


class OutputBundle(Record):
    """The files a command wrote and its summary."""

    _fields = ("trajectory_files", "persistence_report", "contraction_report",
               "decay_fit", "summary_path", "summary")

    @property
    def exit_code(self) -> int:
        ok = all(c["verdict"] == "pass" for c in self.summary["checks"])
        return 0 if ok else 2


_REQUIRED = object()
_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _get(data, key, where, expect=None, default=_REQUIRED):
    """``data[key]``, named `where.key` (`key` when `where` is empty) in a
    ConfigError when it is missing or not an `expect`; passing a `default`
    makes it optional."""
    field = f"{where}.{key}" if where else key
    if key not in data:
        if default is _REQUIRED:
            raise ConfigError(field, "missing")
        return default
    value = data[key]
    if expect is not None and not isinstance(value, expect):
        raise ConfigError(field, f"expected {_TYPE_NAMES[expect]}")
    return value


def _number(cast, value, where):
    """``cast(value)``; a value it cannot convert is a ConfigError for `where`."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(where, str(exc)) from exc


def _integer(value):
    """``int(value)``, refusing a boolean and a float that it would truncate."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    number = int(value)
    if isinstance(value, float) and number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def default_dt(dwell_min: float, tau: float) -> float:
    """Step size resolving both switching and window structure."""
    return min(1e-2, dwell_min / 20.0, tau / 100.0)


def _positions(value, where, n, d):
    """`value` as (n, d) float positions (n numbers when d = 1), all finite
    and with a finite squared bounding-box diagonal: it bounds the squared
    distance of every pair, so no pair's square (nor the diameter) is inf."""
    pos = _number(lambda v: np.asarray(v, dtype=np.float64), value, where)
    if pos.ndim == 1:
        pos = pos[:, None]
    if pos.shape != (n, d):
        raise ConfigError(where, f"must be {n}x{d}, got {pos.shape}")
    if not np.all(np.isfinite(pos)):
        raise ConfigError(where, "positions must be finite")
    with np.errstate(over="ignore"):
        diagonal = np.square(np.ptp(pos, axis=0)).sum()
    if not np.isfinite(diagonal):
        raise ConfigError(where, "squared distances between positions overflow")
    return pos


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
    # the pieces a generator makes; an inline signal is as big as its JSON.
    # Blinking pairs show the identity after each matching unless duty is 1
    pieces = n if kind == "rotating_star" else 0
    if kind == "blinking_pairs":
        duty = _number(float, _get(data, "duty", "signal"), "signal")
        pieces = n - 1 if duty == 1 else 2 * (n - 1)
    if pieces * n * n > MAX_SIGNAL_FLOATS:
        raise ConfigError("system.n", f"a {kind} signal at n={n} holds "
                                      f"{pieces * n * n:.6g} floats of pieces, "
                                      f"over the cap of {MAX_SIGNAL_FLOATS}")
    try:
        if kind == "rotating_star":
            sig = signals.gen_rotating_star(
                n, float(_get(data, "dwell", "signal")))
        elif kind == "blinking_pairs":
            sig = signals.gen_blinking_pairs(
                n, float(_get(data, "dwell", "signal")), duty)
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
    system = _get(data, "system", "", dict)
    n = _number(_integer, _get(system, "n", "system"), "system.n")
    d = _number(_integer, _get(system, "d", "system"), "system.d")
    if n < 1:
        raise ConfigError("system.n", "must be >= 1")
    if d < 1:
        raise ConfigError("system.d", "must be >= 1")
    kernel = _parse_kernel(_get(system, "kernel", "system", dict))
    sig = _parse_signal(_get(data, "signal", "", dict), n)

    window_data = _get(data, "window", "", dict)
    try:
        window = Window(float(_get(window_data, "tau", "window")),
                        float(_get(window_data, "mu", "window")))
    except (TypeError, ValueError) as exc:
        raise ConfigError("window", str(exc)) from exc

    run = _get(data, "run", "", dict)
    t_end = _number(float, _get(run, "t_end", "run"), "run.t_end")
    if not 0 < t_end < np.inf:
        raise ConfigError("run.t_end", "must be finite and > 0")
    if window.tau > t_end:
        raise ConfigError("window.tau", f"tau={window.tau} exceeds run.t_end={t_end}")
    dt = run.get("dt")
    if dt is None:
        dwell_min = float(np.diff(sig.breakpoints).min())
        dt = default_dt(dwell_min, window.tau)
    dt = _number(float, dt, "run.dt")
    if not 0 < dt <= t_end:
        raise ConfigError("run.dt", f"must be > 0 and at most run.t_end={t_end}")
    laps = np.ceil(t_end / sig.period) if sig.mode == signals.PERIODIC else 1
    points = {"run.dt": np.ceil(t_end / dt), "signal": len(sig.pieces) * laps,
              "window.tau": np.floor(t_end / window.tau) + 1}
    grid = sum(points.values())
    if grid > MAX_GRID_STEPS:
        raise ConfigError(max(points, key=points.get), f"the step grid would "
                          f"hold {grid:.6g} points, over the cap of "
                          f"{MAX_GRID_STEPS}")
    sample_every = _number(_integer, run.get("sample_every", 1),
                           "run.sample_every")
    if sample_every < 1:
        raise ConfigError("run.sample_every", "must be >= 1")

    initial = data.get("initial")
    if initial is not None:
        initial = _positions(initial, "initial", n, d)

    sweep = _get(data, "sweep", "", dict, default=None)
    if sweep is not None:
        sweep = dict(sweep)
        sweep.setdefault("num_initial", 32)
        sweep.setdefault("init_set", "unit_ball")
        sweep.setdefault("seed", 0)
        num_initial = _number(_integer, sweep["num_initial"], "sweep.num_initial")
        if num_initial < 1:
            raise ConfigError("sweep.num_initial", "must be >= 1")
        if not 0 <= _number(_integer, sweep["seed"], "sweep.seed") < 2**128:
            raise ConfigError("sweep.seed", "must be in [0, 2**128)")
        init_set = sweep["init_set"]
        listed = isinstance(init_set, list) and init_set
        if not listed and init_set != "unit_ball":
            raise ConfigError("sweep.init_set", "must be 'unit_ball' or a "
                                                "non-empty list of starts")
        starts = len(init_set) if listed else num_initial
        per_start = n * d + int(grid)  # an int: d may be past any float
        if starts * per_start > MAX_SWEEP_FLOATS:
            field = ("system.d" if per_start > MAX_SWEEP_FLOATS
                     else "sweep.init_set" if listed else "sweep.num_initial")
            raise ConfigError(field, f"{starts} starts of {n}x{d} positions, "
                              f"each with a series of {int(grid)} points, "
                              f"hold over the cap of {MAX_SWEEP_FLOATS} floats")
        if listed:
            sweep["init_set"] = np.stack([_positions(p, "sweep.init_set", n, d)
                                          for p in init_set])

    outputs = _get(data, "outputs", "", dict, default={})
    emit = tuple(_get(outputs, "emit", "outputs", list, default=[]))
    for entry in emit:
        if entry != "trajectories":
            raise ConfigError("outputs.emit", f"unknown entry {entry!r}")
    certify = _get(data, "certify", "", dict, default={})
    certify_kinds = _get(certify, "kinds", "certify", list, default=None)
    if certify_kinds is not None:
        certify_kinds = tuple(certify_kinds)
        if not certify_kinds:
            raise ConfigError("certify.kinds", "must name at least one kind")
        for kind in certify_kinds:
            if not (isinstance(kind, str) and kind in signals._KINDS):
                raise ConfigError("certify.kinds", f"unknown kind {kind!r}")

    verify = _get(data, "verify", "", dict, default={})
    observable = verify.get("observable", "diameter")
    if observable not in ("diameter", "variance"):
        raise ConfigError("verify.observable", "must be 'diameter' or 'variance'")

    return ExperimentConfig(
        n=n, d=d, kernel=kernel, signal=sig, window=window,
        t_end=t_end, dt=dt, sample_every=sample_every,
        out_dir=_get(outputs, "dir", "outputs", str, default="."),
        emit=emit,
        initial=initial, sweep=sweep, certify_kinds=certify_kinds,
        observable=observable,
    )


# every JSON file is written as json.dump(payload, fh, **_JSON) writes it
_JSON = {"indent": 2, "sort_keys": True, "allow_nan": False}
_ENCODER = json.JSONEncoder(**_JSON)


def _json_text(obj, pad=""):
    """The text of `obj` as json.dumps(obj, **_JSON) renders it nested at
    indent `pad`, in pieces; a 1-D float64 array renders as its list.

    `json` renders with `indent` through its pure-Python encoder, one call
    per float.  Here such an array is one `_text.format_repr` call and any
    other value one `encode` call.  A list, tuple or str-keyed dict whose
    `encode` fails with TypeError (at an array) recurses, so the text of one
    array at a time is in memory.  Any other value that `encode` refuses
    raises its TypeError, as `json` does: an array of another dtype or
    shape, or one under a non-str key, among them.  `json` stays the
    authority for keys, escaping and sorting.
    """
    kind = type(obj)
    inner = pad + "  "
    if kind is np.ndarray and obj.ndim == 1 and obj.dtype == np.float64:
        if not np.isfinite(obj).all():
            raise ValueError("Out of range float values are not JSON compliant")
        from . import _text

        yield ("[\n" + inner + _text.format_repr(obj, ",\n" + inner) + "\n"
               + pad + "]") if obj.size else "[]"
        return
    try:
        text = _ENCODER.encode(obj)
    except TypeError:
        if not (kind in (list, tuple)
                or kind is dict and all(type(k) is str for k in obj)):
            raise
    else:
        # json's text has no raw newline inside a string, so every "\n" in
        # it starts a line that the nesting indents by `pad`
        yield text.replace("\n", "\n" + pad)
        return
    head = ("{" if kind is dict else "[") + "\n" + inner
    for key, value in sorted(obj.items()) if kind is dict else enumerate(obj):
        yield head + (_ENCODER.encode(key) + ": " if kind is dict else "")
        yield from _json_text(value, inner)
        head = ",\n" + inner
    yield "\n" + pad + ("}" if kind is dict else "]")


def _write_json(path: Path, payload) -> None:
    """Write the bytes that json.dump(payload, fh, **_JSON) and a final
    newline write, each 1-D float64 array as its list (see `_json_text`);
    NaN and inf raise ValueError."""
    with open(path, "w") as fh:
        fh.writelines(_json_text(payload))
        fh.write("\n")


def _check(name, value, threshold, ok):
    return {"name": name, "value": value, "threshold": threshold,
            "verdict": "pass" if ok else "fail"}


def _window_grid(cfg):
    """Multiples of tau up to t_end, clamped to it: forced sample times."""
    count = int(math.floor(cfg.t_end / cfg.window.tau + 1e-9))
    return np.minimum(cfg.window.tau * np.arange(count + 1), cfg.t_end)


def cmd_simulate(cfg: ExperimentConfig) -> OutputBundle:
    """Integrate one initial configuration; emit trajectory and observables.

    The recorded states are written and measured a block at a time, and
    never held whole."""
    from . import dynamics

    if cfg.initial is None:
        raise ConfigError("initial", "simulate requires an initial configuration")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = dynamics.Integration(cfg.initial[None], cfg.signal, cfg.kernel,
                               cfg.t_end, cfg.dt, cfg.sample_every,
                               forced_times=_window_grid(cfg))

    traj_path = out / "trajectory.csv"
    [diameters], [variances] = run.series(
        (dynamics.diameters, dynamics.variances), [traj_path])
    obs_path = out / "observables.csv"
    dynamics.write_csv(obs_path, ["t", "diameter", "variance"], run.times,
                       np.column_stack([diameters, variances]))

    growth = float(np.diff(diameters).max()) if len(run.times) > 1 else 0.0
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


def _write_persistence(out, kind, report):
    """Write `report` to `out/persistence_<kind>.json`; return the path."""
    path = out / f"persistence_{kind}.json"
    _write_json(path, report.to_json_dict())
    return path


def cmd_certify(cfg: ExperimentConfig) -> OutputBundle:
    """Certify window persistence of the signal; emit PersistenceReport JSON.
    Without `certify.kinds`, λ2 is certified only for a balanced signal."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kinds = cfg.certify_kinds
    if kinds is None:
        kinds = ("eta",) if cfg.signal.unbalanced_pieces else ("eta", "lambda2")
    kinds = list(dict.fromkeys(kinds))  # a kind listed twice is certified once
    # looked up at call time, so a wrapper installed on `signals` sees the call
    reports = signals.certify(cfg.signal, cfg.window, cfg.t_end, kinds)
    checks, paths = [], {}
    for kind, report in zip(kinds, reports):
        paths[kind] = str(_write_persistence(out, kind, report))
        checks.append(_check(f"{kind}_persistence", report.infimum_value,
                             cfg.window.mu, report.passes))
    summary = {"command": "certify", "checks": checks,
               "files": [Path(p).name for p in paths.values()]}
    summary_path = out / "summary.json"
    _write_json(summary_path, summary)
    return OutputBundle([], paths.get("eta") or paths.get("lambda2"), None, None,
                        str(summary_path), summary)


def _draw_initials(cfg):
    """The sweep's `num_initial` starts drawn from the unit ball, stacked:
    shape (runs, n, d)."""
    sweep = cfg.sweep
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
    from . import analysis, dynamics

    if cfg.sweep is None:
        raise ConfigError("sweep", "verify requires a sweep block")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    kind = "eta" if cfg.observable == "diameter" else "lambda2"
    [persistence] = signals.certify(cfg.signal, cfg.window, cfg.t_end, [kind])

    # every start off consensus, normalised to diameter 1, in one batched run
    starts = cfg.sweep["init_set"]  # an explicit list, stacked by parse_config
    if isinstance(starts, str):
        starts = _draw_initials(cfg)
    at_consensus = dynamics.diameters(starts) <= 0.0
    runs = [{"run": idx, "consensus_at_t0": bool(flag)}
            for idx, flag in enumerate(at_consensus)]
    live = np.flatnonzero(~at_consensus)
    series, traj_files = (), []
    if live.size:
        live_starts = starts[live]
        run = dynamics.Integration(
            dynamics.dilate(live_starts, live_starts), cfg.signal, cfg.kernel,
            cfg.t_end, cfg.dt, cfg.sample_every, forced_times=_window_grid(cfg))
        observe = (dynamics.diameters if cfg.observable == "diameter"
                   else dynamics.variances)
        if "trajectories" in cfg.emit:
            traj_files = [str(out / f"trajectory_{idx:03d}.csv") for idx in live]
        [series] = run.series([observe], traj_files)
    contraction_dicts, fit_dicts = [], []
    for idx, values in zip(live, series):
        contraction = analysis.series_contraction(run.times, values,
                                                  cfg.window.tau)
        keep = values > SERIES_FLOOR_REL * values[0]
        if keep.sum() < 3:
            for path in traj_files:  # a failed verify leaves no file
                Path(path).unlink()
            raise ConfigError("run.sample_every", f"run {idx} keeps {keep.sum()} "
                              "samples to fit, need at least 3")
        fit = analysis.fit_exponential(run.times[keep], values[keep])
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

    # written after every run is fitted, so a failed verify writes no report
    persistence_path = _write_persistence(out, kind, persistence)
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
        if not isinstance(data, dict):
            raise ConfigError("config", "expected an object")
        if args.out is not None:
            data["outputs"] = dict(_get(data, "outputs", "", dict, default={}),
                                   dir=args.out)
        if args.dt is not None:
            data["run"] = dict(_get(data, "run", "", dict, default={}), dt=args.dt)
        if args.seed is not None and "sweep" in data:
            data["sweep"] = dict(_get(data, "sweep", "", dict), seed=args.seed)
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
