"""Pipeline benchmark for consensuslab: verify, certify and simulate.

    python3 pipebench/run.py --workload <name> --seed <n> [--seconds <s>] --trace <0|1>

Run it from the root of a checkout: it imports consensuslab from `src/`
there and nowhere else, and exits with code 2 when that is missing.  Each
workload runs in one child process, with BLAS pinned to one thread; the
seed only shapes the generated config the program receives.  `--seconds`
defaults to the `run_seconds` of BENCHMARK.json.

With `--trace 0` it reports the end-to-end metrics: `wall_s` (median
seconds per warm pipeline call), `setup_s` (median over fresh interpreters
of importing consensuslab and parsing the config), both in reference
seconds of `calibration.py`, and `peak_rss_mb` (peak RSS of the workload's
process).  The raw seconds and the calibration task's seconds are printed
too, with quartiles and sample counts.  With `--trace 1` it reports the
per-layer metrics of `tracing.py`.
`failed`/`attempted` count calls that raised, exited nonzero or failed
`checks.py`.  The last line of output is one JSON object.
"""
import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibration
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".pipebench_work"
SETUP_PROBES = 9
BLAS_THREADS = 1
DEADLINE_S = 170.0
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                 OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS))


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed call)."""


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
    }


def _child(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                              text=True, env=CHILD_ENV, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{Path(str(args[0])).name} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(args[0])).name} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()[-1]


def _quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q3


def run_workload(name, seed, seconds, trace, units, deadline):
    """(report lines, result) of one workload run; `units` maps each metric
    BENCHMARK.json declares for this kind of run to its unit."""
    work = WORK / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(workloads.make_config(name, seed), indent=2) + "\n")

    setup, setup_cal = [], []
    if not trace:
        setup_cal.append(calibration.task_s())
        for _ in range(SETUP_PROBES):
            setup.append(float(_child([HERE / "setup_probe.py", SRC, config], deadline)))
            setup_cal.append(calibration.task_s())
    out = json.loads(_child([HERE / "worker.py", SRC, work, name, seed, seconds, trace],
                            deadline))
    out.update(setup_s=setup, setup_cal_s=setup_cal)
    (work / "result.json").write_text(json.dumps(out) + "\n")
    for stale in ("first", "call"):
        shutil.rmtree(work / stale, ignore_errors=True)

    lines = [f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}"]
    lines += [f"  problem: {p}" for p in out["problems"]]
    if trace:
        metrics = _declared(units, out["layer"])
        lines += [f"  {key:<48} {m['value']:>14.6g} {m['unit']}"
                  for key, m in metrics.items()]
        lines.append(f"  spans written to {work.relative_to(ROOT) / 'spans.json'}")
    else:
        samples = {
            "wall_s": calibration.scaled(out["wall_s"], out["cal_s"]),
            "setup_s": calibration.scaled(setup, setup_cal),
            "peak_rss_mb": [out["peak_rss_mb"]],
        }
        metrics = _declared(units, {k: statistics.median(v) for k, v in samples.items()})
        # printed but not bounded: the raw seconds and the calibration task's
        samples.update(raw_wall_s=out["wall_s"], raw_setup_s=setup,
                       cal_s=out["cal_s"] + setup_cal)
        lines.append(f"  {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} unit  samples")
        for key, values in samples.items():
            unit = "MB" if key == "peak_rss_mb" else "s"
            q1, q3 = _quartiles(values)
            lines.append(f"  {key:<12} {statistics.median(values):>10.4f} {q1:>10.4f} "
                         f"{q3:>10.4f} {unit:<5} {len(values)}")
    lines.append(f"  {'failed_frac':<12} {out['failed'] / out['attempted']:>10.4f} "
                 f"({out['failed']} of {out['attempted']} calls)")
    result = {"correct": out["failed"] == 0 and not out["problems"],
              "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}
    return lines, result


def _declared(units, values):
    """The metrics BENCHMARK.json declares, with their units, in its order."""
    if set(units) != set(values):
        raise BenchError(f"measured {sorted(values)}, but BENCHMARK.json "
                         f"declares {sorted(units)}")
    return {key: {"value": values[key], "unit": unit} for key, unit in units.items()}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.PIPELINES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "consensuslab" / "__init__.py").is_file():
        print(f"error: no consensuslab sources under {SRC}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    print("environment " + json.dumps(environment()))
    try:
        lines, result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                     units, time.monotonic() + DEADLINE_S)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
