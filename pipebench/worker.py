"""One benchmark run of one workload, in its own process.

    python3 worker.py <src dir> <work dir> <workload> <seed> <seconds> <trace>

Reads `<work dir>/config.json`, makes one untimed warm-up call, then times
pipeline calls (parse_config plus the cli pipeline) for `seconds`, each
bracketed by runs of the calibration task.  With trace 1 it alternates
untraced and traced calls and ends with one tracemalloc pass.  Every call's
output must be byte-identical to the warm-up's, which `checks.check` then
verifies.  Prints one JSON line.
"""
import dataclasses
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import calibration
import checks
import tracing
import workloads


@dataclasses.dataclass
class Runner:
    cli: object
    data: dict
    pipeline: str
    work: Path
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    first_digest: dict | None = None

    def call(self, name):
        """One parse_config + pipeline call into `work/name`; its seconds."""
        out = self.work / name
        shutil.rmtree(out, ignore_errors=True)
        data = dict(self.data, outputs=dict(self.data.get("outputs", {}), dir=str(out)))
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            bundle = getattr(self.cli, self.pipeline)(self.cli.parse_config(data))
        except Exception:  # a failing call is counted and the run goes on
            elapsed = time.perf_counter() - start
            self._fail(traceback.format_exc(limit=3))
            return elapsed
        elapsed = time.perf_counter() - start
        if bundle.exit_code != 0:
            self._fail(f"exit code {bundle.exit_code}")
        elif name == "first":
            self.first_digest = _digest(out)
        elif _digest(out) != self.first_digest:
            self._fail(f"{name} output differs from the checked first call's")
        return elapsed

    def _fail(self, problem):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)


def _digest(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*"))}


def _bytes_written(out):
    return sum(p.stat().st_size for p in out.glob("*"))


def _layer_metrics(tracer, traced_ids, bytes_written, warnings_seen):
    """Per-layer metrics: medians over the traced calls of per-call values."""
    per_call = []
    for cid in traced_ids:
        totals = tracer.layer_totals(cid)
        counts = tracer.counts[cid]
        row = {}
        for span, (calls, incl, self_s) in totals.items():
            row[f"{span}.calls"] = calls
            row[f"{span}.s"] = incl
            row[f"{span}.self_s"] = self_s
        row["dynamics.samples"] = counts["dynamics.samples"]
        row["signals.checked_starts"] = counts["signals.checked_starts"]
        rk4_s = totals["kernels.rk4_run"][1]
        row["dynamics.steps_per_s"] = counts["dynamics.steps"] / rk4_s if rk4_s else 0.0
        certify_s = totals["signals.certify_eta"][1] + totals["signals.certify_lambda2"][1]
        row["signals.starts_per_s"] = (counts["signals.checked_starts"] / certify_s
                                       if certify_s else 0.0)
        per_call.append(row)
    metrics = {key: statistics.median(row[key] for row in per_call) for key in per_call[0]}
    metrics["cli.bytes_written"] = statistics.median(bytes_written)
    metrics["runtime_warnings"] = max(warnings_seen)
    return metrics


def run(runner, seconds, trace, workload):
    runner.call("first")
    result = {"wall_s": [], "cal_s": [], "untraced_s": [], "traced_s": []}
    start = time.perf_counter()
    if not trace:
        while not result["wall_s"] or time.perf_counter() - start < seconds:
            result["cal_s"].append(calibration.task_s())
            result["wall_s"].append(runner.call("call"))
        result["cal_s"].append(calibration.task_s())
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return result

    tracer = tracing.Tracer(workload)
    bytes_written, warnings_seen, traced_ids = [], [], []
    while not traced_ids or time.perf_counter() - start < seconds:
        result["untraced_s"].append(runner.call("call"))
        tracer.call_id += 1
        traced_ids.append(tracer.call_id)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with tracing.installed(tracer.wrapper_for):
                result["traced_s"].append(runner.call("call"))
        warnings_seen.append(len(caught))
        bytes_written.append(_bytes_written(runner.work / "call"))

    peaks = tracing.AllocPeaks()
    with tracing.installed(peaks.wrapper_for):
        runner.call("call")

    layer = _layer_metrics(tracer, traced_ids, bytes_written, warnings_seen)
    for span, peak in peaks.peak_mb.items():
        layer[f"{span}.alloc_peak_mb"] = peak
    layer["tracing_overhead_s"] = (statistics.median(result["traced_s"])
                                   - statistics.median(result["untraced_s"]))
    result["layer"] = layer
    with open(runner.work / "spans.json", "w") as fh:
        json.dump(tracer.to_json(), fh)
    return result


def main(argv):
    src, work, workload, seed, seconds, trace = argv
    work = Path(work)
    sys.path.insert(0, src)
    from consensuslab import cli
    if Path(src).resolve() not in Path(cli.__file__).resolve().parents:
        sys.exit(f"consensuslab was imported from {cli.__file__}, not {src}")

    with open(work / "config.json") as fh:
        data = json.load(fh)
    runner = Runner(cli, data, workloads.PIPELINES[workload], work)
    result = run(runner, float(seconds), trace == "1", workload)
    if runner.first_digest is not None:
        try:
            found = checks.check(workload, int(seed), data, work / "first")
        except Exception:  # a malformed output is a failed check, not a crash
            found = [traceback.format_exc(limit=3)]
        if found:  # every call wrote these same bytes
            runner.failed = runner.attempted
            runner.problems += found
    result.update(attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
