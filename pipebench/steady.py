"""Steadiness check: do two sets of runs of one commit agree within bounds?

    python3 pipebench/steady.py

Runs `run.py --trace 0` ten times per workload in each of two sets, each
run with its own seed (1 to 20) and the `run_seconds` of BENCHMARK.json,
interleaving the workloads so that slow drifts of the machine hit all of
them alike.  For every end-to-end metric and workload it prints each set's
median and spread (quartile distance over the median) and the second set's
median change against the first, and says whether they stay within the
metric's bound: both spreads at most the bound, and the medians apart by at
most the bound, in either direction.  The report is also written to
`.pipebench_work/steady.json`.  Exits 1 when a metric is not steady.
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2
FIRST_SEED = 1


def _run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} is not correct:\n{proc.stdout}")
    return {key: m["value"] for key, m in result["metrics"].items()}


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {(s, w): [] for s in range(SETS) for w in workloads}
    seed = FIRST_SEED
    for s in range(SETS):
        for _ in range(RUNS):
            for w in workloads:
                values[s, w].append(_run(w, seed, bench["run_seconds"]))
                print(f"set {s} {w} seed {seed}: {values[s, w][-1]}", flush=True)
            seed += 1

    report, steady = [], True
    for w in workloads:
        for name, bound in metrics.items():
            sets = [[run[name] for run in values[s, w]] for s in range(SETS)]
            medians = [statistics.median(v) for v in sets]
            spreads = [_spread(v) for v in sets]
            change = (medians[1] - medians[0]) / medians[0]
            ok = abs(change) <= bound and all(sp <= bound for sp in spreads)
            steady &= ok
            report.append({"workload": w, "metric": name, "bound": bound,
                           "medians": medians, "spreads": spreads,
                           "median_change": change, "within_bound": ok})
            print(f"{w:<22} {name:<12} bound {bound:.2f}  medians "
                  + " ".join(f"{m:.4g}" for m in medians) + "  spreads "
                  + " ".join(f"{sp:.3f}" for sp in spreads)
                  + f"  change {change:+.3f}" + ("  ok" if ok else "  NOT OK"))
    out = ROOT / ".pipebench_work" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"steady": steady, "report": report}, indent=2) + "\n")
    print(json.dumps({"steady": steady}))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
