"""Record reference.json: the numeric output fields `checks.py` compares.

    python3 pipebench/record_reference.py

Runs each workload's pipeline for seeds 0 .. 31 (certify ignores the
seed and is recorded once, as "any"), checks each output against the
oracles of `checks.py`, and records `checks.reference_fields`.  Run it at
the commit whose outputs are the reference; later commits are compared
against those values within a relative 1e-9.
"""
import json
import shutil
import sys
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 32


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from consensuslab import cli

    out = ROOT / ".pipebench_work" / "reference"
    table = {}
    for name, pipeline in workloads.PIPELINES.items():
        seeds = ["any"] if name == "certify_pairs_n32" else range(SEEDS)
        table[name] = {}
        for seed in seeds:
            shutil.rmtree(out, ignore_errors=True)
            data = workloads.make_config(name, 0 if seed == "any" else seed)
            data["outputs"]["dir"] = str(out)
            bundle = getattr(cli, pipeline)(cli.parse_config(data))
            problems = checks.check(name, 0 if seed == "any" else seed, data, out,
                                    reference=False)
            if bundle.exit_code != 0 or problems:
                sys.exit(f"{name} seed {seed}: exit {bundle.exit_code}, {problems}")
            table[name][str(seed)] = checks.reference_fields(name, out)
            print(name, seed, table[name][str(seed)], flush=True)
    shutil.rmtree(out, ignore_errors=True)
    checks.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
