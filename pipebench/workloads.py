"""Benchmark workloads: which pipeline runs on which generated config.

Each workload is a config template in `configs/` plus the seed-dependent part
the benchmark fills in.  The program only ever sees the finished config.
"""
import copy
import json
from pathlib import Path

import numpy as np

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# workload -> the cli pipeline function it calls; BENCHMARK.json says why
PIPELINES = {
    "sweep_cs_n5": "cmd_verify",
    "certify_pairs_n32": "cmd_certify",
    "simulate_linear_n128": "cmd_simulate",
}


def template(name):
    with open(CONFIG_DIR / f"{name}.json") as fh:
        return json.load(fh)


def make_config(name, seed):
    """The config the program receives for `name` at benchmark seed `seed`."""
    data = copy.deepcopy(template(name))
    if name == "sweep_cs_n5":
        data["sweep"]["seed"] = int(seed)
    elif name == "simulate_linear_n128":
        system = data["system"]
        rng = np.random.default_rng(int(seed))
        data["initial"] = rng.normal(size=(system["n"], system["d"])).tolist()
    return data
