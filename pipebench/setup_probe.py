"""Set-up probe: seconds a fresh interpreter takes to import consensuslab and
parse one workload config.  Prints the seconds.

    python3 setup_probe.py <src dir> <config.json>
"""
import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, sys.argv[1])
from consensuslab import cli  # noqa: E402

with open(sys.argv[2]) as fh:
    cli.parse_config(json.load(fh))
elapsed = time.perf_counter() - START
if Path(sys.argv[1]).resolve() not in Path(cli.__file__).resolve().parents:
    sys.exit(f"consensuslab was imported from {cli.__file__}, not {sys.argv[1]}")
print(repr(elapsed))
