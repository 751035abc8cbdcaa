#!/usr/bin/env python3
"""Peak memory and wall time of the CLI's trajectory commands at one length.

Writes an `evolve` (CSV) and a `naive-evolve` (JSON) configuration on
`scenario_random(dim, seed)` with `n_samples` points on [0, 1] and one RK4
substep per grid interval (the config `perfbench/workloads.py` builds for
`cli-batch`, read only, with its own step), runs each as
`python -m cryptoherm.cli` in a fresh process, and prints the process's peak
resident memory (MB as `perfbench/run.py` reports it: ru_maxrss / 1024) and
its wall time.  The trajectory row gives the size of Φ and Ψ together, which
every run holds.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from cryptoherm import scenario_random  # noqa: E402
from workloads import _trajectory_config  # noqa: E402

#: (command, output format) of each run, in the order they are printed
RUNS = (("evolve", "csv"), ("naive-evolve", "json"))


def _measure(config_path: Path, out: Path) -> tuple[float, float]:
    """Peak RSS in MB and wall time in s of one CLI process."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "cryptoherm.cli", "--config", str(config_path),
         "--out", str(out), "--quiet"]
    )
    # wait4 gives the resource use of this child alone
    _, status, usage = os.wait4(process.pid, 0)
    wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    if process.returncode != 0:
        sys.exit(f"{config_path.name} exited {process.returncode}")
    return usage.ru_maxrss / 1024.0, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=100001, help="grid n_samples (>= 2)")
    parser.add_argument("--dim", type=int, default=8, help="model dimension")
    parser.add_argument("--seed", type=int, default=0, help="scenario_random seed")
    parser.add_argument("--out", help="keep the written files under this directory")
    args = parser.parse_args()
    if args.samples < 2:
        parser.error("--samples must be at least 2")

    with tempfile.TemporaryDirectory() as scratch:
        root = Path(args.out) if args.out else Path(scratch)
        root.mkdir(parents=True, exist_ok=True)
        trajectory_mb = args.samples * 2 * args.dim * 16 / 2**20
        print(f"samples {args.samples}, dim {args.dim}, trajectory {trajectory_mb:.1f} MB")
        print(f"{'command':<14}{'format':<8}{'peak_rss_mb':>12}{'wall_s':>9}")
        for command, fmt in RUNS:
            config_path = Path(scratch) / f"{command}.json"
            config = {
                "command": command,
                **_trajectory_config(scenario_random(args.dim, args.seed), args.samples),
                "step": 1.0 / (args.samples - 1),
                "output": {"format": fmt},
            }
            config_path.write_text(json.dumps(config))
            rss, wall = _measure(config_path, root / command)
            print(f"{command:<14}{fmt:<8}{rss:>12.1f}{wall:>9.2f}")


if __name__ == "__main__":
    main()
