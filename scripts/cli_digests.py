#!/usr/bin/env python3
"""SHA-256 of every file that one `cli-batch` rotation writes.

Builds the configurations of perfbench's `cli-batch` workload at one seed,
runs each command once through `cli.main` in a temporary directory, checks
each op as the workload does (exit code 0 and the command's own gate), and
prints a JSON object that maps `<op>/<file>` to the sha256 of the file's
bytes.  Two checkouts that print the same object write the same bytes:

    PYTHONPATH=src python scripts/cli_digests.py --seed 7
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import CliBatch  # noqa: E402


def digests(seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for op in CliBatch(seed, work).rotation(0):
            reason = op.check(op.call())
            if reason is not None:
                sys.exit(f"{op.label} failed: {reason}")
        return {
            path.relative_to(work / "out").as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((work / "out").glob("*/*"))
        }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    args = parser.parse_args()
    print(json.dumps(digests(args.seed), indent=2))


if __name__ == "__main__":
    main()
