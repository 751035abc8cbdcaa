#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the root of a source checkout:

    python3 perfbench/selftest.py

Checks, in about a minute:

* ``BENCHMARK.json`` and ``layers.json`` name the same per-layer metrics;
* every workload, run at minimal length untraced and traced, passes its
  gate and emits every metric of its mode with its unit;
* the traced self times partition the traced op time, and the per-layer
  counts repeat exactly in a second traced run at the same seed;
* a planted wrong result (a naive trajectory pushed through the covariant
  gate) and an op that raises are both counted as failures, and the gates
  of the CLI's cross-check and scan results refuse wrong payloads;
* without ``src/`` next to it the benchmark exits non-zero without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 0
SECONDS = "1"
COUNT_SUFFIXES = (".calls", ".substeps", ".bytes_written")


def run_bench(cwd: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", SECONDS, "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)
    return out.returncode, out.stdout.splitlines()


def check(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_output(workload: str, trace: int, expected: dict) -> dict:
    code, lines = run_bench(ROOT, workload, trace)
    check(code == 0, f"{workload} trace {trace} exited with {code}")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace {trace}: {result['failed']} of {result['attempted']} ops failed")
    metrics = result["metrics"]
    check(set(metrics) == set(expected),
          f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
          f"{sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        check(metrics[name]["unit"] == unit, f"{workload} {name}: unit {metrics[name]['unit']}")
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{workload} {name}: value {value!r}")
        check(any(line.startswith(f"metric {workload} {name} = ") and line.endswith(f" {unit}")
                  for line in lines), f"{workload} {name}: no printed line with its unit")
    if trace == 0:
        check(any(" fail_ratio " in line for line in lines), f"{workload}: no fail_ratio line")
        check(any("op_ms.tail is p" in line for line in lines), f"{workload}: no tail note")
    return {name: m["value"] for name, m in metrics.items()}


def check_partition(workload: str, values: dict):
    parts = sum(v for k, v in values.items()
                if k.endswith(".self_ms") and k != "models.scenario_random.self_ms")
    total = values["trace.op_ms"]
    check(math.isclose(parts, total, rel_tol=1e-9),
          f"{workload}: self times sum to {parts} ms, traced op time is {total} ms")


def check_planted_failures():
    sys.path.insert(0, str(BENCH))
    import run

    run.import_library()
    import workloads
    from cryptoherm import evolution, models

    ham, fam, phi0, grid = models.scenario_falsification()
    naive = lambda: evolution.propagate_naive(ham, fam, phi0, None, grid, workloads.STEP)

    def explode():
        raise FloatingPointError("planted")

    class Planted:
        def rotation(self, r):
            return [
                workloads.Op("naive-through-covariant-gate", naive, workloads.covariant_gate),
                workloads.Op("raises", explode, workloads.covariant_gate),
            ]

    phase = run.run_phase(Planted(), 0.0)
    check(len(phase.latencies) == 2, f"planted phase ran {len(phase.latencies)} ops")
    check([label for label, _ in phase.failures] == ["naive-through-covariant-gate", "raises"],
          f"planted failures not counted: {phase.failures}")
    # the gates of the CLI's cross-check and scan results
    check(workloads.crosscheck_gate({"max_pairwise_deviation": 1e-3}) is not None,
          "a cross-check deviation of 1e-3 passed its gate")
    shared_scan = {"trials": 20, "compatible": 20, "incompatible": 0, "exceptional": 0}
    check(workloads.qs_gate("shared", shared_scan) is None, "a shared scan failed its gate")
    check(workloads.qs_gate("independent", shared_scan) is not None,
          "a scan of compatible families passed the independent sampler's gate")


def check_bare_directory():
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=ROOT / ".perfbench-work"))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run_bench(bare, "evolve", 0)
        check(code != 0, "benchmark exited 0 without the library")
        check(not any(line.startswith("{") for line in lines),
              "benchmark printed a result without the library")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH / "layers.json").read_text())["metrics"]
    check([(m["name"], m["unit"], m["better"]) for m in layers]
          == [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
          "BENCHMARK.json per_layer and layers.json disagree")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    check_planted_failures()
    print("selftest: planted failures counted")
    for workload in [w["name"] for w in spec["workloads"]]:
        check_output(workload, 0, end_to_end)
        first = check_output(workload, 1, per_layer)
        check_partition(workload, first)
        second = check_output(workload, 1, per_layer)
        for name, value in first.items():
            if name.endswith(COUNT_SUFFIXES):
                check(value == second[name],
                      f"{workload} {name}: {value} then {second[name]} at the same seed")
        print(f"selftest: {workload} ok")
    check_bare_directory()
    print("selftest: bare directory refused")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
