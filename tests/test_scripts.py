"""Smoke tests of the example scripts, run as a user runs them."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from cryptoherm import propagate_naive, propagate_pair, qs_scan, scenario_falsification

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_falsification_demo_prints_the_drift_table_and_the_demo_ratio():
    lines = _run("falsification_demo.py", "--step", "1e-2")
    rows = [line.split() for line in lines[1:12]]
    assert [row[0] for row in rows] == [f"{t:.2f}" for t in np.linspace(0.0, 1.0, 11)]
    assert all(abs(float(row[1]) - 1.0) < 1e-8 for row in rows)
    assert float(rows[-1][2]) > 2.0
    # the ratio of `cli demo`: naive metric drift over the worse covariant drift
    ham, fam, phi0, grid = scenario_falsification()
    covariant = propagate_pair(ham, fam, phi0, None, grid, 1e-2)
    naive = propagate_naive(ham, fam, phi0, None, grid, 1e-2)
    ratio = naive.max_metric_drift / max(covariant.max_norm_drift, covariant.max_metric_drift)
    assert lines[-1] == f"naive / covariant ratio : {ratio:.1e}"


def test_genericity_scan_prints_one_row_per_sampler():
    lines = _run("genericity_scan.py", "--trials", "3", "--dim", "3")
    assert len(lines) == 3
    for line, sampler in zip(lines, ("independent", "shared", "shared-degree2")):
        counts = [int(c) for c in re.findall(r"(?:compatible|exceptional)\s+(\d+)", line)]
        stats = qs_scan(sampler, 3, 3, 0)
        assert counts == [stats.compatible, stats.incompatible, stats.exceptional]
    assert lines[2].endswith("first violations: order 2: 3")


def test_writer_memory_runs_both_trajectory_commands(tmp_path):
    lines = _run("writer_memory.py", "--samples", "11", "--dim", "2", "--out", str(tmp_path))
    assert lines[0] == "samples 11, dim 2, trajectory 0.0 MB"
    rows = [line.split() for line in lines[2:]]
    assert [row[:2] for row in rows] == [["evolve", "csv"], ["naive-evolve", "json"]]
    assert all(float(row[2]) > 0.0 and float(row[3]) > 0.0 for row in rows)
    # one header and one row per sample; the files are the CLI's own
    assert len((tmp_path / "evolve" / "trajectory.csv").read_text().splitlines()) == 12
    naive = json.loads((tmp_path / "naive-evolve" / "naive_trajectory.json").read_text())
    assert len(naive["times"]) == 11


def test_cli_digests_names_every_written_file_and_repeats():
    first = _run("cli_digests.py", "--seed", "3")
    digests = json.loads("\n".join(first))
    assert len(digests) == 15
    assert {name.split("/")[0] for name in digests} == {
        "decompose", "metric", "hermitize", "qs-check", "evolve", "naive-evolve", "crosscheck",
        "qs-scan-shared", "qs-scan-independent", "qs-scan-shared-degree2", "demo",
    }
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in digests.values())
    assert _run("cli_digests.py", "--seed", "3") == first
