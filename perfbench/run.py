#!/usr/bin/env python3
"""Benchmark of the cryptoherm library, end to end and layer by layer.

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and from nowhere else.

    python3 perfbench/run.py --workload evolve --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 50

Each workload is a closed loop with one client in one process, timed over
whole rotations of its ops (see ``workloads.py``).  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the same ops untraced and then
traced and reports the per-layer metrics (``layers.json``).  ``--workload
all`` runs every workload both ways, each in its own process.  The last
line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, the tail percentile, and a provenance record.

Seed 2008 is held out: do not use it while developing a change, and use it
to confirm the change's claim once the change is written.

BLAS threading is left at the default a user gets; the provenance record
states the thread counts in effect.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"

#: fresh processes timed for ``setup_s``; the median is reported
SETUP_SAMPLES = 5
#: ops that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


def import_library():
    """Import cryptoherm from this checkout's ``src/``; exit non-zero if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cryptoherm
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import cryptoherm from {src}: {exc}")
    if Path(cryptoherm.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: cryptoherm was imported from {cryptoherm.__file__}, not {src}")
    return cryptoherm


@dataclass
class Phase:
    latencies: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0


def run_phase(workload, seconds: float, tracer=None) -> Phase:
    """Run whole rotations until ``seconds`` have passed.

    Latency covers the library call only; the output check runs after it,
    inside the phase.  With a tracer, each op is one root span.
    """
    phase = Phase()
    t0, c0 = perf_counter(), process_time()
    rotation = 0
    while True:
        for op in workload.rotation(rotation):
            if tracer is not None:
                tracer.begin_op(len(phase.latencies))
            start = perf_counter()
            try:
                result = op.call()
                error = None
            except Exception as exc:  # an op that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            phase.latencies.append(elapsed)
            phase.labels.append(op.label)
            if error is not None:
                phase.failures.append((op.label, error))
        rotation += 1
        if perf_counter() - t0 >= seconds:
            break
    phase.wall = perf_counter() - t0
    phase.cpu = process_time() - c0
    return phase


def tail(latencies) -> tuple[float, float, int]:
    """(value, percentile, ops beyond it) of the highest percentile with
    ``TAIL_BEYOND`` ops beyond it; the maximum when there are too few ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def measure_setup(workload: str, seed: int) -> float:
    """Median time from spawning a fresh process to its inputs being ready."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.stdout.read()
            try:
                code = child.wait(timeout=120)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
                raise
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with exit code {code}")
        samples.append(elapsed)
    return statistics.median(samples)


#: (thread-count, build-string) symbols of the OpenBLAS builds numpy and scipy ship
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
    ("openblas_get_num_threads", "openblas_get_config"),
)


def blas_threads() -> dict:
    """Thread count and build of every OpenBLAS loaded into this process."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for threads_name, config_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, threads_name) and hasattr(lib, config_name):
                config = getattr(lib, config_name)
                config.restype = ctypes.c_char_p
                found[Path(path).name] = {
                    "threads": getattr(lib, threads_name)(),
                    "config": config().decode(),
                }
                break
    return found


def provenance(workload) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cryptoherm").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "inputs": workload.sizes,
    }


def end_to_end(phase: Phase, setup_s: float) -> tuple[dict, list[str]]:
    n = len(phase.latencies)
    tail_s, pct, beyond = tail(phase.latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / phase.wall, "1/s"),
        "op_ms.p50": (statistics.median(phase.latencies) * 1e3, "ms"),
        "op_ms.tail": (tail_s * 1e3, "ms"),
        "cpu_ms_per_op": (phase.cpu / n * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"op_ms.tail is p{pct:.2f} over {n} ops ({beyond} beyond it)",
        f"fail_ratio {len(phase.failures) / n!r} ratio ({len(phase.failures)}/{n})",
    ]
    by_label = {}
    for label, latency in zip(phase.labels, phase.latencies):
        by_label.setdefault(label, []).append(latency)
    for label, values in by_label.items():
        notes.append(f"op {label}: {len(values)} ops, median "
                     f"{statistics.median(values) * 1e3:.3f} ms")
    return metrics, notes


def layer_metrics() -> list[dict]:
    return json.loads((BENCH / "layers.json").read_text())["metrics"]


def per_layer(untraced: Phase, traced: Phase, tracer, setup_tracer) -> dict:
    """Every metric of ``layers.json``: ``<key>.self_ms`` and ``<key>.calls``
    are per-op means over the traced ops' spans of that key; the rest are
    counters and ratios."""
    n = len(traced.latencies)
    self_s, calls = tracer.totals()
    setup_self, _ = setup_tracer.totals(in_ops=False)
    counters = tracer.counters
    trials = counters["quasistationary.trials"]
    special = {
        "models.scenario_random.self_ms": setup_self["models.scenario_random"] * 1e3,
        "evolution.substeps": counters["evolution.substeps"] / n,
        "quasistationary.decided_ratio":
            counters["quasistationary.decided"] / trials if trials else 0.0,
        "cli.bytes_written": counters["cli.bytes_written"] / n,
        "trace.op_ms": tracer.op_wall_seconds() * 1e3 / n,
        "trace.overhead_ratio":
            (n / traced.wall) / (len(untraced.latencies) / untraced.wall),
    }
    metrics = {}
    for spec in layer_metrics():
        name = spec["name"]
        key, kind = name.rsplit(".", 1)
        if name in special:
            value = special[name]
        elif kind == "self_ms":
            value = self_s[key] * 1e3 / n
        elif kind == "calls":
            value = calls[key] / n
        else:
            raise KeyError(f"no rule computes the per-layer metric {name}")
        metrics[name] = (value, spec["unit"])
    return metrics


def emit(workload: str, metrics: dict, notes, failures, attempted):
    for name, (value, unit) in metrics.items():
        print(f"metric {workload} {name} = {value!r} {unit}")
    for note in notes:
        print(f"note {workload} {note}")
    for label, error in failures[:20]:
        print(f"failed {workload} {label}: {error}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def run_workload(args, workloads) -> int:
    import tracing

    factory = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.setup_only:
            factory(args.seed, workdir)
            print("ready", flush=True)
            return 0

        setup_s = measure_setup(args.workload, args.seed) if args.trace == 0 else None
        workload = factory(args.seed, workdir)
        # a reference rotation runs untimed; its ops are checked and counted
        reference = Phase()
        if args.workload in workloads.NEEDS_REFERENCE_ROTATION:
            reference = run_phase(workload, 0.0)
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
              f"trace {args.trace}")
        print("provenance " + json.dumps(provenance(workload), sort_keys=True))

        if args.trace == 0:
            phase = run_phase(workload, args.seconds)
            metrics, notes = end_to_end(phase, setup_s)
            emit(args.workload, metrics, notes, reference.failures + phase.failures,
                 len(reference.latencies) + len(phase.latencies))
            return 0

        setup_tracer = tracing.Tracer()
        with setup_tracer.installed():
            factory(args.seed, Path(tempfile.mkdtemp(dir=workdir)))
        untraced = run_phase(workload, args.seconds / 2)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_phase(workload, args.seconds / 2, tracer)
        metrics = per_layer(untraced, traced, tracer, setup_tracer)
        trace_file = WORK / f"trace-{args.workload}.npz"
        tracer.save(trace_file, workload=args.workload, seed=args.seed)
        notes = [f"spans of {len(traced.latencies)} traced ops written to {trace_file}"]
        phases = (reference, untraced, traced)
        emit(args.workload, metrics, notes, [f for p in phases for f in p.failures],
             sum(len(p.latencies) for p in phases))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args, names) -> int:
    """Every workload untraced, then traced, each in a process of its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.splitlines()
            for line in lines[:-1]:
                print(line)
            if out.returncode != 0 or not lines:
                print(f"perfbench: {workload} trace {trace} exited with {out.returncode}",
                      file=sys.stderr)
                return out.returncode or 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    import_library()
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be all or one of {', '.join(workloads.WORKLOADS)}")
    return run_workload(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
