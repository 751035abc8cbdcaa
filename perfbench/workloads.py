"""The benchmark workloads: seeded inputs, the ops that run them, and the
gate that checks every op's output.

A workload is a closed loop with one client.  It hands out its ops in
rotations; every rotation runs the same op kinds in the same order, so a
phase made of whole rotations has a fixed op mix and fixed per-op counts.
Ops reach the library through module attributes looked up at call time, so
the wrappers installed by ``tracing.Tracer`` see every call.

Gate tolerances are the ones pinned in ``tests/test_acceptance.py``; the
criterion number is given next to each.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cryptoherm import cli, evolution, linalg, metric, models, quasistationary

STEP = 1e-3

COVARIANT_DRIFT_MAX = 1e-8  # criterion 04: overlap and metric-norm drift
CROSSCHECK_DEV_MAX = 1e-7  # criterion 05
NAIVE_DRIFT_MIN = 1e-3  # criterion 06: naive metric drift, absolute ...
NAIVE_OVER_COVARIANT_MIN = 100.0  # ... and relative to the covariant drift
PRODUCT_DRIFT_MAX = 1e-8  # criterion 07

#: trials per qs-scan op; at dim 8 this puts the three scans in the middle of
#: cli-batch's op latencies, so that its median op is a scan and not the
#: edge between two groups of ops
QS_TRIALS = 20

#: generic outcome of each sampler (criterion 08), as a test on the
#: ``ScanStats.as_flat_dict()`` payload the CLI writes
QS_GENERIC_CLASS = {
    "shared": ("all compatible", lambda p: p["compatible"] == p["trials"]),
    "independent": ("all incompatible", lambda p: p["incompatible"] == p["trials"]),
    "shared-degree2": (
        "all violating at order 2",
        lambda p: p.get("violation_order_2", 0) == p["trials"],
    ),
}


@dataclass
class Op:
    """One timed call into the library and the check of its result.

    ``check`` returns ``None`` when the result passes, else the reason.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def derived_seeds(seed: int, stream: tuple[int, ...], count: int) -> list[int]:
    """``count`` independent 32-bit seeds for one input stream of a workload."""
    state = np.random.SeedSequence([seed, *stream]).generate_state(count)
    return [int(s) for s in state]


def covariant_gate(traj) -> str | None:
    """Criterion 04: overlap and metric-norm drift of a covariant run."""
    drift = max(traj.max_norm_drift, traj.max_metric_drift)
    if not drift <= COVARIANT_DRIFT_MAX:
        return f"covariant drift {drift:.3e} > {COVARIANT_DRIFT_MAX:.0e}"
    return None


def naive_gate(traj, covariant_drift: float | None, floor: float) -> str | None:
    """Criterion 06: the naive rule must visibly break the metric norm.

    The absolute ``floor`` is the criterion's 1e-3 on the falsification
    model and 0 on random scenarios, where the size of the naive drift
    depends on the draw; the ratio to the covariant drift applies to all.
    """
    if covariant_drift is None:
        return "no covariant run of this scenario to compare with"
    drift = traj.max_metric_drift
    if not (drift >= floor and drift >= NAIVE_OVER_COVARIANT_MIN * covariant_drift):
        return (
            f"naive metric drift {drift:.3e} is not >= {floor:.0e} and "
            f">= {NAIVE_OVER_COVARIANT_MIN:.0f}x covariant {covariant_drift:.3e}"
        )
    return None


def operators_gate(ops) -> str | None:
    """Criterion 07: the product U_L·U_R stays constant."""
    if not ops.max_product_drift <= PRODUCT_DRIFT_MAX:
        return f"product drift {ops.max_product_drift:.3e} > {PRODUCT_DRIFT_MAX:.0e}"
    return None


def crosscheck_gate(payload: dict) -> str | None:
    """Criterion 05: the three pictures agree (``crosscheck.json``)."""
    dev = payload["max_pairwise_deviation"]
    if not dev <= CROSSCHECK_DEV_MAX:
        return f"picture deviation {dev:.3e} > {CROSSCHECK_DEV_MAX:.0e}"
    return None


def qs_gate(sampler: str, payload: dict) -> str | None:
    """Criterion 08: every trial lands in its sampler's generic class
    (``qs_scan.json``)."""
    wanted, holds = QS_GENERIC_CLASS[sampler]
    if not holds(payload):
        return f"{sampler} scan not {wanted}: {payload}"
    return None


def directory_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for item in sorted(path.iterdir()):
        digest.update(item.name.encode() + b"\0" + item.read_bytes() + b"\0")
    return digest.hexdigest()


class Evolve:
    """Covariant and naive doublet propagation plus the dim-64 operator pair."""

    name = "evolve"
    POOL = 4

    def __init__(self, seed: int, workdir: Path):
        seeds = derived_seeds(seed, (1,), 3 * self.POOL)
        self.small = [models.scenario_random(4, s) for s in seeds[: self.POOL]]
        self.medium = [models.scenario_random(16, s) for s in seeds[self.POOL : 2 * self.POOL]]
        self.large = [models.scenario_random(64, s) for s in seeds[2 * self.POOL :]]
        self.falsification = models.scenario_falsification()
        self.sizes = {
            "ops": "evolution_operators on dim 64 before each propagate_pair + "
            "propagate_naive on dims 4, 16 and the falsification model",
            "dims": [4, 16, 2, 64],
            "grid": "11 points on [0, 1]",
            "step": STEP,
            "scenarios_per_dim": self.POOL,
        }

    @staticmethod
    def _pair_ops(label: str, scenario, naive_floor: float = 0.0) -> list[Op]:
        """The covariant run, then the naive run checked against its drift."""
        ham, fam, phi0, grid = scenario
        covariant = {}

        def check_pair(traj):
            covariant["drift"] = max(traj.max_norm_drift, traj.max_metric_drift)
            return covariant_gate(traj)

        return [
            Op(
                f"propagate_pair/{label}",
                lambda: evolution.propagate_pair(ham, fam, phi0, None, grid, STEP),
                check_pair,
            ),
            Op(
                f"propagate_naive/{label}",
                lambda: evolution.propagate_naive(ham, fam, phi0, None, grid, STEP),
                lambda traj: naive_gate(traj, covariant.get("drift"), naive_floor),
            ),
        ]

    def _operators_op(self, k: int) -> Op:
        ham, fam, _, grid = self.large[k]
        return Op(
            "evolution_operators/dim64",
            lambda: evolution.evolution_operators(ham, fam, grid, STEP),
            operators_gate,
        )

    def rotation(self, r: int) -> list[Op]:
        # Each covariant/naive pair follows a dim-64 op.  A third of the ops
        # are then BLAS-bound and set the tail with well over ten per run,
        # and the median falls inside the covariant runs that start while
        # the BLAS threads of the op before still spin, which makes it far
        # steadier on a shared machine than a median among the naive runs.
        k = r % self.POOL
        pairs = [
            self._pair_ops("dim4", self.small[k]),
            self._pair_ops("dim16", self.medium[k]),
            self._pair_ops("falsification", self.falsification, NAIVE_DRIFT_MIN),
        ]
        ops = []
        for j, pair in enumerate(pairs):
            ops += [self._operators_op((3 * r + j) % self.POOL)] + pair
        return ops


def _pairs(array) -> list:
    """A complex array as nested lists of the CLI's [re, im] pairs."""
    a = np.asarray(array, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _trajectory_config(scenario, samples: int) -> dict:
    """The CLI config keys of a propagation over ``samples`` points on [0, 1]."""
    ham, fam, phi0, _ = scenario
    return {
        "model": {"taylor": [_pairs(c) for c in ham.coefficients]},
        "dyson": {"kind": "exp_poly", "generator": _pairs(fam.generator), "theta": list(fam.theta)},
        "phi0": _pairs(phi0),
        "grid": {"t_start": 0.0, "t_end": 1.0, "n_samples": samples},
        "step": STEP,
    }


class CliBatch:
    """In-process CLI runs of every command, over configs written at set-up.

    The three-picture cross-check and the stationary-metric scans run here
    too, through their CLI commands, and their written results pass the
    same gates as the library calls would.
    """

    name = "cli-batch"
    DIM = 32
    QS_DIM = 8
    EVOLVE_DIM = 8
    CROSSCHECK_DIM = 4
    SAMPLES = 1001

    def __init__(self, seed: int, workdir: Path):
        s_matrix, s_kappa, s_qs, s_scenario, s_cross, s_scan = derived_seeds(seed, (4,), 6)
        rng = np.random.default_rng(s_matrix)
        spectrum = np.linspace(-3.0, 3.0, self.DIM) + rng.uniform(-0.05, 0.05, self.DIM)
        matrix = models.random_cryptohermitian(self.DIM, spectrum, s_matrix)
        system = linalg.biorthogonal_decompose(matrix)
        omega = metric.dyson_from_metric(metric.metric_from_spectral(system, np.ones(self.DIM)))
        kappa = np.random.default_rng(s_kappa).uniform(0.5, 2.0, self.DIM)
        family = quasistationary.sample_shared_degree2(np.random.default_rng(s_qs), self.QS_DIM)
        trajectory = _trajectory_config(
            models.scenario_random(self.EVOLVE_DIM, s_scenario), self.SAMPLES
        )
        # the cross-check keeps scenario_random's own 11-point grid
        crosscheck = _trajectory_config(models.scenario_random(self.CROSSCHECK_DIM, s_cross), 11)
        configs = {
            "decompose": {"command": "decompose", "model": {"matrix": _pairs(matrix)}},
            "metric": {
                "command": "metric",
                "model": {"matrix": _pairs(matrix)},
                "kappa": [float(k) for k in kappa],
            },
            "hermitize": {
                "command": "hermitize",
                "model": {"matrix": _pairs(matrix)},
                "dyson": {"kind": "constant", "matrix": _pairs(omega)},
            },
            "qs-check": {
                "command": "qs-check",
                "model": {"taylor": [_pairs(c) for c in family.coefficients]},
            },
            "evolve": {"command": "evolve", **trajectory},
            "naive-evolve": {"command": "naive-evolve", **trajectory, "output": {"format": "json"}},
            "crosscheck": {"command": "crosscheck", **crosscheck},
            **{
                f"qs-scan-{name}": {
                    "command": "qs-scan",
                    "sampler": name,
                    "trials": QS_TRIALS,
                    "n": self.QS_DIM,
                    "seed": s_scan,
                }
                for name in quasistationary.SAMPLERS
            },
            "demo": {"command": "demo"},
        }
        # what each op wrote, checked beyond exit code and rerun identity
        self._gates = {
            "crosscheck": ("crosscheck.json", crosscheck_gate),
            **{
                f"qs-scan-{name}": ("qs_scan.json", lambda p, name=name: qs_gate(name, p))
                for name in quasistationary.SAMPLERS
            },
        }
        self.runs = []
        for label, config in configs.items():
            path = workdir / "configs" / f"{label}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(config))
            self.runs.append((label, path, workdir / "out" / label))
        self._reference: dict[str, str] = {}
        self.sizes = {
            "ops": list(configs),
            "dims": {
                "decompose/metric/hermitize": self.DIM,
                "qs-check/qs-scan": self.QS_DIM,
                "evolve/naive-evolve": self.EVOLVE_DIM,
                "crosscheck": self.CROSSCHECK_DIM,
                "demo": 2,
            },
            "qs_check_degree": family.degree,
            "qs_scan_trials": QS_TRIALS,
            "grid": f"{self.SAMPLES} samples on [0, 1]; crosscheck 11",
            "step": STEP,
        }

    def _check(self, label: str, out: Path, code) -> str | None:
        """Criterion 10: exit 0 and output identical to the first execution;
        then the criterion of the command's own result, where it has one."""
        if code != 0:
            return f"exit code {code}"
        digest = directory_digest(out)
        reference = self._reference.setdefault(label, digest)
        if digest != reference:
            return "output differs from the first execution"
        if label in self._gates:
            filename, gate = self._gates[label]
            return gate(json.loads((out / filename).read_text()))
        return None

    def rotation(self, r: int) -> list[Op]:
        return [
            Op(
                f"cli/{label}",
                lambda path=path, out=out: cli.main(
                    ["--config", str(path), "--out", str(out), "--quiet"]
                ),
                lambda code, label=label, out=out: self._check(label, out, code),
            )
            for label, path, out in self.runs
        ]


WORKLOADS = {w.name: w for w in (Evolve, CliBatch)}

#: workloads whose first rotation must run before timing starts
NEEDS_REFERENCE_ROTATION = {CliBatch.name}
