"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria are property- and oracle-based at desk scale (dimensions up
to 8, unit time windows); every tolerance is pinned here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cryptoherm as ch

SCENARIO_SEEDS = range(20)


def _criterion(num, name, condition, info=""):
    status = "PASS" if condition else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status}  {info}")
    assert condition, f"acceptance criterion {num} ({name}) failed: {info}"


def _corpus():
    """200 seeded random-similarity matrices with planted real spectra."""
    items = []
    seed = 0
    for dim in (2, 4, 8):
        count = 67 if dim != 8 else 66
        for _ in range(count):
            rng = np.random.default_rng(10_000 + seed)
            spectrum = np.sort(rng.uniform(-3.0, 3.0, dim))
            while dim > 1 and np.diff(spectrum).min() < 0.2:
                spectrum = np.sort(rng.uniform(-3.0, 3.0, dim))
            items.append(
                (ch.random_cryptohermitian(dim, spectrum, seed=seed), spectrum, seed)
            )
            seed += 1
    return items


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


@pytest.fixture(scope="module")
def scenarios():
    return [ch.scenario_random(4, seed) for seed in SCENARIO_SEEDS]


@pytest.fixture(scope="module")
def pair_runs(scenarios):
    runs = []
    for ham, fam, phi0, grid in scenarios:
        coarse = ch.propagate_pair(ham, fam, phi0, None, grid, 1e-3)
        fine = ch.propagate_pair(ham, fam, phi0, None, grid, 5e-4)
        runs.append((coarse, fine))
    return runs


def test_criterion_01_biorthogonality(corpus):
    worst_bi = worst_comp = worst_spec = 0.0
    for matrix, spectrum, _ in corpus:
        system = ch.biorthogonal_decompose(matrix)
        worst_bi = max(worst_bi, system.biorthonormality_residual())
        worst_comp = max(worst_comp, system.completeness_residual())
        scale = max(np.abs(spectrum).max(), 1.0)
        worst_spec = max(
            worst_spec,
            np.abs(np.sort(system.eigenvalues.real) - spectrum).max() / scale,
        )
    _criterion(
        1,
        "biorthogonality-suite",
        worst_bi <= 1e-10 and worst_comp <= 1e-10 and worst_spec <= 1e-8,
        f"biortho {worst_bi:.1e}, completeness {worst_comp:.1e}, spectra {worst_spec:.1e}",
    )


def test_criterion_02_metric_quasi_hermiticity(corpus):
    worst = 0.0
    for matrix, _, seed in corpus:
        system = ch.biorthogonal_decompose(matrix)
        rng = np.random.default_rng(20_000 + seed)
        kappa = rng.uniform(0.5, 2.0, system.dim)
        theta = ch.metric_from_spectral(system, kappa)
        residual = ch.norm_fro(
            matrix.conj().T @ theta.matrix - theta.matrix @ matrix
        ) / (ch.norm_fro(matrix) * ch.norm_fro(theta.matrix))
        worst = max(worst, residual)
    _criterion(2, "metric-quasi-hermiticity", worst <= 1e-9, f"worst residual {worst:.1e}")


def test_criterion_03_hermitization(corpus):
    worst = 0.0
    for matrix, _, _ in corpus:
        system = ch.biorthogonal_decompose(matrix)
        theta = ch.metric_from_spectral(system, np.ones(system.dim))
        omega = ch.dyson_from_metric(theta)
        image = ch.hermitize(matrix, omega)
        worst = max(
            worst,
            ch.norm_fro(image - image.conj().T) / ch.norm_fro(image),
        )
    _criterion(3, "hermitization", worst <= 1e-8, f"worst residual {worst:.1e}")


def test_criterion_04_physical_unitarity(pair_runs):
    worst_overlap = max(c.max_norm_drift for c, _ in pair_runs)
    worst_metric = max(c.max_metric_drift for c, _ in pair_runs)
    ratios = [c.max_metric_drift / f.max_metric_drift for c, f in pair_runs]
    # the doublet overlap of the adjoint pairing is conserved beyond the
    # integrator order, so the step-halving check reads the physical norm
    ok = (
        worst_overlap <= 1e-8
        and worst_metric <= 1e-8
        and all(12.0 <= r <= 20.0 for r in ratios)
    )
    _criterion(
        4,
        "physical-unitarity",
        ok,
        f"overlap {worst_overlap:.1e}, metric {worst_metric:.1e}, "
        f"halving ratios {min(ratios):.1f}..{max(ratios):.1f}",
    )


def test_criterion_05_picture_equivalence(scenarios):
    worst = 0.0
    for ham, fam, phi0, grid in scenarios:
        report = ch.crosscheck_pictures(ham, fam, phi0, grid, 1e-3)
        worst = max(worst, report.max_pairwise_deviation())
    _criterion(5, "picture-equivalence", worst <= 1e-7, f"worst deviation {worst:.1e}")


def test_criterion_06_naive_falsification():
    ham, fam, phi0, grid = ch.scenario_falsification()
    covariant = ch.propagate_pair(ham, fam, phi0, None, grid, 1e-3)
    naive = ch.propagate_naive(ham, fam, phi0, None, grid, 1e-3)
    covariant_drift = max(covariant.max_norm_drift, covariant.max_metric_drift)
    ok = (
        covariant_drift <= 1e-8
        and naive.max_metric_drift >= 1e-3
        and naive.max_metric_drift >= 100.0 * covariant_drift
    )
    _criterion(
        6,
        "naive-falsification",
        ok,
        f"covariant {covariant_drift:.1e} vs naive {naive.max_metric_drift:.1e}",
    )


def test_criterion_07_evolution_operators(scenarios, pair_runs):
    worst_product = worst_state = 0.0
    for (ham, fam, phi0, grid), (coarse, _) in zip(scenarios, pair_runs):
        ops = ch.evolution_operators(ham, fam, grid, 1e-3)
        worst_product = max(worst_product, ops.max_product_drift)
        phi_ops = np.einsum("kij,j->ki", ops.u_right, phi0)
        worst_state = max(
            worst_state, float(np.linalg.norm(phi_ops - coarse.phi, axis=1).max())
        )
    _criterion(
        7,
        "evolution-operators",
        worst_product <= 1e-8 and worst_state <= 1e-8,
        f"product {worst_product:.1e}, state {worst_state:.1e}",
    )


def test_criterion_08_stationarity_genericity():
    independent = ch.qs_scan("independent", 100, 4, seed=0)
    shared = ch.qs_scan("shared", 100, 4, seed=1000)
    degree2 = ch.qs_scan("shared-degree2", 100, 4, seed=2000)
    order2 = degree2.violation_orders.get(2, 0)
    ok = (
        independent.incompatible >= 99
        and shared.compatible == 100
        and order2 >= 99
    )
    _criterion(
        8,
        "stationarity-genericity",
        ok,
        f"independent incompatible {independent.incompatible}/100, "
        f"shared compatible {shared.compatible}/100, order-2 violations {order2}/100",
    )


def test_criterion_09_hermitian_fixed_points():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h0 = 0.5 * (x + x.conj().T)
    h1 = 0.5 * (y + y.conj().T)

    cert = ch.qs_solve(h0, h1)
    theta_dev = (
        np.abs(cert.metric.matrix - np.eye(4)).max() if cert.metric else np.inf
    )

    ham = ch.TaylorHamiltonian((h0, h1))
    fam = ch.DysonFamily.constant(np.eye(4))
    grid = np.linspace(0.0, 1.0, 11)
    gen_exact = all(
        np.array_equal(ch.generator(ham, fam, t), ham.evaluate(t)) for t in grid
    )
    phi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi0 /= np.linalg.norm(phi0)
    report = ch.crosscheck_pictures(ham, fam, phi0, grid, 1e-3)

    ok = (
        cert.status == "compatible"
        and theta_dev <= 1e-9
        and gen_exact
        and report.max_pairwise_deviation() <= 1e-10
    )
    _criterion(
        9,
        "hermitian-fixed-points",
        ok,
        f"theta-I {theta_dev:.1e}, pictures {report.max_pairwise_deviation():.1e}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    config = tmp_path / "demo.json"
    config.write_text(json.dumps({"command": "demo"}))
    outputs = []
    for run_dir in ("r1", "r2"):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "cryptoherm.cli",
                "--config",
                str(config),
                "--out",
                str(tmp_path / run_dir),
                "--quiet",
            ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        )
        assert result.returncode == 0, result.stderr
        outputs.append(
            {
                name.name: name.read_bytes()
                for name in sorted((tmp_path / run_dir).iterdir())
            }
        )
    identical = outputs[0] == outputs[1]
    _criterion(
        10,
        "cli-determinism",
        identical and set(outputs[0]) == {"covariant.csv", "naive.csv", "demo_summary.json"},
        f"files {sorted(outputs[0])}",
    )
