"""Tests for the stationary-metric certification machinery."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptoherm import (
    ExpectsRealSpectrum,
    TaylorHamiltonian,
    qs_certify,
    qs_scan,
    qs_solve,
    sample_independent,
    sample_shared,
    sample_shared_degree2,
    stationarity_residual,
)
from cryptoherm.linalg import principal_sqrt
from cryptoherm.quasistationary import _planted_spectrum, _solve_weights


def _hermitian(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (x + x.conj().T)


def _metric_compatible_pair(seed, n):
    """H0, H1 quasi-Hermitian for one known metric, with generic eigenbases.

    Theta is drawn positive definite; H_i = Theta^{-1/2} A_i Theta^{1/2} with
    independent Hermitian A_i, so both coefficients share the metric while
    their eigenvector systems differ (the overlap matrix is full).
    """
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    theta = b.conj().T @ b + 0.3 * np.eye(n)
    root = principal_sqrt(theta)
    root_inv = np.linalg.inv(root)
    h0 = root_inv @ _hermitian(rng, n) @ root
    h1 = root_inv @ _hermitian(rng, n) @ root
    return h0, h1, theta


def test_hermitian_pair_fixed_point():
    rng = np.random.default_rng(0)
    cert = qs_solve(_hermitian(rng, 4), _hermitian(rng, 4))
    assert cert.status == "compatible"
    npt.assert_allclose(cert.kappa, np.ones(4), atol=1e-9)
    npt.assert_allclose(cert.metric.matrix, np.eye(4), atol=1e-9)
    assert cert.kappa[0] == 1.0


def test_shared_similarity_pair_is_compatible():
    rng = np.random.default_rng(1)
    ham = sample_shared(rng, 4)
    cert = qs_solve(ham.coefficients[0], ham.coefficients[1])
    assert cert.status == "compatible"
    assert (cert.kappa > 0).all()
    for c in ham.coefficients:
        assert stationarity_residual(c, cert.metric.matrix) <= 1e-8


def test_independent_pairs_are_generically_incompatible():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ham = sample_independent(rng, 4)
        cert = qs_solve(ham.coefficients[0], ham.coefficients[1])
        assert cert.status == "incompatible"


def test_weight_recovery_against_planted_metric():
    # the planted metric expands over the left eigenvectors of H0 with
    # weights kappa_n = <Phi_n|Theta|Phi_n>; the solver must recover them
    # (normalized to the first) and they must match the first-row ratios.
    from cryptoherm.linalg import biorthogonal_decompose

    h0, h1, theta = _metric_compatible_pair(42, 4)
    cert = qs_solve(h0, h1)
    assert cert.status == "compatible"

    system = biorthogonal_decompose(h0)
    kappa_true = np.array(
        [
            np.vdot(system.right_vectors[:, j], theta @ system.right_vectors[:, j]).real
            for j in range(4)
        ]
    )
    kappa_true = kappa_true / kappa_true[0]
    npt.assert_allclose(cert.kappa, kappa_true, rtol=1e-8)

    # recovered metric reproduces the planted one up to overall scale
    scale = theta[0, 0] / cert.metric.matrix[0, 0]
    npt.assert_allclose(cert.metric.matrix * scale, theta, rtol=1e-7, atol=1e-9)

    residual = stationarity_residual(h1, cert.metric.matrix)
    assert residual <= 1e-8


def test_first_row_formula_in_generic_case():
    from cryptoherm.linalg import biorthogonal_decompose

    h0, h1, _ = _metric_compatible_pair(7, 4)
    sys0 = biorthogonal_decompose(h0)
    sys1 = biorthogonal_decompose(h1)
    a = sys0.left_vectors.conj().T @ sys1.right_vectors
    m = (a * sys1.eigenvalues.real) @ np.linalg.inv(a)
    cert = qs_solve(h0, h1)
    formula = np.array(
        [1.0] + [m[0, k] / np.conj(m[k, 0]) for k in range(1, 4)]
    )
    npt.assert_allclose(cert.kappa, formula.real, rtol=1e-9)
    assert np.abs(formula.imag).max() <= 1e-9


@settings(max_examples=20, deadline=None)
@given(
    c=st.one_of(st.floats(0.2, 5.0), st.floats(-5.0, -0.2)),
    seed=st.integers(min_value=0, max_value=500),
)
def test_scaling_invariance(c, seed):
    rng = np.random.default_rng(seed)
    ham = sample_shared(rng, 3) if seed % 2 else sample_independent(rng, 3)
    h0, h1 = ham.coefficients
    base = qs_solve(h0, h1)
    scaled = qs_solve(c * h0, c * h1)
    assert scaled.status == base.status
    if base.status == "compatible":
        npt.assert_allclose(scaled.kappa, base.kappa, rtol=1e-7)


def test_certify_requires_linear_coefficient():
    with pytest.raises(ValueError):
        qs_certify(TaylorHamiltonian((np.eye(2, dtype=complex),)))


def test_certify_degree2_extension_violates_at_order_2():
    rng = np.random.default_rng(11)
    ham = sample_shared_degree2(rng, 4)
    cert = qs_certify(ham)
    assert cert.status == "incompatible"
    assert cert.first_violation_order == 2
    assert len(cert.residuals) == 3
    assert cert.residuals[2] > 1e-8
    assert cert.residuals[0] <= 1e-8 and cert.residuals[1] <= 1e-8


def test_certify_shared_all_orders_compatible():
    rng = np.random.default_rng(13)
    from cryptoherm.models import _random_similarity

    s = _random_similarity(rng, 4, cond_cap=100.0)
    s_inv = np.linalg.inv(s)
    coeffs = tuple(
        (s * np.sort(rng.uniform(-2, 2, 4))) @ s_inv for _ in range(4)
    )
    cert = qs_certify(TaylorHamiltonian(coeffs))
    assert cert.status == "compatible"
    assert cert.first_violation_order is None
    assert max(cert.residuals) <= 1e-8


def test_complex_spectrum_rejected():
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)  # eigs +-i
    with pytest.raises(ExpectsRealSpectrum):
        qs_solve(rotation, np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(ExpectsRealSpectrum):
        qs_solve(np.diag([1.0, 2.0]).astype(complex), rotation)


def test_solve_weights_block_structure():
    # block-diagonal condition matrix: each block fixes its internal ratios,
    # blocks stay decoupled, component roots are seeded with weight one
    m = np.array(
        [
            [1.0, 2.0, 0.0],
            [0.5, 1.0, 0.0],
            [0.0, 0.0, 3.0],
        ],
        dtype=complex,
    )
    kappa, detail = _solve_weights(m, threshold=1e-8)
    assert detail is None
    assert kappa[0] == 1.0
    assert kappa[1] == pytest.approx(2.0 / 0.5)
    assert kappa[2] == 1.0


def test_solve_weights_one_sided_pattern_is_exceptional():
    m = np.array([[1.0, 1.0], [1e-14, 2.0]], dtype=complex)
    kappa, detail = _solve_weights(m, threshold=1e-8)
    assert kappa is None
    assert "one-sided" in detail


def test_scan_counts_and_determinism():
    stats_a = qs_scan("shared", 5, 3, seed=100)
    stats_b = qs_scan("shared", 5, 3, seed=100)
    assert stats_a == stats_b
    assert stats_a.compatible == 5

    single = qs_scan(sample_shared, 1, 4, seed=0)
    assert single.compatible == 1
    flat = single.as_flat_dict()
    assert flat["trials"] == 1 and flat["compatible"] == 1


def test_scan_independent_generically_incompatible():
    stats = qs_scan("independent", 20, 4, seed=7)
    assert stats.incompatible >= 19


def test_planted_spectrum_infeasible_dimension_raises_at_once():
    # (41 − 1)·0.1 = 4 leaves no room in [−2, 2]; rejection sampling never returned
    with pytest.raises(ValueError, match="41 eigenvalues"):
        qs_scan("shared", 1, 41, 0)
    for sampler in (sample_shared, sample_independent, sample_shared_degree2):
        with pytest.raises(ValueError):
            sampler(np.random.default_rng(0), 41)


def test_planted_spectrum_keeps_its_gaps_at_the_largest_dimension():
    rng = np.random.default_rng(4)
    for _ in range(20):
        values = _planted_spectrum(rng, 40)
        assert values.shape == (40,)
        assert np.diff(values).min() >= 0.1 - 1e-12
        assert -2.0 <= values[0] and values[-1] <= 2.0 + 1e-12
