"""Tests for metric construction, Dyson maps, and the metric-weighted algebra."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cryptoherm import (
    DegenerateOverlap,
    DimensionMismatch,
    DysonFamily,
    IllConditionedWarning,
    InvalidWeights,
    MetricOperator,
    SingularMatrix,
    biorthogonal_decompose,
    dyson_from_metric,
    expectation,
    hermitize,
    metric_from_dyson,
    metric_from_spectral,
    norm_fro,
    physical_inner,
    projector_pair,
)
from cryptoherm.errors import NonFiniteState, NumericalError
from cryptoherm.metric import COND_WARN, metric_operators, spectral_metrics
from cryptoherm.models import random_cryptohermitian, scenario_falsification, scenario_random


def _residual(h, theta):
    return norm_fro(h.conj().T @ theta - theta @ h) / (norm_fro(h) * norm_fro(theta))


def _outcome(call):
    """The MetricOperator a one-matrix call returns, or the error it raises."""
    try:
        return call()
    except (ValueError, NumericalError) as error:
        return error


def _same_outcome(stacked, single):
    assert type(stacked) is type(single)
    if isinstance(single, Exception):
        assert str(stacked) == str(single)
    else:
        assert np.array_equal(stacked.matrix, single.matrix)
        assert (stacked.min_eig, stacked.max_eig) == (single.min_eig, single.max_eig)


def test_stacked_metric_checks_equal_one_matrix_calls():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    good = b.conj().T @ b + 0.1 * np.eye(3)
    candidates = [good, good + 1e-6 * b, np.diag([1.0, -1.0, 2.0]), np.diag([1.0, 1e-13, 1.0]),
                  np.full((3, 3), np.inf), 2.0 * good]
    for stacked, theta in zip(metric_operators(np.array(candidates, dtype=complex)), candidates):
        _same_outcome(stacked, _outcome(lambda: MetricOperator.from_matrix(theta)))

    system = biorthogonal_decompose(np.array([[1.0, 1.0], [4.0, 1.0]], dtype=complex))
    weights = [[1.0, 2.5], [1.0, -1.0], [1.0 + 0.5j, 1.0], [1.0, np.nan], [1.0, 0.0], [0.3, 7.0]]
    rows = spectral_metrics(np.array([system.left_vectors] * len(weights)), np.array(weights))
    for stacked, kappa in zip(rows, weights):
        _same_outcome(stacked, _outcome(lambda: metric_from_spectral(system, np.array(kappa))))
    # the one-matrix call assembles Θ as the formula reads, bit for bit
    left = system.left_vectors
    theta = (left * np.array([0.3, 7.0])) @ left.conj().T
    assert np.array_equal(rows[-1].matrix, 0.5 * (theta + theta.conj().T))


def test_spectral_metric_hermitian_gives_identity():
    h = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    theta = metric_from_spectral(biorthogonal_decompose(h), np.ones(2))
    npt.assert_allclose(theta.matrix, np.eye(2), atol=1e-10)


def test_spectral_metric_quasi_hermiticity():
    h = np.array([[1.0, 1.0], [4.0, 1.0]], dtype=complex)
    theta = metric_from_spectral(biorthogonal_decompose(h), np.ones(2))
    assert theta.min_eig > 0
    assert _residual(h, theta.matrix) <= 1e-10


def test_spectral_metric_rejects_bad_weights():
    system = biorthogonal_decompose(np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(InvalidWeights):
        metric_from_spectral(system, np.array([1.0, -1.0]))
    with pytest.raises(InvalidWeights):
        metric_from_spectral(system, np.array([1.0 + 0.5j, 1.0]))
    with pytest.raises(InvalidWeights):
        metric_from_spectral(system, np.array([1.0, 0.0]))
    with pytest.raises(InvalidWeights):
        metric_from_spectral(system, np.ones(3))


def test_metric_from_dyson_trivial_cases():
    fam = DysonFamily.constant(np.eye(2))
    npt.assert_allclose(metric_from_dyson(fam, 0.3).matrix, np.eye(2), atol=1e-15)
    g = np.array([[1.0, 0.5], [0.5, -0.3]], dtype=complex)  # Hermitian generator
    fam = DysonFamily.exp_poly(g, (0.0, 1.0))
    npt.assert_allclose(metric_from_dyson(fam, 0.0).matrix, np.eye(2), atol=1e-15)


def test_metric_from_dyson_random_constant():
    rng = np.random.default_rng(4)
    omega = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    fam = DysonFamily.constant(omega)
    theta = metric_from_dyson(fam, 1.7)
    assert norm_fro(theta.matrix - omega.conj().T @ omega) <= 1e-14 * norm_fro(theta.matrix)
    assert theta.min_eig > 0
    # eigenvalues of Theta are the squared singular values of Omega
    sv = np.linalg.svd(omega, compute_uv=False)
    npt.assert_allclose(theta.max_eig, sv[0] ** 2, rtol=1e-12)
    npt.assert_allclose(theta.min_eig, sv[-1] ** 2, rtol=1e-12)


def test_constant_family_must_be_invertible():
    with pytest.raises(SingularMatrix):
        DysonFamily.constant(np.array([[1.0, 2.0], [2.0, 4.0]]))


@pytest.mark.parametrize("build", [DysonFamily.constant, lambda m: DysonFamily("constant", m)])
def test_family_construction_validates_the_map(build):
    # direct construction gates the map as the constructor does: a singular
    # map would give metric norms of 0 that read as conserved
    for singular in (np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]])):
        with pytest.raises(SingularMatrix):
            build(singular)
    with pytest.raises(ValueError, match="finite"):
        build(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        DysonFamily("exp_poly", generator=np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        DysonFamily.exp_poly(np.ones((2, 3)), (0.0, 1.0))
    direct = DysonFamily("exp_poly", generator=[[0.0, 1.0], [0.0, 0.0]], theta=[0, 2])
    assert direct.theta == (0.0, 2.0) and direct.generator.dtype == complex
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            DysonFamily.exp_poly(np.eye(2), (0.0, bad))


def test_overflowing_map_raises_naming_its_angle():
    # G has eigenvalues ±√1.25, so exp(θ·G) overflows well before θ = 1000;
    # its NaN table used to come out as a NaN metric-norm drift
    fam = DysonFamily.exp_poly(np.array([[1.0, 0.5], [0.5, -1.0]]), (0.0, 1.0))
    with pytest.raises(NonFiniteState, match="theta = 1000"):
        fam.omega(np.array([0.0, 1.0, 1000.0, 2000.0]))
    with pytest.raises(NonFiniteState, match="theta = -1000"):
        fam.omega_inv(1000.0)
    assert np.isfinite(fam.omega(np.array([0.0, 1.0, 100.0]))).all()


def test_an_angle_that_overflows_raises_without_numpy_warnings():
    # θ(1e10) = 1e310 used to reach the caller as overflow and invalid-value
    # RuntimeWarnings before the NonFiniteState
    fam = DysonFamily.exp_poly(np.array([[1.0, 0.5], [0.5, -1.0]]), (0.0, 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState, match="theta = inf"):
            fam.omega(1e10)
        with pytest.raises(NonFiniteState, match="theta = -inf"):
            fam.omega_inv(np.array([0.0, 1e10]))
        with pytest.raises(NonFiniteState, match=r"theta = 1e\+10"):
            DysonFamily.exp_poly(np.eye(2) * 1e300, (0.0, 1.0)).omega(1e10)
        with pytest.raises(NonFiniteState, match="theta = 1000"):
            DysonFamily.exp_poly(np.eye(2), (0.0, 1.0)).omega(1000.0)


def test_generators_near_the_float_limit_give_finite_maps():
    # 2^e for ‖G‖₁ ≥ 2^1023, and a column sum of 2e308, used to come out as
    # inf and scale every angle, θ = 0 included, to NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        omega = DysonFamily.exp_poly(np.diag([1.6e308, -1.0]), (0.0, 1.0)).omega([0.0, 1e-308])
        assert np.array_equal(omega[0], np.eye(2))
        npt.assert_allclose(omega[1], np.diag([np.exp(1.6), 1.0]), rtol=0, atol=1e-15)
        g = np.array([[1e308, 0.0], [1e308, 0.0]])
        omega = DysonFamily.exp_poly(g, (0.0, 1.0)).omega(1e-309)
        assert _rel_err(omega, expm(1e-309 * g)) <= 1e-13


def test_a_map_at_an_infinite_time_names_the_time():
    with pytest.raises(NonFiniteState, match="at t = inf"):
        DysonFamily.exp_poly(np.eye(2), (0.0, 1e300)).omega(np.inf)


def test_map_tables_factorize_nothing(monkeypatch):
    calls = []
    for name in ("solve", "inv", "svd"):
        method = getattr(np.linalg, name)

        def counted(*args, method=method, **kwargs):
            calls.append(method.__name__)
            return method(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    fam = scenario_random(4, 0)[1]
    for t in (np.linspace(0.0, 1.0, 2001), 0.5):
        fam.omega(t), fam.omega_inv(t)
    assert calls == []


def test_dyson_from_metric_trivial_and_roundtrip():
    npt.assert_allclose(dyson_from_metric(MetricOperator.from_matrix(np.eye(2))), np.eye(2))
    npt.assert_allclose(
        dyson_from_metric(MetricOperator.from_matrix(np.diag([4.0, 1.0]))),
        np.diag([2.0, 1.0]),
        atol=1e-12,
    )
    h = np.array([[1.0, 1.0], [4.0, 1.0]], dtype=complex)
    theta = metric_from_spectral(biorthogonal_decompose(h), np.ones(2))
    omega = dyson_from_metric(theta)
    assert norm_fro(omega.conj().T @ omega - theta.matrix) <= 1e-10 * norm_fro(theta.matrix)


def test_dyson_from_metric_unitary_gauge():
    h = np.array([[1.0, 1.0], [4.0, 1.0]], dtype=complex)
    theta = metric_from_spectral(biorthogonal_decompose(h), np.ones(2))
    u = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)  # a rotation
    omega = dyson_from_metric(theta, unitary=u)
    assert norm_fro(omega.conj().T @ omega - theta.matrix) <= 1e-10 * norm_fro(theta.matrix)
    lower = hermitize(h, omega)
    assert norm_fro(lower - lower.conj().T) <= 1e-9 * norm_fro(lower)
    with pytest.raises(ValueError):
        dyson_from_metric(theta, unitary=np.diag([2.0, 1.0]))


def test_metric_dyson_idempotence_on_hermitian_positive_maps():
    rng = np.random.default_rng(9)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    omega = b.conj().T @ b + 0.5 * np.eye(4)  # Hermitian positive definite
    recovered = dyson_from_metric(metric_from_dyson(DysonFamily.constant(omega), 0.0))
    assert norm_fro(recovered - omega) <= 1e-10 * norm_fro(omega)


def test_hermitize_identity_map():
    h = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    npt.assert_allclose(hermitize(h, np.eye(2)), h, atol=1e-15)


def test_hermitize_pipeline_residual_and_isospectrality():
    h = random_cryptohermitian(4, [1.0, 2.0, 3.0, 4.5], seed=21)
    theta = metric_from_spectral(biorthogonal_decompose(h), np.ones(4))
    lower = hermitize(h, dyson_from_metric(theta))
    assert norm_fro(lower - lower.conj().T) <= 1e-8 * norm_fro(lower)
    npt.assert_allclose(
        np.sort(np.linalg.eigvals(lower).real),
        np.sort(np.linalg.eigvals(h).real),
        atol=1e-8 * 4.5,
    )


def test_hermitize_warns_on_ill_conditioned_map():
    omega = np.diag([1.0, 1e-7]).astype(complex)
    with pytest.warns(IllConditionedWarning):
        hermitize(np.eye(2, dtype=complex), omega)
    # a constant family's own factorization gives the same warning and bits
    family = DysonFamily.constant(omega + np.triu(np.ones((2, 2)), 1))
    h = np.array([[1.0, 0.5], [0.25, -1.0]], dtype=complex)
    with pytest.warns(IllConditionedWarning):
        image = hermitize(h, family, 3.0)
    with pytest.warns(IllConditionedWarning):
        assert np.array_equal(image, hermitize(h, family.omega(3.0)))


def test_hermitize_takes_a_family_at_a_time():
    h = np.array([[1.0, 0.5], [0.25, -1.0]], dtype=complex)
    family = DysonFamily.exp_poly(np.array([[0.3, 1.0], [0.0, -0.2]]), (0.1, 1.0))
    for t in (0.0, 0.7):
        assert np.array_equal(hermitize(h, family, t), hermitize(h, family.omega(t)))
    with pytest.raises(DimensionMismatch):
        hermitize(np.eye(3), DysonFamily.constant(np.eye(2)))


@settings(max_examples=60, deadline=None)
@given(k=st.floats(0.0, 14.0), seed=st.integers(0, 2**16))
def test_hermitize_warns_or_raises_exactly_at_its_thresholds(k, seed):
    # Ω = U·diag(1, 10⁻ᵏ)·V: cond(Ω) = 10ᵏ walks past COND_WARN (k = 6) and the
    # singularity floor 1e-12 (k = 12); the thresholds are read from Ω's own SVD
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
            for _ in range(2))
    omega = (u * [1.0, 10.0**-k]) @ v
    h = np.array([[1.0, 0.5], [0.25, -1.0]], dtype=complex)
    sv = np.linalg.svd(omega, compute_uv=False)
    if sv[-1] < 1e-12 * sv[0]:
        with pytest.raises(SingularMatrix):
            hermitize(h, omega)
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        image = hermitize(h, omega)
    warned = [w for w in caught if issubclass(w.category, IllConditionedWarning)]
    assert len(warned) == (sv[0] / sv[-1] > COND_WARN)
    assert np.isfinite(image).all()


def test_physical_inner_values():
    theta_i = MetricOperator.from_matrix(np.eye(2))
    a = np.array([1.0, 2.0j])
    b = np.array([0.5, 1.0])
    assert physical_inner(a, b, theta_i) == pytest.approx(np.vdot(a, b))
    theta_d = MetricOperator.from_matrix(np.diag([4.0, 1.0]))
    e1 = np.array([1.0, 0.0])
    assert physical_inner(e1, e1, theta_d) == pytest.approx(4.0)


def test_physical_inner_matches_mapped_norm():
    h = np.array([[1.0, 1.0], [4.0, 1.0]], dtype=complex)
    theta = metric_from_spectral(biorthogonal_decompose(h), np.array([1.5, 0.5]))
    omega = dyson_from_metric(theta)
    rng = np.random.default_rng(6)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    value = physical_inner(a, a, theta)
    assert value.real == pytest.approx(np.linalg.norm(omega @ a) ** 2, rel=1e-10)
    assert abs(value.imag) <= 1e-12 * abs(value.real)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_physical_inner_symmetry_and_positivity(seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    theta = MetricOperator.from_matrix(b.conj().T @ b + 0.2 * np.eye(3))
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert physical_inner(x, y, theta) == pytest.approx(
        np.conj(physical_inner(y, x, theta))
    )
    norm = physical_inner(x, x, theta)
    assert norm.real > 0
    assert abs(norm.imag) <= 1e-12 * norm.real


def test_physical_inner_positivity_bulk():
    rng = np.random.default_rng(123)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    theta = MetricOperator.from_matrix(b.conj().T @ b + 0.1 * np.eye(4))
    vectors = rng.standard_normal((1000, 4)) + 1j * rng.standard_normal((1000, 4))
    values = np.einsum("ki,ij,kj->k", vectors.conj(), theta.matrix, vectors)
    assert (values.real > 0).all()
    assert np.abs(values.imag).max() <= 1e-10 * np.abs(values.real).max()


def test_projector_pair_values():
    e1 = np.array([1.0, 0.0])
    npt.assert_allclose(projector_pair(e1, e1), np.outer(e1, e1), atol=1e-15)
    phi = np.array([1.0, 1.0])
    psi = np.array([1.0, 0.0])
    pi = projector_pair(phi, psi)
    npt.assert_allclose(pi, np.array([[1.0, 0.0], [1.0, 0.0]]), atol=1e-15)
    npt.assert_allclose(pi @ pi, pi, atol=1e-10)
    assert np.trace(pi) == pytest.approx(1.0, abs=1e-10)


def test_projector_pair_degenerate_overlap():
    with pytest.raises(DegenerateOverlap):
        projector_pair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_projector_metric_pseudo_hermiticity():
    h = np.array([[1.0, 1.0], [4.0, 1.0]], dtype=complex)
    theta = metric_from_spectral(biorthogonal_decompose(h), np.ones(2))
    rng = np.random.default_rng(8)
    phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi = theta.matrix @ phi
    pi = projector_pair(phi, psi)
    theta_inv = np.linalg.inv(theta.matrix)
    npt.assert_allclose(pi, theta_inv @ pi.conj().T @ theta.matrix, atol=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_projector_pair_rejects_non_finite_states(bad):
    with pytest.raises(ValueError, match="finite"):
        projector_pair([bad, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        projector_pair([1.0, 1.0], [1.0, bad])
    with pytest.raises(DimensionMismatch):
        projector_pair([1.0, 1.0], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_expectation_rejects_non_finite_states(bad):
    with pytest.raises(ValueError, match="finite"):
        expectation(np.eye(2), [bad, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        expectation(np.eye(2), [1.0, 1.0], [1.0, bad])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_physical_inner_rejects_non_finite_states(bad):
    theta = MetricOperator.from_matrix(np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        physical_inner([bad, 1.0], [1.0, 1.0], theta)
    with pytest.raises(ValueError, match="finite"):
        physical_inner([1.0, 1.0], [1.0, bad], theta)


def test_expectation_values():
    phi = np.array([0.3, 1.0 - 0.2j])
    psi = np.array([0.5, 0.8j])
    assert expectation(np.eye(2), phi, psi) == pytest.approx(1.0)

    h = random_cryptohermitian(3, [1.0, 2.0, 3.0], seed=2)
    system = biorthogonal_decompose(h)
    theta = metric_from_spectral(system, np.ones(3))
    phi = system.right_vectors[:, 1]
    value = expectation(h, phi, theta.matrix @ phi)
    assert value == pytest.approx(2.0, abs=1e-9)


def test_expectation_real_for_metric_observables():
    h = random_cryptohermitian(4, [0.5, 1.0, 2.0, 3.0], seed=12)
    theta = metric_from_spectral(biorthogonal_decompose(h), np.ones(4))
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    theta_inv = np.linalg.inv(theta.matrix)
    lam = 0.5 * (x + theta_inv @ x.conj().T @ theta.matrix)  # metric-symmetrized
    phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    value = expectation(lam, phi, theta.matrix @ phi)
    assert abs(value.imag) <= 1e-9 * max(abs(value), 1.0)


def test_exp_poly_family_derivative_identity():
    g = np.array([[0.2, 1.0], [1.0, -0.4]], dtype=complex)
    fam = DysonFamily.exp_poly(g, (0.0, 0.0, 0.5))  # theta(t) = t^2/2
    t, delta = 0.7, 1e-6
    omega_dot_fd = (fam.omega(t + delta) - fam.omega(t - delta)) / (2 * delta)
    conn_fd = np.linalg.inv(fam.omega(t)) @ omega_dot_fd
    npt.assert_allclose(fam.connection(t), conn_fd, atol=1e-8)


# ---------------------------------------------------------------------------
# batched Taylor tables of Ω(t) = exp(θ(t)G) and Ω⁻¹(t), against scipy's expm
# ---------------------------------------------------------------------------

TABLE_TIMES = np.linspace(-0.5, 1.5, 9)


def _scaled_family(seed, dim, norm, kind="random"):
    """exp_poly family with θ(t) = t whose ‖θ(1)·G‖₁ is ``norm``."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if kind == "stiff":
        x = -(x @ x.conj().T)
    elif kind == "unitary":
        x = x - x.conj().T
    return DysonFamily.exp_poly(norm * x / np.abs(x).sum(axis=0).max(), (0.0, 1.0))


# scenario families (no scaling), random G with 1-norms ‖θG‖₁ up to 97.5 at
# t = 1.5, so the tables square s = 0…5 times, and a stiff negative definite
# −(HH†) up to 1-norm 255 (s = 6).  Past 1-norm ~100 a non-normal exponential is
# itself conditioned near 1e-13: at 165 both this table and scipy sit about
# 1e-13 from a 40-digit reference.
TABLE_FAMILIES = [
    *(
        pytest.param(lambda d=d: scenario_random(d, d)[1], id=f"scenario-{d}")
        for d in (2, 4, 16, 64)
    ),
    pytest.param(lambda: scenario_falsification()[1], id="falsification"),
    *(
        pytest.param(lambda d=d, n=n: _scaled_family(d, d, n), id=f"random-{d}-{n}")
        for d in (2, 5, 16, 64)
        for n in (2.0, 6.0, 20.0, 40.0, 65.0)
    ),
    pytest.param(lambda: _scaled_family(7, 16, 170.0, "stiff"), id="stiff"),
]


def _rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("make", TABLE_FAMILIES)
def test_omega_table_matches_expm(make):
    fam = make()
    omega, omega_inv = fam.omega(TABLE_TIMES), fam.omega_inv(TABLE_TIMES)
    assert omega.shape == omega_inv.shape == (TABLE_TIMES.size, fam.dim, fam.dim)
    for t, om, om_inv in zip(TABLE_TIMES, omega, omega_inv):
        theta_g = fam.theta_at(t) * fam.generator
        assert _rel_err(om, expm(theta_g)) <= 1e-13
        assert _rel_err(om_inv, expm(-theta_g)) <= 1e-13


@pytest.mark.parametrize("make", [
    *(p for p in TABLE_FAMILIES if p.id.startswith(("scenario", "falsification"))),
    *(
        pytest.param(lambda n=n: _scaled_family(3, 8, n, "unitary"), id=f"unitary-{n}")
        for n in (2.0, 20.0, 65.0)
    ),
])
def test_omega_table_inverse_is_exact_to_rounding(make):
    fam = make()
    product = fam.omega(TABLE_TIMES) @ fam.omega_inv(TABLE_TIMES)
    assert np.abs(product - np.eye(fam.dim)).max() <= 1e-13


@pytest.mark.parametrize("dim", [4, 8])
def test_dyson_maps_match_a_60_digit_exponential(dim):
    # Ω(1) = exp(G) and Ω⁻¹(1) = exp(−G) for θ(t) = t and a generic complex
    # G at ‖G‖₁ = 50, against mpmath's expm at 60 digits: scipy's expm errs
    # about as much as the library does, so it could not resolve 1e-13
    for seed in range(3):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        g *= 50.0 / np.abs(g).sum(axis=0).max()
        family = DysonFamily.exp_poly(g, (0.0, 1.0))
        for sign, computed in ((1.0, family.omega(1.0)), (-1.0, family.omega_inv(1.0))):
            with mpmath.workdps(60):
                exact = np.array(mpmath.expm(mpmath.matrix((sign * g).tolist())).tolist(), dtype=complex)
            error = np.linalg.norm(computed - exact) / np.linalg.norm(exact)
            assert error <= 1e-13, (seed, sign, error)


def test_omega_scalar_time_is_its_row_of_the_array_call():
    for fam in (scenario_random(16, 1)[1], _scaled_family(1, 5, 65.0)):
        omega, omega_inv = fam.omega(TABLE_TIMES), fam.omega_inv(TABLE_TIMES)
        for k, t in enumerate(TABLE_TIMES):
            assert np.array_equal(fam.omega(t), omega[k])
            assert np.array_equal(fam.omega_inv(float(t)), omega_inv[k])
        grid = TABLE_TIMES.reshape(3, 3)
        assert np.array_equal(fam.omega(grid), omega.reshape(3, 3, fam.dim, fam.dim))


@pytest.mark.parametrize("dim", (3, 5, 8))
def test_each_map_row_is_independent_of_its_batch(dim):
    # ‖θ(1)·G‖₁ = 20: |t| ≥ 0.05 squares s ≥ 1 times, up to s = 5 at |t| = 1.5
    fam = _scaled_family(dim, dim, 20.0)
    times = np.concatenate([[0.0, 0.01, -0.02, 1.5, -1.5],
                            np.random.default_rng(dim).uniform(-1.5, 1.5, 12)])
    for maps in (fam.omega, fam.omega_inv):
        alone = [maps(float(t)) for t in times]
        for n in range(1, times.size + 1):
            # every time lands at other positions in batches of other sizes
            picks = (5 * np.arange(n) + n) % times.size
            for row, k in zip(maps(times[picks]), picks):
                assert np.array_equal(row, alone[k])


def test_omega_at_zero_angle_is_exactly_identity():
    for fam in (scenario_random(4, 0)[1], _scaled_family(2, 6, 50.0)):
        assert fam.theta_at(0.0) == 0.0
        assert np.array_equal(fam.omega(0.0), np.eye(fam.dim))
        assert all(np.array_equal(m, np.eye(fam.dim)) for m in fam.omega_inv(np.zeros(3)))


def test_constant_family_broadcasts_over_times():
    omega = np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)
    fam = DysonFamily.constant(omega)
    assert np.array_equal(fam.omega(0.3), omega)
    assert fam.omega(TABLE_TIMES).shape == (TABLE_TIMES.size, 2, 2)
    assert np.array_equal(fam.omega_inv(TABLE_TIMES)[4], np.linalg.inv(omega))


def test_package_import_does_not_load_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import cryptoherm, sys; "
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
