"""Tests for the dense complex matrix core."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptoherm import (
    DefectiveMatrix,
    DimensionMismatch,
    NotPositiveDefinite,
    SingularMatrix,
    biorthogonal_decompose,
    invert,
    norm_fro,
    principal_sqrt,
)
from cryptoherm.models import random_cryptohermitian


def test_decompose_hermitian_diagonal():
    system = biorthogonal_decompose(np.diag([1.0, 2.0]).astype(complex))
    npt.assert_allclose(system.eigenvalues, [1.0, 2.0])
    npt.assert_allclose(np.abs(system.right_vectors), np.eye(2), atol=1e-14)
    npt.assert_allclose(np.abs(system.left_vectors), np.eye(2), atol=1e-14)


def test_decompose_hand_derived_2x2():
    # characteristic polynomial of [[1,1],[4,1]] is l^2 - 2l - 3 = (l-3)(l+1);
    # null spaces give right vectors (1, 2) for 3 and (1, -2) for -1.
    system = biorthogonal_decompose(np.array([[1.0, 1.0], [4.0, 1.0]], dtype=complex))
    npt.assert_allclose(system.eigenvalues, [-1.0, 3.0], atol=1e-12)
    expected = {
        -1.0: np.array([1.0, -2.0]) / np.sqrt(5.0),
        3.0: np.array([1.0, 2.0]) / np.sqrt(5.0),
    }
    for j, eig in enumerate([-1.0, 3.0]):
        overlap = abs(np.vdot(expected[eig], system.right_vectors[:, j]))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_decompose_jordan_block_is_defective():
    with pytest.raises(DefectiveMatrix):
        biorthogonal_decompose(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_decompose_left_vectors_are_adjoint_eigenvectors():
    m = random_cryptohermitian(4, [0.5, 1.0, 2.0, 3.5], seed=7)
    system = biorthogonal_decompose(m)
    for j in range(4):
        lhs = m.conj().T @ system.left_vectors[:, j]
        rhs = np.conj(system.eigenvalues[j]) * system.left_vectors[:, j]
        npt.assert_allclose(lhs, rhs, atol=1e-9)


def test_decompose_normalization_convention():
    m = random_cryptohermitian(3, [-1.0, 0.5, 2.0], seed=3)
    system = biorthogonal_decompose(m)
    npt.assert_allclose(np.linalg.norm(system.right_vectors, axis=0), 1.0, atol=1e-12)
    gram = system.left_vectors.conj().T @ system.right_vectors
    npt.assert_allclose(gram, np.eye(3), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    dim=st.sampled_from([2, 3, 4, 8]),
)
def test_decompose_recovers_planted_spectra(seed, dim):
    rng = np.random.default_rng(seed)
    spectrum = np.sort(rng.uniform(-3.0, 3.0, dim))
    while dim > 1 and np.diff(spectrum).min() < 0.2:
        spectrum = np.sort(rng.uniform(-3.0, 3.0, dim))
    m = random_cryptohermitian(dim, spectrum, seed=seed)
    system = biorthogonal_decompose(m)
    assert system.biorthonormality_residual() <= 1e-10
    assert system.completeness_residual() <= 1e-10
    npt.assert_allclose(
        np.sort(system.eigenvalues.real),
        spectrum,
        atol=1e-8 * max(np.abs(spectrum).max(), 1.0),
    )
    assert norm_fro(system.reconstruct() - m) <= 1e-10 * max(norm_fro(m), 1.0)


def test_principal_sqrt_identity_and_diagonal():
    npt.assert_allclose(principal_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    npt.assert_allclose(
        principal_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
    )


def test_principal_sqrt_remultiplication():
    rng = np.random.default_rng(11)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = b.conj().T @ b
    s = principal_sqrt(p)
    npt.assert_allclose(s, s.conj().T, atol=1e-12 * norm_fro(s))
    assert norm_fro(s @ s - p) <= 1e-10 * norm_fro(p)


def test_principal_sqrt_rejects_non_positive():
    with pytest.raises(NotPositiveDefinite):
        principal_sqrt(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite):
        principal_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(NotPositiveDefinite):
        principal_sqrt(np.zeros((2, 2)))


def test_invert_diagonal():
    npt.assert_allclose(
        invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-15
    )


def test_invert_singular_raises():
    with pytest.raises(SingularMatrix):
        invert(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_invert_residual():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    npt.assert_allclose(a @ invert(a), np.eye(5), atol=1e-12)


def test_decompose_rejects_non_finite_and_non_square():
    with pytest.raises(ValueError):
        biorthogonal_decompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        biorthogonal_decompose(np.ones((2, 3)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_sqrt_squares_back_property(seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = b.conj().T @ b + 0.1 * np.eye(3)
    s = principal_sqrt(p)
    assert norm_fro(s @ s - p) <= 1e-10 * norm_fro(p)
