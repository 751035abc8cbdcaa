"""Dense complex matrix core: inverses, principal square roots, and
biorthogonal eigendecomposition of diagonalizable non-normal matrices.

All functions treat their array arguments as immutable values and return
fresh arrays.  Tolerances are relative to the Frobenius norm of the input,
with the absolute floors noted per function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DefectiveMatrix,
    DimensionMismatch,
    NotPositiveDefinite,
    SingularMatrix,
)

#: residual budget for biorthonormality, completeness and reconstruction
BIORTHO_TOL = 1e-10

#: relative singular-value floor below which a matrix counts as singular
SINGULAR_RTOL = 1e-12


def as_square_matrix(matrix) -> np.ndarray:
    """Validate and return a finite complex square matrix (fresh copy)."""
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_state(vector, dim: int) -> np.ndarray:
    """Validate and return a complex length-``dim`` state vector (fresh copy)."""
    v = np.array(vector, dtype=complex)
    if v.ndim != 1 or v.shape[0] != dim:
        raise DimensionMismatch(f"expected a length-{dim} vector, got shape {v.shape}")
    return v


def norm_fro(matrix) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(matrix)))


def invert(matrix) -> np.ndarray:
    """Inverse of a square matrix.

    Raises
    ------
    SingularMatrix
        If the smallest singular value is below ``1e-12`` times the largest.
    """
    m = as_square_matrix(matrix)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < SINGULAR_RTOL * sv[0]:
        raise SingularMatrix(
            f"matrix numerically singular (sigma_min/sigma_max = "
            f"{sv[-1] / max(sv[0], np.finfo(float).tiny):.3e})"
        )
    return np.linalg.inv(m)


def principal_sqrt(matrix) -> np.ndarray:
    """Unique Hermitian positive-definite square root.

    The input must be Hermitian within ``1e-12`` of its Frobenius norm and
    positive definite (smallest eigenvalue above ``1e-12`` times the
    largest); otherwise ``NotPositiveDefinite`` is raised.  The result S
    satisfies ``S @ S == input`` within ``1e-10`` of the input norm.
    """
    p = as_square_matrix(matrix)
    if norm_fro(p - p.conj().T) > 1e-12 * norm_fro(p):
        raise NotPositiveDefinite("input is not Hermitian to working tolerance")
    sym = 0.5 * (p + p.conj().T)
    w, v = np.linalg.eigh(sym)
    if w[-1] <= 0.0 or w[0] <= 1e-12 * w[-1]:
        raise NotPositiveDefinite(
            f"eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}] is not positive definite"
        )
    root = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (root + root.conj().T)


@dataclass(frozen=True, eq=False)
class BiorthonormalSystem:
    """Eigenvalues with paired right and left eigenvectors, ⟨Ψ_j|Φ_k⟩ = δ_jk.

    ``right_vectors[:, j]`` is the unit-norm right eigenvector belonging to
    ``eigenvalues[j]``; ``left_vectors[:, j]`` is the matching left
    eigenvector (an eigenvector of the adjoint matrix at the conjugate
    eigenvalue), scaled so the mutual overlap matrix is the identity.  The
    residual normalization phase lives entirely in the left vectors.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    condition_estimate: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def biorthonormality_residual(self) -> float:
        """max_{j,k} |⟨Ψ_j|Φ_k⟩ − δ_jk|, recomputed from the stored vectors."""
        gram = self.left_vectors.conj().T @ self.right_vectors
        return float(np.abs(gram - np.eye(self.dim)).max())

    def completeness_residual(self) -> float:
        """‖Σ_j |Φ_j⟩⟨Ψ_j| − I‖ in the Frobenius norm."""
        resolution = self.right_vectors @ self.left_vectors.conj().T
        return float(np.linalg.norm(resolution - np.eye(self.dim)))

    def reconstruct(self) -> np.ndarray:
        """Rebuild the decomposed matrix as Σ_j |Φ_j⟩ ε_j ⟨Ψ_j|."""
        return (self.right_vectors * self.eigenvalues) @ self.left_vectors.conj().T


def biorthogonal_decompose(matrix, tol: float = BIORTHO_TOL) -> BiorthonormalSystem:
    """Biorthogonal eigendecomposition of a diagonalizable complex matrix.

    Eigenvalues are sorted by real part, then imaginary part, ascending,
    with ties broken by the original index.  Right eigenvectors are
    normalized to unit 2-norm; left vectors are the rows of the inverse
    right-eigenvector matrix (conjugated), which makes them eigenvectors of
    M† at the conjugate eigenvalues and enforces ⟨Ψ_j|Φ_k⟩ = δ_jk directly.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix with finite entries.
    tol : float
        Relative singular-value floor for the eigenvector matrix.

    Raises
    ------
    DefectiveMatrix
        If the eigenvector matrix is numerically singular (smallest singular
        value below ``tol`` times the largest) or the assembled system fails
        its biorthonormality/completeness/reconstruction budget.  These are
        the exceptional, non-diagonalizable cases that are reported rather
        than repaired.
    """
    m = as_square_matrix(matrix)
    n = m.shape[0]
    eigvals, right = np.linalg.eig(m)
    right = right / np.linalg.norm(right, axis=0)
    order = np.lexsort((np.arange(n), eigvals.imag, eigvals.real))
    eigvals = eigvals[order]
    right = np.ascontiguousarray(right[:, order])

    sv = np.linalg.svd(right, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < tol * sv[0]:
        raise DefectiveMatrix(
            f"eigenvector matrix numerically singular (sigma_min/sigma_max = "
            f"{sv[-1] / max(sv[0], np.finfo(float).tiny):.3e})"
        )
    condition = float(sv[0] / sv[-1])
    left = np.linalg.inv(right).conj().T
    system = BiorthonormalSystem(eigvals, right, left, condition)

    if (
        system.biorthonormality_residual() > BIORTHO_TOL
        or system.completeness_residual() > BIORTHO_TOL
    ):
        raise DefectiveMatrix(
            "eigenvector basis too ill-conditioned for a biorthonormal system "
            f"(condition estimate {condition:.3e})"
        )
    recon = norm_fro(system.reconstruct() - m)
    if recon > BIORTHO_TOL * max(norm_fro(m), 1.0):
        raise DefectiveMatrix(
            f"spectral reconstruction residual {recon:.3e} exceeds budget"
        )
    return system
