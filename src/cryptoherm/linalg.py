"""Dense complex matrix core: inverses, principal square roots, and
biorthogonal eigendecomposition of diagonalizable non-normal matrices.

All functions treat their array arguments as immutable values and return
fresh arrays.  Tolerances are relative to the Frobenius norm of the input,
with no absolute floor.  The eigendecomposition and ``invert_stack`` take
stacks (..., d, d) of matrices; each entry of a stack gets the same result,
bit for bit, as the matrix alone.  Every inverse the package takes comes
from ``invert_stack``, whose one SVD is also its gate.
"""

from __future__ import annotations

import math
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


def as_square_stack(matrices) -> np.ndarray:
    """Validate and return a finite complex square matrix, or a stack
    (..., d, d) of them (fresh copy)."""
    m = np.array(matrices, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_square_matrix(matrix) -> np.ndarray:
    """Validate and return a finite complex square matrix (fresh copy)."""
    m = as_square_stack(matrix)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def as_state(vector, dim: int) -> np.ndarray:
    """Validate and return a finite complex length-``dim`` state vector (fresh copy)."""
    v = np.array(vector, dtype=complex)
    if v.ndim != 1 or v.shape[0] != dim:
        raise DimensionMismatch(f"expected a length-{dim} vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("state entries must be finite")
    return v


def _sum_of_squares(flat: np.ndarray) -> np.ndarray:
    """Σ|x|² of each row of a stack (n, 1, m): one BLAS dot of the real parts
    plus one of the imaginary parts (one dot for a real stack)."""
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    return sum(p @ p.swapaxes(-1, -2) for p in parts)[:, 0, 0]


def stacked_fro(matrices) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (..., d, d).

    Each matrix is summed as ``np.linalg.norm`` sums it: in memory order
    (row- or column-major), as one BLAS dot of the real parts plus one of the
    imaginary parts (one dot for a real matrix), so an entry equals
    ``np.linalg.norm`` of its matrix bit for bit.  Where that sum of squares
    overflows or falls below the normal range, the matrix is summed again
    scaled by the power of two that brings its largest entry into [½, 1),
    and the root is scaled back, both exactly.
    """
    a = np.asarray(matrices)
    if not np.issubdtype(a.dtype, np.inexact):
        a = a.astype(float)
    if a.strides[-2] < a.strides[-1]:  # column-major matrices
        a = a.swapaxes(-1, -2)
    flat = np.ascontiguousarray(a).reshape(math.prod(a.shape[:-2]), 1, a.shape[-2] * a.shape[-1])
    with np.errstate(over="ignore"):
        squares = _sum_of_squares(flat)
    norms = np.sqrt(squares)
    redo = np.flatnonzero(~((squares >= np.finfo(squares.dtype).tiny) & (squares < np.inf)))
    if redo.size:
        exponent = np.frexp(np.abs(flat[redo]).max(axis=(1, 2), initial=0.0))[1]
        # the scaled copy keeps the memory layout, so each dot runs as above
        scaled = np.ldexp(flat[redo].view(a.real.dtype), -exponent[:, None, None])
        norms[redo] = np.ldexp(np.sqrt(_sum_of_squares(scaled.view(a.dtype))), exponent)
    return norms.reshape(a.shape[:-2])


def norm_fro(matrix) -> float:
    """Frobenius norm of one matrix (2-norm of a vector)."""
    return float(stacked_fro(np.atleast_2d(matrix)))


def adjoint(matrices) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack (the
    ``.conj().mT`` of numpy 2)."""
    return np.asarray(matrices).conj().swapaxes(-1, -2)


def power_table(t, count: int) -> np.ndarray:
    """tᵏ for k = 0…count − 1, one row per entry of the 1-d array ``t``.

    |t| is raised to the powers and the odd columns of each row with its sign
    bit set are negated, because numpy's ``pow`` on a negative base is about
    30 times slower.  A row whose sign bit is clear equals its row of
    ``t[:, None] ** np.arange(count)`` bit for bit; the others may differ from
    it at rounding level, as ``pow`` takes another path there.
    """
    w = np.abs(t)[:, None] ** np.arange(count)
    negative = np.signbit(t)
    if negative.any():  # most tables have no negative time
        w[negative, 1::2] *= -1.0
    return w


def invert_stack(m: np.ndarray, rtol: float = SINGULAR_RTOL):
    """``(inverses, singular_values, singular)`` of a finite (n, d, d) stack,
    without raising: one SVD gates it and one LU inverts it, each entry bit
    for bit as if alone.  A matrix is singular when σ_min < ``rtol``·σ_max or
    it is zero; it is inverted as I."""
    sv = np.linalg.svd(m, compute_uv=False)
    singular = (sv[:, 0] == 0.0) | (sv[:, -1] < rtol * sv[:, 0])
    if singular.any():  # np.where copies the stack, so only when it must
        m = np.where(singular[:, None, None], np.eye(m.shape[-1]), m)
    return np.linalg.inv(m), sv, singular


def _ratio(sv: np.ndarray) -> str:
    """σ_min/σ_max of one matrix's singular values, for error messages."""
    return f"sigma_min/sigma_max = {sv[-1] / max(sv[0], np.finfo(float).tiny):.3e}"


def inverse_with_singular_values(matrix) -> tuple[np.ndarray, np.ndarray]:
    """``invert`` that also returns the singular values of the matrix."""
    inverses, sv, singular = invert_stack(as_square_matrix(matrix)[None])
    if singular[0]:
        raise SingularMatrix(f"matrix numerically singular ({_ratio(sv[0])})")
    return inverses[0], sv[0]


def invert(matrix) -> np.ndarray:
    """Inverse of a square matrix; ``SingularMatrix`` if its smallest
    singular value is below ``1e-12`` times the largest."""
    return inverse_with_singular_values(matrix)[0]


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

    The system of a stack of matrices holds stacked arrays (leading axes as
    in the stack) and an array of condition estimates; its residuals are
    then arrays with one value per matrix.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    condition_estimate: float | np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def biorthonormality_residual(self):
        """max_{j,k} |⟨Ψ_j|Φ_k⟩ − δ_jk|, recomputed from the stored vectors."""
        gram = adjoint(self.left_vectors) @ self.right_vectors
        return _per_matrix(np.abs(gram - np.eye(self.dim)).max(axis=(-2, -1)))

    def completeness_residual(self):
        """‖Σ_j |Φ_j⟩⟨Ψ_j| − I‖ in the Frobenius norm."""
        resolution = self.right_vectors @ adjoint(self.left_vectors)
        return _per_matrix(stacked_fro(resolution - np.eye(self.dim)))

    def reconstruct(self) -> np.ndarray:
        """Rebuild the decomposed matrix as Σ_j |Φ_j⟩ ε_j ⟨Ψ_j|."""
        return (self.right_vectors * self.eigenvalues[..., None, :]) @ adjoint(self.left_vectors)


def _per_matrix(values: np.ndarray):
    """A float for a single matrix, the array for a stack."""
    return float(values) if values.ndim == 0 else values


def decompose_stack(m: np.ndarray, tol: float) -> tuple[BiorthonormalSystem, list]:
    """``biorthogonal_decompose`` of every matrix of a finite (n, d, d) stack
    at once, without raising.

    Returns the stacked system and, per matrix, ``None`` or the
    ``DefectiveMatrix`` that matrix fails with; the arrays of a failed
    matrix are meaningless.
    """
    d = m.shape[-1]
    eigvals, right = np.linalg.eig(m)
    right = right / np.linalg.norm(right, axis=-2, keepdims=True)
    ties = np.broadcast_to(np.arange(d), eigvals.shape)
    order = np.lexsort((ties, eigvals.imag, eigvals.real), axis=-1)
    eigvals = np.take_along_axis(eigvals, order, axis=-1)
    right = np.take_along_axis(right, order[:, None, :], axis=-1)

    right_inv, sv, singular = invert_stack(right, tol)
    condition = sv[:, 0] / np.maximum(sv[:, -1], np.finfo(float).tiny)
    left = adjoint(right_inv)
    system = BiorthonormalSystem(eigvals, right, left, condition)

    residual = (system.biorthonormality_residual() > BIORTHO_TOL) | (
        system.completeness_residual() > BIORTHO_TOL
    )
    recon = stacked_fro(system.reconstruct() - m)
    budget = BIORTHO_TOL * stacked_fro(m)
    failures = []
    for i in range(m.shape[0]):
        if singular[i]:
            failures.append(DefectiveMatrix(
                f"eigenvector matrix numerically singular ({_ratio(sv[i])})"
            ))
        elif residual[i]:
            failures.append(DefectiveMatrix(
                "eigenvector basis too ill-conditioned for a biorthonormal system "
                f"(condition estimate {condition[i]:.3e})"
            ))
        elif recon[i] > budget[i]:
            failures.append(DefectiveMatrix(
                f"spectral reconstruction residual {recon[i]:.3e} exceeds budget"
            ))
        else:
            failures.append(None)
    return system, failures


def biorthogonal_decompose(matrix, tol: float = BIORTHO_TOL) -> BiorthonormalSystem:
    """Biorthogonal eigendecomposition of a diagonalizable complex matrix,
    or of each matrix of a stack (..., d, d).

    Eigenvalues are sorted by real part, then imaginary part, ascending,
    with ties broken by the original index.  Right eigenvectors are
    normalized to unit 2-norm; left vectors are the rows of the inverse
    right-eigenvector matrix (conjugated), which makes them eigenvectors of
    M† at the conjugate eigenvalues and enforces ⟨Ψ_j|Φ_k⟩ = δ_jk directly.

    A stack is decomposed with one ``eig``, one SVD and one inverse over the
    whole stack; each entry equals the decomposition of its matrix alone.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix, or stack of them, with finite entries.
    tol : float
        Relative singular-value floor for the eigenvector matrix.

    Raises
    ------
    DefectiveMatrix
        If the eigenvector matrix is numerically singular (smallest singular
        value below ``tol`` times the largest) or the assembled system fails
        its biorthonormality/completeness/reconstruction budget.  These are
        the exceptional, non-diagonalizable cases that are reported rather
        than repaired.  For a stack, the first failing matrix is named by
        its index.
    """
    m = as_square_stack(matrix)
    batch = m.shape[:-2]
    system, failures = decompose_stack(m.reshape((-1,) + m.shape[-2:]), tol)
    for index, failure in zip(np.ndindex(batch), failures):
        if failure is not None:
            raise failure if not batch else DefectiveMatrix(f"matrix {index}: {failure}")
    eigvals, right, left, condition = (
        a.reshape(batch + a.shape[1:])
        for a in (system.eigenvalues, system.right_vectors, system.left_vectors,
                  system.condition_estimate)
    )
    return BiorthonormalSystem(eigvals, right, left, _per_matrix(condition))
