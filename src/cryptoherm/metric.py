"""Physical metrics and Dyson maps.

Builds Hermitian positive-definite inner-product kernels either from the
spectral data of a diagonalizable operator or from a time-parametrized
invertible map, and provides the similarity transform, inner product,
projector and expectation machinery of the metric-weighted state space.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg import expm

from .errors import (
    DegenerateOverlap,
    DimensionMismatch,
    IllConditionedWarning,
    InvalidWeights,
    PositivityFailure,
)
from .linalg import (
    BiorthonormalSystem,
    as_square_matrix,
    as_state,
    invert,
    norm_fro,
    principal_sqrt,
)

#: condition number of the map beyond which residual guarantees degrade
COND_WARN = 1e6


@dataclass(frozen=True, eq=False)
class MetricOperator:
    """Hermitian positive-definite inner-product kernel with its eigenvalue range."""

    matrix: np.ndarray
    min_eig: float
    max_eig: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, theta) -> "MetricOperator":
        """Validate a metric candidate: Hermitian within 1e-12 relative,
        smallest eigenvalue above 1e-12 times the largest."""
        t = as_square_matrix(theta)
        if norm_fro(t - t.conj().T) > 1e-12 * norm_fro(t):
            raise PositivityFailure("metric candidate is not Hermitian")
        t = 0.5 * (t + t.conj().T)
        w = np.linalg.eigvalsh(t)
        if w[-1] <= 0.0 or w[0] <= 1e-12 * w[-1]:
            raise PositivityFailure(
                f"metric candidate eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}] "
                "are not positive definite"
            )
        return cls(t, float(w[0]), float(w[-1]))


@dataclass(frozen=True, eq=False)
class DysonFamily:
    """Time-parametrized invertible map Ω(t) with an exact time derivative.

    Two kinds are supported:

    ``constant``
        Ω(t) = Ω₀ for all t, Ω̇ = 0.
    ``exp_poly``
        Ω(t) = exp(θ(t)·G) for a fixed generator matrix G and a real
        polynomial θ(t) = Σ_k theta[k]·t^k.  Because G commutes with
        exp(θ(t)G), the derivative is exactly Ω̇(t) = θ′(t)·G·Ω(t) and the
        connection Ω⁻¹Ω̇ = θ′(t)·G needs no exponentials at all.

    Use the :meth:`constant` / :meth:`exp_poly` constructors; they validate
    their inputs (a constant map must be invertible, an exponential map
    always is).
    """

    kind: str
    matrix: np.ndarray | None = None
    generator: np.ndarray | None = None
    theta: tuple[float, ...] = (0.0,)

    @classmethod
    def constant(cls, matrix) -> "DysonFamily":
        m = as_square_matrix(matrix)
        invert(m)  # invertibility gate; raises SingularMatrix
        return cls(kind="constant", matrix=m)

    @classmethod
    def exp_poly(cls, generator, theta) -> "DysonFamily":
        g = as_square_matrix(generator)
        coeffs = tuple(float(c) for c in theta)
        if not coeffs:
            coeffs = (0.0,)
        return cls(kind="exp_poly", generator=g, theta=coeffs)

    def __post_init__(self):
        if self.kind not in ("constant", "exp_poly"):
            raise ValueError(f"unknown Dyson family kind {self.kind!r}")
        if self.kind == "constant" and self.matrix is None:
            raise ValueError("constant family needs a matrix")
        if self.kind == "exp_poly" and self.generator is None:
            raise ValueError("exp_poly family needs a generator")

    @property
    def dim(self) -> int:
        base = self.matrix if self.kind == "constant" else self.generator
        return base.shape[0]

    @cached_property
    def _matrix_inv(self) -> np.ndarray:
        return invert(self.matrix)

    @cached_property
    def _theta_rate_coeffs(self) -> tuple[float, ...]:
        if len(self.theta) < 2:
            return (0.0,)
        return tuple(npoly.polyder(self.theta))

    def theta_at(self, t: float) -> float:
        return float(npoly.polyval(t, self.theta))

    def theta_rate(self, t):
        """θ′(t); an array of times gives an array of rates."""
        rate = npoly.polyval(t, self._theta_rate_coeffs)
        return rate if np.ndim(rate) else float(rate)

    def omega(self, t: float) -> np.ndarray:
        if self.kind == "constant":
            return self.matrix
        return expm(self.theta_at(t) * self.generator)

    def omega_inv(self, t: float) -> np.ndarray:
        if self.kind == "constant":
            return self._matrix_inv
        return expm(-self.theta_at(t) * self.generator)

    def omega_dot(self, t: float) -> np.ndarray:
        if self.kind == "constant":
            return np.zeros((self.dim, self.dim), dtype=complex)
        return self.theta_rate(t) * (self.generator @ self.omega(t))

    def connection(self, t: float) -> np.ndarray:
        """Ω⁻¹(t)·Ω̇(t), evaluated exactly."""
        if self.kind == "constant":
            return np.zeros((self.dim, self.dim), dtype=complex)
        return self.theta_rate(t) * self.generator


def numeric_connection(omega_of_t, t: float, rel_step: float = 1e-6) -> np.ndarray:
    """Finite-difference fallback for Ω⁻¹Ω̇ from a tabulated map.

    Central difference with relative step ``rel_step``; intended for
    user-supplied families without an analytic derivative.  The result is
    approximate and callers should flag it as such in any output.
    """
    h = rel_step * max(abs(t), 1.0)
    omega = as_square_matrix(omega_of_t(t))
    dot = (as_square_matrix(omega_of_t(t + h)) - as_square_matrix(omega_of_t(t - h))) / (2.0 * h)
    return invert(omega) @ dot


def metric_from_spectral(system: BiorthonormalSystem, kappa) -> MetricOperator:
    """Assemble Θ = Σ_n |Ψ_n⟩ κ_n ⟨Ψ_n| from left eigenvectors and weights.

    The weights must be real and strictly positive; the result is Hermitian
    positive definite whenever the left vectors span (which the
    decomposition guarantees).
    """
    k = np.asarray(kappa)
    if k.shape != (system.dim,):
        raise InvalidWeights(
            f"expected {system.dim} weights, got shape {k.shape}"
        )
    if np.iscomplexobj(k):
        if np.abs(k.imag).max() > 0.0:
            raise InvalidWeights("weights must be real")
        k = k.real
    k = k.astype(float)
    if not np.isfinite(k).all() or (k <= 0.0).any():
        raise InvalidWeights("weights must be finite and strictly positive")
    left = system.left_vectors
    theta = (left * k) @ left.conj().T
    return MetricOperator.from_matrix(0.5 * (theta + theta.conj().T))


def metric_from_dyson(family: DysonFamily, t: float) -> MetricOperator:
    """Θ(t) = Ω†(t)·Ω(t) for an invertible map; positive definite by construction."""
    omega = family.omega(t)
    theta = omega.conj().T @ omega
    return MetricOperator.from_matrix(0.5 * (theta + theta.conj().T))


def dyson_from_metric(theta: MetricOperator, unitary=None) -> np.ndarray:
    """A map Ω with Ω†Ω = Θ; by default the Hermitian representative Θ^(1/2).

    Any invertible map with Ω†Ω = Θ produces the same metric; the principal
    square root is the deterministic gauge choice.  Passing a ``unitary`` U
    post-composes it, returning U·Θ^(1/2), which still satisfies Ω†Ω = Θ and
    rotates the hermitized image by U(…)U†.
    """
    root = principal_sqrt(theta.matrix)
    if unitary is None:
        return root
    u = as_square_matrix(unitary)
    if u.shape != root.shape:
        raise DimensionMismatch(
            f"unitary shape {u.shape} does not match metric dimension {root.shape}"
        )
    if norm_fro(u.conj().T @ u - np.eye(u.shape[0])) > 1e-10 * u.shape[0]:
        raise ValueError("post-composed map must be unitary")
    return u @ root


def hermitize(hamiltonian, omega) -> np.ndarray:
    """Similarity transform h = Ω·H·Ω⁻¹.

    The result is Hermitian (up to conditioning) exactly when H is
    quasi-Hermitian with respect to Θ = Ω†Ω, and is always isospectral with
    H.  When cond(Ω) exceeds ``COND_WARN`` an ``IllConditionedWarning`` is
    emitted because the Hermiticity residual scales with the condition
    number.
    """
    h = as_square_matrix(hamiltonian)
    om = as_square_matrix(omega)
    if h.shape != om.shape:
        raise DimensionMismatch(
            f"operator shape {h.shape} does not match map shape {om.shape}"
        )
    om_inv = invert(om)
    sv = np.linalg.svd(om, compute_uv=False)
    cond = sv[0] / sv[-1]
    if cond > COND_WARN:
        warnings.warn(
            f"map condition number {cond:.3e} exceeds {COND_WARN:.0e}; "
            "Hermiticity residuals are not guaranteed",
            IllConditionedWarning,
            stacklevel=2,
        )
    return om @ h @ om_inv


def physical_inner(a, b, theta: MetricOperator) -> complex:
    """Metric-weighted inner product ⟨a|Θ|b⟩ = Σ_{jk} a*_j Θ_{jk} b_k."""
    va = as_state(a, theta.dim)
    vb = as_state(b, theta.dim)
    return complex(np.vdot(va, theta.matrix @ vb))


def projector_pair(phi, psi) -> np.ndarray:
    """Rank-one projector Π = |Φ⟩⟨Ψ| / ⟨Ψ|Φ⟩ built from a state doublet.

    Satisfies Π² = Π and trace Π = 1; when Ψ = Θ·Φ it is Hermitian with
    respect to the Θ-weighted inner product.
    """
    vphi = np.asarray(phi, dtype=complex)
    vpsi = np.asarray(psi, dtype=complex)
    if vphi.shape != vpsi.shape or vphi.ndim != 1:
        raise DimensionMismatch(
            f"state shapes {vphi.shape} and {vpsi.shape} do not match"
        )
    overlap = complex(np.vdot(vpsi, vphi))
    floor = 1e-12 * np.linalg.norm(vphi) * np.linalg.norm(vpsi)
    if abs(overlap) <= floor:
        raise DegenerateOverlap(f"overlap {overlap:.3e} is numerically zero")
    return np.outer(vphi, vpsi.conj()) / overlap


def expectation(observable, phi, psi) -> complex:
    """Doublet expectation ⟨Ψ|Λ|Φ⟩ / ⟨Ψ|Φ⟩.

    Real (to tolerance) whenever Λ†Θ = ΘΛ and Ψ = Θ·Φ.
    """
    lam = as_square_matrix(observable)
    vphi = as_state(phi, lam.shape[0])
    vpsi = as_state(psi, lam.shape[0])
    overlap = complex(np.vdot(vpsi, vphi))
    floor = 1e-12 * np.linalg.norm(vphi) * np.linalg.norm(vpsi)
    if abs(overlap) <= floor:
        raise DegenerateOverlap(f"overlap {overlap:.3e} is numerically zero")
    return complex(np.vdot(vpsi, lam @ vphi) / overlap)
