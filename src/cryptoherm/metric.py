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

from .errors import (
    DegenerateOverlap,
    DimensionMismatch,
    IllConditionedWarning,
    InvalidWeights,
    NonFiniteState,
    PositivityFailure,
    checked,
)
from .linalg import (
    BiorthonormalSystem,
    adjoint,
    as_square_matrix,
    as_state,
    inverse_with_singular_values,
    norm_fro,
    principal_sqrt,
    stacked_fro,
)

#: condition number of the map beyond which residual guarantees degrade
COND_WARN = 1e6

#: degree of the truncated Taylor series for exp(x·Ĝ); with |x|·‖Ĝ‖₁ ≤ 1 the
#: terms it drops sum to below 1.05/19! ≈ 8.6e-18
_TAYLOR_DEGREE = 18


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
        return checked(metric_operators(as_square_matrix(theta)[None])[0])


def metric_operators(theta) -> list:
    """``MetricOperator.from_matrix`` on each matrix of a stack (n, d, d) at
    once, without raising: per matrix its ``MetricOperator`` or the error it
    fails with."""
    t = np.asarray(theta)
    finite = np.isfinite(t).all(axis=(-2, -1))
    t = np.where(finite[:, None, None], t, 0.0)
    skew = stacked_fro(t - adjoint(t)) > 1e-12 * stacked_fro(t)
    t = 0.5 * (t + adjoint(t))
    eigs = np.linalg.eigvalsh(t)
    outcomes = []
    for i, w in enumerate(eigs):
        if not finite[i]:
            outcomes.append(ValueError("matrix entries must be finite"))
        elif skew[i]:
            outcomes.append(PositivityFailure("metric candidate is not Hermitian"))
        elif w[-1] <= 0.0 or w[0] <= 1e-12 * w[-1]:
            outcomes.append(PositivityFailure(
                f"metric candidate eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}] "
                "are not positive definite"
            ))
        else:
            outcomes.append(MetricOperator(t[i], float(w[0]), float(w[-1])))
    return outcomes


def _non_finite(times, angles, finite) -> NonFiniteState:
    """The error of a map table that is not ``finite`` at every time."""
    i = np.argmin(finite)
    return NonFiniteState(
        f"exp(theta*G) is not finite at t = {times[i]:.6g} (theta = {angles[i]:.6g})"
    )


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

    :meth:`omega` and :meth:`omega_inv` take a time or an array of times and
    return a map per time, shape ``np.shape(t) + (d, d)``; a constant family
    broadcasts its matrix.  For ``exp_poly`` every time goes through one
    batched degree-18 Taylor sum with scaling and squaring (Al-Mohy & Higham
    2009): A = θ(t)·G is a multiple of one matrix, so the sum is a polynomial
    in one real number per time over the cached terms Gᵏ/k!, evaluated by
    Horner's rule with no matrix factorized, and Ω⁻¹ = exp(−θ(t)·G).  A scalar
    time is a batch of one and gives the same bits as its row in an array
    call.

    Construction validates the finite square ``matrix`` or ``generator``
    and the finite ``theta`` coefficients, and inverts a constant map once
    (``SingularMatrix`` unless it inverts; an exponential map always does,
    but a map that overflows raises ``NonFiniteState`` when evaluated).
    """

    kind: str
    matrix: np.ndarray | None = None
    generator: np.ndarray | None = None
    theta: tuple[float, ...] = (0.0,)

    @classmethod
    def constant(cls, matrix) -> "DysonFamily":
        return cls(kind="constant", matrix=matrix)

    @classmethod
    def exp_poly(cls, generator, theta) -> "DysonFamily":
        return cls(kind="exp_poly", generator=generator, theta=theta)

    def __post_init__(self):
        if self.kind not in ("constant", "exp_poly"):
            raise ValueError(f"unknown Dyson family kind {self.kind!r}")
        name = "matrix" if self.kind == "constant" else "generator"
        if getattr(self, name) is None:
            raise ValueError(f"{self.kind} family needs a {name}")
        object.__setattr__(self, name, as_square_matrix(getattr(self, name)))
        theta = tuple(float(c) for c in self.theta) or (0.0,)
        if not np.isfinite(theta).all():
            raise ValueError("theta coefficients must be finite")
        object.__setattr__(self, "theta", theta)
        # polyder of a constant θ is (0.0,), so θ′ always has a coefficient
        object.__setattr__(self, "_theta_rate_coeffs", tuple(npoly.polyder(theta)))
        if self.kind == "constant":
            inverse, sv = inverse_with_singular_values(self.matrix)
            object.__setattr__(self, "_matrix_inv", inverse)
            object.__setattr__(self, "_matrix_sv", sv)

    @property
    def dim(self) -> int:
        base = self.matrix if self.kind == "constant" else self.generator
        return base.shape[0]

    def theta_at(self, t):
        """θ(t); an array of times gives an array of angles."""
        theta = npoly.polyval(t, self.theta)
        return theta if np.ndim(theta) else float(theta)

    def theta_rate(self, t):
        """θ′(t); an array of times gives an array of rates."""
        rate = npoly.polyval(t, self._theta_rate_coeffs)
        return rate if np.ndim(rate) else float(rate)

    @cached_property
    def _powers(self) -> tuple[int, float, np.ndarray]:
        """(e, ‖Ĝ‖₁, Ĝᵏ/k! for k = 0…18) for Ĝ = G/2^e, e chosen so ‖Ĝ‖₁ < 1.

        The column sums are taken of G/2^m, with 2^m above every real and
        imaginary part of G, so that they cannot overflow; both scalings are
        exact."""
        parts = self.generator.view(float)
        m = np.frexp(np.abs(parts).max())[1]
        column_sums = np.abs(np.ldexp(parts, -m).view(complex)).sum(axis=0)
        e = m + np.frexp(column_sums.max())[1]
        g = np.ldexp(parts, -e).view(complex)
        terms = np.empty((_TAYLOR_DEGREE + 1,) + g.shape, dtype=complex)
        terms[0] = np.eye(self.dim)
        for k in range(1, _TAYLOR_DEGREE + 1):
            np.matmul(terms[k - 1], g / k, out=terms[k])
        return int(e), float(np.abs(g).sum(axis=0).max()), terms

    def _exp(self, t, sign: float) -> np.ndarray:
        """exp(sign·θ(t)·G) for each entry of ``t``, shape ``np.shape(t) + (d, d)``.

        Each θ·G = x·2^s·Ĝ gets its own scaling s, the smallest with
        |x|·‖Ĝ‖₁ ≤ 1; the sum ((T₁₈·x + T₁₇)·x + … + T₁)·x + I over the terms
        Tₖ = Ĝᵏ/k! and the squarings are elementwise per time, so an entry's
        result does not depend on the rest of the batch.  ``NonFiniteState``
        names the first time whose angle is not finite, or whose map
        overflows; the callers turn off numpy's warnings for both.
        """
        e, norm, terms = self._powers
        times = np.ravel(t)
        angles = sign * npoly.polyval(times, self.theta)
        y = np.ldexp(angles, e)
        size = np.abs(y) * norm
        if not np.isfinite(size).all():
            raise _non_finite(times, angles, np.isfinite(size))
        s = np.ceil(np.log2(np.maximum(size, 1.0))).astype(int)
        x = np.ldexp(y, -s)[:, None, None]
        r = np.empty((x.size,) + terms.shape[1:], dtype=complex)
        real = r.view(float)  # times a real x: two products per entry, not six
        np.multiply(terms[-1].view(float), x, out=real)
        for term in terms[-2:0:-1]:
            r += term
            real *= x
        r += terms[0]
        for j in range(s.max(initial=0)):
            squared = s > j
            sub = r[squared]
            r[squared] = sub @ sub
        if not np.isfinite(r).all():
            raise _non_finite(times, angles, np.isfinite(r).all(axis=(1, 2)))
        return r.reshape(np.shape(t) + r.shape[1:])

    def omega(self, t) -> np.ndarray:
        """Ω(t); an array of times gives a stack of maps."""
        if self.kind == "constant":
            return np.broadcast_to(self.matrix, np.shape(t) + self.matrix.shape)
        with np.errstate(over="ignore", invalid="ignore"):  # raised by _exp
            return self._exp(t, 1.0)

    def omega_inv(self, t) -> np.ndarray:
        """Ω⁻¹(t) = exp(−θ(t)·G); an array of times gives a stack of maps."""
        if self.kind == "constant":
            return np.broadcast_to(self._matrix_inv, np.shape(t) + self.matrix.shape)
        with np.errstate(over="ignore", invalid="ignore"):  # raised by _exp
            return self._exp(t, -1.0)

    def connection(self, t: float) -> np.ndarray:
        """Ω⁻¹(t)·Ω̇(t), evaluated exactly."""
        if self.kind == "constant":
            return np.zeros((self.dim, self.dim), dtype=complex)
        return self.theta_rate(t) * self.generator


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
    return checked(spectral_metrics(system.left_vectors[None], k[None])[0])


def spectral_metrics(left_vectors, kappa) -> list:
    """``metric_from_spectral`` on each row of a stack of left eigenvectors
    (n, d, d) and of weights (n, d) at once, without raising: per row its
    ``MetricOperator`` or the error it fails with."""
    k = np.asarray(kappa)
    complex_rows = np.zeros(k.shape[0], dtype=bool)
    if np.iscomplexobj(k):
        complex_rows = np.abs(k.imag).max(axis=-1) > 0.0
        k = k.real
    k = k.astype(float)
    invalid = ~(np.isfinite(k) & (k > 0.0)).all(axis=-1)
    k = np.where((complex_rows | invalid)[:, None], 1.0, k)
    theta = (left_vectors * k[:, None, :]) @ adjoint(left_vectors)
    metrics = metric_operators(0.5 * (theta + adjoint(theta)))
    return [
        InvalidWeights("weights must be real") if imag
        else InvalidWeights("weights must be finite and strictly positive") if bad
        else metric
        for imag, bad, metric in zip(complex_rows, invalid, metrics)
    ]


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


def hermitize(hamiltonian, omega, t: float = 0.0) -> np.ndarray:
    """Similarity transform h = Ω·H·Ω⁻¹.

    ``omega`` is a map, or a ``DysonFamily`` taken at time ``t``; a constant
    family brings the inverse and singular values it computed when it was
    built, so its map is not factorized again.  The result is Hermitian (up
    to conditioning) exactly when H is quasi-Hermitian with respect to
    Θ = Ω†Ω, and is always isospectral with H.  When cond(Ω) exceeds
    ``COND_WARN`` an ``IllConditionedWarning`` is emitted because the
    Hermiticity residual scales with the condition number.
    """
    h = as_square_matrix(hamiltonian)
    if isinstance(omega, DysonFamily) and omega.kind == "constant":
        om, om_inv, sv = omega.matrix, omega._matrix_inv, omega._matrix_sv
    else:
        om = as_square_matrix(omega.omega(t) if isinstance(omega, DysonFamily) else omega)
        om_inv, sv = inverse_with_singular_values(om)
    if h.shape != om.shape:
        raise DimensionMismatch(
            f"operator shape {h.shape} does not match map shape {om.shape}"
        )
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


def _overlap(vphi: np.ndarray, vpsi: np.ndarray) -> complex:
    """⟨Ψ|Φ⟩; ``DegenerateOverlap`` when it is below 1e-12·‖Φ‖·‖Ψ‖."""
    overlap = complex(np.vdot(vpsi, vphi))
    if abs(overlap) <= 1e-12 * np.linalg.norm(vphi) * np.linalg.norm(vpsi):
        raise DegenerateOverlap(f"overlap {overlap:.3e} is numerically zero")
    return overlap


def projector_pair(phi, psi) -> np.ndarray:
    """Rank-one projector Π = |Φ⟩⟨Ψ| / ⟨Ψ|Φ⟩ built from a state doublet.

    Satisfies Π² = Π and trace Π = 1; when Ψ = Θ·Φ it is Hermitian with
    respect to the Θ-weighted inner product.
    """
    vphi = as_state(phi, np.size(phi))
    vpsi = as_state(psi, vphi.shape[0])
    return np.outer(vphi, vpsi.conj()) / _overlap(vphi, vpsi)


def expectation(observable, phi, psi) -> complex:
    """Doublet expectation ⟨Ψ|Λ|Φ⟩ / ⟨Ψ|Φ⟩.

    Real (to tolerance) whenever Λ†Θ = ΘΛ and Ψ = Θ·Φ.
    """
    lam = as_square_matrix(observable)
    vphi = as_state(phi, lam.shape[0])
    vpsi = as_state(psi, lam.shape[0])
    return complex(np.vdot(vpsi, lam @ vphi) / _overlap(vphi, vpsi))
