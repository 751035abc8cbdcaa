"""Reference model builders.

Discretized 1-d Schrödinger operators, a parametric 2x2 family, seeded
samplers with planted real spectra (``SAMPLERS`` draws stacks of the Taylor
families ``quasistationary.qs_scan`` certifies), and ready-made scenarios
for the propagators.  Everything is deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DimensionMismatch, ResampleExhausted
from .evolution import TaylorHamiltonian
from .linalg import invert_stack
from .metric import DysonFamily

#: default conditioning cap for random similarity transforms
DEFAULT_COND_CAP = 100.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform coordinate grid on [x_min, x_max] with n_points samples."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 3:
            raise ValueError(f"need at least 3 grid points, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


def discretize_schrodinger(potential, grid: GridSpec) -> np.ndarray:
    """H = −d²/dx² + V(x) on a uniform grid with Dirichlet boundaries.

    Units are chosen so the kinetic term is exactly −d²/dx² (hbar = 1,
    mass = 1/2).  The 3-point stencil is symmetric, so a real potential
    yields an exactly Hermitian matrix; a complex potential yields a
    non-Hermitian one whose spectrum may still be real.
    """
    v = np.asarray(potential, dtype=complex)
    if v.ndim != 1 or v.shape[0] != grid.n_points:
        raise DimensionMismatch(
            f"potential must have {grid.n_points} samples, got shape {v.shape}"
        )
    inv_h2 = 1.0 / grid.spacing**2
    n = grid.n_points
    h = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(h, 2.0 * inv_h2 + v)
    idx = np.arange(n - 1)
    h[idx, idx + 1] = -inv_h2
    h[idx + 1, idx] = -inv_h2
    return h


def model_2x2(r: float, s: float, phi: float) -> np.ndarray:
    """Two-level family [[r·e^{iφ}, s], [s, r·e^{−iφ}]].

    Eigenvalues are r·cosφ ± sqrt(s² − r²·sin²φ): real iff s² ≥ r²·sin²φ,
    with an eigenvector coalescence exactly at equality.
    """
    if s == 0:
        raise ValueError("coupling s must be nonzero")
    return np.array(
        [[r * np.exp(1j * phi), s], [s, r * np.exp(-1j * phi)]], dtype=complex
    )


def _gaussians(rngs, dim: int) -> np.ndarray:
    """One complex Gaussian d×d matrix from each generator, a stack (n, d, d):
    the real part, then the imaginary part, in one ``standard_normal`` call."""
    z = np.array([rng.standard_normal((2, dim, dim)) for rng in rngs])
    return z[:, 0] + 1j * z[:, 1]


def _random_similarities(rngs, dim: int, cond_cap: float):
    """Per generator of ``rngs`` a complex Gaussian S with σ_max/σ_min ≤
    ``cond_cap``, and S⁻¹, as two stacks (n, d, d).

    The draws go in rounds: every generator still without an S draws one
    candidate, and one ``invert_stack`` gates the whole round.  A rejected
    generator draws again from its own stream, so each generator draws what
    it would draw alone.  A numerically singular draw is rejected whatever
    the cap, and a generator rejected 100 times raises ``ResampleExhausted``.
    """
    s = np.empty((len(rngs), dim, dim), dtype=complex)
    s_inv = np.empty_like(s)
    pending = np.arange(len(rngs))
    for _ in range(100):
        draws = _gaussians([rngs[i] for i in pending], dim)
        inverses, sv, singular = invert_stack(draws)
        with np.errstate(divide="ignore", invalid="ignore"):  # singular draws
            accepted = ~singular & (sv[:, 0] / sv[:, -1] <= cond_cap)
        s[pending[accepted]] = draws[accepted]
        s_inv[pending[accepted]] = inverses[accepted]
        pending = pending[~accepted]
        if not pending.size:
            return s, s_inv
    raise ResampleExhausted(
        f"no similarity transform with condition <= {cond_cap} in 100 draws"
    )


#: planted eigenvalues lie in [−2, 2], at least this far apart
PLANTED_GAP = 0.1


def _planted_top(dim: int) -> float:
    """Upper end of [−2, 2] shortened by (dim − 1)·gap; ``ValueError`` unless
    some room is left, that is unless (dim − 1)·gap < 4."""
    top = 2.0 - (dim - 1) * PLANTED_GAP
    if not top > -2.0:
        raise ValueError(f"cannot plant {dim} eigenvalues {PLANTED_GAP} apart in [-2, 2]")
    return top


def _planted_spectra(rngs, dim: int, count: int) -> np.ndarray:
    """``count`` spectra from each generator, shape (n, count, d): sorted
    uniform eigenvalues in [−2, 2] with every gap at least ``PLANTED_GAP``.

    Sorted uniforms on the interval shortened by (dim − 1)·gap, plus k·gap for
    the k-th, have the law of uniform draws conditioned on the gaps; each
    generator makes one ``uniform`` call for its spectra.
    """
    top = _planted_top(dim)
    draws = np.array([rng.uniform(-2.0, top, (count, dim)) for rng in rngs])
    return np.sort(draws, axis=-1) + PLANTED_GAP * np.arange(dim)


def _shared_stack(rngs, dim: int) -> np.ndarray:
    """(n, 2, d, d): the coefficients of ``sample_shared`` from each generator."""
    e = _planted_spectra(rngs, dim, 2)
    s, s_inv = _random_similarities(rngs, dim, DEFAULT_COND_CAP)
    return (s[:, None] * e[..., None, :]) @ s_inv[:, None]


def _independent_stack(rngs, dim: int) -> np.ndarray:
    """(n, 2, d, d): the coefficients of ``sample_independent`` from each
    generator; every S₀ is drawn before any S₁."""
    e = _planted_spectra(rngs, dim, 2)
    (s0, s0_inv), (s1, s1_inv) = (
        _random_similarities(rngs, dim, DEFAULT_COND_CAP) for _ in range(2)
    )
    return (np.stack((s0, s1), axis=1) * e[..., None, :]) @ np.stack((s0_inv, s1_inv), axis=1)


def _shared_degree2_stack(rngs, dim: int) -> np.ndarray:
    """(n, 3, d, d): the coefficients of ``sample_shared_degree2`` from each
    generator; H₂ is drawn after S."""
    base = _shared_stack(rngs, dim)
    return np.concatenate((base, _gaussians(rngs, dim)[:, None]), axis=1)


def _one_family(draw, rng, dim: int) -> TaylorHamiltonian:
    """The family a stacked drawer draws from the one generator ``rng``."""
    return TaylorHamiltonian(tuple(draw([rng], dim)[0]))


def sample_shared(rng, dim: int) -> TaylorHamiltonian:
    """Degree-1 family with both coefficients similar through one random S;
    a stationary metric exists by construction."""
    return _one_family(_shared_stack, rng, dim)


def sample_independent(rng, dim: int) -> TaylorHamiltonian:
    """Degree-1 family with independently drawn similarity transforms;
    generically no stationary metric exists."""
    return _one_family(_independent_stack, rng, dim)


def sample_shared_degree2(rng, dim: int) -> TaylorHamiltonian:
    """Shared-similarity degree-1 family extended by a random quadratic
    coefficient; generically violates at order 2."""
    return _one_family(_shared_degree2_stack, rng, dim)


_shared_stack.degree = _independent_stack.degree = 1
_shared_degree2_stack.degree = 2

#: the built-in samplers, by the name ``qs_scan`` and the CLI take: each is a
#: drawer ``draw(rngs, dim)`` of the coefficient stack (len(rngs), degree + 1,
#: d, d) of the families the public ``sample_*`` draws from each generator,
#: with that ``degree`` as its attribute
SAMPLERS = {
    "shared": _shared_stack,
    "independent": _independent_stack,
    "shared-degree2": _shared_degree2_stack,
}


def random_cryptohermitian(
    dim: int, spectrum, seed: int, cond_cap: float | None = None
) -> np.ndarray:
    """H = S·diag(spectrum)·S⁻¹ with a seeded random S of bounded condition.

    The planted spectrum is real, so H is non-Hermitian with a real spectrum;
    the output is bitwise reproducible for a given seed.  ``cond_cap``
    defaults to ``DEFAULT_COND_CAP``.
    """
    values = np.asarray(spectrum, dtype=float)
    if values.shape != (dim,):
        raise DimensionMismatch(f"expected {dim} eigenvalues, got shape {values.shape}")
    cap = DEFAULT_COND_CAP if cond_cap is None else cond_cap
    (s,), (s_inv,) = _random_similarities([np.random.default_rng(seed)], dim, cap)
    return (s * values) @ s_inv


def _random_hermitian(rng, dim: int, norm2: float) -> np.ndarray:
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (x + x.conj().T)
    return h * (norm2 / np.linalg.norm(h, 2))


def _random_nilpotent(rng, dim: int, norm2: float) -> np.ndarray:
    # rank-1 nilpotent: G = u·v† with v ⊥ u, so G² = 0 and exp(aG) = I + aG
    u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = v - u * (np.vdot(u, v) / np.vdot(u, u))
    g = np.outer(u, v.conj())
    return g * (norm2 / np.linalg.norm(g, 2))


def _pullback_taylor(h_coeffs, g: np.ndarray, theta) -> TaylorHamiltonian:
    """Exact Taylor coefficients of (I − θ(t)G)·h(t)·(I + θ(t)G) for G² = 0."""
    theta = list(theta)
    theta_sq = list(npoly.polymul(theta, theta))
    comm = [h @ g - g @ h for h in h_coeffs]
    ghg = [g @ h @ g for h in h_coeffs]
    degree = max(
        len(h_coeffs) - 1,
        len(theta) + len(comm) - 2,
        len(theta_sq) + len(ghg) - 2,
    )
    dim = h_coeffs[0].shape[0]
    out = [np.zeros((dim, dim), dtype=complex) for _ in range(degree + 1)]
    for m, h in enumerate(h_coeffs):
        out[m] += h
    for i, a in enumerate(theta):
        for j, c in enumerate(comm):
            out[i + j] += a * c
    for i, a in enumerate(theta_sq):
        for j, c in enumerate(ghg):
            out[i + j] -= a * c
    return TaylorHamiltonian(tuple(out))


def scenario_falsification():
    """Fixed 2x2 model on which the naive evolution law measurably breaks
    physical-norm conservation while the covariant law preserves it.

    The drive G = 1.5·|1⟩⟨2| is nilpotent, so Ω(t) = exp(t·G) = I + t·G
    exactly and the hermitized image of H(t) = H₀ + t·H₁ is the constant
    diag(1, −1): the covariant dynamics is exactly unitary in the
    instantaneous metric.  G does not commute with H₀ and ‖Ω⁻¹Ω̇‖ = ‖G‖ ≥ 1,
    so the dropped connection term is order one.

    Returns ``(hamiltonian, family, phi0, grid)`` with a unit initial state
    and an 21-point output grid on [0, 1].
    """
    a, b, g = 1.0, -1.0, 1.5
    gmat = np.array([[0.0, g], [0.0, 0.0]], dtype=complex)
    h0 = np.diag([a, b]).astype(complex)
    h1 = (a - b) * gmat
    hamiltonian = TaylorHamiltonian((h0, h1))
    family = DysonFamily.exp_poly(gmat, (0.0, 1.0))
    phi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    grid = np.linspace(0.0, 1.0, 21)
    return hamiltonian, family, phi0, grid


def scenario_random(dim: int, seed: int):
    """Seeded random model whose hermitized image is exactly Hermitian.

    Draws Hermitian generators h₀, h₁ and a rank-1 nilpotent drive G
    (G² = 0), sets Ω(t) = exp(θ(t)·G) with θ(0) = 0, and expands
    H(t) = Ω⁻¹(t)·(h₀ + t·h₁)·Ω(t) into an exact matrix polynomial.  By
    construction Ω(t)H(t)Ω⁻¹(t) = h₀ + t·h₁, so all three propagation
    pictures apply, the doublet overlap equals the metric norm, and both are
    conserved by the exact flow.

    Returns ``(hamiltonian, family, phi0, grid)`` with an 11-point output
    grid on [0, 1].  Scales are tuned so that at step 1e-3 the integrator
    truncation error dominates roundoff while staying below 1e-8.
    """
    rng = np.random.default_rng(seed)
    h0 = _random_hermitian(rng, dim, rng.uniform(6.0, 7.5))
    h1 = _random_hermitian(rng, dim, rng.uniform(3.0, 4.0))
    g = _random_nilpotent(rng, dim, rng.uniform(1.5, 1.9))
    theta = (0.0, rng.uniform(0.95, 1.1), rng.uniform(-0.10, 0.10))
    hamiltonian = _pullback_taylor([h0, h1], g, theta)
    family = DysonFamily.exp_poly(g, theta)
    phi0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    phi0 = phi0 / np.linalg.norm(phi0)
    grid = np.linspace(0.0, 1.0, 11)
    return hamiltonian, family, phi0, grid
