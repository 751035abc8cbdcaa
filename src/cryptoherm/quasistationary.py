"""Stationary-metric certification for polynomial-in-time Hamiltonian families.

Given Taylor coefficients H₀, H₁, … with real spectra, decide whether one
time-independent positive metric Θ makes every coefficient quasi-Hermitian
(H_m†Θ = ΘH_m for all m), or certify the first order at which that fails.

The order-0 condition is solved by the spectral expansion
Θ = Σ_n |Ψ₀,n⟩ κ_n ⟨Ψ₀,n| over the left eigenvectors of H₀ with free
positive weights κ.  The order-1 condition collapses, in the overlap
coordinates A_jk = ⟨Ψ₀,j|Φ₁,k⟩, to the diagonal-congruence problem
T·M = M†·T with M = A·F·A⁻¹, F = diag(ε₁) and T = diag(κ): each
significant entry pair fixes a weight ratio κ_k/κ_j = M_jk / M*_kj, rows of
zeros leave the corresponding weights free, and the full residual of
T·M − M†·T decides compatibility.  Weights are normalized to κ₁ = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DefectiveMatrix,
    DimensionMismatch,
    ExpectsRealSpectrum,
    SingularMatrix,
)
from .evolution import TaylorHamiltonian
from .linalg import SINGULAR_RTOL, as_square_matrix, biorthogonal_decompose, norm_fro
from .metric import MetricOperator, metric_from_spectral
from .models import _random_similarity

#: default relative tolerance for all certification decisions
DEFAULT_TOL_QS = 1e-8

#: relative bound on |Im ε| below which a spectrum counts as real
REAL_SPECTRUM_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class QSCertificate:
    """Outcome of the stationary-metric decision procedure.

    ``status`` is one of ``compatible``, ``incompatible``, ``exceptional``.
    ``kappa`` (κ₁ = 1) and ``metric`` are present whenever the weight
    extraction succeeded, even if a later order broke compatibility.
    ``residuals[m]`` is ‖H_m†Θ − ΘH_m‖ / (‖H_m‖·‖Θ‖) for each checked order.
    """

    status: str
    kappa: np.ndarray | None
    metric: MetricOperator | None
    first_violation_order: int | None
    residuals: tuple[float, ...]
    detail: str


@dataclass(frozen=True)
class ScanStats:
    """Counts from a seeded certification scan; deterministic given the seed."""

    trials: int
    dim: int
    seed: int
    compatible: int
    incompatible: int
    exceptional: int
    violation_orders: dict = field(default_factory=dict)

    def as_flat_dict(self) -> dict:
        out = {
            "trials": self.trials,
            "dim": self.dim,
            "seed": self.seed,
            "compatible": self.compatible,
            "incompatible": self.incompatible,
            "exceptional": self.exceptional,
        }
        for order in sorted(self.violation_orders):
            out[f"violation_order_{order}"] = self.violation_orders[order]
        return out


def stationarity_residual(coefficient, theta_matrix) -> float:
    """‖H†Θ − ΘH‖ / (‖H‖·‖Θ‖), with 0 for a zero coefficient."""
    h = np.asarray(coefficient, dtype=complex)
    den = norm_fro(h) * norm_fro(theta_matrix)
    if den == 0.0:
        return 0.0
    num = norm_fro(h.conj().T @ theta_matrix - theta_matrix @ h)
    return float(num / den)


def _require_real_spectrum(eigenvalues, label: str):
    scale = max(1.0, float(np.abs(eigenvalues).max()))
    worst = float(np.abs(eigenvalues.imag).max())
    if worst > REAL_SPECTRUM_RTOL * scale:
        raise ExpectsRealSpectrum(
            f"{label} has |Im eigenvalue| up to {worst:.3e}; a real spectrum is required"
        )


def _solve_weights(m: np.ndarray, threshold: float):
    """Positive-diagonal congruence solve for T·M = M†·T.

    Entry pairs with one magnitude above the significance threshold and the
    partner below it admit no positive solution through any ratio; they are
    reported as the exceptional (fine-tuned) stratum.  Insignificant pairs
    leave the weights decoupled; every connected component is seeded with
    weight 1 in index order, which pins κ₁ = 1.
    """
    n = m.shape[0]
    significant = np.abs(m) >= threshold
    for j in range(n):
        for k in range(j + 1, n):
            if significant[j, k] != significant[k, j]:
                return None, (
                    f"one-sided overlap pattern at entries ({j}, {k}): "
                    "weight ratios are not determined by a generic solve"
                )
    kappa = np.zeros(n, dtype=complex)
    known = np.zeros(n, dtype=bool)
    for root in range(n):
        if known[root]:
            continue
        kappa[root] = 1.0
        known[root] = True
        queue = [root]
        while queue:
            j = queue.pop(0)
            for k in range(n):
                if known[k] or k == j:
                    continue
                if significant[j, k] and significant[k, j]:
                    kappa[k] = kappa[j] * m[j, k] / np.conj(m[k, j])
                    known[k] = True
                    queue.append(k)
    return kappa, None


def qs_solve(h0, h1, tol_qs: float = DEFAULT_TOL_QS) -> QSCertificate:
    """Decide the orders 0-1 problem: one positive metric for both H₀ and H₁.

    Raises ``DefectiveMatrix`` when either coefficient fails to
    diagonalize, ``ExpectsRealSpectrum`` when a spectrum is not real to
    tolerance, and ``SingularMatrix`` when the overlap matrix between the
    two eigenbases degenerates.
    """
    h0 = as_square_matrix(h0)
    h1 = as_square_matrix(h1)
    if h0.shape != h1.shape:
        raise DimensionMismatch(
            f"coefficient shapes {h0.shape} and {h1.shape} do not match"
        )
    sys0 = biorthogonal_decompose(h0)
    sys1 = biorthogonal_decompose(h1)
    _require_real_spectrum(sys0.eigenvalues, "order-0 coefficient")
    _require_real_spectrum(sys1.eigenvalues, "order-1 coefficient")

    a = sys0.left_vectors.conj().T @ sys1.right_vectors
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < SINGULAR_RTOL * sv[0]:
        raise SingularMatrix("overlap matrix between the eigenbases is singular")
    f = sys1.eigenvalues.real
    m = (a * f) @ np.linalg.inv(a)

    scale = norm_fro(m)
    kappa_c, exceptional_detail = _solve_weights(m, tol_qs * scale)
    if kappa_c is None:
        return QSCertificate(
            status="exceptional",
            kappa=None,
            metric=None,
            first_violation_order=None,
            residuals=(),
            detail=exceptional_detail,
        )

    worst_imag = float(np.abs(kappa_c.imag).max())
    min_real = float(kappa_c.real.min())
    if worst_imag > tol_qs or min_real <= tol_qs:
        return QSCertificate(
            status="incompatible",
            kappa=None,
            metric=None,
            first_violation_order=None,
            residuals=(),
            detail=(
                "weight extraction produced non-real or non-positive values "
                f"(max |Im| = {worst_imag:.3e}, min Re = {min_real:.3e})"
            ),
        )

    kappa = kappa_c.real.copy()
    theta = metric_from_spectral(sys0, kappa)
    r0 = stationarity_residual(h0, theta.matrix)
    r1 = stationarity_residual(h1, theta.matrix)
    congruence = float(
        np.abs(kappa[:, None] * m - m.conj().T * kappa[None, :]).max()
    )
    if congruence > tol_qs * scale * kappa.max() or max(r0, r1) > tol_qs:
        return QSCertificate(
            status="incompatible",
            kappa=kappa,
            metric=theta,
            first_violation_order=1,
            residuals=(r0, r1),
            detail=(
                "the linear coefficient is not quasi-Hermitian for any positive "
                f"weight choice (congruence residual {congruence:.3e})"
            ),
        )
    return QSCertificate(
        status="compatible",
        kappa=kappa,
        metric=theta,
        first_violation_order=None,
        residuals=(r0, r1),
        detail="",
    )


def qs_certify(hamiltonian: TaylorHamiltonian, tol_qs: float = DEFAULT_TOL_QS) -> QSCertificate:
    """Certify a full Taylor family against one stationary metric.

    Solves the orders 0-1 problem, then checks every higher coefficient as a
    residual against the found metric; the smallest violating order is
    reported.  A compatible certificate on a degree-1 family is the generic
    best case: higher-degree families generically violate at order 2.
    """
    if hamiltonian.degree < 1:
        raise ValueError("certification needs at least a linear coefficient")
    cert = qs_solve(hamiltonian.coefficients[0], hamiltonian.coefficients[1], tol_qs)
    if cert.status != "compatible" or hamiltonian.degree == 1:
        return cert

    residuals = list(cert.residuals)
    first_violation = None
    for order in range(2, hamiltonian.degree + 1):
        r = stationarity_residual(hamiltonian.coefficients[order], cert.metric.matrix)
        residuals.append(r)
        if first_violation is None and r > tol_qs:
            first_violation = order
    if first_violation is not None:
        return QSCertificate(
            status="incompatible",
            kappa=cert.kappa,
            metric=cert.metric,
            first_violation_order=first_violation,
            residuals=tuple(residuals),
            detail=f"coefficient of order {first_violation} breaks the stationary metric",
        )
    return QSCertificate(
        status="compatible",
        kappa=cert.kappa,
        metric=cert.metric,
        first_violation_order=None,
        residuals=tuple(residuals),
        detail="",
    )


#: planted eigenvalues lie in [−2, 2], at least this far apart
PLANTED_GAP = 0.1


def _planted_top(dim: int, min_gap: float = PLANTED_GAP) -> float:
    """Upper end of [−2, 2] shortened by (dim − 1)·gap; ``ValueError`` unless
    some room is left, that is unless (dim − 1)·gap < 4."""
    top = 2.0 - (dim - 1) * min_gap
    if not top > -2.0:
        raise ValueError(f"cannot plant {dim} eigenvalues {min_gap} apart in [-2, 2]")
    return top


def _planted_spectrum(rng, dim: int, min_gap: float = PLANTED_GAP) -> np.ndarray:
    """Sorted uniform eigenvalues in [−2, 2] with every gap at least ``min_gap``.

    Sorted uniforms on the interval shortened by (dim − 1)·gap, plus k·gap for
    the k-th, have the law of uniform draws conditioned on the gaps, and take
    one draw.
    """
    top = _planted_top(dim, min_gap)
    return np.sort(rng.uniform(-2.0, top, dim)) + min_gap * np.arange(dim)


def sample_shared(rng, dim: int) -> TaylorHamiltonian:
    """Degree-1 family with both coefficients similar through one random S;
    a stationary metric exists by construction."""
    e0, e1 = _planted_spectrum(rng, dim), _planted_spectrum(rng, dim)
    s = _random_similarity(rng, dim, cond_cap=100.0)
    s_inv = np.linalg.inv(s)
    return TaylorHamiltonian(((s * e0) @ s_inv, (s * e1) @ s_inv))


def sample_independent(rng, dim: int) -> TaylorHamiltonian:
    """Degree-1 family with independently drawn similarity transforms;
    generically no stationary metric exists."""
    e0, e1 = _planted_spectrum(rng, dim), _planted_spectrum(rng, dim)
    s0 = _random_similarity(rng, dim, cond_cap=100.0)
    s1 = _random_similarity(rng, dim, cond_cap=100.0)
    h0 = (s0 * e0) @ np.linalg.inv(s0)
    h1 = (s1 * e1) @ np.linalg.inv(s1)
    return TaylorHamiltonian((h0, h1))


def sample_shared_degree2(rng, dim: int) -> TaylorHamiltonian:
    """Shared-similarity degree-1 family extended by a random quadratic
    coefficient; generically violates at order 2."""
    base = sample_shared(rng, dim)
    h2 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return TaylorHamiltonian(base.coefficients + (h2,))


SAMPLERS = {
    "shared": sample_shared,
    "independent": sample_independent,
    "shared-degree2": sample_shared_degree2,
}


def qs_scan(
    sampler,
    trials: int,
    dim: int,
    seed: int,
    tol_qs: float = DEFAULT_TOL_QS,
) -> ScanStats:
    """Certify ``trials`` independently sampled families and count outcomes.

    ``sampler`` is a callable ``(rng, dim) -> TaylorHamiltonian`` (or a key
    of :data:`SAMPLERS`).  Trial i uses ``default_rng(seed + i)``, so trials
    are independent and the whole scan is deterministic given the seed.
    Decomposition failures and singular overlaps count as exceptional.
    The built-in samplers plant spectra 0.1 apart in [−2, 2] and raise
    ``ValueError`` for ``dim`` > 40, where no such spectrum exists.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if isinstance(sampler, str):
        sampler = SAMPLERS[sampler]
    compatible = incompatible = exceptional = 0
    violation_orders: dict[int, int] = {}
    for i in range(trials):
        rng = np.random.default_rng(seed + i)
        family = sampler(rng, dim)
        try:
            cert = qs_certify(family, tol_qs)
        except (DefectiveMatrix, SingularMatrix, ExpectsRealSpectrum):
            exceptional += 1
            continue
        if cert.status == "compatible":
            compatible += 1
        elif cert.status == "incompatible":
            incompatible += 1
            if cert.first_violation_order is not None:
                violation_orders[cert.first_violation_order] = (
                    violation_orders.get(cert.first_violation_order, 0) + 1
                )
        else:
            exceptional += 1
    return ScanStats(
        trials=trials,
        dim=dim,
        seed=seed,
        compatible=compatible,
        incompatible=incompatible,
        exceptional=exceptional,
        violation_orders=violation_orders,
    )
