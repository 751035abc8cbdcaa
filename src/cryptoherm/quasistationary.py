"""Stationary-metric certification for polynomial-in-time Hamiltonian families.

Given Taylor coefficients H₀, H₁, … with H₀ diagonalizable with a real
spectrum, decide whether one time-independent positive metric Θ makes every
coefficient quasi-Hermitian (H_m†Θ = ΘH_m for all m), or certify the first
order at which that fails.

The order-0 condition is solved by the spectral expansion
Θ = Σ_n |Ψ₀,n⟩ κ_n ⟨Ψ₀,n| over the left eigenvectors of H₀ with free
positive weights κ.  The order-1 condition collapses, in H₀'s biorthonormal
basis, to the diagonal-congruence problem T·M = M†·T with
M_jk = ⟨Ψ₀,j|H₁|Φ₀,k⟩ (H₁ written in that basis) and T = diag(κ): each
significant entry pair fixes a weight ratio κ_k/κ_j = M_jk / M*_kj, rows of
zeros leave the corresponding weights free, and the full residual of
T·M − M†·T decides compatibility.  The higher coefficients, in the same
basis, fix the weights order 1 leaves free where they can.  Weights are
normalized to κ₁ = 1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    DefectiveMatrix,
    DimensionMismatch,
    ExpectsRealSpectrum,
    PositivityFailure,
    checked,
)
from .evolution import TaylorHamiltonian
from .linalg import (
    BIORTHO_TOL,
    adjoint,
    as_square_stack,
    decompose_stack,
    stacked_fro,
)
from .metric import MetricOperator, spectral_metrics

# the samplers live in models and stay importable from here
from .models import (
    SAMPLERS,
    sample_independent,
    sample_shared,
    sample_shared_degree2,
)

#: default relative tolerance for all certification decisions
DEFAULT_TOL_QS = 1e-8

#: relative bound on |Im ε| below which a spectrum counts as real
REAL_SPECTRUM_RTOL = 1e-8

#: most trials one qs_scan may run; a built-in sampler's trial takes about
#: 0.2 ms at dim 8 and at most 4.5 ms at dim 40 (2-vCPU VM), so a scan ends
#: within about eight minutes
MAX_TRIALS = 10**5

#: coefficient bytes qs_scan samples before it certifies them as one stack,
#: so memory does not grow with the number of trials: the stack peaks at
#: about ten times its coefficients (2.5 MiB at dims 8 and 40), and larger
#: stacks no longer run faster per trial
SCAN_BYTES = 256 * 1024


@dataclass(frozen=True, eq=False)
class QSCertificate:
    """Outcome of the stationary-metric decision procedure.

    ``status`` is one of ``compatible``, ``incompatible``, ``exceptional``.
    ``kappa`` (κ₁ = 1) and ``metric`` are present whenever the weight
    extraction succeeded, even if a later order broke compatibility.
    ``residuals[m]`` is ‖H_m†Θ − ΘH_m‖ / (‖H_m‖·‖Θ‖) for each checked order.
    """

    status: str
    kappa: np.ndarray | None = None
    metric: MetricOperator | None = None
    first_violation_order: int | None = None
    residuals: tuple[float, ...] = ()
    detail: str = ""


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
        out = asdict(self)
        orders = out.pop("violation_orders")
        return out | {f"violation_order_{k}": orders[k] for k in sorted(orders)}


def _unit_scaled(matrices) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix of a complex stack (..., d, d) times the power of two 2⁻ᵉ
    that brings its largest real or imaginary part into [½, 1), and the
    exponents e (0 for a zero matrix).  The scaling is exact, so a ratio of
    the scaled matrices keeps its bits, while one far from unit scale no
    longer underflows a threshold or overflows a product."""
    f = np.ascontiguousarray(matrices, dtype=complex).view(float)
    e = np.frexp(np.abs(f).max(axis=(-2, -1)))[1]
    return np.ldexp(f, -e[..., None, None]).view(complex), e


def stationarity_residual(coefficient, theta_matrix):
    """‖H†Θ − ΘH‖ / (‖H‖·‖Θ‖), with 0 for a zero coefficient.

    Stacks (..., d, d) of coefficients and of metrics broadcast against each
    other and give an array of residuals; two matrices give a float.  H and
    Θ are first brought to unit scale, so the residual does not depend on
    their units.
    """
    h, theta = _unit_scaled(coefficient)[0], _unit_scaled(theta_matrix)[0]
    den = stacked_fro(h) * stacked_fro(theta)
    num = stacked_fro(adjoint(h) @ theta - theta @ h)
    residual = np.divide(num, den, out=np.zeros(num.shape), where=den != 0.0)
    return float(residual) if residual.ndim == 0 else residual


def _complex_spectra(eigenvalues) -> list:
    """Per spectrum of a stack (n, d) of H₀'s, ``None`` or the
    ``ExpectsRealSpectrum`` it fails with; the bound is relative to the
    largest |λ|, with no floor, and a zero spectrum is real."""
    scale = np.abs(eigenvalues).max(axis=-1)
    worst = np.abs(eigenvalues.imag).max(axis=-1)
    return [
        ExpectsRealSpectrum(
            f"order-0 coefficient has |Im eigenvalue| up to {w:.3e}; a real spectrum is required"
        )
        if w > REAL_SPECTRUM_RTOL * sc
        else None
        for w, sc in zip(worst, scale)
    ]


def _solve_weights(ms: np.ndarray, links: np.ndarray) -> np.ndarray:
    """Positive-diagonal congruence solve for T·M = M†·T, per family of a
    stack, over symmetric masks of significant entries.

    ``ms`` is the stack (n, degree, d, d) of each family's (M⁽¹⁾, M⁽²⁾, …),
    ``links`` a mask of the same shape, and κ comes back as (n, d).  Every
    weight starts at 1 in a component of its own.  Order by order, each pair
    (j, k) in the mask of M⁽ᵐ⁾, in row-major order, joins the components of j
    and k by fixing κ_k/κ_j = M_jk / M*_kj; the component with the later
    root takes the factor, so each component's first index keeps weight 1,
    which pins κ₁ = 1.  A pair within one component fixes nothing, and a
    component that no pair reaches keeps its weights.  Each pair (0, k) of
    M⁽¹⁾ meets a weight still alone, so these are taken for every family at
    once; each later pair joins all the families that link it in one step,
    and the loop runs only over pairs that some family has yet to join.  A
    family's κ is bitwise what it gets in a stack of one.
    """
    d = ms.shape[-1]
    kappa = np.ones((len(ms), d), dtype=complex)
    np.divide(ms[:, 0, 0, 1:], ms[:, 0, 1:, 0].conj(), out=kappa[:, 1:], where=links[:, 0, 0, 1:])
    root = np.where(links[:, 0, 0], 0, np.arange(d))
    pending = np.triu(links, 1) & (root[:, None, :, None] != root[:, None, None, :])
    for o, j, k in np.argwhere(pending.any(axis=0)).tolist():
        f = np.flatnonzero(pending[:, o, j, k] & (root[:, j] != root[:, k]))
        rj, rk = root[f, j], root[f, k]
        c = kappa[f, j] * ms[f, o, j, k] / ms[f, o, k, j].conj() / kappa[f, k]
        c[rk < rj] = 1.0 / c[rk < rj]
        joined = root[f] == np.maximum(rj, rk)[:, None]
        kappa[f] = np.where(joined, kappa[f] * c[:, None], kappa[f])
        root[f] = np.where(joined, np.minimum(rj, rk)[:, None], root[f])
    return kappa


def _certify_stack(coefficients: np.ndarray, tol_qs: float) -> list:
    """``qs_certify`` on every family of a stack (n, degree + 1, d, d),
    degree ≥ 1: per family its certificate or the error it raises.

    H₀'s decomposition and real spectrum are the only gates; an H₁ that no
    positive metric serves is refuted by the steps below.  The decomposition,
    M⁽ᵐ⁾ = L₀†·H_m·R₀ (H_m in H₀'s biorthonormal basis) and the residuals of
    every order are computed for the whole stack at once.  A pattern of M⁽¹⁾
    with a one-sided pair is exceptional, and one ``_solve_weights`` call
    takes the weights of every other family.  Rows that fail a gate have
    their links cleared and get garbage in the later stacked steps, which is
    never read.
    """
    n, d = coefficients.shape[0], coefficients.shape[-1]
    sys0, failed0 = decompose_stack(coefficients[:, 0], BIORTHO_TOL)
    outcomes = [f or c for f, c in zip(failed0, _complex_spectra(sys0.eigenvalues))]
    failed = np.array([o is not None for o in outcomes])
    # each H_m, m ≥ 1, at unit scale: κ and every decision keep their bits,
    # while a subnormal H_m no longer underflows the threshold or overflows a
    # ratio
    h, e = _unit_scaled(coefficients[:, 1:])
    ms = adjoint(sys0.left_vectors)[:, None] @ h @ sys0.right_vectors[:, None]
    scales = stacked_fro(ms)
    # a zero entry is never significant, so that M⁽ᵐ⁾ = 0 (a zero H_m), where
    # the threshold is 0, leaves every weight free
    links = (np.abs(ms) >= tol_qs * scales[..., None, None]) & (ms != 0)
    m, scale, significant = ms[:, 0], scales[:, 0], links[:, 0]
    # a pair of a higher order links the weights of j and k when it is
    # significant on both sides and the ratio it fixes, κ_k/κ_j = M_jk / M*_kj,
    # is real and positive
    higher = ms[:, 1:]
    two_sided = links[:, 1:] & links[:, 1:].swapaxes(2, 3)
    ratio = np.divide(higher, adjoint(higher), out=np.zeros_like(higher), where=two_sided)
    links[:, 1:] = two_sided & (np.abs(ratio.imag) <= tol_qs * np.abs(ratio)) & (ratio.real > 0)
    # a pair with one entry significant and its partner not admits no
    # positive ratio: the first such (j, k) in row-major order is reported
    one_sided = np.triu(significant != significant.swapaxes(1, 2)).reshape(n, d * d)
    exceptional = ~failed & one_sided.any(axis=1)
    for i in np.flatnonzero(exceptional):
        j, k = divmod(int(one_sided[i].argmax()), d)
        outcomes[i] = QSCertificate("exceptional", detail=(
            f"one-sided overlap pattern at entries ({j}, {k}): "
            "weight ratios are not determined by a generic solve"
        ))
    links[failed | exceptional] = False
    kappa_c = _solve_weights(ms, links)

    worst_imag = np.abs(kappa_c.imag).max(axis=1)
    min_real = kappa_c.real.min(axis=1)
    for i in range(n):
        if outcomes[i] is None and (worst_imag[i] > tol_qs or min_real[i] <= tol_qs):
            outcomes[i] = QSCertificate("incompatible", detail=(
                "weight extraction produced non-real or non-positive values "
                f"(max |Im| = {worst_imag[i]:.3e}, min Re = {min_real[i]:.3e})"
            ))
    # Θ of the whole stack, so that each matrix keeps the memory layout of a
    # one-family call; decided rows, whose weights may be garbage, take κ = 1
    # and are not read
    weighted = np.array([o is None for o in outcomes])
    kappa = np.where(weighted[:, None], kappa_c.real, 1.0)
    for i, metric in enumerate(spectral_metrics(sys0.left_vectors, kappa)):
        if weighted[i]:
            outcomes[i] = metric
    rows = np.flatnonzero([isinstance(o, MetricOperator) for o in outcomes])
    if not rows.size:
        return outcomes
    theta = np.array([outcomes[i].matrix for i in rows])
    residuals = stationarity_residual(coefficients[rows], theta[:, None])
    kappa, m = kappa[rows], m[rows]
    congruence = np.abs(kappa[:, :, None] * m - adjoint(m) * kappa[:, None, :]).max(axis=(1, 2))
    for j, i in enumerate(rows):
        r = tuple(float(x) for x in residuals[j])
        fields = dict(kappa=kappa[j], metric=outcomes[i])
        order = next((o for o in range(2, len(r)) if r[o] > tol_qs), None)
        if congruence[j] > tol_qs * scale[i] * kappa[j].max() or max(r[:2]) > tol_qs:
            outcomes[i] = QSCertificate(
                "incompatible", first_violation_order=1, residuals=r[:2], detail=(
                    "the linear coefficient is not quasi-Hermitian for any positive "
                    f"weight choice (congruence residual {np.ldexp(congruence[j], e[i, 0]):.3e})"
                ), **fields,
            )
        elif order is None:
            outcomes[i] = QSCertificate("compatible", residuals=r, **fields)
        else:
            outcomes[i] = QSCertificate(
                "incompatible", first_violation_order=order, residuals=r,
                detail=f"coefficient of order {order} breaks the stationary metric", **fields,
            )
    return outcomes


def qs_solve(h0, h1, tol_qs: float = DEFAULT_TOL_QS) -> QSCertificate:
    """Decide the orders 0-1 problem: one positive metric for both H₀ and H₁,
    as ``qs_certify`` of the degree-1 family (H₀, H₁).

    Raises ``DimensionMismatch`` when the shapes differ, ``DefectiveMatrix``
    when H₀ fails to diagonalize, ``ExpectsRealSpectrum`` when H₀'s spectrum
    is not real to tolerance, and ``PositivityFailure`` when the metric
    candidate is not positive definite.  H₁ is not factorized: one that is
    not diagonalizable or has a non-real spectrum gets a certificate,
    ``exceptional`` (a one-sided overlap pattern) or ``incompatible``.
    """
    return qs_certify(TaylorHamiltonian((h0, h1)), tol_qs)


def _check_tol(tol_qs: float) -> None:
    if not (np.isfinite(tol_qs) and tol_qs > 0):
        raise ValueError(f"tol_qs must be a finite number > 0, got {tol_qs!r}")


def qs_certify(hamiltonian: TaylorHamiltonian, tol_qs: float = DEFAULT_TOL_QS) -> QSCertificate:
    """Certify a full Taylor family against one stationary metric.

    Solves the orders 0-1 problem, with the weights order 1 leaves free
    fixed by the higher coefficients where they can be, then checks every
    higher coefficient as a residual against the found metric; the smallest
    violating order is reported.  A compatible certificate on a degree-1
    family is the generic best case: higher-degree families generically
    violate at order 2.  Raises as ``qs_solve`` does, and ``ValueError`` for
    a degree-0 family or a ``tol_qs`` that is not a finite number > 0.
    """
    _check_tol(tol_qs)
    if hamiltonian.degree < 1:
        raise ValueError("certification needs at least a linear coefficient")
    return checked(_certify_stack(np.array([hamiltonian.coefficients]), tol_qs)[0])


def _trial_rng(seed: int, i: int) -> np.random.Generator:
    """The generator of scan trial i: ``SeedSequence(seed).spawn(i + 1)[i]``,
    built without the other children."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))


def qs_scan(
    sampler,
    trials: int,
    dim: int,
    seed: int,
    tol_qs: float = DEFAULT_TOL_QS,
) -> ScanStats:
    """Certify ``trials`` independently sampled families and count outcomes.

    ``sampler`` is a key of :data:`SAMPLERS`, looked up at call time, or a
    drawer like its values: ``draw(rngs, dim)`` with a ``degree`` ≥ 1 that
    returns one coefficient stack (len(rngs), degree + 1, dim, dim) for all
    its generators (``DimensionMismatch`` for any other shape).  Trial i
    draws from the i-th child of ``SeedSequence(seed)``, so trials are
    independent within a scan and across seeds, and the whole scan is
    deterministic given the seed.  The drawer is called once per stack of
    trials whose coefficients fill ``SCAN_BYTES``, and its error
    (``ResampleExhausted``) is raised before that stack is certified.
    An H₀ that fails to diagonalize or has a non-real spectrum, and a metric
    candidate that is not positive definite (as near an exceptional point),
    count as exceptional; any other error ``qs_certify`` raises for a trial
    is raised.  H₁ is not gated: one that no positive metric serves counts
    as the weights decide it, incompatible or, through a one-sided overlap
    pattern, exceptional.

    Any other sampler, an unknown name, ``trials`` above ``MAX_TRIALS``,
    ``dim`` < 1 and a ``tol_qs`` that is not a finite number > 0 raise
    ``ValueError`` before any sampling.  The built-in samplers plant spectra
    0.1 apart in [−2, 2] and raise ``ValueError`` for ``dim`` > 40, where no
    such spectrum exists.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if trials > MAX_TRIALS:
        raise ValueError(f"{trials} trials exceed the cap of {MAX_TRIALS}")
    if dim < 1:
        raise ValueError(f"need a dimension of at least 1, got {dim}")
    _check_tol(tol_qs)
    if isinstance(sampler, str):
        if sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {sampler!r}; one of {', '.join(sorted(SAMPLERS))}")
        sampler = SAMPLERS[sampler]
    degree = getattr(sampler, "degree", None)
    if not (callable(sampler) and isinstance(degree, int) and degree >= 1):
        raise ValueError(
            f"a sampler is a name of SAMPLERS or a drawer with a degree >= 1, got {sampler!r}"
        )
    counts = {"compatible": 0, "incompatible": 0, "exceptional": 0}
    violation_orders: dict[int, int] = {}
    per_stack = -(-SCAN_BYTES // (16 * (degree + 1) * dim * dim))
    for start in range(0, trials, per_stack):
        rngs = [_trial_rng(seed, i) for i in range(start, min(start + per_stack, trials))]
        stack = sampler(rngs, dim)
        shape = (len(rngs), degree + 1, dim, dim)
        if np.shape(stack) != shape:
            raise DimensionMismatch(f"the drawer gave a stack of shape {np.shape(stack)}, not {shape}")
        for outcome in _certify_stack(as_square_stack(stack), tol_qs):
            if isinstance(outcome, (DefectiveMatrix, ExpectsRealSpectrum, PositivityFailure)):
                counts["exceptional"] += 1
                continue
            cert = checked(outcome)
            counts[cert.status] += 1
            if cert.first_violation_order is not None:
                violation_orders[cert.first_violation_order] = (
                    violation_orders.get(cert.first_violation_order, 0) + 1
                )
    return ScanStats(trials=trials, dim=dim, seed=seed, violation_orders=violation_orders, **counts)
