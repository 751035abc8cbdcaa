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

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    DefectiveMatrix,
    ExpectsRealSpectrum,
    PositivityFailure,
    SingularMatrix,
    checked,
)
from .evolution import TaylorHamiltonian
from .linalg import (
    BIORTHO_TOL,
    adjoint,
    as_square_stack,
    decompose_stack,
    invert_stack,
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
#: 0.3 ms at dim 8 and 7 ms at dim 40 (2-vCPU VM), so a scan ends within
#: about twelve minutes
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


def stationarity_residual(coefficient, theta_matrix):
    """‖H†Θ − ΘH‖ / (‖H‖·‖Θ‖), with 0 for a zero coefficient.

    Stacks (..., d, d) of coefficients and of metrics broadcast against each
    other and give an array of residuals; two matrices give a float.
    """
    h = np.asarray(coefficient, dtype=complex)
    den = stacked_fro(h) * stacked_fro(theta_matrix)
    num = stacked_fro(adjoint(h) @ theta_matrix - theta_matrix @ h)
    residual = np.divide(num, den, out=np.zeros(num.shape), where=den != 0.0)
    return float(residual) if residual.ndim == 0 else residual


def _complex_spectra(eigenvalues, label: str) -> list:
    """Per spectrum of a stack (n, d), ``None`` or the ``ExpectsRealSpectrum``
    it fails with."""
    scale = np.maximum(1.0, np.abs(eigenvalues).max(axis=-1))
    worst = np.abs(eigenvalues.imag).max(axis=-1)
    return [
        ExpectsRealSpectrum(
            f"{label} has |Im eigenvalue| up to {w:.3e}; a real spectrum is required"
        )
        if w > REAL_SPECTRUM_RTOL * sc
        else None
        for w, sc in zip(worst, scale)
    ]


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


def _certify_stack(coefficients: np.ndarray, tol_qs: float) -> list:
    """``qs_certify`` on every family of a stack (n, degree + 1, d, d),
    degree ≥ 1: per family its certificate or the error it raises.

    Decompositions, overlaps, M = A·F·A⁻¹ and the residuals of every order
    are computed for the whole stack at once.  The weights take one
    vectorized step where every off-diagonal pair of M is significant
    (κ_k = M₀ₖ / M*ₖ₀) or none is (κ = 1); other patterns go through
    ``_solve_weights``.  Rows that fail a gate get garbage in the later
    stacked steps, which is never read.
    """
    n, d = coefficients.shape[0], coefficients.shape[-1]
    sys0, failed0 = decompose_stack(coefficients[:, 0], BIORTHO_TOL)
    sys1, failed1 = decompose_stack(coefficients[:, 1], BIORTHO_TOL)
    a = adjoint(sys0.left_vectors) @ sys1.right_vectors
    a_inv, _, singular = invert_stack(a)
    outcomes = [
        f0 or f1 or c0 or c1
        or (SingularMatrix("overlap matrix between the eigenbases is singular") if sing else None)
        for f0, f1, c0, c1, sing in zip(
            failed0,
            failed1,
            _complex_spectra(sys0.eigenvalues, "order-0 coefficient"),
            _complex_spectra(sys1.eigenvalues, "order-1 coefficient"),
            singular,
        )
    ]
    failed = np.array([o is not None for o in outcomes])
    m = (a * sys1.eigenvalues.real[:, None, :]) @ a_inv

    scale = stacked_fro(m)
    threshold = tol_qs * scale
    significant = np.abs(m) >= threshold[:, None, None]
    pairs = (significant & ~np.eye(d, dtype=bool)).sum(axis=(1, 2))
    kappa_c = np.ones((n, d), dtype=complex)
    generic = np.flatnonzero(~failed & (pairs == d * (d - 1)))
    kappa_c[generic, 1:] = kappa_c[generic, :1] * m[generic, 0, 1:] / m[generic, 1:, 0].conj()
    for i in np.flatnonzero(~failed & (pairs > 0) & (pairs < d * (d - 1))):
        kappa_i, detail = _solve_weights(m[i], threshold[i])
        if kappa_i is None:
            outcomes[i] = QSCertificate("exceptional", detail=detail)
        else:
            kappa_c[i] = kappa_i

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
                    f"weight choice (congruence residual {congruence[j]:.3e})"
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


def _certify_families(families, tol_qs: float) -> list:
    """``qs_certify`` on each family: its certificate or the error it raises,
    in order.  Families of one degree and dimension form one stack."""
    outcomes: list = [None] * len(families)
    groups: dict = {}
    for i, family in enumerate(families):
        groups.setdefault((family.degree, family.dim), []).append(i)
    for (degree, _), members in groups.items():
        if degree < 1:
            error = ValueError("certification needs at least a linear coefficient")
            stacked = [error] * len(members)
        else:
            coefficients = np.array([families[i].coefficients for i in members])
            stacked = _certify_stack(coefficients, tol_qs)
        for i, outcome in zip(members, stacked):
            outcomes[i] = outcome
    return outcomes


def qs_solve(h0, h1, tol_qs: float = DEFAULT_TOL_QS) -> QSCertificate:
    """Decide the orders 0-1 problem: one positive metric for both H₀ and H₁,
    as ``qs_certify`` of the degree-1 family (H₀, H₁).

    Raises ``DimensionMismatch`` when the shapes differ, ``DefectiveMatrix``
    when either coefficient fails to diagonalize, ``ExpectsRealSpectrum``
    when a spectrum is not real to tolerance, and ``SingularMatrix`` when
    the overlap matrix between the two eigenbases degenerates.
    """
    return qs_certify(TaylorHamiltonian((h0, h1)), tol_qs)


def _check_tol(tol_qs: float) -> None:
    if not (np.isfinite(tol_qs) and tol_qs > 0):
        raise ValueError(f"tol_qs must be a finite number > 0, got {tol_qs!r}")


def qs_certify(hamiltonian: TaylorHamiltonian, tol_qs: float = DEFAULT_TOL_QS) -> QSCertificate:
    """Certify a full Taylor family against one stationary metric.

    Solves the orders 0-1 problem, then checks every higher coefficient as a
    residual against the found metric; the smallest violating order is
    reported.  A compatible certificate on a degree-1 family is the generic
    best case: higher-degree families generically violate at order 2.
    Raises as ``qs_solve`` does, and ``ValueError`` for a degree-0 family or
    a ``tol_qs`` that is not a finite number > 0.
    """
    _check_tol(tol_qs)
    return checked(_certify_families([hamiltonian], tol_qs)[0])


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

    ``sampler`` is a key of :data:`SAMPLERS`, looked up at call time, a
    drawer with a ``degree`` like its values, or a callable ``(rng, dim) ->
    TaylorHamiltonian``.  Trial i draws from the i-th child of
    ``SeedSequence(seed)``, so trials are independent within a scan and
    across seeds, and the whole scan is deterministic given the seed.
    Decomposition failures, singular overlaps, non-real spectra and metric
    candidates that are not positive definite (as near an exceptional point)
    count as exceptional; any other error ``qs_certify`` raises for a trial
    is raised.  Trials are sampled until their coefficients fill
    ``SCAN_BYTES`` and then certified as one stack, with the counts and
    errors of certifying them one by one.

    A drawer is called once per stack, with the generators of its trials;
    its error (``ResampleExhausted``) is raised before that stack is
    certified.  A built-in drawer gives the families and streams of its
    public ``sample_*``.  Any other callable is called once per trial, and
    its error surfaces after the errors of the trials drawn before it.  An
    unknown name, ``trials`` above ``MAX_TRIALS``, ``dim`` < 1 and a
    ``tol_qs`` that is not a finite number > 0 raise ``ValueError`` before
    any sampling.  The built-in samplers plant spectra 0.1 apart in [−2, 2]
    and raise ``ValueError`` for ``dim`` > 40, where no such spectrum exists.
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
    counts = {"compatible": 0, "incompatible": 0, "exceptional": 0}
    violation_orders: dict[int, int] = {}

    def count(outcomes):
        for outcome in outcomes:
            if isinstance(
                outcome, (DefectiveMatrix, SingularMatrix, ExpectsRealSpectrum, PositivityFailure)
            ):
                counts["exceptional"] += 1
                continue
            cert = checked(outcome)
            counts[cert.status] += 1
            if cert.first_violation_order is not None:
                violation_orders[cert.first_violation_order] = (
                    violation_orders.get(cert.first_violation_order, 0) + 1
                )

    if hasattr(sampler, "degree"):
        # as many trials as the per-trial path takes to fill SCAN_BYTES
        per_stack = -(-SCAN_BYTES // (16 * (sampler.degree + 1) * dim * dim))
        for start in range(0, trials, per_stack):
            rngs = [_trial_rng(seed, i) for i in range(start, min(start + per_stack, trials))]
            count(_certify_stack(as_square_stack(sampler(rngs, dim)), tol_qs))
    else:
        families, size = [], 0
        try:
            for i in range(trials):
                family = sampler(_trial_rng(seed, i), dim)
                families.append(family)
                size += 16 * (family.degree + 1) * family.dim**2
                if size >= SCAN_BYTES:
                    chunk, families, size = families, [], 0
                    count(_certify_families(chunk, tol_qs))
        finally:
            count(_certify_families(families, tol_qs))
    return ScanStats(trials=trials, dim=dim, seed=seed, violation_orders=violation_orders, **counts)
