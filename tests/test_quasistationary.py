"""Tests for the stationary-metric certification machinery."""

import functools
import hashlib
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptoherm import (
    DefectiveMatrix,
    DimensionMismatch,
    ExpectsRealSpectrum,
    PositivityFailure,
    QSCertificate,
    ResampleExhausted,
    ScanStats,
    SingularMatrix,
    TaylorHamiltonian,
    biorthogonal_decompose,
    metric_from_spectral,
    qs_certify,
    qs_scan,
    qs_solve,
    random_cryptohermitian,
    sample_independent,
    sample_shared,
    sample_shared_degree2,
    stationarity_residual,
)
from cryptoherm import models, quasistationary
from cryptoherm.errors import NumericalError
from cryptoherm.linalg import BIORTHO_TOL, invert_stack, norm_fro, principal_sqrt
from cryptoherm.models import _planted_spectra, model_2x2
from cryptoherm.quasistationary import (
    MAX_TRIALS,
    SAMPLERS,
    _certify_families,
    _solve_weights,
    _trial_rng,
)


def _hermitian(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (x + x.conj().T)


def _metric_compatible_pair(seed, n):
    """H0, H1 quasi-Hermitian for one known metric, with generic eigenbases.

    Theta is drawn positive definite; H_i = Theta^{-1/2} A_i Theta^{1/2} with
    independent Hermitian A_i, so both coefficients share the metric while
    their eigenvector systems differ (the overlap matrix is full).
    """
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    theta = b.conj().T @ b + 0.3 * np.eye(n)
    root = principal_sqrt(theta)
    root_inv = np.linalg.inv(root)
    h0 = root_inv @ _hermitian(rng, n) @ root
    h1 = root_inv @ _hermitian(rng, n) @ root
    return h0, h1, theta


def test_hermitian_pair_fixed_point():
    rng = np.random.default_rng(0)
    cert = qs_solve(_hermitian(rng, 4), _hermitian(rng, 4))
    assert cert.status == "compatible"
    npt.assert_allclose(cert.kappa, np.ones(4), atol=1e-9)
    npt.assert_allclose(cert.metric.matrix, np.eye(4), atol=1e-9)
    assert cert.kappa[0] == 1.0


def test_shared_similarity_pair_is_compatible():
    rng = np.random.default_rng(1)
    ham = sample_shared(rng, 4)
    cert = qs_solve(ham.coefficients[0], ham.coefficients[1])
    assert cert.status == "compatible"
    assert (cert.kappa > 0).all()
    for c in ham.coefficients:
        assert stationarity_residual(c, cert.metric.matrix) <= 1e-8


def test_independent_pairs_are_generically_incompatible():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ham = sample_independent(rng, 4)
        cert = qs_solve(ham.coefficients[0], ham.coefficients[1])
        assert cert.status == "incompatible"


def test_weight_recovery_against_planted_metric():
    # the planted metric expands over the left eigenvectors of H0 with
    # weights kappa_n = <Phi_n|Theta|Phi_n>; the solver must recover them
    # (normalized to the first) and they must match the first-row ratios.
    from cryptoherm.linalg import biorthogonal_decompose

    h0, h1, theta = _metric_compatible_pair(42, 4)
    cert = qs_solve(h0, h1)
    assert cert.status == "compatible"

    system = biorthogonal_decompose(h0)
    kappa_true = np.array(
        [
            np.vdot(system.right_vectors[:, j], theta @ system.right_vectors[:, j]).real
            for j in range(4)
        ]
    )
    kappa_true = kappa_true / kappa_true[0]
    npt.assert_allclose(cert.kappa, kappa_true, rtol=1e-8)

    # recovered metric reproduces the planted one up to overall scale
    scale = theta[0, 0] / cert.metric.matrix[0, 0]
    npt.assert_allclose(cert.metric.matrix * scale, theta, rtol=1e-7, atol=1e-9)

    residual = stationarity_residual(h1, cert.metric.matrix)
    assert residual <= 1e-8


def test_first_row_formula_in_generic_case():
    from cryptoherm.linalg import biorthogonal_decompose

    h0, h1, _ = _metric_compatible_pair(7, 4)
    sys0 = biorthogonal_decompose(h0)
    sys1 = biorthogonal_decompose(h1)
    a = sys0.left_vectors.conj().T @ sys1.right_vectors
    m = (a * sys1.eigenvalues.real) @ np.linalg.inv(a)
    cert = qs_solve(h0, h1)
    formula = np.array(
        [1.0] + [m[0, k] / np.conj(m[k, 0]) for k in range(1, 4)]
    )
    npt.assert_allclose(cert.kappa, formula.real, rtol=1e-9)
    assert np.abs(formula.imag).max() <= 1e-9


@settings(max_examples=20, deadline=None)
@given(
    c=st.one_of(st.floats(0.2, 5.0), st.floats(-5.0, -0.2)),
    seed=st.integers(min_value=0, max_value=500),
)
def test_scaling_invariance(c, seed):
    rng = np.random.default_rng(seed)
    ham = sample_shared(rng, 3) if seed % 2 else sample_independent(rng, 3)
    h0, h1 = ham.coefficients
    base = qs_solve(h0, h1)
    scaled = qs_solve(c * h0, c * h1)
    assert scaled.status == base.status
    if base.status == "compatible":
        npt.assert_allclose(scaled.kappa, base.kappa, rtol=1e-7)


def test_certify_requires_linear_coefficient():
    with pytest.raises(ValueError):
        qs_certify(TaylorHamiltonian((np.eye(2, dtype=complex),)))


def test_certify_degree2_extension_violates_at_order_2():
    rng = np.random.default_rng(11)
    ham = sample_shared_degree2(rng, 4)
    cert = qs_certify(ham)
    assert cert.status == "incompatible"
    assert cert.first_violation_order == 2
    assert len(cert.residuals) == 3
    assert cert.residuals[2] > 1e-8
    assert cert.residuals[0] <= 1e-8 and cert.residuals[1] <= 1e-8


def test_certify_shared_all_orders_compatible():
    rng = np.random.default_rng(13)
    from cryptoherm.models import _random_similarities

    (s,), (s_inv,) = _random_similarities([rng], 4, cond_cap=100.0)
    coeffs = tuple(
        (s * np.sort(rng.uniform(-2, 2, 4))) @ s_inv for _ in range(4)
    )
    cert = qs_certify(TaylorHamiltonian(coeffs))
    assert cert.status == "compatible"
    assert cert.first_violation_order is None
    assert max(cert.residuals) <= 1e-8


def test_complex_spectrum_rejected():
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)  # eigs +-i
    with pytest.raises(ExpectsRealSpectrum):
        qs_solve(rotation, np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(ExpectsRealSpectrum):
        qs_solve(np.diag([1.0, 2.0]).astype(complex), rotation)


def test_qs_solve_is_qs_certify_of_the_linear_family():
    independent = sample_independent(np.random.default_rng(2), 4)
    for h0, h1 in (_metric_compatible_pair(2, 3)[:2], independent.coefficients):
        _same_certificate(qs_solve(h0, h1), qs_certify(TaylorHamiltonian((h0, h1))))
    with pytest.raises(DimensionMismatch):
        qs_solve(np.eye(2), np.eye(3))


def test_certificate_fields_default_to_undecided():
    cert = QSCertificate("exceptional")
    assert (cert.kappa, cert.metric, cert.first_violation_order) == (None, None, None)
    assert cert.residuals == () and cert.detail == ""


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(0.5, 2.0),
    phi=st.floats(0.2, 1.4),
    phi_sign=st.sampled_from((-1.0, 1.0)),
    log_eps=st.floats(-14.0, -1.0),
    side=st.sampled_from((-1.0, 1.0)),
)
def test_near_the_exceptional_point_results_are_typed_or_within_bounds(
    r, phi, phi_sign, log_eps, side
):
    # s = r·|sin φ|·(1 ± ε): at ε = 0 the eigenvectors of model_2x2 coalesce,
    # and below it (side −1) its spectrum is complex
    phi *= phi_sign
    h = model_2x2(r, r * abs(np.sin(phi)) * (1.0 + side * 10.0**log_eps), phi)
    try:
        system = biorthogonal_decompose(h)
    except DefectiveMatrix:
        pass
    else:
        assert system.biorthonormality_residual() <= BIORTHO_TOL
        assert system.completeness_residual() <= BIORTHO_TOL
        assert norm_fro(system.reconstruct() - h) <= BIORTHO_TOL * max(norm_fro(h), 1.0)
    # the real side may certify, or fail on the ill-conditioned metric
    expected = (ExpectsRealSpectrum, DefectiveMatrix) if side < 0 else NumericalError
    try:
        cert = qs_solve(h, np.diag([1.0, 2.0]))
    except expected:
        return
    assert side > 0
    for value in (cert.kappa, cert.residuals, cert.metric and cert.metric.matrix):
        assert value is None or np.isfinite(value).all()


def test_scan_counts_a_non_positive_metric_near_the_exceptional_point_as_exceptional():
    # a real-spectrum draw just above the exceptional point of model_2x2,
    # whose metric candidate is not positive definite
    r, phi, eps = 0.5609263428091178, -0.43283294588095184, 1.2983937664646351e-12
    h = model_2x2(r, r * abs(np.sin(phi)) * (1.0 + eps), phi)
    family = TaylorHamiltonian((h, np.diag([1.0, 2.0]).astype(complex)))
    with pytest.raises(PositivityFailure):
        qs_certify(family)
    stats = qs_scan(lambda rng, dim: family, 3, 2, 0)
    assert (stats.compatible, stats.incompatible, stats.exceptional) == (0, 0, 3)


def test_solve_weights_block_structure():
    # block-diagonal condition matrix: each block fixes its internal ratios,
    # blocks stay decoupled, component roots are seeded with weight one
    m = np.array(
        [
            [1.0, 2.0, 0.0],
            [0.5, 1.0, 0.0],
            [0.0, 0.0, 3.0],
        ],
        dtype=complex,
    )
    kappa, detail = _solve_weights(m, threshold=1e-8)
    assert detail is None
    assert kappa[0] == 1.0
    assert kappa[1] == pytest.approx(2.0 / 0.5)
    assert kappa[2] == 1.0


def test_solve_weights_one_sided_pattern_is_exceptional():
    m = np.array([[1.0, 1.0], [1e-14, 2.0]], dtype=complex)
    kappa, detail = _solve_weights(m, threshold=1e-8)
    assert kappa is None
    assert "one-sided" in detail


def test_scan_counts_and_determinism():
    stats_a = qs_scan("shared", 5, 3, seed=100)
    stats_b = qs_scan("shared", 5, 3, seed=100)
    assert stats_a == stats_b
    assert stats_a.compatible == 5

    single = qs_scan(sample_shared, 1, 4, seed=0)
    assert single.compatible == 1
    flat = single.as_flat_dict()
    assert flat["trials"] == 1 and flat["compatible"] == 1
    # the count fields in declaration order, then the orders sorted as integers
    stats = ScanStats(9, 4, 0, 1, 8, 0, violation_orders={10: 2, 2: 5, 3: 1})
    assert list(stats.as_flat_dict().items()) == [
        ("trials", 9), ("dim", 4), ("seed", 0), ("compatible", 1), ("incompatible", 8),
        ("exceptional", 0), ("violation_order_2", 5), ("violation_order_3", 1),
        ("violation_order_10", 2),
    ]


def test_scan_independent_generically_incompatible():
    stats = qs_scan("independent", 20, 4, seed=7)
    assert stats.incompatible >= 19


def test_planted_spectrum_infeasible_dimension_raises_at_once():
    # (41 − 1)·0.1 = 4 leaves no room in [−2, 2]; rejection sampling never returned
    with pytest.raises(ValueError, match="41 eigenvalues"):
        qs_scan("shared", 1, 41, 0)
    for sampler in (sample_shared, sample_independent, sample_shared_degree2):
        with pytest.raises(ValueError):
            sampler(np.random.default_rng(0), 41)


def test_planted_spectrum_keeps_its_gaps_at_the_largest_dimension():
    for values in _planted_spectra([np.random.default_rng(4)], 40, 20)[0]:
        assert values.shape == (40,)
        assert np.diff(values).min() >= 0.1 - 1e-12
        assert -2.0 <= values[0] and values[-1] <= 2.0 + 1e-12


# ---------------------------------------------------------------------------
# the stacked certifier against one family at a time
# ---------------------------------------------------------------------------

#: ScanStats.as_flat_dict() counts (compatible, incompatible, exceptional,
#: violation_order_2) of 12-trial scans, recorded with the one-family-at-a-time
#: certifier of ``_reference_scan`` on the SeedSequence trial streams
GOLDEN_SCANS = {
    **{
        (name, dim, seed, 1e-8): counts
        for name, counts in (
            ("shared", (12, 0, 0, 0)),
            ("independent", (0, 12, 0, 0)),
            ("shared-degree2", (0, 12, 0, 12)),
        )
        for dim in (4, 8, 16)
        for seed in (3, 2008)
    },
    ("independent", 4, 3, 1e-2): (0, 12, 0, 0),
    ("independent", 4, 2008, 1e-2): (0, 12, 0, 0),
    ("independent", 8, 3, 1e-2): (0, 8, 4, 0),
    ("independent", 8, 2008, 1e-2): (0, 6, 6, 0),
    ("independent", 16, 3, 1e-2): (0, 0, 12, 0),
    ("independent", 16, 2008, 1e-2): (0, 0, 12, 0),
}


@pytest.mark.parametrize("name, dim, seed, tol", sorted(GOLDEN_SCANS))
def test_scan_outcomes_are_pinned(name, dim, seed, tol):
    compatible, incompatible, exceptional, order2 = GOLDEN_SCANS[name, dim, seed, tol]
    expected = {
        "trials": 12,
        "dim": dim,
        "seed": seed,
        "compatible": compatible,
        "incompatible": incompatible,
        "exceptional": exceptional,
        **({"violation_order_2": order2} if order2 else {}),
    }
    assert qs_scan(name, 12, dim, seed, tol).as_flat_dict() == expected


@pytest.mark.parametrize("scan_bytes", [quasistationary.SCAN_BYTES, 16 * 1024])
def test_scan_outcomes_across_chunks_are_pinned(monkeypatch, scan_bytes):
    # 1152 coefficient bytes a trial: one stack, or five of 15 trials and less
    monkeypatch.setattr(quasistationary, "SCAN_BYTES", scan_bytes)
    stats = qs_scan("independent", 70, 6, 5, 0.01)
    assert (stats.compatible, stats.incompatible, stats.exceptional) == (0, 61, 9)
    stats = qs_scan("independent", 70, 6, 5, 0.03)
    assert (stats.compatible, stats.incompatible, stats.exceptional) == (0, 22, 48)


def _reference_scan(sampler, trials, dim, seed, tol_qs=1e-8):
    """qs_scan's counts from one qs_certify call per trial."""
    counts = {"compatible": 0, "incompatible": 0, "exceptional": 0}
    orders = {}
    for child in np.random.SeedSequence(seed).spawn(trials):
        try:
            cert = qs_certify(sampler(np.random.default_rng(child), dim), tol_qs)
        except (DefectiveMatrix, SingularMatrix, ExpectsRealSpectrum, PositivityFailure):
            counts["exceptional"] += 1
            continue
        counts[cert.status] += 1
        if cert.first_violation_order is not None:
            orders[cert.first_violation_order] = orders.get(cert.first_violation_order, 0) + 1
    return ScanStats(trials, dim, seed, violation_orders=orders, **counts)


def _same_certificate(a, b):
    assert (a.status, a.first_violation_order, a.residuals, a.detail) == (
        b.status, b.first_violation_order, b.residuals, b.detail
    )
    assert (a.kappa is None) == (b.kappa is None)
    if a.kappa is not None:
        assert np.array_equal(a.kappa, b.kappa)
    assert (a.metric is None) == (b.metric is None)
    if a.metric is not None:
        assert np.array_equal(a.metric.matrix, b.metric.matrix)
        assert (a.metric.min_eig, a.metric.max_eig) == (b.metric.min_eig, b.metric.max_eig)


def _overlap_condition_matrix(ham):
    sys0 = biorthogonal_decompose(ham.coefficients[0])
    sys1 = biorthogonal_decompose(ham.coefficients[1])
    a = sys0.left_vectors.conj().T @ sys1.right_vectors
    return (a * sys1.eigenvalues.real) @ np.linalg.inv(a)


def _block_family(seed):
    """Two decoupled 2x2 blocks: M is block diagonal, so its significance
    pattern is neither all pairs nor none."""
    rng = np.random.default_rng(seed)
    blocks = [sample_independent(rng, 2) for _ in range(2)]
    zero = np.zeros((2, 2))
    return TaylorHamiltonian(tuple(
        np.block([[b0, zero], [zero, b1]])
        for b0, b1 in zip(blocks[0].coefficients, blocks[1].coefficients)
    ))


def test_mixed_pattern_trial_in_a_stack_equals_a_standalone_certificate():
    families = [sample_shared(np.random.default_rng(1), 4), _block_family(2),
                sample_independent(np.random.default_rng(3), 4), _block_family(4)]
    m = _overlap_condition_matrix(families[1])
    significant = (np.abs(m) >= 1e-8 * np.linalg.norm(m)) & ~np.eye(4, dtype=bool)
    assert 0 < significant.sum() < 12
    for family, outcome in zip(families, _certify_families(families, 1e-8)):
        _same_certificate(outcome, qs_certify(family))


def test_vectorized_weights_equal_the_component_search():
    # every off-diagonal pair significant: κ_k = M₀ₖ / M*ₖ₀ in one step must
    # reproduce _solve_weights, the per-family reference, bit for bit
    compared = 0
    for seed in range(8):
        h0, h1, _ = _metric_compatible_pair(seed, 5)
        ham = TaylorHamiltonian((h0, h1))
        if seed % 2:
            ham = sample_independent(np.random.default_rng(seed), 5)
        m = _overlap_condition_matrix(ham)
        kappa, detail = _solve_weights(m, 1e-8 * np.linalg.norm(m))
        assert detail is None and (np.abs(m) >= 1e-8 * np.linalg.norm(m)).all()
        cert = qs_certify(ham)
        if cert.kappa is not None:
            assert np.array_equal(cert.kappa, kappa.real)
            compared += 1
    assert compared >= 4


def test_certificate_fields_equal_the_one_matrix_formulas():
    # the stacked certifier against plain numpy on each certificate: Θ as
    # metric_from_spectral assembles it, each residual as
    # ‖H†Θ − ΘH‖ / (‖H‖·‖Θ‖) with np.linalg.norm, bit for bit
    families = [sample_shared(np.random.default_rng(s), 5) for s in range(3)]
    families += [sample_independent(np.random.default_rng(s), 4) for s in range(3)]
    families += [sample_shared_degree2(np.random.default_rng(s), 6) for s in range(3)]
    statuses = set()
    for family in families:
        cert = qs_certify(family)
        statuses.add((cert.status, cert.first_violation_order))
        if cert.kappa is None:
            continue
        left = biorthogonal_decompose(family.coefficients[0]).left_vectors
        theta = (left * cert.kappa) @ left.conj().T
        assert np.array_equal(cert.metric.matrix, 0.5 * (theta + theta.conj().T))
        assert np.array_equal(
            cert.metric.matrix,
            metric_from_spectral(biorthogonal_decompose(family.coefficients[0]), cert.kappa).matrix,
        )
        th = cert.metric.matrix
        for h, r in zip(family.coefficients, cert.residuals):
            assert r == stationarity_residual(h, th)
            assert r == np.linalg.norm(h.conj().T @ th - th @ h) / (
                np.linalg.norm(h) * np.linalg.norm(th)
            )
    assert statuses == {("compatible", None), ("incompatible", None), ("incompatible", 2)}


def test_stationarity_residual_broadcasts_over_stacks():
    rng = np.random.default_rng(8)
    hs = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    hs[1, 2] = 0.0
    thetas = np.array([_metric_compatible_pair(s, 4)[2] for s in range(2)])
    residuals = stationarity_residual(hs, thetas[:, None])
    assert residuals.shape == (2, 3) and residuals[1, 2] == 0.0
    for i in range(2):
        for k in range(3):
            assert residuals[i, k] == stationarity_residual(hs[i, k], thetas[i])
    assert isinstance(stationarity_residual(hs[0, 0], thetas[0]), float)


def test_custom_sampler_with_mixed_degrees_and_dimensions():
    def sampler(rng, dim):
        degree2 = rng.integers(2)
        family = (sample_shared_degree2 if degree2 else sample_independent)(rng, dim)
        return family if rng.integers(3) else sample_shared(rng, dim + 1)

    stats = qs_scan(sampler, 45, 3, 17)
    assert stats == _reference_scan(sampler, 45, 3, 17)
    assert stats.compatible and stats.incompatible and stats.violation_orders


def _sampler_of(outcomes):
    """A sampler whose trial i returns a shared family, a degree-0 family or
    raises, as ``outcomes[i]`` is "ok", "constant" or "raise"."""
    def sampler(rng, dim):
        kind = outcomes[len(drawn)]
        drawn.append(kind)
        if kind == "raise":
            raise RuntimeError("sampler failed")
        if kind == "constant":
            return TaylorHamiltonian((np.eye(dim, dtype=complex),))
        return sample_shared(rng, dim)

    drawn = []
    return sampler, drawn


def test_scan_raises_the_first_trial_error_in_trial_order(monkeypatch):
    # trial 1 cannot be certified, and one trial at a time its error comes
    # before trial 2 is drawn
    sampler, drawn = _sampler_of(["ok", "constant", "raise"])
    with pytest.raises(ValueError, match="linear coefficient"):
        qs_scan(sampler, 3, 2, 0)
    sampler, drawn = _sampler_of(["ok", "ok", "raise", "constant"])
    with pytest.raises(RuntimeError, match="sampler failed"):
        qs_scan(sampler, 4, 2, 0)
    assert drawn == ["ok", "ok", "raise"]
    # 128 coefficient bytes a linear trial and 64 the degree-0 one: the second
    # stack, which holds the latter, fills at trial 16 and is certified
    # before trial 17 is drawn
    monkeypatch.setattr(quasistationary, "SCAN_BYTES", 1024)
    sampler, drawn = _sampler_of(["ok"] * 8 + ["constant"] + ["ok"] * 8 + ["raise"])
    with pytest.raises(ValueError, match="linear coefficient"):
        qs_scan(sampler, 18, 2, 0)
    assert len(drawn) == 17


def test_scan_memory_does_not_grow_with_trials(monkeypatch):
    # 3 KiB of coefficients a trial: 400 trials hold 1.2 MiB, a stack 32 KiB
    monkeypatch.setattr(quasistationary, "SCAN_BYTES", 32 * 1024)
    qs_scan("shared-degree2", 4, 8, 0)  # first-call allocations of numpy
    tracemalloc.start()
    try:
        qs_scan("shared-degree2", 400, 8, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 32 * 1024


def test_trials_cap_raises_before_sampling():
    calls = []
    with pytest.raises(ValueError, match="cap"):
        qs_scan(lambda rng, dim: calls.append(dim), MAX_TRIALS + 1, 3, 0)
    assert calls == []


def test_scans_at_neighbouring_seeds_share_no_family():
    drawn = {5: [], 6: []}
    for seed, families in drawn.items():
        def sampler(rng, dim, families=families):
            families.append(sample_shared(rng, dim))
            return families[-1]

        qs_scan(sampler, 10, 4, seed)
    assert all(len(families) == 10 for families in drawn.values())
    for a in drawn[5]:
        for b in drawn[6]:
            assert not np.array_equal(a.coefficients[0], b.coefficients[0])


# ---------------------------------------------------------------------------
# built-in scans draw whole stacks with the streams of the per-trial samplers
# ---------------------------------------------------------------------------

#: SHA-256 of the coefficients each public sampler draws, and of
#: random_cryptohermitian, at dims 2, 8 and 33 and seeds 0 and 2008, recorded
#: with the one-family-at-a-time samplers (numpy 2.4, OpenBLAS 0.3.31)
SAMPLER_DIGESTS = {
    "shared": "990fb591b52fa4b068dd710f0a380d83c2e437725d922295ec283731ddf3743d",
    "independent": "12bfc728f813cceee132f18cbaa3849d45bc8892d5ba81e622070f9db85d8a0e",
    "shared-degree2": "f9fed25be52b438d6f4b9e2a80adda904fd48e514f25bebf3a3b82690f00078a",
    "random_cryptohermitian": "4e187bfbbdb9e06d3f4a8435fd2ac1a8a3168791344a11362ee4c21764c32523",
}


#: the public one-generator samplers, by the name of their drawer in SAMPLERS
PUBLIC_SAMPLERS = {
    "shared": sample_shared,
    "independent": sample_independent,
    "shared-degree2": sample_shared_degree2,
}


def test_public_samplers_draw_the_pinned_families():
    digests = {name: hashlib.sha256() for name in SAMPLER_DIGESTS}
    for dim in (2, 8, 33):
        for seed in (0, 2008):
            for name, sampler in PUBLIC_SAMPLERS.items():
                for c in sampler(np.random.default_rng(seed), dim).coefficients:
                    digests[name].update(c.tobytes())
            matrix = random_cryptohermitian(dim, np.linspace(-1.0, 1.0, dim), seed)
            digests["random_cryptohermitian"].update(matrix.tobytes())
    assert {name: d.hexdigest() for name, d in digests.items()} == SAMPLER_DIGESTS


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_stacked_drawer_equals_its_sampler_bit_for_bit(name):
    draw = SAMPLERS[name]
    degree = draw.degree
    for dim in (2, 4, 8, 16, 33, 40):
        for seed in (0, 7, 2008):
            stack = draw([_trial_rng(seed, i) for i in range(5)], dim)
            families = [PUBLIC_SAMPLERS[name](_trial_rng(seed, i), dim) for i in range(5)]
            assert stack.shape == (5, degree + 1, dim, dim)
            assert np.array_equal(stack, [f.coefficients for f in families])


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_named_scan_equals_one_certificate_per_sampled_trial(monkeypatch, name):
    degree = SAMPLERS[name].degree
    for dim, trials in ((2, 10), (4, 10), (8, 10), (16, 10), (33, 5), (40, 5)):
        # stacks of 4 trials: a scan spans several, the last one short
        monkeypatch.setattr(quasistationary, "SCAN_BYTES", 4 * 16 * (degree + 1) * dim**2)
        for seed in (0, 7, 2008):
            stats = qs_scan(name, trials, dim, seed)
            assert stats == _reference_scan(PUBLIC_SAMPLERS[name], trials, dim, seed)
            assert stats == qs_scan(PUBLIC_SAMPLERS[name], trials, dim, seed)


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_a_named_scan_calls_the_registered_drawer_once_per_stack(monkeypatch, name):
    # the wrapper is built as a tracer builds one: functools.wraps copies the
    # drawer's degree, which keeps the scan on the stacked path
    draw, calls = SAMPLERS[name], []

    @functools.wraps(draw)
    def counted(rngs, dim):
        calls.append(len(rngs))
        return draw(rngs, dim)

    dim, trials, seed = 4, 10, 7
    expected = qs_scan(name, trials, dim, seed)
    assert expected == qs_scan(draw, trials, dim, seed)
    assert expected == qs_scan(PUBLIC_SAMPLERS[name], trials, dim, seed)
    monkeypatch.setattr(quasistationary, "SCAN_BYTES", 4 * 16 * (draw.degree + 1) * dim**2)
    monkeypatch.setitem(quasistationary.SAMPLERS, name, counted)
    assert qs_scan(name, trials, dim, seed) == expected
    assert calls == [4, 4, 2]


def test_an_unknown_sampler_name_raises_before_sampling(monkeypatch):
    def unreachable(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(quasistationary, "_trial_rng", unreachable)
    with pytest.raises(ValueError, match="'bogus'; one of independent, shared, shared-degree2"):
        qs_scan("bogus", 10, 4, 0)


def test_an_unreachable_cap_raises_after_at_most_100_rounds(monkeypatch):
    monkeypatch.setattr(models, "DEFAULT_COND_CAP", 1.0)
    rounds = []

    def counted(m, *args):
        rounds.append(len(m))
        return invert_stack(m, *args)

    monkeypatch.setattr(models, "invert_stack", counted)
    for name in SAMPLERS:
        rounds.clear()
        with pytest.raises(ResampleExhausted, match="condition <= 1.0 in 100 draws"):
            qs_scan(name, 30, 4, 0)
        # one stack of 30 trials, every generator rejected in every round
        assert rounds == [30] * 100
    rounds.clear()
    with pytest.raises(ResampleExhausted, match="in 100 draws"):
        random_cryptohermitian(4, np.arange(4.0), seed=0)
    assert rounds == [1] * 100


def test_scan_rejects_an_empty_dimension_before_sampling():
    for sampler in ("shared", sample_shared):
        with pytest.raises(ValueError, match="dimension"):
            qs_scan(sampler, 3, 0, 0)


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
def test_a_tolerance_that_is_not_finite_and_positive_raises(tol):
    # a NaN tolerance used to certify every family, and 0, −1 or inf to
    # reject every one
    family = sample_independent(np.random.default_rng(0), 4)
    with pytest.raises(ValueError, match="tol_qs"):
        qs_certify(family, tol)
    with pytest.raises(ValueError, match="tol_qs"):
        qs_solve(*family.coefficients[:2], tol)
    calls = []
    for sampler in ("independent", lambda rng, dim: calls.append(dim)):
        with pytest.raises(ValueError, match="tol_qs"):
            qs_scan(sampler, 20, 4, 0, tol)
    assert calls == []
