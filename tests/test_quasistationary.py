"""Tests for the stationary-metric certification machinery."""

import functools
import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
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
    _certify_stack,
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


def _drawer(sample, degree=1):
    """A drawer for ``qs_scan``: the families ``sample(rng, dim)`` draws, one
    generator at a time, as one coefficient stack."""
    def draw(rngs, dim):
        return np.array([sample(rng, dim).coefficients for rng in rngs])

    draw.degree = degree
    return draw


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
    # M = A·diag(Re ε₁)·A⁻¹ over the eigenbasis overlap A = L₀†R₁ is an
    # independent reference for the certifier's M = L₀†·H₁·R₀: the two agree
    # on every family; where all off-diagonal pairs are significant the
    # weights are κ_k = M₀ₖ / M*ₖ₀, and where none is (a shared eigenbasis)
    # every weight stays 1
    families = [TaylorHamiltonian(_metric_compatible_pair(7, 4)[:2])]
    for dim in (3, 8, 16):
        for seed in range(4):
            families.append(TaylorHamiltonian(_metric_compatible_pair(seed, dim)[:2]))
            families.append(sample_shared(np.random.default_rng(seed), dim))
            families.append(sample_independent(np.random.default_rng(seed), dim))
    generic = shared = 0
    for family in families:
        m = _overlap_condition_matrix(family)
        npt.assert_allclose(_condition_matrix(family), m, rtol=0, atol=1e-9 * np.linalg.norm(m))
        cert = qs_certify(family)
        if cert.kappa is None:
            continue
        off = (np.abs(m) >= 1e-8 * np.linalg.norm(m)) & ~np.eye(family.dim, dtype=bool)
        if off.sum() == family.dim * (family.dim - 1):
            formula = np.concatenate([[1.0], m[0, 1:] / m[1:, 0].conj()])
            npt.assert_allclose(cert.kappa, formula.real, rtol=1e-9)
            assert np.abs(formula.imag).max() <= 1e-9
            generic += 1
        else:
            assert not off.any() and (cert.kappa == 1.0).all()
            shared += 1
    assert (generic, shared) == (13, 12)


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


def test_a_zero_linear_coefficient_leaves_every_weight_free():
    # M = L₀†·0·R₀ = 0 made the significance threshold 0, and the weight
    # step divided 0/0; a non-normal H₀ keeps a non-trivial metric in play
    h0 = random_cryptohermitian(4, [-1.0, 0.0, 0.5, 1.5], seed=3)
    assert norm_fro(h0 @ h0.conj().T - h0.conj().T @ h0) > 1.0
    zero = np.zeros((4, 4))
    cert = qs_certify(TaylorHamiltonian((h0, zero)))
    assert cert.status == "compatible" and (cert.kappa == 1.0).all()
    assert cert.residuals[1] == 0.0
    h2 = np.random.default_rng(1).standard_normal((4, 4))
    cert = qs_certify(TaylorHamiltonian((h0, zero, h2)))
    assert (cert.status, cert.first_violation_order) == ("incompatible", 2)
    assert cert.residuals[1] == 0.0 and cert.residuals[2] > 1e-8
    # the order-2 verdict is the one Θ of (H₀, 0) gives H₂
    theta = qs_certify(TaylorHamiltonian((h0, zero))).metric.matrix
    assert cert.residuals[2] == stationarity_residual(h2, theta)


def test_a_linear_coefficient_far_from_unit_scale_keeps_the_verdict():
    # ‖M‖'s sum of squares underflowed to 0 at 1e-200, so every rounding-level
    # entry of M counted as significant; at 1e-300 a divide overflowed, and
    # from 1e160 on the sums of squares overflowed
    h0 = random_cryptohermitian(4, [-1.0, 0.0, 0.5, 1.5], seed=3)
    for scale in (1e-300, 1e-200, 1e160, 1e300):
        cert = qs_certify(TaylorHamiltonian((h0, scale * h0)))
        assert cert.status == "compatible", (scale, cert.detail)


_DENSE_H1 = np.array([[0.5, 0.3 + 0.2j, -0.4j], [0.3 - 0.2j, -0.7, 0.6], [0.4j, 0.6, 0.9]])
# M's pairs (0, 2) and (1, 2) are zero: the weights go through the join rule
_MIXED_H1 = np.array([[0.5, 0.3 + 0.2j, 0.0], [0.3 - 0.2j, -0.7, 0.0], [0.0, 0.0, 0.9]])


@pytest.mark.parametrize("h1", [_DENSE_H1, _MIXED_H1], ids=["vectorized", "joined"])
@pytest.mark.parametrize("scale", [1e-309, 1e-310, 1e-320])
def test_a_subnormal_linear_coefficient_keeps_the_verdict(h1, scale):
    # a ratio of two subnormal entries of M overflowed in its divide; H₁ is
    # Hermitian, so its scaled pairs stay conjugate and κ = 1 up to a divide
    cert = qs_certify(TaylorHamiltonian((np.diag([1.0, 2.0, 3.0]), scale * h1)))
    assert cert.status == "compatible", cert.detail
    npt.assert_allclose(cert.kappa, 1.0, rtol=1e-15)


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
    # H₁ is not factorized: in H₀'s basis its one pair fixes κ₂ = −1, which
    # no positive metric has
    cert = qs_solve(np.diag([1.0, 2.0]).astype(complex), rotation)
    assert (cert.status, cert.kappa, cert.first_violation_order) == ("incompatible", None, None)
    assert cert.detail == (
        "weight extraction produced non-real or non-positive values "
        "(max |Im| = 0.000e+00, min Re = -1.000e+00)"
    )


@pytest.mark.parametrize("j", [-1000, -40, -20, 0, 20])
def test_a_complex_spectrum_is_rejected_at_every_scale(j):
    # the realness bound is relative to max |λ|, with no floor of 1
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ExpectsRealSpectrum, match=re.escape(f"up to {2.0**j:.3e};")):
        qs_solve(2.0**j * rotation, np.diag([1.0, 2.0]))


def test_a_zero_order_0_coefficient_has_a_real_spectrum():
    cert = qs_solve(np.zeros((2, 2)), np.diag([1.0, 2.0]))
    assert cert.status == "compatible" and (cert.kappa == 1.0).all()


def test_a_defective_linear_coefficient_is_exceptional_through_its_pattern():
    # a Jordan block: in H₀ = diag(1, 2)'s basis, M = H₁ is one-sided at (0, 1)
    cert = qs_solve(np.diag([1.0, 2.0]), np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert cert.status == "exceptional" and cert.kappa is None
    assert cert.detail.startswith("one-sided overlap pattern at entries (0, 1)")


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


def _near_exceptional_point(r, phi, eps):
    """model_2x2 at s = r·|sin φ|·(1 + ε): at ε = 0 its eigenvectors coalesce,
    and below it its spectrum is complex."""
    return model_2x2(r, r * abs(np.sin(phi)) * (1.0 + eps), phi)


# both eigenbases ill-conditioned: the eigenbasis overlap L₀†R₁ is
# numerically singular here, while M = L₀†·H₁·R₀ is well defined
@example(r=0.7078067358268137, phi=1.0030021483327693, phi_sign=1.0,
         log_eps=-12.327597987000443, side=1.0, r1=1.1754195467288862,
         phi1=-0.35824836809725813, log_eps1=-11.903320346342873, side1=1.0)
@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(0.5, 2.0),
    phi=st.floats(0.2, 1.4),
    phi_sign=st.sampled_from((-1.0, 1.0)),
    log_eps=st.floats(-14.0, -1.0),
    side=st.sampled_from((-1.0, 1.0)),
    r1=st.floats(0.5, 2.0),
    phi1=st.one_of(st.floats(0.2, 1.4), st.floats(-1.4, -0.2)),
    log_eps1=st.floats(-14.0, -1.0),
    side1=st.sampled_from((-1.0, 1.0)),
)
def test_near_the_exceptional_point_results_are_typed_or_within_bounds(
    r, phi, phi_sign, log_eps, side, r1, phi1, log_eps1, side1
):
    h = _near_exceptional_point(r, phi * phi_sign, side * 10.0**log_eps)
    try:
        system = biorthogonal_decompose(h)
    except DefectiveMatrix:
        pass
    else:
        assert system.biorthonormality_residual() <= BIORTHO_TOL
        assert system.completeness_residual() <= BIORTHO_TOL
        assert norm_fro(system.reconstruct() - h) <= BIORTHO_TOL * norm_fro(h)
    # the real side may certify, or fail on the ill-conditioned metric
    expected = (ExpectsRealSpectrum, DefectiveMatrix) if side < 0 else NumericalError
    try:
        cert = qs_solve(h, np.diag([1.0, 2.0]))
    except expected:
        pass
    else:
        assert side > 0
        _finite_and_within_tolerance(cert)
    # H₁ near its own exceptional point too
    try:
        cert = qs_solve(h, _near_exceptional_point(r1, phi1, side1 * 10.0**log_eps1))
    except NumericalError:
        return
    _finite_and_within_tolerance(cert)


def _finite_and_within_tolerance(cert):
    """Finite κ, residuals and Θ, and every residual within tolerance of a
    compatible verdict."""
    for value in (cert.kappa, cert.residuals, cert.metric and cert.metric.matrix):
        assert value is None or np.isfinite(value).all()
    if cert.status == "compatible":
        assert max(cert.residuals) <= 1e-8


def test_scan_counts_a_non_positive_metric_near_the_exceptional_point_as_exceptional():
    # a real-spectrum draw just above the exceptional point of model_2x2,
    # whose metric candidate is not positive definite
    r, phi, eps = 0.5609263428091178, -0.43283294588095184, 1.2983937664646351e-12
    h = model_2x2(r, r * abs(np.sin(phi)) * (1.0 + eps), phi)
    family = TaylorHamiltonian((h, np.diag([1.0, 2.0]).astype(complex)))
    with pytest.raises(PositivityFailure):
        qs_certify(family)
    stats = qs_scan(_drawer(lambda rng, dim: family), 3, 2, 0)
    assert (stats.compatible, stats.incompatible, stats.exceptional) == (0, 0, 3)


def _planted_family(theta, hermitian_coefficients):
    """H_m = Θ^{−½}·h_m·Θ^{½}: every coefficient quasi-Hermitian for Θ."""
    root = principal_sqrt(theta)
    root_inv = np.linalg.inv(root)
    return TaylorHamiltonian(tuple(root_inv @ h @ root for h in hermitian_coefficients))


def _shifted(coefficients, tau):
    """The coefficients of the same H(t) expanded about t = τ."""
    return tuple(
        sum(math.comb(k, m) * tau ** (k - m) * coefficients[k] for k in range(m, len(coefficients)))
        for m in range(len(coefficients))
    )


@pytest.mark.parametrize("h1", [np.zeros(3), np.array([0.5, -1.0, 2.0])], ids=["zero", "diagonal"])
def test_higher_orders_fix_the_weights_order_1_leaves_free(h1):
    # Θ = K = diag(1, 4, 9) serves H₀ = diag(1, 2, 3), a diagonal H₁ and
    # H₂ = K^{−½}·A·K^{½}; order 1 leaves every weight free, and only H₂'s
    # pairs fix κ ∝ (1, 4, 9)
    rng = np.random.default_rng(0)
    coefficients = _planted_family(
        np.diag([1.0, 4.0, 9.0]), (np.diag([1.0, 2.0, 3.0]), np.diag(h1), _hermitian(rng, 3))
    ).coefficients
    cert = qs_certify(TaylorHamiltonian(coefficients))
    assert cert.status == "compatible", cert.detail
    npt.assert_allclose(cert.kappa, [1.0, 4.0, 9.0], rtol=1e-12)
    assert max(cert.residuals) <= 1e-15
    # the verdict does not depend on the time origin
    for tau in (0.25, 1.0):
        cert = qs_certify(TaylorHamiltonian(_shifted(coefficients, tau)))
        assert cert.status == "compatible", (tau, cert.detail)


@st.composite
def _planted_families(draw):
    """A family with a planted metric Θ (cond ≤ 100): H₀ from a Hermitian h₀
    with eigenvalues at least 0.1 apart, and 1–3 more coefficients, each zero,
    commuting with h₀ or dense Hermitian."""
    d = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    theta = (u * np.exp(rng.uniform(0.0, np.log(100.0), d))) @ u.conj().T
    basis = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    spectrum = np.cumsum(rng.uniform(0.1, 1.0, d))
    coefficients = [(basis * spectrum) @ basis.conj().T]
    for kind in draw(st.lists(st.sampled_from(["zero", "commuting", "dense"]), min_size=1, max_size=3)):
        if kind == "zero":
            coefficients.append(np.zeros((d, d)))
        elif kind == "commuting":
            coefficients.append((basis * rng.standard_normal(d)) @ basis.conj().T)
        else:
            coefficients.append(_hermitian(rng, d))
    return _planted_family(theta, coefficients)


@settings(max_examples=150, deadline=None)
@given(family=_planted_families())
def test_a_planted_metric_is_never_refuted(family):
    cert = qs_certify(family)
    assert cert.status in ("compatible", "exceptional"), cert.detail


_TIME_ORIGINS = (-1.0, -0.5, 0.25, 1.0)


@settings(max_examples=60, deadline=None)
@given(family=_planted_families())
def test_a_planted_compatible_family_is_compatible_about_every_time_origin(family):
    # whether one stationary metric serves H(t) does not depend on t's origin
    if qs_certify(family).status != "compatible":
        return
    for tau in _TIME_ORIGINS:
        cert = qs_certify(TaylorHamiltonian(_shifted(family.coefficients, tau)))
        assert cert.status == "compatible", (tau, cert.detail)


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_a_sampled_family_keeps_its_compatibility_about_every_time_origin(name):
    # H(τ) of a family no metric serves need not have a real spectrum, so an
    # incompatible family may fail its order-0 precondition after the shift;
    # it never becomes compatible, and a compatible one stays compatible
    for coefficients in SAMPLERS[name]([np.random.default_rng(s) for s in range(12)], 4):
        base = qs_certify(TaylorHamiltonian(tuple(coefficients))).status == "compatible"
        for tau in _TIME_ORIGINS:
            try:
                cert = qs_certify(TaylorHamiltonian(_shifted(coefficients, tau)))
            except NumericalError:
                assert not base, tau
            else:
                assert (cert.status == "compatible") == base, (tau, cert.detail)


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
    kappa = _solve_weights(m[None, None], (np.abs(m) >= 1e-8)[None, None])[0]
    assert kappa[0] == 1.0
    assert kappa[1] == pytest.approx(2.0 / 0.5)
    assert kappa[2] == 1.0


def _planted_congruence(rng, kappa, mask):
    """A stack M with T·M = M†·T on every masked pair for T = diag(κ): each
    pair (j, k), j < k, draws M_jk and sets M_kj = (κ_j·M_jk / κ_k)*, and
    every other entry is 0."""
    m = np.zeros(mask.shape, dtype=complex)
    upper = np.triu(mask, 1)
    m[upper] = rng.standard_normal(upper.sum()) + 1j * rng.standard_normal(upper.sum())
    ratio = kappa[:, None] / kappa[None, :]
    return m + (ratio * m).conj().swapaxes(-1, -2)


def _component_roots(mask):
    """The first index of each weight's component under the pairs of every
    order of a symmetric mask stack (..., d, d)."""
    d = mask.shape[-1]
    adjacent = mask.reshape(-1, d, d).any(axis=0) | np.eye(d, dtype=bool)
    reach = adjacent
    for _ in range(d):
        reach = (reach.astype(int) @ adjacent.astype(int)) > 0
    return reach.argmax(axis=1)


def _check_join_rule(m, mask, kappa):
    """Solve planted congruences with one stacked ``_solve_weights`` call and
    check each family: κ (d,) with M of one family, (d, d) or (degree, d, d),
    or κ (n, d) with a stack (n, degree, d, d).  Returns the solved κ in
    ``kappa``'s shape."""
    kappas = np.atleast_2d(kappa)
    d = kappas.shape[-1]
    ms = m.reshape(len(kappas), -1, d, d)
    masks = mask.reshape(ms.shape)
    solved = _solve_weights(ms, masks)
    for one, links, planted, s in zip(ms, masks, kappas, solved):
        root = _component_roots(links)
        npt.assert_allclose(s, planted / planted[root], rtol=1e-12, atol=0)
        # T·M = M†·T on each masked pair, with the solved T
        t_m = s[:, None] * one
        m_t = one.conj().swapaxes(-1, -2) * s[None, :]
        assert (np.abs(t_m - m_t)[links] <= 1e-12 * np.abs(t_m)[links]).all()
    return solved.reshape(np.shape(kappa))


def test_join_rule_recovers_a_planted_chain():
    # pairs (0, 2) and (1, 2) only: the second join meets 2 already under
    # root 0, so the component of 1, the later root, takes the inverse factor
    kappa = np.array([1.0, 3.0, 0.5])
    mask = np.zeros((3, 3), dtype=bool)
    mask[[0, 2, 1, 2], [2, 0, 2, 1]] = True
    m = _planted_congruence(np.random.default_rng(0), kappa, mask)
    npt.assert_allclose(_check_join_rule(m, mask, kappa), kappa, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 7),
    orders=st.integers(1, 3),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_join_rule_recovers_planted_weights_on_random_masks(d, orders, density, seed):
    # every order's pairs join components the same way, M⁽¹⁾ included; a
    # weight no pair reaches keeps 1, its own κ/κ_root
    rng = np.random.default_rng(seed)
    kappa = np.exp(rng.uniform(-3.0, 3.0, d))
    upper = np.triu(rng.uniform(size=(orders, d, d)) < density, 1)
    mask = upper | upper.swapaxes(1, 2)
    _check_join_rule(_planted_congruence(rng, kappa, mask), mask, kappa)


def _join_rule_oracle(m, links):
    """One family's κ by the per-family join loop that the stacked solver
    replaced: ``m`` and ``links`` (degree, d, d), pair by pair in numpy's
    scalar arithmetic."""
    kappa = np.ones(m.shape[-1], dtype=complex)
    root = np.arange(m.shape[-1])
    for mm, mask in zip(m, links):
        for j, k in np.argwhere(np.triu(mask, 1)).tolist():
            if root[j] != root[k]:
                c = kappa[j] * mm[j, k] / np.conj(mm[k, j]) / kappa[k]
                joined = root == max(root[j], root[k])
                kappa[joined] *= c if root[k] > root[j] else 1.0 / c
                root[joined] = min(root[j], root[k])
    return kappa


def _joined_through_row_0(links):
    """Per family of a mask stack (n, degree, d, d): whether every masked
    pair of every order lies among the weights that the pairs (0, k) of
    M⁽¹⁾ join, so that no pair past those fixes a weight."""
    star = links[:, 0, 0] | (np.arange(links.shape[-1]) == 0)
    inside = star[:, :, None] & star[:, None, :]
    outside = links & ~inside[:, None] & ~np.eye(links.shape[-1], dtype=bool)
    return ~outside.any(axis=(1, 2, 3))


@st.composite
def _mask_stacks(draw):
    """A symmetric mask stack (n, degree, d, d), n 1–8, degree 1–3, d 2–7,
    whose M⁽¹⁾ pattern per family is complete, empty, a star on index 0 or
    random, with random higher orders; and a seed for the entries."""
    d, degree = draw(st.integers(2, 7)), draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(["complete", "empty", "star", "random"]),
                          min_size=1, max_size=8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    density = rng.uniform(size=(len(kinds), degree, 1, 1))
    upper = np.triu(rng.uniform(size=(len(kinds), degree, d, d)) < density, 1)
    for first, kind in zip(upper[:, 0], kinds):
        if kind == "complete":
            first[:] = np.triu(np.ones((d, d), dtype=bool), 1)
        elif kind == "empty":
            first[:] = False
        elif kind == "star":
            first[1:] = False
    return upper | upper.swapaxes(-1, -2), seed


@settings(max_examples=60, deadline=None)
@given(stack=_mask_stacks())
def test_stacked_weights_equal_the_per_family_join_loop(stack):
    # every row: its own stack of one bit for bit, and the per-family loop
    # bit for bit where only the pairs (0, k) of M⁽¹⁾ join (complete, empty
    # and star patterns), within 1e-15 elsewhere, where numpy's array product
    # rounds otherwise than its scalar product
    links, seed = stack
    rng = np.random.default_rng(seed)
    ms = rng.standard_normal(links.shape) + 1j * rng.standard_normal(links.shape)
    kappa = _solve_weights(ms, links)
    assert kappa.shape == (len(links), links.shape[-1])
    exact = _joined_through_row_0(links)
    for i in range(len(links)):
        assert np.array_equal(_solve_weights(ms[i:i + 1], links[i:i + 1])[0], kappa[i])
        oracle = _join_rule_oracle(ms[i], links[i])
        if exact[i]:
            assert np.array_equal(kappa[i], oracle)
        else:
            assert (np.abs(kappa[i] - oracle) <= 1e-15 * np.abs(oracle)).all()
    # T·M = M†·T on every masked pair for planted weights, one stacked solve
    kappas = np.exp(rng.uniform(-3.0, 3.0, kappa.shape))
    planted = np.array([_planted_congruence(rng, k, mask) for k, mask in zip(kappas, links)])
    _check_join_rule(planted, links, kappas)


def test_one_sided_pattern_is_exceptional():
    # H₀ = diag(1, 2) has the unit vectors as its biorthonormal basis, so
    # M = H₁, whose pair (0, 1) is significant on one side only
    h1 = np.array([[1.0, 1.0], [1e-14, 2.0]])
    cert = qs_certify(TaylorHamiltonian((np.diag([1.0, 2.0]), h1)))
    assert cert.status == "exceptional" and cert.kappa is None
    assert cert.detail == (
        "one-sided overlap pattern at entries (0, 1): "
        "weight ratios are not determined by a generic solve"
    )


def test_scan_counts_a_non_real_linear_spectrum_as_incompatible():
    # H₁ is not factorized, so its non-real spectrum is no exceptional trial:
    # the congruence weights decide
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    family = TaylorHamiltonian((np.diag([1.0, 2.0]).astype(complex), rotation))
    stats = qs_scan(_drawer(lambda rng, dim: family), 3, 2, 0)
    assert (stats.compatible, stats.incompatible, stats.exceptional) == (0, 3, 0)


def test_scan_counts_and_determinism():
    stats_a = qs_scan("shared", 5, 3, seed=100)
    stats_b = qs_scan("shared", 5, 3, seed=100)
    assert stats_a == stats_b
    assert stats_a.compatible == 5

    single = qs_scan(SAMPLERS["shared"], 1, 4, seed=0)
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
        except (DefectiveMatrix, ExpectsRealSpectrum, PositivityFailure):
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
    """M = A·diag(Re ε₁)·A⁻¹ over the eigenbasis overlap A = L₀†R₁."""
    sys0 = biorthogonal_decompose(ham.coefficients[0])
    sys1 = biorthogonal_decompose(ham.coefficients[1])
    a = sys0.left_vectors.conj().T @ sys1.right_vectors
    return (a * sys1.eigenvalues.real) @ np.linalg.inv(a)


def _condition_matrix(ham):
    """M = L₀†·H₁·R₀, as the certifier forms it: H₁ in H₀'s biorthonormal basis."""
    sys0 = biorthogonal_decompose(ham.coefficients[0])
    return sys0.left_vectors.conj().T @ ham.coefficients[1] @ sys0.right_vectors


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
    stack = np.array([family.coefficients for family in families])
    for family, outcome in zip(families, _certify_stack(stack, 1e-8)):
        _same_certificate(outcome, qs_certify(family))


def test_vectorized_weights_equal_the_join_rule():
    # every off-diagonal pair significant: κ_k = M₀ₖ / M*ₖ₀ in one step must
    # reproduce _solve_weights' join rule, the per-family reference, bit for
    # bit
    compared = 0
    for seed in range(8):
        h0, h1, _ = _metric_compatible_pair(seed, 5)
        ham = TaylorHamiltonian((h0, h1))
        if seed % 2:
            ham = sample_independent(np.random.default_rng(seed), 5)
        m = _condition_matrix(ham)
        significant = np.abs(m) >= 1e-8 * np.linalg.norm(m)
        assert significant.all()
        kappa = _solve_weights(m[None, None], significant[None, None])[0]
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


def _scales_exactly(matrices, j):
    """Whether 2ʲ·matrices is exact: every nonzero real and imaginary part
    stays in the normal range, where a subnormal part would lose bits."""
    f = np.array(matrices, dtype=complex).view(float)
    exponents = np.frexp(np.abs(f[f != 0]))[1] + j
    return exponents.size == 0 or (exponents.min() >= -1021 and exponents.max() <= 1024)


def _times_power_of_two(matrices, j):
    """2ʲ·matrices, which must be exact."""
    assert _scales_exactly(matrices, j), j
    return np.ldexp(np.array(matrices, dtype=complex).view(float), j).view(complex)


def _outcome(call):
    """The certificate of a call, or the type of the error it raises, with
    every RuntimeWarning raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call()
        except NumericalError as error:
            return type(error)


def _same_verdict(scaled, base):
    """The same error type, or the same status and first violation order
    with κ within 1e-10."""
    if isinstance(base, type):
        assert scaled is base
        return
    assert (scaled.status, scaled.first_violation_order) == (
        base.status, base.first_violation_order
    ), scaled.detail
    assert (scaled.kappa is None) == (base.kappa is None)
    if base.kappa is not None:
        npt.assert_allclose(scaled.kappa, base.kappa, rtol=1e-10, atol=0)


def test_results_do_not_depend_on_a_power_of_two_scaling():
    # quasi-Hermiticity is homogeneous in each coefficient and in Θ: the
    # residual keeps its bits where the scaling is exact, the decomposition
    # and the certifier keep their verdicts, and none of them overflows; H₀
    # at 2¹⁰²⁰ overflowed the residual's ‖H‖·‖Θ‖, which then read 0
    families = [SAMPLERS[name]([np.random.default_rng(s)], 4)[0]
                for name in sorted(SAMPLERS) for s in (1, 5)]
    checked = 0
    for coefficients in families:
        base = _outcome(lambda: qs_certify(TaylorHamiltonian(tuple(coefficients))))
        for j in (-1000, -500, 0, 500, 1000, 1020):
            h0 = _times_power_of_two(coefficients[0], j)
            everything = _times_power_of_two(coefficients, j)
            for scaled in (np.concatenate([h0[None], coefficients[1:]]), everything):
                checked += 1
                _same_verdict(_outcome(lambda: qs_certify(TaylorHamiltonian(tuple(scaled)))), base)
            if getattr(base, "metric", None) is None:
                continue
            theta = base.metric.matrix
            for h, r in zip(coefficients, base.residuals):
                for pair in ((_times_power_of_two(h, j), theta), (h, _times_power_of_two(theta, j))):
                    assert _outcome(lambda: stationarity_residual(*pair)) == r
    assert checked == 72
    jordan = np.diag([0.5, 0.5, 0.5]) + np.diag([1.0, 1.0], 1)
    for m in [coefficients[0] for coefficients in families] + [jordan]:
        verdict = _outcome(lambda: type(biorthogonal_decompose(m)))
        for j in (-1000, -500, 0, 500, 1000):
            assert _outcome(lambda: type(biorthogonal_decompose(_times_power_of_two(m, j)))) is verdict


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_certificates_do_not_depend_on_the_time_unit(name):
    # t → 2ʲ·t takes H_m to 2^{jm}·H_m, and every order is brought to unit
    # scale before any decision, so each field keeps its bits; a j that
    # makes an entry subnormal is skipped, as that scaling is inexact
    compared = 0
    for coefficients in SAMPLERS[name]([np.random.default_rng(s) for s in range(30)], 4):
        base = qs_certify(TaylorHamiltonian(tuple(coefficients)))
        for j in (-300, -7, -1, 1, 3, 300):
            if not all(_scales_exactly(h, j * m) for m, h in enumerate(coefficients)):
                continue
            scaled = tuple(_times_power_of_two(h, j * m) for m, h in enumerate(coefficients))
            _same_certificate(qs_certify(TaylorHamiltonian(scaled)), base)
            compared += 1
    assert compared == 180


def _well_conditioned(rng, d, cap=10.0):
    """A complex Gaussian S with cond(S) ≤ ``cap``, drawn until one is."""
    while True:
        s = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if np.linalg.cond(s) <= cap:
            return s


@pytest.mark.parametrize("d", [3, 5, 8])
def test_a_similarity_keeps_the_verdict_and_maps_the_metric_back(d):
    # H_m → S⁻¹·H_m·S for every m: a metric Θ′ of the new family gives
    # S^{−†}·Θ′·S⁻¹ for the old one.  Θ′ need not be S†·Θ·S: where order 1
    # leaves weights free, κ = 1 is taken in a basis whose normalization S
    # changes
    rng = np.random.default_rng(d)
    for name in sorted(SAMPLERS):
        for coefficients in SAMPLERS[name]([np.random.default_rng(s) for s in range(40)], d):
            s = _well_conditioned(rng, d)
            s_inv = np.linalg.inv(s)
            base = qs_certify(TaylorHamiltonian(tuple(coefficients)))
            cert = qs_certify(TaylorHamiltonian(tuple(s_inv @ h @ s for h in coefficients)))
            assert (cert.status, cert.first_violation_order) == (
                base.status, base.first_violation_order
            ), (name, cert.detail, base.detail)
            if cert.metric is None:
                continue
            theta = s_inv.conj().T @ cert.metric.matrix @ s_inv
            passed = len(cert.residuals) if cert.first_violation_order is None else (
                cert.first_violation_order
            )
            for h in coefficients[:passed]:
                assert stationarity_residual(h, theta) <= 1e-12


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
        qs_scan(_drawer(lambda rng, dim: calls.append(dim)), MAX_TRIALS + 1, 3, 0)
    assert calls == []


def test_scans_at_neighbouring_seeds_share_no_family():
    drawn = {5: [], 6: []}
    for seed, families in drawn.items():
        def sampler(rng, dim, families=families):
            families.append(sample_shared(rng, dim))
            return families[-1]

        qs_scan(_drawer(sampler), 10, 4, seed)
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
            assert stats == qs_scan(_drawer(PUBLIC_SAMPLERS[name], degree), trials, dim, seed)


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
    assert expected == qs_scan(_drawer(PUBLIC_SAMPLERS[name], draw.degree), trials, dim, seed)
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


def test_a_sampler_that_is_no_drawer_raises_before_sampling(monkeypatch):
    def unreachable(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(quasistationary, "_trial_rng", unreachable)
    constant = _drawer(lambda rng, dim: TaylorHamiltonian((np.eye(dim),)), degree=0)
    for sampler in (lambda rng, dim: sample_shared(rng, dim), sample_shared, constant):
        with pytest.raises(ValueError, match="a drawer with a degree >= 1"):
            qs_scan(sampler, 10, 4, 0)


def test_a_wrongly_shaped_stack_raises():
    # a stack of another dimension or degree, or one family too few
    for sample, degree in ((sample_shared, 2), (sample_shared_degree2, 1)):
        with pytest.raises(DimensionMismatch, match=r"not \(3, [23], 4, 4\)"):
            qs_scan(_drawer(sample, degree), 3, 4, 0)
    draw = SAMPLERS["shared"]
    for wrong in (lambda rngs, dim: draw(rngs, dim + 1), lambda rngs, dim: draw(rngs[1:], dim)):
        wrong.degree = 1
        with pytest.raises(DimensionMismatch, match=r"not \(3, 2, 4, 4\)"):
            qs_scan(wrong, 3, 4, 0)


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
    for sampler in ("shared", SAMPLERS["shared"]):
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
    for sampler in ("independent", _drawer(lambda rng, dim: calls.append(dim))):
        with pytest.raises(ValueError, match="tol_qs"):
            qs_scan(sampler, 20, 4, 0, tol)
    assert calls == []
