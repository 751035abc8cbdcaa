"""Tests for the dense complex matrix core."""

import json
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptoherm import (
    DefectiveMatrix,
    DimensionMismatch,
    NotPositiveDefinite,
    SingularMatrix,
    biorthogonal_decompose,
    invert,
    norm_fro,
    principal_sqrt,
)
from cryptoherm import DysonFamily, cli, hermitize, models
from cryptoherm.linalg import (
    BIORTHO_TOL,
    as_state,
    decompose_stack,
    invert_stack,
    power_table,
    stacked_fro,
)
from cryptoherm.models import model_2x2, random_cryptohermitian, sample_independent, sample_shared
from cryptoherm.quasistationary import _certify_stack, qs_certify


def test_decompose_hermitian_diagonal():
    system = biorthogonal_decompose(np.diag([1.0, 2.0]).astype(complex))
    npt.assert_allclose(system.eigenvalues, [1.0, 2.0])
    npt.assert_allclose(np.abs(system.right_vectors), np.eye(2), atol=1e-14)
    npt.assert_allclose(np.abs(system.left_vectors), np.eye(2), atol=1e-14)


def test_decompose_hand_derived_2x2():
    # characteristic polynomial of [[1,1],[4,1]] is l^2 - 2l - 3 = (l-3)(l+1);
    # null spaces give right vectors (1, 2) for 3 and (1, -2) for -1.
    system = biorthogonal_decompose(np.array([[1.0, 1.0], [4.0, 1.0]], dtype=complex))
    npt.assert_allclose(system.eigenvalues, [-1.0, 3.0], atol=1e-12)
    expected = {
        -1.0: np.array([1.0, -2.0]) / np.sqrt(5.0),
        3.0: np.array([1.0, 2.0]) / np.sqrt(5.0),
    }
    for j, eig in enumerate([-1.0, 3.0]):
        overlap = abs(np.vdot(expected[eig], system.right_vectors[:, j]))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_decompose_jordan_block_is_defective():
    with pytest.raises(DefectiveMatrix):
        biorthogonal_decompose(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_decompose_left_vectors_are_adjoint_eigenvectors():
    m = random_cryptohermitian(4, [0.5, 1.0, 2.0, 3.5], seed=7)
    system = biorthogonal_decompose(m)
    for j in range(4):
        lhs = m.conj().T @ system.left_vectors[:, j]
        rhs = np.conj(system.eigenvalues[j]) * system.left_vectors[:, j]
        npt.assert_allclose(lhs, rhs, atol=1e-9)


def test_decompose_normalization_convention():
    m = random_cryptohermitian(3, [-1.0, 0.5, 2.0], seed=3)
    system = biorthogonal_decompose(m)
    npt.assert_allclose(np.linalg.norm(system.right_vectors, axis=0), 1.0, atol=1e-12)
    gram = system.left_vectors.conj().T @ system.right_vectors
    npt.assert_allclose(gram, np.eye(3), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    dim=st.sampled_from([2, 3, 4, 8]),
)
def test_decompose_recovers_planted_spectra(seed, dim):
    rng = np.random.default_rng(seed)
    spectrum = np.sort(rng.uniform(-3.0, 3.0, dim))
    while dim > 1 and np.diff(spectrum).min() < 0.2:
        spectrum = np.sort(rng.uniform(-3.0, 3.0, dim))
    m = random_cryptohermitian(dim, spectrum, seed=seed)
    system = biorthogonal_decompose(m)
    assert system.biorthonormality_residual() <= 1e-10
    assert system.completeness_residual() <= 1e-10
    npt.assert_allclose(
        np.sort(system.eigenvalues.real),
        spectrum,
        atol=1e-8 * max(np.abs(spectrum).max(), 1.0),
    )
    assert norm_fro(system.reconstruct() - m) <= 1e-10 * max(norm_fro(m), 1.0)


def test_principal_sqrt_identity_and_diagonal():
    npt.assert_allclose(principal_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    npt.assert_allclose(
        principal_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
    )


def test_principal_sqrt_remultiplication():
    rng = np.random.default_rng(11)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = b.conj().T @ b
    s = principal_sqrt(p)
    npt.assert_allclose(s, s.conj().T, atol=1e-12 * norm_fro(s))
    assert norm_fro(s @ s - p) <= 1e-10 * norm_fro(p)


def test_principal_sqrt_rejects_non_positive():
    with pytest.raises(NotPositiveDefinite):
        principal_sqrt(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite):
        principal_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(NotPositiveDefinite):
        principal_sqrt(np.zeros((2, 2)))


def test_invert_diagonal():
    npt.assert_allclose(
        invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=1e-15
    )


def test_invert_singular_raises():
    with pytest.raises(SingularMatrix):
        invert(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_invert_residual():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    npt.assert_allclose(a @ invert(a), np.eye(5), atol=1e-12)


def test_as_state_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="finite"):
            as_state([bad, 1.0], 2)
    with pytest.raises(DimensionMismatch):
        as_state([1.0, 2.0, 3.0], 2)


def test_decompose_rejects_non_finite_and_non_square():
    with pytest.raises(ValueError):
        biorthogonal_decompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        biorthogonal_decompose(np.ones((2, 3)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_sqrt_squares_back_property(seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = b.conj().T @ b + 0.1 * np.eye(3)
    s = principal_sqrt(p)
    assert norm_fro(s @ s - p) <= 1e-10 * norm_fro(p)


# ---------------------------------------------------------------------------
# stacks: one eig, SVD and inverse for all entries, each as if alone
# ---------------------------------------------------------------------------

def _hard_2x2(kind, a, b, c):
    """A well-conditioned matrix, model_2x2 near or at its exceptional point
    (s → r·|sin φ|), or a (perturbed) Jordan block."""
    if kind == "random":
        return random_cryptohermitian(2, [a, a + 0.5 + abs(b)], seed=int(1e6 * abs(c)))
    if kind == "near-ep":
        r, phi = 1.0 + abs(a), 0.3 + abs(b)
        return model_2x2(r, r * abs(np.sin(phi)) * (1.0 + c**2), phi)
    return np.array([[a, 1.0], [c**8, a]], dtype=complex)


_entries = st.lists(
    st.tuples(
        st.sampled_from(["random", "near-ep", "jordan"]),
        st.floats(-2.0, 2.0),
        st.floats(-1.0, 1.0),
        st.floats(-0.1, 0.1),
    ),
    min_size=1,
    max_size=6,
)


@pytest.mark.parametrize(
    "matrix, message",
    [
        (np.array([[-2.0, 1.0], [0.0, -2.0]], dtype=complex), "eigenvector matrix numerically singular"),
        (_hard_2x2("near-ep", 2.0, 0.5, 0.0), "eigenvector basis too ill-conditioned"),
        (_hard_2x2("near-ep", 2.0, 0.5, 1e-6), "spectral reconstruction residual"),
    ],
)
def test_each_gate_rejects_its_matrix(matrix, message):
    # a Jordan block, then model_2x2 at and just past its exceptional point
    with pytest.raises(DefectiveMatrix, match=f"^{message}"):
        biorthogonal_decompose(matrix)
    assert str(decompose_stack(matrix[None], BIORTHO_TOL)[1][0]).startswith(message)


@settings(max_examples=60, deadline=None)
@given(entries=_entries, padded=st.booleans())
def test_stack_rows_equal_single_decompositions(entries, padded):
    mats = [_hard_2x2(*e) for e in entries]
    if padded:  # dim 4: each hard block beside a well-conditioned one
        well = np.array([[3.0, 1.0], [0.5, 5.0]], dtype=complex)
        mats = [np.block([[m, np.zeros((2, 2))], [np.zeros((2, 2)), well]]) for m in mats]
    stack, failures = decompose_stack(np.array(mats), BIORTHO_TOL)
    for i, (m, failure) in enumerate(zip(mats, failures)):
        if failure is not None:
            with pytest.raises(DefectiveMatrix) as excinfo:
                biorthogonal_decompose(m)
            assert str(excinfo.value) == str(failure)
            continue
        single = biorthogonal_decompose(m)
        assert np.array_equal(stack.eigenvalues[i], single.eigenvalues)
        assert np.array_equal(stack.right_vectors[i], single.right_vectors)
        assert np.array_equal(stack.left_vectors[i], single.left_vectors)
        assert stack.condition_estimate[i] == single.condition_estimate


def test_stacked_call_keeps_the_batch_shape_and_names_the_failing_matrix():
    mats = np.array([random_cryptohermitian(3, [0.0, 1.0, 2.5], seed) for seed in range(6)])
    system = biorthogonal_decompose(mats.reshape(2, 3, 3, 3))
    assert system.eigenvalues.shape == (2, 3, 3)
    assert system.condition_estimate.shape == (2, 3)
    assert system.biorthonormality_residual().shape == (2, 3)
    single = biorthogonal_decompose(mats[4])
    assert np.array_equal(system.left_vectors[1, 1], single.left_vectors)
    assert system.completeness_residual()[1, 1] == single.completeness_residual()
    assert np.array_equal(system.reconstruct()[1, 1], single.reconstruct())

    assert biorthogonal_decompose(np.zeros((0, 3, 3))).eigenvalues.shape == (0, 3)

    jordan = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]], dtype=complex)
    mats[4] = jordan
    with pytest.raises(DefectiveMatrix, match=r"^matrix \(1, 1\): eigenvector matrix"):
        biorthogonal_decompose(mats.reshape(2, 3, 3, 3))


@pytest.mark.parametrize("layout", ["C", "transposed", "adjoint", "real", "real-transposed"])
def test_stacked_fro_sums_as_numpy_norm(layout):
    # every stacked gate and residual rests on this: each entry must equal
    # np.linalg.norm of its matrix bit for bit, whatever the memory layout
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 5, 8, 17, 40):
        c = rng.standard_normal((6, d, d)) + 1j * rng.standard_normal((6, d, d))
        c *= 10.0 ** rng.uniform(-6.0, 6.0, (6, 1, 1))
        stack = {
            "C": c,
            "transposed": c.swapaxes(-1, -2),
            "adjoint": c.conj().swapaxes(-1, -2),
            "real": c.real.copy(),
            "real-transposed": c.real.swapaxes(-1, -2),
        }[layout]
        norms = stacked_fro(stack)
        for matrix, value in zip(stack, norms):
            assert value == np.linalg.norm(matrix)
            assert norm_fro(matrix) == np.linalg.norm(matrix)
            assert norm_fro(matrix[0]) == np.linalg.norm(matrix[0])  # a vector
        assert np.array_equal(stacked_fro(stack.reshape(2, 3, d, d)), norms.reshape(2, 3))


def test_stacked_fro_of_an_integer_matrix_sums_as_numpy_norm():
    # an integer matrix is summed as its float copy, as np.linalg.norm sums it
    matrix = np.arange(-12, 13).reshape(5, 5) * 7
    assert stacked_fro(matrix) == np.linalg.norm(matrix)
    assert np.array_equal(stacked_fro(np.stack([matrix, 3 * matrix])),
                          [np.linalg.norm(matrix), np.linalg.norm(3 * matrix)])
    assert norm_fro(matrix) == np.linalg.norm(matrix)


@pytest.mark.parametrize("real", [False, True])
def test_stacked_fro_scales_by_powers_of_two_outside_the_normal_range(real):
    # the sums of squares underflow to 0 at 2**-600 and overflow at 2**600;
    # a power of two scales the norm exactly
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
    a = a.real.copy() if real else a
    assert np.array_equal(stacked_fro(2.0**-600 * a), 2.0**-600 * stacked_fro(a))
    assert np.isfinite(stacked_fro(2.0**600 * a)).all()
    assert np.array_equal(stacked_fro(2.0**600 * a), 2.0**600 * stacked_fro(a))
    assert norm_fro(2.0**-600 * a[0]) == 2.0**-600 * norm_fro(a[0])


# ---------------------------------------------------------------------------
# one SVD gates every inverse, and each matrix is factorized once
# ---------------------------------------------------------------------------

def _mixed_stack(rng, d):
    """Regular, zero, rank-deficient and σ_min/σ_max ≈ 1e-12 matrices of dim d."""
    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    u, _ = np.linalg.qr(gaussian(d, d))
    v, _ = np.linalg.qr(gaussian(d, d))
    near = [(u * np.geomspace(1.0, ratio, d)) @ v for ratio in (0.5e-12, 1e-12, 2e-12)]
    rank_deficient = gaussian(d, d - 1) @ gaussian(d - 1, d) if d > 1 else np.zeros((1, 1))
    return np.array(
        [gaussian(d, d), np.zeros((d, d)), rank_deficient, *near, 1e-150 * gaussian(d, d)]
    )


def test_invert_stack_entries_equal_single_matrix_calls():
    rng = np.random.default_rng(8)
    for d in range(1, 41):
        stack = _mixed_stack(rng, d)
        inverses, sv, singular = invert_stack(stack)
        assert singular[1] and singular[2]
        for m, m_inv, s, flag in zip(stack, inverses, sv, singular):
            assert np.array_equal(s, np.linalg.svd(m, compute_uv=False))
            if flag:
                assert np.array_equal(m_inv, np.eye(d))
                with pytest.raises(SingularMatrix):
                    invert(m)
            else:
                assert np.array_equal(m_inv, np.linalg.inv(m))
                assert np.array_equal(invert(m), m_inv)


@pytest.fixture
def factorizations(monkeypatch):
    """Counts of the np.linalg.svd and np.linalg.inv calls made in the test."""
    counts = Counter()
    for name in ("svd", "inv"):
        def counted(*args, _call=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_hermitize_factorizes_the_map_once(factorizations):
    omega = np.array([[2.0, 1.0], [0.5, 3.0]], dtype=complex)
    hermitize(np.diag([1.0, 2.0]), omega)
    assert factorizations == {"svd": 1, "inv": 1}


def test_constant_family_inverts_once(factorizations):
    family = DysonFamily.constant(np.array([[2.0, 1.0], [0.5, 3.0]]))
    family.omega_inv(0.0)
    family.omega_inv(np.linspace(0.0, 1.0, 3))
    assert factorizations == {"svd": 1, "inv": 1}


def test_random_similarity_factorizes_each_draw_once(factorizations, monkeypatch):
    # at cap 10, seed 1 takes 13 draws of a dim-8 S (12 rejected)
    monkeypatch.setattr(models, "DEFAULT_COND_CAP", 10.0)
    random_cryptohermitian(8, np.arange(8.0), seed=1)
    assert factorizations == {"svd": 13, "inv": 13}
    factorizations.clear()
    monkeypatch.setattr(models, "DEFAULT_COND_CAP", 100.0)
    random_cryptohermitian(8, np.arange(8.0), seed=4)
    assert factorizations == {"svd": 1, "inv": 1}


def test_cli_hermitize_factorizes_the_map_once_per_stage(tmp_path, factorizations):
    # the config's constant map is gated and inverted once, when it is
    # parsed; hermitize takes that inverse from the family
    matrix = random_cryptohermitian(32, np.linspace(-3.0, 3.0, 32), seed=7)
    omega = np.eye(32) + 0.1 * np.tri(32)
    pairs = lambda a: np.stack([a.real, a.imag], axis=-1).tolist()
    config = tmp_path / "hermitize.json"
    config.write_text(json.dumps({
        "command": "hermitize",
        "model": {"matrix": pairs(matrix)},
        "dyson": {"kind": "constant", "matrix": pairs(omega.astype(complex))},
    }))
    factorizations.clear()
    assert cli.main(["--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert factorizations == {"svd": 1, "inv": 1}


def test_certification_factorizes_only_the_order_0_eigenvector_gate(factorizations):
    # H₀'s decomposition gates its eigenvectors with one SVD and inverts them
    # with one LU; M = L₀†·H₁·R₀ needs no further factorization, and H₁ none
    families = [sample_shared(np.random.default_rng(s), 4) for s in range(3)]
    families += [sample_independent(np.random.default_rng(s), 4) for s in range(3)]
    factorizations.clear()
    qs_certify(families[0])
    assert factorizations == {"svd": 1, "inv": 1}
    factorizations.clear()
    _certify_stack(np.array([family.coefficients for family in families]), 1e-8)
    assert factorizations == {"svd": 1, "inv": 1}


def test_power_table_rows_with_a_clear_sign_bit_equal_numpy_pow_bit_for_bit():
    rng = np.random.default_rng(0)
    special = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, np.inf, -np.inf]
    t = np.concatenate([rng.uniform(-2.0, 2.0, 200_000), special])
    for count in (1, 2, 6, 19):
        table = power_table(t, count)
        reference = t[:, None] ** np.arange(count)
        clear = ~np.signbit(t)
        assert table.shape == (t.size, count)
        assert np.array_equal(table[clear].view(np.int64), reference[clear].view(np.int64))
        # a set sign bit: the same signs and infinities, and values at rounding level
        assert np.array_equal(np.signbit(table), np.signbit(reference))
        finite = np.isfinite(reference)
        assert np.array_equal(np.isfinite(table), finite)
        err = np.abs(table[finite] - reference[finite])
        assert (err <= 4e-16 * np.abs(reference[finite])).all()
