"""Tests for the reference model builders and demonstration scenarios."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptoherm import (
    DefectiveMatrix,
    DimensionMismatch,
    GridSpec,
    ResampleExhausted,
    biorthogonal_decompose,
    discretize_schrodinger,
    generator,
    hermitize,
    model_2x2,
    models,
    norm_fro,
    random_cryptohermitian,
    scenario_falsification,
    scenario_random,
)


def test_grid_spec_validation():
    grid = GridSpec(-1.0, 1.0, 5)
    assert grid.spacing == pytest.approx(0.5)
    npt.assert_allclose(grid.points(), [-1.0, -0.5, 0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        GridSpec(1.0, -1.0, 5)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 2)


def test_discretizer_laplacian_stencil():
    grid = GridSpec(0.0, 2.0, 3)  # spacing 1
    h = discretize_schrodinger(np.zeros(3), grid)
    npt.assert_array_equal(
        h.real, np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    )
    assert np.abs(h.imag).max() == 0.0


def test_discretizer_rejects_wrong_sample_count():
    with pytest.raises(DimensionMismatch):
        discretize_schrodinger(np.zeros(4), GridSpec(0.0, 1.0, 3))


def test_discretizer_real_potential_is_hermitian():
    grid = GridSpec(-5.0, 5.0, 41)
    x = grid.points()
    h = discretize_schrodinger(x**2, grid)
    assert norm_fro(h - h.conj().T) == 0.0


def test_discretizer_harmonic_spectrum_convergence():
    # oscillator levels 1, 3, 5 for the -d2/dx2 + x^2 normalization; the
    # 3-point stencil converges at second order in the spacing
    errs = {}
    for n in (161, 321):
        grid = GridSpec(-8.0, 8.0, n)
        x = grid.points()
        h = discretize_schrodinger(x**2, grid)
        w = np.sort(np.linalg.eigvalsh(h.real))
        errs[n] = np.abs(w[:3] - np.array([1.0, 3.0, 5.0])).max()
    assert errs[161] <= 2e-2
    assert errs[161] / errs[321] >= 3.0  # h^2 refinement gains ~4x


def test_discretizer_complex_potential_low_spectrum_real():
    # imaginary odd perturbation of the oscillator: the bound-state window
    # keeps a real spectrum; lattice-cutoff modes are excluded on purpose
    grid = GridSpec(-6.0, 6.0, 41)
    x = grid.points()
    h = discretize_schrodinger(x**2 + 0.1j * x, grid)
    ev = np.linalg.eigvals(h)
    low = ev[np.argsort(ev.real)][:8]
    assert np.abs(low.imag).max() <= 1e-6


def test_model_2x2_hermitian_limit():
    h = model_2x2(1.5, 0.7, 0.0)
    npt.assert_allclose(h, h.conj().T)
    npt.assert_allclose(np.sort(np.linalg.eigvalsh(h)), [0.8, 2.2])


def test_model_2x2_exceptional_point():
    # discriminant s^2 - r^2 sin^2(phi) = 0: both eigenvalues collapse to 0
    h = model_2x2(1.0, 1.0, np.pi / 2)
    npt.assert_allclose(np.linalg.eigvals(h), [0.0, 0.0], atol=1e-8)
    with pytest.raises(DefectiveMatrix):
        biorthogonal_decompose(h)


def test_model_2x2_real_spectrum_branch():
    h = model_2x2(1.0, 2.0, np.pi / 2)
    npt.assert_allclose(
        np.sort(np.linalg.eigvals(h).real), [-np.sqrt(3.0), np.sqrt(3.0)], atol=1e-12
    )
    assert np.abs(np.linalg.eigvals(h).imag).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    r=st.floats(-2.0, 2.0),
    s=st.floats(0.1, 3.0),
    phi=st.floats(-np.pi, np.pi),
)
def test_model_2x2_trace_and_determinant(r, s, phi):
    h = model_2x2(r, s, phi)
    assert np.trace(h) == pytest.approx(2.0 * r * np.cos(phi), abs=1e-12)
    assert np.linalg.det(h) == pytest.approx(r**2 - s**2, abs=1e-10)


def test_model_2x2_rejects_zero_coupling():
    with pytest.raises(ValueError):
        model_2x2(1.0, 0.0, 0.1)


def test_random_cryptohermitian_deterministic_and_isospectral():
    spectrum = [0.5, 1.5, 2.5, 4.0]
    a = random_cryptohermitian(4, spectrum, seed=99)
    b = random_cryptohermitian(4, spectrum, seed=99)
    npt.assert_array_equal(a, b)
    system = biorthogonal_decompose(a)
    npt.assert_allclose(np.sort(system.eigenvalues.real), spectrum, atol=1e-8 * 4.0)
    assert np.abs(system.eigenvalues.imag).max() <= 1e-8 * 4.0


def test_random_cryptohermitian_cond_cap_unreachable(monkeypatch):
    monkeypatch.setattr(models, "DEFAULT_COND_CAP", 1.0)
    with pytest.raises(ResampleExhausted):
        random_cryptohermitian(3, [1.0, 2.0, 3.0], seed=0)


def test_falsification_scenario_structure():
    ham, fam, phi0, grid = scenario_falsification()
    assert ham.degree == 1
    assert np.linalg.norm(phi0) == pytest.approx(1.0)
    # the drive is order one and does not commute with the static part
    conn = fam.connection(0.0)
    assert np.linalg.norm(conn, 2) >= 1.0
    h0 = ham.coefficients[0]
    assert norm_fro(h0 @ conn - conn @ h0) > 0.5
    # real spectrum at several times and an exactly Hermitian lower-case image
    for t in (0.0, 0.5, 1.0):
        h_t = ham.evaluate(t)
        assert np.abs(np.linalg.eigvals(h_t).imag).max() <= 1e-10
        image = hermitize(h_t, fam.omega(t))
        assert norm_fro(image - image.conj().T) <= 1e-12 * max(norm_fro(image), 1.0)


def test_falsification_scenario_generator_differs_from_naive():
    ham, fam, _, _ = scenario_falsification()
    h_gen = generator(ham, fam, 0.5)
    assert norm_fro(h_gen - ham.evaluate(0.5)) >= 1.0


def test_scenario_random_consistency():
    for seed in (0, 1):
        ham, fam, phi0, grid = scenario_random(4, seed)
        assert np.linalg.norm(phi0) == pytest.approx(1.0)
        npt.assert_allclose(fam.omega(0.0), np.eye(4), atol=1e-15)
        for t in (0.0, 0.4, 1.0):
            h_t = ham.evaluate(t)
            image = hermitize(h_t, fam.omega(t))
            assert norm_fro(image - image.conj().T) <= 1e-10 * norm_fro(image)
            assert np.abs(np.linalg.eigvals(h_t).imag).max() <= 1e-8 * np.abs(
                np.linalg.eigvals(h_t).real
            ).max()


def test_scenario_random_deterministic():
    a = scenario_random(4, 17)
    b = scenario_random(4, 17)
    for x, y in zip(a[0].coefficients, b[0].coefficients):
        npt.assert_array_equal(x, y)
    npt.assert_array_equal(a[2], b[2])
