"""Tests for the propagators, evolution operators, and picture crosschecks."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cryptoherm import (
    DimensionMismatch,
    DysonFamily,
    NonFiniteState,
    NotHermitian,
    TaylorHamiltonian,
    crosscheck_pictures,
    evolution_operators,
    expectation,
    generator,
    hermitize,
    propagate_h,
    propagate_naive,
    propagate_pair,
)
from cryptoherm import evolution
from cryptoherm.models import scenario_falsification, scenario_random

GRID = np.linspace(0.0, 1.0, 11)


def _hermitian(rng, n, scale=1.0):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (x + x.conj().T)
    return h * (scale / np.linalg.norm(h, 2))


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
    t=st.floats(-2.0, 2.0),
)
def test_taylor_evaluate_matches_polyval(coeffs, t):
    ham = TaylorHamiltonian(tuple(np.array([[c]], dtype=complex) for c in coeffs))
    expected = np.polynomial.polynomial.polyval(t, coeffs)
    assert ham.evaluate(t)[0, 0] == pytest.approx(expected, abs=1e-12)


def test_generator_constant_family_is_exact():
    rng = np.random.default_rng(0)
    ham = TaylorHamiltonian((_hermitian(rng, 3), _hermitian(rng, 3)))
    fam = DysonFamily.constant(np.eye(3))
    t = 0.37
    npt.assert_array_equal(generator(ham, fam, t), ham.evaluate(t))


def test_generator_linear_theta():
    rng = np.random.default_rng(1)
    h0 = _hermitian(rng, 2)
    g = _hermitian(rng, 2)
    ham = TaylorHamiltonian((h0,))
    fam = DysonFamily.exp_poly(g, (0.0, 1.0))
    npt.assert_allclose(generator(ham, fam, 0.9), h0 - 1j * g, atol=1e-14)


def test_generator_quadratic_theta_finite_difference():
    # theta(t) = t^2/2, so the connection is t*G; check against a central
    # difference of the map itself.
    rng = np.random.default_rng(2)
    h0 = _hermitian(rng, 2)
    g = _hermitian(rng, 2)
    ham = TaylorHamiltonian((h0,))
    fam = DysonFamily.exp_poly(g, (0.0, 0.0, 0.5))
    t, delta = 0.6, 1e-6
    omega_dot_fd = (fam.omega(t + delta) - fam.omega(t - delta)) / (2 * delta)
    conn_fd = np.linalg.inv(fam.omega(t)) @ omega_dot_fd
    npt.assert_allclose(generator(ham, fam, t), h0 - 1j * (t * g), atol=1e-12)
    npt.assert_allclose(conn_fd, t * g, atol=1e-7)


def test_pair_stationary_state_phase():
    h = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    w, v = np.linalg.eigh(h)
    phi0 = v[:, 0]
    ham = TaylorHamiltonian((h,))
    fam = DysonFamily.constant(np.eye(2))
    traj = propagate_pair(ham, fam, phi0, phi0.copy(), GRID, 1e-3)
    exact = np.exp(-1j * w[0] * GRID)[:, None] * phi0[None, :]
    assert np.abs(traj.phi - exact).max() <= 1e-8


def test_pair_free_rotation_closed_form():
    # H = 0 with an anti-Hermitian drive: the ket rotates under exp(-G t)
    # and the overlap is a constant of the exact flow.
    g = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    ham = TaylorHamiltonian((np.zeros((2, 2), dtype=complex),))
    fam = DysonFamily.exp_poly(g, (0.0, 1.0))
    phi0 = np.array([1.0, 0.0], dtype=complex)
    traj = propagate_pair(ham, fam, phi0, None, GRID, 1e-3)
    exact = np.stack([expm(-g * t) @ phi0 for t in GRID])
    assert np.abs(traj.phi - exact).max() <= 1e-10
    assert traj.max_norm_drift <= 1e-12


def test_pair_norm_drift_and_richardson_order():
    ham, fam, phi0, grid = scenario_random(4, 0)
    coarse = propagate_pair(ham, fam, phi0, None, grid, 1e-3)
    fine = propagate_pair(ham, fam, phi0, None, grid, 5e-4)
    assert coarse.max_norm_drift <= 1e-8
    assert coarse.max_metric_drift <= 1e-8
    ratio = coarse.max_metric_drift / fine.max_metric_drift
    assert 12.0 <= ratio <= 20.0


def test_trajectory_overlap_recomputes_from_vectors():
    ham, fam, phi0, grid = scenario_random(3, 5)
    traj = propagate_pair(ham, fam, phi0, None, grid, 1e-2)
    recomputed = np.sum(traj.psi.conj() * traj.phi, axis=1)
    npt.assert_array_equal(traj.overlap, recomputed)
    assert traj.max_norm_drift == np.abs(traj.overlap - traj.overlap[0]).max()


def test_pair_step_validation():
    ham = TaylorHamiltonian((np.eye(2, dtype=complex),))
    fam = DysonFamily.constant(np.eye(2))
    phi0 = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        propagate_pair(ham, fam, phi0, None, GRID, 0.0)
    with pytest.raises(ValueError):
        propagate_pair(ham, fam, phi0, None, GRID, 3e-4)  # does not divide 0.1
    with pytest.raises(ValueError):
        propagate_pair(ham, fam, phi0, None, np.array([0.0, 0.5, 0.2]), 1e-3)


def test_pair_nonfinite_state():
    # purely anti-Hermitian Hamiltonian with strong gain: exp(50 t) blows
    # past the cap before t = 1.  Both components of φ grow as g^m after m
    # substeps, g the RK4 factor: past STATE_CAP first at m = 553, while the
    # 2-norm √2·g^m passes it some substeps earlier
    ham = TaylorHamiltonian((np.diag([50.0j, 50.0j]),))
    fam = DysonFamily.constant(np.eye(2))
    z = 50.0 * 1e-3
    g = 1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    first = next(m for m in range(1, 1001) if g**m > evolution.STATE_CAP)
    assert first == 553 and np.sqrt(2.0) * g ** (first - 2) > evolution.STATE_CAP
    with pytest.raises(NonFiniteState, match=r"t = 0\.553"):
        propagate_pair(ham, fam, np.array([1.0, 1.0]), None, np.linspace(0, 1, 3), 1e-3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_initial_states_are_rejected_on_entry(bad):
    ham, fam, _, grid = scenario_falsification()
    state = np.array([bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        propagate_pair(ham, fam, state, None, grid, 1e-2)
    with pytest.raises(ValueError, match="finite"):
        propagate_naive(ham, fam, [1.0, 0.0], state, grid, 1e-2)
    with pytest.raises(ValueError, match="finite"):
        crosscheck_pictures(ham, fam, state, grid, 1e-2)
    with pytest.raises(ValueError, match="finite"):
        propagate_h(lambda t: np.eye(2), state, grid, 1e-2)


@pytest.mark.parametrize("kind", ["constant", "exp_poly"])
@pytest.mark.parametrize("propagate", [
    lambda ham, fam, phi0, grid: propagate_pair(ham, fam, phi0, None, grid, 1e-2),
    lambda ham, fam, phi0, grid: propagate_naive(ham, fam, phi0, None, grid, 1e-2),
    lambda ham, fam, phi0, grid: evolution_operators(ham, fam, grid, 1e-2),
    lambda ham, fam, phi0, grid: crosscheck_pictures(ham, fam, phi0, grid, 1e-2),
], ids=["pair", "naive", "operators", "crosscheck"])
def test_a_family_of_another_dimension_raises_before_any_map(monkeypatch, kind, propagate):
    # numpy's matmul used to reject it with an untyped ValueError, and
    # evolution_operators ran a 2×2 model against a 3×3 constant map
    ham, _, phi0, grid = scenario_falsification()
    fam = DysonFamily(kind, np.eye(3), np.diag([1.0, 1.0], 1), (0.0, 1.0))
    maps = []
    monkeypatch.setattr(DysonFamily, "omega", lambda self, t: maps.append(t))
    monkeypatch.setattr(DysonFamily, "omega_inv", lambda self, t: maps.append(t))
    with pytest.raises(DimensionMismatch, match="family dimension 3 .* Hamiltonian dimension 2"):
        propagate(ham, fam, phi0, grid)
    assert maps == []


def test_propagate_h_constant_diagonal_phase():
    h = np.diag([1.0, 2.0]).astype(complex)
    phi0 = np.array([1.0, 0.0], dtype=complex)
    traj = propagate_h(lambda t: h, phi0, GRID, 1e-3)
    exact = np.stack([np.array([np.exp(-1j * t), 0.0]) for t in GRID])
    assert np.abs(traj.states - exact).max() <= 1e-10
    assert traj.max_norm_drift <= 1e-10


def test_propagate_h_rejects_non_hermitian():
    h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotHermitian):
        propagate_h(lambda t: h, np.array([1.0, 0.0]), GRID, 1e-2)


def test_propagate_h_hermitized_samples_conserve_norm():
    ham, fam, phi0, grid = scenario_random(4, 1)

    def h_of_t(t):
        return hermitize(ham.evaluate(t), fam.omega(t))

    traj = propagate_h(h_of_t, fam.omega(grid[0]) @ phi0, grid, 1e-3)
    assert traj.max_norm_drift <= 1e-8


def test_naive_equals_pair_for_constant_family():
    rng = np.random.default_rng(3)
    ham = TaylorHamiltonian((_hermitian(rng, 3), 0.3 * _hermitian(rng, 3)))
    fam = DysonFamily.constant(np.eye(3))
    phi0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    pair = propagate_pair(ham, fam, phi0, None, GRID, 1e-2)
    naive = propagate_naive(ham, fam, phi0, None, GRID, 1e-2)
    assert np.abs(pair.phi - naive.phi).max() <= 1e-12
    assert np.abs(pair.psi - naive.psi).max() <= 1e-12


def test_naive_breaks_metric_norm_on_falsification_scenario():
    ham, fam, phi0, grid = scenario_falsification()
    pair = propagate_pair(ham, fam, phi0, None, grid, 1e-3)
    naive = propagate_naive(ham, fam, phi0, None, grid, 1e-3)
    covariant_drift = max(pair.max_norm_drift, pair.max_metric_drift)
    assert covariant_drift <= 1e-8
    assert naive.max_metric_drift >= 1e-3
    assert naive.max_metric_drift >= 100.0 * covariant_drift
    # the naive doublet overlap is conserved by construction; the physical
    # norm is what detects the missing connection term
    assert naive.max_norm_drift <= 1e-8


def test_naive_gap_holds_on_random_scenarios():
    # whenever the connection is order one and does not commute with H, the
    # naive rule loses the physical norm orders of magnitude faster than the
    # covariant one (scenario-parametrized, not a universal theorem)
    for seed in (0, 4, 11):
        ham, fam, phi0, grid = scenario_random(4, seed)
        assert np.linalg.norm(fam.connection(0.0), 2) >= 1.0
        pair = propagate_pair(ham, fam, phi0, None, grid, 1e-3)
        naive = propagate_naive(ham, fam, phi0, None, grid, 1e-3)
        covariant_drift = max(pair.max_norm_drift, pair.max_metric_drift)
        assert naive.max_metric_drift >= 100.0 * covariant_drift


def test_naive_hermitian_limit_is_tame():
    rng = np.random.default_rng(4)
    ham = TaylorHamiltonian((_hermitian(rng, 2),))
    fam = DysonFamily.constant(np.eye(2))
    phi0 = np.array([0.6, 0.8], dtype=complex)
    naive = propagate_naive(ham, fam, phi0, None, GRID, 1e-3)
    assert naive.max_norm_drift <= 1e-10
    assert naive.max_metric_drift <= 1e-10


def test_evolution_operators_initial_condition_and_exponential_oracle():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = 1.5 * x / np.linalg.norm(x, 2)  # generic non-Hermitian constant
    ham = TaylorHamiltonian((h,))
    fam = DysonFamily.constant(np.eye(3))
    ops = evolution_operators(ham, fam, GRID, 1e-3)
    npt.assert_array_equal(ops.u_right[0], np.eye(3))
    npt.assert_array_equal(ops.u_left_dag[0], np.eye(3))
    for k, t in enumerate(GRID):
        oracle = expm(-1j * h * t)
        assert np.abs(ops.u_right[k] - oracle).max() <= 1e-9


def test_evolution_operators_product_invariant_and_state_consistency():
    ham, fam, phi0, grid = scenario_random(4, 2)
    ops = evolution_operators(ham, fam, grid, 1e-3)
    assert ops.max_product_drift <= 1e-8
    pair = propagate_pair(ham, fam, phi0, None, grid, 1e-3)
    phi_ops = np.einsum("kij,j->ki", ops.u_right, phi0)
    assert np.abs(phi_ops - pair.phi).max() <= 1e-8


def test_crosscheck_hermitian_limit_coincides():
    rng = np.random.default_rng(8)
    ham = TaylorHamiltonian((_hermitian(rng, 3), 0.5 * _hermitian(rng, 3)))
    fam = DysonFamily.constant(np.eye(3))
    phi0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi0 /= np.linalg.norm(phi0)
    report = crosscheck_pictures(ham, fam, phi0, GRID, 1e-3)
    assert report.max_pairwise_deviation() <= 1e-10


def test_crosscheck_falsification_scenario():
    ham, fam, phi0, grid = scenario_falsification()
    report = crosscheck_pictures(ham, fam, phi0, grid, 1e-3)
    assert report.max_pairwise_deviation() <= 1e-7
    naive = propagate_naive(ham, fam, phi0, None, grid, 1e-3)
    assert naive.max_metric_drift > 1e-3


def test_crosscheck_step_halving_shrinks_deviations():
    ham, fam, phi0, grid = scenario_random(4, 3)
    coarse = crosscheck_pictures(ham, fam, phi0, grid, 1e-3)
    fine = crosscheck_pictures(ham, fam, phi0, grid, 5e-4)
    ratio = coarse.max_pairwise_deviation() / fine.max_pairwise_deviation()
    assert 10.0 <= ratio <= 25.0


def test_observable_gauge_covariance():
    # doublet expectation of a static observable equals the Dirac
    # expectation of its mapped image along the lower-case trajectory
    ham, fam, phi0, grid = scenario_random(3, 9)
    rng = np.random.default_rng(9)
    lam = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    pair = propagate_pair(ham, fam, phi0, None, grid, 1e-3)

    def h_of_t(t):
        return hermitize(ham.evaluate(t), fam.omega(t))

    lower = propagate_h(h_of_t, fam.omega(grid[0]) @ phi0, grid, 1e-3)
    for k in (3, 7, 10):
        t = grid[k]
        upper = expectation(lam, pair.phi[k], pair.psi[k])
        mapped = fam.omega(t) @ lam @ fam.omega_inv(t)
        phi_low = lower.states[k]
        dirac = np.vdot(phi_low, mapped @ phi_low) / np.vdot(phi_low, phi_low)
        assert upper == pytest.approx(dirac, abs=1e-7)


# -- the tabulated kernel against the per-substep loop it replaced ----------


def _reference_integrate(rhs_matrix, grid, step, states, adjoint_mask):
    """The per-substep RK4 loop that preceded the tabulated kernel.

    Each state y evolves by ẏ = A(t)·y with A = rhs_matrix(t) when its mask
    entry is False, and by ẏ = −A†(t)·y when True; the generator is evaluated
    at each substep's start, midpoint and end.
    """
    times, plan = evolution._substep_plan(grid, step)
    current = [np.array(s, dtype=complex) for s in states]
    samples = [np.empty((times.size,) + s.shape, dtype=complex) for s in current]
    for store, s in zip(samples, current):
        store[0] = s
    a_start = rhs_matrix(times[0])
    for seg, nsub in enumerate(plan):
        t0, t1 = times[seg], times[seg + 1]
        h = (t1 - t0) / nsub
        for j in range(nsub):
            ta = t0 + j * h
            tb = t1 if j == nsub - 1 else t0 + (j + 1) * h
            a1, a2, a3 = a_start, rhs_matrix(ta + 0.5 * h), rhs_matrix(tb)
            b1, b2, b3 = -a1.conj().T, -a2.conj().T, -a3.conj().T
            for idx, y in enumerate(current):
                m1, m2, m3 = (b1, b2, b3) if adjoint_mask[idx] else (a1, a2, a3)
                k1 = m1 @ y
                k2 = m2 @ (y + (0.5 * h) * k1)
                k3 = m2 @ (y + (0.5 * h) * k2)
                k4 = m3 @ (y + h * k3)
                current[idx] = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            a_start = a3
        for store, s in zip(samples, current):
            store[seg + 1] = s
    return samples


def _reference_rhs(ham, fam, connection):
    if connection and fam.kind != "constant":
        return lambda t: -1j * ham.evaluate(t) - fam.connection(t)
    return lambda t: -1j * ham.evaluate(t)


EQUIVALENCE_SCENARIOS = [
    pytest.param(scenario_falsification, id="falsification"),
    *(
        pytest.param(lambda d=d, s=s: scenario_random(d, s), id=f"random-{d}-{s}")
        for d, s in ((2, 0), (4, 1), (16, 2))
    ),
]

# (grid, step): ten substeps per interval, one, and 2, 4, 1 and 13 on
# intervals whose h differ by up to 4e-10 relative, so that the start slot,
# scaled for the previous substep's h, must be rescaled to match the loop
EQUIVALENCE_GRIDS = [
    pytest.param(None, 1e-2, id="several-substeps"),
    pytest.param(np.linspace(0.0, 1.0, 101), 1e-2, id="one-substep"),
    pytest.param(np.array([0.0, 0.1, 0.3 + 2e-11, 0.35, 1.0]), 0.05, id="unequal-intervals"),
]


@pytest.mark.parametrize("table_bytes", [evolution.TABLE_BYTES, 3000], ids=["budget", "tiny-chunks"])
@pytest.mark.parametrize("grid, step", EQUIVALENCE_GRIDS)
@pytest.mark.parametrize("make", EQUIVALENCE_SCENARIOS)
def test_kernel_matches_reference_loop(make, grid, step, table_bytes, monkeypatch):
    monkeypatch.setattr(evolution, "TABLE_BYTES", table_bytes)
    ham, fam, phi0, scenario_grid = make()
    grid = scenario_grid if grid is None else grid
    om0 = fam.omega(grid[0])
    psi0 = om0.conj().T @ (om0 @ phi0)
    eye = np.eye(ham.dim, dtype=complex)

    for propagate, connection in ((propagate_pair, True), (propagate_naive, False)):
        traj = propagate(ham, fam, phi0, None, grid, step)
        phis, psis = _reference_integrate(
            _reference_rhs(ham, fam, connection), grid, step, [phi0, psi0], [False, True]
        )
        assert np.abs(traj.phi - phis).max() <= 1e-13
        assert np.abs(traj.psi - psis).max() <= 1e-13

    ops = evolution_operators(ham, fam, grid, step)
    u_right, u_left_dag = _reference_integrate(
        _reference_rhs(ham, fam, True), grid, step, [eye, eye], [False, True]
    )
    assert np.abs(ops.u_right - u_right).max() <= 1e-13
    assert np.abs(ops.u_left_dag - u_left_dag).max() <= 1e-13

    def h_of_t(t):
        return fam.omega(t) @ ham.evaluate(t) @ fam.omega_inv(t)

    def h_rhs(t):
        h = h_of_t(t)
        return -1j * (0.5 * (h + h.conj().T))

    lower = propagate_h(h_of_t, om0 @ phi0, grid, step)
    (states,) = _reference_integrate(h_rhs, grid, step, [om0 @ phi0], [False])
    assert np.abs(lower.states - states).max() <= 1e-13


FILL_SCENARIOS = [
    pytest.param(scenario_falsification, id="falsification"),
    pytest.param(lambda: scenario_random(4, 1), id="random-4"),
    pytest.param(lambda: scenario_random(16, 2), id="random-16"),
]


@pytest.mark.parametrize("constant", [False, True], ids=["exp_poly", "constant"])
@pytest.mark.parametrize("make", FILL_SCENARIOS)
def test_taylor_fill_writes_the_scaled_generators(make, constant):
    ham, fam, _, _ = make()
    if constant:
        fam = DysonFamily.constant(fam.omega(0.4))
    rng = np.random.default_rng(7)
    t, scale = rng.uniform(0.0, 1.0, 9), rng.uniform(1e-4, 1.0, 9)
    out = np.empty((4, t.size, ham.dim, ham.dim), dtype=complex)
    evolution._taylor_fill(ham, fam, (True, False))(t, scale, out)
    for i, (ti, si) in enumerate(zip(t, scale)):
        naive = -1j * ham.evaluate(ti)
        for entry, a in ((0, naive - fam.connection(ti)), (2, naive)):
            for got, want in ((out[entry, i], si * a), (out[entry + 1, i], -si * a.conj().T)):
                assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def test_state_cap_bounds_each_component_not_the_norm():
    # H = 0: the stacked state [φ | ψ] holds still at max|y| = 0.9·STATE_CAP,
    # twice STATE_CAP in 2-norm
    ham = TaylorHamiltonian((np.zeros((2, 2), dtype=complex),))
    fam = DysonFamily.constant(np.eye(2))
    big = np.full(2, 0.9 * evolution.STATE_CAP)
    traj = propagate_pair(ham, fam, big, big, GRID, 1e-2)
    assert np.array_equal(traj.phi, np.broadcast_to(big, traj.phi.shape))


def test_one_point_grid_returns_the_initial_sample():
    ham, fam, phi0, _ = scenario_random(4, 1)
    grid = [0.3]
    om0 = fam.omega(0.3)
    for propagate in (propagate_pair, propagate_naive):
        traj = propagate(ham, fam, phi0, None, grid, 1e-3)
        npt.assert_array_equal(traj.times, grid)
        npt.assert_array_equal(traj.phi, [phi0])
        npt.assert_array_equal(traj.psi, [om0.conj().T @ (om0 @ phi0)])
        assert traj.max_norm_drift == traj.max_metric_drift == 0.0
    ops = evolution_operators(ham, fam, grid, 1e-3)
    npt.assert_array_equal(ops.u_right, [np.eye(4)])
    npt.assert_array_equal(ops.u_left_dag, [np.eye(4)])
    assert ops.max_product_drift == 0.0
    report = crosscheck_pictures(ham, fam, phi0, grid, 1e-3)
    npt.assert_array_equal(report.phi_pair, [phi0])
    npt.assert_array_equal(report.phi_operators, [phi0])
    assert report.max_pairwise_deviation() <= 1e-15
    lower = propagate_h(lambda t: np.diag([1.0, 2.0]), [1.0, 0.0], grid, 1e-3)
    npt.assert_array_equal(lower.states, [[1.0, 0.0]])
    assert lower.max_norm_drift == 0.0
    with pytest.raises(NotHermitian, match=r"t = 0\.3 "):
        propagate_h(lambda t: np.array([[0.0, 1.0], [0.0, 0.0]]), [1.0, 0.0], grid, 1e-3)


def test_propagate_h_samples_each_generator_time_once():
    calls = []

    def h_of_t(t):
        calls.append(t)
        return np.diag([1.0, 2.0]).astype(complex)

    propagate_h(h_of_t, np.array([1.0, 0.0]), GRID, 1e-2)
    assert len(calls) == 2 * 100 + 1
    assert len(set(calls)) == len(calls)


def test_propagate_h_reports_first_non_hermitian_time():
    # Hermitian before t = 0.5, a grid point inside the first table chunk
    def h_of_t(t):
        return np.array([[0.0, 1.0], [1.0 + 1e-3 * (t >= 0.5), 0.0]], dtype=complex)

    with pytest.raises(NotHermitian, match=r"t = 0\.5 "):
        propagate_h(h_of_t, np.array([1.0, 0.0]), GRID, 1e-2)


def test_operator_memory_stays_within_chunk_budget():
    ham, fam, _, grid = scenario_random(64, 0)
    tracemalloc.start()
    try:
        ops = evolution_operators(ham, fam, grid, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = sum(
        a.nbytes for a in (ops.times, ops.u_right, ops.u_left_dag, ops.product_residual)
    )
    assert peak < outputs + 2**20


def test_pair_memory_stays_within_chunk_budget():
    ham, fam, phi0, _ = scenario_random(64, 0)
    grid = np.linspace(0.0, 1.0, 1001)
    fam.omega(0.0)  # the family keeps the powers of its generator from its first map
    tracemalloc.start()
    try:
        traj = propagate_pair(ham, fam, phi0, None, grid, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = sum(
        a.nbytes for a in (traj.times, traj.phi, traj.psi, traj.overlap, traj.metric_norm)
    )
    assert peak < outputs + 2 * evolution.TABLE_BYTES


def test_crosscheck_tabulates_maps_per_chunk(monkeypatch):
    ham, fam, phi0, grid = scenario_random(4, 3)
    calls = []
    for name in ("omega", "omega_inv"):
        method = getattr(DysonFamily, name)

        def counted(self, t, method=method):
            calls.append(np.size(t))
            return method(self, t)

        monkeypatch.setattr(DysonFamily, name, counted)
    monkeypatch.setattr(TaylorHamiltonian, "evaluate", lambda *a: pytest.fail("per-time H(t)"))
    report = crosscheck_pictures(ham, fam, phi0, grid, 1e-3)
    assert report.max_pairwise_deviation() <= 1e-7
    # 2001 generator times and 11 samples in a few dozen array calls, not ~4000
    assert len(calls) < 30
    assert sum(calls) >= 2 * 2001 + 11


def test_propagate_h_checks_phi0_against_the_generator():
    def h_of_t(t):
        return np.eye(3, dtype=complex)

    with pytest.raises(DimensionMismatch):
        propagate_h(h_of_t, np.array([1.0, 0.0]), GRID, 1e-2)


def test_substep_plan_is_bounded():
    ham, fam, phi0, _ = scenario_falsification()
    with pytest.raises(ValueError, match="substeps"):
        propagate_pair(ham, fam, phi0, None, np.array([0.0, 1.0]), 1e-12)
    too_many = 1.0 / (evolution.MAX_SUBSTEPS + 1)
    with pytest.raises(ValueError):
        evolution._substep_plan(np.array([0.0, 1.0]), too_many)
    _, plan = evolution._substep_plan(np.array([0.0, 1.0]), 1.0 / evolution.MAX_SUBSTEPS)
    assert plan.sum() == evolution.MAX_SUBSTEPS


@pytest.mark.parametrize("propagate", [propagate_pair, propagate_naive])
def test_doublet_propagators_require_a_grid(propagate):
    ham, fam, phi0, _ = scenario_falsification()
    with pytest.raises(ValueError, match="grid is required"):
        propagate(ham, fam, phi0)


# ---------------------------------------------------------------------------
# one RK4 run per picture comparison
# ---------------------------------------------------------------------------

def _counted_rk4(monkeypatch):
    """Patch ``evolution._rk4`` to record the stacked state of every call."""
    calls, rk4 = [], evolution._rk4

    def counted(times, plan, y0, fill):
        calls.append(y0.shape)
        return rk4(times, plan, y0, fill)

    monkeypatch.setattr(evolution, "_rk4", counted)
    return calls


def test_crosscheck_makes_one_rk4_run(monkeypatch):
    calls = _counted_rk4(monkeypatch)
    ham, fam, phi0, grid = scenario_random(4, 3)
    crosscheck_pictures(ham, fam, phi0, grid, 1e-3)
    assert calls == [(2, 4, 5)]


@pytest.mark.parametrize("dim, seed", [(2, 0), (4, 3), (16, 2)])
def test_crosscheck_routes_match_three_separate_runs(dim, seed):
    ham, fam, phi0, grid = scenario_random(dim, seed)
    report = crosscheck_pictures(ham, fam, phi0, grid, 1e-3)

    # the three passes the cross-check replaces: doublet, lower case, operators
    pair = propagate_pair(ham, fam, phi0, None, grid, 1e-3)
    lower = propagate_h(
        lambda t: fam.omega(t) @ ham.evaluate(t) @ fam.omega_inv(t),
        fam.omega(grid[0]) @ phi0, grid, 1e-3,
    )
    phi_lower = np.einsum("kij,kj->ki", fam.omega_inv(grid), lower.states)
    ops = evolution_operators(ham, fam, grid, 1e-3)
    phi_ops = np.einsum("kij,j->ki", ops.u_right, phi0)

    for route, reference in (
        (report.phi_pair, pair.phi), (report.phi_lower, phi_lower), (report.phi_operators, phi_ops)
    ):
        assert np.abs(route - reference).max() <= 1e-13

    def max_dev(a, b):
        return float(np.linalg.norm(a - b, axis=1).max())

    assert abs(report.dev_pair_lower - max_dev(pair.phi, phi_lower)) <= 1e-13
    assert abs(report.dev_pair_operators - max_dev(pair.phi, phi_ops)) <= 1e-13
    assert abs(report.dev_lower_operators - max_dev(phi_lower, phi_ops)) <= 1e-13


def test_crosscheck_reports_first_non_hermitian_time(monkeypatch):
    # H(t) = H0 + t·K with anti-Hermitian K: the relative defect 2t‖K‖/‖H(t)‖
    # passes 1e-10 at t = 0.6, between the generator times 0.5625 and 0.625
    h0 = np.diag([1.0, 2.0]).astype(complex)
    k = 1j * np.array([[0.0, 1.0], [1.0, 0.0]])
    k *= 1e-10 * np.sqrt(5.0) / (2.0 * np.sqrt(2.0) * 0.6)
    ham = TaylorHamiltonian((h0, k))
    fam = DysonFamily.constant(np.eye(2))
    # two substeps per table chunk, so the failing time lies in a later chunk
    monkeypatch.setattr(evolution, "TABLE_BYTES", 512)
    with pytest.raises(NotHermitian, match=r"t = 0\.625 "):
        crosscheck_pictures(ham, fam, np.array([1.0, 0.0]), np.linspace(0.0, 1.0, 5), 0.125)


DOUBLET_SCENARIOS = [
    pytest.param(scenario_falsification, id="falsification"),
    *(pytest.param(lambda d=d: scenario_random(d, d), id=f"random-{d}") for d in (8, 16)),
]


@pytest.mark.parametrize("make", DOUBLET_SCENARIOS)
def test_stacked_doublets_equal_separate_runs_bitwise(make, monkeypatch):
    ham, fam, phi0, _ = make()
    grid = np.linspace(0.0, 1.0, 101)
    calls = _counted_rk4(monkeypatch)
    covariant, naive = evolution._propagate_doublet(ham, fam, phi0, None, grid, 1e-3, (True, False))
    assert calls == [(4, ham.dim, 1)]
    for stacked, alone in (
        (covariant, propagate_pair(ham, fam, phi0, None, grid, 1e-3)),
        (naive, propagate_naive(ham, fam, phi0, None, grid, 1e-3)),
    ):
        for name in ("times", "phi", "psi", "overlap", "metric_norm"):
            assert np.array_equal(getattr(stacked, name), getattr(alone, name))
        assert stacked.max_norm_drift == alone.max_norm_drift
        assert stacked.max_metric_drift == alone.max_metric_drift
