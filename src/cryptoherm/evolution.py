"""Time propagation in three pictures.

The covariant picture drives the state doublet (|Φ⟩, |Ψ⟩) with the generator
H_gen(t) = H(t) − i·Ω⁻¹(t)Ω̇(t) and its adjoint; the lower-case picture
drives φ = ΩΦ with the Hermitian image h(t) = Ω H Ω⁻¹; the naive picture
drives the doublet with H(t) and H†(t) alone, deliberately dropping the
connection term.

Any pairing (A, A†) conserves the doublet overlap ⟨Ψ|Φ⟩ identically, so the
overlap drift of a trajectory only measures integrator error.  What
distinguishes the pictures physically is the norm in the instantaneous
metric, ⟨Φ(t)|Θ(t)|Φ(t)⟩ = ‖Ω(t)Φ(t)‖²: the covariant rule conserves it
whenever the hermitized image h(t) is Hermitian, while the naive rule does
not.  Trajectories therefore carry both diagnostics.

One fixed-step 4th-order Runge-Kutta kernel steps every propagator's stacked
state against a table of the generators at each substep's start, midpoint
and end, filled TABLE_BYTES at a time, so memory stays flat in the run
length.  The table holds (h/2)·A rather than A, so a stage is one batched
product and one add.  The stage arithmetic has two schedules, chosen by the
state's dimension: past STEP_OPERATOR_DIM a substep runs the four stages on
the state; up to it, each chunk runs them once on an identity stack to form
every substep's increment operator E_j, and a substep is y += E_j·y.  A
state passes the finite-range check in one call when ‖y‖₂ ≤ STATE_CAP; only
past that does max|y| ≤ STATE_CAP decide.  For a matrix polynomial a chunk
is one real GEMM of the scaled monomial weights against the float view of
the stacked coefficients, then one ×(−i) pass, plus θ′(t)·G as one outer
product, with θ′ weighed from the same powers of t.  A picture comparison is
one run of that kernel: the cross-check stacks the covariant [U_R | Φ] and
the lower-case [· | φ], and the covariant and naive doublets of the
falsification demo share one stack as well.

The Dyson maps are tabulated the same way: the metric norms of a trajectory,
the lower-case generators Ω·H·Ω⁻¹ of the picture cross-check and its
pull-back Ω⁻¹φ each take one array call of ``DysonFamily.omega`` or
``omega_inv`` per chunk of times, sized so that the maps and their work
space stay within TABLE_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy import add, matmul, multiply, vdot

from .errors import DimensionMismatch, NonFiniteState, NotHermitian
from .linalg import adjoint, as_square_matrix, as_state, power_table, stacked_fro
from .metric import DysonFamily

#: propagated components beyond this magnitude abort the run
STATE_CAP = 1e12

#: most RK4 substeps one call may plan, over all grid intervals
MAX_SUBSTEPS = 10**6

#: bytes of generator matrices tabulated per chunk of substeps (two per
#: substep); at dim 64 with a ket and a bra this is one substep per chunk
TABLE_BYTES = 256 * 1024

#: largest state dimension that ``_rk4`` steps by per-substep increment
#: operators; larger states run the four RK4 stages on the state
STEP_OPERATOR_DIM = 8

#: bytes of the Python objects that index one substep's slots of a table
#: chunk (two array views of about 190 B and a tuple), counted with the
#: slots themselves in the chunk size
SLOT_VIEW_BYTES = 512

_THIRD = np.array(1.0 / 3.0)  # a 0-d array: see _increment


@dataclass(frozen=True, eq=False)
class TaylorHamiltonian:
    """Matrix polynomial H(t) = Σ_m t^m · C_m with a finite coefficient list.

    ``coefficients[m]`` is the m-th monomial coefficient; evaluation uses the
    Horner scheme, so a degree-0 instance is a constant operator.
    """

    coefficients: tuple

    def __post_init__(self):
        coeffs = [as_square_matrix(c) for c in self.coefficients]
        if not coeffs:
            raise ValueError("need at least one coefficient matrix")
        if any(c.shape != coeffs[0].shape for c in coeffs):
            raise DimensionMismatch("coefficient matrices must share one dimension")
        # one (degree + 1, dim²) block, which the coefficient matrices view
        block = np.stack(coeffs)
        object.__setattr__(self, "coefficients", tuple(block))
        object.__setattr__(self, "_rows", block.reshape(len(coeffs), -1))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def dim(self) -> int:
        return self.coefficients[0].shape[0]

    def evaluate(self, t: float) -> np.ndarray:
        acc = self.coefficients[-1].copy()
        for c in reversed(self.coefficients[:-1]):
            acc = c + t * acc
        return acc


@dataclass(frozen=True, eq=False)
class StateTrajectory:
    """Sampled doublet trajectory with overlap and metric-norm diagnostics.

    ``overlap[k]`` is ⟨Ψ(t_k)|Φ(t_k)⟩ recomputed from the stored vectors,
    ``norm_drift[k]`` its worst excursion from the initial value up to t_k
    (NaN from the first NaN overlap on) and ``max_norm_drift`` the last of these.
    ``metric_norm[k]`` is the norm in the instantaneous physical inner
    product, ⟨Φ(t_k)|Θ(t_k)|Φ(t_k)⟩ = ‖Ω(t_k)Φ(t_k)‖², and
    ``max_metric_drift`` its worst excursion; this is the unitarity
    deliverable that separates the covariant rule from the naive one.
    """

    times: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    overlap: np.ndarray
    norm_drift: np.ndarray
    metric_norm: np.ndarray
    max_metric_drift: float

    @property
    def max_norm_drift(self) -> float:
        return float(self.norm_drift[-1])


@dataclass(frozen=True, eq=False)
class VectorTrajectory:
    """Single-state trajectory with its Dirac norm ⟨φ(t)|φ(t)⟩ per sample.

    ``max_hermiticity_defect`` records the largest relative anti-Hermitian
    residual that was symmetrized away from the sampled generators.
    """

    times: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    max_norm_drift: float
    max_hermiticity_defect: float = 0.0


@dataclass(frozen=True, eq=False)
class OperatorTrajectory:
    """Right/left evolution-operator samples with the product-invariant residual.

    ``u_right[k]`` propagates kets, ``u_left_dag[k]`` propagates the adjoint
    bra states; ``product_residual[k]`` is ‖U_L(t_k)U_R(t_k) − U_L(0)U_R(0)‖
    with U_L = (U_L†)†, which vanishes identically for the exact flow.
    """

    times: np.ndarray
    u_right: np.ndarray
    u_left_dag: np.ndarray
    product_residual: np.ndarray
    max_product_drift: float


@dataclass(frozen=True, eq=False)
class CrosscheckReport:
    """Pairwise deviations between the three computations of |Φ(t)⟩."""

    times: np.ndarray
    phi_pair: np.ndarray
    phi_lower: np.ndarray
    phi_operators: np.ndarray
    dev_pair_lower: float
    dev_pair_operators: float
    dev_lower_operators: float

    def max_pairwise_deviation(self) -> float:
        return max(self.dev_pair_lower, self.dev_pair_operators, self.dev_lower_operators)


def _substep_plan(grid, step: float):
    """Grid times and substeps per interval; ``ValueError`` unless the grid
    increases strictly, ``step`` divides it and MAX_SUBSTEPS bounds the sum."""
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("time grid must be a non-empty 1-d array")
    if times.size >= 2 and not (np.diff(times) > 0.0).all():
        raise ValueError("time grid must be strictly increasing")
    if not step > 0.0:
        raise ValueError(f"integrator step must be positive, got {step}")
    ratios = np.diff(times) / step
    plan = np.rint(ratios)
    if not plan.sum() <= MAX_SUBSTEPS:
        raise ValueError(f"step {step!r} plans {plan.sum():.3g} substeps (cap {MAX_SUBSTEPS})")
    off = (plan < 1) | (np.abs(ratios - plan) > 1e-9 * np.maximum(ratios, 1.0))
    if off.any():
        dt = float(np.diff(times)[off.argmax()])
        raise ValueError(f"step {step!r} does not divide the grid interval {dt!r}")
    return times, plan.astype(int)


def _aligned_states(count: int, shape) -> list:
    """``count`` empty complex arrays of ``shape`` whose data start on 64-byte
    boundaries.  The RK4 stages write their products into these, and at
    dim 64 a product into an output that is only 16-byte aligned, as numpy
    may place it, runs about 12 % slower."""
    size = int(np.prod(shape)) * 16
    stride = -(-size // 64) * 64
    raw = np.empty(count * stride + 64, dtype=np.uint8)
    first = -raw.ctypes.data % 64
    return [
        raw[a : a + size].view(complex).reshape(shape)
        for a in range(first, first + count * stride, stride)
    ]


def _steps_by_operators(shape) -> bool:
    """Whether ``_rk4`` steps a stacked state of ``shape`` (S, d, k) by
    per-substep increment operators (d ≤ STEP_OPERATOR_DIM) rather than
    stagewise."""
    return shape[1] <= STEP_OPERATOR_DIM


def _increment(b1, mid, end, y, k, tmp, parts):
    """The RK4 stage arithmetic of both schedules.  ``b1`` holds b1 = (h/2)·A·y
    on entry and the increment (b1 + 2·b2 + 2·b3 + b4)/3 on return, with
    bᵢ = (h/2)·kᵢ and ``mid``, ``end`` the table's midpoint and end slots.
    ``y`` is the state, or an identity that broadcasts against a stack of
    substeps; ``k`` and ``tmp`` are work arrays shaped like ``b1`` and
    ``parts`` is its float view.  A ufunc takes a Python float through its
    slow scalar path, so 2·bᵢ is bᵢ + bᵢ and the third multiplies ``parts``
    by a 0-d 1/3; the module binds the ufuncs, as a lookup per call costs
    about 3 % of a d = 16 substep."""
    add(y, b1, out=tmp)  # tmp is y + b1, y + b2, then y + 2·b3
    matmul(mid, tmp, out=k)
    add(y, k, out=tmp)
    add(k, k, out=k)
    add(b1, k, out=b1)
    matmul(mid, tmp, out=k)
    add(k, k, out=k)
    add(y, k, out=tmp)
    add(b1, k, out=b1)
    matmul(end, tmp, out=k)
    add(b1, k, out=b1)
    multiply(parts, _THIRD, out=parts)


def _step_operators(table, h, h_start):
    """Overwrite the midpoint slots of the first ``h.size`` substeps of
    ``table`` with their increment operators E_j = (B1 + 2·P2 + 2·P3 + P4)/3.

    B1, B2, B3 are the substep's start, midpoint and end slots, B1 rescaled
    from the h it is scaled for (``h_start``, then the previous substep's) to
    its own, and P2 = B2(I + B1), P3 = B2(I + P2), P4 = B3(I + 2·P3): the
    arithmetic of :func:`_increment` on an identity stack, so that a substep
    is y += E_j·y.  E is formed a part of the substeps at a time, in work
    stacks of at most TABLE_BYTES / 8 each: three, and up to two more that
    numpy allocates to buffer a broadcast into one.  They live only for this
    call, so they never add to a fill's work space.  A midpoint slot is no
    longer read once its E is formed; the start and end slots stay as they
    were.
    """
    stack, dim = table.shape[0], table.shape[-1]
    part = max(1, min(h.size, TABLE_BYTES // (8 * stack * dim * dim * 16)))
    b1, k, tmp = _aligned_states(3, (stack, part, dim, dim))
    eye = np.eye(dim, dtype=complex)
    ratio = h / np.concatenate(([h_start], h[:-1]))
    for a in range(0, h.size, part):
        c = min(part, h.size - a)
        start, mid, end = (table[:, 2 * a + j : 2 * (a + c) + j : 2] for j in range(3))
        acc, kc, tc = (w[:, :c] for w in (b1, k, tmp))
        # both parts of each start slot times its real ratio, 1.0 where h holds
        np.multiply(start.view(float), ratio[a : a + c, None, None], out=acc.view(float))
        _increment(acc, mid, end, eye, kc, tc, acc.view(float))
        np.copyto(mid, acc)


def _rk4(times, plan, y0, fill):
    """RK4 for ẏ[s] = A[s](t)·y[s] on a stacked state ``y0`` of shape (S, d, k).

    ``fill(t, scale, out)`` writes scale[i]·A[s](t[i]) into ``out[s, i]``.
    The table holds (h/2)·A: with bᵢ = (h/2)·kᵢ a stage is one product and
    one add, and y gains (b1 + 2·b2 + 2·b3 + b4)/3 (:func:`_increment`).  A
    start slot is the previous substep's end, scaled for its h, so the first
    product is rescaled where h changes; every entry stays independent of the
    chunking.

    Two schedules, chosen from the shape alone (:func:`_steps_by_operators`):
    past d = STEP_OPERATOR_DIM each substep runs the four stages on the state
    ("stagewise"); up to it, each table chunk runs them once on an identity
    stack, three batched products that turn every substep's midpoint slot
    into its increment operator E_j (:func:`_step_operators`), and a substep
    is one product and one add, y += E_j·y.  At small d a substep is bound by
    the fixed cost of about 15 numpy calls, which the second schedule cuts
    to 3; at d = 16 and above the d³ operator products cost more than the
    stages they replace.

    Returns the grid samples, shape (len(times), S, d, k); the running state
    lives in its next sample, so the work space is the table, three states
    and, while step operators are formed, at most 5/8 of TABLE_BYTES more.
    ``NonFiniteState`` unless max|y| ≤ STATE_CAP after each substep, decided
    in one call while ‖y‖₂ ≤ STATE_CAP.
    """
    # step sizes, and the generator times: t₀, then each substep's midpoint
    # (t0 + j·h) + h/2 and end t0 + (j + 1)·h, an interval ending on its grid point
    h = np.repeat(np.diff(times) / plan, plan)
    ends, n = np.cumsum(plan), h.size
    sub = np.arange(n) - np.repeat(ends - plan, plan)
    t0 = np.repeat(times[:-1], plan)
    tt = np.empty(2 * n + 1)
    tt[0], tt[1::2], tt[2::2] = times[0], (t0 + sub * h) + 0.5 * h, t0 + (sub + 1) * h
    tt[2 * ends] = times[1:]
    stack, dim = y0.shape[:2]
    chunk = min(n, max(1, TABLE_BYTES // (2 * stack * dim * dim * 16 + SLOT_VIEW_BYTES)))
    table = np.empty((stack, 2 * chunk + 1, dim, dim), dtype=complex)
    # the start, midpoint and end slots of each substep of a chunk
    views = [table[:, j] for j in range(2 * chunk + 1)]
    slots = list(zip(views[:-1:2], views[1::2], views[2::2]))
    operators = _steps_by_operators(y0.shape)
    # the h that the start slot is scaled for (0 on a one-point grid: no substep)
    (h_start,) = np.resize(h, 1).tolist()
    fill(tt[:1], np.array([0.5 * h_start]), table[:, 2 * chunk :])
    samples = np.empty((times.size,) + y0.shape, dtype=complex)
    samples[0] = y0
    acc, k, tmp = _aligned_states(3, y0.shape)
    acc_parts = acc.view(float)
    i, q, cap2 = 0, chunk, STATE_CAP**2
    for seg, nsub in enumerate(plan):
        y = samples[seg + 1]
        y[...] = samples[seg]
        for hi in h[i : i + nsub].tolist():
            if q == chunk:
                # carry the last end generator to slot 0, per entry: no buffer
                for entry in table:
                    entry[0] = entry[2 * chunk]
                c = min(chunk, n - i)
                scale = np.repeat(0.5 * h[i : i + c], 2)  # a midpoint and an end per substep
                fill(tt[2 * i + 1 : 2 * (i + c) + 1], scale, table[:, 1 : 2 * c + 1])
                if operators:
                    _step_operators(table, h[i : i + c], h_start)
                q = 0
            start, mid, end = slots[q]
            if operators:
                matmul(mid, y, out=acc)  # E_j·y
            else:
                # b1, with the start slot scaled for the last h
                matmul(start, y, out=acc)
                if hi != h_start:
                    acc *= hi / h_start
                _increment(acc, mid, end, y, k, tmp, acc_parts)
            add(y, acc, out=y)
            i, q, h_start = i + 1, q + 1, hi
            if not (vdot(y, y).real <= cap2 or np.abs(y).max() <= STATE_CAP):
                raise NonFiniteState(
                    f"propagated state left the finite range at t = {float(tt[2 * i])!r}"
                )
    return samples


def _taylor_table(hamiltonian: TaylorHamiltonian, weights, out):
    """Write Σₖ weights[i, k]·C_k into ``out[i]``: one real GEMM of the
    weights against the float view of the stacked coefficients."""
    rows = hamiltonian._rows
    flat = out.view(float).reshape(len(weights), -1)
    np.matmul(weights[:, : rows.shape[0]], rows.view(float), out=flat)


def _map_slices(n: int, dim: int):
    """Slices of ``n`` times, each small enough that four tables of Dyson maps
    over it (the maps and the two copies each squaring makes) fit in
    TABLE_BYTES."""
    size = max(1, TABLE_BYTES // (4 * 16 * dim * dim))
    return [slice(a, a + size) for a in range(0, n, size)]


def _taylor_fill(hamiltonian: TaylorHamiltonian, family: DysonFamily, connections):
    """Table filler for the ket generator A = −iH(t) − θ′(t)·G and the bra −A†
    of each flag in ``connections``, in entries 2f and 2f + 1, each times its
    time's scale; without the flag, or for a constant family, θ′·G is
    dropped.  One array of scaled powers tᵏ weighs the coefficients of both
    H and θ′.  ``DimensionMismatch`` unless the family has the dimension of
    the Hamiltonian; every propagator that takes a family builds its filler
    before it evaluates a map."""
    if family.dim != hamiltonian.dim:
        raise DimensionMismatch(
            f"Dyson family dimension {family.dim} does not match "
            f"Hamiltonian dimension {hamiltonian.dim}"
        )
    rate = np.array(family._theta_rate_coeffs)
    count = max(len(hamiltonian.coefficients), rate.size)
    drift = family.kind != "constant" and any(connections)
    g = family.generator.reshape(1, -1) if drift else None

    def fill(t, scale, out):
        weights = power_table(t, count)
        weights *= scale[:, None]
        if drift:
            rates = (weights[:, : rate.size] @ rate).astype(complex)[:, None]
        for ket, bra, connection in zip(out[::2], out[1::2], connections):
            _taylor_table(hamiltonian, weights, ket)
            ket *= -1j
            if connection and drift:
                np.matmul(rates, g, out=bra.reshape(t.size, -1))
                ket -= bra
            # −A† = −conj(A)ᵀ: the transpose with its real part negated
            np.copyto(bra, ket.swapaxes(1, 2))
            np.negative(bra.real, out=bra.real)

    return fill


def _hermitian_generator(t, h, scale) -> float:
    """Turn the samples ``h[i]`` of a Hermitian generator at times ``t[i]``
    into −i·scale[i]·sym(h[i]) in place; returns the worst relative
    anti-Hermitian defect that was symmetrized away.

    Every sample must be Hermitian within 1e-10 of its norm (``NotHermitian``
    at the first time that is not).
    """
    # one work stack takes h† twice, as h − h† for the norm and then added to
    # h, and is freed before the broadcast scale, which numpy buffers; h† is a
    # transpose with its imaginary part negated, which numpy copies unbuffered
    work = np.empty_like(h)
    np.copyto(work, h.swapaxes(1, 2))
    np.negative(work.imag, out=work.imag)
    norm, defect = stacked_fro(h), stacked_fro(np.subtract(h, work, out=work))
    if (bad := defect > 1e-10 * norm).any():
        raise NotHermitian(
            f"sampled generator at t = {float(t[bad.argmax()])!r} is not Hermitian to tolerance"
        )
    np.copyto(work, h.swapaxes(1, 2))
    np.negative(work.imag, out=work.imag)
    h += work
    del work
    h *= (-0.5j * scale)[:, None, None]
    rel = defect[norm > 0.0] / norm[norm > 0.0]
    return float(rel.max(initial=0.0))


def generator(hamiltonian: TaylorHamiltonian, family: DysonFamily, t: float) -> np.ndarray:
    """Covariant evolution generator H_gen(t) = H(t) − i·Ω⁻¹(t)Ω̇(t).

    For a constant family the connection term vanishes and the value is
    exactly H(t).
    """
    return hamiltonian.evaluate(t) - 1j * family.connection(t)


def _assemble_trajectories(times, states, family: DysonFamily) -> list:
    """One ``StateTrajectory`` per doublet of the samples ``states``, shape
    (len(times), 2F, d): Φ in entry 2f, Ψ in entry 2f + 1.  The doublets
    share one Ω table per chunk of times."""
    flags = states.shape[1] // 2
    overlap = np.empty((flags, times.size), dtype=complex)
    metric_norm = np.empty((flags, times.size), dtype=float)
    for sl in _map_slices(times.size, family.dim):
        omega = family.omega(times[sl])
        for f in range(flags):
            phis, psis = states[sl, 2 * f], states[sl, 2 * f + 1]
            overlap[f, sl] = np.sum(psis.conj() * phis, axis=1)
            w = np.einsum("kij,kj->ki", omega, phis)
            metric_norm[f, sl] = np.einsum("ki,ki->k", w.conj(), w).real
    return [
        StateTrajectory(
            times, states[:, 2 * f], states[:, 2 * f + 1], overlap[f],
            np.maximum.accumulate(np.abs(overlap[f] - overlap[f, 0])), metric_norm[f],
            float(np.abs(metric_norm[f] - metric_norm[f, 0]).max()),
        )
        for f in range(flags)
    ]


def _propagate_doublet(hamiltonian, family, phi0, psi0, grid, step, connections):
    """Body of the covariant and naive doublet propagators: one RK4 run over
    a doublet per flag in ``connections`` (True: covariant, False: naive),
    returning one trajectory per flag."""
    if grid is None:
        raise ValueError("grid is required")
    phi0 = as_state(phi0, hamiltonian.dim)
    times, plan = _substep_plan(grid, step)
    fill = _taylor_fill(hamiltonian, family, connections)
    if psi0 is None:
        om0 = family.omega(times[0])
        psi0 = om0.conj().T @ (om0 @ phi0)
    else:
        psi0 = as_state(psi0, hamiltonian.dim)
    y0 = np.stack([phi0, psi0] * len(connections))[:, :, None]
    states = _rk4(times, plan, y0, fill)[..., 0]
    return _assemble_trajectories(times, states, family)


def propagate_pair(
    hamiltonian: TaylorHamiltonian,
    family: DysonFamily,
    phi0,
    psi0=None,
    grid=None,
    step: float = 1e-3,
) -> StateTrajectory:
    """Propagate the doublet under i∂ₜ|Φ⟩ = H_gen|Φ⟩, i∂ₜ|Ψ⟩ = H_gen†|Ψ⟩.

    ``psi0`` defaults to Θ(t₀)·φ₀, which realizes ⟨Ψ| = ⟨φ|Ω; with that
    choice and a family whose hermitized image is Hermitian, the overlap
    equals the metric norm and both stay constant up to integrator error.
    ``grid`` is required (``ValueError`` otherwise), and ``family`` must have
    the dimension of ``hamiltonian`` (``DimensionMismatch`` otherwise).
    """
    return _propagate_doublet(hamiltonian, family, phi0, psi0, grid, step, (True,))[0]


def propagate_naive(
    hamiltonian: TaylorHamiltonian,
    family: DysonFamily,
    phi0,
    psi0=None,
    grid=None,
    step: float = 1e-3,
) -> StateTrajectory:
    """Propagate the doublet under the naive pair (H(t), H†(t)).

    Identical to :func:`propagate_pair` except that the connection term is
    dropped from the generator.  The overlap is still conserved (any (A, A†)
    pairing conserves it), so the deliverable is ``max_metric_drift``: the
    excursion of the instantaneous-metric norm, which this rule fails to
    conserve whenever the connection matters.
    """
    return _propagate_doublet(hamiltonian, family, phi0, psi0, grid, step, (False,))[0]


def propagate_h(h_of_t, phi0, grid, step: float = 1e-3) -> VectorTrajectory:
    """Propagate i∂ₜ|φ⟩ = h(t)|φ⟩ for a Hermitian matrix source.

    ``phi0`` and every later sample h(t) must match the dimension of h(t₀)
    (``DimensionMismatch`` otherwise, naming the time).  Every sampled h(t)
    must be Hermitian within 1e-10 of its norm (``NotHermitian`` otherwise);
    the tiny anti-Hermitian residual is symmetrized away before stepping, so
    the Dirac norm is conserved up to integrator error.  ``h_of_t`` is called once per generator time.
    """
    times, plan = _substep_plan(grid, step)
    first = [as_square_matrix(h_of_t(times[0]))]  # the table's first entry
    phi0 = as_state(phi0, first[0].shape[0])

    worst_defect = 0.0

    def fill(t, scale, out):
        nonlocal worst_defect
        (h,) = out  # the samples go straight into the table, then become −i·scale·sym(h)
        for i, s in enumerate(t.tolist()):
            sample = first.pop() if first else as_square_matrix(h_of_t(s))
            if sample.shape != h.shape[1:]:
                raise DimensionMismatch(f"h(t) at t = {s!r} has shape {sample.shape}, not {h.shape[1:]}")
            h[i] = sample
        worst_defect = max(worst_defect, _hermitian_generator(t, h, scale))

    states = _rk4(times, plan, phi0[None, :, None], fill)[:, 0, :, 0]
    norms = np.real(np.sum(states.conj() * states, axis=1))
    drift = float(np.abs(norms - norms[0]).max())
    return VectorTrajectory(times, states, norms, drift, worst_defect)


def evolution_operators(
    hamiltonian: TaylorHamiltonian,
    family: DysonFamily,
    grid,
    step: float = 1e-3,
) -> OperatorTrajectory:
    """Integrate the operator pair i∂ₜU_R = H_gen·U_R and i∂ₜU_L† = H_gen†·U_L†.

    Both start from the identity.  U_R(t) maps |Φ(0)⟩ to |Φ(t)⟩ and U_L†(t)
    maps |Ψ(0)⟩ to |Ψ(t)⟩; the product U_L(t)U_R(t) is a constant of motion,
    recorded per sample as a residual against its initial value.
    ``DimensionMismatch`` unless ``family`` has the dimension of ``hamiltonian``.
    """
    times, plan = _substep_plan(grid, step)
    eye = np.broadcast_to(np.eye(hamiltonian.dim, dtype=complex), (2,) + (hamiltonian.dim,) * 2)
    ops = _rk4(times, plan, eye, _taylor_fill(hamiltonian, family, (True,)))
    u_right, u_left_dag = ops[:, 0], ops[:, 1]
    # U_L(0)U_R(0) is the identity exactly: both start from it
    residual = np.concatenate([
        stacked_fro(adjoint(u_left_dag[sl]) @ u_right[sl] - np.eye(hamiltonian.dim))
        for sl in _map_slices(times.size, hamiltonian.dim)
    ])
    return OperatorTrajectory(times, u_right, u_left_dag, residual, float(residual.max()))


def crosscheck_pictures(
    hamiltonian: TaylorHamiltonian,
    family: DysonFamily,
    phi0,
    grid,
    step: float = 1e-3,
) -> CrosscheckReport:
    """Compute |Φ(t)⟩ three independent ways and report pairwise deviations.

    (a) covariant propagation of φ₀, (b) lower-case propagation of φ = ΩΦ
    under the hermitized image followed by the pull-back Ω⁻¹(t)φ(t), and (c)
    application of the right evolution operator to φ₀.  One RK4 run steps
    all three: entry 0 holds [U_R | Φ] from [I | φ₀] under the covariant ket
    generator, entry 1 holds [· | φ] from [I | Ω(t₀)φ₀] under −i·sym(Ω·H·Ω⁻¹).
    The family must have a Hermitian hermitized image along the grid for
    route (b) to be admissible (``NotHermitian`` at the first time it is not),
    and the dimension of ``hamiltonian`` (``DimensionMismatch`` otherwise).
    """
    dim = hamiltonian.dim
    phi0 = as_state(phi0, dim)
    times, plan = _substep_plan(grid, step)

    covariant = _taylor_fill(hamiltonian, family, (True,))
    count = len(hamiltonian.coefficients)

    def fill(t, scale, out):
        covariant(t, scale, out)  # A into entry 0; the samples overwrite its −A† in entry 1
        h = out[1]
        for sl in _map_slices(t.size, dim):
            _taylor_table(hamiltonian, power_table(t[sl], count), h[sl])
            h[sl] = family.omega(t[sl]) @ h[sl] @ family.omega_inv(t[sl])
        _hermitian_generator(t, h, scale)

    y0 = np.empty((2, dim, dim + 1), dtype=complex)
    y0[:, :, :dim] = np.eye(dim)
    y0[0, :, dim], y0[1, :, dim] = phi0, family.omega(times[0]) @ phi0
    samples = _rk4(times, plan, y0, fill)
    # a copy, so that the report does not keep the operator samples alive
    phi_pair, lower = samples[:, 0, :, dim].copy(), samples[:, 1, :, dim]
    phi_lower = np.concatenate([
        np.einsum("kij,kj->ki", family.omega_inv(times[sl]), lower[sl])
        for sl in _map_slices(times.size, dim)
    ])
    phi_ops = np.einsum("kij,j->ki", samples[:, 0, :, :dim], phi0)

    def max_dev(a, b):
        return float(np.linalg.norm(a - b, axis=1).max())

    return CrosscheckReport(
        times, phi_pair, phi_lower, phi_ops,
        max_dev(phi_pair, phi_lower), max_dev(phi_pair, phi_ops), max_dev(phi_lower, phi_ops),
    )
