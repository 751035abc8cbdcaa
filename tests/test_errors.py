"""Every public entry point rejects a malformed argument with a typed error."""

import numpy as np
import pytest

from cryptoherm import (
    DimensionMismatch,
    DysonFamily,
    MetricOperator,
    TaylorHamiltonian,
    as_square_matrix,
    crosscheck_pictures,
    dyson_from_metric,
    evolution_operators,
    propagate_h,
    propagate_naive,
    propagate_pair,
    qs_scan,
    random_cryptohermitian,
)

HAM = TaylorHamiltonian((np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [0.0, 0.0]])))
FAMILY = DysonFamily.exp_poly(np.array([[0.0, 0.5], [0.0, 0.0]]), [0.0, 1.0])
PHI0 = np.array([1.0, 0.0])

#: one call per grid-taking propagator, on the grid given
PROPAGATORS = {
    "propagate_pair": lambda grid: propagate_pair(HAM, FAMILY, PHI0, None, grid, 0.1),
    "propagate_naive": lambda grid: propagate_naive(HAM, FAMILY, PHI0, None, grid, 0.1),
    "propagate_h": lambda grid: propagate_h(lambda t: np.eye(2), PHI0, grid, 0.1),
    "evolution_operators": lambda grid: evolution_operators(HAM, FAMILY, grid, 0.1),
    "crosscheck_pictures": lambda grid: crosscheck_pictures(HAM, FAMILY, PHI0, grid, 0.1),
}

GRIDS = {"empty": [], "2-d": [[0.0, 0.5, 1.0]]}

#: (label, call, error type, message start)
RAISES = [
    ("empty-taylor", lambda: TaylorHamiltonian(()), ValueError, "need at least one coefficient"),
    *(
        (f"{name}-{grid}", lambda run=run, g=g: run(g), ValueError, "time grid must be a non-empty 1-d")
        for name, run in PROPAGATORS.items()
        for grid, g in GRIDS.items()
    ),
    ("no-trials", lambda: qs_scan("shared", 0, 3, 0), ValueError, "need at least one trial"),
    ("unknown-kind", lambda: DysonFamily("linear", np.eye(2)), ValueError,
     "unknown Dyson family kind 'linear'"),
    ("constant-without-matrix", lambda: DysonFamily("constant"), ValueError,
     "constant family needs a matrix"),
    ("exp-poly-without-generator", lambda: DysonFamily("exp_poly", np.eye(2)), ValueError,
     "exp_poly family needs a generator"),
    ("short-spectrum", lambda: random_cryptohermitian(3, [0.0, 1.0], 0), DimensionMismatch,
     "expected 3 eigenvalues"),
    ("unitary-shape", lambda: dyson_from_metric(MetricOperator.from_matrix(np.eye(2)), np.eye(3)),
     DimensionMismatch, "unitary shape (3, 3)"),
    ("square-stack", lambda: as_square_matrix(np.zeros((2, 2, 2))), DimensionMismatch,
     "expected a square matrix, got shape (2, 2, 2)"),
]


@pytest.mark.parametrize("call, error, message", [r[1:] for r in RAISES], ids=[r[0] for r in RAISES])
def test_each_malformed_argument_raises_its_typed_error(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value).startswith(message)
