"""Finite-dimensional quantum dynamics with time-dependent metrics.

Non-Hermitian operators with real spectra become self-adjoint once the inner
product is weighted by a positive metric Θ = Ω†Ω.  This package constructs
such metrics and maps, propagates state doublets with the covariant generator
H_gen(t) = H(t) − i·Ω⁻¹(t)Ω̇(t), verifies unitarity in the physical inner
product, and decides whether a polynomial-in-time family admits a single
stationary metric.
"""

from .errors import (
    ConfigError,
    CryptohermError,
    DefectiveMatrix,
    DegenerateOverlap,
    DimensionMismatch,
    ExpectsRealSpectrum,
    IllConditionedWarning,
    InvalidWeights,
    NonFiniteState,
    NotHermitian,
    NotPositiveDefinite,
    NumericalError,
    ParseError,
    PositivityFailure,
    ResampleExhausted,
    SingularMatrix,
    ValidationError,
)
from .evolution import (
    CrosscheckReport,
    OperatorTrajectory,
    StateTrajectory,
    TaylorHamiltonian,
    VectorTrajectory,
    crosscheck_pictures,
    evolution_operators,
    generator,
    propagate_h,
    propagate_naive,
    propagate_pair,
)
from .linalg import (
    BiorthonormalSystem,
    as_square_matrix,
    biorthogonal_decompose,
    invert,
    norm_fro,
    principal_sqrt,
)
from .metric import (
    DysonFamily,
    MetricOperator,
    dyson_from_metric,
    expectation,
    hermitize,
    metric_from_dyson,
    metric_from_spectral,
    physical_inner,
    projector_pair,
)
from .models import (
    SAMPLERS,
    GridSpec,
    discretize_schrodinger,
    model_2x2,
    random_cryptohermitian,
    sample_independent,
    sample_shared,
    sample_shared_degree2,
    scenario_falsification,
    scenario_random,
)
from .quasistationary import (
    QSCertificate,
    ScanStats,
    qs_certify,
    qs_scan,
    qs_solve,
    stationarity_residual,
)

__version__ = "0.1.0"
