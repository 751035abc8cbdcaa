"""Exception types shared across the library.

Numerical failures and configuration failures form two separate trees so the
command-line front end can map them to distinct exit codes.
"""


def checked(outcome):
    """``outcome``, raised if it is an exception.  The stacked routines return
    per matrix a result or the error it fails with; the one-matrix calls are
    stacks of one passed through here."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class CryptohermError(Exception):
    """Base class for every error raised by this package."""


class NumericalError(CryptohermError):
    """A computation failed on numerical grounds (CLI exit code 1)."""


class ConfigError(CryptohermError):
    """A run configuration could not be parsed or validated (CLI exit code 2)."""


class DefectiveMatrix(NumericalError):
    """Eigenvector basis is numerically singular; the matrix is treated as
    non-diagonalizable and is reported rather than regularized."""


class SingularMatrix(NumericalError):
    """Matrix inversion requested for a numerically singular matrix."""


class NotPositiveDefinite(NumericalError):
    """Principal square root requested for a matrix that is not Hermitian
    positive definite."""


class DimensionMismatch(NumericalError):
    """Operands have incompatible shapes."""


class InvalidWeights(NumericalError):
    """Spectral metric weights must be real and strictly positive."""


class PositivityFailure(NumericalError):
    """Assembled metric candidate failed its Hermiticity/positivity checks."""


class DegenerateOverlap(NumericalError):
    """Left/right state overlap is numerically zero."""


class NotHermitian(NumericalError):
    """A sampled generator violated its Hermiticity precondition."""


class NonFiniteState(NumericalError):
    """A propagated state, or a Dyson map Ω(t) it needs, left the finite
    range of floating point."""


class ExpectsRealSpectrum(NumericalError):
    """An operation requiring a real spectrum received complex eigenvalues."""


class ResampleExhausted(NumericalError):
    """Random sampler failed to satisfy its conditioning cap."""


class ParseError(ConfigError):
    """Configuration document is not well-formed."""


class ValidationError(ConfigError):
    """Configuration document is well-formed but violates the schema."""


class IllConditionedWarning(UserWarning):
    """Residual guarantees degrade beyond the documented condition-number cap."""
