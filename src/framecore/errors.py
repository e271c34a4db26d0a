"""Exception hierarchy shared across the package.

Two branches matter to callers: ``ValidationError`` (bad or out-of-domain
input) and ``NumericalError`` (an iteration or verification failed).  The
CLI maps them to distinct exit codes.
"""


class FramecoreError(Exception):
    """Base class for all package errors."""


class ValidationError(FramecoreError):
    """Input violates a precondition or format contract."""


class NumericalError(FramecoreError):
    """A numerical procedure failed to converge or verify."""


class NonFinite(ValidationError):
    """NaN or Inf where finite numbers are required."""


class NotSymmetric(ValidationError):
    """Matrix is not symmetric within tolerance."""


class NotOrthonormal(ValidationError):
    """Rows are not pairwise orthonormal within tolerance."""


class DimensionMismatch(ValidationError):
    """Vectors of inconsistent dimension."""


class IterationLimit(NumericalError):
    """Active-set iteration cap reached."""


class SearchFailed(NumericalError):
    """Step-size halving exhausted without strict improvement."""


class InconsistentVerdict(NumericalError):
    """Two independent decision routes disagree beyond tolerance."""


class VerificationError(NumericalError):
    """A constructed object violates its own verified postcondition."""


class NormError(ValidationError):
    """Vector too far from unit norm to renormalize."""


class ShapeError(ValidationError):
    """Ragged or empty vector data."""


class ParseError(ValidationError):
    """Malformed frame file."""


class NotAFrame(ValidationError):
    """Operation requires a spanning system."""


class NotScalable(ValidationError):
    """Top frame-operator eigenvalue too close to 1 for a complement."""


class DegenerateComplement(ValidationError):
    """Complement dimension would be zero."""
