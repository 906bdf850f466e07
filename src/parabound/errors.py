"""Exception hierarchy shared across the package."""


class ParaboundError(Exception):
    """Base class for all errors raised by parabound."""


class AsymmetricInput(ParaboundError):
    """Matrix input violates symmetry beyond the stored tolerance."""


class NotPositiveDefinite(ParaboundError):
    """Matrix has an eigenvalue at or below the positivity threshold."""


class DomainError(ParaboundError):
    """Scalar argument outside the mathematical domain of an operation."""


class FloatOverflow(DomainError):
    """A result lies beyond the float64 range."""


class DivergentIntegral(ParaboundError):
    """Time integral diverges; the Lebesgue exponent is inadmissible."""


class QuadratureFailure(ParaboundError):
    """A quadrature error estimate exceeded the configured target."""


class NonpositiveTime(ParaboundError):
    """Kernel or solver evaluation requested at t <= 0."""


class InvalidExponent(ParaboundError):
    """Lebesgue exponent p < 1."""


class ExponentTooSmall(ParaboundError):
    """Nonhomogeneous bound requested for p <= n + 2 where it diverges."""


class UnsupportedData(ParaboundError):
    """Source data incompatible with the solver's quadrature scheme."""


class MalformedGridFile(ParaboundError):
    """Grid file fails magic/version/dimension validation."""
