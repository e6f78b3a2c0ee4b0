"""Exception types shared across the package."""


class EvcltError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(EvcltError):
    """Malformed configuration, unknown identifier, or precondition violation
    that a caller should have caught before invoking a computation."""


class SingularDesignError(EvcltError):
    """Observed regressor column is (numerically) constant; the LS fit has
    no unique solution."""


class DegenerateDesignError(EvcltError):
    """Design dispersion is zero, so a requested ratio is undefined."""


class MissingLatentsError(EvcltError):
    """Operation needs the latent error draws, but the sample was drawn
    without retaining them."""


class ZeroVarianceError(EvcltError):
    """Plug-in standardization requested but the residual variance is zero."""


class QuadratureUnsupportedError(EvcltError):
    """The composite-error law has no tractable density for the quadrature
    path; use the Monte Carlo method instead."""
