"""Exception and warning types shared across the package."""


class FracsobError(Exception):
    """Base class for all errors raised by this package."""


class GridError(FracsobError):
    """Sample grids are malformed or incompatible."""


class ImmersionError(FracsobError):
    """A curve fails the immersion condition min |c'| > eps."""


class ResolutionError(ImmersionError):
    """The grid no longer resolves a curve's speed.

    make_curve raises it when the arc-length map built from the sampled
    speed is not orientation preserving. The speed itself is positive at
    every node, so this only happens through unresolved high modes, usually
    on a curve that is degenerating. Callers that treat a lost immersion as
    a failed shot treat this the same way.
    """


class DomainError(FracsobError):
    """A parameter lies outside the admissible domain."""


class NotPositiveDefiniteError(FracsobError):
    """A symbol value is not positive definite where positivity is required."""


class NotSupportedError(FracsobError):
    """The requested operation is not available for this symbol."""


class StepError(FracsobError):
    """A time integrator produced nonfinite values."""


class NoConvergenceError(FracsobError):
    """Shooting stopped above the requested residual.

    The best iterate found so far is attached as ``result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class ConfigError(FracsobError):
    """A run configuration is missing keys or holds invalid values."""


class MeanResidualWarning(UserWarning):
    """An integrand that should have zero arc-length mean did not."""
