"""Exception types shared across the package."""


class CslBoundsError(Exception):
    """Base class for all package errors."""


class ConfigError(CslBoundsError, ValueError):
    """Invalid detector config or spectrum file.

    The message carries a field path (configs) or line number (spectra)
    pointing at the offending entry.
    """


class UnboundedParameterError(CslBoundsError, ValueError):
    """The model force PSD vanishes, so no finite bound exists."""


class QuadratureError(CslBoundsError, RuntimeError):
    """Quadrature failed to converge within its evaluation budget."""

    def __init__(self, message, achieved_rel_error=None, evaluations=None):
        super().__init__(message)
        self.achieved_rel_error = achieved_rel_error
        self.evaluations = evaluations
