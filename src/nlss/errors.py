"""Error types shared across the solvers."""


class NlssError(Exception):
    """Base class for solver errors."""


class NoConvergence(NlssError):
    """Iteration budget exhausted without meeting the tolerance; reason is
    the stop reason of the Newton run behind it, when there is one."""

    def __init__(self, message, reason=None):
        super().__init__(message)
        self.reason = reason


class ConvergedToTilde(NlssError):
    """Newton landed in the degenerate-plus-negative subspace (excluded)."""


class NoCriticalPointFound(NlssError):
    """No seed produced an admissible critical point."""


class NoSynchronizedPair(NlssError):
    """The synchronized amplitude radicands are not both positive."""


class DegenerateDenominator(NlssError):
    """mu1*mu2 - beta^2 is numerically zero in the synchronized formula."""


class EmptyPositiveSubspace(NlssError):
    """The positive spectral subspace is empty; Rayleigh pencil undefined."""


class DegenerateWeight(NlssError):
    """The quadratic weight vanishes on the whole positive subspace."""


class ConfigError(NlssError):
    """Invalid or unreadable run configuration."""
