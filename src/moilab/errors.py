"""Exception types shared across the package, and the memory budget whose
excess the allocation-heavy steps report before they allocate."""

# Memory one allocation-heavy step may ask for: the heavy-tail counterexample
# (taylor.lp_counterexample_demo) and the gue_like draw (rng.check_draw).
_MEMORY_BUDGET_BYTES = 256 << 20


class MoiLabError(Exception):
    """Base class for all moi-lab errors."""


class OrderLimitError(MoiLabError):
    """A derivative or divided-difference order exceeds the family's max_order."""


class DimensionMismatchError(MoiLabError):
    """Matrix dimensions, operand counts, or symbol arity do not line up."""


class ParameterError(MoiLabError):
    """An invalid numeric parameter (exponent, tolerance, grid spec)."""


class NumericalError(MoiLabError):
    """An iterative routine failed to reach its accuracy target."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ToleranceError(MoiLabError):
    """Two evaluation paths that must agree disagreed beyond tolerance, or a
    bound the contract asserts was exceeded.

    Carries both sides (lhs, rhs) and, where one is measured, their relative
    deviation, so the caller can inspect the disagreement.
    """

    def __init__(self, message, lhs=None, rhs=None, deviation=None):
        super().__init__(message)
        self.lhs = lhs
        self.rhs = rhs
        self.deviation = deviation


class InversionQualityError(MoiLabError):
    """Fourier inversion produced an untrustworthy imaginary residue."""


class ConfigError(MoiLabError):
    """Invalid experiment configuration."""
