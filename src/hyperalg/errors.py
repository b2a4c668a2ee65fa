"""Exception hierarchy shared across the package."""


class HyperalgError(Exception):
    """Base class for all errors raised by this package."""


class EvaluationRangeError(HyperalgError):
    """An evaluation would overflow double-precision exp (|Re| beyond the
    guard), or a truncated product is not finite."""

    def __init__(self, message, z=None):
        super().__init__(message)
        self.z = z


class DerivativeConvergenceError(HyperalgError):
    """Contour-derivative estimates at two sample counts disagree beyond tolerance."""

    def __init__(self, message, values=None, errors=None):
        super().__init__(message)
        self.values = values
        self.errors = errors


class HypothesisError(HyperalgError):
    """A construction's hypothesis fails with the configured margin."""


class NormalizationError(HypothesisError):
    """The symbol's constant term is not unimodular, so no rotation fixes it."""


class TargetPlacementError(HypothesisError):
    """Target frequencies fall outside the admissible windows."""


class ThetaMarginError(HyperalgError):
    """Counted expansion terms whose bound stays above the tolerance at every
    iterate count up to the cap, so that no doubling could finish.  Each of
    ``entries`` names one term (``alpha, u, v, theta, case``) with its
    smallest bound ``bound`` and the iterate count ``n`` where it occurs."""

    def __init__(self, message, entries=None):
        super().__init__(message)
        self.entries = entries


class SearchFailureError(HyperalgError):
    """A backtracking search exhausted its budget without validating."""


class IterationLimitError(HyperalgError):
    """The iterate count reached its cap before the residual target was met."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ConfigError(HyperalgError):
    """An experiment configuration failed schema validation."""
