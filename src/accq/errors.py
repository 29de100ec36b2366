"""Exception types shared across the package.

The CLI maps these onto exit codes, so keep the hierarchy flat and explicit.
"""


class InvalidBitWidthError(ValueError):
    """A bit width is outside its legal range (or K is not positive)."""


class NonFiniteInputError(ValueError):
    """A float input contains NaN or infinity."""


class LengthMismatchError(ValueError):
    """Two vectors that must share a length do not."""


class NonPositiveRadiusError(ValueError):
    """An l1 projection radius must be strictly positive."""


class EnumerationBudgetError(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""


class InvalidBudgetError(ValueError):
    """ACCQ_ENUM_BUDGET is set to something other than a non-negative base-10 integer."""


class InfeasibleError(ValueError):
    """The requested object cannot exist (e.g. a nonzero zero-sum vector of length 1)."""


class HypothesisViolationError(ValueError):
    """Inputs handed to a derivation check do not satisfy its hypotheses."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


class AccumulatorOverflowError(RuntimeError):
    """A post-training certificate found a channel that can overflow its accumulator."""
