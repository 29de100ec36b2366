"""Exception types the package raises.

The CLI maps the width and divergence errors onto exit 3 and the
exhaustive oracle's refusal onto exit 5; the trainer's certificate raises
AccumulatorOverflowError.  Keep the hierarchy flat and explicit.
"""


class InvalidBitWidthError(ValueError):
    """A bit width is outside its legal range (or K is not positive)."""


class NonFiniteInputError(ValueError):
    """A float input contains NaN or infinity."""


class NonPositiveRadiusError(ValueError):
    """An l1 projection radius must be strictly positive."""


class EnumerationBudgetError(RuntimeError):
    """The exhaustive oracle refuses a row: over intsim.ENUM_BUDGET input vectors, or a reachable-sum span over 2^22."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


class AccumulatorOverflowError(RuntimeError):
    """A post-training certificate found a channel that can overflow its accumulator."""
