"""Exception types the package raises.

The CLI maps the width and divergence errors onto exit 3 and the
exhaustive oracle's refusal onto exit 5; the trainer's certificate raises
AccumulatorOverflowError.  A scalar field the rules in bounds refuse raises
the error its caller names, always a ValueError.  Keep the hierarchy flat.
"""


class InvalidBitWidthError(ValueError):
    """A bit width, k_star or a flag (act_signed, signed, exhaustive) is not of its kind or outside its range."""


class NonFiniteInputError(ValueError):
    """A float input contains NaN or infinity, or a real field (act_exp, t, d) or array entry is not a finite real number."""


class NonPositiveRadiusError(ValueError):
    """An l1 projection radius is not a positive finite real number."""


class EnumerationBudgetError(RuntimeError):
    """The exhaustive oracle refuses a row: over intsim.ENUM_BUDGET input vectors, or a reachable-sum span over 2^22."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


class AccumulatorOverflowError(RuntimeError):
    """A post-training certificate found a channel that can overflow its accumulator."""
