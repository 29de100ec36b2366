"""Accumulator-aware weight quantization toolkit.

Exact l1 budgets that keep integer dot products inside a fixed-width register,
quantizers that enforce them per channel, budget-aware initialization and the
l1-ball projection, an exact integer accumulation simulator, and a small
quantization-aware trainer that ties the pieces together.

The submodules are the public surface (``accq.bounds``, ``accq.quantizers``,
``accq.epinit``, ``accq.intsim``, ``accq.qat``, ``accq.cli``, ``accq.errors``);
import names from them.
"""

__version__ = "0.1.0"
