"""Interval bound propagation: one node's step.

The cheapest bound strategy: constant elementwise intervals, each input's
from its spec's ``box`` rule and every other node's from its op's
``interval`` rule. ``backward.BoundQuery`` sweeps them in topological order
under the ``ibp`` strategy, and as the intermediate intervals of the hybrid
``ibp+backward`` strategy.
"""
from __future__ import annotations

from typing import Sequence

from .linear import IntervalBounds
from .ops import OpKind

__all__ = ["interval_oracle"]


def interval_oracle(op: OpKind, inputs: Sequence[IntervalBounds]) -> IntervalBounds:
    """Propagate interval bounds through a single dependent op."""
    return op.interval(inputs)
