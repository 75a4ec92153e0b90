"""Forward-mode linear bound propagation: one node's step.

Every node's value is bounded by two affine functions of the perturbed
independent coordinates. ``backward.BoundQuery.forward`` builds them in
topological order: it relaxes each nonlinear op on its operands' intervals
once per query, then applies the resulting linear op's ``forward`` rule
through ``forward_oracle``.
"""
from __future__ import annotations

from typing import Sequence

from .errors import GraphError
from .linear import LinearBounds
from .ops import OpKind

__all__ = ["forward_oracle"]


def forward_oracle(op: OpKind, input_bounds: Sequence[LinearBounds]) -> LinearBounds:
    """Produce a node's linear bounds from its inputs' linear bounds; a relaxed op must be relaxed first."""
    if op.relaxed:
        raise GraphError(f"op {op.kind!r} must be relaxed on its input intervals first")
    return op.forward(input_bounds)
