"""Forward-mode linear bound propagation.

Every node's value is bounded by two affine functions of the perturbed
independent coordinates, built in topological order from each op's
``forward`` rule. Nonlinear ops obtain the intervals their relaxations need
by concretizing their inputs' own forward bounds, so the mode is
self-contained. ``backward.BoundQuery.forward`` runs the sweep.
"""
from __future__ import annotations

from typing import Mapping, Sequence

from .errors import GraphError
from .graph import Graph, OpKind, topological_order
from .linear import InputLayout, IntervalBounds, LinearBounds
from .perturb import PerturbationSpec
from .relaxation import ReluLowerMode

__all__ = ["forward_oracle", "forward_lirpa", "LinearBounds", "InputLayout"]


def forward_oracle(
    op: OpKind,
    input_bounds: Sequence[LinearBounds],
    input_intervals: Sequence[IntervalBounds] | None = None,
    relu_mode: ReluLowerMode = ReluLowerMode.ADAPTIVE,
) -> LinearBounds:
    """Produce a node's linear bounds from its inputs' linear bounds.

    A relaxed op is first relaxed on ``input_intervals``, one interval per
    input; other ops ignore them.
    """
    if op.relaxed and input_intervals is None:
        raise GraphError(f"op {op.kind!r} requires input intervals for its relaxation")
    return (op.relax(input_intervals, relu_mode) if op.relaxed else op).forward(input_bounds)


def forward_lirpa(
    g: Graph,
    specs: Mapping[int, PerturbationSpec],
    relu_mode: ReluLowerMode = ReluLowerMode.ADAPTIVE,
) -> dict[int, LinearBounds]:
    """Linear bounds of every node w.r.t. the perturbed independent nodes.

    Perturbed inputs start from identity coefficients on their own column
    block; constant inputs fold into the bias. Intervals needed by
    relaxations come from concretizing the already-computed forward bounds
    of the operands.
    """
    from .backward import BoundQuery, BoundStrategy  # a cycle: the query module imports this one
    query = BoundQuery(g, specs, BoundStrategy.FORWARD, relu_mode)
    return {i: query.forward(i) for i in topological_order(g)}
