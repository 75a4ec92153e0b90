"""Forward-mode linear bound propagation.

Every node's value is bounded by two affine functions of the perturbed
independent coordinates, built in topological order from each op's
``forward`` rule. Nonlinear ops obtain the intervals their relaxations need
by concretizing their inputs' own forward bounds, so the mode is
self-contained.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .concretize import concretize_bounds
from .errors import GraphError
from .graph import Graph, Input, OpKind, topological_order
from .linear import InputLayout, IntervalBounds, LinearBounds
from .perturb import Constant, PerturbationSpec
from .relaxation import ReluLowerMode

__all__ = ["forward_oracle", "forward_lirpa", "LinearBounds", "InputLayout"]


def forward_oracle(
    op: OpKind,
    input_bounds: Sequence[LinearBounds],
    input_intervals: Sequence[IntervalBounds] | None = None,
    relu_mode: ReluLowerMode = ReluLowerMode.ADAPTIVE,
) -> LinearBounds:
    """Produce a node's linear bounds from its inputs' linear bounds.

    ``input_intervals`` must hold one interval per input for relaxed ops;
    linear ops ignore it.
    """
    if op.relaxed and input_intervals is None:
        raise GraphError(f"op {op.kind!r} requires input intervals for its relaxation")
    return op.forward(input_bounds, input_intervals, relu_mode)


def _input_bounds(layout: InputLayout, node_id: int, spec: PerturbationSpec, dim: int) -> LinearBounds:
    if isinstance(spec, Constant):
        zeros = np.zeros((dim, layout.dim))
        return LinearBounds(zeros, spec.value, zeros.copy(), spec.value.copy())
    w = np.zeros((dim, layout.dim))
    w[:, layout.block(node_id)] = np.eye(dim)
    zeros = np.zeros(dim)
    return LinearBounds(w, zeros, w.copy(), zeros.copy())


def _forward_pass(
    g: Graph, specs: Mapping[int, PerturbationSpec], relu_mode: ReluLowerMode, layout: InputLayout
) -> tuple[dict[int, LinearBounds], dict[int, IntervalBounds]]:
    """``forward_lirpa``'s bounds plus the nonlinear-operand intervals it concretized."""
    bounds: dict[int, LinearBounds] = {}
    intervals: dict[int, IntervalBounds] = {}

    def interval_of(j: int) -> IntervalBounds:
        if j not in intervals:
            intervals[j] = concretize_bounds(bounds[j], layout, specs)
        return intervals[j]

    for i in topological_order(g):
        node = g.nodes[i]
        if isinstance(node.op, Input):
            bounds[i] = _input_bounds(layout, i, specs[i], node.dim)
            continue
        child_bounds = [bounds[j] for j in node.inputs]
        child_intervals = (
            [interval_of(j) for j in node.inputs] if node.op.relaxed else None
        )
        bounds[i] = forward_oracle(node.op, child_bounds, child_intervals, relu_mode)
    return bounds, intervals


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
    return _forward_pass(g, specs, relu_mode, InputLayout.from_specs(g, specs))[0]
