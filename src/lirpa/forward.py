"""Forward-mode linear bound propagation.

Every node's value is bounded by two affine functions of the perturbed
independent coordinates, built in topological order from per-op oracle
rules. Nonlinear ops obtain the intervals their relaxations need by
concretizing their inputs' own forward bounds, so the mode is
self-contained.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .concretize import concretize_bounds
from .errors import GraphError
from .graph import (
    Add,
    Affine,
    Graph,
    Input,
    MulElementwise,
    Neg,
    OpKind,
    Sub,
    SumReduce,
    is_nonlinear,
    topological_order,
)
from .interval import IntervalBounds
from .linear import InputLayout, LinearBounds
from .perturb import Constant, PerturbationSpec
from .relaxation import ReluLowerMode, mul_relaxation, unary_relaxation

__all__ = ["forward_oracle", "forward_lirpa", "LinearBounds", "InputLayout"]


def _mix_rows(slope: np.ndarray, on_pos: np.ndarray, on_neg: np.ndarray) -> np.ndarray:
    """diag_+(slope) @ on_pos + diag_-(slope) @ on_neg as row scaling."""
    pos = np.maximum(slope, 0.0)
    neg = np.minimum(slope, 0.0)
    if on_pos.ndim == 2:
        return pos[:, None] * on_pos + neg[:, None] * on_neg
    return pos * on_pos + neg * on_neg


def _unary_mix(rel_lower_slope, rel_lower_icpt, rel_upper_slope, rel_upper_icpt, b: LinearBounds) -> LinearBounds:
    lw = _mix_rows(rel_lower_slope, b.lower_w, b.upper_w)
    lb_ = _mix_rows(rel_lower_slope, b.lower_b, b.upper_b) + rel_lower_icpt
    uw = _mix_rows(rel_upper_slope, b.upper_w, b.lower_w)
    ub = _mix_rows(rel_upper_slope, b.upper_b, b.lower_b) + rel_upper_icpt
    return LinearBounds(lw, lb_, uw, ub)


def forward_oracle(
    op: OpKind,
    input_bounds: Sequence[LinearBounds],
    input_intervals: Sequence[IntervalBounds] | None = None,
    relu_mode: ReluLowerMode = ReluLowerMode.ADAPTIVE,
) -> LinearBounds:
    """Produce a node's linear bounds from its inputs' linear bounds.

    ``input_intervals`` must hold one interval per input for nonlinear ops;
    linear ops ignore it.
    """
    if isinstance(op, Affine):
        b = input_bounds[0]
        return LinearBounds(
            op.w_pos @ b.lower_w + op.w_neg @ b.upper_w,
            op.w_pos @ b.lower_b + op.w_neg @ b.upper_b + op.bias,
            op.w_pos @ b.upper_w + op.w_neg @ b.lower_w,
            op.w_pos @ b.upper_b + op.w_neg @ b.lower_b + op.bias,
        )
    if isinstance(op, Neg):
        b = input_bounds[0]
        return LinearBounds(-b.upper_w, -b.upper_b, -b.lower_w, -b.lower_b)
    if isinstance(op, Add):
        x, y = input_bounds
        return LinearBounds(
            x.lower_w + y.lower_w,
            x.lower_b + y.lower_b,
            x.upper_w + y.upper_w,
            x.upper_b + y.upper_b,
        )
    if isinstance(op, Sub):
        x, y = input_bounds
        return LinearBounds(
            x.lower_w - y.upper_w,
            x.lower_b - y.upper_b,
            x.upper_w - y.lower_w,
            x.upper_b - y.lower_b,
        )
    if isinstance(op, SumReduce):
        b = input_bounds[0]
        return LinearBounds(
            b.lower_w.sum(axis=0, keepdims=True),
            b.lower_b.sum(keepdims=True),
            b.upper_w.sum(axis=0, keepdims=True),
            b.upper_b.sum(keepdims=True),
        )
    if input_intervals is None:
        raise GraphError(f"op {op.kind!r} requires input intervals for its relaxation")
    if isinstance(op, MulElementwise):
        x, y = input_bounds
        ix, iy = input_intervals
        rel = mul_relaxation(ix.lower, ix.upper, iy.lower, iy.upper)
        lo_x = _unary_mix(rel.lower_x, np.zeros_like(rel.lower_const), rel.upper_x, np.zeros_like(rel.upper_const), x)
        lo_y = _unary_mix(rel.lower_y, rel.lower_const, rel.upper_y, rel.upper_const, y)
        return LinearBounds(
            lo_x.lower_w + lo_y.lower_w,
            lo_x.lower_b + lo_y.lower_b,
            lo_x.upper_w + lo_y.upper_w,
            lo_x.upper_b + lo_y.upper_b,
        )
    rel = unary_relaxation(op, input_intervals[0].lower, input_intervals[0].upper, relu_mode)
    return _unary_mix(
        rel.lower_slope, rel.lower_intercept, rel.upper_slope, rel.upper_intercept, input_bounds[0]
    )


def _input_bounds(layout: InputLayout, node_id: int, spec: PerturbationSpec, dim: int) -> LinearBounds:
    if isinstance(spec, Constant):
        zeros = np.zeros((dim, layout.dim))
        return LinearBounds(zeros, spec.value, zeros.copy(), spec.value.copy())
    w = np.zeros((dim, layout.dim))
    w[:, layout.block(node_id)] = np.eye(dim)
    zeros = np.zeros(dim)
    return LinearBounds(w, zeros, w.copy(), zeros.copy())


def _forward_pass(
    g: Graph, specs: Mapping[int, PerturbationSpec], relu_mode: ReluLowerMode
) -> tuple[dict[int, LinearBounds], dict[int, IntervalBounds]]:
    """``forward_lirpa``'s bounds plus the nonlinear-operand intervals it concretized."""
    layout = InputLayout.from_specs(g, specs)
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
            [interval_of(j) for j in node.inputs] if is_nonlinear(node.op) else None
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
    return _forward_pass(g, specs, relu_mode)[0]
