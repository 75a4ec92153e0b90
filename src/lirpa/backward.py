"""Backward-mode linear bound propagation and the strategy driver.

A BFS from the output node pushes coefficient matrices through each op's
``backward`` rule until only independent nodes carry nonzero coefficients.
Out-degree bookkeeping guarantees each dependent node is relaxed exactly
once, with its full accumulated coefficient.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .concretize import concretize_bounds
from .errors import DomainError, GraphError
from .forward import _forward_pass, forward_oracle
from .graph import Affine, Graph, Input, OpKind, get_out_degree, topological_order
from .interval import IntervalBounds, ibp_propagate, input_interval
from .linear import InputLayout, LinearBounds
from .perturb import Constant, PerturbationSpec
from .relaxation import ReluLowerMode, _inverted

__all__ = [
    "BoundStrategy",
    "BackwardState",
    "backward_oracle",
    "run_backward",
    "backward_lirpa",
    "intermediate_intervals",
    "compute_bounds",
]


class BoundStrategy(Enum):
    """How intermediate and output bounds are produced."""

    IBP = "ibp"
    FORWARD = "forward"
    BACKWARD = "backward"
    IBP_BACKWARD = "ibp+backward"
    FORWARD_BACKWARD = "forward+backward"


@dataclass
class BackwardState:
    """Coefficient maps and bias terms of one backward pass.

    After termination every dependent node's coefficient matrices are zero
    and only independent nodes retain contributions; ``pop_order`` records
    the BFS processing sequence.
    """

    lower_coeff: dict[int, np.ndarray]
    upper_coeff: dict[int, np.ndarray]
    lower_bias: np.ndarray
    upper_bias: np.ndarray
    out_degree: dict[int, int]
    pop_order: tuple[int, ...]


def backward_oracle(
    op: OpKind,
    lower_coeff: np.ndarray,
    upper_coeff: np.ndarray,
    input_intervals: Sequence[IntervalBounds] | None = None,
    relu_mode: ReluLowerMode = ReluLowerMode.ADAPTIVE,
    in_dim: int | None = None,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]:
    """Push output coefficients of one node onto its inputs.

    Returns one (lower, upper) coefficient pair per input, in input order,
    plus the bias increments for both sides. ``in_dim`` is only consulted by
    sum_reduce, whose expansion width is not visible in the coefficients.
    """
    if op.relaxed and input_intervals is None:
        raise DomainError(f"missing intermediate bounds at nonlinear op {op.kind!r}")
    return op.backward(lower_coeff, upper_coeff, input_intervals, relu_mode, in_dim)


def run_backward(
    g: Graph,
    o: int,
    intermediate: Mapping[int, IntervalBounds],
    out_coeff: np.ndarray | None = None,
    relu_mode: ReluLowerMode = ReluLowerMode.ADAPTIVE,
) -> BackwardState:
    """Run the backward BFS from node o and return the final state.

    ``out_coeff`` (default identity) left-multiplies the output node, so a
    margin or specification matrix can be bounded in one pass. A node is
    queued only once its pending out-degree reaches zero, which merges all
    coefficient contributions before the node is relaxed.
    """
    node_o = g.nodes[o]
    if out_coeff is None:
        out_coeff = np.eye(node_o.dim)
    out_coeff = np.asarray(out_coeff, dtype=np.float64)
    if out_coeff.ndim != 2 or out_coeff.shape[1] != node_o.dim:
        raise GraphError(
            f"out_coeff must have {node_o.dim} columns, got shape {out_coeff.shape}"
        )
    rows = out_coeff.shape[0]
    lower: dict[int, np.ndarray] = {o: out_coeff.copy()}
    upper: dict[int, np.ndarray] = {o: out_coeff.copy()}
    d_lower = np.zeros(rows)
    d_upper = np.zeros(rows)
    degree = get_out_degree(g, o)
    queue: deque[int] = deque([o])
    pops: list[int] = []
    while queue:
        i = queue.popleft()
        pops.append(i)
        node = g.nodes[i]
        if isinstance(node.op, Input):
            continue
        intervals = None
        if node.op.relaxed:
            try:
                intervals = [intermediate[j] for j in node.inputs]
            except KeyError as exc:
                raise DomainError(
                    f"missing intermediate bounds for node {exc.args[0]} "
                    f"required by nonlinear node {i}"
                ) from exc
        lams, d_lo, d_up = backward_oracle(
            node.op,
            lower[i],
            upper[i],
            intervals,
            relu_mode,
            in_dim=g.nodes[node.inputs[0]].dim,
        )
        ready: list[int] = []
        for j, (lam_lo, lam_up) in zip(node.inputs, lams):
            if j in lower:
                lower[j] = lower[j] + lam_lo
                upper[j] = upper[j] + lam_up
            else:
                lower[j] = lam_lo.copy()
                upper[j] = lam_up.copy()
            degree[j] -= 1
            if degree[j] == 0 and not isinstance(g.nodes[j].op, Input):
                ready.append(j)
        d_lower = d_lower + d_lo
        d_upper = d_upper + d_up
        lower[i] = np.zeros_like(lower[i])
        upper[i] = np.zeros_like(upper[i])
        queue.extend(sorted(ready))
    return BackwardState(lower, upper, d_lower, d_upper, degree, tuple(pops))


def _backward_linear(
    g: Graph,
    o: int,
    intermediate: Mapping[int, IntervalBounds],
    specs: Mapping[int, PerturbationSpec],
    out_coeff: np.ndarray | None,
    relu_mode: ReluLowerMode,
    layout: InputLayout,
) -> LinearBounds:
    """``backward_lirpa`` over the layout its caller already built."""
    state = run_backward(g, o, intermediate, out_coeff, relu_mode)
    rows = state.lower_bias.shape[0]
    lw = np.zeros((rows, layout.dim))
    uw = np.zeros((rows, layout.dim))
    lb = state.lower_bias.copy()
    ub = state.upper_bias.copy()
    for i in g.input_ids:
        a_lo = state.lower_coeff.get(i)
        a_up = state.upper_coeff.get(i)
        if a_lo is None:
            continue
        spec = specs[i]
        if isinstance(spec, Constant):
            # pinned inputs contribute exactly; fold into the bias
            lb = lb + a_lo @ spec.value
            ub = ub + a_up @ spec.value
        else:
            lw[:, layout.block(i)] = a_lo
            uw[:, layout.block(i)] = a_up
    return LinearBounds(lw, lb, uw, ub)


def backward_lirpa(
    g: Graph,
    o: int,
    intermediate: Mapping[int, IntervalBounds],
    specs: Mapping[int, PerturbationSpec],
    out_coeff: np.ndarray | None = None,
    relu_mode: ReluLowerMode = ReluLowerMode.ADAPTIVE,
) -> LinearBounds:
    """Linear bounds of node o over the perturbed independent nodes.

    ``intermediate`` must cover every node feeding a nonlinear op on a path
    to o. Coefficients accumulated on constant inputs fold into the bias.
    """
    layout = InputLayout.from_specs(g, specs)
    return _backward_linear(g, o, intermediate, specs, out_coeff, relu_mode, layout)


def _ancestors(g: Graph, target: int) -> set[int]:
    seen = {target}
    stack = [target]
    while stack:
        for j in g.nodes[stack.pop()].inputs:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def _nonlinear_operand_ids(g: Graph, target: int) -> set[int]:
    scope = _ancestors(g, target)
    needed: set[int] = set()
    for i in scope:
        if g.nodes[i].op.relaxed:
            needed.update(g.nodes[i].inputs)
    return needed


def _apply_out_coeff_interval(bounds: IntervalBounds, c: np.ndarray) -> IntervalBounds:
    c_pos, c_neg = np.maximum(c, 0.0), np.minimum(c, 0.0)
    return IntervalBounds(
        c_pos @ bounds.lower + c_neg @ bounds.upper,
        c_pos @ bounds.upper + c_neg @ bounds.lower,
    )


def intermediate_intervals(
    g: Graph,
    specs: Mapping[int, PerturbationSpec],
    strategy: BoundStrategy,
    target: int | None = None,
    relu_mode: ReluLowerMode = ReluLowerMode.ADAPTIVE,
) -> dict[int, IntervalBounds]:
    """Intervals the backward pass needs, produced by the strategy's supplier."""
    layout = InputLayout.from_specs(g, specs)
    return _intermediate_intervals(g, specs, strategy, target, relu_mode, layout)


def _intermediate_intervals(
    g: Graph,
    specs: Mapping[int, PerturbationSpec],
    strategy: BoundStrategy,
    target: int | None,
    relu_mode: ReluLowerMode,
    layout: InputLayout,
) -> dict[int, IntervalBounds]:
    """``intermediate_intervals`` over the layout its caller already built."""
    if strategy in (BoundStrategy.IBP, BoundStrategy.IBP_BACKWARD):
        return ibp_propagate(g, specs)
    needed = _nonlinear_operand_ids(g, g.output if target is None else target)
    if strategy in (BoundStrategy.FORWARD, BoundStrategy.FORWARD_BACKWARD):
        # the forward pass concretized every nonlinear operand in the graph
        fwd_intervals = _forward_pass(g, specs, relu_mode, layout)[1]
        return {j: fwd_intervals[j] for j in sorted(needed)}
    if strategy is not BoundStrategy.BACKWARD:
        raise GraphError(f"unknown bound strategy {strategy!r}")
    # each operand from its own backward pass, in topological order so every
    # pass only needs intervals that are already available
    intervals: dict[int, IntervalBounds] = {}
    for j in topological_order(g):
        if j not in needed:
            continue
        if isinstance(g.nodes[j].op, Input):
            intervals[j] = input_interval(specs[j], g.nodes[j])
        else:
            lb = _backward_linear(g, j, intervals, specs, None, relu_mode, layout)
            intervals[j] = concretize_bounds(lb, layout, specs)
    return intervals


def compute_bounds(
    g: Graph,
    specs: Mapping[int, PerturbationSpec],
    strategy: BoundStrategy,
    target: int | None = None,
    out_coeff: np.ndarray | None = None,
    relu_mode: ReluLowerMode = ReluLowerMode.ADAPTIVE,
) -> tuple[LinearBounds | IntervalBounds, IntervalBounds]:
    """Bound a node under the chosen strategy.

    Returns the strategy's native bound object plus its concretized
    interval. Hybrid strategies take intermediate intervals from the cheap
    supplier and run one backward pass for the target. Raises DomainError
    when the interval has a NaN or is inverted beyond float noise.
    """
    if target is None:
        target = g.output
    layout = InputLayout.from_specs(g, specs)

    if strategy is BoundStrategy.IBP:
        box = ibp_propagate(g, specs)[target]
        if out_coeff is not None:
            box = _apply_out_coeff_interval(box, np.asarray(out_coeff, dtype=np.float64))
        native = box
    elif strategy is BoundStrategy.FORWARD:
        native = _forward_pass(g, specs, relu_mode, layout)[0][target]
        if out_coeff is not None:
            coeff_op = Affine(out_coeff, np.zeros(np.asarray(out_coeff).shape[0]))
            native = forward_oracle(coeff_op, [native])
        box = concretize_bounds(native, layout, specs)
    else:
        intermediate = _intermediate_intervals(g, specs, strategy, target, relu_mode, layout)
        native = _backward_linear(g, target, intermediate, specs, out_coeff, relu_mode, layout)
        box = concretize_bounds(native, layout, specs)
    if np.isnan(box.lower).any() or np.isnan(box.upper).any() or _inverted(box.lower, box.upper):
        raise DomainError(f"node {target}: {strategy.value} bounds are NaN or inverted")
    return native, box
