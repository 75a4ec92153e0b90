"""Backward-mode linear bound propagation and the strategy driver.

A BFS from the output node pushes coefficient matrices through each op's
``backward`` rule until only independent nodes carry coefficients.
Out-degree bookkeeping guarantees each dependent node is relaxed exactly
once, with its full accumulated coefficient.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .concretize import concretize_blocks, concretize_bounds
from .errors import DomainError, GraphError
from .forward import _forward_pass, forward_oracle
from .graph import Affine, Graph, Input, OpKind, get_out_degree, topological_order
from .interval import IntervalBounds, ibp_propagate, input_interval, interval_oracle
from .linear import InputLayout, LinearBounds
from .perturb import PerturbationSpec
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

    A dependent node's coefficients are dropped once it is relaxed, so after
    termination only independent nodes keep entries; ``pop_order`` records
    the BFS processing sequence.
    """

    lower_coeff: dict[int, np.ndarray]
    upper_coeff: dict[int, np.ndarray]
    lower_bias: np.ndarray
    upper_bias: np.ndarray
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


def _checked_out_coeff(out_coeff: np.ndarray, dim: int) -> np.ndarray:
    out_coeff = np.asarray(out_coeff, dtype=np.float64)
    if out_coeff.ndim != 2 or out_coeff.shape[1] != dim:
        raise GraphError(f"out_coeff must have {dim} columns, got shape {out_coeff.shape}")
    return out_coeff


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
    coefficient contributions before the node is relaxed. One array serves
    as both sides' coefficients until a relaxation splits them, and an
    identity seed on an affine output starts from its weight and bias.
    """
    dim = g.nodes[o].dim
    if out_coeff is not None:
        out_coeff = _checked_out_coeff(out_coeff, dim)
    elif not isinstance(g.nodes[o].op, Affine):
        out_coeff = np.eye(dim)
    rows = dim if out_coeff is None else out_coeff.shape[0]
    lower: dict[int, np.ndarray | None] = {o: out_coeff}
    upper = dict(lower)
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
        if lower[i] is None:
            # an identity seed on an affine output: I @ W is W, entry for entry
            w, b = node.op.weight, node.op.bias
            lams, d_lo, d_up = [(w, w)], b, b
        else:
            in_dim = g.nodes[node.inputs[0]].dim
            lams, d_lo, d_up = backward_oracle(node.op, lower[i], upper[i], intervals, relu_mode, in_dim)
        ready: list[int] = []
        for j, (lam_lo, lam_up) in zip(node.inputs, lams):
            # no rule writes to its arguments, so the first contribution is stored as is
            if j in lower:
                shared = lower[j] is upper[j] and lam_lo is lam_up
                lower[j] = lower[j] + lam_lo
                upper[j] = lower[j] if shared else upper[j] + lam_up
            else:
                lower[j] = lam_lo
                upper[j] = lam_up
            degree[j] -= 1
            if degree[j] == 0 and not isinstance(g.nodes[j].op, Input):
                ready.append(j)
        d_lower = d_lower + d_lo
        d_upper = d_upper + d_up
        del lower[i], upper[i]
        queue.extend(sorted(ready))
    return BackwardState(lower, upper, d_lower, d_upper, tuple(pops))


def _backward_blocks(g: Graph, o: int, intermediate, specs, out_coeff, relu_mode):
    """One backward pass: both biases, and the (lower, upper) coefficients of each reached perturbed input."""
    state = run_backward(g, o, intermediate, out_coeff, relu_mode)
    lb, ub = state.lower_bias, state.upper_bias
    blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for i in sorted(state.lower_coeff):  # the reached inputs, in input order
        a_lo, a_up = state.lower_coeff[i], state.upper_coeff[i]
        if specs[i].perturbed:
            blocks[i] = (a_lo, a_up)
        else:
            # pinned inputs contribute exactly; fold into the bias
            lb = lb + a_lo @ specs[i].center
            ub = ub + a_up @ specs[i].center
    return lb, ub, blocks


def _backward_box(g: Graph, o: int, intermediate, specs, out_coeff, relu_mode) -> IntervalBounds:
    """The interval of one backward pass, concretized block by block with no dense matrix."""
    lb, ub, blocks = _backward_blocks(g, o, intermediate, specs, out_coeff, relu_mode)
    return concretize_blocks(lb, ub, [(specs[i], a_lo, a_up) for i, (a_lo, a_up) in blocks.items()])


def _backward_linear(g: Graph, o: int, intermediate, specs, out_coeff, relu_mode, layout) -> LinearBounds:
    """``backward_lirpa`` over the layout its caller already built."""
    lb, ub, blocks = _backward_blocks(g, o, intermediate, specs, out_coeff, relu_mode)
    lw = np.zeros((lb.shape[0], layout.dim))
    uw = np.zeros((lb.shape[0], layout.dim))
    for i, (a_lo, a_up) in blocks.items():
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


def _nonlinear_operand_ids(g: Graph, target: int) -> set[int]:
    scope = {target} | {i for i, d in get_out_degree(g, target).items() if d}
    return {j for i in scope if g.nodes[i].op.relaxed for j in g.nodes[i].inputs}


def intermediate_intervals(
    g: Graph,
    specs: Mapping[int, PerturbationSpec],
    strategy: BoundStrategy,
    target: int | None = None,
    relu_mode: ReluLowerMode = ReluLowerMode.ADAPTIVE,
) -> dict[int, IntervalBounds]:
    """Intervals the backward pass needs, produced by the strategy's supplier."""
    needed = _nonlinear_operand_ids(g, g.output if target is None else target)
    layout = InputLayout.from_specs(g, specs)
    return _intermediate_intervals(g, specs, strategy, needed, relu_mode, layout)


def _intermediate_intervals(
    g: Graph,
    specs: Mapping[int, PerturbationSpec],
    strategy: BoundStrategy,
    needed: set[int],
    relu_mode: ReluLowerMode,
    layout: InputLayout,
) -> dict[int, IntervalBounds]:
    """Supplier intervals of the ``needed`` nodes (IBP: of every node) over the caller's layout."""
    if strategy in (BoundStrategy.IBP, BoundStrategy.IBP_BACKWARD):
        return ibp_propagate(g, specs)
    if strategy in (BoundStrategy.FORWARD, BoundStrategy.FORWARD_BACKWARD):
        # the pass concretized the nonlinear operands; other needed nodes come from their bounds
        bounds, fwd = _forward_pass(g, specs, relu_mode, layout)
        return {
            j: fwd[j] if j in fwd else concretize_bounds(bounds[j], layout, specs)
            for j in sorted(needed)
        }
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
            intervals[j] = _backward_box(g, j, intervals, specs, None, relu_mode)
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
    if out_coeff is not None:
        out_coeff = _checked_out_coeff(out_coeff, g.nodes[target].dim)
        coeff_op = Affine(out_coeff, np.zeros(out_coeff.shape[0]))

    if strategy is BoundStrategy.IBP:
        native = box = ibp_propagate(g, specs)[target]
        if out_coeff is not None:
            native = box = interval_oracle(coeff_op, [box])
    elif strategy is BoundStrategy.FORWARD:
        native = _forward_pass(g, specs, relu_mode, layout)[0][target]
        if out_coeff is not None:
            native = forward_oracle(coeff_op, [native])
        box = concretize_bounds(native, layout, specs)
    else:
        needed = _nonlinear_operand_ids(g, target)
        intermediate = _intermediate_intervals(g, specs, strategy, needed, relu_mode, layout)
        native = _backward_linear(g, target, intermediate, specs, out_coeff, relu_mode, layout)
        box = concretize_bounds(native, layout, specs)
    _fail_closed(box.lower, box.upper, f"node {target}: {strategy.value}")
    return native, box


def _fail_closed(lower, upper, what: str) -> None:
    """Raise DomainError when a bound is NaN or lower exceeds upper beyond float noise."""
    if np.isnan(lower).any() or np.isnan(upper).any() or _inverted(lower, upper):
        raise DomainError(f"{what} bounds are NaN or inverted")
