"""Loss fusion and flatness analyses.

Fusing the cross-entropy loss into the graph collapses the bounded output
from K classes to a single scalar: the graph gains a margin affine layer,
an exp, and a sum, and one backward pass bounds the loss directly. The
unfused surrogate instead plugs backward margin lower bounds into the loss.
The flatness score applies the same machinery to networks whose weights are
re-expressed as perturbed inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .backward import BoundStrategy, _backward_linear, _intermediate_intervals
from .concretize import concretize_bounds
from .errors import GraphError
from .graph import (
    Affine,
    Exp,
    Graph,
    Input,
    MulElementwise,
    Node,
    SumReduce,
    evaluate,
    topological_order,
)
from .interval import IntervalBounds
from .linear import InputLayout
from .perturb import Constant, LpBall, PerturbationSpec
from .relaxation import ReluLowerMode

__all__ = [
    "MarginSpec",
    "FusedLossReport",
    "margin_transform",
    "build_fused_loss_graph",
    "bound_loss_fused",
    "bound_loss_unfused",
    "fused_loss_report",
    "weight_perturbed_graph",
    "flatness_score",
]

DEFAULT_EXP_CAP = 700.0  # exp() overflows float64 just above this


@dataclass(frozen=True)
class MarginSpec:
    """Ground-truth label and class count for margin-based analyses."""

    label: int
    num_classes: int

    def __post_init__(self):
        if not 0 <= self.label < self.num_classes:
            raise GraphError(
                f"label {self.label} out of range for {self.num_classes} classes"
            )


@dataclass(frozen=True)
class FusedLossReport:
    """Paired certified upper bounds of the worst-case cross-entropy loss."""

    fused_upper: float
    unfused_upper: float
    margin_lowers: np.ndarray


def margin_transform(y: int, num_classes: int) -> np.ndarray:
    """Matrix whose row i maps logits f to the margin f_y - f_i.

    Row y is identically zero; positivity of all other rows' lower bounds
    certifies the prediction.
    """
    spec = MarginSpec(y, num_classes)
    m = np.zeros((num_classes, num_classes))
    m[:, spec.label] = 1.0
    m -= np.eye(num_classes)
    return m


def build_fused_loss_graph(g: Graph, margin: MarginSpec) -> Graph:
    """Append negative margins -> exp -> sum to the logit graph.

    The new scalar output computes S = sum_i exp(f_i - f_y); the
    cross-entropy loss is log S, applied outside the graph after
    concretization since log is monotone.
    """
    k = g.nodes[g.output].dim
    if k != margin.num_classes:
        raise GraphError(
            f"output dim {k} does not match margin spec with {margin.num_classes} classes"
        )
    n = len(g.nodes)
    neg_margin = Affine(-margin_transform(margin.label, k), np.zeros(k))
    nodes = g.nodes + (
        Node(n, neg_margin, (g.output,), k),
        Node(n + 1, Exp(), (n,), k),
        Node(n + 2, SumReduce(), (n + 1,), 1),
    )
    return Graph(nodes, n + 2)


def _cross_entropy_from_neg_margins(neg_margins: np.ndarray) -> float:
    return float(np.log(np.sum(np.exp(neg_margins))))


def _margin_interval(
    g: Graph,
    specs: Mapping[int, PerturbationSpec],
    margin: MarginSpec,
    strategy: BoundStrategy,
    relu_mode: ReluLowerMode,
) -> IntervalBounds:
    """Both margin bounds via one backward pass with the margin transform."""
    coeff = margin_transform(margin.label, margin.num_classes)
    layout = InputLayout.from_specs(g, specs)
    intermediate = _intermediate_intervals(g, specs, strategy, g.output, relu_mode, layout)
    lb = _backward_linear(g, g.output, intermediate, specs, coeff, relu_mode, layout)
    return concretize_bounds(lb, layout, specs)


def bound_loss_unfused(
    g: Graph,
    specs: Mapping[int, PerturbationSpec],
    margin: MarginSpec,
    strategy: BoundStrategy = BoundStrategy.IBP_BACKWARD,
    relu_mode: ReluLowerMode = ReluLowerMode.ZERO,
) -> tuple[float, np.ndarray]:
    """Upper bound the worst-case loss through margin lower bounds.

    Returns (log sum_i exp(-margin_lower_i), margin lower bounds). The
    margins come from one backward pass with the margin transform as output
    coefficients, on intermediates from the chosen supplier.
    """
    if g.nodes[g.output].dim != margin.num_classes:
        raise GraphError("output dim does not match margin spec")
    margins = _margin_interval(g, specs, margin, strategy, relu_mode)
    return _cross_entropy_from_neg_margins(-margins.lower), margins.lower


def bound_loss_fused(
    g: Graph,
    specs: Mapping[int, PerturbationSpec],
    margin: MarginSpec,
    strategy: BoundStrategy = BoundStrategy.IBP_BACKWARD,
    relu_mode: ReluLowerMode = ReluLowerMode.ZERO,
    margin_bounds: IntervalBounds | None = None,
    exp_cap: float = DEFAULT_EXP_CAP,
) -> float:
    """Upper bound the worst-case loss by bounding the fused graph directly.

    One backward pass over the appended scalar loss output; the exp node is
    relaxed with the chord through its interval endpoints. When
    ``margin_bounds`` is given, the exp input interval is taken from it
    (negated) instead of from the supplier, which is how the paired
    comparison shares concrete margin bounds between both paths. If the exp
    input's upper bound exceeds ``exp_cap`` the bound is vacuous and +inf is
    returned instead of overflowing.
    """
    fused = build_fused_loss_graph(g, margin)
    margin_node = len(g.nodes)
    loss_node = fused.output
    layout = InputLayout.from_specs(fused, specs)
    intermediate = dict(
        _intermediate_intervals(fused, specs, strategy, loss_node, relu_mode, layout)
    )
    if margin_bounds is not None:
        intermediate[margin_node] = IntervalBounds(
            -margin_bounds.upper, -margin_bounds.lower
        )
    if margin_node not in intermediate:
        raise GraphError("supplier produced no interval for the exp input")
    if float(np.max(intermediate[margin_node].upper)) > exp_cap:
        return math.inf
    lb = _backward_linear(fused, loss_node, intermediate, specs, None, relu_mode, layout)
    upper_s = concretize_bounds(lb, layout, specs).upper[0]
    return float(np.log(upper_s))


def fused_loss_report(
    g: Graph,
    specs: Mapping[int, PerturbationSpec],
    margin: MarginSpec,
    strategy: BoundStrategy = BoundStrategy.IBP_BACKWARD,
    relu_mode: ReluLowerMode = ReluLowerMode.ZERO,
    exp_cap: float = DEFAULT_EXP_CAP,
) -> FusedLossReport:
    """Paired fused/unfused loss bounds sharing the same concrete bounds.

    Inner intermediates come from one supplier and the exp relaxation in
    the fused path is built on exactly the margin bounds the unfused path
    consumes; under that sharing the fused bound never exceeds the unfused
    one.
    """
    margins = _margin_interval(g, specs, margin, strategy, relu_mode)
    unfused = _cross_entropy_from_neg_margins(-margins.lower)
    fused = bound_loss_fused(
        g, specs, margin, strategy, relu_mode, margin_bounds=margins, exp_cap=exp_cap
    )
    return FusedLossReport(fused, unfused, margins.lower)


def _tile_matrix(out_dim: int, in_dim: int) -> np.ndarray:
    return np.tile(np.eye(in_dim), (out_dim, 1))


def _block_sum_matrix(out_dim: int, in_dim: int) -> np.ndarray:
    return np.kron(np.eye(out_dim), np.ones((1, in_dim)))


def weight_perturbed_graph(
    g: Graph, eps_bar: float
) -> tuple[Graph, dict[int, PerturbationSpec], dict[int, int]]:
    """Re-express every affine node's weights as a perturbed input.

    Each affine node W x + b becomes flat_w * tile(x) reduced blockwise,
    where flat_w is a new input node holding the flattened weight matrix
    under an l2 ball of radius ||W||_2 * eps_bar. Biases stay constant.
    Returns the new graph, the weight-node specs, and the map from original
    node ids to their counterparts.
    """
    if eps_bar < 0:
        raise GraphError("weight perturbation scale must be nonnegative")
    nodes: list[Node] = []
    specs: dict[int, PerturbationSpec] = {}
    mapping: dict[int, int] = {}

    def add(op, inputs, dim) -> int:
        nodes.append(Node(len(nodes), op, inputs, dim))
        return len(nodes) - 1

    # walk in topological order: document ids may contain forward references
    for i in topological_order(g):
        node = g.nodes[i]
        if isinstance(node.op, Affine):
            w = node.op.weight
            s, t = w.shape
            flat = w.reshape(-1)
            wid = add(Input(), (), s * t)
            specs[wid] = LpBall(flat, float(np.linalg.norm(flat)) * eps_bar, 2.0)
            tiled = add(Affine(_tile_matrix(s, t), np.zeros(s * t)), (mapping[node.inputs[0]],), s * t)
            prod = add(MulElementwise(), (wid, tiled), s * t)
            mapping[node.id] = add(Affine(_block_sum_matrix(s, t), node.op.bias), (prod,), s)
        else:
            mapping[node.id] = add(node.op, tuple(mapping[j] for j in node.inputs), node.dim)
    return Graph(tuple(nodes), mapping[g.output]), specs, mapping


def flatness_score(
    g: Graph,
    eps_bar: float,
    batch: Sequence[tuple[Mapping[int, np.ndarray], int]],
    strategy: BoundStrategy = BoundStrategy.IBP_BACKWARD,
    relu_mode: ReluLowerMode = ReluLowerMode.ZERO,
) -> float:
    """Certified loss gap under an l2 ball on every layer's weights.

    For each (assignment, label) example, the gap is the certified upper
    bound of the loss over all weight perturbations minus the loss at the
    nominal weights; the score is the batch mean. Zero radius gives a zero
    gap, and the gap dominates any sampled weight perturbation's loss
    increase.
    """
    if not batch:
        raise GraphError("flatness score requires a nonempty batch")
    num_classes = g.nodes[g.output].dim
    wg, weight_specs, mapping = weight_perturbed_graph(g, eps_bar)
    total = 0.0
    for values, label in batch:
        specs = dict(weight_specs)
        for i in g.input_ids:
            if i not in values:
                raise GraphError(f"batch entry missing value for input node {i}")
            specs[mapping[i]] = Constant(values[i])
        margin = MarginSpec(int(label), num_classes)
        certified, _ = bound_loss_unfused(wg, specs, margin, strategy, relu_mode)
        logits = evaluate(g, values)[g.output]
        nominal = _cross_entropy_from_neg_margins(logits - logits[margin.label])
        total += certified - nominal
    return total / len(batch)
