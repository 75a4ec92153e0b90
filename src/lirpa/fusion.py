"""Loss fusion and flatness analyses.

Fusing the cross-entropy loss into the graph collapses the bounded output
from K classes to a single scalar: the graph gains a margin affine layer,
an exp, and a sum, and one backward pass bounds the loss directly. The
unfused surrogate instead plugs backward margin lower bounds into the loss.
Each analysis runs one ``BoundQuery``: a paired report's margin and fused
passes read the same supplier intervals, and the supplier bounds the
margin node from its ancestors alone, so it never evaluates exp. The
flatness score applies the same machinery to networks whose weights are
re-expressed as perturbed inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .backward import BoundQuery, BoundStrategy
from .errors import DomainError, GraphError
from .graph import (
    Affine,
    Exp,
    Graph,
    Input,
    Node,
    SumReduce,
    evaluate,
    topological_order,
)
from .interval import IntervalBounds
from .ops import MatVec
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

EXP_CAP = 700.0  # exp() overflows float64 just above this


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


def _loss_upper(neg_margins: np.ndarray) -> float:
    """log sum_i exp(neg_margins_i), or +inf once a term exceeds ``EXP_CAP``."""
    if float(np.max(neg_margins)) > EXP_CAP:
        return math.inf
    return float(np.log(np.sum(np.exp(neg_margins))))


def _margin_interval(
    g: Graph,
    specs: Mapping[int, PerturbationSpec],
    margin: MarginSpec,
    strategy: BoundStrategy,
    relu_mode: ReluLowerMode,
) -> tuple[IntervalBounds, BoundQuery]:
    """Margin bounds from one backward pass, and the query that ran it.

    An affine logit layer W x + b is folded with the margin rows into a node
    (W[y] - W) x + (b[y] - b) on its input: each entry is the one difference
    the margin transform's product would round, at O(K n), not O(K^2 n).
    """
    out = g.nodes[g.output]
    if out.dim != margin.num_classes:
        raise GraphError("output dim does not match margin spec")
    if isinstance(out.op, Affine):
        w, b, y = out.op.weight, out.op.bias, margin.label
        target, coeff = len(g.nodes), None
        g = Graph(g.nodes + (Node(target, Affine(w[y] - w, b[y] - b), out.inputs, out.dim),), g.output)
    else:
        target, coeff = out.id, margin_transform(margin.label, margin.num_classes)
    query = BoundQuery(g, specs, strategy, relu_mode)
    return query.box(target, coeff, f"margin {strategy.value}"), query


def _fused_pass(query: BoundQuery, o: int) -> float:
    """log of the fused output o's upper bound, or +inf once the exp input can pass ``EXP_CAP``."""
    cap = float(np.max(query.interval(o - 2).upper))  # the margin node's
    if cap > EXP_CAP:
        return math.inf
    return float(np.log(query.box(o, None, "fused loss").upper[0]))


def bound_loss_unfused(
    g: Graph,
    specs: Mapping[int, PerturbationSpec],
    margin: MarginSpec,
    strategy: BoundStrategy = BoundStrategy.IBP_BACKWARD,
    relu_mode: ReluLowerMode = ReluLowerMode.ZERO,
) -> tuple[float, np.ndarray]:
    """Upper bound the worst-case loss through margin lower bounds.

    Returns (log sum_i exp(-margin_lower_i), margin lower bounds); the bound
    is +inf once some -margin_lower_i exceeds ``EXP_CAP``. The margins come
    from one backward pass with the margin transform as output coefficients,
    on intermediates from the chosen supplier.
    """
    margins = _margin_interval(g, specs, margin, strategy, relu_mode)[0]
    return _loss_upper(-margins.lower), margins.lower


def bound_loss_fused(
    g: Graph,
    specs: Mapping[int, PerturbationSpec],
    margin: MarginSpec,
    strategy: BoundStrategy = BoundStrategy.IBP_BACKWARD,
    relu_mode: ReluLowerMode = ReluLowerMode.ZERO,
) -> float:
    """Upper bound the worst-case loss by bounding the fused graph directly.

    One backward pass over the appended scalar loss output relaxes exp with
    the chord through the margin node's supplier interval; if its upper end
    exceeds ``EXP_CAP`` the bound is vacuous and +inf is returned instead.
    """
    fused = build_fused_loss_graph(g, margin)
    return _fused_pass(BoundQuery(fused, specs, strategy, relu_mode), fused.output)


def fused_loss_report(
    g: Graph,
    specs: Mapping[int, PerturbationSpec],
    margin: MarginSpec,
    strategy: BoundStrategy = BoundStrategy.IBP_BACKWARD,
    relu_mode: ReluLowerMode = ReluLowerMode.ZERO,
) -> FusedLossReport:
    """Paired fused/unfused loss bounds sharing the same concrete bounds.

    One query runs the margin pass, then the fused pass on the same supplier
    intervals, relaxing exp on exactly the margin bounds the unfused path
    consumes. Under that sharing the fused bound never exceeds the unfused
    one; both are +inf once a -margin_lower_i exceeds ``EXP_CAP``.
    """
    margins, query = _margin_interval(g, specs, margin, strategy, relu_mode)
    fused = build_fused_loss_graph(query.g, margin)  # the K x K matrix made first slows the margin pass
    query.extend(fused)
    query.intervals[fused.output - 2] = IntervalBounds(-margins.upper, -margins.lower)
    return FusedLossReport(_fused_pass(query, fused.output), _loss_upper(-margins.lower), margins.lower)


def weight_perturbed_graph(
    g: Graph, eps_bar: float
) -> tuple[Graph, dict[int, PerturbationSpec], dict[int, int]]:
    """Re-express every affine node's weights as a perturbed input.

    Each affine node W x + b becomes one ``MatVec`` node over two inputs: a
    new input node holding W flattened row-major, under an l2 ball of radius
    ||W||_2 * eps_bar, and the node's original input x. Biases stay
    constant. Returns the new graph, the weight-node specs, and the map from
    original node ids to their counterparts.
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
        inputs = tuple(mapping[j] for j in node.inputs)
        if isinstance(node.op, Affine):
            flat = node.op.weight.reshape(-1)
            wid = add(Input(), (), flat.size)
            specs[wid] = LpBall(flat, float(np.linalg.norm(flat)) * eps_bar, 2.0)
            mapping[i] = add(MatVec(node.op.bias), (wid, *inputs), node.dim)
        else:
            mapping[i] = add(node.op, inputs, node.dim)
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
    increase. An example whose certified bound is +inf has an infinite gap;
    a NaN bound raises DomainError.
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
        nominal = _loss_upper(logits - logits[margin.label])
        # a vacuous certificate is an infinite gap, also where the nominal loss is +inf too
        total += math.inf if certified == math.inf else certified - nominal
    score = total / len(batch)
    if math.isnan(score):
        raise DomainError("flatness score bounds are NaN or inverted")
    return score
