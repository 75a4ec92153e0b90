"""Interval bound propagation over the graph.

The cheapest bound strategy: constant elementwise intervals swept through
the graph in topological order, each node's from its op's ``interval``
rule. Also supplies the pre-activation intervals consumed by the hybrid
backward strategy.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .errors import GraphError
from .graph import Graph, Input, Node, OpKind, topological_order
from .linear import IntervalBounds
from .perturb import Constant, LpBall, PerturbationSpec, Synonym

__all__ = ["IntervalBounds", "input_interval", "interval_oracle", "ibp_propagate"]


def input_interval(spec: PerturbationSpec, node: Node | None = None) -> IntervalBounds:
    """Coordinate-wise box enclosing the spec region.

    For lp balls with p < inf this is the box relaxation [c - eps, c + eps];
    for synonym specs it is the per-position min/max over the clean word and
    all of its substitutes (the budget is ignored here, so the box assumes
    every word replaceable at once).
    """
    if isinstance(spec, Constant):
        box = IntervalBounds(spec.value, spec.value)
    elif isinstance(spec, LpBall):
        box = IntervalBounds(spec.center - spec.eps, spec.center + spec.eps)
    elif isinstance(spec, Synonym):
        lows, highs = [], []
        for t, word in enumerate(spec.words):
            stack = np.stack([spec.embedding(word)] + [spec.embedding(w) for w in spec.candidates(t)])
            lows.append(stack.min(axis=0))
            highs.append(stack.max(axis=0))
        box = IntervalBounds(np.concatenate(lows), np.concatenate(highs))
    else:
        raise GraphError(f"unknown perturbation spec {type(spec).__name__}")
    if node is not None and box.lower.shape[0] != node.dim:
        raise GraphError(
            f"spec dim {box.lower.shape[0]} does not match node {node.id} dim {node.dim}"
        )
    return box


def interval_oracle(op: OpKind, inputs: Sequence[IntervalBounds]) -> IntervalBounds:
    """Propagate interval bounds through a single dependent op."""
    return op.interval(inputs)


def ibp_propagate(
    g: Graph, specs: Mapping[int, PerturbationSpec]
) -> dict[int, IntervalBounds]:
    """Interval bounds for every node, swept in topological order."""
    bounds: dict[int, IntervalBounds] = {}
    for i in topological_order(g):
        node = g.nodes[i]
        if isinstance(node.op, Input):
            if i not in specs:
                raise GraphError(f"no perturbation spec for input node {i}")
            bounds[i] = input_interval(specs[i], node)
        else:
            bounds[i] = interval_oracle(node.op, [bounds[j] for j in node.inputs])
    return bounds
