"""Interval bound propagation over the graph.

The cheapest bound strategy: constant elementwise intervals swept through
the graph in topological order, each input's from its spec's ``box`` rule
and every other node's from its op's ``interval`` rule. Also supplies the
pre-activation intervals consumed by the hybrid backward strategy.
"""
from __future__ import annotations

from typing import Mapping, Sequence

from .graph import Graph, OpKind, topological_order
from .linear import IntervalBounds
from .perturb import PerturbationSpec

__all__ = ["IntervalBounds", "interval_oracle", "ibp_propagate"]


def interval_oracle(op: OpKind, inputs: Sequence[IntervalBounds]) -> IntervalBounds:
    """Propagate interval bounds through a single dependent op."""
    return op.interval(inputs)


def ibp_propagate(
    g: Graph, specs: Mapping[int, PerturbationSpec]
) -> dict[int, IntervalBounds]:
    """Interval bounds for every node, swept in topological order."""
    from .backward import BoundQuery, BoundStrategy  # a cycle: the query module imports this one
    query = BoundQuery(g, specs, BoundStrategy.IBP)
    return {i: query.interval(i) for i in topological_order(g)}
