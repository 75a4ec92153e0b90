"""Computational-graph representation, parsing, evaluation and traversal.

A graph is an immutable DAG of typed nodes over flat float64 vectors.
Independent nodes (in-degree 0) are the only carriers of perturbation;
dependent nodes compute a vector from their predecessors, by the rules of
their op class (see ``ops``). The document format is JSON; parsing
validates structure, dimensions and acyclicity. A graph keeps its
topological order and each node's users, computed once as it is built.
"""
from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from .errors import GraphError
from .ops import (
    Add, Affine, Exp, Input, Log, MulElementwise, Neg, OpKind, ReLU, Sub, SumReduce,
)
from .perturb import PerturbationSpec, _is_int, parse_perturbation

__all__ = [
    "Node",
    "Graph",
    "parse_problem",
    "serialize_problem",
    "evaluate",
]


# the parse registry: document kind -> op class
_OP_TYPES = {
    cls.kind: cls
    for cls in (Input, Affine, ReLU, Exp, Log, Neg, Add, Sub, MulElementwise, SumReduce)
}


@dataclass(frozen=True)
class Node:
    id: int
    op: OpKind
    inputs: tuple[int, ...]
    dim: int

    def __post_init__(self):
        if not (_is_int(self.id) and _is_int(self.dim) and all(map(_is_int, self.inputs))):
            raise GraphError(f"node {self.id!r}: id, dim {self.dim!r} and inputs {self.inputs!r} must be integers")
        object.__setattr__(self, "inputs", tuple(map(int, self.inputs)))
        object.__setattr__(self, "dim", int(self.dim))


def _check_node(node: Node, nodes: tuple[Node, ...]) -> None:
    op = node.op
    if node.dim <= 0:
        raise GraphError(f"node {node.id}: dimension must be positive, got {node.dim}")
    if len(node.inputs) != op.arity:
        raise GraphError(
            f"node {node.id}: op {op.kind!r} takes {op.arity} input(s), got {len(node.inputs)}"
        )
    for j in node.inputs:
        if not 0 <= j < len(nodes):
            raise GraphError(f"node {node.id}: input id {j} out of range")
    problem = op.check(node.dim, [nodes[j].dim for j in node.inputs])
    if problem:
        raise GraphError(f"node {node.id}: {problem}")


@dataclass(frozen=True)
class Graph:
    """Immutable DAG with a single designated output node.

    ``order`` lists the node ids with each after its inputs: independent
    nodes in id order, then always the smallest ready id. ``users[j]`` lists
    j's readers in id order, once per edge. Both are computed as the graph
    is built, which raises GraphError on a cycle.

    Safe to share across concurrent queries; all analyses treat it as
    read-only and build fresh result maps. Its pop orders are pure, so
    concurrent queries write only equal values; ``flatness_score`` reads its
    one weight-graph slot once and replaces it whole, so a caller at another
    ``eps_bar`` can only miss, never read another's weight graph.
    """

    nodes: tuple[Node, ...]
    output: int

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        for idx, node in enumerate(self.nodes):
            if node.id != idx:
                raise GraphError(f"node ids must be dense: position {idx} holds id {node.id}")
            _check_node(node, self.nodes)
        if not (_is_int(self.output) and 0 <= self.output < len(self.nodes)):
            raise GraphError(f"output id {self.output!r} is not an integer in [0, {len(self.nodes)})")
        object.__setattr__(self, "output", int(self.output))
        users: list[list[int]] = [[] for _ in self.nodes]
        for node in self.nodes:
            for j in node.inputs:
                users[j].append(node.id)
        # Kahn's walk: once the order's last node is stepped, the smallest ready id joins it
        indeg, heap = [len(node.inputs) for node in self.nodes], []
        order = [node.id for node in self.nodes if isinstance(node.op, Input)]
        for i in order:  # order grows as it is walked
            for j in users[i]:
                indeg[j] -= 1
                if not indeg[j]:
                    heapq.heappush(heap, j)
            if i == order[-1] and heap:
                order.append(heapq.heappop(heap))
        if len(order) != len(self.nodes):
            raise GraphError("cycle detected in graph")
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "users", tuple(map(tuple, users)))
        object.__setattr__(self, "_pop_orders", {})
        object.__setattr__(self, "_weight_graph", (None, None))  # (key, weight graph) of the last eps_bar

    @property
    def input_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes if isinstance(n.op, Input))

    def pop_order(self, o: int) -> tuple[int, ...]:
        """The order a backward pass from o steps through the nodes, computed once per target.

        ``order`` reversed, kept to o and the dependent nodes o reads: each
        comes after all of its consumers on paths to o, so it is stepped
        through once, with its full coefficient. No input but o is in it.
        """
        o = int(_node_id(self, o))
        if o not in self._pop_orders:
            reached, pops = {o}, []
            for i in reversed(self.order):
                if i in reached and (i == o or self.nodes[i].op.arity):
                    pops.append(i)
                    reached.update(self.nodes[i].inputs)
            self._pop_orders[o] = tuple(pops)
        return self._pop_orders[o]


def evaluate(g: Graph, values: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Concretely evaluate every node given values for all input nodes.

    Values may be single vectors of shape (dim,) or batches of shape
    (dim, m); batches propagate columnwise, which makes this the sampling
    oracle for the soundness tests.
    """
    out: dict[int, np.ndarray] = {}
    for i in g.order:
        node = g.nodes[i]
        if isinstance(node.op, Input):
            if i not in values:
                raise GraphError(f"no value assigned to input node {i}")
            v = np.asarray(values[i], dtype=np.float64)
            if v.shape[0] != node.dim:
                raise GraphError(
                    f"input node {i} expects dim {node.dim}, got shape {v.shape}"
                )
            out[i] = v
        else:
            out[i] = node.op.eval([out[j] for j in node.inputs])
    return out


def _node_id(g: Graph, i) -> int:
    """i if it is a node id of g (an int or numpy integer in range, not a bool); else GraphError."""
    if not (_is_int(i) and 0 <= i < len(g.nodes)):
        raise GraphError(f"node id {i!r} is not an integer in [0, {len(g.nodes)})")
    return i


def _reject_constant(name: str):
    raise GraphError(f"non-finite number {name} in document")


def _load_json(text: str):
    """``json.loads`` that reports bad JSON and NaN/Infinity tokens as GraphError."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON: {exc}") from exc


def _parse_node(idx: int, obj: dict) -> Node:
    if not isinstance(obj, dict):
        raise GraphError(f"node {idx}: expected an object")
    try:
        name = obj["op"]
        dim = obj["dim"]
    except KeyError as exc:
        raise GraphError(f"node {idx}: missing 'op'/'dim': {exc}") from exc
    if not _is_int(dim):
        raise GraphError(f"node {idx}: 'dim' must be an integer, got {dim!r}")
    if not isinstance(name, str) or name not in _OP_TYPES:
        raise GraphError(f"node {idx}: unknown op name {name!r}")
    cls = _OP_TYPES[name]
    # an op's dataclass fields (affine: weight, bias) are its document fields
    field_names = [f.name for f in fields(cls)]
    try:
        op = cls(**{f: obj.get(f) for f in field_names})
    except (GraphError, TypeError, ValueError) as exc:
        raise GraphError(f"node {idx}: {exc}") from exc
    if not all(np.all(np.isfinite(getattr(op, f))) for f in field_names):
        raise GraphError(f"node {idx}: {name} {' and '.join(field_names)} must be finite")
    inputs = obj.get("inputs", [])
    if not isinstance(inputs, list) or not all(_is_int(j) for j in inputs):
        raise GraphError(f"node {idx}: 'inputs' must be a list of node ids")
    return Node(idx, op, tuple(inputs), dim)


def parse_problem(text: str) -> tuple[Graph, dict[int, PerturbationSpec]]:
    """Parse a graph document into a validated Graph plus per-node specs."""
    doc = _load_json(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise GraphError("document must be an object with a 'nodes' array")
    if not isinstance(doc.get("perturbations", []), list):
        raise GraphError("'perturbations' must be an array")
    if "output" not in doc:
        raise GraphError("missing output node")
    if not _is_int(doc["output"]):
        raise GraphError("output must be a single node id")
    nodes = tuple(_parse_node(i, obj) for i, obj in enumerate(doc["nodes"]))

    specs: dict[int, PerturbationSpec] = {}
    for entry in doc.get("perturbations", []):
        if not isinstance(entry, dict) or not _is_int(entry.get("node")):
            raise GraphError("perturbation entry must carry a 'node' id")
        i = entry["node"]
        if not 0 <= i < len(nodes) or not isinstance(nodes[i].op, Input):
            raise GraphError(f"perturbation attached to non-input node {i}")
        if i in specs:
            raise GraphError(f"duplicate perturbation for node {i}")
        try:
            spec = parse_perturbation(entry)
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"node {i}: malformed perturbation: {exc}") from exc
        if spec.dim != nodes[i].dim:
            raise GraphError(
                f"perturbation dim {spec.dim} does not match node {i} dim {nodes[i].dim}"
            )
        specs[i] = spec

    return Graph(nodes, doc["output"]), specs


def serialize_problem(g: Graph, specs: Mapping[int, PerturbationSpec] | None = None) -> str:
    """Render a graph (and specs) back to its document form.

    Round-trips bit-exactly: parse(serialize(parse(text))) equals
    parse(text), and serializing again yields the identical string.
    """
    nodes_json = []
    for node in g.nodes:
        obj: dict = {"op": node.op.kind, "inputs": list(node.inputs), "dim": node.dim}
        obj.update((f.name, getattr(node.op, f.name).tolist()) for f in fields(node.op))
        nodes_json.append(obj)
    doc = {"nodes": nodes_json, "output": g.output}
    if specs:
        doc["perturbations"] = [
            {"node": i, **specs[i].to_json()} for i in sorted(specs)
        ]
    return json.dumps(doc, indent=2)
