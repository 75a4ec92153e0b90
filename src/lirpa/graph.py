"""Computational-graph representation, parsing, evaluation and traversal.

A graph is an immutable DAG of typed nodes over flat float64 vectors.
Independent nodes (in-degree 0) are the only carriers of perturbation;
dependent nodes compute a vector from their predecessors, by the rules of
their op class (see ``ops``, re-exported here). The document format is
JSON; parsing validates structure, dimensions and acyclicity.
"""
from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from .errors import GraphError
from .ops import (
    Add, Affine, Exp, Input, Log, MulElementwise, Neg, OpKind, ReLU, Sub, SumReduce,
)
from .perturb import PerturbationSpec, parse_perturbation, perturbation_to_json, spec_dim

__all__ = [
    "Input",
    "Affine",
    "ReLU",
    "Exp",
    "Log",
    "Neg",
    "Add",
    "Sub",
    "MulElementwise",
    "SumReduce",
    "OpKind",
    "Node",
    "Graph",
    "parse_graph",
    "parse_problem",
    "serialize_problem",
    "topological_order",
    "evaluate",
    "get_out_degree",
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
        object.__setattr__(self, "inputs", tuple(int(j) for j in self.inputs))
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

    Safe to share across concurrent queries; all analyses treat it as
    read-only and build fresh result maps.
    """

    nodes: tuple[Node, ...]
    output: int

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "output", int(self.output))
        for idx, node in enumerate(self.nodes):
            if node.id != idx:
                raise GraphError(f"node ids must be dense: position {idx} holds id {node.id}")
            _check_node(node, self.nodes)
        if not 0 <= self.output < len(self.nodes):
            raise GraphError(f"output id {self.output} out of range")
        topological_order(self)  # raises on cycles

    @property
    def input_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes if isinstance(n.op, Input))

    def __len__(self) -> int:
        return len(self.nodes)


def topological_order(g: Graph) -> list[int]:
    """Node ids with every node after all of its inputs.

    Independent nodes come first (in id order); among dependent nodes that
    become ready together, smaller ids lead. Deterministic for fixed input.
    """
    n = len(g.nodes)
    indeg = [0] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    for node in g.nodes:
        for j in node.inputs:
            indeg[node.id] += 1
            succ[j].append(node.id)
    order = [i for i in range(n) if isinstance(g.nodes[i].op, Input)]
    heap: list[int] = []
    for i in order:
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, j)
    while heap:
        i = heapq.heappop(heap)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, j)
    if len(order) != n:
        raise GraphError("cycle detected in graph")
    return order


def evaluate(g: Graph, values: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Concretely evaluate every node given values for all input nodes.

    Values may be single vectors of shape (dim,) or batches of shape
    (dim, m); batches propagate columnwise, which makes this the sampling
    oracle for the soundness tests.
    """
    out: dict[int, np.ndarray] = {}
    for i in topological_order(g):
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


def get_out_degree(g: Graph, o: int) -> dict[int, int]:
    """For each node i, the number of successor edges of i on paths to o.

    Nodes that o does not depend on get degree 0. Computed by a BFS from o
    that counts each (input, consumer) edge once per occurrence.
    """
    if not 0 <= o < len(g.nodes):
        raise GraphError(f"node id {o} out of range")
    degree = {i: 0 for i in range(len(g.nodes))}
    seen = {o}
    queue: deque[int] = deque([o])
    while queue:
        i = queue.popleft()
        for j in g.nodes[i].inputs:
            degree[j] += 1
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return degree


def _is_int(x) -> bool:
    # bool is a subclass of int, but true is no node id or dim
    return isinstance(x, int) and not isinstance(x, bool)


def _reject_constant(name: str):
    raise GraphError(f"non-finite number {name} in document")


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
    if name not in _OP_TYPES:
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
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise GraphError("document must be an object with a 'nodes' array")
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
        if spec_dim(spec) != nodes[i].dim:
            raise GraphError(
                f"perturbation dim {spec_dim(spec)} does not match node {i} dim {nodes[i].dim}"
            )
        specs[i] = spec

    return Graph(nodes, doc["output"]), specs


def parse_graph(text: str) -> Graph:
    """Parse a graph document, discarding the perturbation specs."""
    return parse_problem(text)[0]


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
            {"node": i, **perturbation_to_json(specs[i])} for i in sorted(specs)
        ]
    return json.dumps(doc, indent=2)
