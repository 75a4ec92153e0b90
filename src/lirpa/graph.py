"""Computational-graph representation, parsing, evaluation and traversal.

A graph is an immutable DAG of typed nodes over flat float64 vectors.
Independent nodes (in-degree 0) are the only carriers of perturbation;
dependent nodes compute a vector from their predecessors. The document
format is JSON; parsing validates structure, dimensions and acyclicity.
"""
from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Mapping

import numpy as np

from .errors import DomainError, GraphError
from .perturb import (
    PerturbationSpec,
    is_perturbed,
    parse_perturbation,
    perturbation_to_json,
    spec_dim,
)

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
    "is_nonlinear",
]


@dataclass(frozen=True)
class Input:
    kind: ClassVar[str] = "input"
    arity: ClassVar[int] = 0


@dataclass(frozen=True, eq=False)
class Affine:
    """h = weight @ x + bias with a constant weight matrix."""

    weight: np.ndarray
    bias: np.ndarray

    kind: ClassVar[str] = "affine"
    arity: ClassVar[int] = 1

    def __post_init__(self):
        w = np.array(self.weight, dtype=np.float64)
        if w.ndim != 2:
            raise GraphError(f"affine weight must be a matrix, got shape {w.shape}")
        b = np.array(self.bias, dtype=np.float64) if self.bias is not None else np.zeros(w.shape[0])
        if b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise GraphError(
                f"affine bias length {b.shape} does not match weight rows {w.shape[0]}"
            )
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @cached_property
    def w_pos(self) -> np.ndarray:
        return np.maximum(self.weight, 0.0)

    @cached_property
    def w_neg(self) -> np.ndarray:
        return np.minimum(self.weight, 0.0)

    def __eq__(self, other):
        return (
            isinstance(other, Affine)
            and np.array_equal(self.weight, other.weight)
            and np.array_equal(self.bias, other.bias)
        )


@dataclass(frozen=True)
class ReLU:
    kind: ClassVar[str] = "relu"
    arity: ClassVar[int] = 1


@dataclass(frozen=True)
class Exp:
    kind: ClassVar[str] = "exp"
    arity: ClassVar[int] = 1


@dataclass(frozen=True)
class Log:
    kind: ClassVar[str] = "log"
    arity: ClassVar[int] = 1


@dataclass(frozen=True)
class Neg:
    kind: ClassVar[str] = "neg"
    arity: ClassVar[int] = 1


@dataclass(frozen=True)
class Add:
    kind: ClassVar[str] = "add"
    arity: ClassVar[int] = 2


@dataclass(frozen=True)
class Sub:
    kind: ClassVar[str] = "sub"
    arity: ClassVar[int] = 2


@dataclass(frozen=True)
class MulElementwise:
    kind: ClassVar[str] = "mul"
    arity: ClassVar[int] = 2


@dataclass(frozen=True)
class SumReduce:
    kind: ClassVar[str] = "sum_reduce"
    arity: ClassVar[int] = 1


OpKind = (
    Input | Affine | ReLU | Exp | Log | Neg | Add | Sub | MulElementwise | SumReduce
)

_OP_TYPES = {
    cls.kind: cls
    for cls in (Input, Affine, ReLU, Exp, Log, Neg, Add, Sub, MulElementwise, SumReduce)
}

_UNARY_NONLINEAR = (ReLU, Exp, Log)


def is_nonlinear(op: OpKind) -> bool:
    """Ops whose bound oracles need pre-activation intervals of their inputs."""
    return isinstance(op, _UNARY_NONLINEAR + (MulElementwise,))


@dataclass(frozen=True, eq=False)
class Node:
    id: int
    op: OpKind
    inputs: tuple[int, ...]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(int(j) for j in self.inputs))
        object.__setattr__(self, "dim", int(self.dim))

    def __eq__(self, other):
        return (
            isinstance(other, Node)
            and self.id == other.id
            and self.op == other.op
            and self.inputs == other.inputs
            and self.dim == other.dim
        )


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
    in_dims = [nodes[j].dim for j in node.inputs]
    if isinstance(op, Affine):
        rows, cols = op.weight.shape
        if rows != node.dim:
            raise GraphError(
                f"node {node.id}: affine weight has {rows} rows but node dim is {node.dim}"
            )
        if cols != in_dims[0]:
            raise GraphError(
                f"node {node.id}: affine weight has {cols} columns but input dim is {in_dims[0]}"
            )
    elif isinstance(op, (ReLU, Exp, Log, Neg)):
        if node.dim != in_dims[0]:
            raise GraphError(
                f"node {node.id}: {op.kind} output dim {node.dim} != input dim {in_dims[0]}"
            )
    elif isinstance(op, (Add, Sub, MulElementwise)):
        if in_dims[0] != in_dims[1] or node.dim != in_dims[0]:
            raise GraphError(
                f"node {node.id}: {op.kind} requires equal dims, got {in_dims} -> {node.dim}"
            )
    elif isinstance(op, SumReduce):
        if node.dim != 1:
            raise GraphError(f"node {node.id}: sum_reduce output dim must be 1")


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable DAG with a single designated output node.

    Safe to share across concurrent queries; all analyses treat it as
    read-only and build fresh result maps.
    """

    nodes: tuple[Node, ...]
    output: int
    perturbed_inputs: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "output", int(self.output))
        object.__setattr__(self, "perturbed_inputs", frozenset(self.perturbed_inputs))
        for idx, node in enumerate(self.nodes):
            if node.id != idx:
                raise GraphError(f"node ids must be dense: position {idx} holds id {node.id}")
            _check_node(node, self.nodes)
        if not 0 <= self.output < len(self.nodes):
            raise GraphError(f"output id {self.output} out of range")
        for i in self.perturbed_inputs:
            if not (0 <= i < len(self.nodes) and isinstance(self.nodes[i].op, Input)):
                raise GraphError(f"perturbed node {i} is not an input node")
        topological_order(self)  # raises on cycles

    @property
    def input_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes if isinstance(n.op, Input))

    def __len__(self) -> int:
        return len(self.nodes)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.nodes == other.nodes
            and self.output == other.output
            and self.perturbed_inputs == other.perturbed_inputs
        )


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


def _align_batch(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # a single vector meets a (dim, m) batch: broadcast it columnwise
    if a.ndim != b.ndim:
        if a.ndim == 1:
            a = a[:, None]
        else:
            b = b[:, None]
    return a, b


def _eval_op(op: OpKind, xs: list[np.ndarray]) -> np.ndarray:
    if isinstance(op, Affine):
        y = op.weight @ xs[0]
        return y + (op.bias if y.ndim == 1 else op.bias[:, None])
    if isinstance(op, ReLU):
        return np.maximum(xs[0], 0.0)
    if isinstance(op, Exp):
        return np.exp(xs[0])
    if isinstance(op, Log):
        if np.any(xs[0] <= 0.0):
            raise DomainError("log of a non-positive value")
        return np.log(xs[0])
    if isinstance(op, Neg):
        return -xs[0]
    if isinstance(op, Add):
        a, b = _align_batch(xs[0], xs[1])
        return a + b
    if isinstance(op, Sub):
        a, b = _align_batch(xs[0], xs[1])
        return a - b
    if isinstance(op, MulElementwise):
        a, b = _align_batch(xs[0], xs[1])
        return a * b
    if isinstance(op, SumReduce):
        return np.sum(xs[0], axis=0, keepdims=True)
    raise GraphError(f"cannot evaluate op {op!r}")


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
            out[i] = _eval_op(node.op, [out[j] for j in node.inputs])
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


def _is_node_id(x) -> bool:
    # bool is a subclass of int, but true is no node id
    return isinstance(x, int) and not isinstance(x, bool)


def _reject_constant(name: str):
    raise GraphError(f"non-finite number {name} in document")


def _parse_node(idx: int, obj: dict) -> Node:
    if not isinstance(obj, dict):
        raise GraphError(f"node {idx}: expected an object")
    try:
        name = obj["op"]
        dim = int(obj["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"node {idx}: missing or malformed 'op'/'dim': {exc}") from exc
    if name not in _OP_TYPES:
        raise GraphError(f"node {idx}: unknown op name {name!r}")
    cls = _OP_TYPES[name]
    if cls is Affine:
        if "weight" not in obj:
            raise GraphError(f"node {idx}: affine node requires a 'weight' matrix")
        try:
            op: OpKind = Affine(obj["weight"], obj.get("bias"))
        except (TypeError, ValueError) as exc:
            raise GraphError(f"node {idx}: {exc}") from exc
        if not (np.all(np.isfinite(op.weight)) and np.all(np.isfinite(op.bias))):
            raise GraphError(f"node {idx}: affine weight and bias must be finite")
    else:
        op = cls()
    inputs = obj.get("inputs", [])
    if not isinstance(inputs, list) or not all(_is_node_id(j) for j in inputs):
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
    if not _is_node_id(doc["output"]):
        raise GraphError("output must be a single node id")
    nodes = tuple(_parse_node(i, obj) for i, obj in enumerate(doc["nodes"]))

    specs: dict[int, PerturbationSpec] = {}
    for entry in doc.get("perturbations", []):
        if not isinstance(entry, dict) or not _is_node_id(entry.get("node")):
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

    perturbed = frozenset(i for i, s in specs.items() if is_perturbed(s))
    graph = Graph(nodes, doc["output"], perturbed)
    return graph, specs


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
        if isinstance(node.op, Affine):
            obj["weight"] = node.op.weight.tolist()
            obj["bias"] = node.op.bias.tolist()
        nodes_json.append(obj)
    doc = {"nodes": nodes_json, "output": g.output}
    if specs:
        doc["perturbations"] = [
            {"node": i, **perturbation_to_json(specs[i])} for i in sorted(specs)
        ]
    return json.dumps(doc, indent=2)
