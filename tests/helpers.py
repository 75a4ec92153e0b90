"""Shared fixtures: the worked demo net, random graph generators, sampling."""
from __future__ import annotations

import json
import math

import numpy as np

from lirpa import (
    Add,
    Affine,
    Constant,
    Exp,
    Graph,
    Input,
    LinearBounds,
    Log,
    LpBall,
    MulElementwise,
    Neg,
    Node,
    ReLU,
    Sub,
    SumReduce,
    Synonym,
    evaluate,
    interval_oracle,
    input_interval,
    sample_spec,
)

W1 = [[2.0, 1.0], [-3.0, 4.0]]
W2 = [[4.0, -2.0], [2.0, 1.0]]
W3 = [[-2.0, 1.0]]


def demo_doc() -> str:
    """Document form of the 2-2-2-1 ReLU demo net (linf ball, eps 2)."""
    return json.dumps(
        {
            "nodes": [
                {"op": "input", "inputs": [], "dim": 2},
                {"op": "affine", "inputs": [0], "dim": 2, "weight": W1, "bias": [0.0, 0.0]},
                {"op": "relu", "inputs": [1], "dim": 2},
                {"op": "affine", "inputs": [2], "dim": 2, "weight": W2, "bias": [0.0, 0.0]},
                {"op": "relu", "inputs": [3], "dim": 2},
                {"op": "affine", "inputs": [4], "dim": 1, "weight": W3, "bias": [0.0]},
            ],
            "output": 5,
            "perturbations": [
                {"node": 0, "type": "lp", "center": [0.0, 1.0], "eps": 2.0, "p": "inf"}
            ],
        }
    )


def demo_net(eps: float = 2.0):
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, Affine(W1, [0.0, 0.0]), (0,), 2),
        Node(2, ReLU(), (1,), 2),
        Node(3, Affine(W2, [0.0, 0.0]), (2,), 2),
        Node(4, ReLU(), (3,), 2),
        Node(5, Affine(W3, [0.0]), (4,), 1),
    )
    g = Graph(nodes, 5)
    specs = {0: LpBall([0.0, 1.0], eps, math.inf)}
    return g, specs


def sample_points(g, specs, rng, n) -> dict[int, np.ndarray]:
    """One (dim, n) batch of in-region points per input node."""
    return {i: sample_spec(specs[i], rng, n) for i in g.input_ids}


def assert_sound(g, specs, bounds_by_node, rng, n=1000, slack=1e-7):
    """Evaluate n sampled points and check containment at every bounded node."""
    values = sample_points(g, specs, rng, n)
    out = evaluate(g, values)
    for i, box in bounds_by_node.items():
        lo = box.lower[:, None] - slack
        hi = box.upper[:, None] + slack
        assert np.all(out[i] >= lo), f"node {i}: lower bound violated"
        assert np.all(out[i] <= hi), f"node {i}: upper bound violated"


def stack_perturbed(layout, values, n) -> np.ndarray:
    """Concatenate sampled input columns into full X vectors (layout order)."""
    x = np.zeros((layout.dim, n))
    for i in layout.ids:
        x[layout.block(i)] = values[i]
    return x


def assert_linear_sound(g, specs, bounds_by_node, rng, n=1000, slack=1e-7):
    """Check the affine sandwich itself, pointwise over sampled X."""
    from lirpa import InputLayout

    layout = InputLayout.from_specs(g, specs)
    values = sample_points(g, specs, rng, n)
    x = stack_perturbed(layout, values, n)
    out = evaluate(g, values)
    for i, lb in bounds_by_node.items():
        lo = lb.lower_w @ x + lb.lower_b[:, None]
        hi = lb.upper_w @ x + lb.upper_b[:, None]
        assert np.all(lo <= out[i] + slack), f"node {i}: linear lower bound violated"
        assert np.all(out[i] <= hi + slack), f"node {i}: linear upper bound violated"


def _interval_magnitude(box) -> float:
    return float(max(np.max(np.abs(box.lower)), np.max(np.abs(box.upper))))


def random_graph(rng, max_nodes=12, max_dim=5, cap=1e4):
    """A random DAG over the full op set with bounded interval magnitudes.

    Ops whose tentative interval would exceed ``cap`` (or whose domain would
    be violated, e.g. log of a non-positive interval) are rejected, which
    keeps float64 soundness slack far below test tolerances.
    """
    nodes: list[Node] = []
    specs = {}
    boxes = []
    depends = []  # whether the node depends on a perturbed input

    def add(op, inputs, dim, box, dep):
        nodes.append(Node(len(nodes), op, tuple(inputs), dim))
        boxes.append(box)
        depends.append(dep)
        return len(nodes) - 1

    n_inputs = int(rng.integers(1, 3))
    for k in range(n_inputs):
        dim = int(rng.integers(1, max_dim + 1))
        center = rng.uniform(-1, 1, dim)
        if k == n_inputs - 1 or rng.random() < 0.7:
            p = float(rng.choice([1.0, 2.0, math.inf]))
            spec = LpBall(center, float(rng.uniform(0.05, 0.4)), p)
            dep = True
        else:
            spec = Constant(center)
            dep = False
        i = add(Input(), (), dim, input_interval(spec), dep)
        specs[i] = spec

    n_target = int(rng.integers(n_inputs + 2, max_nodes + 1))
    attempts = 0
    while len(nodes) < n_target and attempts < 200:
        attempts += 1
        kind = rng.choice(
            ["affine", "relu", "add", "sub", "mul", "neg", "exp", "log", "sum_reduce"],
            p=[0.3, 0.2, 0.1, 0.08, 0.1, 0.07, 0.06, 0.04, 0.05],
        )
        j = int(rng.integers(0, len(nodes)))
        dim_j = nodes[j].dim
        if kind == "affine":
            out_dim = int(rng.integers(1, max_dim + 1))
            w = rng.uniform(-1, 1, (out_dim, dim_j)) / math.sqrt(dim_j)
            op, inputs, dim = Affine(w, rng.uniform(-1, 1, out_dim)), (j,), out_dim
        elif kind == "relu":
            op, inputs, dim = ReLU(), (j,), dim_j
        elif kind == "neg":
            op, inputs, dim = Neg(), (j,), dim_j
        elif kind == "exp":
            if boxes[j].upper.max() > 3.0:
                continue
            op, inputs, dim = Exp(), (j,), dim_j
        elif kind == "log":
            if boxes[j].lower.min() < 0.05:
                continue
            op, inputs, dim = Log(), (j,), dim_j
        elif kind == "sum_reduce":
            op, inputs, dim = SumReduce(), (j,), 1
        else:
            peers = [kk for kk in range(len(nodes)) if nodes[kk].dim == dim_j]
            k2 = j if (len(peers) == 1 or rng.random() < 0.1) else int(rng.choice(peers))
            op_cls = {"add": Add, "sub": Sub, "mul": MulElementwise}[kind]
            op, inputs, dim = op_cls(), (j, k2), dim_j
        box = interval_oracle(op, [boxes[jj] for jj in inputs])
        if not np.all(np.isfinite(box.lower)) or _interval_magnitude(box) > cap:
            continue
        add(op, inputs, dim, box, any(depends[jj] for jj in inputs))

    output = max(
        (i for i in range(len(nodes)) if depends[i] and nodes[i].op.arity > 0),
        default=len(nodes) - 1,
    )
    return Graph(tuple(nodes), output), specs


def random_classifier(rng, num_classes, eps=None):
    """A small ReLU MLP with ``num_classes`` logits and one linf-ball input."""
    in_dim = int(rng.integers(2, 4))
    center = rng.uniform(-1, 1, in_dim)
    spec = LpBall(center, float(eps if eps is not None else rng.uniform(0.05, 0.3)), math.inf)
    nodes = [Node(0, Input(), (), in_dim)]
    prev, prev_dim = 0, in_dim
    for _ in range(int(rng.integers(1, 3))):
        width = int(rng.integers(2, 5))
        w = rng.uniform(-1, 1, (width, prev_dim))
        nodes.append(Node(len(nodes), Affine(w, rng.uniform(-0.5, 0.5, width)), (prev,), width))
        nodes.append(Node(len(nodes), ReLU(), (len(nodes) - 1,), width))
        prev, prev_dim = len(nodes) - 1, width
    w = rng.uniform(-1, 1, (num_classes, prev_dim))
    nodes.append(
        Node(len(nodes), Affine(w, rng.uniform(-0.5, 0.5, num_classes)), (prev,), num_classes)
    )
    g = Graph(tuple(nodes), len(nodes) - 1)
    return g, {0: spec}


def random_synonym_instance(rng, max_words=6, max_subs=3, max_budget=3, max_emb=4, rows=None):
    """A random substitution spec plus random linear bounds over its block."""
    n = int(rng.integers(1, max_words + 1))
    emb = int(rng.integers(1, max_emb + 1))
    words = [f"w{t}" for t in range(n)]
    embeddings = {w: rng.uniform(-1, 1, emb) for w in words}
    subs = {}
    for t in range(n):
        count = int(rng.integers(0, max_subs + 1))
        if count:
            names = [f"w{t}s{k}" for k in range(count)]
            subs[t] = tuple(names)
            for name in names:
                embeddings[name] = rng.uniform(-1, 1, emb)
    spec = Synonym(tuple(words), subs, embeddings, int(rng.integers(0, max_budget + 1)))
    s = int(rows if rows is not None else rng.integers(1, 4))
    lb = LinearBounds(
        rng.uniform(-1, 1, (s, n * emb)),
        rng.uniform(-1, 1, s),
        rng.uniform(-1, 1, (s, n * emb)),
        rng.uniform(-1, 1, s),
    )
    return lb, spec


def ce_loss(logits: np.ndarray, label: int) -> float:
    return float(np.log(np.sum(np.exp(logits - logits[label]))))
