"""Independent numpy interpreter of the graph JSON format.

Used by the benchmark's soundness checks and to pick labels at generation
time. It reads the document dict directly and shares no code with lirpa, so
a defect in the engines' own evaluator cannot hide a defect in their bounds.
"""
from __future__ import annotations

import itertools
import json

import numpy as np


def load(text: str) -> dict:
    """Read a graph document, with every weight and bias as a float64 array."""
    doc = json.loads(text)
    for node in doc["nodes"]:
        if node["op"] == "affine":
            node["weight"] = np.asarray(node["weight"], dtype=np.float64)
            node["bias"] = np.asarray(node.get("bias", np.zeros(node["dim"])), dtype=np.float64)
    return doc


def _unary(op: str, x: np.ndarray) -> np.ndarray:
    if op == "relu":
        return np.maximum(x, 0.0)
    if op == "exp":
        return np.exp(x)
    if op == "log":
        if np.any(x <= 0.0):
            raise ValueError("log of a non-positive value")
        return np.log(x)
    if op == "neg":
        return -x
    if op == "sum_reduce":
        return x.sum(axis=0, keepdims=True)
    raise ValueError(f"unknown unary op {op!r}")


def evaluate(doc: dict, inputs: dict[int, np.ndarray], weights: dict[int, np.ndarray] | None = None) -> dict[int, np.ndarray]:
    """Values of every node for a batch of input columns.

    ``inputs`` maps each input node id to a (dim, m) array; ``weights``
    optionally replaces an affine node's weight with a (m, rows, cols) stack,
    one matrix per column, which is how perturbed weights are checked.
    """
    nodes = doc["nodes"]
    weights = weights or {}
    values: dict[int, np.ndarray] = {}
    for i in _topological(nodes):
        node = nodes[i]
        op = node["op"]
        xs = [values[j] for j in node.get("inputs", [])]
        if op == "input":
            out = np.asarray(inputs[i], dtype=np.float64)
        elif op == "affine":
            bias = np.asarray(node.get("bias", np.zeros(node["dim"])), dtype=np.float64)[:, None]
            if i in weights:
                out = np.einsum("mrc,cm->rm", weights[i], xs[0]) + bias
            else:
                out = np.asarray(node["weight"], dtype=np.float64) @ xs[0] + bias
        elif op == "add":
            out = xs[0] + xs[1]
        elif op == "sub":
            out = xs[0] - xs[1]
        elif op == "mul":
            out = xs[0] * xs[1]
        else:
            out = _unary(op, xs[0])
        values[i] = out
    return values


def _topological(nodes: list[dict]) -> list[int]:
    """Node ids with every node after its inputs (documents may refer forward)."""
    order: list[int] = []
    done: set[int] = set()
    stack = [(i, False) for i in reversed(range(len(nodes)))]
    while stack:
        i, inputs_done = stack.pop()
        if i in done:
            continue
        if inputs_done:
            done.add(i)
            order.append(i)
            continue
        stack.append((i, True))
        stack.extend((j, False) for j in nodes[i].get("inputs", []) if j not in done)
    return order


def logits(doc: dict, x: np.ndarray, weights: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """Output-node values for a single-input graph, columns = samples."""
    return evaluate(doc, {input_id(doc): x}, weights)[doc["output"]]


def input_id(doc: dict) -> int:
    (i,) = [k for k, node in enumerate(doc["nodes"]) if node["op"] == "input"]
    return i


def cross_entropy(z: np.ndarray, labels) -> np.ndarray:
    """Per-column loss log sum_i exp(z_i - z_label), stable for large margins."""
    z = z - z[labels, np.arange(z.shape[1])]
    top = z.max(axis=0)
    return top + np.log(np.exp(z - top).sum(axis=0))


def linf_points(center: np.ndarray, eps: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """n points of the linf ball as columns: half corners, half uniform."""
    d = center.shape[0]
    u = rng.uniform(-1.0, 1.0, size=(d, n))
    corners = n // 2
    u[:, :corners] = np.where(u[:, :corners] >= 0.0, 1.0, -1.0)
    return center[:, None] + eps * u


def l2_weight_perturbations(doc: dict, eps_bar: float, rng: np.random.Generator, n: int) -> dict[int, np.ndarray]:
    """n perturbed copies of every affine weight, each on its l2 sphere.

    The radius of layer W is ||W||_2 (of the flattened matrix) times
    ``eps_bar``: the boundary of the region the flatness score certifies.
    """
    out = {}
    for i, node in enumerate(doc["nodes"]):
        if node["op"] != "affine":
            continue
        w = np.asarray(node["weight"], dtype=np.float64)
        d = rng.standard_normal((n,) + w.shape)
        d *= np.linalg.norm(w) * eps_bar / np.linalg.norm(d.reshape(n, -1), axis=1)[:, None, None]
        out[i] = w[None] + d
    return out


def _chain(doc: dict, x: np.ndarray) -> list[np.ndarray]:
    """Node values of an affine/relu chain (node k reads node k-1) at x."""
    values = [np.asarray(x, dtype=np.float64)]
    for k, node in enumerate(doc["nodes"][1:], start=1):
        if node["inputs"] != [k - 1] or node["op"] not in ("affine", "relu"):
            raise ValueError("gradients are defined for affine/relu chains only")
        v = values[-1]
        values.append(node["weight"] @ v + node["bias"] if node["op"] == "affine" else np.maximum(v, 0.0))
    return values


def input_gradients(doc: dict, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Rows of d(c @ output)/dx at x for a chain document; c is (k, out)."""
    values = _chain(doc, x)
    g = np.atleast_2d(np.asarray(c, dtype=np.float64))
    for k in range(len(values) - 1, 0, -1):
        node = doc["nodes"][k]
        g = g @ node["weight"] if node["op"] == "affine" else g * (values[k - 1] > 0.0)
    return g


def weight_gradients(doc: dict, x: np.ndarray, c: np.ndarray) -> dict[int, np.ndarray]:
    """d(c @ output)/dW at x for every affine node of a chain document."""
    values = _chain(doc, x)
    g = np.asarray(c, dtype=np.float64)
    grads = {}
    for k in range(len(values) - 1, 0, -1):
        node = doc["nodes"][k]
        if node["op"] == "affine":
            grads[k] = np.outer(g, values[k - 1])
            g = g @ node["weight"]
        else:
            g = g * (values[k - 1] > 0.0)
    return grads


def in_budget_sentences(spec: dict) -> tuple[np.ndarray, np.ndarray]:
    """Every sentence a synonym spec allows, by exhaustive enumeration.

    Returns the embedding table (one row per word of the spec) and the
    sentences as rows of indices into it: the clean sentence and every way to
    replace up to ``delta`` substitutable positions with one of their words.
    """
    words = list(spec["embeddings"])
    table = np.asarray([spec["embeddings"][w] for w in words], dtype=np.float64)
    index = {w: k for k, w in enumerate(words)}
    clean = np.array([index[w] for w in spec["words"]])
    subs = {int(t): [index[w] for w in ws] for t, ws in spec.get("substitutions", {}).items() if ws}
    blocks = [clean[None]]
    for k in range(1, spec["delta"] + 1):
        for positions in itertools.combinations(sorted(subs), k):
            choices = np.array(list(itertools.product(*(subs[t] for t in positions))))
            block = np.tile(clean, (len(choices), 1))
            block[:, list(positions)] = choices
            blocks.append(block)
    return table, np.concatenate(blocks)


def substitution_extremes(doc: dict, table: np.ndarray, sentences: np.ndarray, chunk: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """Min and max of every output over the given sentences (rows of word indices)."""
    lows, highs = [], []
    for start in range(0, len(sentences), chunk):
        part = sentences[start : start + chunk]
        z = logits(doc, table[part].reshape(len(part), -1).T)
        lows.append(z.min(axis=1))
        highs.append(z.max(axis=1))
    return np.min(lows, axis=0), np.max(highs, axis=0)
