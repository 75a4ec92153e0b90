import json
import re

import numpy as np
import pytest

from helpers import demo_doc, demo_net, random_graph
from lirpa import (
    Add,
    Affine,
    Graph,
    GraphError,
    Input,
    Node,
    ReLU,
    SumReduce,
    evaluate,
    get_out_degree,
    parse_graph,
    parse_problem,
    serialize_problem,
    topological_order,
)


def test_parse_demo_net():
    g = parse_graph(demo_doc())
    assert len(g.nodes) == 6
    kinds = [n.op.kind for n in g.nodes]
    assert kinds == ["input", "affine", "relu", "affine", "relu", "affine"]
    assert g.output == 5
    assert np.array_equal(g.nodes[1].op.weight, [[2.0, 1.0], [-3.0, 4.0]])


def test_parse_identity_graph():
    g = parse_graph(json.dumps({"nodes": [{"op": "input", "inputs": [], "dim": 1}], "output": 0}))
    assert g.output == 0
    assert isinstance(g.nodes[0].op, Input)


def test_parse_rejects_dimension_mismatch():
    doc = {
        "nodes": [
            {"op": "input", "inputs": [], "dim": 2},
            {"op": "affine", "inputs": [0], "dim": 2, "weight": [[1, 0, 0], [0, 1, 0]]},
        ],
        "output": 1,
    }
    with pytest.raises(GraphError, match="columns"):
        parse_graph(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.__setitem__("output", [1, 2]), "single node id"),
        (lambda d: d.pop("output"), "missing output"),
        (lambda d: d["nodes"][2].__setitem__("op", "gelu"), "unknown op"),
        (lambda d: d["nodes"][1].__setitem__("inputs", [9]), "out of range"),
        (lambda d: d.__setitem__("output", True), "output must be a single node id"),
        (lambda d: d["nodes"][1].__setitem__("inputs", [True]), "list of node ids"),
        (lambda d: d["perturbations"][0].__setitem__("node", True), "carry a 'node' id"),
        (lambda d: d["perturbations"][0].pop("center"), "node 0: malformed perturbation"),
        (lambda d: d["nodes"][1].__setitem__("weight", [["a", 1]]), "node 1: could not convert"),
        (lambda d: d["perturbations"][0].__setitem__("node", 2), "non-input node 2"),
        (lambda d: d["nodes"][2].__setitem__("dim", True), "node 2: 'dim' must be an integer, got True"),
        (lambda d: d["nodes"][2].__setitem__("dim", 1.9), r"node 2: 'dim' must be an integer, got 1\.9"),
        (lambda d: d["nodes"][2].__setitem__("dim", "2"), "node 2: 'dim' must be an integer, got '2'"),
    ],
)
def test_parse_rejects_bad_documents(mutate, message):
    doc = json.loads(demo_doc())
    mutate(doc)
    with pytest.raises(GraphError, match=message):
        parse_graph(json.dumps(doc))


@pytest.mark.parametrize(
    "path, token, message",
    [
        (("perturbations", 0, "eps"), "NaN", "non-finite number NaN"),
        (("nodes", 1, "weight", 0, 1), "-Infinity", "non-finite number -Infinity"),
        (("nodes", 1, "weight", 0, 1), "1e999", "node 1: affine weight and bias must be finite"),
        (("nodes", 3, "bias", 1), "-1e999", "node 3: affine weight and bias must be finite"),
        (("perturbations", 0, "center", 0), "1e999", "node 0: .*center must be finite"),
        (("perturbations", 0, "eps"), "1e999", "node 0: .*radius must be finite"),
    ],
)
def test_parse_rejects_non_finite_numbers(path, token, message):
    doc = json.loads(demo_doc())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "TOKEN"
    # NaN, Infinity and overflowing literals only exist in raw document text
    text = json.dumps(doc).replace('"TOKEN"', token)
    with pytest.raises(GraphError, match=message):
        parse_problem(text)


def test_parse_rejects_non_finite_embedding():
    doc = {
        "nodes": [{"op": "input", "inputs": [], "dim": 2}],
        "output": 0,
        "perturbations": [
            {
                "node": 0,
                "type": "synonym",
                "delta": 1,
                "words": ["a"],
                "substitutions": {"0": ["b"]},
                "embeddings": {"a": [1.0, 0.0], "b": [0.0, "TOKEN"]},
            }
        ],
    }
    text = json.dumps(doc).replace('"TOKEN"', "1e999")
    with pytest.raises(GraphError, match=re.escape("node 0: malformed perturbation: embedding of 'b'")):
        parse_problem(text)


def test_parse_rejects_syntax_error():
    with pytest.raises(GraphError, match="invalid JSON"):
        parse_graph("{not json")


def test_parse_rejects_cycle():
    doc = {
        "nodes": [
            {"op": "input", "inputs": [], "dim": 1},
            {"op": "relu", "inputs": [2], "dim": 1},
            {"op": "relu", "inputs": [1], "dim": 1},
        ],
        "output": 2,
    }
    with pytest.raises(GraphError, match="cycle"):
        parse_graph(json.dumps(doc))


def test_roundtrip_is_bit_exact():
    g1, specs1 = parse_problem(demo_doc())
    text = serialize_problem(g1, specs1)
    g2, specs2 = parse_problem(text)
    assert g1 == g2
    assert specs1 == specs2
    assert serialize_problem(g2, specs2) == text


def test_roundtrip_with_mixed_spec_kinds():
    doc = {
        "nodes": [
            {"op": "input", "inputs": [], "dim": 2},
            {"op": "input", "inputs": [], "dim": 4},
            {"op": "input", "inputs": [], "dim": 1},
            {"op": "sum_reduce", "inputs": [1], "dim": 1},
            {"op": "add", "inputs": [2, 3], "dim": 1},
        ],
        "output": 4,
        "perturbations": [
            {"node": 0, "type": "lp", "center": [0.125, -3.5], "eps": 0.25, "p": 2},
            {
                "node": 1,
                "type": "synonym",
                "delta": 1,
                "words": ["a", "b"],
                "substitutions": {"1": ["c"]},
                "embeddings": {"a": [1.0, 2.0], "b": [0.5, -1.0], "c": [0.0, 0.0]},
            },
            {"node": 2, "type": "constant", "value": [9.0]},
        ],
    }
    g1, specs1 = parse_problem(json.dumps(doc))
    text = serialize_problem(g1, specs1)
    g2, specs2 = parse_problem(text)
    assert g1 == g2 and specs1 == specs2
    assert serialize_problem(g2, specs2) == text


def test_graph_validation_rejects_bad_structures():
    with pytest.raises(GraphError, match="dense"):
        Graph((Node(1, Input(), (), 1),), 0)
    with pytest.raises(GraphError, match="sum_reduce"):
        Graph((Node(0, Input(), (), 3), Node(1, SumReduce(), (0,), 3)), 1)


def test_topological_order_chain():
    doc = {
        "nodes": [
            {"op": "input", "inputs": [], "dim": 2},
            {"op": "affine", "inputs": [0], "dim": 2, "weight": [[1, 0], [0, 1]]},
            {"op": "relu", "inputs": [1], "dim": 2},
        ],
        "output": 2,
    }
    assert topological_order(parse_graph(json.dumps(doc))) == [0, 1, 2]


def test_topological_order_diamond():
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, ReLU(), (0,), 2),
        Node(2, Affine(np.eye(2), np.zeros(2)), (0,), 2),
        Node(3, Add(), (1, 2), 2),
    )
    order = topological_order(Graph(nodes, 3))
    assert order[0] == 0 and order[-1] == 3


def test_topological_order_demo_net():
    g = parse_graph(demo_doc())
    assert topological_order(g) == [0, 1, 2, 3, 4, 5]


def test_topological_order_respects_edges_randomized():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g, _ = random_graph(rng)
        order = topological_order(g)
        assert sorted(order) == list(range(len(g.nodes)))
        rank = {i: r for r, i in enumerate(order)}
        for node in g.nodes:
            for j in node.inputs:
                assert rank[j] < rank[node.id]


def test_evaluate_demo_net():
    g, _ = demo_net()
    out = evaluate(g, {0: np.array([0.0, 1.0])})
    assert out[1] == pytest.approx([1.0, 4.0])
    assert out[3] == pytest.approx([-4.0, 6.0])
    assert out[5] == pytest.approx([6.0])


def test_evaluate_identity_graph():
    g = Graph((Node(0, Input(), (), 1),), 0)
    assert evaluate(g, {0: np.array([5.0])})[0] == pytest.approx([5.0])


def test_evaluate_add():
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, Input(), (), 2),
        Node(2, Add(), (0, 1), 2),
    )
    out = evaluate(Graph(nodes, 2), {0: np.array([1.0, 2.0]), 1: np.array([3.0, 4.0])})
    assert out[2] == pytest.approx([4.0, 6.0])


def test_evaluate_is_deterministic_and_batched():
    rng = np.random.default_rng(3)
    g, specs = random_graph(rng)
    values = {i: rng.uniform(-0.5, 0.5, (g.nodes[i].dim, 8)) for i in g.input_ids}
    a = evaluate(g, values)
    b = evaluate(g, values)
    for i in a:
        assert np.array_equal(a[i], b[i])
    # batched evaluation agrees with per-column evaluation
    single = evaluate(g, {i: v[:, 0] for i, v in values.items()})
    for i in a:
        assert a[i][:, 0] == pytest.approx(single[i], abs=1e-12)


def test_out_degree_chain():
    doc = {
        "nodes": [
            {"op": "input", "inputs": [], "dim": 1},
            {"op": "relu", "inputs": [0], "dim": 1},
            {"op": "relu", "inputs": [1], "dim": 1},
        ],
        "output": 2,
    }
    g = parse_graph(json.dumps(doc))
    assert get_out_degree(g, 2) == {0: 1, 1: 1, 2: 0}


def test_out_degree_diamond():
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, ReLU(), (0,), 2),
        Node(2, Affine(np.eye(2), np.zeros(2)), (0,), 2),
        Node(3, Add(), (1, 2), 2),
    )
    d = get_out_degree(Graph(nodes, 3), 3)
    assert d[0] == 2 and d[1] == 1 and d[2] == 1 and d[3] == 0


def test_out_degree_ignores_dead_branches():
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, ReLU(), (0,), 2),   # on the path to the output
        Node(2, ReLU(), (0,), 2),   # dead branch
        Node(3, ReLU(), (2,), 2),   # dead branch
    )
    d = get_out_degree(Graph(nodes, 1), 1)
    assert d == {0: 1, 1: 0, 2: 0, 3: 0}


def _reachable_to(g, o):
    seen = {o}
    stack = [o]
    while stack:
        for j in g.nodes[stack.pop()].inputs:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def test_out_degree_matches_path_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(30):
        g, _ = random_graph(rng, max_nodes=8)
        o = int(rng.integers(0, len(g.nodes)))
        on_path = _reachable_to(g, o)
        expected = {i: 0 for i in range(len(g.nodes))}
        for j in on_path:
            for i in g.nodes[j].inputs:
                expected[i] += 1
        assert get_out_degree(g, o) == expected
