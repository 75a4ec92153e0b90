import json
import re

import numpy as np
import pytest

from helpers import demo_doc, demo_net, kahn_pop_order, kahn_topological_order, random_graph
from lirpa import (
    Add,
    Affine,
    Graph,
    GraphError,
    Input,
    Node,
    ReLU,
    SumReduce,
    Synonym,
    evaluate,
    parse_problem,
    serialize_problem,
)


def test_parse_demo_net():
    g = parse_problem(demo_doc())[0]
    assert len(g.nodes) == 6
    kinds = [n.op.kind for n in g.nodes]
    assert kinds == ["input", "affine", "relu", "affine", "relu", "affine"]
    assert g.output == 5
    assert np.array_equal(g.nodes[1].op.weight, [[2.0, 1.0], [-3.0, 4.0]])


def test_parse_identity_graph():
    g = parse_problem(json.dumps({"nodes": [{"op": "input", "inputs": [], "dim": 1}], "output": 0}))[0]
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
        parse_problem(json.dumps(doc))


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
        (lambda d: d["nodes"][2].__setitem__("op", ["relu"]), r"node 2: unknown op name \['relu'\]"),
        (lambda d: d["nodes"][2].__setitem__("op", {}), r"node 2: unknown op name \{\}"),
        (lambda d: d["perturbations"][0].__setitem__("type", ["lp"]), "node 0: .*unknown perturbation type"),
        (lambda d: d["perturbations"][0].__setitem__("eps", True), "node 0: .*'eps' must be a number, got True"),
        (lambda d: d["perturbations"][0].__setitem__("eps", "2"), "node 0: .*'eps' must be a number, got '2'"),
        (lambda d: d["perturbations"][0].__setitem__("p", True), "node 0: .*'p' must be a number"),
        (lambda d: d["perturbations"][0].__setitem__("p", "2"), "node 0: .*'p' must be a number"),
    ],
)
def test_parse_rejects_bad_documents(mutate, message):
    doc = json.loads(demo_doc())
    mutate(doc)
    with pytest.raises(GraphError, match=message):
        parse_problem(json.dumps(doc))


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


def _synonym_doc(**fields):
    spec = {
        "node": 0,
        "type": "synonym",
        "delta": 1,
        "words": ["a"],
        "substitutions": {"0": ["b"]},
        "embeddings": {"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]},
    }
    spec.update(fields)
    return {"nodes": [{"op": "input", "inputs": [], "dim": 2}], "output": 0, "perturbations": [spec]}


def test_parse_rejects_non_finite_embedding():
    doc = _synonym_doc(embeddings={"a": [1.0, 0.0], "b": [0.0, "TOKEN"]})
    text = json.dumps(doc).replace('"TOKEN"', "1e999")
    with pytest.raises(GraphError, match=re.escape("node 0: malformed perturbation: embedding of 'b'")):
        parse_problem(text)


@pytest.mark.parametrize(
    "fields, message",
    [
        # a string is iterable, so these once parsed as the words a, b and the candidates b, c
        ({"words": "ab"}, "'words' must be a list of strings, got 'ab'"),
        ({"words": ["a", 1]}, "'words' must be a list of strings"),
        ({"substitutions": {"0": "bc"}}, "substitutions at 0 must be a list of strings, got 'bc'"),
        ({"substitutions": ["b"]}, "'substitutions' must be an object"),
        ({"delta": 1.7}, "'delta' must be an integer, got 1.7"),
        ({"delta": True}, "'delta' must be an integer, got True"),
        ({"delta": "1"}, "'delta' must be an integer, got '1'"),
        # dict() once read these pairs as the object README documents
        ({"embeddings": [["a", [1.0, 0.0]], ["b", [0.0, 1.0]]]}, "'embeddings' must be an object, got [['a'"),
    ],
)
def test_parse_rejects_malformed_synonym_fields(fields, message):
    with pytest.raises(GraphError, match="node 0: malformed perturbation: .*" + re.escape(message)):
        parse_problem(json.dumps(_synonym_doc(**fields)))


def test_parse_rejects_syntax_error():
    with pytest.raises(GraphError, match="invalid JSON"):
        parse_problem("{not json")


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
        parse_problem(json.dumps(doc))


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: Graph((Node(0, Input(), (), 1), Node(1, ReLU(), (0,), 1)), True),
        lambda: Graph((Node(0, Input(), (), 1), Node(1, ReLU(), (0,), 1)), 1.0),
        lambda: Node(0, Input(), (), 2.9),
        lambda: Node(1, ReLU(), (0.7,), 1),
        lambda: Node(1, ReLU(), (True,), 1),
        lambda: Graph((Node(0, Input(), (), 1), Node(True, ReLU(), (0,), 1)), 0),
    ],
)
def test_a_non_integer_node_id_or_dim_fails_closed(build):
    # these were truncated by int(...): a bool output id bounded node 1, dim 2.9 became 2
    with pytest.raises(GraphError, match="integer"):
        build()


def test_numpy_integer_ids_and_dims_are_accepted():
    one = np.int64(1)
    g = Graph((Node(0, Input(), (), np.int64(2)), Node(one, ReLU(), (np.int32(0),), 2)), one)
    assert g.output == 1 and g.nodes[1].inputs == (0,) and g.nodes[0].dim == 2


def _synonym(budget=1, substitutions=None):
    emb = {w: np.array([float(k)]) for k, w in enumerate("abcd")}
    return Synonym(("a", "b"), {0: ("c",), 1: ("d",)} if substitutions is None else substitutions, emb, budget)


@pytest.mark.parametrize(
    "budget, substitutions, message",
    [
        (1.9, None, "'delta' must be an integer, got 1.9"),
        (True, None, "'delta' must be an integer, got True"),
        ("1", None, "'delta' must be an integer, got '1'"),
        (1, {0.6: ("c",)}, "substitution position 0.6 out of range"),
        (1, {True: ("c",)}, "substitution position True out of range"),
        (1, {"1": ("c",)}, "substitution position '1' out of range"),
    ],
)
def test_a_non_integer_synonym_budget_or_position_fails_closed(budget, substitutions, message):
    # built directly, the spec runs the check that its document form runs: budget 1.9 was truncated to 1
    with pytest.raises(GraphError, match=re.escape(message)):
        _synonym(budget, substitutions)


def test_numpy_integer_synonym_budget_and_positions_are_accepted():
    spec = _synonym(np.int64(1), {np.int64(1): ("d",)})
    assert spec.budget == 1 and dict(spec.substitutions) == {1: ("d",)}
    assert type(spec.budget) is int and all(type(t) is int for t in spec.substitutions)


@pytest.mark.parametrize("key", ["1_0", " 1", "+1", "1.0", "١", "-1"])
def test_a_document_position_key_is_decimal_digits(key):
    # int() read "1_0" as 10 and "١" (an Arabic-Indic one) as 1
    words = [f"w{t}" for t in range(11)]
    emb = {w: [float(k)] for k, w in enumerate(words + ["s"])}
    doc = _synonym_doc(words=words, substitutions={key: ["s"]}, embeddings=emb)
    doc["nodes"][0]["dim"] = 11
    with pytest.raises(GraphError, match=re.escape(f"substitution position {key!r} out of range")):
        parse_problem(json.dumps(doc))
    doc["perturbations"][0]["substitutions"] = {"10": ["s"]}
    assert dict(parse_problem(json.dumps(doc))[1][0].substitutions) == {10: ("s",)}


def test_graph_order_chain():
    doc = {
        "nodes": [
            {"op": "input", "inputs": [], "dim": 2},
            {"op": "affine", "inputs": [0], "dim": 2, "weight": [[1, 0], [0, 1]]},
            {"op": "relu", "inputs": [1], "dim": 2},
        ],
        "output": 2,
    }
    assert parse_problem(json.dumps(doc))[0].order == (0, 1, 2)


def test_graph_order_diamond():
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, ReLU(), (0,), 2),
        Node(2, Affine(np.eye(2), np.zeros(2)), (0,), 2),
        Node(3, Add(), (1, 2), 2),
    )
    order = Graph(nodes, 3).order
    assert order[0] == 0 and order[-1] == 3


def test_graph_order_demo_net():
    g = parse_problem(demo_doc())[0]
    assert g.order == (0, 1, 2, 3, 4, 5)


def test_graph_order_respects_edges_randomized():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g, _ = random_graph(rng)
        order = g.order
        assert sorted(order) == list(range(len(g.nodes)))
        rank = {i: r for r, i in enumerate(order)}
        for node in g.nodes:
            for j in node.inputs:
                assert rank[j] < rank[node.id]


def _structure_graphs():
    """The 50-graph corpus, the demo net (built and parsed), a doubled add(x, x) edge and an input after its reader."""
    rng = np.random.default_rng(2024)
    graphs = [random_graph(rng, max_nodes=12, max_dim=5)[0] for _ in range(50)]
    graphs += [demo_net()[0], parse_problem(demo_doc())[0]]
    doubled = (Node(0, Input(), (), 2), Node(1, ReLU(), (0,), 2), Node(2, Add(), (1, 1), 2), Node(3, Add(), (2, 0), 2))
    late = (Node(0, Input(), (), 2), Node(1, ReLU(), (0,), 2), Node(2, Add(), (1, 3), 2), Node(3, Input(), (), 2))
    return graphs + [Graph(doubled, 3), Graph(late, 2)]


def test_a_graph_keeps_its_order_and_users():
    for g in _structure_graphs():
        assert g.order == tuple(kahn_topological_order(g))
        recount = [[] for _ in g.nodes]
        for node in g.nodes:
            for j in node.inputs:
                recount[j].append(node.id)
        assert g.users == tuple(map(tuple, recount))
    doubled, late = _structure_graphs()[-2:]
    assert doubled.users == ((1, 3), (2, 2), (3,), ())  # add(x, x) reads node 1 twice
    assert late.order == (0, 3, 1, 2)  # every input first, then the smallest ready id


def test_the_kept_structure_is_not_part_of_a_graphs_value():
    # order and users are derived, not fields: equality and the document form ignore them
    g, specs = demo_net()
    parsed = parse_problem(serialize_problem(g, specs))[0]
    assert parsed == g and parsed.order == g.order and parsed.users == g.users
    assert "order" not in json.loads(serialize_problem(g)) and "users" not in json.loads(serialize_problem(g))


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


def test_pop_order_chain():
    doc = {
        "nodes": [
            {"op": "input", "inputs": [], "dim": 1},
            {"op": "relu", "inputs": [0], "dim": 1},
            {"op": "relu", "inputs": [1], "dim": 1},
        ],
        "output": 2,
    }
    g = parse_problem(json.dumps(doc))[0]
    assert g.pop_order(2) == (2, 1) and g.pop_order(0) == (0,)


def test_pop_order_diamond():
    # input 0 feeds both branches, and no input but the target is popped; the branches go in reverse order
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, ReLU(), (0,), 2),
        Node(2, Affine(np.eye(2), np.zeros(2)), (0,), 2),
        Node(3, Add(), (1, 2), 2),
    )
    assert Graph(nodes, 3).pop_order(3) == (3, 2, 1)


def test_pop_order_ignores_dead_branches():
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, ReLU(), (0,), 2),   # on the path to the output
        Node(2, ReLU(), (0,), 2),   # dead branch
        Node(3, ReLU(), (2,), 2),   # dead branch
    )
    g = Graph(nodes, 1)
    assert g.pop_order(1) == (1,) and g.pop_order(3) == (3, 2)


def _reachable_to(g, o):
    seen = {o}
    stack = [o]
    while stack:
        for j in g.nodes[stack.pop()].inputs:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def test_pop_order_matches_path_enumeration():
    # o and the dependent nodes on its paths, each once and after all of its consumers there
    rng = np.random.default_rng(11)
    for _ in range(30):
        g, _ = random_graph(rng, max_nodes=8)
        o = int(rng.integers(0, len(g.nodes)))
        on_path = _reachable_to(g, o)
        order = g.pop_order(o)
        assert sorted(order) == sorted(i for i in on_path if i == o or not isinstance(g.nodes[i].op, Input))
        position = {i: k for k, i in enumerate(order)}
        for k in on_path - {o}:
            for j in g.nodes[k].inputs:
                assert j not in position or position[j] > position[k]


def _corpus_and_demo():
    rng = np.random.default_rng(2024)
    return [random_graph(rng, max_nodes=12, max_dim=5)[0] for _ in range(50)] + [demo_net()[0]]


def test_pop_order_is_the_order_reversed_on_every_target():
    # the acceptance corpus and the demo net, and a doubled edge: add(x, x) reads x twice
    doubled = (Node(0, Input(), (), 2), Node(1, ReLU(), (0,), 2), Node(2, Add(), (1, 1), 2), Node(3, Add(), (2, 1), 2))
    for g in _corpus_and_demo() + [Graph(doubled, 3)]:
        for o in range(len(g.nodes)):
            pops = g.pop_order(o)
            # the nodes the BFS walk steps through, each after all of its consumers on paths to o
            assert len(set(pops)) == len(pops) and set(pops) == set(kahn_pop_order(g, o))
            position = {i: k for k, i in enumerate(pops)}
            assert all(position[j] > position[i] for i in pops for j in g.nodes[i].inputs if j in position)
            assert pops == tuple(i for i in reversed(g.order) if i in position)
    assert Graph(doubled, 3).pop_order(3) == (3, 2, 1)
