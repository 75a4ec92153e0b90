"""Dead neurons leave the backward pass, and only the rounding order of the bounds changes.

A dead neuron's relaxation lines are all zero, so a query's passes drop its
column from the coefficients and each affine step multiplies only its
weight's live rows and columns. The dense reference below is the raw
``run_backward`` over the original ops and the query's own cached
intervals, concretized block by block.
"""
import math

import numpy as np
import pytest

from helpers import assert_sound, random_classifier, random_graph
from lirpa import (
    Add,
    Affine,
    BoundStrategy,
    Exp,
    Graph,
    Input,
    LpBall,
    MulElementwise,
    Node,
    ReLU,
    ReluLowerMode,
    Synonym,
    compute_bounds,
    evaluate,
    ibp_propagate,
    margin_transform,
    run_backward,
    weight_perturbed_graph,
)
from lirpa.backward import BoundQuery
from lirpa.concretize import concretize_blocks

MODES = list(ReluLowerMode)


def _dense_box(query, o, out_coeff=None):
    """The interval of the dense pass from o over the query's cached intervals."""
    state = run_backward(query.g, o, query.intervals, out_coeff, query.relu_mode)
    lb, ub, blocks = state.lower_bias, state.upper_bias, []
    for i in sorted(state.lower_coeff):
        spec = query.specs[i]
        if spec.perturbed:
            blocks.append((spec, state.lower_coeff[i], state.upper_coeff[i]))
        else:
            lb = lb + state.lower_coeff[i] @ spec.center
            ub = ub + state.upper_coeff[i] @ spec.center
    return concretize_blocks(lb, ub, blocks)


def _assert_close(box, dense, what):
    # within 1e-12 of the bound's own scale: dropped terms are exact zeros
    scale = max(1.0, float(np.max(np.abs(np.concatenate([dense.lower, dense.upper])))))
    assert np.max(np.abs(box.lower - dense.lower), initial=0.0) <= 1e-12 * scale, what
    assert np.max(np.abs(box.upper - dense.upper), initial=0.0) <= 1e-12 * scale, what


def _mlp(rng, dims, dead_layer=None, eps=0.05, half_dead=False):
    """A ReLU MLP on one linf ball; ``dead_layer``'s biases are pushed down until all its neurons die,
    ``half_dead`` pushes every hidden layer's even neurons down and the odd ones up, so those stay active."""
    nodes = [Node(0, Input(), (), dims[0])]
    for k, (t, s) in enumerate(zip(dims, dims[1:])):
        w = rng.uniform(-1, 1, (s, t)) / math.sqrt(t) * (0.1 if half_dead else 1.0)
        b = rng.uniform(-0.5, 0.5, s) - (50.0 if k == dead_layer else 0.0)
        if half_dead and k < len(dims) - 2:
            b = np.where(np.arange(s) % 2 == 0, -20.0, 20.0)
        nodes.append(Node(len(nodes), Affine(w, b), (len(nodes) - 1,), s))
        if k < len(dims) - 2:
            nodes.append(Node(len(nodes), ReLU(), (len(nodes) - 1,), s))
    return Graph(tuple(nodes), len(nodes) - 1), {0: LpBall(rng.uniform(-1, 1, dims[0]), eps, math.inf)}


def _corpus():
    rng = np.random.default_rng(61)
    problems = [random_graph(rng) for _ in range(50)]
    problems += [random_classifier(rng, int(rng.integers(2, 6))) for _ in range(10)]
    problems += [_mlp(rng, [3, 6, 6, 6, 4], dead_layer=k) for k in (None, 0, 1, 2)]
    return problems


@pytest.mark.parametrize("relu_mode", MODES)
@pytest.mark.parametrize("strategy", list(BoundStrategy))
def test_pruned_bounds_equal_the_dense_pass(strategy, relu_mode):
    rng = np.random.default_rng(62)
    for n, (g, specs) in enumerate(_corpus()):
        query = BoundQuery(g, specs, strategy, relu_mode)
        box = query.box(g.output, None, "output")
        _assert_close(box, _dense_box(query, g.output), (n, "output"))
        # each backward supplier pass too, over the intervals it read
        if strategy is BoundStrategy.BACKWARD:
            for j in query.intervals:
                if not isinstance(g.nodes[j].op, Input):
                    _assert_close(query.intervals[j], _dense_box(query, j), (n, j))
        dim = g.nodes[g.output].dim
        coeff = rng.uniform(-1, 1, (3, dim))
        _assert_close(query.box(g.output, coeff, "rows"), _dense_box(query, g.output, coeff), (n, "rows"))
        assert_sound(g, specs, {g.output: box}, rng, n=200)


def test_a_layer_with_every_neuron_dead_leaves_zero_width_coefficients(monkeypatch):
    g, specs = _mlp(np.random.default_rng(63), [3, 5, 4, 2], dead_layer=1)
    widths = []
    backward = Affine.backward

    def spy(op, lower_coeff, upper_coeff, *args):
        widths.append((op.weight.shape, lower_coeff.shape[1]))
        return backward(op, lower_coeff, upper_coeff, *args)

    monkeypatch.setattr(Affine, "backward", spy)
    for strategy in (BoundStrategy.BACKWARD, BoundStrategy.IBP_BACKWARD):
        query = BoundQuery(g, specs, strategy)
        box = query.box(g.output, margin_transform(0, 2), "margin")
        # node 3's 4 neurons are dead: the output layer reads none of them, node 3 has no rows left
        assert ((2, 0), 2) in widths and any(shape[0] == 0 and width == 0 for shape, width in widths)
        monkeypatch.setattr(Affine, "backward", backward)
        _assert_close(box, _dense_box(query, g.output, margin_transform(0, 2)), strategy)
        monkeypatch.setattr(Affine, "backward", spy)
        widths.clear()


def test_a_dead_affine_that_also_feeds_an_add_keeps_its_rows():
    # node 1 feeds both a relu, whose neurons 0 and 1 are dead, and an add
    w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, Affine(w, [-10.0, -10.0, 0.5]), (0,), 3),
        Node(2, ReLU(), (1,), 3),
        Node(3, Add(), (1, 2), 3),
        Node(4, Affine([[1.0, -2.0, 0.5]], [0.0]), (3,), 1),
    )
    g, specs = Graph(nodes, 4), {0: LpBall([0.1, -0.2], 0.3, math.inf)}
    for strategy in BoundStrategy:
        query = BoundQuery(g, specs, strategy)
        box = query.box(4, None, "output")
        assert query._relaxed(2).live.tolist() == [2]
        assert query._pass_node(1, False).op.weight.shape == (3, 2)
        _assert_close(box, _dense_box(query, 4), strategy)
        assert_sound(g, specs, {4: box}, np.random.default_rng(64), n=500)


def test_a_cached_affine_target_keeps_all_its_rows():
    # the --all-nodes path: every node of one query, after its intervals are cached
    g, specs = _mlp(np.random.default_rng(65), [3, 6, 6, 2], half_dead=True)
    query = BoundQuery(g, specs, BoundStrategy.IBP_BACKWARD)
    query.bound(g.output)
    assert 3 in query.intervals and query._relaxed(4).live.tolist() == [1, 3, 5]
    for target in (1, 3):
        native, box = query.bound(target)
        assert native.lower_w.shape == (6, 3)
        alone_native, alone = compute_bounds(g, specs, BoundStrategy.IBP_BACKWARD, target)
        assert np.array_equal(box.lower, alone.lower) and np.array_equal(box.upper, alone.upper)
        _assert_close(box, _dense_box(query, target), target)


def test_affine_steps_receive_only_the_live_columns(monkeypatch):
    # 64-4x32-10 with the even neurons of every hidden layer dead and the odd ones active
    g, specs = _mlp(np.random.default_rng(66), [64, 32, 32, 32, 32, 10], eps=0.01, half_dead=True)
    live = 16
    seen = []
    backward = Affine.backward

    def spy(op, lower_coeff, upper_coeff, *args):
        seen.append((op.weight.shape, lower_coeff.shape[1]))
        return backward(op, lower_coeff, upper_coeff, *args)

    monkeypatch.setattr(Affine, "backward", spy)
    compute_bounds(g, specs, BoundStrategy.BACKWARD, out_coeff=margin_transform(3, 10))
    assert len(seen) == 5 + 3 + 2 + 1
    for shape, width in seen:
        # the output layer is a target, whose 10 rows stay; a hidden one keeps 16 live rows and reads 16 live columns
        assert width == shape[0] and shape in {(10, live), (live, live), (live, 64)}, shape


def _mul_dag(rng):
    """A DAG whose two mul nodes read a relu, an exp and two affine nodes."""
    dense = lambda s, t: Affine(rng.uniform(-1, 1, (s, t)) / math.sqrt(t), rng.uniform(-0.5, 0.5, s))
    nodes = (
        Node(0, Input(), (), 3),
        Node(1, dense(4, 3), (0,), 4),
        Node(2, ReLU(), (1,), 4),
        Node(3, dense(4, 3), (0,), 4),
        Node(4, MulElementwise(), (2, 3), 4),
        Node(5, Exp(), (4,), 4),
        Node(6, MulElementwise(), (5, 1), 4),
        Node(7, dense(2, 4), (6,), 2),
    )
    return Graph(nodes, 7), {0: LpBall(rng.uniform(-1, 1, 3), 0.1, math.inf)}


def test_relaxed_unary_lines_are_computed_once_per_query(monkeypatch):
    # every relaxed node is relaxed once, whether the forward sweep, a supplier pass or the final pass reads it
    from lirpa import ops

    calls = []
    unary, mul, matvec = ops.unary_relaxation, ops.mul_relaxation, ops.MatVec.relax

    def counting_unary(op, l, u, relu_mode=ReluLowerMode.ADAPTIVE):
        calls.append(op.kind)
        return unary(op, l, u, relu_mode)

    def counting_mul(*bounds):
        calls.append("mul")
        return mul(*bounds)

    def counting_matvec(op, intervals, relu_mode):
        calls.append("matvec")
        return matvec(op, intervals, relu_mode)

    monkeypatch.setattr(ops, "unary_relaxation", counting_unary)
    monkeypatch.setattr(ops, "mul_relaxation", counting_mul)
    monkeypatch.setattr(ops.MatVec, "relax", counting_matvec)
    rng = np.random.default_rng(67)
    mlp = _mlp(rng, [4, 8, 8, 8, 8, 3])
    weights, weight_specs, _ = weight_perturbed_graph(mlp[0], 0.01)
    weight_specs[0] = mlp[1][0]
    problems = [
        (mlp, margin_transform(0, 3), {"relu": 4}),
        (_mul_dag(rng), None, {"relu": 1, "exp": 1, "mul": 2}),
        ((weights, weight_specs), margin_transform(0, 3), {"relu": 4, "matvec": 5}),
    ]
    for (g, specs), out_coeff, relaxed in problems:
        for strategy in BoundStrategy:
            calls.clear()
            compute_bounds(g, specs, strategy, out_coeff=out_coeff)
            counts = {kind: calls.count(kind) for kind in set(calls)}
            if "matvec" in relaxed:
                # a matvec computes its planes for each rule that reads them: once where one sweep or pass does
                planes = counts.pop("mul", 0)
                assert planes == 5 or strategy not in (BoundStrategy.FORWARD, BoundStrategy.IBP_BACKWARD)
            assert counts == ({} if strategy is BoundStrategy.IBP else relaxed), strategy


def test_a_budget_zero_synonym_input_is_its_clean_point():
    rng = np.random.default_rng(68)
    emb = {w: rng.uniform(-1, 1, 2) for w in ("a", "b", "a1", "a2", "b1")}
    for budget in (0, 1):
        spec = Synonym(("a", "b"), {0: ("a1", "a2"), 1: ("b1",)}, emb, budget)
        affine = Affine(rng.uniform(-1, 1, (2, 4)), None)
        g = Graph((Node(0, Input(), (), 4), Node(1, ReLU(), (0,), 4), Node(2, affine, (1,), 2)), 2)
        specs = {0: spec}
        ibp = ibp_propagate(g, specs)[0]
        # an input's backward box is its region's extremes, which its spec's box must equal
        backward = compute_bounds(g, specs, BoundStrategy.BACKWARD, target=0)[1]
        assert np.array_equal(backward.lower, spec.box().lower)
        assert np.array_equal(backward.upper, spec.box().upper)
        if budget == 0:
            assert np.array_equal(ibp.lower, spec.center) and np.array_equal(ibp.upper, spec.center)
            # so no strategy bounds what reads it looser than the clean output
            clean = evaluate(g, {0: spec.center})[2]
            for strategy in BoundStrategy:
                box = compute_bounds(g, specs, strategy)[1]
                assert np.allclose(box.lower, clean, rtol=0, atol=1e-12), strategy
                assert np.allclose(box.upper, clean, rtol=0, atol=1e-12), strategy
        else:
            assert np.all(ibp.lower <= spec.center) and np.any(ibp.lower < spec.center)
