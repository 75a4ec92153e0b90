"""Dead neurons leave the backward pass, and only the rounding order of the bounds changes.

A dead neuron's relaxation lines are all zero, so a query's passes drop its
column from the coefficients and each affine step multiplies only its
weight's live rows and columns. The dense reference below is
``run_backward`` by ``helpers.lines_ops``: the original affine ops and
every relaxed node's full lines, relaxed on the query's own cached
intervals, concretized block by block.
"""
import math
from functools import cached_property

import numpy as np
import pytest

from helpers import assert_sound, four_product_lines_backward, lines_ops, random_classifier, random_graph
from lirpa import (
    Add,
    Affine,
    BoundStrategy,
    Exp,
    Graph,
    Input,
    IntervalBounds,
    Log,
    LpBall,
    MarginSpec,
    MulElementwise,
    Neg,
    Node,
    ReLU,
    ReluLowerMode,
    Synonym,
    build_fused_loss_graph,
    compute_bounds,
    evaluate,
    margin_transform,
    run_backward,
    weight_perturbed_graph,
)
from lirpa.backward import BoundQuery
from lirpa.concretize import concretize_blocks
from lirpa.ops import _Clip, _Lines

MODES = list(ReluLowerMode)


def _dense_box(query, o, out_coeff=None):
    """The interval of the dense pass from o over the query's cached intervals."""
    state = run_backward(query.g, o, out_coeff, lines_ops(query.g, o, query.intervals, query.relu_mode))
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


def _mlp(rng, dims, dead_layer=None, eps=0.05, half_dead=False, mixed=False):
    """A ReLU MLP on one linf ball; ``dead_layer``'s biases are pushed down until all its neurons die,
    ``half_dead`` pushes every hidden layer's even neurons down and the odd ones up, so those stay active,
    ``mixed`` sets every hidden layer's biases to -2, 2 and 0 in turn: with eps 1, some neurons of each
    layer die, some stay active and some are unstable."""
    nodes = [Node(0, Input(), (), dims[0])]
    for k, (t, s) in enumerate(zip(dims, dims[1:])):
        w = rng.uniform(-1, 1, (s, t)) / math.sqrt(t) * (0.1 if half_dead else 1.0)
        b = rng.uniform(-0.5, 0.5, s) - (50.0 if k == dead_layer else 0.0)
        if half_dead and k < len(dims) - 2:
            b = np.where(np.arange(s) % 2 == 0, -20.0, 20.0)
        if mixed and k < len(dims) - 2:
            b = np.array([-2.0, 2.0, 0.0])[np.arange(s) % 3]
        nodes.append(Node(len(nodes), Affine(w, b), (len(nodes) - 1,), s))
        if k < len(dims) - 2:
            nodes.append(Node(len(nodes), ReLU(), (len(nodes) - 1,), s))
    return Graph(tuple(nodes), len(nodes) - 1), {0: LpBall(rng.uniform(-1, 1, dims[0]), eps, math.inf)}


def _corpus():
    rng = np.random.default_rng(61)
    problems = [random_graph(rng) for _ in range(50)]
    problems += [random_classifier(rng, int(rng.integers(2, 6))) for _ in range(10)]
    problems += [_mlp(rng, [3, 6, 6, 6, 4], dead_layer=k) for k in (None, 0, 1, 2)]
    problems += [_mlp(rng, [4, 9, 9, 9, 3], eps=1.0, mixed=True) for _ in range(2)]
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


@pytest.mark.parametrize("relu_mode", MODES)
@pytest.mark.parametrize("strategy", list(BoundStrategy))
def test_pruned_bounds_are_never_looser_than_the_dense_pass(strategy, relu_mode):
    # the identity columns and the dead ones only leave sums of exact zeros out, and a folded chain's
    # (c * su) @ W becomes c @ (su * W): the rounding order moves
    folded = 0
    for n, (g, specs) in enumerate(_corpus()):
        query = BoundQuery(g, specs, strategy, relu_mode)
        box, dense = query.box(g.output, None, "output"), _dense_box(query, g.output)
        slack = 1e-14 * np.maximum(1.0, np.maximum(np.abs(dense.lower), np.abs(dense.upper)))
        assert np.all(box.lower >= dense.lower - slack) and np.all(box.upper <= dense.upper + slack), n
        folded += any(isinstance(op, _Clip) for op in query._pass_ops.values())
    assert folded >= 10


def _identity(op) -> np.ndarray:
    """Which neurons of a one-input lines op have identity lines: slopes 1 and constants 0."""
    (sl, su), = op.slopes
    return (sl == 1.0) & (su == 1.0) & (op.lower_const == 0.0) & (op.upper_const == 0.0)


def test_a_pruned_lines_op_passes_its_leading_identity_columns_through():
    g, specs = _mlp(np.random.default_rng(70), [4, 9, 9, 9, 3], eps=1.0, mixed=True)
    query = BoundQuery(g, specs, BoundStrategy.BACKWARD)
    query.bound(g.output)
    rng = np.random.default_rng(71)
    for r in (2, 4, 6):
        full, op = query._relaxed(r), query._pass_op(r, g.output)
        live, n = full.live
        # the same live neurons as the dense lines show, identity lines first
        assert set(live.tolist()) == set(np.logical_or.reduce([*full.slopes[0], full.lower_const, full.upper_const]).nonzero()[0])
        identity = _identity(op)
        assert op.n == n and 0 < n < len(live) < g.nodes[r].dim
        assert identity[:n].all() and not identity[n:].any()
        # the same lines with no identity block: every column goes through the bending rule
        dense = _Lines(op.slopes, op.lower_const, op.upper_const)
        c = rng.uniform(-1, 1, (5, len(live)))
        for lower, upper in ((c, c), (c, rng.uniform(-1, 1, c.shape))):
            [(lam_lo, lam_up)], d_lo, d_up = op.backward(lower, upper, None)
            [(ref_lo, ref_up)], ref_d_lo, ref_d_up = dense.backward(lower, upper, None)
            assert lam_lo[:, :n].tobytes() == lower[:, :n].tobytes() and lam_up[:, :n].tobytes() == upper[:, :n].tobytes()
            assert lam_lo.tobytes() == ref_lo.tobytes() and lam_up.tobytes() == ref_up.tobytes()
            assert not any(np.shares_memory(lam, x) for lam in (lam_lo, lam_up) for x in (lower, upper))
            assert np.allclose(d_lo, ref_d_lo, rtol=1e-14, atol=0) and np.allclose(d_up, ref_d_up, rtol=1e-14, atol=0)


def test_only_bending_columns_reach_the_lines_step(monkeypatch):
    from lirpa import ops

    g, specs = _mlp(np.random.default_rng(70), [4, 9, 9, 9, 3], eps=1.0, mixed=True)
    seen, steps = [], []
    backward, posneg = _Lines.backward, ops._posneg

    def spy_backward(op, *args):
        steps.append(op)
        return backward(op, *args)

    monkeypatch.setattr(_Lines, "backward", spy_backward)
    monkeypatch.setattr(ops, "_posneg", lambda a: seen.append((steps[-1], a.shape[1])) or posneg(a))
    query = BoundQuery(g, specs, BoundStrategy.BACKWARD)
    query.box(g.output, margin_transform(0, 3), "margin")
    # the passes from nodes 3 and 5 cross 1 and 2 ReLU nodes, the final one all 3; each step splits its
    # coefficient into positive and negative parts once per side
    assert len(steps) == 1 + 2 + 3 and {id(op) for op, _ in seen} == {id(op) for op in steps}
    for op, width in seen:
        bending = int(np.count_nonzero(~_identity(op)))
        assert 0 < width == bending < len(op.lower_const)


def _signed_zeros(rng, shape):
    """Uniform coefficients with about a quarter of the entries +0.0 and a quarter -0.0."""
    c = rng.uniform(-1, 1, shape)
    pick = rng.integers(0, 4, shape)
    c[pick == 0], c[pick == 1] = 0.0, -0.0
    return c


def test_zero_mode_relu_lines_steps_equal_the_four_product_step():
    rng = np.random.default_rng(72)
    dead, active, unstable = (-2.0, -0.5), (0.5, 2.0), (-1.0, 1.5)
    kinds = [dead] * 4 + [active] * 4 + [unstable] * 8
    order = rng.permutation(len(kinds))  # so the identity lines do not already lead
    mixed = IntervalBounds(*np.array([kinds[k] for k in order]).T)
    bending = IntervalBounds(np.array([-1.0, -2.0, -0.5, -3.0, -1.0]), np.array([1.0, 0.5, 2.0, 3.0, 0.1]))
    some_dead = IntervalBounds(np.concatenate([bending.lower, [-2.0]]), np.concatenate([bending.upper, [-1.0]]))
    ops_ = []  # (op, its input's dim)
    for box in (mixed, bending, some_dead):
        full, dim = ReLU().relax([box], ReluLowerMode.ZERO), len(box.lower)
        ops_.append((full, dim))
        if full.live is not None:  # as ``BoundQuery._pass_op`` prunes one
            (live, n), ((lo, up),) = full.live, full.slopes
            ops_.append((_Lines(((lo[live], up[live]),), full.lower_const[live], full.upper_const[live], n), len(live)))
    # each would fold on a closed chain; off one, its step is the four signed products'
    assert all(op.cap is not None for op, _ in ops_)
    assert [op.n for op, _ in ops_] == [0, 4, 0, 0, 0]
    for op, dim in ops_:
        lower = _signed_zeros(rng, (6, dim))
        for upper in (lower, _signed_zeros(rng, lower.shape)):
            (lams,), d_lo, d_up = op.backward(lower, upper, dim)
            (ref,), ref_d_lo, ref_d_up = four_product_lines_backward(op, lower, upper, dim)
            assert [lam.tobytes() for lam in lams] == [lam.tobytes() for lam in ref]
            # equal values; a bias's zero sign may differ, and run_backward adds it to +0.0
            assert np.array_equal(d_lo, ref_d_lo) and np.array_equal(d_up, ref_d_up)


def test_a_zero_mode_relu_lines_step_never_splits_a_coefficient_into_signed_parts(monkeypatch):
    from lirpa import ops

    g, specs = _mlp(np.random.default_rng(71), [4, 9, 9, 9, 3], eps=1.0, mixed=True)
    steps, clips, split = [], [], []
    backward, clip, posneg = _Lines.backward, _Clip.backward, ops._posneg
    monkeypatch.setattr(_Lines, "backward", lambda op, *args: steps.append(op) or backward(op, *args))
    monkeypatch.setattr(_Clip, "backward", lambda op, *args: clips.append((op, args[0].shape)) or clip(op, *args))
    monkeypatch.setattr(ops, "_posneg", lambda a: split.append(a.shape) or posneg(a))
    query = BoundQuery(g, specs, BoundStrategy.BACKWARD, ReluLowerMode.ZERO)
    query.box(g.output, margin_transform(0, 3), "margin")
    # every chain folds: each ReLU step is a clip on its live columns, and the affine steps carry the lines
    assert len(clips) == 1 + 2 + 3 and steps == [] and split == []
    for r in (2, 4, 6):  # every ReLU layer has dead, stable-active and unstable neurons
        box = query.intervals[r - 1]
        dead, active = box.upper <= 0.0, box.lower >= 0.0
        assert dead.any() and active.any() and not (dead | active).all()
    for op, shape in clips:
        assert shape[1] == len(op.cap) < 9 and set(op.cap.tolist()) == {0.0, np.inf}


def _chain(rng, dims):
    """x -> affine 1 -> relu 2 -> affine 3 on one linf ball: a closed chain that a pass from 3 crosses."""
    nodes = (
        Node(0, Input(), (), dims[0]),
        Node(1, Affine(rng.uniform(-1, 1, dims[1::-1]), rng.uniform(-1, 1, dims[1])), (0,), dims[1]),
        Node(2, ReLU(), (1,), dims[1]),
        Node(3, Affine(rng.uniform(-1, 1, dims[:0:-1]), rng.uniform(-1, 1, dims[2])), (2,), dims[2]),
    )
    return Graph(nodes, 3), {0: LpBall(rng.uniform(-1, 1, dims[0]), 0.5, math.inf)}


def test_lines_whose_lower_line_equals_the_upper_one_with_a_constant_fold():
    rng = np.random.default_rng(73)
    g, specs = _chain(rng, [3, 6, 2])
    # neurons 0-2: both lines 0.7 x + 0.3; 3: the identity; 4-5: lower line 0, upper 0.5 x + 0.4
    sl, su = np.array([0.7, 0.7, 0.7, 1.0, 0.0, 0.0]), np.array([0.7, 0.7, 0.7, 1.0, 0.5, 0.5])
    lines = _Lines(((sl, su),), np.array([0.3, 0.3, 0.3, 0.0, 0.0, 0.0]), np.array([0.3, 0.3, 0.3, 0.0, 0.4, 0.4]))
    query = BoundQuery(g, specs, BoundStrategy.BACKWARD)
    query._lines[2] = lines  # as if relaxed so; no neuron is dead, so no row is pruned
    clip, folded = query._pass_op(2, 3), query._pass_op(1, 3)
    assert np.array_equal(clip.cap, [np.inf] * 4 + [0.0] * 2)
    assert np.array_equal(folded.weight, su[:, None] * g.nodes[1].op.weight)
    assert np.array_equal(folded.bias, su * g.nodes[1].op.bias + lines.upper_const)
    for _ in range(5):
        lower = _signed_zeros(rng, (4, 6))
        for upper in (lower, _signed_zeros(rng, lower.shape)):
            [(c_lo, c_up)], zero_lo, zero_up = clip.backward(lower, upper, 6)
            [(lam_lo, lam_up)], d_lo, d_up = folded.backward(c_lo, c_up, 3)
            [(r_lo, r_up)], ref_d_lo, ref_d_up = four_product_lines_backward(lines, lower, upper, 6)
            [(ref_lo, ref_up)], e_lo, e_up = g.nodes[1].op.backward(r_lo, r_up, 3)
            assert not (zero_lo.any() or zero_up.any())
            for got, ref in ((lam_lo, ref_lo), (lam_up, ref_up), (d_lo, ref_d_lo + e_lo), (d_up, ref_d_up + e_up)):
                assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


def test_an_adaptive_chain_with_a_slope_one_unstable_neuron_keeps_its_lines():
    g, specs = _chain(np.random.default_rng(74), [3, 8, 2])
    query = BoundQuery(g, specs, BoundStrategy.BACKWARD, ReluLowerMode.ADAPTIVE)
    box = query.box(3, None, "output")
    pre, lines = query.intervals[1], query._relaxed(2)
    unstable = (pre.lower < 0.0) & (pre.upper > 0.0)
    assert (unstable & (lines.slopes[0][0] == 1.0)).any() and lines.cap is None
    op = query._pass_op
    assert isinstance(op(2, 3), _Lines) and not any(isinstance(o, _Clip) for o in query._pass_ops.values())
    assert np.array_equal(op(1, 3).weight, g.nodes[1].op.weight[(lines.live or (slice(None),))[0]])
    _assert_close(box, _dense_box(query, 3), "output")
    # the same chain under ZERO mode folds
    zero = BoundQuery(g, specs, BoundStrategy.BACKWARD, ReluLowerMode.ZERO)
    zero.box(3, None, "output")
    assert isinstance(zero._pass_op(2, 3), _Clip)


def test_exp_log_and_mul_lines_steps_keep_the_signed_split(monkeypatch):
    from lirpa import ops

    nodes = (
        Node(0, Input(), (), 2),
        Node(1, Affine([[0.5, -0.3], [0.2, 0.4]], [0.1, -0.2]), (0,), 2),
        Node(2, Exp(), (1,), 2),
        Node(3, Log(), (2,), 2),
        Node(4, MulElementwise(), (2, 3), 2),
        Node(5, Affine([[1.0, -1.0]], [0.0]), (4,), 1),
    )
    g, specs = Graph(nodes, 5), {0: LpBall([0.2, -0.1], 0.3, math.inf)}
    steps, split = [], []
    backward, posneg = _Lines.backward, ops._posneg
    monkeypatch.setattr(_Lines, "backward", lambda op, *args: steps.append(op) or backward(op, *args))
    monkeypatch.setattr(ops, "_posneg", lambda a: split.append(steps[-1]) or posneg(a))
    for mode in ReluLowerMode:
        BoundQuery(g, specs, BoundStrategy.BACKWARD, mode).box(g.output, None, "output")
    assert len(steps) > 6 and {id(op) for op in split} == {id(op) for op in steps}
    # an exp's or a log's lower line is neither zero nor its upper line: their lines would not fold
    assert all(op.cap is None for op in steps if len(op.slopes) == 1)


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
        assert set(query._relaxed(2).live[0].tolist()) == {2}
        assert query._pass_op(1, 4).weight.shape == (3, 2)
        _assert_close(box, _dense_box(query, 4), strategy)
        assert_sound(g, specs, {4: box}, np.random.default_rng(64), n=500)


def test_only_closed_affine_relu_affine_chains_are_pruned():
    # four relus, each with a dead neuron: 2 on a closed chain, 4 read by a neg, 7 fed by an add,
    # and 9 a target whose affine input 8 keeps all its rows
    step = Affine(np.eye(3), [-10.0, 0.0, 10.0])
    nodes = (
        Node(0, Input(), (), 3),
        Node(1, step, (0,), 3),
        Node(2, ReLU(), (1,), 3),
        Node(3, step, (2,), 3),
        Node(4, ReLU(), (3,), 3),
        Node(5, Neg(), (4,), 3),
        Node(6, Add(), (5, 0), 3),
        Node(7, ReLU(), (6,), 3),
        Node(8, step, (7,), 3),
        Node(9, ReLU(), (8,), 3),
        Node(10, Affine([[1.0, -2.0, 0.5], [0.3, 0.2, -1.0]], [0.0, 1.0]), (9,), 2),
    )
    g, specs = Graph(nodes, 10), {0: LpBall(np.zeros(3), 0.3, math.inf)}
    for strategy in (BoundStrategy.BACKWARD, BoundStrategy.IBP_BACKWARD):
        query = BoundQuery(g, specs, strategy)
        boxes = {o: query.box(o, None, "node") for o in (10, 9)}
        assert query._keeps == {1: 2, 2: 2, 8: 9, 9: 9}
        assert all(len(query._relaxed(r).live[0]) == 2 for r in (2, 9))
        op = query._pass_op
        # the pass from 10 prunes the two chains' rows, and the columns of the affine nodes that read them;
        # their unstable neurons take lower slope 0, so each chain folds
        assert len(op(2, 10).cap) == 2 and op(1, 10).weight.shape == (2, 3)
        assert len(op(9, 10).cap) == 2 and op(8, 10).weight.shape == (2, 3)
        assert op(10, 10).weight.shape == (2, 2) and op(3, 10).weight.shape == (3, 2)
        assert op(4, 10) is query._relaxed(4) and op(7, 10) is query._relaxed(7)
        # the pass from the relu target 9 keeps its lines and its affine input's rows
        assert op(9, 9) is query._relaxed(9) and op(8, 9) is nodes[8].op
        for o, box in boxes.items():
            _assert_close(box, _dense_box(query, o), (strategy, o))
            assert_sound(g, specs, {o: box}, np.random.default_rng(64), n=500)


def test_a_cached_affine_target_keeps_all_its_rows():
    # the --all-nodes path: every node of one query, after its intervals are cached
    g, specs = _mlp(np.random.default_rng(65), [3, 6, 6, 2], half_dead=True)
    query = BoundQuery(g, specs, BoundStrategy.IBP_BACKWARD)
    query.bound(g.output)
    assert 3 in query.intervals and set(query._relaxed(4).live[0].tolist()) == {1, 3, 5}
    for target in (1, 3):
        native, box = query.bound(target)
        assert native.lower_w.shape == (6, 3)
        alone_native, alone = compute_bounds(g, specs, BoundStrategy.IBP_BACKWARD, target)
        assert np.array_equal(box.lower, alone.lower) and np.array_equal(box.upper, alone.upper)
        _assert_close(box, _dense_box(query, target), target)


def test_a_pruned_affine_pass_op_holds_frozen_slices_of_the_graph_weight():
    g, specs = _mlp(np.random.default_rng(65), [3, 6, 6, 2], half_dead=True)
    query = BoundQuery(g, specs, BoundStrategy.IBP_BACKWARD)
    query.bound(g.output)
    live = [1, 3, 5]
    graph_op, pass_op = g.nodes[3].op, query._pass_op(3, g.output)
    assert np.array_equal(pass_op.weight, graph_op.weight[np.ix_(live, live)])
    assert np.array_equal(pass_op.bias, graph_op.bias[live])
    for got, source in ((pass_op.weight, graph_op.weight), (pass_op.bias, graph_op.bias)):
        assert not got.flags.writeable and not np.shares_memory(got, source)


def test_a_target_shares_its_pass_op_with_an_unpruned_non_target():
    # the fused graph's negated-margin node is the margin pass's target, then the fused pass reads it
    # through exp, which a sum reads: on no closed chain, it keeps its rows, and one op on the live
    # columns of the relu it reads serves both passes
    g, specs = _mlp(np.random.default_rng(69), [3, 6, 6, 4], half_dead=True)
    fused = build_fused_loss_graph(g, MarginSpec(1, 4))
    neg = fused.output - 2
    for strategy in (BoundStrategy.BACKWARD, BoundStrategy.IBP_BACKWARD):
        query = BoundQuery(fused, specs, strategy)
        query.intervals[neg] = query.box(neg, None, "margin")
        query.box(fused.output, None, "fused loss")
        assert neg not in query._keeps and fused.nodes[neg].inputs[0] in query._keeps
        assert [key for key in query._pass_ops if key[0] == neg] == [(neg, True)]
        assert query._pass_op(neg, fused.output) is query._pass_op(neg, neg)
        assert query._pass_op(neg, fused.output).weight.shape == (4, 3)


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
    unary, mul, matvec, planes = ops.unary_relaxation, ops.mul_relaxation, ops.MatVec.relax, ops._Planes.rel.func

    def counting_unary(op, l, u, relu_mode=ReluLowerMode.ADAPTIVE):
        calls.append(op.kind)
        return unary(op, l, u, relu_mode)

    def counting_mul(*bounds):
        calls.append("mul")
        return mul(*bounds)

    def counting_matvec(op, intervals, relu_mode):
        calls.append("matvec")
        return matvec(op, intervals, relu_mode)

    def counting_planes(op):
        calls.append("planes")
        return planes(op)

    counting_rel = cached_property(counting_planes)
    counting_rel.__set_name__(ops._Planes, "rel")
    monkeypatch.setattr(ops, "unary_relaxation", counting_unary)
    monkeypatch.setattr(ops, "mul_relaxation", counting_mul)
    monkeypatch.setattr(ops.MatVec, "relax", counting_matvec)
    monkeypatch.setattr(ops._Planes, "rel", counting_rel)
    rng = np.random.default_rng(67)
    mlp = _mlp(rng, [4, 8, 8, 8, 8, 3])
    weights, weight_specs, _ = weight_perturbed_graph(mlp[0], 0.01)
    weight_specs[0] = mlp[1][0]
    problems = [
        (mlp, margin_transform(0, 3), {"relu": 4}),
        (_mul_dag(rng), None, {"relu": 1, "exp": 1, "mul": 2}),
        # a matvec's planes are computed once per query, however many sweeps and passes read them
        ((weights, weight_specs), margin_transform(0, 3), {"relu": 4, "matvec": 5, "planes": 5}),
    ]
    for (g, specs), out_coeff, relaxed in problems:
        for strategy in BoundStrategy:
            calls.clear()
            compute_bounds(g, specs, strategy, out_coeff=out_coeff)
            counts = {kind: calls.count(kind) for kind in set(calls)}
            assert counts == ({} if strategy is BoundStrategy.IBP else relaxed), strategy


def test_a_budget_zero_synonym_input_is_its_clean_point():
    rng = np.random.default_rng(68)
    emb = {w: rng.uniform(-1, 1, 2) for w in ("a", "b", "a1", "a2", "b1")}
    for budget in (0, 1):
        spec = Synonym(("a", "b"), {0: ("a1", "a2"), 1: ("b1",)}, emb, budget)
        affine = Affine(rng.uniform(-1, 1, (2, 4)), None)
        g = Graph((Node(0, Input(), (), 4), Node(1, ReLU(), (0,), 4), Node(2, affine, (1,), 2)), 2)
        specs = {0: spec}
        ibp = compute_bounds(g, specs, BoundStrategy.IBP, target=0)[1]
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
