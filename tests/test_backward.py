import math
import re

import numpy as np
import pytest

from helpers import demo_net, lines_ops, node_forward, node_intervals, random_graph, assert_sound
from lirpa import (
    Affine,
    BoundStrategy,
    DomainError,
    Exp,
    Graph,
    GraphError,
    Input,
    InputLayout,
    IntervalBounds,
    Log,
    LpBall,
    MulElementwise,
    Neg,
    Node,
    ReLU,
    ReluLowerMode,
    Synonym,
    compute_bounds,
    concretize_bounds,
    run_backward,
)
from lirpa.backward import BoundQuery
from lirpa.ops import MatVec

ALL_STRATEGIES = (
    BoundStrategy.IBP,
    BoundStrategy.FORWARD,
    BoundStrategy.BACKWARD,
    BoundStrategy.IBP_BACKWARD,
)


def test_backward_demo_net_concretized():
    g, specs = demo_net()
    _, box = compute_bounds(
        g, specs, BoundStrategy.FORWARD_BACKWARD, relu_mode=ReluLowerMode.ZERO
    )
    assert box.lower[0] == pytest.approx(-42.0, abs=1e-9)
    assert box.upper[0] == pytest.approx(170.0 / 7.0, abs=1e-9)
    assert box.lower[0] == pytest.approx(-42.0, abs=0.02)
    assert box.upper[0] == pytest.approx(24.28, abs=0.02)


def test_backward_demo_net_input_coefficients():
    g, specs = demo_net()
    lb, _ = compute_bounds(
        g, specs, BoundStrategy.FORWARD_BACKWARD, relu_mode=ReluLowerMode.ZERO
    )
    assert lb.upper_w == pytest.approx(np.array([[0.40, 3.74]]), abs=0.01)
    assert lb.lower_w == pytest.approx(np.array([[-1.75, -0.875]]), abs=1e-3)
    assert lb.lower_b[0] == pytest.approx(-35.875, abs=1e-9)
    assert lb.upper_b[0] == pytest.approx(12.26, abs=0.01)


def test_backward_affine_chain_is_exact():
    rng = np.random.default_rng(0)
    w1 = rng.uniform(-1, 1, (3, 2))
    w2 = rng.uniform(-1, 1, (2, 3))
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, Affine(w1, rng.uniform(-1, 1, 3)), (0,), 3),
        Node(2, Affine(w2, rng.uniform(-1, 1, 2)), (1,), 2),
    )
    g = Graph(nodes, 2)
    specs = {0: LpBall([0.3, -0.2], 0.5, math.inf)}
    lb, _ = compute_bounds(g, specs, BoundStrategy.BACKWARD)
    assert np.array_equal(lb.lower_w, lb.upper_w)
    assert np.array_equal(lb.lower_b, lb.upper_b)
    assert lb.lower_w == pytest.approx(w2 @ w1, abs=1e-12)


def test_affine_backward_step():
    op = Affine(np.array([[-2.0, 1.0]]), np.zeros(1))
    lams, d_lo, d_up = op.backward(np.eye(1), np.eye(1), None)
    assert lams[0][0] == pytest.approx(np.array([[-2.0, 1.0]]), abs=0.0)
    assert lams[0][1] == pytest.approx(np.array([[-2.0, 1.0]]), abs=0.0)
    assert d_lo == pytest.approx([0.0]) and d_up == pytest.approx([0.0])


def test_stable_active_relu_lines_step_is_identity():
    a = np.array([[0.5, -1.5]])
    box = IntervalBounds([1.0, 2.0], [3.0, 4.0])
    lams, d_lo, d_up = ReLU().relax([box], ReluLowerMode.ADAPTIVE).backward(a, a, None)
    assert np.array_equal(lams[0][0], a)
    assert np.array_equal(lams[0][1], a)
    assert np.all(d_lo == 0.0) and np.all(d_up == 0.0)


def test_demo_second_relu_then_affine_backward_steps():
    # composite step of the demo net: relu over [-36,28]x[0,170/7], then W2
    a = np.array([[-2.0, 1.0]])
    box = IntervalBounds([-36.0, 0.0], [28.0, 170.0 / 7.0])
    lams, d_lo, d_up = ReLU().relax([box], ReluLowerMode.ZERO).backward(a, a, None)
    assert lams[0][0] == pytest.approx(np.array([[-0.875, 1.0]]), abs=1e-12)
    assert lams[0][1] == pytest.approx(np.array([[0.0, 1.0]]), abs=1e-12)
    assert d_lo[0] == pytest.approx(-31.5, abs=1e-12)
    assert d_up[0] == pytest.approx(0.0, abs=0.0)
    w2 = Affine(np.array([[4.0, -2.0], [2.0, 1.0]]), np.zeros(2))
    lams2, _, _ = w2.backward(lams[0][0], lams[0][1], None)
    assert lams2[0][0] == pytest.approx(np.array([[-1.5, 2.75]]), abs=1e-12)
    assert lams2[0][1] == pytest.approx(np.array([[2.0, 1.0]]), abs=1e-12)


def _dependent_ids(g):
    return [n.id for n in g.nodes if n.op.arity > 0]


def _reachable_to(g, o):
    seen = {o}
    stack = [o]
    while stack:
        for j in g.nodes[stack.pop()].inputs:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def test_backward_coefficients_vanish_on_dependents():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        g, specs = random_graph(rng)
        state = run_backward(g, g.output, None, lines_ops(g, g.output, node_intervals(g, specs)))
        reachable = _reachable_to(g, g.output)
        for i in _dependent_ids(g):
            coeff = state.lower_coeff.get(i)
            if coeff is not None:
                assert np.all(coeff == 0.0), f"node {i} kept nonzero lower coefficients"
                assert np.all(state.upper_coeff[i] == 0.0)
        expected_pops = sorted(i for i in reachable if g.nodes[i].op.arity > 0)
        popped_dependents = sorted(i for i in state.pop_order if g.nodes[i].op.arity > 0)
        assert popped_dependents == expected_pops
        assert len(set(state.pop_order)) == len(state.pop_order)


def test_strategies_agree_on_affine_only_graph():
    # without sign cancellation between layers the interval sweep is exact
    # too, so every strategy lands on the same bounds
    rng = np.random.default_rng(1)
    w1 = rng.uniform(0, 1, (3, 2))
    w2 = rng.uniform(0, 1, (1, 3))
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, Affine(w1, rng.uniform(-1, 1, 3)), (0,), 3),
        Node(2, Affine(w2, rng.uniform(-1, 1, 1)), (1,), 1),
    )
    g = Graph(nodes, 2)
    specs = {0: LpBall([0.1, 0.4], 0.3, math.inf)}
    boxes = [compute_bounds(g, specs, s)[1] for s in ALL_STRATEGIES]
    for box in boxes[1:]:
        assert box.lower == pytest.approx(boxes[0].lower, abs=1e-9)
        assert box.upper == pytest.approx(boxes[0].upper, abs=1e-9)


def test_linear_strategies_agree_exactly_on_signed_affine_chain():
    # with mixed signs the linear strategies still compose exactly; the
    # interval sweep may only be wider (wrapping effect)
    rng = np.random.default_rng(8)
    w1 = rng.uniform(-1, 1, (3, 2))
    w2 = rng.uniform(-1, 1, (1, 3))
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, Affine(w1, rng.uniform(-1, 1, 3)), (0,), 3),
        Node(2, Affine(w2, rng.uniform(-1, 1, 1)), (1,), 1),
    )
    g = Graph(nodes, 2)
    specs = {0: LpBall([0.1, 0.4], 0.3, math.inf)}
    linear = [
        compute_bounds(g, specs, s)[1]
        for s in (BoundStrategy.FORWARD, BoundStrategy.BACKWARD, BoundStrategy.IBP_BACKWARD)
    ]
    exact_w = w2 @ w1
    center = exact_w @ np.array([0.1, 0.4]) + w2 @ nodes[1].op.bias + nodes[2].op.bias
    radius = 0.3 * np.abs(exact_w).sum(axis=1)
    for box in linear:
        assert box.lower == pytest.approx(center - radius, abs=1e-9)
        assert box.upper == pytest.approx(center + radius, abs=1e-9)
    ibp = compute_bounds(g, specs, BoundStrategy.IBP)[1]
    assert np.all(ibp.lower <= linear[0].lower + 1e-12)
    assert np.all(ibp.upper >= linear[0].upper - 1e-12)


def test_strategy_widths_ordered_on_demo_net():
    g, specs = demo_net()
    widths = {}
    for strategy in (BoundStrategy.IBP, BoundStrategy.FORWARD, BoundStrategy.BACKWARD):
        _, box = compute_bounds(g, specs, strategy, relu_mode=ReluLowerMode.ZERO)
        widths[strategy] = float(box.upper[0] - box.lower[0])
    assert widths[BoundStrategy.BACKWARD] == pytest.approx(66.28, abs=0.02)
    assert widths[BoundStrategy.FORWARD] == pytest.approx(80.29, abs=0.02)
    assert widths[BoundStrategy.IBP] == pytest.approx(88.0, abs=0.0)
    assert (
        widths[BoundStrategy.BACKWARD]
        <= widths[BoundStrategy.FORWARD]
        <= widths[BoundStrategy.IBP]
    )


def test_ibp_backward_demo_net_regression():
    # frozen regression value: with IBP intermediates, this instance happens
    # to reproduce the tight hybrid numbers because the crossing pattern of
    # every ReLU matches
    g, specs = demo_net()
    _, box = compute_bounds(g, specs, BoundStrategy.IBP_BACKWARD, relu_mode=ReluLowerMode.ZERO)
    assert box.lower[0] == pytest.approx(-42.0, abs=1e-9)
    assert box.upper[0] == pytest.approx(170.0 / 7.0, abs=1e-9)


def test_identity_graph_backward_gives_input_box():
    g = Graph((Node(0, Input(), (), 2),), 0)
    specs = {0: LpBall([1.0, 2.0], 0.5, math.inf)}
    lb, box = compute_bounds(g, specs, BoundStrategy.BACKWARD)
    assert np.array_equal(lb.lower_w, np.eye(2))
    assert box.lower == pytest.approx([0.5, 1.5])
    assert box.upper == pytest.approx([1.5, 2.5])


def test_out_coeff_equals_appended_affine_output():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g, specs = random_graph(rng)
        out_dim = g.nodes[g.output].dim
        coeff = rng.uniform(-1, 1, (2, out_dim))
        via_coeff = compute_bounds(g, specs, BoundStrategy.IBP_BACKWARD, g.output, coeff)[0]
        extended = Graph(
            g.nodes + (Node(len(g.nodes), Affine(coeff, np.zeros(2)), (g.output,), 2),),
            len(g.nodes),
        )
        via_graph = compute_bounds(extended, specs, BoundStrategy.IBP_BACKWARD, extended.output)[0]
        assert np.array_equal(via_coeff.lower_w, via_graph.lower_w)
        assert np.array_equal(via_coeff.upper_w, via_graph.upper_w)
        assert np.array_equal(via_coeff.lower_b, via_graph.lower_b)
        assert np.array_equal(via_coeff.upper_b, via_graph.upper_b)


def test_out_coeff_nonnegative_diagonal_composes():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g, specs = random_graph(rng)
        out_dim = g.nodes[g.output].dim
        scale = rng.uniform(0, 2, out_dim)
        identity = compute_bounds(g, specs, BoundStrategy.IBP_BACKWARD, g.output)[0]
        scaled = compute_bounds(g, specs, BoundStrategy.IBP_BACKWARD, g.output, np.diag(scale))[0]
        assert scaled.lower_w == pytest.approx(scale[:, None] * identity.lower_w, rel=1e-9, abs=1e-12)
        assert scaled.upper_w == pytest.approx(scale[:, None] * identity.upper_w, rel=1e-9, abs=1e-12)
        assert scaled.lower_b == pytest.approx(scale * identity.lower_b, rel=1e-9, abs=1e-12)
        assert scaled.upper_b == pytest.approx(scale * identity.upper_b, rel=1e-9, abs=1e-12)


def test_out_coeff_nonnegative_rows_at_least_as_tight_as_composition():
    # a merged pass never loses to composing per-row bounds afterwards
    rng = np.random.default_rng(5)
    from lirpa import InputLayout, concretize_bounds

    for _ in range(10):
        g, specs = random_graph(rng)
        out_dim = g.nodes[g.output].dim
        coeff = rng.uniform(0, 1, (2, out_dim))
        layout = InputLayout.from_specs(g, specs)
        merged = concretize_bounds(
            compute_bounds(g, specs, BoundStrategy.IBP_BACKWARD, g.output, coeff)[0], layout, specs
        )
        identity = concretize_bounds(
            compute_bounds(g, specs, BoundStrategy.IBP_BACKWARD, g.output)[0], layout, specs
        )
        assert np.all(merged.upper <= coeff @ identity.upper + 1e-9)
        assert np.all(merged.lower >= coeff @ identity.lower - 1e-9)


@pytest.mark.parametrize("strategy", list(BoundStrategy))
def test_malformed_out_coeff_raises_graph_error(strategy):
    # the demo net's output has one column; every strategy checks the shape up front
    g, specs = demo_net()
    with pytest.raises(GraphError, match=r"node 5: out_coeff must have 1 columns, got shape \(2, 3\)"):
        compute_bounds(g, specs, strategy, out_coeff=np.ones((2, 3)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("strategy", list(BoundStrategy))
def test_a_non_finite_out_coeff_raises_graph_error(strategy, value):
    # NaN used to surface as "bounds are NaN or inverted", and inf as [-inf, inf] under ibp
    g, specs = demo_net()
    for target in (g.output, 3):
        coeff = np.ones((2, g.nodes[target].dim))
        coeff[1, 0] = value
        with pytest.raises(GraphError, match=f"node {target}: out_coeff must be finite"):
            compute_bounds(g, specs, strategy, target, coeff)
    with pytest.raises(GraphError, match="node 5: out_coeff must be finite"):
        run_backward(g, g.output, np.array([[value]]))


def test_all_strategies_sound_randomized():
    rng = np.random.default_rng(6)
    for _ in range(15):
        g, specs = random_graph(rng)
        for strategy in ALL_STRATEGIES:
            _, box = compute_bounds(g, specs, strategy)
            assert_sound(g, specs, {g.output: box}, rng, n=1000)


def test_backward_linear_bounds_pointwise_sound():
    from helpers import assert_linear_sound

    rng = np.random.default_rng(16)
    for _ in range(15):
        g, specs = random_graph(rng)
        lb = compute_bounds(g, specs, BoundStrategy.IBP_BACKWARD)[0]
        assert_linear_sound(g, specs, {g.output: lb}, rng, n=1000)


def test_backward_synonym_input_uses_budget_aware_concretization():
    rng = np.random.default_rng(7)
    from lirpa import Synonym

    emb = {w: rng.uniform(-1, 1, 2) for w in ("a", "b", "a1", "b1")}
    spec = Synonym(("a", "b"), {0: ("a1",), 1: ("b1",)}, emb, budget=1)
    w = rng.uniform(-1, 1, (2, 4))
    nodes = (
        Node(0, Input(), (), 4),
        Node(1, Affine(w, np.zeros(2)), (0,), 2),
        Node(2, ReLU(), (1,), 2),
    )
    g = Graph(nodes, 2)
    specs = {0: spec}
    _, budget_box = compute_bounds(g, specs, BoundStrategy.IBP_BACKWARD)
    assert_sound(g, specs, {2: budget_box}, rng, n=500)
    # relaxing the budget to the full sentence can only widen the bound
    free = {0: Synonym(spec.words, spec.substitutions, spec.embeddings, 2)}
    _, free_box = compute_bounds(g, free, BoundStrategy.IBP_BACKWARD)
    assert np.all(free_box.lower <= budget_box.lower + 1e-12)
    assert np.all(free_box.upper >= budget_box.upper - 1e-12)


def test_strategies_handle_forward_id_references():
    # document order does not have to be topological
    rng = np.random.default_rng(19)
    w = rng.uniform(-1, 1, (2, 2))
    nodes = (
        Node(0, Affine(w, np.zeros(2)), (3,), 2),
        Node(1, ReLU(), (0,), 2),
        Node(2, Affine(rng.uniform(-1, 1, (1, 2)), np.zeros(1)), (1,), 1),
        Node(3, Input(), (), 2),
    )
    g = Graph(nodes, 2)
    specs = {3: LpBall([0.1, -0.2], 0.3, math.inf)}
    for strategy in ALL_STRATEGIES:
        _, box = compute_bounds(g, specs, strategy)
        assert_sound(g, specs, {2: box}, rng, n=500)


# one graph per relaxed op kind: node -2 holds that op as parsed, and an affine output reads it
_READ = Affine(np.ones((1, 2)), [0.0])
UNRELAXED = {
    "relu": (Node(0, Input(), (), 2), Node(1, ReLU(), (0,), 2), Node(2, _READ, (1,), 1)),
    "exp": (Node(0, Input(), (), 2), Node(1, Exp(), (0,), 2), Node(2, _READ, (1,), 1)),
    "log": (Node(0, Input(), (), 2), Node(1, Log(), (0,), 2), Node(2, _READ, (1,), 1)),
    "mul": (Node(0, Input(), (), 2), Node(1, MulElementwise(), (0, 0), 2), Node(2, _READ, (1,), 1)),
    "matvec": (
        Node(0, Input(), (), 6),
        Node(1, Input(), (), 3),
        Node(2, MatVec([0.0, 0.0]), (0, 1), 2),
        Node(3, _READ, (2,), 1),
    ),
}


@pytest.mark.parametrize("kind", sorted(UNRELAXED))
def test_an_unrelaxed_op_fails_closed_in_every_rule(kind):
    # no rule reads a relaxed op as parsed: it must be relaxed on its input intervals first
    g = Graph(UNRELAXED[kind], len(UNRELAXED[kind]) - 1)
    relaxed = g.output - 1
    op = g.nodes[relaxed].op
    assert op.kind == kind and op.relaxed
    for o in (relaxed, g.output):  # as the pass's target, and reached through the affine output
        with pytest.raises(GraphError, match="must be relaxed"):
            run_backward(g, o)
    # and it has no rule to step it by until it is relaxed
    assert not hasattr(op, "forward") and not hasattr(op, "backward")


def _reference_backward_steps(g, o, ops):
    """Step-by-step replica of a pass from o by ``lines_ops``, in its pop order, by each op's ``backward`` rule.

    Yields (lower_coeff, upper_coeff, d_lo, d_up) snapshots after each pop so
    the running sandwich can be checked, then the final state.
    """
    dim = g.nodes[o].dim
    lower = {o: np.eye(dim)}
    upper = {o: np.eye(dim)}
    d_lo = np.zeros(dim)
    d_up = np.zeros(dim)
    for i in g.pop_order(o):
        node = g.nodes[i]
        if isinstance(node.op, Input):
            continue
        lams, step_lo, step_up = ops[i].backward(lower[i], upper[i], g.nodes[node.inputs[0]].dim)
        for j, (lam_lo, lam_up) in zip(node.inputs, lams):
            lower[j] = lower.get(j, 0.0) + lam_lo
            upper[j] = upper.get(j, 0.0) + lam_up
        d_lo = d_lo + step_lo
        d_up = d_up + step_up
        lower[i] = np.zeros_like(lower[i])
        upper[i] = np.zeros_like(upper[i])
        yield lower, upper, d_lo, d_up


def test_backward_sandwich_holds_at_every_step():
    # the running linear combination of node values brackets the output
    # after every single propagation step, not just at termination
    from helpers import sample_points

    rng = np.random.default_rng(17)
    from lirpa import evaluate

    for _ in range(10):
        g, specs = random_graph(rng, max_nodes=8, max_dim=3)
        intermediate = node_intervals(g, specs)
        values = sample_points(g, specs, rng, 200)
        node_values = evaluate(g, values)
        target = node_values[g.output]
        for lower, upper, d_lo, d_up in _reference_backward_steps(
            g, g.output, lines_ops(g, g.output, intermediate)
        ):
            lhs = d_lo[:, None] + sum(
                a @ node_values[i] for i, a in lower.items() if np.any(a)
            )
            rhs = d_up[:, None] + sum(
                a @ node_values[i] for i, a in upper.items() if np.any(a)
            )
            assert np.all(lhs <= target + 1e-7)
            assert np.all(target <= rhs + 1e-7)


def test_run_backward_matches_stepwise_reference():
    rng = np.random.default_rng(18)
    for _ in range(10):
        g, specs = random_graph(rng, max_nodes=10, max_dim=3)
        intermediate = node_intervals(g, specs)
        final = None
        ops = lines_ops(g, g.output, intermediate)
        for final in _reference_backward_steps(g, g.output, ops):
            pass
        lower, upper, d_lo, d_up = final
        state = run_backward(g, g.output, None, ops)
        assert np.array_equal(state.lower_bias, d_lo)
        assert np.array_equal(state.upper_bias, d_up)
        for i in g.input_ids:
            mine = state.lower_coeff.get(i)
            ref = lower.get(i)
            if mine is None or ref is None:
                assert mine is None and (ref is None or not np.any(ref))
            else:
                assert np.array_equal(mine, ref)
                assert np.array_equal(state.upper_coeff[i], upper[i])


def test_backward_supplier_matches_manual():
    g, specs = demo_net()
    query = BoundQuery(g, specs, BoundStrategy.BACKWARD, ReluLowerMode.ZERO)
    query.bound(g.output)
    supplied = query.intervals  # a backward supplier fills only the relu operands' intervals
    assert set(supplied) == {1, 3}
    assert supplied[1].lower == pytest.approx([-5.0, -10.0], abs=1e-9)
    assert supplied[1].upper == pytest.approx([7.0, 18.0], abs=1e-9)
    assert supplied[3].lower == pytest.approx([-36.0, 0.0], abs=1e-9)
    assert supplied[3].upper == pytest.approx([28.0, 170.0 / 7.0], abs=1e-9)


def _synonym_mul_graph(rng):
    emb = {w: rng.uniform(-1, 1, 2) for w in ("a", "b", "a1", "a2", "b1")}
    spec = Synonym(("a", "b"), {0: ("a1", "a2"), 1: ("b1",)}, emb, budget=1)
    nodes = (
        Node(0, Input(), (), 4),
        Node(1, Affine(rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, 3)), (0,), 3),
        Node(2, ReLU(), (1,), 3),
        Node(3, Affine(rng.uniform(-1, 1, (3, 3)), np.zeros(3)), (2,), 3),
        Node(4, MulElementwise(), (2, 3), 3),
    )
    return Graph(nodes, 4), {0: spec}


def test_forward_supplier_reuses_forward_pass_intervals():
    rng = np.random.default_rng(23)
    problems = [random_graph(rng) for _ in range(30)] + [_synonym_mul_graph(rng)]
    checked = 0
    for g, specs in problems:
        layout = InputLayout.from_specs(g, specs)
        fwd = node_forward(g, specs, ReluLowerMode.ZERO)
        for strategy in (BoundStrategy.FORWARD, BoundStrategy.FORWARD_BACKWARD):
            query = BoundQuery(g, specs, strategy, ReluLowerMode.ZERO)
            query.bound(g.output)  # caches the intervals its relaxations read
            for j, box in query.intervals.items():
                want = concretize_bounds(fwd[j], layout, specs)
                assert np.array_equal(box.lower, want.lower)
                assert np.array_equal(box.upper, want.upper)
                checked += 1
    assert checked > 50


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("strategy", [s for s in BoundStrategy if s is not BoundStrategy.IBP])
def test_nan_bounds_raise_domain_error(strategy):
    # exp overflows to inf and a linear strategy's products turn a zero weight into 0 * inf = NaN
    # (IBP's affine rule reads no end by a zero weight: test_interval.py)
    nodes = (
        Node(0, Input(), (), 1),
        Node(1, Affine([[1000.0]], [0.0]), (0,), 1),
        Node(2, Exp(), (1,), 1),
        Node(3, Affine([[0.0]], [0.0]), (2,), 1),
    )
    g = Graph(nodes, 3)
    specs = {0: LpBall([0.0], 1.0, math.inf)}
    with pytest.raises(DomainError, match="NaN or inverted"):
        compute_bounds(g, specs, strategy)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("strategy", list(BoundStrategy))
def test_nan_intervals_fail_closed_where_they_enter_the_query(strategy):
    # over x in [-1000, 1000], exp(x) reaches inf: the linear strategies' lines at node 1 read inf - inf = NaN;
    # IBP's mul takes 0 * inf as 0, so node 4's interval is [0, inf], and ibp+backward meets NaN in its final pass
    nodes = (
        Node(0, Input(), (), 1),
        Node(1, Exp(), (0,), 1),
        Node(2, Neg(), (0,), 1),
        Node(3, Exp(), (2,), 1),
        Node(4, MulElementwise(), (1, 3), 1),
        Node(5, ReLU(), (4,), 1),
        Node(6, Affine([[1.0]], [0.0]), (5,), 1),
    )
    g, specs = Graph(nodes, 6), {0: LpBall([0.0], 1000.0, math.inf)}
    at = lambda i: re.escape(f"node {i}: {strategy.value} bounds are NaN or inverted")
    if strategy in (BoundStrategy.IBP, BoundStrategy.IBP_BACKWARD):
        boxes = [node_intervals(g, specs, strategy)[4]]
        if strategy is BoundStrategy.IBP:
            boxes.append(compute_bounds(g, specs, strategy)[1])
        else:
            with pytest.raises(DomainError, match=at(6)):
                compute_bounds(g, specs, strategy)
        assert all(box.lower.tolist() == [0.0] and box.upper.tolist() == [math.inf] for box in boxes)
        return
    with pytest.raises(DomainError, match=at(1)):
        compute_bounds(g, specs, strategy)
    with pytest.raises(DomainError, match=at(1)):
        node_intervals(g, specs, strategy)
    with pytest.raises(DomainError, match=at(1)):
        BoundQuery(g, specs, strategy).forward(g.output)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("strategy", [BoundStrategy.IBP, BoundStrategy.IBP_BACKWARD])
def test_a_nan_interval_fails_closed_at_the_node_whose_interval_it_is(strategy):
    # over x in [1000, 2000], exp(x) is [inf, inf]: node 3's interval sums inf and -inf, which is NaN
    nodes = (
        Node(0, Input(), (), 1),
        Node(1, Exp(), (0,), 1),
        Node(2, Affine([[1.0], [-1.0]], [0.0, 0.0]), (1,), 2),
        Node(3, Affine([[1.0, 1.0]], [0.0]), (2,), 1),
        Node(4, ReLU(), (3,), 1),
        Node(5, Affine([[1.0]], [0.0]), (4,), 1),
    )
    g, specs = Graph(nodes, 5), {0: LpBall([1500.0], 500.0, math.inf)}
    at = re.escape(f"node 3: {strategy.value} bounds are NaN or inverted")
    with pytest.raises(DomainError, match=at):
        compute_bounds(g, specs, strategy)
    with pytest.raises(DomainError, match=at):
        node_intervals(g, specs, strategy)
    with pytest.raises(DomainError, match=at):
        BoundQuery(g, specs, strategy).forward(g.output)


def test_identity_seed_on_affine_target_equals_explicit_identity():
    # the pass starts from the affine target's own weight: bit for bit the I @ W one
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(40):
        g, specs = random_graph(rng)
        for o, node in enumerate(g.nodes):
            if not isinstance(node.op, Affine):
                continue
            default = compute_bounds(g, specs, BoundStrategy.IBP_BACKWARD, o)[0]
            explicit = compute_bounds(g, specs, BoundStrategy.IBP_BACKWARD, o, np.eye(node.dim))[0]
            for name in ("lower_w", "lower_b", "upper_w", "upper_b"):
                assert np.array_equal(getattr(default, name), getattr(explicit, name))
            checked += 1
    assert checked > 20


def test_run_backward_hands_out_read_only_weights():
    g = Graph((Node(0, Input(), (), 2), Node(1, Affine([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5]), (0,), 2)), 1)
    state = run_backward(g, 1)
    with pytest.raises(ValueError):
        state.lower_coeff[0][0, 0] = 5.0
    assert g.nodes[1].op.weight[0, 0] == 1.0


def test_a_second_query_on_a_graph_builds_no_node_and_computes_no_order(monkeypatch):
    # the graph keeps its order, users and pop orders, and a pass steps by ops, not by rebuilt nodes
    g, specs = demo_net()
    built, node_init, graph_init = [], Node.__post_init__, Graph.__post_init__
    for strategy in BoundStrategy:
        compute_bounds(g, specs, strategy)
    cached = dict(g._pop_orders)
    monkeypatch.setattr(Node, "__post_init__", lambda node: built.append(node) or node_init(node))
    monkeypatch.setattr(Graph, "__post_init__", lambda graph: built.append(graph) or graph_init(graph))
    for strategy in BoundStrategy:
        for mode in ReluLowerMode:
            query = BoundQuery(g, specs, strategy, mode)
            query.bound(g.output)
            query.bound(g.output, np.ones((2, 1)))
            assert query._pass_ops or strategy in (BoundStrategy.IBP, BoundStrategy.FORWARD)
    assert built == [] and g._pop_orders == cached


def test_a_second_query_on_a_graph_computes_no_pop_order():
    # each computed pop order is stored in the graph's cache once: a spy on the stores counts the computations
    g, specs = demo_net()
    computed = []

    class Spy(dict):
        def __setitem__(self, o, order):
            computed.append(o)
            super().__setitem__(o, order)

    object.__setattr__(g, "_pop_orders", Spy())
    for _ in range(2):  # the second query reads the first one's orders
        compute_bounds(g, specs, BoundStrategy.BACKWARD)
        assert sorted(computed) == [1, 3, 5]  # the output's pass and those of the two ReLUs' operands
    for strategy in BoundStrategy:
        for target in range(len(g.nodes)):
            compute_bounds(g, specs, strategy, target)
    assert sorted(computed) == list(range(len(g.nodes)))  # a pass from every node, each order computed once
    state = run_backward(g, g.output, None, lines_ops(g, g.output, node_intervals(g, specs)))
    assert state.pop_order is g.pop_order(g.output) and len(computed) == len(g.nodes)


@pytest.mark.parametrize("target", [-1, len(demo_net()[0].nodes), True, 2.0])
@pytest.mark.parametrize("strategy", list(BoundStrategy))
def test_an_invalid_target_fails_closed(strategy, target):
    # not a node id: a negative one would index from the end, and True would bound node 1
    g, specs = demo_net()
    message = re.escape(f"node id {target!r} is not an integer in [0, {len(g.nodes)})")
    with pytest.raises(GraphError, match=message):
        compute_bounds(g, specs, strategy, target)
    for walk in (lambda o: run_backward(g, o), g.pop_order):  # the query's own walks check it too
        with pytest.raises(GraphError, match=message):
            walk(target)
    # on a fresh query and on one that has cached node 1, which True would hit
    cached = BoundQuery(g, specs, strategy)
    cached.bound(g.output)
    cached.forward(g.output)
    assert 1 in cached.intervals and 1 in cached._forward
    for entry, args in (("bound", ()), ("interval", ()), ("forward", ()), ("box", (None, "x"))):
        for query in (BoundQuery(g, specs, strategy), cached):
            with pytest.raises(GraphError, match=message):
                getattr(query, entry)(target, *args)
    # a numpy integer is one
    assert _same_bits(compute_bounds(g, specs, strategy, np.int64(3))[1], compute_bounds(g, specs, strategy, 3)[1])


@pytest.mark.parametrize("strategy", list(BoundStrategy))
def test_node_bound_ignores_nodes_after_it(strategy):
    # log over [-1, 1] is out of domain, but node 1 comes before it and must not read it
    nodes = (
        Node(0, Input(), (), 1),
        Node(1, Affine([[1.0]], [0.0]), (0,), 1),
        Node(2, Log(), (1,), 1),
        Node(3, Affine([[1.0]], [0.0]), (2,), 1),
    )
    g = Graph(nodes, 3)
    specs = {0: LpBall([0.0], 1.0, math.inf)}
    query = BoundQuery(g, specs, strategy)
    _, box = query.bound(1)
    assert box.lower.tolist() == [-1.0] and box.upper.tolist() == [1.0]
    assert set(query.intervals) <= {0, 1}
    with pytest.raises(DomainError):
        compute_bounds(g, specs, strategy)


def _same_bits(a: IntervalBounds, b: IntervalBounds) -> bool:
    return a.lower.tobytes() == b.lower.tobytes() and a.upper.tobytes() == b.upper.tobytes()


@pytest.mark.parametrize("strategy", list(BoundStrategy))
def test_node_boxes_of_one_query_equal_per_node_compute_bounds(strategy):
    # every node read from one shared query, in any order, is bit for bit its own compute_bounds box;
    # a synonym input feeding a relu is cached as its spec's box
    rng = np.random.default_rng(41)
    problems = [demo_net()] + [random_graph(rng) for _ in range(50)]
    for budget in (0, 1, 2):
        emb = {w: rng.uniform(-1, 1, 2) for w in ("a", "b", "a1", "a2", "b1")}
        spec = Synonym(("a", "b"), {0: ("a1", "a2"), 1: ("b1",)}, emb, budget)
        affine = Affine(rng.uniform(-1, 1, (2, 4)), np.zeros(2))
        nodes = (Node(0, Input(), (), 4), Node(1, ReLU(), (0,), 4), Node(2, affine, (1,), 2))
        problems.append((Graph(nodes, 2), {0: spec}))
    for g, specs in problems:
        query = BoundQuery(g, specs, strategy, ReluLowerMode.ZERO)
        _, out_box = query.bound(g.output)
        for i in [g.output, *g.order]:
            box = out_box if i == g.output else query.node_box(i)
            alone = compute_bounds(g, specs, strategy, i, None, ReluLowerMode.ZERO)[1]
            assert _same_bits(box, alone), (strategy, i)


def test_input_layout_built_once_per_query(monkeypatch):
    from lirpa import MarginSpec, bound_loss_fused, bound_loss_unfused, flatness_score, fused_loss_report
    from helpers import random_classifier

    calls = []
    from_specs = InputLayout.from_specs.__func__

    def counting(cls, g, specs):
        calls.append(g)
        return from_specs(cls, g, specs)

    monkeypatch.setattr(InputLayout, "from_specs", classmethod(counting))
    g, specs = random_classifier(np.random.default_rng(43), 3)
    margin = MarginSpec(1, 3)
    entry_points = [
        lambda: compute_bounds(g, specs, strategy, out_coeff=np.eye(3)),
        lambda: node_intervals(g, specs, strategy),
        lambda: bound_loss_unfused(g, specs, margin, strategy),
        lambda: bound_loss_fused(g, specs, margin, strategy),
        lambda: fused_loss_report(g, specs, margin, strategy),
    ]
    for strategy in BoundStrategy:
        for run in entry_points:
            calls.clear()
            run()
            assert len(calls) == 1
        calls.clear()
        flatness_score(g, 0.01, [({0: specs[0].center}, 0), ({0: -specs[0].center}, 2)], strategy)
        assert len(calls) == 2  # one query per example


@pytest.mark.parametrize("mode", ["zero", None, 0, "bogus"])
def test_an_unknown_relu_mode_fails_closed(mode):
    # a mode that is not a ReluLowerMode used to run ADAPTIVE silently
    from lirpa import MarginSpec, flatness_score, fused_loss_report, relu_relaxation
    from helpers import random_classifier

    g, specs = demo_net()
    c, c_specs = random_classifier(np.random.default_rng(44), 3)
    calls = [
        lambda strategy: compute_bounds(g, specs, strategy, relu_mode=mode),
        lambda strategy: fused_loss_report(c, c_specs, MarginSpec(0, 3), strategy, mode),
        lambda strategy: flatness_score(c, 0.01, [({0: c_specs[0].center}, 0)], strategy, mode),
    ]
    for strategy in BoundStrategy:
        for call in calls:
            with pytest.raises(GraphError, match="unknown ReLU lower mode"):
                call(strategy)
    with pytest.raises(GraphError, match="unknown ReLU lower mode"):
        relu_relaxation(np.array([-1.0]), np.array([1.0]), mode)


@pytest.mark.parametrize("strategy", list(BoundStrategy))
def test_a_relu_interval_wider_than_the_float_range_keeps_its_chord(strategy):
    # the pre-activation is [-1e308, 1e308]: its width overflows, yet the ReLU reaches 1e308 at x = 1
    nodes = (Node(0, Input(), (), 1), Node(1, Affine([[1e308]], [0.0]), (0,), 1), Node(2, ReLU(), (1,), 1))
    g, specs = Graph(nodes, 2), {0: LpBall([0.0], 1.0, math.inf)}
    for mode in ReluLowerMode:
        box = compute_bounds(g, specs, strategy, relu_mode=mode)[1]
        assert box.lower[0] <= 0.0 and box.upper[0] >= 1e308
