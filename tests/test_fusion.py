import math
import re

import numpy as np
import pytest

from helpers import ce_loss, demo_net, dense_weight_perturbed_graph, random_classifier, sample_points
from lirpa import fusion, ops
from lirpa import (
    Affine,
    BoundStrategy,
    Constant,
    DomainError,
    Graph,
    GraphError,
    Input,
    IntervalBounds,
    LpBall,
    MarginSpec,
    MulElementwise,
    Node,
    ReLU,
    ReluLowerMode,
    bound_loss_fused,
    bound_loss_unfused,
    build_fused_loss_graph,
    compute_bounds,
    evaluate,
    flatness_score,
    fused_loss_report,
    margin_transform,
    weight_perturbed_graph,
)
from lirpa.backward import BoundQuery
from lirpa.ops import MatVec


def test_margin_transform_three_classes():
    m = margin_transform(0, 3)
    assert np.array_equal(m, np.array([[0, 0, 0], [1, -1, 0], [1, 0, -1]], dtype=float))


def test_margin_transform_single_class():
    assert np.array_equal(margin_transform(0, 1), np.array([[0.0]]))


def test_margin_transform_applied_to_logits():
    m = margin_transform(1, 3)
    assert m @ np.array([2.0, 5.0, 1.0]) == pytest.approx([3.0, 0.0, 4.0])


def test_margin_transform_rejects_bad_label():
    with pytest.raises(GraphError):
        margin_transform(3, 3)


def _two_class_net(rng):
    return random_classifier(rng, 2)


def test_fused_graph_shape():
    rng = np.random.default_rng(0)
    g, _ = _two_class_net(rng)
    fused = build_fused_loss_graph(g, MarginSpec(0, 2))
    assert len(fused.nodes) == len(g.nodes) + 3
    assert fused.nodes[fused.output].dim == 1
    kinds = [n.op.kind for n in fused.nodes[len(g.nodes):]]
    assert kinds == ["affine", "exp", "sum_reduce"]


def test_fused_graph_evaluates_to_exp_margin_sum():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g, _ = random_classifier(rng, int(rng.integers(2, 6)))
        k = g.nodes[g.output].dim
        y = int(rng.integers(0, k))
        fused = build_fused_loss_graph(g, MarginSpec(y, k))
        x = rng.uniform(-1, 1, g.nodes[0].dim)
        logits = evaluate(g, {0: x})[g.output]
        s = evaluate(fused, {0: x})[fused.output]
        assert s[0] == pytest.approx(np.sum(np.exp(logits - logits[y])), rel=1e-12)
        assert math.log(s[0]) == pytest.approx(ce_loss(logits, y), abs=1e-12)


def test_fused_symmetric_logits():
    # two equal logits: S = 2, loss = log 2
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, Affine(np.zeros((2, 2)), np.zeros(2)), (0,), 2),
    )
    g = Graph(nodes, 1)
    fused = build_fused_loss_graph(g, MarginSpec(0, 2))
    s = evaluate(fused, {0: np.array([3.0, -1.0])})[fused.output]
    assert s[0] == pytest.approx(2.0)


def test_fused_bound_zero_radius_is_exact_loss():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g, specs = random_classifier(rng, 3, eps=0.0)
        y = int(rng.integers(0, 3))
        fused = bound_loss_fused(g, specs, MarginSpec(y, 3))
        logits = evaluate(g, {0: specs[0].center})[g.output]
        assert fused == pytest.approx(ce_loss(logits, y), abs=1e-9)


def test_unfused_bound_zero_radius_is_exact():
    rng = np.random.default_rng(3)
    g, specs = random_classifier(rng, 4, eps=0.0)
    y = 2
    bound, margins = bound_loss_unfused(g, specs, MarginSpec(y, 4))
    logits = evaluate(g, {0: specs[0].center})[g.output]
    assert margins == pytest.approx(logits[y] - logits, abs=1e-9)
    assert bound == pytest.approx(ce_loss(logits, y), abs=1e-9)


def test_single_class_loss_is_zero():
    rng = np.random.default_rng(4)
    g, specs = random_classifier(rng, 1)
    fused = bound_loss_fused(g, specs, MarginSpec(0, 1))
    assert fused == pytest.approx(0.0, abs=1e-12)


def test_fused_never_exceeds_unfused_with_shared_bounds():
    for strategy in BoundStrategy:
        for relu_mode in ReluLowerMode:
            rng = np.random.default_rng(5)
            for _ in range(100):
                k = int(rng.integers(2, 6))
                g, specs = random_classifier(rng, k)
                y = int(rng.integers(0, k))
                report = fused_loss_report(g, specs, MarginSpec(y, k), strategy, relu_mode)
                assert report.fused_upper <= report.unfused_upper + 1e-9
                # both dominate the sampled robust loss
                values = sample_points(g, specs, rng, 200)
                logits = evaluate(g, values)[g.output]
                losses = np.log(np.sum(np.exp(logits - logits[y]), axis=0))
                assert losses.max() <= report.fused_upper + 1e-7
                assert losses.max() <= report.unfused_upper + 1e-7


def test_fused_loss_report_runs_the_supplier_once(monkeypatch):
    # one query serves the margin and the fused pass, and supplies each node once
    calls = []
    supply = BoundQuery._supply

    def counting(query, i):
        calls.append((id(query), query.strategy, i))
        return supply(query, i)

    monkeypatch.setattr(BoundQuery, "_supply", counting)
    g, specs = random_classifier(np.random.default_rng(12), 4)
    for strategy in BoundStrategy:
        calls.clear()
        fused_loss_report(g, specs, MarginSpec(1, 4), strategy)
        assert calls and {(q, s) for q, s, _ in calls} == {(calls[0][0], strategy)}
        assert len({i for *_, i in calls}) == len(calls)  # no node supplied twice


def test_scalar_output_padded_to_two_classes():
    # pad the scalar demo net with a second, constant-zero logit: the margin
    # for the padded class is the scalar output itself, so the surrogate
    # becomes log(1 + exp(-lower))
    g, specs = demo_net()
    pad = Affine(np.array([[1.0], [0.0]]), np.zeros(2))
    padded = Graph(
        g.nodes + (Node(len(g.nodes), pad, (g.output,), 2),),
        len(g.nodes),
    )
    bound, margins = bound_loss_unfused(
        padded, specs, MarginSpec(0, 2), BoundStrategy.FORWARD_BACKWARD, ReluLowerMode.ZERO
    )
    assert margins[0] == pytest.approx(0.0, abs=0.0)
    assert margins[1] == pytest.approx(-42.0, abs=1e-9)
    assert bound == pytest.approx(math.log(1.0 + math.exp(42.0)), rel=1e-12)


def test_fused_bound_overflow_guard_returns_infinity():
    # the exp input's upper bound is in the thousands, far past the cap; no
    # supplier may evaluate exp there, and both loss bounds must come out +inf
    # rather than overflow (a numpy warning fails the suite)
    rng = np.random.default_rng(6)
    g, specs = random_classifier(rng, 3, eps=1e4)
    margin = MarginSpec(0, 3)
    for strategy in BoundStrategy:
        report = fused_loss_report(g, specs, margin, strategy)
        bounds = (
            bound_loss_fused(g, specs, margin, strategy),
            report.fused_upper,
            report.unfused_upper,
            bound_loss_unfused(g, specs, margin, strategy)[0],
        )
        assert bounds == (math.inf,) * 4, strategy


def _tiny_net(rng):
    w1 = rng.uniform(-1, 1, (2, 2))
    w2 = rng.uniform(-1, 1, (2, 2))
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, Affine(w1, np.zeros(2)), (0,), 2),
        Node(2, ReLU(), (1,), 2),
        Node(3, Affine(w2, np.zeros(2)), (2,), 2),
    )
    return Graph(nodes, 3)


def test_weight_perturbed_graph_matches_original_at_nominal_weights():
    rng = np.random.default_rng(7)
    g = _tiny_net(rng)
    wg, weight_specs, mapping = weight_perturbed_graph(g, 0.05)
    x = rng.uniform(-1, 1, 2)
    values = {i: np.asarray(s.center) for i, s in weight_specs.items()}
    values[mapping[0]] = x
    original = evaluate(g, {0: x})[g.output]
    rewritten = evaluate(wg, values)[wg.output]
    assert rewritten == pytest.approx(original, abs=1e-12)


def test_weight_perturbed_graph_handles_forward_id_references():
    # document ids need not be topologically sorted
    rng = np.random.default_rng(11)
    w = rng.uniform(-1, 1, (2, 2))
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, Affine(w, np.zeros(2)), (2,), 2),  # refers ahead to node 2
        Node(2, ReLU(), (0,), 2),
    )
    g = Graph(nodes, 1)
    wg, weight_specs, mapping = weight_perturbed_graph(g, 0.01)
    x = rng.uniform(-1, 1, 2)
    values = {i: np.asarray(s.center) for i, s in weight_specs.items()}
    values[mapping[0]] = x
    assert evaluate(wg, values)[wg.output] == pytest.approx(
        evaluate(g, {0: x})[g.output], abs=1e-12
    )


def test_flatness_zero_radius_is_zero():
    rng = np.random.default_rng(8)
    g = _tiny_net(rng)
    batch = [({0: rng.uniform(-1, 1, 2)}, 0)]
    assert flatness_score(g, 0.0, batch) == pytest.approx(0.0, abs=1e-9)


def test_flatness_nonnegative_and_dominates_sampled_weight_gap():
    rng = np.random.default_rng(9)
    g = _tiny_net(rng)
    x = rng.uniform(-1, 1, 2)
    for y in (0, 1):
        for eps_bar in (0.01, 0.05):
            score = flatness_score(g, eps_bar, [({0: x}, y)])
            assert score >= -1e-9
            wg, weight_specs, mapping = weight_perturbed_graph(g, eps_bar)
            values = {i: s.sample(rng, 10_000) for i, s in weight_specs.items()}
            values[mapping[0]] = x
            logits = evaluate(wg, values)[wg.output]
            losses = np.log(np.sum(np.exp(logits - logits[y]), axis=0))
            nominal = ce_loss(evaluate(g, {0: x})[g.output], y)
            empirical_gap = float(losses.max() - nominal)
            assert score + 1e-7 >= empirical_gap


def test_flatness_batch_mean():
    rng = np.random.default_rng(10)
    g = _tiny_net(rng)
    entries = [({0: rng.uniform(-1, 1, 2)}, int(rng.integers(0, 2))) for _ in range(3)]
    singles = [flatness_score(g, 0.02, [e]) for e in entries]
    combined = flatness_score(g, 0.02, entries)
    assert combined == pytest.approx(float(np.mean(singles)), abs=1e-12)


def _wide_margin_net():
    # logits [x, -x] over x in [-348, 350]: label-0 margin interval [-700, 696]
    nodes = (Node(0, Input(), (), 1), Node(1, Affine([[1.0], [-1.0]], [0.0, 0.0]), (0,), 2))
    return Graph(nodes, 1), {0: LpBall([1.0], 349.0, math.inf)}


@pytest.mark.parametrize("strategy", list(BoundStrategy))
def test_fused_bound_finite_past_expm1_range(strategy):
    # the exp input interval [-700, 696] is wider than expm1 can take
    g, specs = _wide_margin_net()
    report = fused_loss_report(g, specs, MarginSpec(0, 2), strategy)
    assert report.unfused_upper == 696.0
    assert math.isfinite(report.fused_upper)
    assert 696.0 <= report.fused_upper <= report.unfused_upper + 1e-9
    assert bound_loss_fused(g, specs, MarginSpec(0, 2), strategy) == report.fused_upper


def test_flatness_is_infinite_when_the_nominal_loss_overflows():
    # logits [400, -400] with label 1: the nominal and the certified loss are both +inf
    g, _ = _wide_margin_net()
    assert flatness_score(g, 0.01, [({0: [400.0]}, 1)]) == math.inf
    assert flatness_score(g, 0.01, [({0: [400.0]}, 1), ({0: [0.0]}, 0)]) == math.inf


def _mul_classifier():
    # the mul relaxes over the input interval, which the patched supplier makes NaN
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, MulElementwise(), (0, 0), 2),
        Node(2, Affine([[1.0, -1.0], [0.5, 2.0], [-1.0, 0.0]], [0.0, 0.1, 0.2]), (1,), 3),
    )
    return Graph(nodes, 2), {0: LpBall([0.5, -0.5], 0.1, math.inf)}


@pytest.fixture
def nan_input_intervals(monkeypatch):
    """Make the supplier report NaN intervals for every input node."""
    supply = BoundQuery._supply

    def poisoned(query, i):
        out = supply(query, i)
        if isinstance(query.g.nodes[i].op, Input):
            nan = np.full_like(out.lower, np.nan)
            out = IntervalBounds(nan, nan)
        return out

    monkeypatch.setattr(BoundQuery, "_supply", poisoned)


@pytest.mark.usefixtures("nan_input_intervals")
@pytest.mark.parametrize("strategy", list(BoundStrategy))
def test_nan_supplier_intervals_raise_domain_error(strategy):
    # the query fails closed where the input's interval enters it
    g, specs = _mul_classifier()
    margin = MarginSpec(1, 3)
    at_input = re.escape(f"node 0: {strategy.value} bounds are NaN or inverted")
    with pytest.raises(DomainError, match=at_input):
        bound_loss_unfused(g, specs, margin, strategy)
    with pytest.raises(DomainError, match=at_input):
        fused_loss_report(g, specs, margin, strategy)
    with pytest.raises(DomainError, match=at_input):
        bound_loss_fused(g, specs, margin, strategy)
    with pytest.raises(DomainError, match=at_input):
        flatness_score(_tiny_net(np.random.default_rng(7)), 0.01, [({0: [0.5, -0.5]}, 0)], strategy)


def test_weight_perturbed_graph_is_one_weight_input_and_one_matvec_per_affine():
    rng = np.random.default_rng(13)
    g, _ = random_classifier(rng, 3)
    wg, weight_specs, mapping = weight_perturbed_graph(g, 0.01)
    affine = [n for n in g.nodes if isinstance(n.op, Affine)]
    kinds = [type(n.op) for n in wg.nodes]
    assert len(wg.nodes) == len(g.nodes) + len(affine)
    assert kinds.count(MatVec) == len(affine) and Affine not in kinds
    for n in affine:
        matvec = wg.nodes[mapping[n.id]]
        wid, xid = matvec.inputs
        assert xid == mapping[n.inputs[0]]
        assert np.array_equal(weight_specs[wid].center, n.op.weight.reshape(-1))
        assert np.array_equal(matvec.op.bias, n.op.bias)


def _mlp(rng, dims):
    nodes = [Node(0, Input(), (), dims[0])]
    for k, (t, s) in enumerate(zip(dims, dims[1:])):
        w = rng.uniform(-1, 1, (s, t))
        nodes.append(Node(len(nodes), Affine(w, rng.uniform(-0.5, 0.5, s)), (len(nodes) - 1,), s))
        if k < len(dims) - 2:
            nodes.append(Node(len(nodes), ReLU(), (len(nodes) - 1,), s))
    return Graph(tuple(nodes), len(nodes) - 1)


def test_flatness_matches_the_dense_tiled_reference(monkeypatch):
    # the dense tile/Kronecker graph relaxes the same products; only the
    # summation order differs
    rng = np.random.default_rng(14)
    nets = [_tiny_net(rng) for _ in range(2)] + [_mlp(rng, [3, 4, 3, 2]) for _ in range(3)]
    for g in nets:
        dim = g.nodes[0].dim
        batch = [({0: rng.uniform(-1, 1, dim)}, y) for y in (0, 1)]
        for eps_bar in (0.01, 0.05):
            for strategy in BoundStrategy:
                for relu_mode in ReluLowerMode:
                    monkeypatch.setattr(fusion, "weight_perturbed_graph", weight_perturbed_graph)
                    score = flatness_score(g, eps_bar, batch, strategy, relu_mode)
                    monkeypatch.setattr(fusion, "weight_perturbed_graph", dense_weight_perturbed_graph)
                    dense = flatness_score(g, eps_bar, batch, strategy, relu_mode)
                    assert score == pytest.approx(dense, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("relu_mode", list(ReluLowerMode))
@pytest.mark.parametrize(
    "strategy", [BoundStrategy.BACKWARD, BoundStrategy.IBP_BACKWARD, BoundStrategy.FORWARD_BACKWARD]
)
def test_folded_margin_pass_equals_the_margin_transform_seed(strategy, relu_mode):
    # W[y] - W is M @ W entry for entry, so folding the margin rows into the
    # logit layer keeps every bit of the margin bounds
    rng = np.random.default_rng(31)
    for _ in range(20):
        k = int(rng.integers(2, 9))
        g, specs = random_classifier(rng, k)
        y = int(rng.integers(0, k))
        margins = fusion._margin_interval(g, specs, MarginSpec(y, k), strategy, relu_mode)[0]
        box = compute_bounds(g, specs, strategy, out_coeff=margin_transform(y, k), relu_mode=relu_mode)[1]
        assert np.array_equal(margins.lower, box.lower)
        assert np.array_equal(margins.upper, box.upper)


@pytest.mark.parametrize(
    "strategy", [BoundStrategy.BACKWARD, BoundStrategy.IBP_BACKWARD, BoundStrategy.FORWARD_BACKWARD]
)
def test_margin_pass_on_a_matvec_output_keeps_the_margin_transform_seed(strategy):
    rng = np.random.default_rng(37)
    g, specs = random_classifier(rng, 4)
    wg, weight_specs, mapping = weight_perturbed_graph(g, 0.05)
    assert isinstance(wg.nodes[wg.output].op, MatVec)
    specs = {**weight_specs, mapping[0]: Constant(specs[0].center)}
    margins = fusion._margin_interval(wg, specs, MarginSpec(2, 4), strategy, ReluLowerMode.ZERO)[0]
    box = compute_bounds(wg, specs, strategy, out_coeff=margin_transform(2, 4), relu_mode=ReluLowerMode.ZERO)[1]
    assert np.array_equal(margins.lower, box.lower)
    assert np.array_equal(margins.upper, box.upper)


@pytest.mark.parametrize("strategy", list(BoundStrategy))
def test_flatness_never_expands_a_weight_coefficient(monkeypatch, strategy):
    # each weight input meets one MatVec and no rule, so its ball is concretized on the factors
    def expand(coeff, *args, **kwargs):
        raise AssertionError(f"a {coeff.shape} weight coefficient was expanded")

    monkeypatch.setattr(ops._WeightCoeff, "__array__", expand)
    rng = np.random.default_rng(15)
    g = _mlp(rng, [3, 5, 4, 3])
    assert flatness_score(g, 0.02, [({0: rng.uniform(-1, 1, 3)}, 1)], strategy) > 0.0


def test_fusion_imports_no_private_name():
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(fusion))
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names]
    assert "BoundQuery" in names
    assert [n for n in names if n.startswith("_")] == []
