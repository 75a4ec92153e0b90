import math

import numpy as np
import pytest

from helpers import ce_loss, demo_net, random_classifier, sample_points
from lirpa import (
    Affine,
    BoundStrategy,
    Graph,
    GraphError,
    Input,
    MarginSpec,
    Node,
    ReLU,
    ReluLowerMode,
    bound_loss_fused,
    bound_loss_unfused,
    build_fused_loss_graph,
    evaluate,
    flatness_score,
    fused_loss_report,
    margin_transform,
    sample_spec,
    weight_perturbed_graph,
)


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
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        g, specs = random_classifier(rng, k)
        y = int(rng.integers(0, k))
        report = fused_loss_report(g, specs, MarginSpec(y, k), BoundStrategy.IBP_BACKWARD)
        assert report.fused_upper <= report.unfused_upper + 1e-9
        # both dominate the sampled robust loss
        values = sample_points(g, specs, rng, 200)
        logits = evaluate(g, values)[g.output]
        losses = np.log(np.sum(np.exp(logits - logits[y]), axis=0))
        assert losses.max() <= report.fused_upper + 1e-7
        assert losses.max() <= report.unfused_upper + 1e-7


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
    rng = np.random.default_rng(6)
    g, specs = random_classifier(rng, 3, eps=0.2)
    report = bound_loss_fused(g, specs, MarginSpec(0, 3), exp_cap=-1.0)
    assert math.isinf(report) and report > 0


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
            values = {i: sample_spec(s, rng, 10_000) for i, s in weight_specs.items()}
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
