"""Acceptance suite: one test per criterion, printed pass lines included.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Tolerances are pinned here and nowhere else.
"""
import itertools
import math
import time

import numpy as np
import pytest

from helpers import (
    brute_force_synonym,
    ce_loss,
    demo_net,
    extremes_box,
    lines_ops,
    node_intervals,
    random_classifier,
    random_graph,
    random_synonym_instance,
    sample_points,
)
from lirpa import (
    Affine,
    BoundStrategy,
    Graph,
    Input,
    LinearBounds,
    LpBall,
    Node,
    ReLU,
    ReluLowerMode,
    compute_bounds,
    evaluate,
    fused_loss_report,
    flatness_score,
    relu_relaxation,
    run_backward,
    weight_perturbed_graph,
    MarginSpec,
)

FUZZ_SEED = 2024
FUZZ_GRAPHS = 50
ALL_OP_KINDS = {
    "input", "affine", "relu", "exp", "log", "neg", "add", "sub", "mul", "sum_reduce",
}


def _ok(n: int, text: str) -> None:
    print(f"\ncriterion {n}: PASS ({text})")


@pytest.fixture(scope="module")
def fuzz_graphs():
    rng = np.random.default_rng(FUZZ_SEED)
    graphs = [random_graph(rng, max_nodes=12, max_dim=5) for _ in range(FUZZ_GRAPHS)]
    kinds = set()
    for g, _ in graphs:
        kinds |= {node.op.kind for node in g.nodes}
    assert kinds == ALL_OP_KINDS, f"op kinds missing from fuzz corpus: {ALL_OP_KINDS - kinds}"
    return graphs


def test_criterion_1_worked_example_bounds():
    g, specs = demo_net()
    start = time.perf_counter()
    _, ibp = compute_bounds(g, specs, BoundStrategy.IBP)
    _, fwd = compute_bounds(g, specs, BoundStrategy.FORWARD, relu_mode=ReluLowerMode.ZERO)
    _, bwd = compute_bounds(
        g, specs, BoundStrategy.FORWARD_BACKWARD, relu_mode=ReluLowerMode.ZERO
    )
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    assert ibp.lower[0] == -56.0 and ibp.upper[0] == 32.0
    assert fwd.lower[0] == pytest.approx(-56.0, abs=0.02)
    assert fwd.upper[0] == pytest.approx(24.29, abs=0.02)
    assert bwd.lower[0] == pytest.approx(-42.0, abs=0.02)
    assert bwd.upper[0] == pytest.approx(24.28, abs=0.02)
    assert elapsed_ms < 100.0, f"took {elapsed_ms:.1f} ms"
    _ok(1, f"ibp [-56,32] exact, forward/backward within 0.02, {elapsed_ms:.1f} ms")


def test_criterion_2_worked_example_intermediates():
    g, specs = demo_net()
    box = compute_bounds(g, specs, BoundStrategy.IBP, 1)[1]
    assert box.lower[0] == -5.0 and box.upper[0] == 7.0
    assert box.lower[1] == -10.0 and box.upper[1] == 18.0
    lb, _ = compute_bounds(
        g, specs, BoundStrategy.FORWARD_BACKWARD, relu_mode=ReluLowerMode.ZERO
    )
    assert lb.upper_w[0] == pytest.approx([0.40, 3.74], abs=0.01)
    assert lb.lower_w[0] == pytest.approx([-1.75, -0.875], abs=0.001)
    ((_, upper_slope),), _, _ = relu_relaxation(box.lower, box.upper, ReluLowerMode.ZERO)
    assert upper_slope == pytest.approx([0.58, 0.64], abs=0.01)
    _ok(2, "pre-activation box exact, input coefficients and relu slopes on target")


def test_criterion_3_backward_coefficients_vanish(fuzz_graphs):
    for g, specs in fuzz_graphs:
        state = run_backward(g, g.output, None, lines_ops(g, g.output, node_intervals(g, specs)))
        reachable = {g.output}
        stack = [g.output]
        while stack:
            for j in g.nodes[stack.pop()].inputs:
                if j not in reachable:
                    reachable.add(j)
                    stack.append(j)
        for node in g.nodes:
            if node.op.arity == 0:
                continue
            coeff = state.lower_coeff.get(node.id)
            if coeff is not None:
                assert np.all(coeff == 0.0)
                assert np.all(state.upper_coeff[node.id] == 0.0)
        popped = [i for i in state.pop_order if g.nodes[i].op.arity > 0]
        assert sorted(popped) == sorted(
            i for i in reachable if g.nodes[i].op.arity > 0
        )
        assert len(set(popped)) == len(popped)
    _ok(3, f"{FUZZ_GRAPHS} DAGs, dependent coefficients exactly zero, single pops")


def test_criterion_4_soundness_fuzzing(fuzz_graphs):
    strategies = (
        BoundStrategy.IBP,
        BoundStrategy.FORWARD,
        BoundStrategy.BACKWARD,
        BoundStrategy.IBP_BACKWARD,
    )
    rng = np.random.default_rng(FUZZ_SEED + 1)
    start = time.perf_counter()
    checks = 0
    for g, specs in fuzz_graphs:
        values = sample_points(g, specs, rng, 1000)
        outputs = evaluate(g, values)[g.output]
        for strategy in strategies:
            _, box = compute_bounds(g, specs, strategy)
            assert np.all(outputs >= box.lower[:, None] - 1e-7)
            assert np.all(outputs <= box.upper[:, None] + 1e-7)
            checks += outputs.size
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    _ok(4, f"{checks} point checks across 4 strategies, 0 violations, {elapsed:.1f} s")


def test_criterion_5_substitution_dp_equals_enumeration():
    rng = np.random.default_rng(FUZZ_SEED + 2)
    exact = 0
    for _ in range(1000):
        lb, spec = random_synonym_instance(rng, max_words=6, max_subs=3, max_budget=3, max_emb=4)
        dp = extremes_box(lb, spec)
        brute = brute_force_synonym(lb, spec)
        assert dp.lower == pytest.approx(brute.lower, abs=1e-9)
        assert dp.upper == pytest.approx(brute.upper, abs=1e-9)
        if np.array_equal(dp.lower, brute.lower) and np.array_equal(dp.upper, brute.upper):
            exact += 1
    _ok(5, f"1000 instances, {exact} bitwise equal, rest within 1e-9")


def test_criterion_6_fused_bound_never_looser():
    rng = np.random.default_rng(FUZZ_SEED + 3)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        g, specs = random_classifier(rng, k)
        y = int(rng.integers(0, k))
        report = fused_loss_report(g, specs, MarginSpec(y, k), BoundStrategy.IBP_BACKWARD)
        assert report.fused_upper <= report.unfused_upper + 1e-9
        values = sample_points(g, specs, rng, 500)
        logits = evaluate(g, values)[g.output]
        sampled = float(np.max(np.log(np.sum(np.exp(logits - logits[y]), axis=0))))
        assert sampled <= report.fused_upper + 1e-7
        assert sampled <= report.unfused_upper + 1e-7
    _ok(6, "100 classifiers, fused <= unfused under shared bounds, both above samples")


def test_criterion_7_dual_norm_concretization():
    rng = np.random.default_rng(FUZZ_SEED + 4)
    # p = inf: dyadic data keeps every float op exact, so corner enumeration
    # must match the closed form bitwise
    for _ in range(50):
        d = int(rng.integers(1, 11))
        w = rng.integers(-64, 65, size=(3, d)).astype(float) / 64.0
        b = rng.integers(-64, 65, size=3).astype(float) / 64.0
        x0 = rng.integers(-16, 17, size=d).astype(float) / 16.0
        lb = LinearBounds(w, b, w, b)
        box = extremes_box(lb, LpBall(x0, 0.5, math.inf))
        corners = np.array(list(itertools.product([-0.5, 0.5], repeat=d))).T
        values = w @ (x0[:, None] + corners) + b[:, None]
        assert np.array_equal(box.upper, values.max(axis=1))
        assert np.array_equal(box.lower, values.min(axis=1))
    # p = 2: the bound is attained at the analytic maximizer
    for _ in range(50):
        d = int(rng.integers(1, 11))
        w = rng.uniform(-1, 1, (2, d))
        b = rng.uniform(-1, 1, 2)
        x0 = rng.uniform(-1, 1, d)
        eps = float(rng.uniform(0.1, 2.0))
        box = extremes_box(LinearBounds(w, b, w, b), LpBall(x0, eps, 2.0))
        for row in range(2):
            norm = np.linalg.norm(w[row])
            direction = w[row] / norm if norm > 0 else w[row]
            attained = w[row] @ (x0 + eps * direction) + b[row]
            assert box.upper[row] == pytest.approx(attained, abs=1e-9)
    _ok(7, "corner enumeration exact for p=inf, p=2 attained at the maximizer")


def test_criterion_8_interval_inclusion_monotonicity():
    rng = np.random.default_rng(FUZZ_SEED + 5)
    scales = [0.0, 0.2, 0.5, 1.0, 1.5, 2.0]
    for _ in range(20):
        g, specs = random_graph(rng)
        previous = None
        for scale in scales:
            scaled = {
                i: LpBall(s.center, s.eps * scale, s.p) if isinstance(s, LpBall) else s
                for i, s in specs.items()
            }
            boxes = node_intervals(g, scaled)
            if previous is not None:
                for i in range(len(g.nodes)):
                    assert np.all(previous[i].lower >= boxes[i].lower)
                    assert np.all(previous[i].upper <= boxes[i].upper)
            previous = boxes
    _ok(8, "20 graphs, 6-step radius grid, intervals nested at every node")


def test_criterion_9_flatness_certificate():
    rng = np.random.default_rng(FUZZ_SEED + 6)
    w1 = rng.uniform(-1, 1, (2, 2))
    w2 = rng.uniform(-1, 1, (2, 2))
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, Affine(w1, np.zeros(2)), (0,), 2),
        Node(2, ReLU(), (1,), 2),
        Node(3, Affine(w2, np.zeros(2)), (2,), 2),
    )
    g = Graph(nodes, 3)
    x = rng.uniform(-1, 1, 2)
    y = 1
    assert flatness_score(g, 0.0, [({0: x}, y)]) <= 1e-9
    eps_bar = 0.01
    score = flatness_score(g, eps_bar, [({0: x}, y)])
    wg, weight_specs, mapping = weight_perturbed_graph(g, eps_bar)
    values = {i: s.sample(rng, 10_000) for i, s in weight_specs.items()}
    values[mapping[0]] = x
    logits = evaluate(wg, values)[wg.output]
    losses = np.log(np.sum(np.exp(logits - logits[y]), axis=0))
    empirical_gap = float(losses.max()) - ce_loss(evaluate(g, {0: x})[g.output], y)
    assert score >= empirical_gap - 1e-9
    assert score >= -1e-9
    _ok(9, f"zero radius gap <= 1e-9; certified {score:.4f} >= sampled {empirical_gap:.4f}")
