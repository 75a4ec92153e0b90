import math

import numpy as np
import pytest

from helpers import demo_net, random_graph, assert_sound
from lirpa import (
    Affine,
    Constant,
    Graph,
    Input,
    InputLayout,
    LpBall,
    MulElementwise,
    Node,
    ReluLowerMode,
    concretize_bounds,
    evaluate,
    forward_lirpa,
    forward_oracle,
    ibp_propagate,
    LinearBounds,
)


def _concretize_all(g, specs, bounds):
    layout = InputLayout.from_specs(g, specs)
    return {i: concretize_bounds(lb, layout, specs) for i, lb in bounds.items()}


def test_forward_demo_net_output():
    g, specs = demo_net()
    bounds = forward_lirpa(g, specs, ReluLowerMode.ZERO)
    box = _concretize_all(g, specs, bounds)[5]
    assert box.lower[0] == pytest.approx(-56.0, abs=1e-9)
    assert box.upper[0] == pytest.approx(170.0 / 7.0, abs=1e-9)  # 24.2857..., quoted as 24.29
    assert box.upper[0] == pytest.approx(24.29, abs=0.02)


def test_forward_demo_net_coefficients():
    g, specs = demo_net()
    bounds = forward_lirpa(g, specs, ReluLowerMode.ZERO)
    # second affine layer, upper coefficients over the input
    assert bounds[3].upper_w == pytest.approx(
        np.array([[14.0 / 3.0, 7.0 / 3.0], [17.0 / 42.0, 157.0 / 42.0]]), abs=1e-12
    )
    assert bounds[3].upper_w == pytest.approx(np.array([[4.67, 2.33], [0.40, 3.74]]), abs=0.01)
    # output coefficients before concretization
    assert bounds[5].upper_w == pytest.approx(np.array([[17.0 / 42.0, 157.0 / 42.0]]), abs=1e-12)
    assert bounds[5].upper_w == pytest.approx(np.array([[0.40, 3.74]]), abs=0.01)


def test_forward_identity_graph():
    g = Graph((Node(0, Input(), (), 2),), 0)
    specs = {0: LpBall([1.0, -1.0], 0.5, math.inf)}
    bounds = forward_lirpa(g, specs)
    assert np.array_equal(bounds[0].lower_w, np.eye(2))
    assert np.array_equal(bounds[0].upper_w, np.eye(2))
    assert np.all(bounds[0].lower_b == 0.0)
    box = _concretize_all(g, specs, bounds)[0]
    assert box.lower == pytest.approx([0.5, -1.5])
    assert box.upper == pytest.approx([1.5, -0.5])


def test_forward_affine_all_positive_weight_has_no_mixing():
    rng = np.random.default_rng(0)
    w = rng.uniform(0.1, 1.0, (3, 2))
    child = LinearBounds(
        rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, 2),
        rng.uniform(1, 2, (2, 2)), rng.uniform(1, 2, 2),
    )
    out = forward_oracle(Affine(w, np.zeros(3)), [child])
    assert np.array_equal(out.lower_w, w @ child.lower_w)
    assert np.array_equal(out.upper_w, w @ child.upper_w)


def test_forward_mul_with_constant_operand_matches_affine_path():
    # c * x as a mul node with a pinned operand vs. an affine node diag(c)
    c = np.array([1.5, -2.0])
    spec = LpBall([0.2, -0.3], 0.4, math.inf)
    nodes_mul = (
        Node(0, Input(), (), 2),
        Node(1, Input(), (), 2),
        Node(2, MulElementwise(), (1, 0), 2),
    )
    g_mul = Graph(nodes_mul, 2)
    specs_mul = {0: spec, 1: Constant(c)}
    box_mul = _concretize_all(g_mul, specs_mul, forward_lirpa(g_mul, specs_mul))[2]

    nodes_aff = (
        Node(0, Input(), (), 2),
        Node(1, Affine(np.diag(c), np.zeros(2)), (0,), 2),
    )
    g_aff = Graph(nodes_aff, 1)
    specs_aff = {0: spec}
    box_aff = _concretize_all(g_aff, specs_aff, forward_lirpa(g_aff, specs_aff))[1]

    assert box_mul.lower == pytest.approx(box_aff.lower, abs=1e-12)
    assert box_mul.upper == pytest.approx(box_aff.upper, abs=1e-12)


def test_forward_zero_radius_collapses_to_point():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g, specs = random_graph(rng)
        zero_specs = {
            i: LpBall(s.center, 0.0, s.p) if isinstance(s, LpBall) else s
            for i, s in specs.items()
        }
        boxes = _concretize_all(g, zero_specs, forward_lirpa(g, zero_specs))
        values = evaluate(
            g, {i: np.asarray(zero_specs[i].center if isinstance(zero_specs[i], LpBall) else zero_specs[i].value) for i in g.input_ids}
        )
        for i in range(len(g.nodes)):
            assert boxes[i].lower == pytest.approx(values[i], abs=1e-9)
            assert boxes[i].upper == pytest.approx(values[i], abs=1e-9)


def test_forward_soundness_randomized():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g, specs = random_graph(rng)
        boxes = _concretize_all(g, specs, forward_lirpa(g, specs))
        assert_sound(g, specs, boxes, rng, n=1000)


def test_forward_linear_bounds_pointwise_sound():
    from helpers import assert_linear_sound

    rng = np.random.default_rng(9)
    for _ in range(15):
        g, specs = random_graph(rng)
        assert_linear_sound(g, specs, forward_lirpa(g, specs), rng, n=1000)


def test_forward_at_least_as_tight_as_ibp_on_demo_net():
    g, specs = demo_net()
    fwd = _concretize_all(g, specs, forward_lirpa(g, specs, ReluLowerMode.ZERO))[5]
    ibp = ibp_propagate(g, specs)[5]
    fwd_width = float(fwd.upper[0] - fwd.lower[0])
    ibp_width = float(ibp.upper[0] - ibp.lower[0])
    assert fwd_width == pytest.approx(80.29, abs=0.02)
    assert ibp_width == pytest.approx(88.0, abs=0.0)
    assert fwd_width <= ibp_width


def test_forward_synonym_input_end_to_end():
    rng = np.random.default_rng(3)
    emb = {
        "a": np.array([0.5, -0.2]),
        "a1": np.array([-0.4, 0.1]),
        "b": np.array([0.3, 0.6]),
        "b1": np.array([0.0, -0.5]),
        "b2": np.array([0.9, 0.2]),
    }
    from lirpa import Synonym, ReLU

    spec = Synonym(("a", "b"), {0: ("a1",), 1: ("b1", "b2")}, emb, budget=1)
    w1 = rng.uniform(-1, 1, (3, 4))
    w2 = rng.uniform(-1, 1, (2, 3))
    nodes = (
        Node(0, Input(), (), 4),
        Node(1, Affine(w1, np.zeros(3)), (0,), 3),
        Node(2, ReLU(), (1,), 3),
        Node(3, Affine(w2, np.zeros(2)), (2,), 2),
    )
    g = Graph(nodes, 3)
    specs = {0: spec}
    boxes = _concretize_all(g, specs, forward_lirpa(g, specs))
    assert_sound(g, specs, boxes, rng, n=500)
