import math

import numpy as np
import pytest

from helpers import demo_net, node_intervals, random_graph, assert_sound
from lirpa import (
    Affine,
    BoundStrategy,
    Constant,
    DomainError,
    Exp,
    Graph,
    Input,
    IntervalBounds,
    Log,
    LpBall,
    Node,
    Synonym,
    compute_bounds,
    evaluate,
)


def test_input_interval_linf_ball():
    box = LpBall([0.0, 1.0], 2.0, math.inf).box()
    assert box.lower == pytest.approx([-2.0, -1.0])
    assert box.upper == pytest.approx([2.0, 3.0])


def test_an_lp_ball_box_is_computed_once_and_read_only():
    center = np.array([0.1, -0.0, 0.0, -3.7, 1e-300])
    for p in (1.0, 2.0, math.inf):
        for eps in (0.0, 0.3, 1e-17):
            spec = LpBall(center, eps, p)
            box = spec.box()
            assert spec.box() is box
            assert not box.lower.flags.writeable and not box.upper.flags.writeable
            assert box.lower.tobytes() == (center - eps).tobytes()
            assert box.upper.tobytes() == (center + eps).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                box.lower[0] = 0.0


def test_input_interval_constant():
    box = Constant([7.0]).box()
    assert box.lower == pytest.approx([7.0]) and box.upper == pytest.approx([7.0])


def test_input_interval_lp_ball_uses_coordinate_box():
    box = LpBall([0.0, 0.0], 1.0, 2.0).box()
    assert box.lower == pytest.approx([-1.0, -1.0])
    assert box.upper == pytest.approx([1.0, 1.0])


def test_input_interval_synonym_coordinate_minmax():
    spec = Synonym(
        ("hi",),
        {0: ("yo",)},
        {"hi": np.array([1.0, 0.0]), "yo": np.array([0.0, 2.0])},
        budget=1,
    )
    box = spec.box()
    assert box.lower == pytest.approx([0.0, 0.0])
    assert box.upper == pytest.approx([1.0, 2.0])


def test_ibp_demo_net_output():
    g, specs = demo_net()
    box = compute_bounds(g, specs, BoundStrategy.IBP)[1]
    assert box.lower == pytest.approx([-56.0], abs=0.0)
    assert box.upper == pytest.approx([32.0], abs=0.0)


def test_ibp_demo_net_intermediates():
    g, specs = demo_net()
    bounds = node_intervals(g, specs)
    assert bounds[1].lower == pytest.approx([-5.0, -10.0], abs=0.0)
    assert bounds[1].upper == pytest.approx([7.0, 18.0], abs=0.0)
    assert bounds[3].lower == pytest.approx([-36.0, 0.0])
    assert bounds[3].upper == pytest.approx([28.0, 32.0])


def test_ibp_zero_radius_collapses_to_evaluate():
    rng = np.random.default_rng(10)
    for _ in range(10):
        g, specs = random_graph(rng)
        point_specs = {
            i: Constant(s.center) if isinstance(s, LpBall) else s for i, s in specs.items()
        }
        bounds = node_intervals(g, point_specs)
        values = evaluate(g, {i: np.asarray(point_specs[i].value) for i in g.input_ids})
        for i in range(len(g.nodes)):
            assert bounds[i].lower == pytest.approx(values[i], abs=1e-9)
            assert bounds[i].upper == pytest.approx(values[i], abs=1e-9)


def test_ibp_log_domain_error():
    nodes = (Node(0, Input(), (), 1), Node(1, Log(), (0,), 1))
    g = Graph(nodes, 1)
    with pytest.raises(DomainError):
        compute_bounds(g, {0: LpBall([1.0], 1.0, math.inf)}, BoundStrategy.IBP)


def test_ibp_soundness_randomized():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g, specs = random_graph(rng)
        bounds = node_intervals(g, specs)
        assert_sound(g, specs, bounds, rng, n=1000)


def test_ibp_inclusion_monotonicity():
    rng = np.random.default_rng(12)
    scales = [0.0, 0.2, 0.5, 1.0, 1.5, 2.0]
    for _ in range(20):
        g, specs = random_graph(rng)
        previous = None
        for scale in scales:
            scaled = {
                i: LpBall(s.center, s.eps * scale, s.p) if isinstance(s, LpBall) else s
                for i, s in specs.items()
            }
            bounds = node_intervals(g, scaled)
            if previous is not None:
                for i in range(len(g.nodes)):
                    assert np.all(previous[i].lower >= bounds[i].lower)
                    assert np.all(previous[i].upper <= bounds[i].upper)
            previous = bounds


def test_ibp_exact_on_monotone_chain_with_point_input():
    g, _ = demo_net()
    specs = {0: Constant([0.5, 1.5])}
    bounds = node_intervals(g, specs)
    values = evaluate(g, {0: np.array([0.5, 1.5])})
    for i in range(len(g.nodes)):
        assert bounds[i].lower == pytest.approx(values[i], abs=0.0)
        assert bounds[i].upper == pytest.approx(values[i], abs=0.0)


def test_a_zero_weight_ignores_an_infinite_end():
    # exp's interval reaches inf; row 0 reads it by a zero weight only, so it is exactly 0
    nodes = (
        Node(0, Input(), (), 1),
        Node(1, Affine([[1000.0]], [0.0]), (0,), 1),
        Node(2, Exp(), (1,), 1),
        Node(3, Affine([[0.0], [1.0]], [0.0, 0.0]), (2,), 2),
    )
    g, specs = Graph(nodes, 3), {0: LpBall([0.0], 1.0, math.inf)}
    box = compute_bounds(g, specs, BoundStrategy.IBP)[1]
    assert box.lower.tobytes() == np.zeros(2).tobytes() and box.upper.tolist() == [0.0, math.inf]
    for strategy in BoundStrategy:  # the linear strategies' products still meet 0 * inf: NaN, then fail closed
        if strategy is not BoundStrategy.IBP:
            with pytest.raises(DomainError, match="NaN or inverted"), np.errstate(invalid="ignore"):
                compute_bounds(g, specs, strategy)


def test_affine_interval_with_infinite_ends_sums_the_nonzero_weights_alone():
    rng = np.random.default_rng(5)
    w = rng.uniform(-1, 1, (6, 5)) * (rng.uniform(size=(6, 5)) < 0.6)
    op = Affine(w, rng.uniform(-1, 1, 6))
    lower, upper = rng.uniform(-2, -1, 5), rng.uniform(1, 2, 5)
    lower[1], upper[3] = -math.inf, math.inf
    box = op.interval([IntervalBounds(lower, upper)])
    for i, row in enumerate(w):
        nz = row != 0.0
        lo = np.where(row > 0, lower, upper)[nz] @ row[nz]
        up = np.where(row > 0, upper, lower)[nz] @ row[nz]
        assert box.lower[i] == pytest.approx(lo + op.bias[i], rel=1e-15)
        assert box.upper[i] == pytest.approx(up + op.bias[i], rel=1e-15)
    # finite ends keep the matrix products bit for bit
    finite = IntervalBounds(np.nan_to_num(lower, neginf=-3.0), np.nan_to_num(upper, posinf=3.0))
    want = op.w_pos @ finite.lower + op.w_neg @ finite.upper + op.bias
    assert op.interval([finite]).lower.tobytes() == want.tobytes()
