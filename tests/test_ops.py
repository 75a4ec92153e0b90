"""A new op is a single class: its own rules are all the engines need."""
import math
from dataclasses import dataclass

import numpy as np
import pytest

from helpers import assert_linear_sound, assert_sound, sample_points
from lirpa import (
    Add,
    Affine,
    BoundStrategy,
    Exp,
    Graph,
    GraphError,
    Input,
    IntervalBounds,
    LinearBounds,
    Log,
    LpBall,
    MulElementwise,
    Neg,
    Node,
    ReLU,
    ReluLowerMode,
    Sub,
    SumReduce,
    Synonym,
    compute_bounds,
    concretize_bounds,
    evaluate,
    forward_lirpa,
)
from lirpa.backward import BoundQuery
from lirpa.ops import Elementwise, MatVec, OpKind


@dataclass(frozen=True, eq=False)
class Scale(OpKind):
    """h = c * x coordinatewise, for a constant vector c."""

    c: np.ndarray

    kind = "scale"
    arity = 1

    def check(self, dim, in_dims):
        if self.c.shape != (dim,) or in_dims != [dim]:
            return f"scale by {self.c.shape[0]} factors needs equal dims, got {in_dims} -> {dim}"
        return None

    def eval(self, xs):
        return self.c * xs[0] if xs[0].ndim == 1 else self.c[:, None] * xs[0]

    def interval(self, inputs):
        a, b = self.c * inputs[0].lower, self.c * inputs[0].upper
        return IntervalBounds(np.minimum(a, b), np.maximum(a, b))

    def forward(self, bounds):
        b, pos, neg = bounds[0], np.maximum(self.c, 0.0), np.minimum(self.c, 0.0)
        return LinearBounds(
            pos[:, None] * b.lower_w + neg[:, None] * b.upper_w,
            pos * b.lower_b + neg * b.upper_b,
            pos[:, None] * b.upper_w + neg[:, None] * b.lower_w,
            pos * b.upper_b + neg * b.lower_b,
        )

    def backward(self, lower_coeff, upper_coeff, in_dim):
        # h = c * x exactly, so a coefficient on h_k is c_k times one on x_k
        zero = np.zeros(lower_coeff.shape[0])
        return [(lower_coeff * self.c, upper_coeff * self.c)], zero, zero.copy()


@dataclass(frozen=True, eq=False)
class Band(Scale):
    """c * x + lo <= h <= c * x + up coordinatewise: fixed lines that share their slope."""

    lo: np.ndarray
    up: np.ndarray

    def forward(self, bounds):
        b = super().forward(bounds)
        return LinearBounds(b.lower_w, b.lower_b + self.lo, b.upper_w, b.upper_b + self.up)

    def backward(self, lower_coeff, upper_coeff, in_dim):
        lams = super().backward(lower_coeff, upper_coeff, in_dim)[0]
        d_lo = np.maximum(lower_coeff, 0.0) @ self.lo + np.minimum(lower_coeff, 0.0) @ self.up
        d_up = np.maximum(upper_coeff, 0.0) @ self.up + np.minimum(upper_coeff, 0.0) @ self.lo
        return lams, d_lo, d_up


@dataclass(frozen=True)
class Square(Elementwise):
    """h = x * x coordinatewise, a relaxed op: it defines ``relax`` and no forward or backward rule."""

    kind = "square"
    arity = 1
    relaxed = True

    def eval(self, xs):
        return xs[0] * xs[0]

    def interval(self, inputs):
        l, u = inputs[0].lower, inputs[0].upper
        lo = np.where((l <= 0.0) & (u >= 0.0), 0.0, np.minimum(l * l, u * u))
        return IntervalBounds(lo, np.maximum(l * l, u * u))

    def relax(self, intervals, relu_mode):
        # below, the tangent at the midpoint m; above, the chord: both have slope l + u = 2m
        l, u = intervals[0].lower, intervals[0].upper
        return Band(l + u, -0.25 * (l + u) ** 2, -l * u)


def _scaled_net(rng):
    nodes = (
        Node(0, Input(), (), 3),
        Node(1, Affine(rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 3)), (0,), 3),
        Node(2, Scale(np.array([2.0, -0.5, 0.0])), (1,), 3),
        Node(3, ReLU(), (2,), 3),
        Node(4, Scale(np.array([-1.0, 3.0, 0.25])), (3,), 3),
    )
    return Graph(nodes, 4), {0: LpBall(rng.uniform(-1, 1, 3), 0.5, math.inf)}


@pytest.mark.parametrize("strategy", list(BoundStrategy))
def test_op_defined_outside_the_package_is_bounded(strategy):
    rng = np.random.default_rng(11)
    g, specs = _scaled_net(rng)
    _, box = compute_bounds(g, specs, strategy)
    out = evaluate(g, sample_points(g, specs, rng, 1000))[g.output]
    assert np.all(box.lower[:, None] <= out + 1e-9)
    assert np.all(out <= box.upper[:, None] + 1e-9)


@pytest.mark.parametrize("strategy", list(BoundStrategy))
def test_relaxed_op_defined_outside_the_package_is_bounded(strategy):
    rng = np.random.default_rng(14)
    nodes = (
        Node(0, Input(), (), 3),
        Node(1, Affine(rng.uniform(-1, 1, (4, 3)), rng.uniform(-0.5, 0.5, 4)), (0,), 4),
        Node(2, Square(), (1,), 4),
        Node(3, Sub(), (2, 1), 4),
        Node(4, ReLU(), (3,), 4),
        Node(5, Affine(rng.uniform(-1, 1, (2, 4)), rng.uniform(-0.5, 0.5, 2)), (4,), 2),
    )
    g, specs = Graph(nodes, 5), {0: LpBall(rng.uniform(-1, 1, 3), 0.3, 2.0)}
    for target in (2, 5):
        native, box = compute_bounds(g, specs, strategy, target)
        assert_sound(g, specs, {target: box}, rng, n=2000, slack=1e-9)
        if strategy is not BoundStrategy.IBP:
            assert_linear_sound(g, specs, {target: native}, rng, n=2000, slack=1e-9)


def test_op_defined_outside_the_package_checks_its_dims():
    with pytest.raises(GraphError, match="node 1: scale by 3 factors"):
        Graph((Node(0, Input(), (), 2), Node(1, Scale(np.ones(3)), (0,), 2)), 1)


def test_matvec_eval_is_the_reshaped_product():
    rng = np.random.default_rng(12)
    s, t, m = 3, 4, 5
    op = MatVec(rng.uniform(-1, 1, s))
    w, x = rng.uniform(-1, 1, s * t), rng.uniform(-1, 1, t)
    ws, xs = rng.uniform(-1, 1, (s * t, m)), rng.uniform(-1, 1, (t, m))
    assert op.eval([w, x]) == pytest.approx(w.reshape(s, t) @ x + op.bias, rel=1e-14)
    for k in range(m):
        want = ws[:, k].reshape(s, t) @ xs[:, k] + op.bias
        assert op.eval([ws, xs])[:, k] == pytest.approx(want, rel=1e-14)
        assert op.eval([ws, x])[:, k] == pytest.approx(ws[:, k].reshape(s, t) @ x + op.bias, rel=1e-14)
        assert op.eval([w, xs])[:, k] == pytest.approx(w.reshape(s, t) @ xs[:, k] + op.bias, rel=1e-14)


def test_matvec_checks_its_dims():
    nodes = (Node(0, Input(), (), 6), Node(1, Input(), (), 2))
    Graph(nodes + (Node(2, MatVec(np.zeros(3)), (0, 1), 3),), 2)
    with pytest.raises(GraphError, match="node 2: matvec needs a weight of dim 2 \\* 2"):
        Graph(nodes + (Node(2, MatVec(np.zeros(2)), (0, 1), 2),), 2)
    with pytest.raises(GraphError, match="bias shape"):
        Graph(nodes + (Node(2, MatVec(np.zeros(2)), (0, 1), 3),), 2)


def _matvec_net(rng, p, s=3, t=4):
    # the weights are an lp ball; x, of either sign, goes through a relu
    nodes = (
        Node(0, Input(), (), s * t),
        Node(1, Input(), (), 3),
        Node(2, Affine(rng.uniform(-1, 1, (t, 3)), rng.uniform(-0.5, 0.5, t)), (1,), t),
        Node(3, ReLU(), (2,), t),
        Node(4, Affine(rng.uniform(-1, 1, (t, t)), rng.uniform(-0.5, 0.5, t)), (3,), t),
        Node(5, MatVec(rng.uniform(-1, 1, s)), (0, 4), s),
    )
    specs = {
        0: LpBall(rng.uniform(-1, 1, s * t), 0.3, p),
        1: LpBall(rng.uniform(-1, 1, 3), 0.4, math.inf),
    }
    return Graph(nodes, 5), specs


def test_matvec_rules_contain_sampled_points():
    rng = np.random.default_rng(13)
    for p in (1.0, 2.0, 3.0, math.inf):
        g, specs = _matvec_net(rng, p)
        boxes = {strategy: compute_bounds(g, specs, strategy)[1] for strategy in BoundStrategy}
        for box in boxes.values():
            assert_sound(g, specs, {5: box}, rng, n=10_000, slack=1e-9)
        assert_linear_sound(g, specs, {5: forward_lirpa(g, specs)[5]}, rng, n=10_000, slack=1e-9)
        lb = compute_bounds(g, specs, BoundStrategy.IBP_BACKWARD, 5)[0]
        assert_linear_sound(g, specs, {5: lb}, rng, n=10_000, slack=1e-9)


def _matvec_fallback_nets(rng, s=3, t=4):
    """A MatVec whose weight is a ReLU of an input, one weight input read by two MatVec nodes, and a
    weight under word substitution, whose ``extremes`` reads the dense coefficient."""
    relu_weight = (
        Node(0, Input(), (), s * t),
        Node(1, ReLU(), (0,), s * t),
        Node(2, Input(), (), 3),
        Node(3, Affine(rng.uniform(-1, 1, (t, 3)), rng.uniform(-0.5, 0.5, t)), (2,), t),
        Node(4, MatVec(rng.uniform(-1, 1, s)), (1, 3), s),
    )
    shared_weight = (
        Node(0, Input(), (), s * t),
        Node(1, Input(), (), t),
        Node(2, Affine(rng.uniform(-1, 1, (t, t)), rng.uniform(-0.5, 0.5, t)), (1,), t),
        Node(3, ReLU(), (2,), t),
        Node(4, MatVec(rng.uniform(-1, 1, s)), (0, 1), s),
        Node(5, MatVec(rng.uniform(-1, 1, s)), (0, 3), s),
        Node(6, Add(), (4, 5), s),
    )
    ball = lambda dim, eps, p: LpBall(rng.uniform(-1, 1, dim), eps, p)
    words = Synonym(("a", "b", "c"), {0: ("d",), 2: ("e",)}, {w: rng.uniform(-1, 1, t) for w in "abcde"}, 1)
    return [
        (Graph(relu_weight, 4), {0: ball(s * t, 0.3, 2.0), 2: ball(3, 0.2, math.inf)}),
        (Graph(shared_weight, 6), {0: ball(s * t, 0.3, 2.0), 1: ball(t, 0.2, math.inf)}),
        (Graph(shared_weight[:5], 4), {0: words, 1: ball(t, 0.2, math.inf)}),
    ]


@pytest.mark.parametrize("strategy", list(BoundStrategy))
def test_matvec_weight_coefficient_expands_where_a_rule_or_a_second_contribution_meets_it(strategy):
    # the ReLU's rule, the shared input's sum and the synonym rule read the dense coefficient
    rng = np.random.default_rng(44)
    for g, specs in _matvec_fallback_nets(rng):
        box = compute_bounds(g, specs, strategy)[1]
        assert_sound(g, specs, {g.output: box}, rng, n=10_000, slack=1e-9)
        if strategy in (BoundStrategy.IBP, BoundStrategy.FORWARD):
            continue  # the native bound is not a backward pass's linear bounds
        query = BoundQuery(g, specs, strategy, ReluLowerMode.ADAPTIVE)
        linear = concretize_bounds(query.bound(g.output)[0], query.layout, specs)
        direct = query.box(g.output, None, "matvec")
        scale = np.max(np.abs([direct.lower, direct.upper]))
        assert np.allclose(linear.lower, direct.lower, rtol=0.0, atol=1e-13 * scale)
        assert np.allclose(linear.upper, direct.upper, rtol=0.0, atol=1e-13 * scale)


def _weight_coeffs(rng, rows=5, s=3, t=4, pin=False):
    """A MatVec rule's two weight coefficients and their dense (rows, s * t) expansions, built directly.

    Lower row 1 and upper row 3 are all zero; with ``pin``, some weight and x entries have lx == ux.
    """
    w_box = np.sort(rng.uniform(-1, 1, (2, s * t)), axis=0)
    x_box = np.sort(rng.uniform(-1, 1, (2, t)), axis=0)
    if pin:
        w_box[1, ::3] = w_box[0, ::3]
        x_box[1, 1] = x_box[0, 1]
    intervals = [IntervalBounds(*w_box), IntervalBounds(*x_box)]
    lower, upper = rng.uniform(-1, 1, (2, rows, s))
    lower[1] = upper[3] = 0.0
    planes = MatVec(rng.uniform(-1, 1, s)).relax(intervals, ReluLowerMode.ZERO)
    lams = planes.backward(lower, upper, s * t)[0]
    rel = planes.rel

    def on_w(coeff, slope_pos, slope_neg):
        pos, neg = np.maximum(coeff, 0.0), np.minimum(coeff, 0.0)
        return (pos[:, :, None] * slope_pos + neg[:, :, None] * slope_neg).reshape(len(pos), -1)

    dense = on_w(lower, rel.lower_x, rel.upper_x), on_w(upper, rel.upper_x, rel.lower_x)
    return lams[0], dense


@pytest.mark.parametrize("pin", [False, True])
def test_matvec_weight_coefficient_is_factored_and_expands_to_the_dense_one(pin):
    rng = np.random.default_rng(41)
    for _ in range(5):
        coeffs, dense = _weight_coeffs(rng, pin=pin)
        for coeff, want, zero_row in zip(coeffs, dense, (1, 3)):
            assert not isinstance(coeff, np.ndarray) and coeff.shape == want.shape
            assert np.array_equal(np.asarray(coeff), want)
            assert np.all(want[zero_row] == 0.0)
            v = rng.uniform(-1, 1, want.shape[1])
            assert coeff @ v == pytest.approx(want @ v, rel=1e-13, abs=0.0)
            for q in (1.0, 1.5, 2.0, math.inf):
                assert coeff.row_norms(q) == pytest.approx(np.linalg.norm(want, ord=q, axis=1), rel=1e-13, abs=0.0)


def test_lp_ball_concretizes_a_factored_coefficient_as_its_expansion():
    rng = np.random.default_rng(43)
    for p in (1.0, 2.0, 3.0, math.inf):
        (lo, up), (dense_lo, dense_up) = _weight_coeffs(rng, pin=True)
        ball = LpBall(rng.uniform(-1, 1, 12), 0.3, p)
        zero = np.zeros(5)
        got, want = ball.extremes(lo, zero, up, zero), ball.extremes(dense_lo, zero, dense_up, zero)
        for a, b in zip(got, want):
            assert a == pytest.approx(b, rel=1e-13, abs=1e-15)


def _ops_with_intervals(rng, d=4):
    """One instance of every op, with positive input intervals of dim d (d * d for a matvec weight)."""
    box = lambda n: IntervalBounds(*np.sort(rng.uniform(0.5, 2.0, (2, n)), axis=0))
    unary = [Affine(rng.uniform(-1, 1, (d, d)), rng.uniform(-1, 1, d)), ReLU(), Exp(), Log(), Neg(), SumReduce()]
    binary = [Add(), Sub(), MulElementwise()]
    cases = [(op, [box(d)]) for op in unary] + [(op, [box(d), box(d)]) for op in binary]
    return cases + [(MatVec(rng.uniform(-1, 1, d)), [box(d * d), box(d)])]


@pytest.mark.parametrize("relu_mode", list(ReluLowerMode))
def test_backward_rules_leave_one_shared_coefficient_unchanged(relu_mode):
    # a pass hands one array to both sides until a relaxation splits them
    rng = np.random.default_rng(17)
    for op, intervals in _ops_with_intervals(rng):
        coeff = rng.uniform(-1, 1, (3, 1 if isinstance(op, SumReduce) else 4))
        before = coeff.copy()
        rule = op.relax(intervals, relu_mode) if op.relaxed else op
        lams, d_lo, d_up = rule.backward(coeff, coeff, 4)
        assert np.array_equal(coeff, before), op.kind
        # the same bits as two separate arrays give
        split, s_lo, s_up = rule.backward(coeff.copy(), coeff.copy(), 4)
        for (lo, up), (want_lo, want_up) in zip(lams, split):
            assert np.array_equal(lo, want_lo) and np.array_equal(up, want_up), op.kind
        assert np.array_equal(d_lo, s_lo) and np.array_equal(d_up, s_up), op.kind


def test_op_arrays_are_read_only():
    affine = Affine([[1.0, -2.0], [3.0, 4.0]], [0.5, -0.5])
    arrays = [affine.weight, affine.bias, affine.w_pos, affine.w_neg, MatVec(np.zeros(2)).bias]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 5.0
    g = Graph((Node(0, Input(), (), 2), Node(1, affine, (0,), 2)), 1)
    with pytest.raises(ValueError):
        g.nodes[1].op.weight[0, 0] = 5.0
