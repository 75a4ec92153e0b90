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
    backward_lirpa,
    compute_bounds,
    evaluate,
    forward_lirpa,
    ibp_propagate,
)
from lirpa.ops import MatVec, OpKind


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

    def forward(self, bounds, intervals, relu_mode):
        b, pos, neg = bounds[0], np.maximum(self.c, 0.0), np.minimum(self.c, 0.0)
        return LinearBounds(
            pos[:, None] * b.lower_w + neg[:, None] * b.upper_w,
            pos * b.lower_b + neg * b.upper_b,
            pos[:, None] * b.upper_w + neg[:, None] * b.lower_w,
            pos * b.upper_b + neg * b.lower_b,
        )

    def backward(self, lower_coeff, upper_coeff, intervals, relu_mode, in_dim):
        # h = c * x exactly, so a coefficient on h_k is c_k times one on x_k
        zero = np.zeros(lower_coeff.shape[0])
        return [(lower_coeff * self.c, upper_coeff * self.c)], zero, zero.copy()


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
    for p in (2.0, math.inf, math.inf):
        g, specs = _matvec_net(rng, p)
        boxes = {strategy: compute_bounds(g, specs, strategy)[1] for strategy in BoundStrategy}
        for box in boxes.values():
            assert_sound(g, specs, {5: box}, rng, n=10_000, slack=1e-9)
        assert_linear_sound(g, specs, {5: forward_lirpa(g, specs)[5]}, rng, n=10_000, slack=1e-9)
        lb = backward_lirpa(g, 5, ibp_propagate(g, specs), specs)
        assert_linear_sound(g, specs, {5: lb}, rng, n=10_000, slack=1e-9)


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
        lams, d_lo, d_up = op.backward(coeff, coeff, intervals, relu_mode, 4)
        assert np.array_equal(coeff, before), op.kind
        # the same bits as two separate arrays give
        split, s_lo, s_up = op.backward(coeff.copy(), coeff.copy(), intervals, relu_mode, 4)
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
