"""A new op is a single class: its own rules are all the engines need."""
import math
from dataclasses import dataclass

import numpy as np
import pytest

from helpers import sample_points
from lirpa import (
    Affine,
    BoundStrategy,
    Graph,
    GraphError,
    Input,
    IntervalBounds,
    LinearBounds,
    LpBall,
    Node,
    ReLU,
    compute_bounds,
    evaluate,
)
from lirpa.ops import OpKind


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
