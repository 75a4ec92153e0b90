"""A new perturbation kind is a single class: its own rules are all the engines need."""
from dataclasses import dataclass

import numpy as np
import pytest

from helpers import sample_points
from lirpa import (
    Affine,
    BoundStrategy,
    Graph,
    Input,
    IntervalBounds,
    MulElementwise,
    Node,
    PerturbationSpec,
    ReLU,
    compute_bounds,
    evaluate,
)


@dataclass(frozen=True, eq=False)
class Box(PerturbationSpec):
    """The per-coordinate region lower <= x <= upper."""

    lower: np.ndarray
    upper: np.ndarray

    kind = "box"

    @property
    def center(self):
        return (self.lower + self.upper) / 2.0

    def box(self):
        return IntervalBounds(self.lower, self.upper)

    def extremes(self, wl, bl, wu, bu):
        # each coordinate sits at whichever end its coefficient prefers
        return (
            np.maximum(wl, 0.0) @ self.lower + np.minimum(wl, 0.0) @ self.upper + bl,
            np.maximum(wu, 0.0) @ self.upper + np.minimum(wu, 0.0) @ self.lower + bu,
        )

    def sample(self, rng, n):
        u = rng.uniform(0.0, 1.0, (self.dim, n))
        u[:, : min(n, 4)] = rng.integers(0, 2, (self.dim, min(n, 4)))  # a few corners
        return self.lower[:, None] + u * (self.upper - self.lower)[:, None]


def _box_net(rng):
    nodes = (
        Node(0, Input(), (), 3),
        Node(1, Affine(rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, 4)), (0,), 4),
        Node(2, ReLU(), (1,), 4),
        Node(3, MulElementwise(), (2, 1), 4),
        Node(4, Affine(rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, 2)), (3,), 2),
    )
    return Graph(nodes, 4), {0: Box(np.array([-1.0, 0.0, 0.5]), np.array([0.0, 0.25, 2.0]))}


@pytest.mark.parametrize("strategy", list(BoundStrategy))
def test_spec_defined_outside_the_package_is_bounded(strategy):
    rng = np.random.default_rng(12)
    g, specs = _box_net(rng)
    _, box = compute_bounds(g, specs, strategy)
    out = evaluate(g, sample_points(g, specs, rng, 1000))[g.output]
    assert np.all(box.lower[:, None] <= out + 1e-9)
    assert np.all(out <= box.upper[:, None] + 1e-9)
