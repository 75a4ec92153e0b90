"""A new perturbation kind is a single class: its own rules are all the engines need."""
import copy
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from helpers import sample_points
from lirpa import (
    Add,
    Affine,
    BoundStrategy,
    Constant,
    Graph,
    Input,
    IntervalBounds,
    LpBall,
    MulElementwise,
    Node,
    PerturbationSpec,
    ReLU,
    compute_bounds,
    evaluate,
    run_backward,
)
from lirpa.concretize import concretize_blocks
from lirpa.perturb import parse_perturbation


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

    def extremes(self, w_lo, w_up):
        # each coordinate sits at whichever end its coefficient prefers
        return (
            np.maximum(w_lo, 0.0) @ self.lower + np.minimum(w_lo, 0.0) @ self.upper,
            np.maximum(w_up, 0.0) @ self.upper + np.minimum(w_up, 0.0) @ self.lower,
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


def _pinned_last_net(rng):
    """An affine net reading a ball on input 0 and a constant on input 1: the pinned input comes second."""
    nodes = (
        Node(0, Input(), (), 3),
        Node(1, Input(), (), 2),
        Node(2, Affine(rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, 2)), (0,), 2),
        Node(3, Add(), (2, 1), 2),
        Node(4, Affine(rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, 3)), (3,), 3),
    )
    return Graph(nodes, 4), {0: LpBall(rng.uniform(-1, 1, 3), 0.3, 2.0), 1: Constant(rng.uniform(-1, 1, 2))}


@pytest.mark.parametrize("strategy", [BoundStrategy.BACKWARD, BoundStrategy.IBP_BACKWARD, BoundStrategy.FORWARD_BACKWARD])
def test_every_reached_input_is_concretized_by_its_own_spec_in_input_order(strategy):
    rng = np.random.default_rng(13)
    for _ in range(10):
        g, specs = _pinned_last_net(rng)
        state = run_backward(g, g.output)
        coeffs = [(specs[i], state.lower_coeff[i], state.upper_coeff[i]) for i in (0, 1)]
        want = concretize_blocks(state.lower_bias, state.upper_bias, coeffs)
        native, box = compute_bounds(g, specs, strategy)
        assert box.lower.tobytes() == want.lower.tobytes() and box.upper.tobytes() == want.upper.tobytes()
        # the native bound keeps the ball's columns and folds the constant into its biases
        value = specs[1].value
        assert np.array_equal(native.lower_w, state.lower_coeff[0]) and np.array_equal(native.upper_w, state.upper_coeff[0])
        assert native.lower_b.tobytes() == (state.lower_bias + state.lower_coeff[1] @ value).tobytes()
        assert native.upper_b.tobytes() == (state.upper_bias + state.upper_coeff[1] @ value).tobytes()


SYNONYM = {
    "type": "synonym",
    "delta": 1,
    "words": ["a", "b"],
    "substitutions": {"1": ["c"]},
    "embeddings": {"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]},
}
DOCS = [
    {"type": "constant", "value": [0.5, -1.0]},
    {"type": "lp", "center": [0.5, -1.0], "eps": 0.1, "p": 2.0},
    {"type": "lp", "center": [0.5, -1.0], "eps": 0.1, "p": "inf"},
    SYNONYM,
]


def _changed(doc, path, value):
    doc = copy.deepcopy(doc)
    *outer, last = path
    inner = doc
    for key in outer:
        inner = inner[key]
    inner[last] = value
    return doc


@pytest.mark.parametrize("doc", DOCS, ids=lambda doc: doc["type"])
def test_spec_equality_holds_across_parse_serialize_parse(doc):
    spec = parse_perturbation(doc)
    again = parse_perturbation(json.loads(json.dumps(spec.to_json())))
    assert spec == again and not spec != again
    assert again == parse_perturbation(json.loads(json.dumps(again.to_json())))


@pytest.mark.parametrize(
    "doc, path, value",
    [
        (DOCS[0], ("value", 1), -0.5),
        (DOCS[1], ("center", 0), 0.25),
        (DOCS[1], ("eps",), 0.2),
        (DOCS[1], ("p",), 3.0),
        (DOCS[2], ("p",), 2.0),
        (SYNONYM, ("words", 0), "c"),
        (SYNONYM, ("substitutions", "1", 0), "a"),
        (SYNONYM, ("delta",), 0),
        (SYNONYM, ("embeddings", "c", 1), 2.0),
    ],
)
def test_specs_differ_when_a_document_field_differs(doc, path, value):
    assert parse_perturbation(doc) != parse_perturbation(_changed(doc, path, value))


def test_specs_of_different_kinds_sharing_a_center_differ():
    synonym = parse_perturbation(SYNONYM)
    center = synonym.center.tolist()
    kinds = [Constant(center), LpBall(center, 0.0, math.inf), LpBall(center, 0.0, 2.0), synonym]
    for a, b in itertools.combinations(kinds, 2):
        assert np.array_equal(a.center, b.center) and a != b and b != a
    assert all(spec != spec.to_json() for spec in kinds)


def test_spec_equality_ignores_the_sign_of_zero():
    # as the arrays' own np.array_equal does
    assert Constant([0.0, 1.0]) == Constant([-0.0, 1.0])
    assert LpBall([-0.0], 0.0, 2.0) == LpBall([0.0], -0.0, 2.0)
    negative = _changed(SYNONYM, ("embeddings", "a", 1), -0.0)
    assert parse_perturbation(SYNONYM) == parse_perturbation(negative)
