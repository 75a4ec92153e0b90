"""A new op is a single class: its own rules are all the engines need."""
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from helpers import (
    assert_linear_sound,
    assert_sound,
    explicit_backward,
    explicit_forward,
    explicit_interval,
    sample_points,
    select_mul_relaxation,
    signed_lines_forward,
    signed_mix,
    stacked_corners,
)
from lirpa import (
    Add,
    Affine,
    BoundStrategy,
    Constant,
    DomainError,
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
    flatness_score,
    parse_problem,
)
from lirpa import ops
from lirpa.backward import BoundQuery
from lirpa.ops import Elementwise, MatVec, OpKind, _Linear


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


@dataclass(frozen=True)
class YMinusXMinusZ(_Linear):
    """h = y - x - z coordinatewise, defined by its map, its dims check and its signs alone."""

    kind = "y_minus_x_minus_z"
    arity = 3
    signs = (-1, 1, -1)

    def check(self, dim, in_dims):
        return None if in_dims == [dim] * 3 else f"{self.kind} requires equal dims, got {in_dims} -> {dim}"

    def eval(self, xs):
        return xs[1] - xs[0] - xs[2]


@pytest.mark.parametrize("strategy", list(BoundStrategy))
def test_a_linear_op_defined_by_its_map_and_signs_alone_is_bounded(strategy):
    rng = np.random.default_rng(23)
    head = (
        Node(0, Input(), (), 3),
        Node(1, Affine(rng.uniform(-1, 1, (3, 3)), rng.uniform(-0.5, 0.5, 3)), (0,), 3),
        Node(2, ReLU(), (1,), 3),
    )
    tail = lambda k: (Node(k, ReLU(), (k - 1,), 3), Node(k + 1, Affine(np.array([[1.0, -2.0, 0.5]]), [0.25]), (k,), 1))
    g = Graph(head + (Node(3, YMinusXMinusZ(), (1, 2, 0), 3),) + tail(4), 5)
    # the same map from built-in ops: (y - x) - z
    built = Graph(head + (Node(3, Sub(), (2, 1), 3), Node(4, Sub(), (3, 0), 3)) + tail(5), 6)
    specs = {0: LpBall(rng.uniform(-1, 1, 3), 0.4, math.inf)}
    for target, built_target in ((3, 4), (5, 6)):
        for mode in ReluLowerMode:
            native, box = compute_bounds(g, specs, strategy, target, relu_mode=mode)
            assert_sound(g, specs, {target: box}, rng, n=2000, slack=1e-9)
            if strategy is not BoundStrategy.IBP:
                assert_linear_sound(g, specs, {target: native}, rng, n=2000, slack=1e-9)
            want = compute_bounds(built, specs, strategy, built_target, relu_mode=mode)[1]
            assert np.allclose(box.lower, want.lower, rtol=0, atol=1e-12)
            assert np.allclose(box.upper, want.upper, rtol=0, atol=1e-12)


_ENDS = np.array([-np.inf, -2.5, -1.0, -0.0, 0.0, 0.5, 3.0, np.inf])


def _same_bytes(got, want) -> bool:
    got, want = list(got), list(want)
    return len(got) == len(want) and all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_derived_rules_equal_the_explicit_ones_bit_for_bit():
    # interval, forward and backward of each op whose rules come from its map and signs, against helpers' references
    rng = np.random.default_rng(29)
    pairs = np.array([(l, u) for l in _ENDS for u in _ENDS if l <= u])  # -0.0 <= 0.0 and 0.0 <= -0.0 both hold
    d, positive = len(pairs), pairs[pairs[:, 0] > 0.0]
    boxes = [IntervalBounds(*pairs[rng.permutation(d)].T) for _ in range(2)]
    log_domain = [IntervalBounds(*positive[rng.integers(0, len(positive), d)].T) for _ in range(2)]
    weight, bias = rng.choice([-1.5, -0.0, 0.0, 2.0], (3, d)), rng.choice([-0.5, -0.0, 0.0, 1.0], 3)
    ops = [Affine(weight, bias), ReLU(), Exp(), Log(), Neg(), Add(), Sub(), SumReduce()]
    block = lambda: LinearBounds(*(rng.choice(_ENDS, shape) for shape in ((d, 4), (d,)) * 2))
    checked = []
    with np.errstate(all="ignore"):
        for op in ops:
            for inputs in (boxes[:op.arity], log_domain[:op.arity]):
                try:
                    want = explicit_interval(op, inputs)
                except DomainError:  # a log whose interval touches zero: outside its domain both ways
                    with pytest.raises(DomainError):
                        op.interval(inputs)
                    continue
                got = op.interval(inputs)
                assert _same_bytes((got.lower, got.upper), (want.lower, want.upper)), op.kind
                checked.append((op.kind, "interval"))
            if op.relaxed:  # its lines op carries forward and backward
                continue
            bounds = [block() for _ in range(op.arity)]
            got, want = op.forward(bounds), explicit_forward(op, bounds)
            assert _same_bytes(vars(got).values(), vars(want).values()), op.kind
            checked.append((op.kind, "forward"))
            if isinstance(op, Affine):  # its own backward is unchanged
                continue
            lower, upper = (rng.choice(_ENDS, (3, 1 if isinstance(op, SumReduce) else d)) for _ in range(2))
            for lo, up in ((lower, upper), (lower, lower)):
                (lams, d_lo, d_up), (want, w_lo, w_up) = op.backward(lo, up, d), explicit_backward(op, lo, up, d)
                assert _same_bytes([a for pair in lams for a in pair], [a for pair in want for a in pair]), op.kind
                assert _same_bytes((d_lo, d_up), (w_lo, w_up)), op.kind
            checked.append((op.kind, "backward"))
    assert len(checked) == 2 * len(ops) - 1 + 5 + 4  # log's interval only on its domain


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
        assert_linear_sound(g, specs, {5: compute_bounds(g, specs, BoundStrategy.FORWARD, 5)[0]}, rng, n=10_000, slack=1e-9)
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
    (lower_x, upper_x), *_ = planes.rel

    def on_w(coeff, slope_pos, slope_neg):
        pos, neg = np.maximum(coeff, 0.0), np.minimum(coeff, 0.0)
        return (pos[:, :, None] * slope_pos + neg[:, :, None] * slope_neg).reshape(len(pos), -1)

    dense = on_w(lower, lower_x, upper_x), on_w(upper, upper_x, lower_x)
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
        got, want = ball.extremes(lo, up), ball.extremes(dense_lo, dense_up)
        for a, b in zip(got, want):
            assert a == pytest.approx(b, rel=1e-13, abs=1e-15)


def test_a_constant_concretizes_a_coefficient_as_its_product_with_the_value():
    rng = np.random.default_rng(47)
    for _ in range(5):
        factored, dense = _weight_coeffs(rng, pin=True)
        spec = Constant(rng.uniform(-1, 1, 12))
        assert not isinstance(factored[0], np.ndarray)
        for w_lo, w_up in (factored, dense):
            lo, hi = spec.extremes(w_lo, w_up)
            assert lo.tobytes() == (w_lo @ spec.value).tobytes()
            assert hi.tobytes() == (w_up @ spec.value).tobytes()


def _pinned_planes(rng, s=4, t=5):
    """A MatVec's planes over weight and x intervals with every third weight and x column 1 pinned."""
    w_box = np.sort(rng.uniform(-1, 1, (2, s * t)), axis=0)
    x_box = np.sort(rng.uniform(-1, 1, (2, t)), axis=0)
    w_box[1, ::3] = w_box[0, ::3]
    x_box[1, 1] = x_box[0, 1]
    return MatVec(rng.uniform(-1, 1, s)).relax([IntervalBounds(*w_box), IntervalBounds(*x_box)], ReluLowerMode.ZERO)


def test_matvec_planes_are_vectors_and_a_view_of_the_weights_lower_end():
    planes, s, t = _pinned_planes(np.random.default_rng(44)), 4, 5
    (lower_w, upper_w), on_x, pinned, lower_const, upper_const = rel = planes.rel
    assert planes.rel is rel  # computed once per relaxed node, so once per query
    assert on_x.shape == (s, t) and np.shares_memory(on_x, planes.w.lower) and not on_x.flags.owndata
    vectors = [lower_w, upper_w, pinned, lower_const, upper_const]
    assert [a.shape for a in vectors] == [(t,)] * 3 + [(s,)] * 2
    assert not any(np.shares_memory(a, planes.w.lower) for a in vectors)
    assert pinned.tolist() == [False, True, False, False, False]


def test_matvec_planes_bound_every_product_and_expand_to_the_mul_planes():
    rng = np.random.default_rng(45)
    for _ in range(20):
        planes, s, t = _pinned_planes(rng), 4, 5
        (lower_w, upper_w), on_x, pinned, lower_const, upper_const = planes.rel
        lw, uw, lx, ux = planes.w.lower.reshape(s, t), planes.w.upper.reshape(s, t), planes.x.lower, planes.x.upper
        on_x = np.where(pinned, 0.0, on_x)
        # sampled weights and inputs, the box's corners among them, pinned entries at their point
        ws = lw[..., None] + (uw - lw)[..., None] * rng.uniform(0, 1, (s, t, 200))
        xs = lx[:, None] + (ux - lx)[:, None] * rng.uniform(0, 1, (t, 200))
        ws[..., :2], xs[:, :2] = np.stack([lw, uw], axis=-1), np.stack([lx, ux], axis=-1)
        product = np.einsum("ijk,jk->ik", ws, xs)
        below = np.einsum("j,ijk->ik", lower_w, ws) + on_x @ xs + lower_const[:, None]
        above = np.einsum("j,ijk->ik", upper_w, ws) + on_x @ xs + upper_const[:, None]
        assert np.all(below <= product + 1e-13) and np.all(product <= above + 1e-13)
        # off the pinned weights, each term's planes are mul_relaxation's: the reference's, term by term
        ((ref_lw, ref_uw), (ref_lx, ref_ux)), ref_lc, ref_uc = select_mul_relaxation(
            lw, uw, np.broadcast_to(lx, (s, t)), np.broadcast_to(ux, (s, t))
        )
        free = lw != uw
        for got, want in [(lower_w, ref_lw), (upper_w, ref_uw), (on_x, ref_lx), (on_x, ref_ux)]:
            assert np.allclose(np.broadcast_to(got, (s, t))[free], want[free], rtol=0.0, atol=1e-13)
        # a pinned weight keeps the general planes, whose constants reach the row sums
        for got, want, end in [(lower_const, ref_lc, lx), (upper_const, ref_uc, ux)]:
            general = np.where(pinned, 0.0, -lw * end)
            assert np.allclose(got, np.where(free, want, general).sum(axis=1), rtol=0.0, atol=1e-13)


def test_matvec_backward_and_its_concretization_build_no_weight_sized_array():
    import tracemalloc

    rng, s, t, rows = np.random.default_rng(46), 256, 256, 3
    w = rng.uniform(-1, 1, s * t)
    box = [IntervalBounds(w - 0.1, w + 0.1), IntervalBounds(*np.sort(rng.uniform(-1, 1, (2, t)), axis=0))]
    planes, coeff = MatVec(np.zeros(s)).relax(box, ReluLowerMode.ZERO), rng.uniform(-1, 1, (rows, s))
    balls = [LpBall(w, 0.1, p) for p in (1.0, 2.0, math.inf)]  # dual norms inf, 2 and 1
    tracemalloc.start()
    try:  # the relaxation, one backward step and the concretization of its weight coefficients
        (on_w, _), _, _ = planes.backward(coeff, coeff, s * t)
        for ball in balls:
            ball.extremes(on_w[0], on_w[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < s * t * 8 / 8  # an (s, t) float array is 8 times this
    assert np.asarray(on_w[0]).shape == (rows, s * t)


def _matvec_interval_cases(rng, s=6, t=24):
    """(W box, x box, whether the gemv rule applies) for ``MatVec.interval``.

    W has pinned entries, entries that straddle 0 and entries with an end at a signed zero. x is pinned
    with mixed signs and zeros of both signs, nonnegative with ends at 0, crossing 0 in one column, or
    nonnegative or pinned with an infinite end; last, W has an infinite end under both finite kinds of x.
    """
    lw, uw = np.sort(rng.uniform(-1, 1, (2, s * t)), axis=0)
    lw[::5] = uw[::5]
    index = np.arange(s * t) % 7
    lw[(index == 3) & (uw >= 0.0)], uw[(index == 4) & (lw <= 0.0)] = -0.0, 0.0
    pinned = rng.uniform(-1, 1, t)
    pinned[::4], pinned[1::8] = 0.0, -0.0
    pinned_lo, pinned_hi = pinned.copy(), pinned.copy()
    pinned_lo[2], pinned_hi[2] = -0.0, 0.0  # pinned, though its ends differ in the sign of a zero
    lx, ux = np.sort(rng.uniform(0, 1, (2, t)), axis=0)
    lx[::3], lx[1::6], ux[::9] = 0.0, -0.0, 0.0
    crossing = np.array([lx, ux])
    crossing[:, 5] = -0.5, 0.5
    with_inf = lambda box: np.where(np.arange(t) == 3, np.inf, box)
    w, w_inf = IntervalBounds(lw, uw), IntervalBounds(np.where(np.arange(s * t) == 10, -np.inf, lw), uw)
    return [
        (w, IntervalBounds(pinned_lo, pinned_hi), True),
        (w, IntervalBounds(lx, ux), True),
        (w, IntervalBounds(*crossing), False),
        (w, IntervalBounds(lx, with_inf(ux)), False),
        (w, IntervalBounds(with_inf(pinned), with_inf(pinned)), False),
        (w_inf, IntervalBounds(pinned_lo, pinned_hi), False),
        (w_inf, IntervalBounds(lx, ux), False),
    ]


def _picked(w, x) -> tuple[np.ndarray, np.ndarray]:
    """Each term's min and max product, (s, t), from the stacked reference."""
    t = len(x.lower)
    return stacked_corners(w.lower.reshape(-1, t), w.upper.reshape(-1, t), x.lower, x.upper)


@pytest.fixture
def corner_folds(monkeypatch):
    """The ``_corners`` calls made while a test runs."""
    calls = []

    def spy(*args):
        calls.append(args)
        return corners(*args)

    corners = ops._corners
    monkeypatch.setattr(ops, "_corners", spy)
    return calls


def test_matvec_interval_contains_sampled_weights_inputs_and_corners():
    rng = np.random.default_rng(48)
    for w, x, _ in _matvec_interval_cases(rng):
        if not all(np.isfinite(end).all() for end in (w.lower, w.upper, x.lower, x.upper)):
            continue
        op, n = MatVec(rng.uniform(-1, 1, 6)), 2000
        box = op.interval([w, x])
        uniform = lambda b, k: b.lower[:, None] + (b.upper - b.lower)[:, None] * rng.uniform(0, 1, (len(b.lower), k))
        vertex = lambda b, k: np.where(rng.integers(0, 2, (len(b.lower), k)) == 1, b.upper[:, None], b.lower[:, None])
        ws = np.concatenate([uniform(w, n), vertex(w, n)], axis=1)
        xs = np.concatenate([uniform(x, n), vertex(x, n)], axis=1)
        values = op.eval([ws, xs])
        assert np.all(box.lower[:, None] <= values + 1e-12) and np.all(values <= box.upper[:, None] + 1e-12)
        # each row's ends are its terms' picked corners, summed
        lo, hi = _picked(w, x)
        for end, want in ((box.lower, lo), (box.upper, hi)):
            assert np.allclose(end - op.bias, want.sum(axis=1), rtol=0.0, atol=1e-13)


def test_matvec_interval_sums_the_picked_products_by_gemv_where_x_is_pinned_or_nonnegative(corner_folds):
    rng, u = np.random.default_rng(49), 2.0**-53
    for w, x, fast in _matvec_interval_cases(rng):
        if not fast:
            continue
        t = len(x.lower)
        gamma = t * u / (1 - t * u)
        box = MatVec(np.zeros(6)).interval([w, x])
        for end, picked in zip((box.lower, box.upper), _picked(w, x)):
            # the same real sum as the fold's, in another order: within gamma_t of each row's |terms|
            assert np.all(np.abs(end - picked.sum(axis=1)) <= gamma * np.abs(picked).sum(axis=1))
    assert corner_folds == []  # no (s, t) corner array


def test_matvec_interval_folds_the_corners_exactly_where_x_crosses_0_or_an_end_is_infinite(corner_folds):
    rng = np.random.default_rng(50)
    for w, x, fast in _matvec_interval_cases(rng):
        del corner_folds[:]
        op = MatVec(rng.uniform(-1, 1, 6))
        with np.errstate(invalid="ignore"):  # 0 * inf: the fold's NaN where a zero meets an infinite end
            box, (lo, hi) = op.interval([w, x]), _picked(w, x)
        assert len(corner_folds) == (0 if fast else 1)
        if fast:
            continue
        assert box.lower.tobytes() == (lo.sum(axis=1) + op.bias).tobytes()
        assert box.upper.tobytes() == (hi.sum(axis=1) + op.bias).tobytes()
        if x.finite:  # an infinite weight end in row 0 leaves every other row, and row 0's upper end, bounded
            assert np.isfinite(box.lower[1:]).all() and np.isfinite(box.upper).all()


def test_a_warm_flatness_query_builds_no_weight_sized_array():
    import tracemalloc

    rng, width = np.random.default_rng(51), 256
    nodes = [Node(0, Input(), (), width)]
    for k, s in enumerate([width, width, 10]):  # two width x width layers: one on a pinned x, one on x >= 0
        w = rng.normal(0.0, 1.0 / math.sqrt(width), (s, width))
        nodes.append(Node(len(nodes), Affine(w, rng.normal(0.0, 0.1, s)), (len(nodes) - 1,), s))
        if k < 2:
            nodes.append(Node(len(nodes), ReLU(), (len(nodes) - 1,), s))
    g = Graph(tuple(nodes), len(nodes) - 1)
    batch = [({0: rng.uniform(-1, 1, width)}, 0)]
    first = flatness_score(g, 1e-3, batch)
    wg, specs, _ = g._weight_graph[1]
    matvecs = [node for node in wg.nodes if isinstance(node.op, MatVec)]
    boxes = [specs[node.inputs[0]].box() for node in matvecs]
    parts = [box.__dict__.get("sign_parts") for box in boxes]
    # the sign parts are kept, read-only, for the one box whose x is nonnegative and whose interval is read:
    # not the first layer's, on a pinned x, nor the output's, which the backward pass bounds
    assert [p is None for p in parts] == [True, False, True]
    assert len(parts[1]) == 4 and not any(a.flags.writeable for a in parts[1])
    tracemalloc.start()
    try:
        second = flatness_score(g, 1e-3, batch)
        query_peak = tracemalloc.get_traced_memory()[1]
        assert all(box.__dict__.get("sign_parts") is p for box, p in zip(boxes, parts))
        # the interval rule alone, on the two width x width layers' boxes of a new query
        query = BoundQuery(wg, {**specs, 0: Constant(batch[0][0][0])}, BoundStrategy.IBP_BACKWARD)
        ins = [[query.interval(j) for j in node.inputs] for node in matvecs[:2]]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        for node, intervals in zip(matvecs, ins):
            node.op.interval(intervals)
        rule_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert second == first
    # a (width, width) float array is 8 times this: the rule builds no array of that many bytes, even of bools;
    # the whole query holds some forty width-long vectors besides, but no weight-sized array
    assert rule_peak < width * width * 8 / 8
    assert query_peak < width * width * 8


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
        if not op.relaxed:  # exact, so one array still serves both sides of each input
            assert all(lo is up for lo, up in lams), op.kind
        # the same bits as two separate arrays give
        split, s_lo, s_up = rule.backward(coeff.copy(), coeff.copy(), 4)
        for (lo, up), (want_lo, want_up) in zip(lams, split):
            assert np.array_equal(lo, want_lo) and np.array_equal(up, want_up), op.kind
        assert np.array_equal(d_lo, s_lo) and np.array_equal(d_up, s_up), op.kind


def _bounds_with_signed_zeros(rng, rows, cols) -> LinearBounds:
    parts = [rng.uniform(-1, 1, shape) for shape in ((rows, cols), (rows,)) * 2]
    for part in parts:
        pick = rng.integers(0, 4, part.shape)
        part[pick == 0], part[pick == 1] = 0.0, -0.0
    return LinearBounds(*parts)


def test_a_monotone_lines_op_mixes_one_bound_per_side(monkeypatch):
    from lirpa import ops

    rng = np.random.default_rng(19)
    l = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, -3.0, 0.2])
    u = np.array([-1.0, 1.0, 2.0, 0.0, 1.5, 1.0, 0.5, 3.0])  # dead, unstable, active and pinned neurons
    box, positive = IntervalBounds(l, u), IntervalBounds(np.abs(l) + 0.1, np.abs(l) + 0.1 + (u - l))
    lines = [ReLU().relax([box], mode) for mode in ReluLowerMode]
    lines += [Exp().relax([box], ReluLowerMode.ZERO), Log().relax([positive], ReluLowerMode.ZERO)]
    b = _bounds_with_signed_zeros(rng, len(l), 5)
    split, posneg = [], ops._posneg
    monkeypatch.setattr(ops, "_posneg", lambda a: split.append(a.shape) or posneg(a))
    for op in lines:
        got, want = op.forward([b]), signed_lines_forward(op, b)
        assert all(np.array_equal(x, y) for x, y in zip(vars(got).values(), vars(want).values()))
    assert split == []  # no slope of these lines is negative: nothing to split


def test_matvec_planes_mix_both_bounds_even_where_no_slope_is_negative(monkeypatch):
    # every slope on W's terms is an x bound >= 0, as after a ReLU; each mix keeps the signed split, bit for bit
    from lirpa import ops

    rng = np.random.default_rng(20)
    s, t = 3, 4
    w, x = rng.uniform(-1, 1, s * t), rng.uniform(0.0, 1.0, t)
    box = [IntervalBounds(w - 0.1, w + 0.1), IntervalBounds(x, x + 0.2)]
    planes = MatVec(rng.uniform(-1, 1, s)).relax(box, ReluLowerMode.ZERO)
    mixes, mix_rows = [], ops._mix_rows

    def checked(slope, on_pos, on_neg, signed):
        mixed = mix_rows(slope, on_pos, on_neg, signed)
        mixes.append((slope.min() >= 0.0, mixed.tobytes() == signed_mix(slope, on_pos, on_neg).tobytes()))
        return mixed

    monkeypatch.setattr(ops, "_mix_rows", checked)
    planes.forward([_bounds_with_signed_zeros(rng, s * t, 6), _bounds_with_signed_zeros(rng, t, 6)])
    assert mixes == [(True, True)] * 4


def test_affine_copies_a_callers_arrays():
    w, b = np.array([[1.0, -2.0], [3.0, 4.0]]), np.array([0.5, -0.5])
    affine = Affine(w, b)
    w[0, 0] = b[0] = 9.0
    assert affine.weight[0, 0] == 1.0 and affine.bias[0] == 0.5
    w.flags.writeable = b.flags.writeable = False  # a frozen array is copied as well
    again = Affine(w, b)
    assert not np.shares_memory(again.weight, w) and not np.shares_memory(again.bias, b)


def test_op_arrays_are_read_only():
    affine = Affine([[1.0, -2.0], [3.0, 4.0]], [0.5, -0.5])
    arrays = [affine.weight, affine.bias, affine.w_pos, affine.w_neg, MatVec(np.zeros(2)).bias]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 5.0
    g = Graph((Node(0, Input(), (), 2), Node(1, affine, (0,), 2)), 1)
    with pytest.raises(ValueError):
        g.nodes[1].op.weight[0, 0] = 5.0


def test_an_add_over_unequal_dims_fails_closed_with_its_node_id():
    with pytest.raises(GraphError, match=r"node 2: add requires equal dims, got \[2, 3\] -> 2"):
        Graph((Node(0, Input(), (), 2), Node(1, Input(), (), 3), Node(2, Add(), (0, 1), 2)), 2)


@pytest.mark.parametrize(
    "weight, bias, message",
    [
        ([1.0, 2.0], [0.0], r"node 1: affine weight must be a matrix, got shape \(2,\)"),
        ([[1.0], [2.0]], [0.0], r"node 1: affine bias length \(1,\) does not match weight rows 2"),
        ([[1.0], [2.0], [3.0]], [0.0, 0.0, 0.0], "node 1: affine weight has 3 rows but node dim is 2"),
    ],
)
def test_a_malformed_affine_node_fails_closed_with_its_node_id(weight, bias, message):
    doc = {
        "nodes": [
            {"op": "input", "inputs": [], "dim": 1},
            {"op": "affine", "inputs": [0], "dim": 2, "weight": weight, "bias": bias},
        ],
        "output": 1,
    }
    with pytest.raises(GraphError, match=message):
        parse_problem(json.dumps(doc))
    with pytest.raises(GraphError, match=message.split(": ", 1)[1]):
        Graph((Node(0, Input(), (), 1), Node(1, Affine(weight, bias), (0,), 2)), 1)


@pytest.mark.parametrize("op", [Add(), Sub(), MulElementwise()])
def test_a_vector_meeting_a_batch_evaluates_as_the_tiled_batch(op):
    rng = np.random.default_rng(48)
    g = Graph((Node(0, Input(), (), 3), Node(1, Input(), (), 3), Node(2, op, (0, 1), 3)), 2)
    vector, batch = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, (3, 4))
    tiled = np.tile(vector[:, None], (1, 4))
    for values, want in [({0: vector, 1: batch}, {0: tiled, 1: batch}), ({0: batch, 1: vector}, {0: batch, 1: tiled})]:
        got = evaluate(g, values)[2]
        assert got.shape == (3, 4) and np.array_equal(got, evaluate(g, want)[2])
