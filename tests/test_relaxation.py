import math

import numpy as np
import pytest

from helpers import assert_sound, select_mul_relaxation, stacked_corners, where_relu_relaxation
from lirpa import (
    Add,
    BoundStrategy,
    Constant,
    DomainError,
    Exp,
    Graph,
    Input,
    Log,
    LpBall,
    Node,
    ReLU,
    ReluLowerMode,
    compute_bounds,
    exp_relaxation,
    log_relaxation,
    mul_relaxation,
    relu_relaxation,
)
from lirpa.ops import _corners

_EDGES = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, np.inf, -np.inf])


def _arrays(rel):
    """A relaxation's arrays: each input's lower and upper slope, then the lower and upper constant."""
    slopes, lower_const, upper_const = rel
    return [a for pair in slopes for a in pair] + [lower_const, upper_const]


def _assert_same_bytes(got, want):
    assert len(got[0]) == len(want[0])
    for k, (a, b) in enumerate(zip(_arrays(got), _arrays(want))):
        assert a.tobytes() == b.tobytes(), k


def _planes(rel):
    """A mul relaxation's lower and upper plane, each as its (x slope, y slope, constant)."""
    ((lx, ux), (ly, uy)), lower_const, upper_const = rel
    return (lx, ly, lower_const), (ux, uy, upper_const)


def _check_unary_sandwich(rel, fn, l, u, samples=500, beyond=False):
    rng = np.random.default_rng(0)
    l = np.atleast_1d(np.asarray(l, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    lo, hi = (l - 2.0, u + 2.0) if beyond else (l, u)
    xs = lo[:, None] + (hi - lo)[:, None] * rng.uniform(0, 1, (l.shape[0], samples))
    xs[:, 0] = lo
    xs[:, 1] = hi
    fx = fn(xs)
    ((lower_slope, upper_slope),), lower_intercept, upper_intercept = rel
    lower = lower_slope[:, None] * xs + lower_intercept[:, None]
    upper = upper_slope[:, None] * xs + upper_intercept[:, None]
    assert np.all(lower <= fx + 1e-9)
    assert np.all(fx <= upper + 1e-9)


def test_relu_crossing_golden():
    ((ls, us),), lc, uc = relu_relaxation(np.array([-5.0]), np.array([7.0]), ReluLowerMode.ZERO)
    assert us[0] == pytest.approx(7.0 / 12.0, abs=1e-12)
    assert uc[0] == pytest.approx(35.0 / 12.0, abs=1e-12)
    assert ls[0] == 0.0 and lc[0] == 0.0


def test_relu_stable_active_is_identity():
    for mode in ReluLowerMode:
        ((ls, us),), lc, uc = relu_relaxation(np.array([1.0]), np.array([3.0]), mode)
        assert us[0] == 1.0 and uc[0] == 0.0
        assert ls[0] == 1.0 and lc[0] == 0.0


def test_relu_stable_inactive_is_zero():
    ((ls, us),), _, uc = relu_relaxation(np.array([-3.0]), np.array([-1.0]))
    assert us[0] == 0.0 and uc[0] == 0.0
    assert ls[0] == 0.0


def test_relu_adaptive_tie_picks_zero_slope():
    # u == |l| is not a strict win for the identity lower line
    ((ls, us),), _, uc = relu_relaxation(np.array([-1.5]), np.array([1.5]), ReluLowerMode.ADAPTIVE)
    assert us[0] == pytest.approx(0.5, abs=1e-12)
    assert uc[0] == pytest.approx(0.75, abs=1e-12)
    assert ls[0] == 0.0


def test_relu_adaptive_slope_selection():
    ((ls, _),), _, _ = relu_relaxation(np.array([-1.0, -3.0]), np.array([2.0, 1.0]), ReluLowerMode.ADAPTIVE)
    assert ls[0] == 1.0  # u > |l|
    assert ls[1] == 0.0  # u <= |l|


@pytest.mark.parametrize("kind", ["relu", "exp", "log", "mul"])
def test_relaxation_collapses_float_noise_and_rejects_real_inversions(kind):
    relax = {"relu": relu_relaxation, "exp": exp_relaxation, "log": log_relaxation,
             "mul": lambda l, u: mul_relaxation(l, u, l, u)}[kind]
    l = np.array([0.25, 1.0, 3.0]) if kind == "log" else np.array([-2.0, 0.0, 3.0])
    # an upper end one ulp below the lower is rounding noise: the lines of the point [l, l], bit for bit
    _assert_same_bytes(relax(l, np.nextafter(l, -np.inf)), relax(l, l))
    with pytest.raises(ValueError, match="lower bound exceeds upper bound"):
        relax(l, l - 1.0)
    with pytest.raises(ValueError, match="interval endpoint shapes differ"):
        relax(l, l[:2])
    if kind == "mul":
        with pytest.raises(ValueError, match="operand shapes differ"):
            mul_relaxation(l, l, l[:2], l[:2])


def test_relu_sampling_soundness():
    rng = np.random.default_rng(1)
    for mode in ReluLowerMode:
        for _ in range(50):
            l = rng.uniform(-5, 5, 6)
            u = l + rng.uniform(0, 5, 6)
            rel = relu_relaxation(l, u, mode)
            _check_unary_sandwich(rel, lambda x: np.maximum(x, 0.0), l, u)


def test_relu_zero_mode_dominates_interval_bound():
    # the zero-mode lower line equals the constant 0, and the chord stays
    # below the constant upper endpoint everywhere on the interval
    rng = np.random.default_rng(2)
    l = -rng.uniform(0.1, 5, 8)
    u = rng.uniform(0.1, 5, 8)
    ((ls, us),), lc, uc = relu_relaxation(l, u, ReluLowerMode.ZERO)
    assert np.all(ls == 0.0) and np.all(lc == 0.0)
    xs = np.linspace(l, u, 101).T
    chord = us[:, None] * xs + uc[:, None]
    assert np.all(chord <= np.maximum(u, 0.0)[:, None] + 1e-12)


def test_exp_point_interval_degenerates_to_tangent():
    ((ls, us),), lc, uc = exp_relaxation(np.array([0.0]), np.array([0.0]))
    assert us[0] == pytest.approx(1.0, abs=1e-12)
    assert uc[0] == pytest.approx(1.0, abs=1e-12)
    assert ls[0] == pytest.approx(1.0, abs=1e-12)
    assert lc[0] == pytest.approx(1.0, abs=1e-12)


def test_exp_chord_golden():
    ((_, us),), _, uc = exp_relaxation(np.array([-1.5]), np.array([1.5]))
    slope = (np.exp(1.5) - np.exp(-1.5)) / 3.0
    assert us[0] == pytest.approx(slope, abs=1e-9)
    assert uc[0] == pytest.approx(np.exp(-1.5) + 1.5 * slope, abs=1e-9)


def test_exp_tangent_point_choice():
    # tangent sits at min(midpoint, log of chord slope), clamped into [l, u]
    l, u = np.array([-2.0]), np.array([3.0])
    ((ls, _),), lc, _ = exp_relaxation(l, u)
    chord = (np.exp(u) - np.exp(l)) / (u - l)
    d = np.minimum(0.5 * (l + u), np.log(chord))
    assert ls[0] == pytest.approx(np.exp(d)[0], abs=1e-12)
    assert lc[0] == pytest.approx((np.exp(d) * (1.0 - d))[0], abs=1e-12)


def test_exp_sampling_soundness_and_global_tangent():
    rng = np.random.default_rng(3)
    for _ in range(50):
        l = rng.uniform(-4, 2, 5)
        u = l + rng.uniform(0, 4, 5)
        rel = exp_relaxation(l, u)
        _check_unary_sandwich(rel, np.exp, l, u, samples=200)
        # convexity: the tangent holds beyond the interval too
        ((ls, _),), lc, _ = rel
        xs = np.linspace(l - 3, u + 3, 101).T
        lower = ls[:, None] * xs + lc[:, None]
        assert np.all(lower <= np.exp(xs) + 1e-9)


def test_exp_chord_wider_than_expm1_range_stays_finite():
    # expm1(1396) overflows; the chord slope is exp(696) * (1 - exp(-1396)) / 1396
    l, u = np.array([-700.0, -1.0]), np.array([696.0, 2.0])
    ((_, us),), _, uc = exp_relaxation(l, u)
    assert us[0] == pytest.approx(np.exp(696.0) / 1396.0, rel=1e-12)
    assert np.all(np.isfinite(uc))
    # the chord meets exp at both ends
    assert us[0] * u[0] + uc[0] == pytest.approx(np.exp(696.0), rel=1e-12)
    # an interval the old form handles keeps its bits
    assert us[1] == np.exp(-1.0) * np.expm1(3.0) / 3.0


def test_exp_rejects_nonfinite():
    with pytest.raises(DomainError):
        exp_relaxation(np.array([0.0]), np.array([np.inf]))


def test_log_requires_positive_domain():
    with pytest.raises(DomainError):
        log_relaxation(np.array([0.0]), np.array([1.0]))


def test_log_sampling_soundness():
    rng = np.random.default_rng(4)
    for _ in range(50):
        l = rng.uniform(0.05, 3, 5)
        u = l + rng.uniform(0, 4, 5)
        rel = log_relaxation(l, u)
        _check_unary_sandwich(rel, np.log, l, u, samples=200)


def test_log_chord_whose_width_over_l_overflows_stays_finite_and_sound():
    # (u - l) / l is past the float range here: log1p of it gave the chord an infinite slope
    l, u = np.exp([-690.0, -3.0]), np.exp([690.0, 3.0])
    ((ls, us),), lc, uc = log_relaxation(l, u)
    assert np.all(np.isfinite([ls, us, lc, uc]))
    xs = np.exp(np.linspace(np.log(l), np.log(u), 2001))  # log-spaced across both intervals
    slack = 1e-12 * np.abs(np.log(xs)).max()
    assert np.all(ls * xs + lc <= np.log(xs) + slack) and np.all(np.log(xs) <= us * xs + uc + slack)
    # log(exp(x)) on [-690, 690]: the hybrid query bounds it instead of failing closed
    nodes = (Node(0, Input(), (), 1), Node(1, Exp(), (0,), 1), Node(2, Log(), (1,), 1))
    g, specs = Graph(nodes, 2), {0: LpBall([0.0], 690.0, math.inf)}
    box = compute_bounds(g, specs, BoundStrategy.IBP_BACKWARD)[1]
    assert box.lower[0] <= -690.0 and 690.0 <= box.upper[0] < np.inf
    assert_sound(g, specs, {2: box}, np.random.default_rng(5))


def test_mul_constant_x_operand_is_exact():
    rel = mul_relaxation(
        np.array([3.0]), np.array([3.0]), np.array([-1.0]), np.array([2.0])
    )
    for plane in _planes(rel):
        assert plane[0][0] == 0.0 and plane[1][0] == 3.0 and plane[2][0] == 0.0


def test_mul_constant_y_operand_is_exact():
    rel = mul_relaxation(
        np.array([-1.0]), np.array([2.0]), np.array([4.0]), np.array([4.0])
    )
    for plane in _planes(rel):
        assert plane[0][0] == 4.0 and plane[1][0] == 0.0 and plane[2][0] == 0.0


def test_mul_unit_box_planes():
    zero = np.array([0.0])
    one = np.array([1.0])
    lower, upper = _planes(mul_relaxation(zero, one, zero, one))
    # z >= 0 below, z <= x above
    assert tuple(a[0] for a in lower) == (0.0, 0.0, 0.0)
    assert tuple(a[0] for a in upper) == (1.0, 0.0, 0.0)


def test_mul_grid_soundness():
    rng = np.random.default_rng(5)
    for _ in range(100):
        lx = rng.uniform(-3, 3, 4)
        ux = lx + rng.uniform(0, 3, 4)
        ly = rng.uniform(-3, 3, 4)
        uy = ly + rng.uniform(0, 3, 4)
        ((lx_s, ux_s), (ly_s, uy_s)), lc, uc = mul_relaxation(lx, ux, ly, uy)
        ts = np.linspace(0, 1, 21)
        xs = lx[:, None] + (ux - lx)[:, None] * ts
        ys = ly[:, None] + (uy - ly)[:, None] * ts
        for a in range(21):
            for b in range(21):
                x, y = xs[:, a], ys[:, b]
                z = x * y
                lo = lx_s * x + ly_s * y + lc
                hi = ux_s * x + uy_s * y + uc
                assert np.all(lo <= z + 1e-9)
                assert np.all(z <= hi + 1e-9)


def test_relaxation_sampling_soundness_bulk():
    # 500 samples per neuron across fresh random intervals for each op
    rng = np.random.default_rng(6)
    l = rng.uniform(-3, 1, 16)
    u = l + rng.uniform(0, 3, 16)
    _check_unary_sandwich(relu_relaxation(l, u), lambda x: np.maximum(x, 0), l, u, samples=500)
    _check_unary_sandwich(exp_relaxation(l, u), np.exp, l, u, samples=500)
    lp = np.abs(l) + 0.1
    _check_unary_sandwich(log_relaxation(lp, lp + (u - l)), np.log, lp, lp + (u - l), samples=500)


def test_exp_chord_stays_above_exp_where_exp_of_l_underflows():
    # exp(-800) underflows to 0, but exp(-700) = 9.9e-305 does not: the chord
    # must come from exp(u) * (1 - exp(-width)), not from 0 * expm1(width)
    l, u = np.array([-800.0]), np.array([-700.0])
    ((_, us),), _, uc = exp_relaxation(l, u)
    assert us[0] > 0.0
    xs = np.linspace(l[0], u[0], 101)
    upper = us[0] * xs + uc[0]
    assert np.all(upper >= np.exp(xs) * (1.0 - 1e-12))


def _edge_interval(rng, shape, pin):
    """Intervals with both ends drawn from ``_EDGES`` (either order of two zeros); the point [l, l] where ``pin``."""
    a, b = rng.choice(_EDGES, shape), rng.choice(_EDGES, shape)
    lower = np.where(a <= b, a, b)
    return lower, np.where(pin, lower, np.where(a <= b, b, a))


def test_mul_planes_and_corners_match_the_select_and_stack_references_bit_for_bit():
    rng = np.random.default_rng(14)
    s, t = 3, 5
    # y pinned at [-0.0, +0.0]: its exact line reads the lower end, whose zero is negative
    pinned_neg_zero = (np.array([-1.0]), np.array([1.0]), np.array([-0.0]), np.array([0.0]))
    with np.errstate(invalid="ignore"):  # inf * 0 planes are NaN on both sides; corners take it as 0 on both
        want = select_mul_relaxation(*pinned_neg_zero)
        _assert_same_bytes(mul_relaxation(*pinned_neg_zero), want)
        ((_, upper_x), _), _, _ = want
        assert np.signbit(upper_x[0])
        for _ in range(200):
            pin_x, pin_y = rng.random((2, s, t)) < 0.3
            lx, ux = _edge_interval(rng, (s, t), pin_x)
            ly, uy = _edge_interval(rng, (s, t), pin_y)
            _assert_same_bytes(mul_relaxation(lx, ux, ly, uy), select_mul_relaxation(lx, ux, ly, uy))
            for got, ref in zip(_corners(lx, ux, ly, uy), stacked_corners(lx, ux, ly, uy)):
                assert got.tobytes() == ref.tobytes()
            # as a MatVec reads them: the (s, t) weights against one x row, broadcast to (s, t) for the planes
            rows = [np.broadcast_to(y[0], (s, t)) for y in (ly, uy)]
            _assert_same_bytes(mul_relaxation(lx, ux, *rows), select_mul_relaxation(lx, ux, *rows))
            for got, ref in zip(_corners(lx, ux, ly[0], uy[0]), stacked_corners(lx, ux, ly[0], uy[0])):
                assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("mode", list(ReluLowerMode))
def test_relu_lines_match_the_where_reference_bit_for_bit(mode):
    rng = np.random.default_rng(9)
    signed_zeros = (np.array([-0.0, 0.0, -0.0, 0.0]), np.array([0.0, -0.0, -0.0, 0.0]))
    with np.errstate(invalid="ignore"):  # the reference's -0 * -inf off the crossing neurons
        for l, u in [signed_zeros] + [_edge_interval(rng, 16, rng.random(16) < 0.2) for _ in range(50)]:
            _assert_same_bytes(relu_relaxation(l, u, mode), where_relu_relaxation(l, u, mode))
    for _ in range(50):
        l = rng.normal(size=16) * rng.choice([1e-300, 1.0, 1e300], 16)
        u = np.where(rng.random(16) < 0.3, np.nextafter(l, -np.inf), l + np.abs(rng.normal(size=16)))
        _assert_same_bytes(relu_relaxation(l, u, mode), where_relu_relaxation(l, u, mode))


@pytest.mark.parametrize("mode", list(ReluLowerMode))
def test_relu_chord_of_finite_ends_wider_than_the_float_range(mode):
    # u - l overflows to inf: u / inf would give a crossing neuron an all-zero upper line
    l, u = np.array([-1e308, -1.7e308, -1e292, -1.0]), np.array([1e308, 1e308, 1.797e308, 1.0])
    rel = relu_relaxation(l, u, mode)
    ((ls, us),), lc, uc = rel
    assert us[0] == 0.5 and uc[0] == 5e307
    assert np.all(us > 0.0) and us[3] == 0.5 and uc[3] == 0.5
    _assert_same_bytes(rel, where_relu_relaxation(l, u, mode))
    # both lines sandwich max(x, 0) across the interval, up to rounding at the lines' scale
    xs = np.linspace(0.0, 1.0, 101)[:, None] * u + np.linspace(1.0, 0.0, 101)[:, None] * l
    fx, slack = np.maximum(xs, 0.0), 1e-12 * np.maximum(u, -l)
    assert np.all(ls * xs + lc <= fx + slack)
    assert np.all(fx <= us * xs + uc + slack)


@pytest.mark.parametrize("mode", list(ReluLowerMode))
def test_relu_chord_that_underflows_keeps_the_flat_line_at_u(mode):
    # u / (u - l) underflows to 0 on finite ends, where an all-zero upper line would read the neuron as dead,
    # or to a subnormal, whose few bits put the chord 1.2% below u at u for l = -1e23
    l = np.array([-1e30, -1.7e308, -1e23, -np.inf, -1.0])
    u = np.array([1e-300, 1e-300, 1e-300, 1e-300, 1.0])
    with np.errstate(invalid="ignore"):  # -0 * -inf: an infinite end still fails closed
        ((ls, us),), lc, uc = relu_relaxation(l, u, mode)
    assert np.array_equal(us[:3], [0.0] * 3) and np.array_equal(uc[:3], u[:3])
    assert np.isnan(uc[3]) and us[4] == 0.5 and uc[4] == 0.5
    # relu(x + 1e-300) on x in [-big, 0] reaches 1e-300 at x = 0
    nodes = (Node(0, Input(), (), 1), Node(1, Input(), (), 1), Node(2, Add(), (0, 1), 1), Node(3, ReLU(), (2,), 1))
    for big in (1e30, 1e23):
        g, specs = Graph(nodes, 3), {0: LpBall([-0.5 * big], 0.5 * big, math.inf), 1: Constant([1e-300])}
        for strategy in BoundStrategy:
            box = compute_bounds(g, specs, strategy, relu_mode=mode)[1]
            assert box.lower[0] == 0.0 and box.upper[0] == 1e-300, (big, strategy)
