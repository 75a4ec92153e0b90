"""Graph operators, each one class carrying its own rules.

A dependent op defines:

- ``check(dim, in_dims)``: what is wrong with the node's dims, or None;
- ``eval(xs)``: its value from input values (vectors or (dim, m) batches);
- ``interval(inputs)``: its interval from its inputs' intervals;
- ``forward(bounds)``: its linear bounds from its inputs' linear bounds;
- ``backward(lower_coeff, upper_coeff, in_dim)``: one (lower, upper)
  coefficient pair per input, in input order, plus the bias increments of
  both sides. Both coefficients may be one array, and no rule writes to its
  arguments.

A ``relaxed`` op defines ``relax(intervals, relu_mode)`` in place of the
last two: from its inputs' intervals it returns an op with fixed lines,
which is not relaxed and carries the ``forward`` and ``backward`` rules.
A query relaxes each relaxed node once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import DomainError, GraphError
from .linear import IntervalBounds, LinearBounds
from .relaxation import mul_relaxation, unary_relaxation

__all__ = [
    "OpKind", "Elementwise", "UnaryRelaxed", "Input", "Affine", "ReLU", "Exp", "Log",
    "Neg", "Add", "Sub", "MulElementwise", "MatVec", "SumReduce",
]


@dataclass(frozen=True)
class OpKind:
    """Base of every op: its document ``kind``, its arity and its rules."""

    kind: ClassVar[str]
    arity: ClassVar[int]
    relaxed: ClassVar[bool] = False

    def check(self, dim: int, in_dims: list[int]) -> str | None:
        """What is wrong with the node's dims, if anything."""


@dataclass(frozen=True)
class Input(OpKind):
    """An independent node; its value or region comes from a spec."""

    kind = "input"
    arity = 0


class Elementwise(OpKind):
    """An op whose output and inputs all share one dimension."""

    def check(self, dim, in_dims):
        if any(d != dim for d in in_dims):
            return f"{self.kind} requires equal dims, got {in_dims} -> {dim}"


def _align_batch(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # a single vector meets a (dim, m) batch: broadcast it columnwise
    if a.ndim != b.ndim:
        if a.ndim == 1:
            a = a[:, None]
        else:
            b = b[:, None]
    return a, b


def _posneg(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.maximum(a, 0.0), np.minimum(a, 0.0)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _corners(lx, ux, ly, uy) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise min and max of x * y over the box [lx, ux] x [ly, uy]."""
    corners = np.stack([lx * ly, lx * uy, ux * ly, ux * uy])
    return corners.min(axis=0), corners.max(axis=0)


def _zero_bias(coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    zero = np.zeros(coeff.shape[0])
    return zero, zero.copy()


def _mix_rows(slope: np.ndarray, on_pos: np.ndarray, on_neg: np.ndarray) -> np.ndarray:
    """diag_+(slope) @ on_pos + diag_-(slope) @ on_neg as row scaling."""
    pos, neg = _posneg(slope)
    if on_pos.ndim == 2:
        return pos[:, None] * on_pos + neg[:, None] * on_neg
    return pos * on_pos + neg * on_neg


def _unary_mix(lower_slope, lower_icpt, upper_slope, upper_icpt, b: LinearBounds) -> tuple:
    """The (lower_w, lower_b, upper_w, upper_b) of lines with these slopes and intercepts over ``b``."""
    lw = _mix_rows(lower_slope, b.lower_w, b.upper_w)
    lb_ = _mix_rows(lower_slope, b.lower_b, b.upper_b) + lower_icpt
    uw = _mix_rows(upper_slope, b.upper_w, b.lower_w)
    ub = _mix_rows(upper_slope, b.upper_b, b.lower_b) + upper_icpt
    return lw, lb_, uw, ub


@dataclass(frozen=True, eq=False)
class Affine(OpKind):
    """h = weight @ x + bias with a constant weight matrix."""

    weight: np.ndarray
    bias: np.ndarray

    kind = "affine"
    arity = 1

    def __post_init__(self):
        w = np.array(self.weight, dtype=np.float64)
        if w.ndim != 2:
            raise GraphError(f"affine weight must be a matrix, got shape {w.shape}")
        b = np.array(self.bias, dtype=np.float64) if self.bias is not None else np.zeros(w.shape[0])
        if b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise GraphError(
                f"affine bias length {b.shape} does not match weight rows {w.shape[0]}"
            )
        # frozen: a graph is shared, and a backward pass may hand out the weight itself
        object.__setattr__(self, "weight", _frozen(w))
        object.__setattr__(self, "bias", _frozen(b))

    @cached_property
    def w_pos(self) -> np.ndarray:
        return _frozen(np.maximum(self.weight, 0.0))

    @cached_property
    def w_neg(self) -> np.ndarray:
        return _frozen(np.minimum(self.weight, 0.0))

    def __eq__(self, other):
        return (
            isinstance(other, Affine)
            and np.array_equal(self.weight, other.weight)
            and np.array_equal(self.bias, other.bias)
        )

    def check(self, dim, in_dims):
        rows, cols = self.weight.shape
        if rows != dim:
            return f"affine weight has {rows} rows but node dim is {dim}"
        if cols != in_dims[0]:
            return f"affine weight has {cols} columns but input dim is {in_dims[0]}"

    def eval(self, xs):
        y = self.weight @ xs[0]
        return y + (self.bias if y.ndim == 1 else self.bias[:, None])

    def interval(self, inputs):
        x = inputs[0]
        lo = self.w_pos @ x.lower + self.w_neg @ x.upper + self.bias
        hi = self.w_pos @ x.upper + self.w_neg @ x.lower + self.bias
        return IntervalBounds(lo, hi)

    def forward(self, bounds):
        b = bounds[0]
        return LinearBounds(
            self.w_pos @ b.lower_w + self.w_neg @ b.upper_w,
            self.w_pos @ b.lower_b + self.w_neg @ b.upper_b + self.bias,
            self.w_pos @ b.upper_w + self.w_neg @ b.lower_w,
            self.w_pos @ b.upper_b + self.w_neg @ b.lower_b + self.bias,
        )

    def backward(self, lower_coeff, upper_coeff, in_dim):
        lam, d = lower_coeff @ self.weight, lower_coeff @ self.bias
        if upper_coeff is lower_coeff:  # one product serves both sides
            return [(lam, lam)], d, d
        return [(lam, upper_coeff @ self.weight)], d, upper_coeff @ self.bias


class UnaryRelaxed(Elementwise):
    """A unary nonlinear op, relaxed by the ``unary_relaxation`` lines of its kind."""

    arity = 1
    relaxed = True

    def relax(self, intervals, relu_mode):
        rel = unary_relaxation(self, intervals[0].lower, intervals[0].upper, relu_mode)
        return _Lines(((rel.lower_slope, rel.upper_slope),), rel.lower_intercept, rel.upper_intercept)


@dataclass(frozen=True, eq=False)
class _Lines(OpKind):
    """Fixed relaxation lines: lower <= sum_k slope_k * x_k + const <= upper, elementwise.

    ``slopes`` holds one (lower, upper) slope pair per input. In a backward
    pass on live neurons, ``take`` slices a full-width coefficient to those
    columns and ``put`` scatters the outgoing one back.
    """

    slopes: tuple[tuple[np.ndarray, np.ndarray], ...]
    lower_const: np.ndarray
    upper_const: np.ndarray
    take: np.ndarray | None = None
    put: np.ndarray | None = None

    kind = "lines"

    @cached_property
    def live(self) -> np.ndarray | None:
        """The neurons whose lines are not all zero (None: all)."""
        live = np.logical_or.reduce([*sum(self.slopes, ()), self.lower_const, self.upper_const]).nonzero()[0]
        return None if len(live) == len(self.lower_const) else live

    def forward(self, bounds):
        # the constants join the last input's share
        consts = [(0.0, 0.0)] * (len(bounds) - 1) + [(self.lower_const, self.upper_const)]
        shares = [_unary_mix(sl, cl, su, cu, b) for (sl, su), (cl, cu), b in zip(self.slopes, consts, bounds)]
        return LinearBounds(*(sum(parts[1:], parts[0]) for parts in zip(*shares)))

    def backward(self, lower_coeff, upper_coeff, in_dim):
        if self.take is not None:  # take, not [:, cols], which returns a column-major array
            shared, lower_coeff = upper_coeff is lower_coeff, lower_coeff.take(self.take, axis=1)
            upper_coeff = lower_coeff if shared else upper_coeff.take(self.take, axis=1)
        lo_pos, lo_neg = _posneg(lower_coeff)
        up_pos, up_neg = (lo_pos, lo_neg) if upper_coeff is lower_coeff else _posneg(upper_coeff)
        lams = [(lo_pos * sl + lo_neg * su, up_pos * su + up_neg * sl) for sl, su in self.slopes]
        d_lo = lo_pos @ self.lower_const + lo_neg @ self.upper_const
        d_up = up_pos @ self.upper_const + up_neg @ self.lower_const
        if self.put is not None:
            full = np.zeros((2, len(d_lo), in_dim))
            full[:, :, self.put] = lams[0]
            lams = [tuple(full)]
        return lams, d_lo, d_up


@dataclass(frozen=True)
class ReLU(UnaryRelaxed):
    kind = "relu"

    def eval(self, xs):
        return np.maximum(xs[0], 0.0)

    def interval(self, inputs):
        return IntervalBounds(np.maximum(inputs[0].lower, 0.0), np.maximum(inputs[0].upper, 0.0))


@dataclass(frozen=True)
class Exp(UnaryRelaxed):
    kind = "exp"

    def eval(self, xs):
        return np.exp(xs[0])

    def interval(self, inputs):
        return IntervalBounds(np.exp(inputs[0].lower), np.exp(inputs[0].upper))


@dataclass(frozen=True)
class Log(UnaryRelaxed):
    kind = "log"

    def eval(self, xs):
        if np.any(xs[0] <= 0.0):
            raise DomainError("log of a non-positive value")
        return np.log(xs[0])

    def interval(self, inputs):
        if np.any(inputs[0].lower <= 0.0):
            raise DomainError("log over an interval touching zero or below")
        return IntervalBounds(np.log(inputs[0].lower), np.log(inputs[0].upper))


@dataclass(frozen=True)
class Neg(Elementwise):
    kind = "neg"
    arity = 1

    def eval(self, xs):
        return -xs[0]

    def interval(self, inputs):
        return IntervalBounds(-inputs[0].upper, -inputs[0].lower)

    def forward(self, bounds):
        b = bounds[0]
        return LinearBounds(-b.upper_w, -b.upper_b, -b.lower_w, -b.lower_b)

    def backward(self, lower_coeff, upper_coeff, in_dim):
        return [(-lower_coeff, -upper_coeff)], *_zero_bias(lower_coeff)


@dataclass(frozen=True)
class Add(Elementwise):
    kind = "add"
    arity = 2

    def eval(self, xs):
        a, b = _align_batch(xs[0], xs[1])
        return a + b

    def interval(self, inputs):
        x, y = inputs
        return IntervalBounds(x.lower + y.lower, x.upper + y.upper)

    def forward(self, bounds):
        x, y = bounds
        return LinearBounds(
            x.lower_w + y.lower_w,
            x.lower_b + y.lower_b,
            x.upper_w + y.upper_w,
            x.upper_b + y.upper_b,
        )

    def backward(self, lower_coeff, upper_coeff, in_dim):
        return [(lower_coeff, upper_coeff)] * 2, *_zero_bias(lower_coeff)


@dataclass(frozen=True)
class Sub(Elementwise):
    kind = "sub"
    arity = 2

    def eval(self, xs):
        a, b = _align_batch(xs[0], xs[1])
        return a - b

    def interval(self, inputs):
        x, y = inputs
        return IntervalBounds(x.lower - y.upper, x.upper - y.lower)

    def forward(self, bounds):
        x, y = bounds
        return LinearBounds(
            x.lower_w - y.upper_w,
            x.lower_b - y.upper_b,
            x.upper_w - y.lower_w,
            x.upper_b - y.lower_b,
        )

    def backward(self, lower_coeff, upper_coeff, in_dim):
        lams = [(lower_coeff, upper_coeff), (-lower_coeff, -upper_coeff)]
        return lams, *_zero_bias(lower_coeff)


@dataclass(frozen=True)
class MulElementwise(Elementwise):
    kind = "mul"
    arity = 2
    relaxed = True

    def eval(self, xs):
        a, b = _align_batch(xs[0], xs[1])
        return a * b

    def interval(self, inputs):
        x, y = inputs
        return IntervalBounds(*_corners(x.lower, x.upper, y.lower, y.upper))

    def relax(self, intervals, relu_mode):
        ix, iy = intervals
        rel = mul_relaxation(ix.lower, ix.upper, iy.lower, iy.upper)
        slopes = (rel.lower_x, rel.upper_x), (rel.lower_y, rel.upper_y)
        return _Lines(slopes, rel.lower_const, rel.upper_const)


class _WeightCoeff:
    """A ``MatVec`` weight coefficient, factored: row r's block i, on W_i1..W_it, is
    ``pos[r, i] * slope_pos[i] + neg[r, i] * slope_neg[i]``.

    ``pos`` >= 0 and ``neg`` <= 0 never overlap, so ``@ v`` and ``row_norms(q)``
    reduce on the (rows, s) and (s, t) factors; ``np.asarray`` expands it to
    the dense (rows, s * t) array.
    """

    def __init__(self, pos, neg, slope_pos, slope_neg):
        self.pos, self.neg, self.slope_pos, self.slope_neg = pos, neg, slope_pos, slope_neg
        self.shape = (pos.shape[0], slope_pos.size)

    def __array__(self, dtype=None, copy=None):
        # a coefficient on h_i is one on each of its t terms W_ij x_j
        dense = self.pos[:, :, None] * self.slope_pos + self.neg[:, :, None] * self.slope_neg
        return dense.reshape(self.shape).astype(dtype or np.float64, copy=False)

    def __matmul__(self, v):
        c = np.reshape(v, self.slope_pos.shape)
        return self.pos @ (self.slope_pos * c).sum(axis=1) + self.neg @ (self.slope_neg * c).sum(axis=1)

    def row_norms(self, q: float) -> np.ndarray:
        """The q-norm of each row, q in [1, inf]; a block's is |pos| or |neg| times its slope's."""
        pos, neg, slope_pos, slope_neg = (np.abs(a) for a in (self.pos, self.neg, self.slope_pos, self.slope_neg))
        if np.isinf(q):
            per_block = pos * slope_pos.max(axis=1, initial=0.0) + neg * slope_neg.max(axis=1, initial=0.0)
            return per_block.max(axis=1, initial=0.0)
        total = pos**q @ (slope_pos**q).sum(axis=1) + neg**q @ (slope_neg**q).sum(axis=1)
        return total ** (1.0 / q)


@dataclass(frozen=True, eq=False)
class MatVec(OpKind):
    """h = W x + bias where the weights are an input too.

    The first input is W flattened row-major (length dim * t), the second is
    x (length t). ``relax`` gives the ``_Planes`` of the terms W_ij x_j.
    Weight-perturbed graphs use it; it has no entry in the parse registry,
    so documents cannot name it.
    """

    bias: np.ndarray

    kind = "matvec"
    arity = 2
    relaxed = True

    def __post_init__(self):
        object.__setattr__(self, "bias", _frozen(np.array(self.bias, dtype=np.float64)))

    def check(self, dim, in_dims):
        w_dim, t = in_dims
        if w_dim != dim * t or np.shape(self.bias) != (dim,):
            return (
                f"matvec needs a weight of dim {dim} * {t} and {dim} biases, "
                f"got dim {w_dim} and bias shape {np.shape(self.bias)}"
            )

    def eval(self, xs):
        w, x = xs
        t = x.shape[0]
        # (dim, t, 1 or m) weights against (t, 1 or m) inputs, summed over t
        h = np.sum(w.reshape(-1, t, w.size // w.shape[0]) * x.reshape(t, -1), axis=1)
        h = h + self.bias[:, None]
        return h if w.ndim + x.ndim > 2 else h[:, 0]

    def interval(self, inputs):
        w, x = inputs
        t = x.lower.shape[0]
        lo, hi = _corners(w.lower.reshape(-1, t), w.upper.reshape(-1, t), x.lower, x.upper)
        return IntervalBounds(lo.sum(axis=1) + self.bias, hi.sum(axis=1) + self.bias)

    def relax(self, intervals, relu_mode):
        return _Planes(*intervals, self.bias)


@dataclass(frozen=True, eq=False)
class _Planes(OpKind):
    """A ``MatVec``'s fixed planes over its weight and input intervals ``w`` and ``x``.

    Each term W_ij x_j is relaxed with the ``mul_relaxation`` planes on
    (dim, t) views and the terms are summed per row, so no (dim * t)-row
    relaxation matrix is built; ``backward`` keeps W's coefficient factored
    (``_WeightCoeff``), so no (rows, dim * t) one is either.
    """

    w: IntervalBounds
    x: IntervalBounds
    bias: np.ndarray

    kind = "planes"

    @property
    def rel(self):
        # computed for each rule that reads them, not kept: keeping a query's (dim, t) planes made the
        # flatness workload's ibp+backward query ~8% slower, and that single pass reads each MatVec once
        shape = (self.w.lower.shape[0] // self.x.lower.shape[0], self.x.lower.shape[0])
        return mul_relaxation(
            self.w.lower.reshape(shape),
            self.w.upper.reshape(shape),
            np.broadcast_to(self.x.lower, shape),
            np.broadcast_to(self.x.upper, shape),
        )

    def forward(self, bounds):
        w, x = bounds
        rel = self.rel
        s, t = rel.lower_x.shape
        # one row per term W_ij x_j from W's bounds, then x's part of each row's sum
        terms = _unary_mix(rel.lower_x.ravel(), 0.0, rel.upper_x.ravel(), 0.0, w)

        def row_sum(on_w, slope, on_pos, on_neg, const):
            pos, neg = _posneg(slope)
            return on_w.reshape(s, t, *on_w.shape[1:]).sum(axis=1) + pos @ on_pos + neg @ on_neg + const

        lower_const = rel.lower_const.sum(axis=1) + self.bias
        upper_const = rel.upper_const.sum(axis=1) + self.bias
        return LinearBounds(
            row_sum(terms[0], rel.lower_y, x.lower_w, x.upper_w, 0.0),
            row_sum(terms[1], rel.lower_y, x.lower_b, x.upper_b, lower_const),
            row_sum(terms[2], rel.upper_y, x.upper_w, x.lower_w, 0.0),
            row_sum(terms[3], rel.upper_y, x.upper_b, x.lower_b, upper_const),
        )

    def backward(self, lower_coeff, upper_coeff, in_dim):
        rel = self.rel
        lo_pos, lo_neg = _posneg(lower_coeff)
        up_pos, up_neg = _posneg(upper_coeff)

        lams = [
            (
                _WeightCoeff(lo_pos, lo_neg, rel.lower_x, rel.upper_x),
                _WeightCoeff(up_pos, up_neg, rel.upper_x, rel.lower_x),
            ),
            (lo_pos @ rel.lower_y + lo_neg @ rel.upper_y, up_pos @ rel.upper_y + up_neg @ rel.lower_y),
        ]
        lower_const = rel.lower_const.sum(axis=1)
        upper_const = rel.upper_const.sum(axis=1)
        d_lo = lo_pos @ lower_const + lo_neg @ upper_const + lower_coeff @ self.bias
        d_up = up_pos @ upper_const + up_neg @ lower_const + upper_coeff @ self.bias
        return lams, d_lo, d_up


@dataclass(frozen=True)
class SumReduce(OpKind):
    kind = "sum_reduce"
    arity = 1

    def check(self, dim, in_dims):
        return "sum_reduce output dim must be 1" if dim != 1 else None

    def eval(self, xs):
        return np.sum(xs[0], axis=0, keepdims=True)

    def interval(self, inputs):
        x = inputs[0]
        return IntervalBounds(np.sum(x.lower, keepdims=True), np.sum(x.upper, keepdims=True))

    def forward(self, bounds):
        b = bounds[0]
        return LinearBounds(
            b.lower_w.sum(axis=0, keepdims=True),
            b.lower_b.sum(keepdims=True),
            b.upper_w.sum(axis=0, keepdims=True),
            b.upper_b.sum(keepdims=True),
        )

    def backward(self, lower_coeff, upper_coeff, in_dim):
        # the expansion width is not visible in the coefficients
        if in_dim is None:
            raise GraphError("sum_reduce backward rule needs the input dimension")
        ones = np.ones((1, in_dim))
        return [(lower_coeff @ ones, upper_coeff @ ones)], *_zero_bias(lower_coeff)
