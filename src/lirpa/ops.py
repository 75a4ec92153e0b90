"""Graph operators, each one class carrying its own rules.

A dependent op defines:

- ``check(dim, in_dims)``: what is wrong with the node's dims, or None;
- ``eval(xs)``: its value from input values (vectors or (dim, m) batches);
- ``interval(inputs)``: its interval from its inputs' intervals;
- ``forward(bounds, intervals, relu_mode)``: its linear bounds from its
  inputs' linear bounds;
- ``backward(lower_coeff, upper_coeff, intervals, relu_mode, in_dim)``:
  one (lower, upper) coefficient pair per input, in input order, plus the
  bias increments of both sides.

``relaxed`` ops get their inputs' intervals (None for the others) to build
a linear relaxation; the unary ones among them only define ``relax``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import DomainError, GraphError
from .linear import IntervalBounds, LinearBounds
from .relaxation import (
    exp_relaxation, log_relaxation, mul_relaxation, relu_relaxation, unary_relaxation,
)

__all__ = [
    "OpKind", "Elementwise", "UnaryRelaxed", "Input", "Affine", "ReLU", "Exp", "Log",
    "Neg", "Add", "Sub", "MulElementwise", "SumReduce",
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


def _zero_bias(coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    zero = np.zeros(coeff.shape[0])
    return zero, zero.copy()


def _mix_rows(slope: np.ndarray, on_pos: np.ndarray, on_neg: np.ndarray) -> np.ndarray:
    """diag_+(slope) @ on_pos + diag_-(slope) @ on_neg as row scaling."""
    pos, neg = _posneg(slope)
    if on_pos.ndim == 2:
        return pos[:, None] * on_pos + neg[:, None] * on_neg
    return pos * on_pos + neg * on_neg


def _unary_mix(rel_lower_slope, rel_lower_icpt, rel_upper_slope, rel_upper_icpt, b: LinearBounds) -> LinearBounds:
    lw = _mix_rows(rel_lower_slope, b.lower_w, b.upper_w)
    lb_ = _mix_rows(rel_lower_slope, b.lower_b, b.upper_b) + rel_lower_icpt
    uw = _mix_rows(rel_upper_slope, b.upper_w, b.lower_w)
    ub = _mix_rows(rel_upper_slope, b.upper_b, b.lower_b) + rel_upper_icpt
    return LinearBounds(lw, lb_, uw, ub)


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
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @cached_property
    def w_pos(self) -> np.ndarray:
        return np.maximum(self.weight, 0.0)

    @cached_property
    def w_neg(self) -> np.ndarray:
        return np.minimum(self.weight, 0.0)

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

    def forward(self, bounds, intervals, relu_mode):
        b = bounds[0]
        return LinearBounds(
            self.w_pos @ b.lower_w + self.w_neg @ b.upper_w,
            self.w_pos @ b.lower_b + self.w_neg @ b.upper_b + self.bias,
            self.w_pos @ b.upper_w + self.w_neg @ b.lower_w,
            self.w_pos @ b.upper_b + self.w_neg @ b.lower_b + self.bias,
        )

    def backward(self, lower_coeff, upper_coeff, intervals, relu_mode, in_dim):
        return (
            [(lower_coeff @ self.weight, upper_coeff @ self.weight)],
            lower_coeff @ self.bias,
            upper_coeff @ self.bias,
        )


class UnaryRelaxed(Elementwise):
    """A unary nonlinear op bounded through its ``relax(l, u, relu_mode)`` lines."""

    arity = 1
    relaxed = True

    def forward(self, bounds, intervals, relu_mode):
        rel = unary_relaxation(self, intervals[0].lower, intervals[0].upper, relu_mode)
        return _unary_mix(
            rel.lower_slope, rel.lower_intercept, rel.upper_slope, rel.upper_intercept, bounds[0]
        )

    def backward(self, lower_coeff, upper_coeff, intervals, relu_mode, in_dim):
        lo_pos, lo_neg = _posneg(lower_coeff)
        up_pos, up_neg = _posneg(upper_coeff)
        rel = unary_relaxation(self, intervals[0].lower, intervals[0].upper, relu_mode)
        lam = (
            lo_pos * rel.lower_slope + lo_neg * rel.upper_slope,
            up_pos * rel.upper_slope + up_neg * rel.lower_slope,
        )
        d_lo = lo_pos @ rel.lower_intercept + lo_neg @ rel.upper_intercept
        d_up = up_pos @ rel.upper_intercept + up_neg @ rel.lower_intercept
        return [lam], d_lo, d_up


@dataclass(frozen=True)
class ReLU(UnaryRelaxed):
    kind = "relu"

    def eval(self, xs):
        return np.maximum(xs[0], 0.0)

    def interval(self, inputs):
        return IntervalBounds(np.maximum(inputs[0].lower, 0.0), np.maximum(inputs[0].upper, 0.0))

    def relax(self, l, u, relu_mode):
        return relu_relaxation(l, u, relu_mode)


@dataclass(frozen=True)
class Exp(UnaryRelaxed):
    kind = "exp"

    def eval(self, xs):
        return np.exp(xs[0])

    def interval(self, inputs):
        return IntervalBounds(np.exp(inputs[0].lower), np.exp(inputs[0].upper))

    def relax(self, l, u, relu_mode):
        return exp_relaxation(l, u)


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

    def relax(self, l, u, relu_mode):
        return log_relaxation(l, u)


@dataclass(frozen=True)
class Neg(Elementwise):
    kind = "neg"
    arity = 1

    def eval(self, xs):
        return -xs[0]

    def interval(self, inputs):
        return IntervalBounds(-inputs[0].upper, -inputs[0].lower)

    def forward(self, bounds, intervals, relu_mode):
        b = bounds[0]
        return LinearBounds(-b.upper_w, -b.upper_b, -b.lower_w, -b.lower_b)

    def backward(self, lower_coeff, upper_coeff, intervals, relu_mode, in_dim):
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

    def forward(self, bounds, intervals, relu_mode):
        x, y = bounds
        return LinearBounds(
            x.lower_w + y.lower_w,
            x.lower_b + y.lower_b,
            x.upper_w + y.upper_w,
            x.upper_b + y.upper_b,
        )

    def backward(self, lower_coeff, upper_coeff, intervals, relu_mode, in_dim):
        lams = [(lower_coeff, upper_coeff), (lower_coeff.copy(), upper_coeff.copy())]
        return lams, *_zero_bias(lower_coeff)


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

    def forward(self, bounds, intervals, relu_mode):
        x, y = bounds
        return LinearBounds(
            x.lower_w - y.upper_w,
            x.lower_b - y.upper_b,
            x.upper_w - y.lower_w,
            x.upper_b - y.lower_b,
        )

    def backward(self, lower_coeff, upper_coeff, intervals, relu_mode, in_dim):
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
        corners = np.stack([x.lower * y.lower, x.lower * y.upper, x.upper * y.lower, x.upper * y.upper])
        return IntervalBounds(corners.min(axis=0), corners.max(axis=0))

    def forward(self, bounds, intervals, relu_mode):
        x, y = bounds
        ix, iy = intervals
        rel = mul_relaxation(ix.lower, ix.upper, iy.lower, iy.upper)
        lo_x = _unary_mix(rel.lower_x, np.zeros_like(rel.lower_const), rel.upper_x, np.zeros_like(rel.upper_const), x)
        lo_y = _unary_mix(rel.lower_y, rel.lower_const, rel.upper_y, rel.upper_const, y)
        return LinearBounds(
            lo_x.lower_w + lo_y.lower_w,
            lo_x.lower_b + lo_y.lower_b,
            lo_x.upper_w + lo_y.upper_w,
            lo_x.upper_b + lo_y.upper_b,
        )

    def backward(self, lower_coeff, upper_coeff, intervals, relu_mode, in_dim):
        lo_pos, lo_neg = _posneg(lower_coeff)
        up_pos, up_neg = _posneg(upper_coeff)
        ix, iy = intervals
        rel = mul_relaxation(ix.lower, ix.upper, iy.lower, iy.upper)
        lam_x = (
            lo_pos * rel.lower_x + lo_neg * rel.upper_x,
            up_pos * rel.upper_x + up_neg * rel.lower_x,
        )
        lam_y = (
            lo_pos * rel.lower_y + lo_neg * rel.upper_y,
            up_pos * rel.upper_y + up_neg * rel.lower_y,
        )
        d_lo = lo_pos @ rel.lower_const + lo_neg @ rel.upper_const
        d_up = up_pos @ rel.upper_const + up_neg @ rel.lower_const
        return [lam_x, lam_y], d_lo, d_up


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

    def forward(self, bounds, intervals, relu_mode):
        b = bounds[0]
        return LinearBounds(
            b.lower_w.sum(axis=0, keepdims=True),
            b.lower_b.sum(keepdims=True),
            b.upper_w.sum(axis=0, keepdims=True),
            b.upper_b.sum(keepdims=True),
        )

    def backward(self, lower_coeff, upper_coeff, intervals, relu_mode, in_dim):
        # the expansion width is not visible in the coefficients
        if in_dim is None:
            raise GraphError("sum_reduce backward rule needs the input dimension")
        ones = np.ones((1, in_dim))
        return [(lower_coeff @ ones, upper_coeff @ ones)], *_zero_bias(lower_coeff)
