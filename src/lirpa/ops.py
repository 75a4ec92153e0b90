"""Graph operators, each one class carrying its own rules.

A dependent op defines:

- ``check(dim, in_dims)``: what is wrong with the node's dims, or None;
- ``eval(xs)``: its value from input values (vectors or (dim, m) batches);
- ``interval(inputs)``: its interval from its inputs' intervals;
- ``forward(bounds)``: its linear bounds from its inputs' linear bounds;
- ``backward(lower_coeff, upper_coeff, in_dim)``: one (lower, upper)
  coefficient pair per input, in input order, plus the bias increments of
  both sides. Both coefficients may be one array, and no rule writes to its
  arguments. A lines op's rules compute only the products its lines need:
  a zero line, or a sign no slope has, adds none.

A monotone op declares ``signs`` (+1 or -1 per input: rising or falling in
it) and inherits ``interval``, its ``eval`` at the input ends they pick. A
linear op inherits ``forward``, the same picking on coefficient rows and
offsets, and an elementwise one ``backward``: each input gets the
coefficient, negated where its sign is -1.

A ``relaxed`` op defines ``relax(intervals, relu_mode)`` in place of the
last two: from its inputs' intervals it returns an op with fixed lines,
which is not relaxed and carries the ``forward`` and ``backward`` rules.
The ``relaxation`` functions return that op's fields as ``_Lines`` holds
them: one (lower, upper) slope pair per input and the two constants. A
query relaxes each relaxed node once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import DomainError, GraphError
from .linear import IntervalBounds, LinearBounds
from .relaxation import _check_interval, mul_relaxation, unary_relaxation

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
    signs: ClassVar[tuple[int, ...]]  # a monotone op's: +1 per input it rises in, -1 per input it falls in

    def check(self, dim: int, in_dims: list[int]) -> str | None:
        """What is wrong with the node's dims, if anything."""

    def interval(self, inputs):
        return IntervalBounds(self._picked(inputs, "lower", "upper"), self._picked(inputs, "upper", "lower"))

    def _picked(self, inputs, end, other):
        """``eval`` on each input's field ``end`` where the op rises in it, its field ``other`` where it falls."""
        return self.eval([getattr(x, end if s > 0 else other) for s, x in zip(self.signs, inputs)])


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


class _Linear(OpKind):
    """A linear op, exact on linear bounds; ``_rows`` is its ``_picked`` map without a constant term."""

    _rows = OpKind._picked  # an op whose map has a constant term overrides it

    def forward(self, b):
        lw, uw = self._rows(b, "lower_w", "upper_w"), self._rows(b, "upper_w", "lower_w")
        return LinearBounds(lw, self._picked(b, "lower_b", "upper_b"), uw, self._picked(b, "upper_b", "lower_b"))

    def backward(self, lower_coeff, upper_coeff, in_dim):
        # an elementwise op's: each input's coefficient is the output's, negated where the op falls in it
        sides = {1: (lower_coeff, upper_coeff)}
        if -1 in self.signs:  # one negated array serves both sides of a shared coefficient
            neg = -lower_coeff
            sides[-1] = (neg, neg if upper_coeff is lower_coeff else -upper_coeff)
        return [sides[s] for s in self.signs], *_zero_bias(lower_coeff)


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


def _times(x, y, out=None) -> np.ndarray:
    """x * y, where a zero times an infinite end is 0: x * y is 0 wherever x or y is."""
    with np.errstate(invalid="ignore"):
        out = np.multiply(x, y, out=out)
    out[((x == 0.0) & np.isinf(y)) | (np.isinf(x) & (y == 0.0))] = 0.0
    return out


def _corners(lx, ux, ly, uy) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise min and max of x * y over [lx, ux] x [ly, uy]: a mul's interval, and a ``MatVec``'s fallback."""
    corner, hi = _times(lx, ly), _times(lx, uy)
    # in this order: on a tie np.minimum and np.maximum return their second argument, so it picks a zero's sign
    lo = np.minimum(corner, hi)
    np.maximum(corner, hi, out=hi)
    for x, y in ((ux, ly), (ux, uy)):
        _times(x, y, out=corner)
        np.minimum(lo, corner, out=lo)
        np.maximum(hi, corner, out=hi)
    return lo, hi


def _zero_bias(coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    zero = np.zeros(coeff.shape[0])
    return zero, zero.copy()


def _mix_rows(slope: np.ndarray, on_pos: np.ndarray, on_neg: np.ndarray, signed: bool) -> np.ndarray:
    """diag_+(slope) @ on_pos + diag_-(slope) @ on_neg as row scaling; unless ``signed``, no slope is negative."""
    if on_pos.ndim == 2:
        slope = slope[:, None]
    if not signed:  # diag_-(slope) is zero: one product
        return slope * on_pos
    pos, neg = _posneg(slope)
    return pos * on_pos + neg * on_neg


def _unary_mix(lower_slope, lower_icpt, upper_slope, upper_icpt, b: LinearBounds, signed=True) -> tuple:
    """The (lower_w, lower_b, upper_w, upper_b) of lines with these slopes and intercepts over ``b``."""
    lw = _mix_rows(lower_slope, b.lower_w, b.upper_w, signed)
    lb_ = _mix_rows(lower_slope, b.lower_b, b.upper_b, signed) + lower_icpt
    uw = _mix_rows(upper_slope, b.upper_w, b.lower_w, signed)
    ub = _mix_rows(upper_slope, b.upper_b, b.lower_b, signed) + upper_icpt
    return lw, lb_, uw, ub


@dataclass(frozen=True, eq=False)
class Affine(_Linear):
    """h = weight @ x + bias with a constant weight matrix; h_i rises in x_j where weight[i, j] > 0."""

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

    def _rows(self, inputs, end, other):
        return self.w_pos @ getattr(inputs[0], end) + self.w_neg @ getattr(inputs[0], other)

    def _picked(self, inputs, end, other):
        ends = [getattr(inputs[0], end), getattr(inputs[0], other)]
        if np.isfinite(ends).all():
            return self._rows(inputs, end, other) + self.bias
        terms = np.zeros(self.weight.shape)  # an infinite end: no zero weight reads it, as 0 * inf is NaN
        for w, x in zip((self.w_pos, self.w_neg), ends):
            np.multiply(w, x, out=terms, where=w != 0.0)
        return terms.sum(axis=1) + self.bias

    def backward(self, lower_coeff, upper_coeff, in_dim):
        lam, d = lower_coeff @ self.weight, lower_coeff @ self.bias
        if upper_coeff is lower_coeff:  # one product serves both sides
            return [(lam, lam)], d, d
        return [(lam, upper_coeff @ self.weight)], d, upper_coeff @ self.bias


class UnaryRelaxed(Elementwise):
    """A unary nonlinear op, relaxed by the ``unary_relaxation`` lines of its kind."""

    arity = 1
    relaxed = True
    signs = (1,)

    def relax(self, intervals, relu_mode):
        return _Lines(*unary_relaxation(self, intervals[0].lower, intervals[0].upper, relu_mode))


@dataclass(frozen=True, eq=False)
class _Lines(OpKind):
    """Fixed relaxation lines: lower <= sum_k slope_k * x_k + const <= upper, elementwise.

    ``slopes`` holds one (lower, upper) slope pair per input. The first ``n``
    neurons have identity lines (slopes 1, constants 0): ``backward`` copies
    their columns of the coefficient and computes only the bending ones.
    Each step computes only the products its lines need: where every bending
    lower line is 0 below a positive upper slope (a ZERO-mode ReLU's), each
    side's coefficient bends on one sign only, and where no slope is negative
    (a monotone op's lines), ``forward`` mixes one input bound per side.
    """

    slopes: tuple[tuple[np.ndarray, np.ndarray], ...]
    lower_const: np.ndarray
    upper_const: np.ndarray
    n: int = 0

    kind = "lines"
    identity_lines = _frozen(np.array([[1.0], [1.0], [0.0], [0.0]]))  # lower, upper slope; lower, upper constant

    @cached_property
    def live(self) -> tuple[np.ndarray, int] | None:
        """A unary op's neurons whose lines are not all zero, identity lines first, and how many lead (None: all)."""
        ((sl, su),) = self.slopes
        lines = np.array([sl, su, self.lower_const, self.upper_const])
        live, identity = np.logical_or.reduce(lines), np.logical_and.reduce(lines == self.identity_lines)
        first, rest = identity.nonzero()[0], (live > identity).nonzero()[0]
        return None if len(first) + len(rest) == len(live) else (np.concatenate([first, rest]), len(first))

    @cached_property
    def zero_lower(self) -> tuple[bool, bool]:
        """Whether the bending lines' lower constants are 0, and their lower slopes too below positive upper ones."""
        n, ((sl, su), *more), const = self.n, self.slopes, not np.count_nonzero(self.lower_const[self.n:])
        return const, const and not more and not np.count_nonzero(sl[n:]) and bool((su[n:] > 0.0).all())

    def forward(self, bounds):
        # the constants join the last input's share; a monotone op's lines (ReLU, exp, log) have no negative slope
        consts = [(0.0, 0.0)] * (len(bounds) - 1) + [(self.lower_const, self.upper_const)]
        signed = len(bounds) > 1 or bool((np.array(self.slopes[0]) < 0.0).any())
        shares = [_unary_mix(sl, cl, su, cu, b, signed) for (sl, su), (cl, cu), b in zip(self.slopes, consts, bounds)]
        return LinearBounds(*(sum(parts[1:], parts[0]) for parts in zip(*shares)))

    def backward(self, lower_coeff, upper_coeff, in_dim):
        shared, n, slopes, lc, uc = upper_coeff is lower_coeff, self.n, self.slopes, self.lower_const, self.upper_const
        (zero_const, zero_lower), out = self.zero_lower, (None, None)
        if n:  # the leading identity lines pass their columns through: copy them, compute only the rest
            block = np.array([lower_coeff, upper_coeff])  # one new block; its bending columns are overwritten
            out, slopes = (block[0, :, n:], block[1, :, n:]), [(sl[n:], su[n:]) for sl, su in slopes]
            lower_coeff, upper_coeff, lc, uc = lower_coeff[:, n:], upper_coeff[:, n:], lc[n:], uc[n:]
        if zero_lower:  # lower lines 0: only a negative lower and a positive upper coefficient meet a line
            lo_neg, up_pos, su = np.minimum(lower_coeff, 0.0), np.maximum(upper_coeff, 0.0), slopes[0][1]
            lams = [(np.multiply(lo_neg, su, out=out[0]), np.multiply(up_pos, su, out=out[1]))]
        else:
            lo_pos, lo_neg = _posneg(lower_coeff)
            up_pos, up_neg = (lo_pos, lo_neg) if shared else _posneg(upper_coeff)
            lams = [(np.add(lo_pos * sl, lo_neg * su, out=out[0]), np.add(up_pos * su, up_neg * sl, out=out[1]))
                    for sl, su in slopes]
        # zero lower constants (a ReLU's lines pass through the origin) need no products
        d_lo = lo_neg @ uc if zero_const else lo_pos @ lc + lo_neg @ uc
        d_up = up_pos @ uc if zero_const else up_pos @ uc + up_neg @ lc
        if n:
            lams = [tuple(block)]
        return lams, d_lo, d_up


@dataclass(frozen=True)
class ReLU(UnaryRelaxed):
    kind = "relu"

    def eval(self, xs):
        return np.maximum(xs[0], 0.0)


@dataclass(frozen=True)
class Exp(UnaryRelaxed):
    kind = "exp"

    def eval(self, xs):
        with np.errstate(over="ignore"):  # past about 709 the sound upper end is +inf
            return np.exp(xs[0])


@dataclass(frozen=True)
class Log(UnaryRelaxed):
    kind = "log"

    def eval(self, xs):
        if np.any(xs[0] <= 0.0):
            raise DomainError("log of a non-positive value")
        return np.log(xs[0])


@dataclass(frozen=True)
class Neg(Elementwise, _Linear):
    kind = "neg"
    arity = 1
    signs = (-1,)

    def eval(self, xs):
        return -xs[0]


@dataclass(frozen=True)
class Add(Elementwise, _Linear):
    kind = "add"
    arity = 2
    signs = (1, 1)

    def eval(self, xs):
        a, b = _align_batch(xs[0], xs[1])
        return a + b


@dataclass(frozen=True)
class Sub(Elementwise, _Linear):
    kind = "sub"
    arity = 2
    signs = (1, -1)

    def eval(self, xs):
        a, b = _align_batch(xs[0], xs[1])
        return a - b


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
        return _Lines(*mul_relaxation(ix.lower, ix.upper, iy.lower, iy.upper))


class _WeightCoeff:
    """A ``MatVec`` weight coefficient, factored: row r's block i, on W_i1..W_it, is
    ``pos[r, i] * slope_pos + neg[r, i] * slope_neg``, with (t,) slopes.

    ``pos`` >= 0 and ``neg`` <= 0 never overlap, so ``@ v`` is two gemvs on
    v's (s, t) view and ``row_norms(q)`` reduces the (rows, s) factors and
    the slopes apart; ``np.asarray`` expands it to the dense (rows, s * t)
    array.
    """

    def __init__(self, pos, neg, slope_pos, slope_neg):
        self.pos, self.neg, self.slope_pos, self.slope_neg = pos, neg, slope_pos, slope_neg
        self.shape = (pos.shape[0], pos.shape[1] * slope_pos.size)

    def __array__(self, dtype=None, copy=None):
        # a coefficient on h_i is one on each of its t terms W_ij x_j
        dense = self.pos[:, :, None] * self.slope_pos + self.neg[:, :, None] * self.slope_neg
        return dense.reshape(self.shape).astype(dtype or np.float64, copy=False)

    def __matmul__(self, v):
        c = np.reshape(v, (self.pos.shape[1], self.slope_pos.size))
        return self.pos @ (c @ self.slope_pos) + self.neg @ (c @ self.slope_neg)

    def row_norms(self, q: float) -> np.ndarray:
        """The q-norm of each row, q in [1, inf]; a block's is |pos| or |neg| times its slope's."""
        pos, neg, slope_pos, slope_neg = (np.abs(a) for a in (self.pos, self.neg, self.slope_pos, self.slope_neg))
        if np.isinf(q):
            on_pos = pos.max(axis=1, initial=0.0) * slope_pos.max(initial=0.0)
            return np.maximum(on_pos, neg.max(axis=1, initial=0.0) * slope_neg.max(initial=0.0))
        total = (pos**q).sum(axis=1) * (slope_pos**q).sum() + (neg**q).sum(axis=1) * (slope_neg**q).sum()
        return total ** (1.0 / q)


@dataclass(frozen=True, eq=False)
class MatVec(OpKind):
    """h = W x + bias where the weights are an input too.

    The first input is W flattened row-major (length dim * t), the second is
    x (length t). ``relax`` gives the ``_Planes`` of the terms W_ij x_j. Where
    x is pinned or nonnegative and no end is infinite, ``interval`` sums the
    products the ``_corners`` fold picks by gemvs on (dim, t) views.
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
        lw, uw, lx, ux = w.lower.reshape(-1, len(x.lower)), w.upper.reshape(-1, len(x.lower)), x.lower, x.upper
        if w.finite and x.finite and np.array_equal(lx, ux):  # pinned x: W's lower end where x_j > 0
            pos, neg = _posneg(lx)
            return IntervalBounds(lw @ pos + uw @ neg + self.bias, uw @ pos + lw @ neg + self.bias)
        if w.finite and x.finite and (lx >= 0.0).all():  # x >= 0: x's lower end where W_ij > 0
            lw_pos, lw_neg, uw_pos, uw_neg = (a.reshape(lw.shape) for a in w.sign_parts)
            return IntervalBounds(lw_pos @ lx + lw_neg @ ux + self.bias, uw_pos @ ux + uw_neg @ lx + self.bias)
        lo, hi = _corners(lw, uw, lx, ux)
        return IntervalBounds(lo.sum(axis=1) + self.bias, hi.sum(axis=1) + self.bias)

    def relax(self, intervals, relu_mode):
        return _Planes(*intervals, self.bias)


@dataclass(frozen=True, eq=False)
class _Planes(OpKind):
    """A ``MatVec``'s fixed planes over its weight and input intervals ``w`` and ``x``.

    Each term W_ij x_j has the ``mul_relaxation`` planes over [lw, uw] x [lx, ux]:
    lx_j W_ij + lw_ij x_j - lw_ij lx_j below, ux_j W_ij + lw_ij x_j - lw_ij ux_j
    above. They factor, so no rule builds a (dim, t) plane: the slopes on W
    are (t,) rows, the slope on x is a view of lw, and each row's constants
    are (dim,) products. A pinned x_j keeps its exact line x_j W_ij; on a
    pinned W_ij the planes are exact up to rounding. ``backward`` keeps W's
    coefficient factored (``_WeightCoeff``), so no (rows, dim * t) one is
    built either.
    """

    w: IntervalBounds
    x: IntervalBounds
    bias: np.ndarray

    kind = "planes"

    @cached_property
    def rel(self):
        """The lower and upper slopes on W, the slope on x, the pinned x columns and the two constants."""
        lx, ux = _check_interval(self.x.lower, self.x.upper)
        pinned = lx == ux
        on_x = self.w.lower.reshape(-1, len(lx))  # both planes'
        # a pinned x_j: the exact line through its lower end (the two ends differ in the sign of a zero)
        free_lx, free_ux = np.where(pinned, 0.0, lx), np.where(pinned, 0.0, ux)
        return (lx, np.where(pinned, lx, ux)), on_x, pinned, -(on_x @ free_lx), -(on_x @ free_ux)

    def forward(self, bounds):
        w, x = bounds
        (lx, ux), on_x, pinned, lc, uc = self.rel
        s, t = on_x.shape
        # one row per term W_ij x_j from W's bounds, then x's part of each row's sum
        terms = _unary_mix(np.tile(lx, s), 0.0, np.tile(ux, s), 0.0, w)
        pos, neg = _posneg(np.where(pinned, 0.0, on_x))

        def row_sum(on_w, on_pos, on_neg, const):
            return on_w.reshape(s, t, *on_w.shape[1:]).sum(axis=1) + pos @ on_pos + neg @ on_neg + const

        return LinearBounds(
            row_sum(terms[0], x.lower_w, x.upper_w, 0.0),
            row_sum(terms[1], x.lower_b, x.upper_b, lc + self.bias),
            row_sum(terms[2], x.upper_w, x.lower_w, 0.0),
            row_sum(terms[3], x.upper_b, x.lower_b, uc + self.bias),
        )

    def backward(self, lower_coeff, upper_coeff, in_dim):
        (lx, ux), on_x, pinned, lc, uc = self.rel
        lo_pos, lo_neg = _posneg(lower_coeff)
        up_pos, up_neg = _posneg(upper_coeff)
        # both planes' slope on x is W's lower end: one product per side, zero on the pinned columns
        lam_lo, lam_up = lower_coeff @ on_x, upper_coeff @ on_x
        for lam in (lam_lo, lam_up):
            np.copyto(lam, 0.0, where=pinned)
        lams = [(_WeightCoeff(lo_pos, lo_neg, lx, ux), _WeightCoeff(up_pos, up_neg, ux, lx)), (lam_lo, lam_up)]
        d_lo = lo_pos @ lc + lo_neg @ uc + lower_coeff @ self.bias
        d_up = up_pos @ uc + up_neg @ lc + upper_coeff @ self.bias
        return lams, d_lo, d_up


@dataclass(frozen=True)
class SumReduce(_Linear):
    kind = "sum_reduce"
    arity = 1
    signs = (1,)

    def check(self, dim, in_dims):
        return "sum_reduce output dim must be 1" if dim != 1 else None

    def eval(self, xs):
        return np.sum(xs[0], axis=0, keepdims=True)

    def backward(self, lower_coeff, upper_coeff, in_dim):
        # the expansion width is not visible in the coefficients
        ones = np.ones((1, in_dim))
        lam = lower_coeff @ ones
        return [(lam, lam if upper_coeff is lower_coeff else upper_coeff @ ones)], *_zero_bias(lower_coeff)
