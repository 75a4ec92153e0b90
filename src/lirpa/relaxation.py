"""Per-neuron linear relaxations of nonlinear operations.

Every relaxation returns ``(slopes, lower_const, upper_const)``: one
(lower, upper) slope pair per input, then the two intercepts, such that for
all points of the given input intervals the true function lies between
sum_k lower_slope_k * x_k + lower_const and the same with the upper ones.
A relaxed op's ``relax`` rule makes these the lines of an op.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DomainError, GraphError

__all__ = [
    "ReluLowerMode",
    "relu_relaxation",
    "exp_relaxation",
    "log_relaxation",
    "mul_relaxation",
    "unary_relaxation",
]


class ReluLowerMode(Enum):
    """Lower-line choice for an unstable ReLU neuron.

    ADAPTIVE uses slope 1 when u > |l| and 0 otherwise; ZERO always uses
    slope 0, which makes the relaxation dominate the plain interval bound.
    """

    ADAPTIVE = "adaptive"
    ZERO = "zero"


def _inverted(l: np.ndarray, u: np.ndarray) -> bool:
    """Whether l exceeds u by more than the few ulps exact bounds can cross by."""
    scale = np.maximum(1.0, np.maximum(np.abs(l), np.abs(u)))
    return bool(np.any(l - u > 1e-9 * scale))


def _check_interval(l: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    l = np.asarray(l, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if l.shape != u.shape:
        raise ValueError(f"interval endpoint shapes differ: {l.shape} vs {u.shape}")
    if (l > u).any():
        # collapse float noise to a point, reject real inversions
        if _inverted(l, u):
            raise ValueError("interval lower bound exceeds upper bound")
        u = np.maximum(l, u)
    return l, u


def relu_relaxation(l, u, mode: ReluLowerMode = ReluLowerMode.ADAPTIVE) -> tuple:
    """Relax max(x, 0) on [l, u].

    Stable neurons collapse to the exact line (zero or identity). Unstable
    neurons take the chord through (l, 0) and (u, u) as the upper line and a
    zero-intercept lower line with slope picked by ``mode``.
    """
    if not isinstance(mode, ReluLowerMode):
        raise GraphError(f"unknown ReLU lower mode {mode!r}")
    l, u = _check_interval(l, u)
    active = l >= 0.0
    crossing = (l < 0.0) & (u > 0.0)
    with np.errstate(over="ignore"):
        width = u - l
    chord = np.divide(u, width, out=np.zeros(l.shape), where=crossing)
    if np.isinf(width).any():  # u - l overflowed: halve the ends, exact as they are far from subnormal
        wide = crossing & np.isinf(width)
        chord[wide] = 0.5 * u[wide] / (0.5 * u[wide] - 0.5 * l[wide])
    upper_intercept = np.multiply(-chord, l, out=np.zeros(l.shape), where=crossing)
    if chord[crossing].min(initial=1.0) < np.finfo(np.float64).tiny:  # underflowed, to 0 or a subnormal's few bits
        flat = crossing & (chord < np.finfo(np.float64).tiny) & (l > -np.inf)  # finite ends: the flat line at u
        chord[flat], upper_intercept[flat] = 0.0, u[flat]
    np.copyto(chord, 1.0, where=active)  # now the upper slope
    # past the active neurons, u > -l holds only on crossing ones wider above zero than below
    lower = active if mode is ReluLowerMode.ZERO else active | (u > -l)
    return ((lower.astype(np.float64), chord),), np.zeros(l.shape), upper_intercept


def exp_relaxation(l, u) -> tuple:
    """Relax exp on [l, u]: chord above, tangent below.

    The tangent point is min((l+u)/2, log(chord slope)) clamped into [l, u];
    by convexity the tangent bounds exp on the whole real line, not just the
    interval.
    """
    l, u = _check_interval(l, u)
    if not (np.all(np.isfinite(l)) and np.all(np.isfinite(u))):
        raise DomainError("exp relaxation requires a finite interval")
    width = u - l
    el = np.exp(l)
    safe = np.where(width > 0.0, width, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        # exp(u) - exp(l); expm1 overflows past a width of ~709.8 and exp(l)
        # loses its bits below ~-708, so there factor out exp(u) instead
        # (unused entries are dropped by the where)
        rise = el * np.expm1(width)
        keep = np.isfinite(rise) & (el >= np.finfo(np.float64).tiny)
        rise = np.where(keep, rise, np.exp(u) * -np.expm1(-width))
    upper_slope = np.where(width > 0.0, rise / safe, el)
    upper_intercept = el - upper_slope * l
    with np.errstate(divide="ignore"):
        equalizer = np.log(np.where(upper_slope > 0.0, upper_slope, 1.0))
    d = np.clip(np.minimum(0.5 * (l + u), equalizer), l, u)
    lower_slope = np.exp(d)
    lower_intercept = lower_slope * (1.0 - d)
    return ((lower_slope, upper_slope),), lower_intercept, upper_intercept


def log_relaxation(l, u) -> tuple:
    """Relax log on [l, u] with l > 0: chord below, tangent above (concavity)."""
    l, u = _check_interval(l, u)
    if np.any(l <= 0.0):
        raise DomainError("log relaxation requires strictly positive lower bounds")
    width = u - l
    safe = np.where(width > 0.0, width, 1.0)
    with np.errstate(over="ignore"):  # width / l past the float range: the chord rises log(u) - log(l)
        rise = np.log1p(width / l)
    lower_slope = np.where(width > 0.0, np.where(np.isfinite(rise), rise, np.log(u) - np.log(l)) / safe, 1.0 / l)
    lower_intercept = np.log(l) - lower_slope * l
    d = np.clip(np.minimum(0.5 * (l + u), 1.0 / lower_slope), l, u)
    upper_slope = 1.0 / d
    upper_intercept = np.log(d) - 1.0
    return ((lower_slope, upper_slope),), lower_intercept, upper_intercept


def mul_relaxation(lx, ux, ly, uy) -> tuple:
    """Relax elementwise x*y over the box [lx, ux] x [ly, uy].

    Uses one fixed pair of bounding planes: below z >= ly*x + lx*y - lx*ly
    and above z <= uy*x + lx*y - lx*uy. A pinned operand collapses both
    planes to the exact product line.
    """
    lx, ux = _check_interval(lx, ux)
    ly, uy = _check_interval(ly, uy)
    if lx.shape != ly.shape:
        raise ValueError(f"operand shapes differ: {lx.shape} vs {ly.shape}")
    x_const = lx == ux
    y_const = ly == uy
    both, either = x_const & y_const, x_const | y_const
    # y pinned: the exact line through ly (not uy: the two differ in the sign of a zero)
    upper_x = np.where(y_const, ly, uy)
    np.copyto(upper_x, 0.0, where=x_const)
    lower_x = np.where(x_const, 0.0, ly)
    lower_const = np.negative(lx)
    upper_const = lower_const * uy
    np.multiply(lower_const, ly, out=lower_const)
    for const in (lower_const, upper_const):
        # -lx * y, zero for one pinned operand, the product lx * ly for both
        np.copyto(const, 0.0, where=either)
        np.multiply(lx, ly, out=const, where=both)
    y_slope = np.where(y_const, 0.0, lx)  # both planes'
    return ((lower_x, upper_x), (y_slope, y_slope)), lower_const, upper_const


def unary_relaxation(op, l, u, relu_mode: ReluLowerMode = ReluLowerMode.ADAPTIVE) -> tuple:
    """The relaxation of a unary nonlinear op of kind ``relu``, ``exp`` or ``log`` on [l, u]."""
    if op.kind == "relu":
        return relu_relaxation(l, u, relu_mode)
    return {"exp": exp_relaxation, "log": log_relaxation}[op.kind](l, u)
