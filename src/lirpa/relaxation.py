"""Per-neuron linear relaxations of nonlinear operations.

Every relaxation produces slopes and intercepts such that, for all points of
the given pre-activation interval, the true function is sandwiched between
the lower and the upper line (plane for binary ops). A relaxed op's
``relax`` rule turns these parameters into an op with fixed lines.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError

__all__ = [
    "ReluLowerMode",
    "UnaryRelaxation",
    "BinaryRelaxation",
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


@dataclass(frozen=True)
class UnaryRelaxation:
    """lower_slope*x + lower_intercept <= f(x) <= upper_slope*x + upper_intercept."""

    lower_slope: np.ndarray
    lower_intercept: np.ndarray
    upper_slope: np.ndarray
    upper_intercept: np.ndarray


@dataclass(frozen=True)
class BinaryRelaxation:
    """Per-neuron bounding planes a*x + b*y + c around f(x, y)."""

    lower_x: np.ndarray
    lower_y: np.ndarray
    lower_const: np.ndarray
    upper_x: np.ndarray
    upper_y: np.ndarray
    upper_const: np.ndarray


def _inverted(l: np.ndarray, u: np.ndarray) -> bool:
    """Whether l exceeds u by more than the few ulps exact bounds can cross by."""
    scale = np.maximum(1.0, np.maximum(np.abs(l), np.abs(u)))
    return bool(np.any(l - u > 1e-9 * scale))


def _check_interval(l: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    l = np.asarray(l, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if l.shape != u.shape:
        raise ValueError(f"interval endpoint shapes differ: {l.shape} vs {u.shape}")
    if np.any(l > u):
        # collapse float noise to a point, reject real inversions
        if _inverted(l, u):
            raise ValueError("interval lower bound exceeds upper bound")
        u = np.maximum(l, u)
    return l, u


def relu_relaxation(l, u, mode: ReluLowerMode = ReluLowerMode.ADAPTIVE) -> UnaryRelaxation:
    """Relax max(x, 0) on [l, u].

    Stable neurons collapse to the exact line (zero or identity). Unstable
    neurons take the chord through (l, 0) and (u, u) as the upper line and a
    zero-intercept lower line with slope picked by ``mode``.
    """
    l, u = _check_interval(l, u)
    active = l >= 0.0
    crossing = (l < 0.0) & (u > 0.0)
    denom = np.where(crossing, u - l, 1.0)
    chord = np.where(crossing, u / denom, 0.0)
    upper_slope = np.where(active, 1.0, chord)
    upper_intercept = np.where(crossing, -chord * l, 0.0)
    if mode is ReluLowerMode.ZERO:
        lower_slope = np.where(active, 1.0, 0.0)
    else:
        lower_slope = np.where(active | (crossing & (u > -l)), 1.0, 0.0)
    return UnaryRelaxation(lower_slope, np.zeros_like(l), upper_slope, upper_intercept)


def exp_relaxation(l, u) -> UnaryRelaxation:
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
    return UnaryRelaxation(lower_slope, lower_intercept, upper_slope, upper_intercept)


def log_relaxation(l, u) -> UnaryRelaxation:
    """Relax log on [l, u] with l > 0: chord below, tangent above (concavity)."""
    l, u = _check_interval(l, u)
    if np.any(l <= 0.0):
        raise DomainError("log relaxation requires strictly positive lower bounds")
    width = u - l
    safe = np.where(width > 0.0, width, 1.0)
    lower_slope = np.where(width > 0.0, np.log1p(width / l) / safe, 1.0 / l)
    lower_intercept = np.log(l) - lower_slope * l
    d = np.clip(np.minimum(0.5 * (l + u), 1.0 / lower_slope), l, u)
    upper_slope = 1.0 / d
    upper_intercept = np.log(d) - 1.0
    return UnaryRelaxation(lower_slope, lower_intercept, upper_slope, upper_intercept)


def mul_relaxation(lx, ux, ly, uy) -> BinaryRelaxation:
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
    conds = [x_const & y_const, x_const, y_const]
    zeros = np.zeros_like(lx)
    lower_x = np.select(conds, [zeros, zeros, ly], default=ly)
    lower_y = np.select(conds, [zeros, lx, zeros], default=lx)
    lower_const = np.select(conds, [lx * ly, zeros, zeros], default=-lx * ly)
    upper_x = np.select(conds, [zeros, zeros, ly], default=uy)
    upper_y = np.select(conds, [zeros, lx, zeros], default=lx)
    upper_const = np.select(conds, [lx * ly, zeros, zeros], default=-lx * uy)
    return BinaryRelaxation(lower_x, lower_y, lower_const, upper_x, upper_y, upper_const)


def unary_relaxation(op, l, u, relu_mode: ReluLowerMode = ReluLowerMode.ADAPTIVE) -> UnaryRelaxation:
    """The relaxation of a unary nonlinear op of kind ``relu``, ``exp`` or ``log`` on [l, u]."""
    if op.kind == "relu":
        return relu_relaxation(l, u, relu_mode)
    return {"exp": exp_relaxation, "log": log_relaxation}[op.kind](l, u)
