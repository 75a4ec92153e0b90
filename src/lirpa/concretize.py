"""Concretization: solving min/max of linear bounds over perturbation regions.

Each spec's ``extremes`` rule solves its own block (the exact product at a
constant's point, the dual-norm closed form for lp balls, the top-delta gain
selection for synonym substitution); blocks are independent, so the bounds
over all inputs are the biases plus their sum.
"""
from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .errors import GraphError
from .linear import InputLayout, IntervalBounds, LinearBounds
from .perturb import PerturbationSpec

__all__ = ["concretize_blocks", "concretize_bounds"]


def concretize_blocks(lower_b: np.ndarray, upper_b: np.ndarray, blocks: Iterable[tuple]) -> IntervalBounds:
    """Concretize bias terms plus one (spec, lower_w, upper_w) block per input.

    Blocks are independent regions, so the optimum separates into a sum of
    per-block extremes added to the bias terms, in block order.
    """
    lower, upper = lower_b.copy(), upper_b.copy()
    for spec, lower_w, upper_w in blocks:
        lo, hi = spec.extremes(lower_w, upper_w)
        lower = lower + lo
        upper = upper + hi
    return IntervalBounds(lower, upper)


def concretize_bounds(
    lb: LinearBounds, layout: InputLayout, specs: Mapping[int, PerturbationSpec]
) -> IntervalBounds:
    """Concretize linear bounds under heterogeneous per-node specs, block by block."""
    if lb.input_dim != layout.dim:
        raise GraphError(f"bound has {lb.input_dim} columns but layout spans {layout.dim}")
    blocks = [(specs[i], lb.lower_w[:, cols], lb.upper_w[:, cols]) for i, cols in layout.slices.items()]
    return concretize_blocks(lb.lower_b, lb.upper_b, blocks)
