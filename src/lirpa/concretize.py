"""Concretization: solving min/max of linear bounds over perturbation regions.

Each spec's ``extremes`` rule solves its own block (the dual-norm closed
form for lp balls, the top-delta gain selection for synonym substitution);
blocks are independent, so the bounds over all perturbed inputs are their
sum. A brute-force enumerator over all substitution assignments serves as
the independent oracle for the synonym rule.
"""
from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .errors import GraphError
from .interval import IntervalBounds
from .linear import InputLayout, LinearBounds
from .perturb import LpBall, PerturbationSpec, Synonym

__all__ = [
    "concretize_lp",
    "concretize_synonym_dp",
    "brute_force_synonym",
    "concretize_blocks",
    "concretize_bounds",
]

_BRUTE_FORCE_LIMIT = 10**6


def _concretize_one(lb: LinearBounds, spec: PerturbationSpec) -> IntervalBounds:
    if lb.input_dim != spec.dim:
        raise GraphError(f"bound has {lb.input_dim} columns but the spec spans {spec.dim}")
    return IntervalBounds(*spec.extremes(lb.lower_w, lb.lower_b, lb.upper_w, lb.upper_b))


def concretize_lp(lb: LinearBounds, spec: LpBall) -> IntervalBounds:
    """Exact min/max of the linear bounds over an lp ball (dual-norm form)."""
    return _concretize_one(lb, spec)


def concretize_synonym_dp(lb: LinearBounds, spec: Synonym) -> IntervalBounds:
    """Exact min/max of the linear bounds under bounded word substitution."""
    return _concretize_one(lb, spec)


def _enumerate_assignments(spec: Synonym) -> np.ndarray:
    """All candidate index combinations as rows; index 0 means the clean word."""
    sizes = [1 + len(spec.candidates(t)) for t in range(spec.length)]
    total = 1
    for size in sizes:
        total *= size
    if total > _BRUTE_FORCE_LIMIT:
        raise GraphError(f"{total} substitution assignments exceed the brute-force guard")
    grids = np.meshgrid(*[np.arange(size) for size in sizes], indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, spec.length)


def brute_force_synonym(lb: LinearBounds, spec: Synonym) -> IntervalBounds:
    """Oracle: enumerate every substitution assignment within the budget.

    Accumulates per-position contributions left to right, each computed
    from the spec's embeddings directly rather than from its option table.
    """
    combos = _enumerate_assignments(spec)
    within_budget = (combos > 0).sum(axis=1) <= min(spec.budget, spec.length)
    combos = combos[within_budget]

    d = spec.embedding_dim

    def extreme(w: np.ndarray, b: np.ndarray, reduce_rows) -> np.ndarray:
        acc = np.tile(b, (combos.shape[0], 1))
        for t in range(spec.length):
            wt = w[:, t * d:(t + 1) * d]
            words = (spec.words[t],) + spec.candidates(t)
            options = np.stack([wt @ spec.embedding(word) for word in words])
            acc = acc + options[combos[:, t]]
        return reduce_rows(acc)

    return IntervalBounds(
        extreme(lb.lower_w, lb.lower_b, lambda a: a.min(axis=0)),
        extreme(lb.upper_w, lb.upper_b, lambda a: a.max(axis=0)),
    )


def concretize_blocks(lower_b: np.ndarray, upper_b: np.ndarray, blocks: Iterable[tuple]) -> IntervalBounds:
    """Concretize bias terms plus one (spec, lower_w, upper_w) block per perturbed input.

    Blocks are independent regions, so the optimum separates into a sum of
    per-block extremes added to the bias terms.
    """
    lower, upper = lower_b.copy(), upper_b.copy()
    zero = np.zeros(lower_b.shape[0])
    for spec, lower_w, upper_w in blocks:
        lo, hi = spec.extremes(lower_w, zero, upper_w, zero)
        lower = lower + lo
        upper = upper + hi
    return IntervalBounds(lower, upper)


def concretize_bounds(
    lb: LinearBounds, layout: InputLayout, specs: Mapping[int, PerturbationSpec]
) -> IntervalBounds:
    """Concretize linear bounds under heterogeneous per-node specs, block by block."""
    if lb.input_dim != layout.dim:
        raise GraphError(f"bound has {lb.input_dim} columns but layout spans {layout.dim}")
    blocks = [(specs[i], lb.lower_w[:, layout.block(i)], lb.upper_w[:, layout.block(i)]) for i in layout.ids]
    return concretize_blocks(lb.lower_b, lb.upper_b, blocks)
