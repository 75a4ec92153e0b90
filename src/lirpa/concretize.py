"""Concretization: solving min/max of linear bounds over perturbation regions.

lp balls admit a dual-norm closed form. Under bounded synonym substitution
the exact extreme is the clean sentence's value plus the delta best
per-position gains, from one batched product against the option table that
each (immutable) ``Synonym`` builds once. A brute-force enumerator over all
substitution assignments serves as the independent oracle.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import GraphError
from .interval import IntervalBounds
from .linear import InputLayout, LinearBounds
from .perturb import LpBall, PerturbationSpec, Synonym

__all__ = [
    "concretize_lp",
    "concretize_synonym_dp",
    "brute_force_synonym",
    "concretize_bounds",
]

_BRUTE_FORCE_LIMIT = 10**6


def _row_norms(w: np.ndarray, q: float) -> np.ndarray:
    if w.shape[1] == 0:
        return np.zeros(w.shape[0])
    return np.linalg.norm(w, ord=q, axis=1)


def _lp_lower(w: np.ndarray, b: np.ndarray, spec: LpBall) -> np.ndarray:
    return w @ spec.center + b - spec.eps * _row_norms(w, spec.dual_q)


def _lp_upper(w: np.ndarray, b: np.ndarray, spec: LpBall) -> np.ndarray:
    return w @ spec.center + b + spec.eps * _row_norms(w, spec.dual_q)


def concretize_lp(lb: LinearBounds, spec: LpBall) -> IntervalBounds:
    """Exact min/max of the linear bounds over an lp ball (dual-norm form)."""
    if lb.input_dim != spec.center.shape[0]:
        raise GraphError(
            f"bound has {lb.input_dim} columns but ball is {spec.center.shape[0]}-dimensional"
        )
    return IntervalBounds(
        _lp_lower(lb.lower_w, lb.lower_b, spec), _lp_upper(lb.upper_w, lb.upper_b, spec)
    )


def _synonym_extremes(
    wl: np.ndarray, bl: np.ndarray, wu: np.ndarray, bu: np.ndarray, spec: Synonym
) -> tuple[np.ndarray, np.ndarray]:
    """Min of wl @ x + bl and max of wu @ x + bu over the sentences x allowed.

    w @ x is a sum of per-position terms, so its minimum is the clean value
    plus the ``budget`` most negative gains, a gain being a position's best
    option term minus its clean term. The max of wu @ x is minus the min of
    -wu @ x, exactly in floats, so both sides share one product.
    """
    n, _, d = spec.option_table.shape
    w = np.concatenate([wl, -wu])
    # terms[t, k, r] = w[r, block t] @ (option k at position t)
    terms = np.matmul(spec.option_table, w.reshape(-1, n, d).transpose(1, 2, 0))
    clean = terms[:, 0]
    gains = terms.min(axis=1) - clean
    if spec.budget < n:
        gains = np.partition(gains, spec.budget, axis=0)[:spec.budget]
    best = clean.sum(axis=0) + gains.sum(axis=0)
    return bl + best[:len(wl)], bu - best[len(wl):]


def concretize_synonym_dp(lb: LinearBounds, spec: Synonym) -> IntervalBounds:
    """Exact min/max of the linear bounds under bounded word substitution.

    Output coordinates are treated independently.
    """
    if lb.input_dim != spec.length * spec.embedding_dim:
        raise GraphError(
            f"bound has {lb.input_dim} columns but spec spans "
            f"{spec.length * spec.embedding_dim} embedding coordinates"
        )
    return IntervalBounds(*_synonym_extremes(lb.lower_w, lb.lower_b, lb.upper_w, lb.upper_b, spec))


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


def concretize_bounds(
    lb: LinearBounds, layout: InputLayout, specs: Mapping[int, PerturbationSpec]
) -> IntervalBounds:
    """Concretize linear bounds under heterogeneous per-node specs.

    Blocks are independent regions, so the optimum separates into a sum of
    per-block extremes added to the bias terms.
    """
    if lb.input_dim != layout.dim:
        raise GraphError(
            f"bound has {lb.input_dim} columns but layout spans {layout.dim}"
        )
    lower = lb.lower_b.copy()
    upper = lb.upper_b.copy()
    zero = np.zeros(lb.dim)
    for i in layout.ids:
        block = layout.block(i)
        spec = specs[i]
        wl = lb.lower_w[:, block]
        wu = lb.upper_w[:, block]
        if isinstance(spec, LpBall):
            lower = lower + _lp_lower(wl, zero, spec)
            upper = upper + _lp_upper(wu, zero, spec)
        elif isinstance(spec, Synonym):
            lower, upper = _synonym_extremes(wl, lower, wu, upper, spec)
        else:
            raise GraphError(f"node {i} is not a perturbed input")
    return IntervalBounds(lower, upper)
