"""Bound containers and the perturbed-input coordinate layout.

An IntervalBounds holds elementwise lower/upper values of one node. A
LinearBounds holds two affine functions of X, the concatenation of all
perturbed independent-node coordinates, that sandwich a node's value over
the perturbation region. The InputLayout fixes which input nodes contribute
coordinates to X and where their column blocks sit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import GraphError

if TYPE_CHECKING:  # the ops (through graph) and the specs build these containers
    from .graph import Graph
    from .perturb import PerturbationSpec

__all__ = ["IntervalBounds", "LinearBounds", "InputLayout"]
_F64 = np.dtype(np.float64)


@dataclass(frozen=True)
class IntervalBounds:
    """Elementwise lower/upper value bounds of one node."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=np.float64))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=np.float64))
        if self.lower.shape != self.upper.shape:
            raise ValueError(
                f"bound shapes differ: {self.lower.shape} vs {self.upper.shape}"
            )

    @cached_property
    def finite(self) -> bool:
        return bool(np.isfinite(self.lower).all() and np.isfinite(self.upper).all())

    @cached_property
    def sign_parts(self) -> tuple[np.ndarray, ...]:
        """max(lower, 0), min(lower, 0), max(upper, 0) and min(upper, 0), read-only: a weight box is shared."""
        parts = np.array([f(end, 0.0) for end in (self.lower, self.upper) for f in (np.maximum, np.minimum)])
        parts.flags.writeable = False
        return tuple(parts)


@dataclass(frozen=True)
class LinearBounds:
    """lower_w @ X + lower_b <= h(X) <= upper_w @ X + upper_b for X in S."""

    lower_w: np.ndarray
    lower_b: np.ndarray
    upper_w: np.ndarray
    upper_b: np.ndarray

    def __post_init__(self):
        for name, a in self.__dict__.items():  # the rules' own results are float64 arrays already
            if type(a) is not np.ndarray or a.dtype is not _F64:
                object.__setattr__(self, name, np.asarray(a, dtype=np.float64))
        if self.lower_w.shape != self.upper_w.shape or self.lower_b.shape != self.upper_b.shape:
            raise ValueError("lower/upper coefficient shapes differ")
        if self.lower_w.shape[0] != self.lower_b.shape[0]:
            raise ValueError(f"coefficient rows {self.lower_w.shape[0]} != bias length {self.lower_b.shape[0]}")

    @property
    def input_dim(self) -> int:
        return self.lower_w.shape[1]


@dataclass(frozen=True)
class InputLayout:
    """Column blocks of the perturbed independent nodes inside X, in input order."""

    slices: dict[int, slice]
    dim: int

    @classmethod
    def from_specs(cls, g: Graph, specs: Mapping[int, PerturbationSpec]) -> "InputLayout":
        slices = {}
        offset = 0
        for i in g.input_ids:
            if i not in specs:
                raise GraphError(f"no perturbation spec for input node {i}")
            d = specs[i].dim
            if d != g.nodes[i].dim:
                raise GraphError(
                    f"spec dim {d} does not match input node {i} dim {g.nodes[i].dim}"
                )
            if specs[i].perturbed:
                slices[i] = slice(offset, offset + d)
                offset += d
        return cls(slices, offset)
