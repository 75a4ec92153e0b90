"""Bound containers and the perturbed-input coordinate layout.

An IntervalBounds holds elementwise lower/upper values of one node. A
LinearBounds holds two affine functions of X, the concatenation of all
perturbed independent-node coordinates, that sandwich a node's value over
the perturbation region. The InputLayout fixes which input nodes contribute
coordinates to X and where their column blocks sit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import GraphError
from .perturb import PerturbationSpec, is_perturbed, spec_dim

if TYPE_CHECKING:  # graph imports the ops, which build these containers
    from .graph import Graph

__all__ = ["IntervalBounds", "LinearBounds", "InputLayout"]


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

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower


@dataclass(frozen=True)
class LinearBounds:
    """lower_w @ X + lower_b <= h(X) <= upper_w @ X + upper_b for X in S."""

    lower_w: np.ndarray
    lower_b: np.ndarray
    upper_w: np.ndarray
    upper_b: np.ndarray

    def __post_init__(self):
        for name in ("lower_w", "upper_w"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        for name in ("lower_b", "upper_b"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.lower_w.shape != self.upper_w.shape or self.lower_b.shape != self.upper_b.shape:
            raise ValueError("lower/upper coefficient shapes differ")
        if self.lower_w.shape[0] != self.lower_b.shape[0]:
            raise ValueError(
                f"coefficient rows {self.lower_w.shape[0]} != bias length {self.lower_b.shape[0]}"
            )

    @property
    def dim(self) -> int:
        return self.lower_b.shape[0]

    @property
    def input_dim(self) -> int:
        return self.lower_w.shape[1]


@dataclass(frozen=True)
class InputLayout:
    """Column blocks of the perturbed independent nodes inside X."""

    ids: tuple[int, ...]
    slices: dict[int, slice]
    dim: int

    @classmethod
    def from_specs(cls, g: Graph, specs: Mapping[int, PerturbationSpec]) -> "InputLayout":
        ids = []
        slices = {}
        offset = 0
        for i in g.input_ids:
            if i not in specs:
                raise GraphError(f"no perturbation spec for input node {i}")
            d = spec_dim(specs[i])
            if d != g.nodes[i].dim:
                raise GraphError(
                    f"spec dim {d} does not match input node {i} dim {g.nodes[i].dim}"
                )
            if is_perturbed(specs[i]):
                ids.append(i)
                slices[i] = slice(offset, offset + d)
                offset += d
        return cls(tuple(ids), slices, offset)

    def block(self, node_id: int) -> slice:
        return self.slices[node_id]
