"""The ReLU MLP that the sweep tools bound, built from the ``lirpa`` they import.

Each tool imports ``lirpa`` only once it has read ``--src``, so the package is
passed in rather than imported here.
"""
from __future__ import annotations

import numpy as np


def relu_mlp(lirpa, rng: np.random.Generator, dims: list[int]):
    """A ReLU MLP over an input of ``dims[0]``, with one affine layer per later entry and a ReLU
    after each but the last. Per layer, its weight is drawn from ``rng`` as normal with std
    1/sqrt(fan-in), then its bias as normal with std 0.1."""
    nodes = [lirpa.Node(0, lirpa.Input(), (), dims[0])]
    for layer, (t, s) in enumerate(zip(dims, dims[1:])):
        w = rng.normal(0.0, 1.0 / np.sqrt(t), (s, t))
        nodes.append(lirpa.Node(len(nodes), lirpa.Affine(w, rng.normal(0.0, 0.1, s)), (len(nodes) - 1,), s))
        if layer < len(dims) - 2:
            nodes.append(lirpa.Node(len(nodes), lirpa.ReLU(), (len(nodes) - 1,), s))
    return lirpa.Graph(tuple(nodes), len(nodes) - 1)
