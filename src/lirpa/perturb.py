"""Perturbation specifications attached to independent (input) nodes.

Three kinds are supported: a constant value (unperturbed input), an lp ball
around a center, and bounded synonym substitution over a word sequence with
per-position substitution sets and a replacement budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import GraphError

__all__ = [
    "Constant",
    "LpBall",
    "Synonym",
    "PerturbationSpec",
    "is_perturbed",
    "spec_dim",
    "spec_center",
    "parse_perturbation",
    "perturbation_to_json",
    "sample_spec",
]


def _vector(x, what: str) -> np.ndarray:
    v = np.array(x, dtype=np.float64)
    if v.ndim != 1:
        raise GraphError(f"{what} must be a flat vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise GraphError(f"{what} must be finite")
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class Constant:
    """A pinned input: the singleton region {value}."""

    value: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "value", _vector(self.value, "constant value"))

    def __eq__(self, other):
        return isinstance(other, Constant) and np.array_equal(self.value, other.value)


@dataclass(frozen=True, eq=False)
class LpBall:
    """The region {x : ||x - center||_p <= eps} with p in [1, inf]."""

    center: np.ndarray
    eps: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vector(self.center, "ball center"))
        object.__setattr__(self, "eps", float(self.eps))
        object.__setattr__(self, "p", float(self.p))
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise GraphError(f"ball radius must be finite and nonnegative, got {self.eps}")
        if self.p < 1:
            raise GraphError(f"lp ball requires p >= 1, got {self.p}")

    @property
    def dual_q(self) -> float:
        """The dual exponent q with 1/p + 1/q = 1."""
        if self.p == 1:
            return math.inf
        if math.isinf(self.p):
            return 1.0
        if self.p == 2:
            return 2.0
        return self.p / (self.p - 1.0)

    def __eq__(self, other):
        return (
            isinstance(other, LpBall)
            and np.array_equal(self.center, other.center)
            and self.eps == other.eps
            and self.p == other.p
        )


@dataclass(frozen=True, eq=False)
class Synonym:
    """Bounded word substitution over a fixed sequence.

    Each position t holds the clean word ``words[t]`` which may be replaced by
    any word in ``substitutions.get(t, ())``; at most ``budget`` positions may
    differ from the clean sequence. Node coordinates are the concatenated
    embeddings of the actual words, so the node dimension is
    ``len(words) * embedding_dim``. ``option_table[t]`` holds the clean word's
    embedding, then the candidates', padded with the clean word's.

    Immutable, like every spec (read-only mappings, arrays not writeable), so
    it is safe to share and ``option_table`` always matches the words.
    """

    words: tuple[str, ...]
    substitutions: Mapping[int, tuple[str, ...]]
    embeddings: Mapping[str, np.ndarray]
    budget: int
    option_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        words = tuple(self.words)
        subs = {int(t): tuple(ws) for t, ws in self.substitutions.items() if len(ws) > 0}
        embeddings = {w: _vector(e, f"embedding of {w!r}") for w, e in self.embeddings.items()}
        budget = min(int(self.budget), len(words))
        if budget < 0:
            raise GraphError("substitution budget must be nonnegative")
        if not words:
            raise GraphError("synonym spec requires at least one word")
        dims = {e.shape[0] for e in embeddings.values()}
        if len(dims) != 1:
            raise GraphError(f"embeddings must share one dimension, got {sorted(dims)}")
        for t in subs:
            if not 0 <= t < len(words):
                raise GraphError(f"substitution position {t} out of range")
        slots = 1 + max(map(len, subs.values()), default=0)
        options = [((w,) + subs.get(t, ()) + (w,) * slots)[:slots] for t, w in enumerate(words)]
        missing = {w for row in options for w in row} - embeddings.keys()
        if missing:
            raise GraphError(f"no embedding for words {sorted(missing)}")
        table = np.array([[embeddings[w] for w in row] for row in options])
        table.flags.writeable = False
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "substitutions", MappingProxyType(subs))
        object.__setattr__(self, "embeddings", MappingProxyType(embeddings))
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "option_table", table)

    @property
    def length(self) -> int:
        return len(self.words)

    @property
    def embedding_dim(self) -> int:
        return next(iter(self.embeddings.values())).shape[0]

    def embedding(self, word: str) -> np.ndarray:
        return self.embeddings[word]

    def candidates(self, t: int) -> tuple[str, ...]:
        """Replacement candidates at position t, excluding the clean word."""
        return self.substitutions.get(t, ())

    def clean_vector(self) -> np.ndarray:
        return np.concatenate([self.embeddings[w] for w in self.words])

    def __eq__(self, other):
        return (
            isinstance(other, Synonym)
            and self.words == other.words
            and self.substitutions == other.substitutions
            and self.budget == other.budget
            and self.embeddings.keys() == other.embeddings.keys()
            and all(np.array_equal(self.embeddings[w], other.embeddings[w]) for w in self.embeddings)
        )


PerturbationSpec = Constant | LpBall | Synonym


def is_perturbed(spec: PerturbationSpec) -> bool:
    """Whether the spec carries coordinates in the perturbed vector X."""
    return not isinstance(spec, Constant)


def spec_dim(spec: PerturbationSpec) -> int:
    if isinstance(spec, Constant):
        return spec.value.shape[0]
    if isinstance(spec, LpBall):
        return spec.center.shape[0]
    return spec.length * spec.embedding_dim


def spec_center(spec: PerturbationSpec) -> np.ndarray:
    """The nominal (unperturbed) value of the input."""
    if isinstance(spec, Constant):
        return spec.value
    if isinstance(spec, LpBall):
        return spec.center
    return spec.clean_vector()


def parse_perturbation(obj: dict) -> PerturbationSpec:
    """Build a spec from its document form (see the graph JSON format)."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise GraphError("perturbation entry must be an object with a 'type' field")
    kind = obj["type"]
    if kind == "constant":
        return Constant(obj["value"])
    if kind == "lp":
        p = obj.get("p", "inf")
        p = math.inf if p == "inf" else float(p)
        return LpBall(obj["center"], float(obj.get("eps", 0.0)), p)
    if kind == "synonym":
        subs = {int(t): tuple(ws) for t, ws in obj.get("substitutions", {}).items()}
        return Synonym(tuple(obj["words"]), subs, dict(obj["embeddings"]), int(obj["delta"]))
    raise GraphError(f"unknown perturbation type {kind!r}")


def perturbation_to_json(spec: PerturbationSpec) -> dict:
    if isinstance(spec, Constant):
        return {"type": "constant", "value": spec.value.tolist()}
    if isinstance(spec, LpBall):
        p = "inf" if math.isinf(spec.p) else spec.p
        return {"type": "lp", "center": spec.center.tolist(), "eps": spec.eps, "p": p}
    return {
        "type": "synonym",
        "delta": spec.budget,
        "words": list(spec.words),
        "substitutions": {str(t): list(ws) for t, ws in sorted(spec.substitutions.items())},
        "embeddings": {w: e.tolist() for w, e in sorted(spec.embeddings.items())},
    }


def sample_spec(spec: PerturbationSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n points inside the spec region, returned as columns (dim, n).

    Coverage includes boundary points; every returned column is a member of
    the region, which makes the result usable as a soundness probe.
    """
    d = spec_dim(spec)
    if isinstance(spec, Constant):
        return np.tile(spec.value[:, None], (1, n))
    if isinstance(spec, LpBall):
        u = rng.uniform(-1.0, 1.0, size=(d, n))
        if math.isinf(spec.p):
            pts = spec.center[:, None] + spec.eps * u
        else:
            norms = np.linalg.norm(u, ord=spec.p, axis=0)
            u = u / np.maximum(norms, 1.0)
            pts = spec.center[:, None] + spec.eps * u
        # force a few boundary points for better coverage
        if n >= 4 and spec.eps > 0:
            v = rng.uniform(-1.0, 1.0, size=(d, min(4, n)))
            if math.isinf(spec.p):
                v = np.sign(v) + (v == 0)
            else:
                v = v / np.linalg.norm(v, ord=spec.p, axis=0)
            pts[:, :v.shape[1]] = spec.center[:, None] + spec.eps * v
        return pts
    cols = np.empty((d, n))
    emb = spec.embedding_dim
    for k in range(n):
        replaceable = [t for t in range(spec.length) if spec.candidates(t)]
        rng.shuffle(replaceable)
        budget = rng.integers(0, spec.budget + 1)
        chosen = set(replaceable[: int(budget)])
        for t in range(spec.length):
            if t in chosen:
                cands = spec.candidates(t)
                word = cands[rng.integers(0, len(cands))]
            else:
                word = spec.words[t]
            cols[t * emb:(t + 1) * emb, k] = spec.embedding(word)
    return cols
