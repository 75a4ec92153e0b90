"""Perturbation specs: the region of an input node, each kind one class.

The kinds are a constant value, an lp ball and bounded synonym substitution.
Each carries its document ``kind``, a ``perturbed`` flag (a perturbed input
owns a column block of X; a constant one owns none), its ``center`` and
``dim``, and the rules ``box()`` (an enclosing interval), ``extremes(w_lo,
w_up)`` (min of w_lo @ x and max of w_up @ x over the region, the constant
kind's included), ``sample(rng, n)`` (in-region (dim, n) columns, boundary
points included) and ``to_json``/``from_json``. Two specs are equal when
their documents are.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import ClassVar, Mapping

import numpy as np

from .errors import GraphError, _floats
from .linear import IntervalBounds

__all__ = [
    "PerturbationSpec",
    "Constant",
    "LpBall",
    "Synonym",
    "parse_perturbation",
]


def _vector(x, what: str) -> np.ndarray:
    v = _floats(x)
    if v.ndim != 1:
        raise GraphError(f"{what} must be a flat vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise GraphError(f"{what} must be finite")
    v.flags.writeable = False
    return v


def _is_int(x) -> bool:
    # bool is a subclass of int, but true is no node id, dim or budget; a numpy integer is one
    return type(x) is int or isinstance(x, np.integer)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _strings(x, what: str) -> tuple[str, ...]:
    if not isinstance(x, list) or not all(isinstance(w, str) for w in x):
        raise GraphError(f"{what} must be a list of strings, got {x!r}")
    return tuple(x)


def _row_norms(w: np.ndarray, q: float) -> np.ndarray:
    if w.shape[1] == 0:
        return np.zeros(w.shape[0])
    if not isinstance(w, np.ndarray):  # a factored coefficient (``ops.MatVec``'s weight)
        return w.row_norms(q)
    return np.linalg.norm(w, ord=q, axis=1)


class PerturbationSpec:
    """Base of every spec: its document ``kind`` and its rules (see above)."""

    kind: ClassVar[str]
    perturbed: ClassVar[bool] = True

    def __eq__(self, other):
        return isinstance(other, PerturbationSpec) and self.to_json() == other.to_json()

    @property
    def dim(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True, eq=False)
class Constant(PerturbationSpec):
    """A pinned input: the singleton region {value}."""

    value: np.ndarray

    kind = "constant"
    perturbed = False

    def __post_init__(self):
        object.__setattr__(self, "value", _vector(self.value, "constant value"))

    @property
    def center(self) -> np.ndarray:
        return self.value

    def box(self) -> IntervalBounds:
        return IntervalBounds(self.value, self.value)

    def extremes(self, w_lo, w_up):
        """Exact at the one point: w_lo @ value and w_up @ value."""
        return w_lo @ self.value, w_up @ self.value

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.tile(self.value[:, None], (1, n))

    def to_json(self) -> dict:
        return {"type": self.kind, "value": self.value.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Constant":
        return cls(obj["value"])


@dataclass(frozen=True, eq=False)
class LpBall(PerturbationSpec):
    """The region {x : ||x - center||_p <= eps} with p in [1, inf]."""

    center: np.ndarray
    eps: float
    p: float

    kind = "lp"

    def __post_init__(self):
        object.__setattr__(self, "center", _vector(self.center, "ball center"))
        object.__setattr__(self, "eps", _floats(self.eps, float))
        object.__setattr__(self, "p", _floats(self.p, float))
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise GraphError(f"ball radius must be finite and nonnegative, got {self.eps}")
        if not self.p >= 1:  # NaN fails too
            raise GraphError(f"lp ball requires p >= 1, got {self.p}")

    @property
    def dual_q(self) -> float:
        """The dual exponent q with 1/p + 1/q = 1."""
        if self.p == 1:
            return math.inf
        if math.isinf(self.p):
            return 1.0
        return self.p / (self.p - 1.0)

    def box(self) -> IntervalBounds:
        return self._box

    @cached_property
    def _box(self) -> IntervalBounds:
        # for p < inf the box relaxation of the ball; read-only, as every query shares it
        lower, upper = self.center - self.eps, self.center + self.eps
        lower.flags.writeable = upper.flags.writeable = False
        return IntervalBounds(lower, upper)

    def extremes(self, w_lo, w_up):
        """Dual-norm closed form: w @ center -/+ eps * ||w_row||_q."""
        return (
            w_lo @ self.center - self.eps * _row_norms(w_lo, self.dual_q),
            w_up @ self.center + self.eps * _row_norms(w_up, self.dual_q),
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        d = self.dim
        u = rng.uniform(-1.0, 1.0, size=(d, n))
        if math.isinf(self.p):
            pts = self.center[:, None] + self.eps * u
        else:
            norms = np.linalg.norm(u, ord=self.p, axis=0)
            u = u / np.maximum(norms, 1.0)
            pts = self.center[:, None] + self.eps * u
        # force a few boundary points for better coverage
        if n >= 4 and self.eps > 0:
            v = rng.uniform(-1.0, 1.0, size=(d, min(4, n)))
            if math.isinf(self.p):
                v = np.sign(v) + (v == 0)
            else:
                v = v / np.linalg.norm(v, ord=self.p, axis=0)
            pts[:, :v.shape[1]] = self.center[:, None] + self.eps * v
        return pts

    def to_json(self) -> dict:
        p = "inf" if math.isinf(self.p) else self.p
        return {"type": self.kind, "center": self.center.tolist(), "eps": self.eps, "p": p}

    @classmethod
    def from_json(cls, obj: dict) -> "LpBall":
        eps, p = obj.get("eps", 0.0), obj.get("p", "inf")
        if not _is_number(eps):
            raise GraphError(f"lp 'eps' must be a number, got {eps!r}")
        if not (_is_number(p) or p == "inf"):
            raise GraphError(f"lp 'p' must be a number or \"inf\", got {p!r}")
        return cls(obj["center"], eps, math.inf if p == "inf" else p)


@dataclass(frozen=True, eq=False)
class Synonym(PerturbationSpec):
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

    kind = "synonym"

    def __post_init__(self):
        if not _is_int(self.budget):
            raise GraphError(f"substitution budget 'delta' must be an integer, got {self.budget!r}")
        words = tuple(self.words)
        subs = {t: tuple(ws) for t, ws in self.substitutions.items() if len(ws) > 0}
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
            if not (_is_int(t) and 0 <= t < len(words)):
                raise GraphError(f"substitution position {t!r} out of range")
        slots = 1 + max(map(len, subs.values()), default=0)
        options = [((w,) + subs.get(t, ()) + (w,) * slots)[:slots] for t, w in enumerate(words)]
        missing = {w for row in options for w in row} - embeddings.keys()
        if missing:
            raise GraphError(f"no embedding for words {sorted(missing)}")
        table = np.array([[embeddings[w] for w in row] for row in options])
        table.flags.writeable = False
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "substitutions", MappingProxyType({int(t): ws for t, ws in subs.items()}))
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

    @property
    def center(self) -> np.ndarray:
        """The clean sentence's embeddings, concatenated."""
        return self.option_table[:, 0].reshape(-1)

    def box(self) -> IntervalBounds:
        # per position over the clean word and all of its substitutes, as if
        # every word were replaceable at once; with no budget, the clean point
        if self.budget == 0:
            return IntervalBounds(self.center, self.center)
        return IntervalBounds(
            self.option_table.min(axis=1).reshape(-1), self.option_table.max(axis=1).reshape(-1)
        )

    def extremes(self, w_lo, w_up):
        """Min of w_lo @ x and max of w_up @ x over the sentences allowed.

        w @ x is a sum of per-position terms, so its minimum is the clean value
        plus the ``budget`` most negative gains, a gain being a position's best
        option term minus its clean term. The max of w_up @ x is minus the min of
        -w_up @ x, exactly in floats, so both sides share one product.
        """
        n, _, d = self.option_table.shape
        w_lo, w_up = np.asarray(w_lo), np.asarray(w_up)  # expands a factored coefficient
        w = np.concatenate([w_lo, -w_up])
        # terms[t, k, r] = w[r, block t] @ (option k at position t)
        terms = np.matmul(self.option_table, w.reshape(-1, n, d).transpose(1, 2, 0))
        clean = terms[:, 0]
        gains = terms.min(axis=1) - clean
        if self.budget < n:
            gains = np.partition(gains, self.budget, axis=0)[:self.budget]
        best = clean.sum(axis=0) + gains.sum(axis=0)
        return best[:len(w_lo)], -best[len(w_lo):]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        cols = np.empty((self.dim, n))
        emb = self.embedding_dim
        for k in range(n):
            replaceable = [t for t in range(self.length) if self.candidates(t)]
            rng.shuffle(replaceable)
            budget = rng.integers(0, self.budget + 1)
            chosen = set(replaceable[: int(budget)])
            for t in range(self.length):
                if t in chosen:
                    cands = self.candidates(t)
                    word = cands[rng.integers(0, len(cands))]
                else:
                    word = self.words[t]
                cols[t * emb:(t + 1) * emb, k] = self.embedding(word)
        return cols

    def to_json(self) -> dict:
        return {
            "type": self.kind,
            "delta": self.budget,
            "words": list(self.words),
            "substitutions": {str(t): list(ws) for t, ws in sorted(self.substitutions.items())},
            "embeddings": {w: e.tolist() for w, e in sorted(self.embeddings.items())},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Synonym":
        words = _strings(obj["words"], "synonym 'words'")
        subs, embeddings = obj.get("substitutions", {}), obj["embeddings"]
        for name, value in (("substitutions", subs), ("embeddings", embeddings)):
            if not isinstance(value, dict):
                raise GraphError(f"synonym {name!r} must be an object, got {value!r}")
        position = lambda t: int(t) if t.isascii() and t.isdecimal() else t  # the spec rejects any other key
        subs = {position(t): _strings(ws, f"substitutions at {t}") for t, ws in subs.items()}
        return cls(words, subs, embeddings, obj["delta"])


# the parse registry: document type -> spec class
_SPEC_TYPES = {cls.kind: cls for cls in (Constant, LpBall, Synonym)}


def parse_perturbation(obj: dict) -> PerturbationSpec:
    """Build a spec from its document form (see the graph JSON format)."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise GraphError("perturbation entry must be an object with a 'type' field")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in _SPEC_TYPES:
        raise GraphError(f"unknown perturbation type {kind!r}")
    return _SPEC_TYPES[kind].from_json(obj)

