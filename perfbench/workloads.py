"""The four benchmark workloads: seeded generators, queries and checks.

A workload generates, from a seed and with numpy only, one graph document
and a list of query documents (one JSON line each, a lirpa problem document
holding the single input node and its perturbation, plus query fields such
as the label). The workload process parses these with the public API at
set-up and runs one query per closed-loop step. Results are checked against
the reference interpreter in ``reference.py``, outside the timed region.
"""
from __future__ import annotations

import json
import math

import numpy as np

import reference

# Sound bounds may differ from sampled values by float rounding only.
TOLERANCE = 1e-7


def _affine(inp: int, weight: np.ndarray, bias: np.ndarray) -> dict:
    return {"op": "affine", "inputs": [inp], "dim": weight.shape[0],
            "weight": weight.tolist(), "bias": bias.tolist()}


def _mlp(rng: np.random.Generator, dims: list[int]) -> dict:
    """He-initialised ReLU MLP, so activations keep their scale with depth."""
    nodes = [{"op": "input", "inputs": [], "dim": dims[0]}]
    for k, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        w = rng.standard_normal((fan_out, fan_in)) * math.sqrt(2.0 / fan_in)
        nodes.append(_affine(len(nodes) - 1, w, 0.1 * rng.standard_normal(fan_out)))
        if k < len(dims) - 2:
            nodes.append({"op": "relu", "inputs": [len(nodes) - 1], "dim": fan_out})
    return {"nodes": nodes, "output": len(nodes) - 1}


def _query_line(spec: dict, dim: int, **fields) -> str:
    doc = {"nodes": [{"op": "input", "inputs": [], "dim": dim}], "output": 0,
           "perturbations": [{"node": 0, **spec}], **fields}
    return json.dumps(doc)


def _lp(center: np.ndarray, eps: float) -> dict:
    return {"type": "lp", "center": center.tolist(), "eps": eps, "p": "inf"}


def _word(group: int, k: int) -> str:
    return f"g{group}w{k}"


def _finite_ordered(*pairs) -> bool:
    return all(np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(lo <= hi) for lo, hi in pairs)


def _inside(values: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> bool:
    return bool(np.all(values >= lower[:, None] - TOLERANCE) and np.all(values <= upper[:, None] + TOLERANCE))


class Workload:
    """One closed-loop query type.

    ``generate`` runs in the benchmark's parent process; ``prepare`` runs in
    the workload's own process and returns the timed call. ``valid`` rejects
    NaN, infinite and inverted results, ``sound`` compares a result with
    reference values at sampled, attack or (``synonym-dag``) all points, and
    ``looseness`` picks the certified quantities a looser analysis makes
    larger, which ``total_looseness`` combines over the probe queries.
    """

    name = ""
    queries = 0
    check_queries = 0  # generated after the timed queries, run and checked only
    samples = 64

    def generate(self, model_rng: np.random.Generator, rng: np.random.Generator) -> tuple[dict, list[str]]:
        """The graph document and ``queries`` + ``check_queries`` query lines."""
        raise NotImplementedError

    def prepare(self, lirpa, graph, spec, line: dict):
        """A zero-argument callable that runs the query once."""
        raise NotImplementedError

    def valid(self, result) -> bool:
        raise NotImplementedError

    def sound(self, doc: dict, line: dict, result, rng: np.random.Generator) -> bool:
        raise NotImplementedError

    def looseness(self, result, line: dict) -> np.ndarray:
        """The values of one query's result that a looser analysis makes larger."""
        raise NotImplementedError

    def total_looseness(self, values: list[np.ndarray]) -> float:
        """One figure over every distinct query; a sum unless overridden."""
        return float(np.sum(np.concatenate(values)))

    def certified(self, line: dict, result) -> bool | None:
        return None


class CertifyMlp(Workload):
    """Margin bounds of a deep MLP with the tightest (backward) strategy."""

    name = "certify-mlp"
    queries = 32
    dims = [64] + [128] * 8 + [10]
    eps_grid = np.geomspace(1e-3, 3e-2, 8)

    def generate(self, model_rng, rng):
        doc = _mlp(model_rng, self.dims)
        # each eps of the grid equally often, in seeded order
        eps = rng.permutation(np.resize(self.eps_grid, self.queries))
        centers = rng.uniform(-1.0, 1.0, (self.queries, self.dims[0]))
        labels = np.argmax(reference.logits(doc, centers.T), axis=0)
        lines = [_query_line(_lp(c, float(e)), self.dims[0], label=int(y)) for c, e, y in zip(centers, eps, labels)]
        return doc, lines

    def prepare(self, lirpa, graph, spec, line):
        label, k = line["label"], self.dims[-1]
        specs = {0: spec}

        def query():
            _, box = lirpa.compute_bounds(
                graph, specs, lirpa.BoundStrategy.BACKWARD,
                out_coeff=lirpa.margin_transform(label, k), relu_mode=lirpa.ReluLowerMode.ZERO,
            )
            return box.lower, box.upper
        return query

    def valid(self, result):
        return _finite_ordered(result)

    def sound(self, doc, line, result, rng):
        spec, label = line["perturbations"][0], line["label"]
        center, eps = np.asarray(spec["center"]), spec["eps"]
        # plus the gradient-sign corner of every margin, in both directions
        grads = reference.input_gradients(doc, center, np.eye(self.dims[-1])[label] - np.eye(self.dims[-1]))
        attack = center[:, None] + eps * np.sign(np.concatenate([grads, -grads])).T
        x = np.concatenate([reference.linf_points(center, eps, rng, self.samples), attack], axis=1)
        z = reference.logits(doc, x)
        return _inside(z[label] - z, *result)

    def looseness(self, result, line):
        # width per unit eps, so each eps of the grid weighs the same
        width = np.delete(result[1] - result[0], line["label"])
        return width / line["perturbations"][0]["eps"]

    def total_looseness(self, values):
        return float(np.exp(np.mean(np.log(np.concatenate(values)))))

    def certified(self, line, result):
        return bool(np.all(np.delete(result[0], line["label"]) > 0.0))


class LossFusion(Workload):
    """Fused and unfused worst-case cross-entropy of a wide classifier."""

    name = "loss-fusion"
    queries = 24
    dims = [32, 128, 128, 128, 400]
    eps = 0.002

    def generate(self, model_rng, rng):
        doc = _mlp(model_rng, self.dims)
        lines = [
            _query_line(_lp(rng.uniform(-1.0, 1.0, self.dims[0]), self.eps), self.dims[0],
                        label=int(rng.integers(self.dims[-1])))
            for _ in range(self.queries)
        ]
        return doc, lines

    def prepare(self, lirpa, graph, spec, line):
        margin = lirpa.MarginSpec(line["label"], self.dims[-1])
        specs = {0: spec}

        def query():
            r = lirpa.fused_loss_report(
                graph, specs, margin, lirpa.BoundStrategy.IBP_BACKWARD, lirpa.ReluLowerMode.ZERO
            )
            return np.array([r.fused_upper]), np.array([r.unfused_upper]), r.margin_lowers
        return query

    def valid(self, result):
        return all(np.all(np.isfinite(r)) for r in result)

    def sound(self, doc, line, result, rng):
        spec, label = line["perturbations"][0], line["label"]
        center, eps = np.asarray(spec["center"]), spec["eps"]
        # plus gradient-sign corners raising the loss and the 4 largest rival margins
        z = reference.logits(doc, center[:, None])[:, 0]
        onehot = np.eye(len(z))
        p = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
        rivals = [j for j in np.argsort(-z) if j != label][:4]
        grads = reference.input_gradients(doc, center, [p - onehot[label]] + [onehot[j] - onehot[label] for j in rivals])
        attack = center[:, None] + eps * np.sign(grads).T
        x = np.concatenate([reference.linf_points(center, eps, rng, self.samples), attack], axis=1)
        loss = reference.cross_entropy(reference.logits(doc, x), label)
        fused, unfused = result[0][0], result[1][0]
        return bool(np.all(loss <= fused + TOLERANCE) and fused <= unfused + 1e-9)

    def looseness(self, result, line):
        return result[0]


class SynonymDag(Workload):
    """A residual DAG over every op, bounded under word substitution."""

    name = "synonym-dag"
    queries = 16
    check_queries, check_spread = 4, 0.003
    samples = 2048  # random sentences within the budget, per timed and probe query
    words, emb_dim, subs, delta, vocab, spread = 16, 8, 4, 3, 64, 0.1
    width, blocks, out_dim = 32, 3, 8

    def _graph(self, rng) -> dict:
        nodes: list[dict] = [{"op": "input", "inputs": [], "dim": self.words * self.emb_dim}]
        w = self.width

        def add(op, inputs, dim=w, **extra):
            nodes.append({"op": op, "inputs": list(inputs), "dim": dim, **extra})
            return len(nodes) - 1

        def affine(inp, in_dim=w, dim=w, scale=1.0, positive=False, bias=0.0):
            weight = rng.standard_normal((dim, in_dim)) * scale / math.sqrt(in_dim)
            if positive:
                weight = np.abs(weight)
            b = bias + 0.1 * rng.standard_normal(dim)
            return add("affine", [inp], dim, weight=weight.tolist(), bias=b.tolist())

        h = affine(0, in_dim=self.words * self.emb_dim)
        for b in range(self.blocks):
            branch = affine(add("relu", [affine(h, scale=1.4)]), scale=0.5)
            # exp(-relu(.)) lies in (0, 1] under any sound relaxation
            gate = add("exp", [add("neg", [add("relu", [affine(h)])])])
            h = add("add" if b % 2 == 0 else "sub", [h, add("mul", [branch, gate])])
        # log of a nonnegative combination of ReLUs plus a positive bias stays
        # in domain: every relaxation's lower bound is at least the bias
        h = add("add", [h, add("log", [affine(add("relu", [h]), scale=0.3, positive=True, bias=1.0)])])
        total = add("sum_reduce", [h], dim=1)
        h = add("add", [h, affine(total, in_dim=1, scale=0.1)])
        affine(h, dim=self.out_dim)
        return {"nodes": nodes, "output": len(nodes) - 1}

    def generate(self, model_rng, rng):
        doc = self._graph(model_rng)
        # synonym groups: 2 * subs words scattered around a common meaning
        centres = model_rng.uniform(-1.0, 1.0, (self.vocab, 1, self.emb_dim))
        scatter = model_rng.standard_normal((self.vocab, 2 * self.subs, self.emb_dim))
        lines = [self._sentence(rng, centres + self.spread * scatter) for _ in range(self.queries)]
        # tight synonyms make the relaxations nearly exact, so a DP that
        # miscounts the budget shows in the exhaustive check
        lines += [self._sentence(rng, centres + self.check_spread * scatter, check_only=True)
                  for _ in range(self.check_queries)]
        return doc, lines

    def _sentence(self, rng, vocab, **fields) -> str:
        groups = rng.choice(self.vocab, self.words, replace=False)
        picks = [rng.choice(2 * self.subs, self.subs + 1, replace=False) for _ in groups]
        spec = {"type": "synonym", "delta": self.delta,
                "words": [_word(g, p[0]) for g, p in zip(groups, picks)],
                "substitutions": {str(t): [_word(g, k) for k in p[1:]] for t, (g, p) in enumerate(zip(groups, picks))},
                "embeddings": {_word(g, k): vocab[g, k].tolist() for g, p in zip(groups, picks) for k in p}}
        return _query_line(spec, self.words * self.emb_dim, **fields)

    def prepare(self, lirpa, graph, spec, line):
        specs = {0: spec}

        def query():
            _, box = lirpa.compute_bounds(
                graph, specs, lirpa.BoundStrategy.FORWARD_BACKWARD, relu_mode=lirpa.ReluLowerMode.ZERO
            )
            return box.lower, box.upper
        return query

    def valid(self, result):
        return _finite_ordered(result)

    def sound(self, doc, line, result, rng):
        table, sentences = reference.in_budget_sentences(line["perturbations"][0])
        # all 37,825 sentences within the budget for check-only queries
        if not line.get("check_only"):
            sentences = sentences[rng.choice(len(sentences), self.samples, replace=False)]
        low, high = reference.substitution_extremes(doc, table, sentences)
        return _inside(np.stack([low, high], axis=1), *result)

    def looseness(self, result, line):
        return result[1] - result[0]


class Flatness(Workload):
    """Certified loss gap under l2 weight perturbation of every layer."""

    name = "flatness"
    queries = 8
    dims = [64, 128, 128, 10]
    eps_bar = 3e-4

    def generate(self, model_rng, rng):
        doc = _mlp(model_rng, self.dims)
        xs = rng.uniform(-1.0, 1.0, (self.queries, self.dims[0]))
        labels = np.argmax(reference.logits(doc, xs.T), axis=0)
        lines = [_query_line({"type": "constant", "value": x.tolist()}, self.dims[0], label=int(y), eps_bar=self.eps_bar)
                 for x, y in zip(xs, labels)]
        return doc, lines

    def prepare(self, lirpa, graph, spec, line):
        batch = [({0: spec.value}, line["label"])]
        eps_bar = line["eps_bar"]

        def query():
            score = lirpa.flatness_score(
                graph, eps_bar, batch, lirpa.BoundStrategy.IBP_BACKWARD, lirpa.ReluLowerMode.ZERO
            )
            return (np.array([score]),)
        return query

    def valid(self, result):
        return bool(np.isfinite(result[0][0]) and result[0][0] >= 0.0)

    def sound(self, doc, line, result, rng):
        x = np.asarray(line["perturbations"][0]["value"])
        label, eps_bar = line["label"], line["eps_bar"]
        z = reference.logits(doc, x[:, None])[:, 0]
        nominal = reference.cross_entropy(z[:, None], label)[0]
        weights = reference.l2_weight_perturbations(doc, eps_bar, rng, self.samples)
        # plus every layer moved along its loss gradient to the sphere
        p = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
        for k, g in reference.weight_gradients(doc, x, p - np.eye(len(z))[label]).items():
            w = doc["nodes"][k]["weight"]
            step = w + np.linalg.norm(w) * eps_bar * g / (np.linalg.norm(g) or 1.0)
            weights[k] = np.concatenate([weights[k], step[None]])
        x = np.repeat(x[:, None], self.samples + 1, axis=1)
        gap = reference.cross_entropy(reference.logits(doc, x, weights), label) - nominal
        return bool(np.all(gap <= result[0][0] + TOLERANCE))

    def looseness(self, result, line):
        return result[0]


WORKLOADS = {w.name: w for w in (CertifyMlp(), LossFusion(), SynonymDag(), Flatness())}
