"""Per-module spans recorded from outside the lirpa package.

``Tracer`` replaces every public function of every loaded lirpa module, in
every module namespace that binds it, with a wrapper that records a span
(name, start, end, parent span, query id). Because ``backward`` calls
``concretize_bounds`` through its own module binding, wrapping each binding
catches internal calls too. Spans stay in memory; self time is a span's
duration minus the time its direct children cover.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# Constructors and methods traced besides module-level functions.
CLASS_TARGETS = {"graph.Graph": ("Graph", "__init__"), "linear.InputLayout.from_specs": ("InputLayout", "from_specs")}

# Per-layer metrics: span name + ".calls" / ".self_ms", a bare module name +
# ".self_ms" (all of its spans), or a value the hooks below count.
LAYER_METRICS = [
    "backward.run_backward.calls", "backward.rows", "backward.run_backward.self_ms",
    "backward.backward_oracle.self_ms", "backward.intermediate_intervals.self_ms",
    "relaxation.relu_unstable_frac", "relaxation.unary_relaxation.calls",
    "relaxation.unary_relaxation.self_ms", "relaxation.mul_relaxation.self_ms",
    "concretize.concretize_bounds.calls", "concretize.concretize_bounds.self_ms",
    "forward.forward_lirpa.calls", "forward.forward_lirpa.self_ms", "forward.forward_oracle.self_ms",
    "graph.topological_order.calls", "graph.Graph.calls", "linear.InputLayout.from_specs.calls",
    "interval.ibp_propagate.calls", "interval.ibp_propagate.self_ms", "interval.interval_oracle.self_ms",
    "fusion.fused_loss_report.self_ms", "fusion.build_fused_loss_graph.self_ms",
    "fusion.weight_perturbed_graph.self_ms", "fusion.flatness_score.self_ms", "fusion.weight_graph_mb",
    "graph.parse_problem.self_ms", "backward.compute_bounds.self_ms", "trace.overhead_frac",
    "backward.self_ms", "concretize.self_ms", "forward.self_ms", "fusion.self_ms", "graph.self_ms",
    "interval.self_ms", "linear.self_ms", "perturb.self_ms", "relaxation.self_ms",
]


def _rows(counters, args):
    out_coeff = args.get("out_coeff")
    counters["backward.rows"] += args["g"].nodes[args["o"]].dim if out_coeff is None else len(out_coeff)


def _unstable(counters, args):
    if type(args["op"]).__name__ == "ReLU":
        lower, upper = args["l"], args["u"]
        counters["relu_unstable"] += int(((lower < 0.0) & (upper > 0.0)).sum())
        counters["relu_neurons"] += lower.size


def _weight_graph_bytes(counters, result):
    graph = result[0]
    counters["weight_graph_bytes"] += sum(
        n.op.weight.nbytes for n in graph.nodes if type(n.op).__name__ == "Affine"
    )


# Counters read from a call's arguments (before) or result (after).
HOOK_SPAN = "trace.hook"
ARG_HOOKS = {"backward.run_backward": _rows, "relaxation.unary_relaxation": _unstable}
RESULT_HOOKS = {"fusion.weight_perturbed_graph": _weight_graph_bytes}


class Tracer:
    """Wraps the lirpa package on ``install`` and restores it on ``uninstall``."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.query = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [self.package] + [sys.modules[n] for n in sorted(sys.modules) if n.startswith(prefix)]

    def install(self) -> None:
        wrappers = {}
        for module in self._modules():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or not fn.__module__.startswith(self.package.__name__):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}")
                self._set(module, attr, wrappers[fn])
        for name, (cls_name, attr) in CLASS_TARGETS.items():
            cls = getattr(self.package, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                self._set(cls, attr, self._wrap(raw, name))

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counters = self.counters
        arg_hook, result_hook = ARG_HOOKS.get(name), RESULT_HOOKS.get(name)
        signature = inspect.signature(fn)

        def hook(count, value):
            # a span of its own, so no lirpa function's self time includes it
            span = [HOOK_SPAN, clock(), 0.0, stack[-1] if stack else -1, self.query]
            spans.append(span)
            count(counters, value)
            span[2] = clock()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if arg_hook:
                hook(arg_hook, signature.bind(*args, **kwargs).arguments)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if result_hook:
                hook(result_hook, result)
            return result
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def total_self_ms(self, name: str) -> float:
        """Summed self time of the spans called ``name``, in ms."""
        return 1e3 * sum(t for span, t in zip(self.spans, self.self_times()) if span[0] == name)

    def metrics(self, queries: int, parse_ms: float, overhead_frac: float) -> dict[str, float]:
        """Every name in LAYER_METRICS, as a mean per query of ``queries``."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            self_s[span[0]] += own
            self_s[span[0].split(".", 1)[0]] += own
        c = self.counters
        special = {
            "backward.rows": c["backward.rows"] / queries,
            "relaxation.relu_unstable_frac": c["relu_unstable"] / max(c["relu_neurons"], 1),
            "fusion.weight_graph_mb": c["weight_graph_bytes"] / queries / 2**20,
            "graph.parse_problem.self_ms": parse_ms,
            "trace.overhead_frac": overhead_frac,
        }
        out = {}
        for metric in LAYER_METRICS:
            if metric in special:
                out[metric] = special[metric]
            elif metric.endswith(".calls"):
                out[metric] = calls[metric[: -len(".calls")]] / queries
            else:
                out[metric] = 1e3 * self_s[metric[: -len(".self_ms")]] / queries
        return out

    def dump(self, path) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
