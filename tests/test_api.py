"""The public surface: one entry point per concept, and each name has one home.

Every module exports only what it defines, and the package's relative
imports form no cycle, so no module reaches back into one that imports it.
"""
import ast
import graphlib
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import lirpa
from helpers import demo_net, random_graph
from lirpa import GraphError
from lirpa.backward import BoundQuery

PUBLIC = {
    "Add", "Affine", "BackwardState", "BoundStrategy", "Constant", "DomainError",
    "Exp", "FusedLossReport", "Graph", "GraphError", "Input", "InputLayout", "IntervalBounds",
    "LinearBounds", "Log", "LpBall", "MarginSpec", "MulElementwise", "Neg", "Node", "OpKind",
    "PerturbationSpec", "ReLU", "ReluLowerMode", "Sub", "SumReduce", "Synonym",
    "bound_loss_fused", "bound_loss_unfused", "build_fused_loss_graph", "compute_bounds",
    "concretize_bounds", "evaluate", "exp_relaxation", "flatness_score", "fused_loss_report",
    "log_relaxation", "margin_transform", "mul_relaxation", "parse_problem",
    "relu_relaxation", "run_backward", "serialize_problem", "unary_relaxation",
    "weight_perturbed_graph",
}


def test_package_exports_exactly_the_public_names():
    assert len(lirpa.__all__) == len(set(lirpa.__all__))
    assert set(lirpa.__all__) == PUBLIC
    for name in lirpa.__all__:
        assert hasattr(lirpa, name), name


def test_every_module_export_resolves():
    for info in pkgutil.iter_modules(lirpa.__path__):
        module = importlib.import_module(f"lirpa.{info.name}")
        for name in getattr(module, "__all__", ()):
            # defined there, not re-exported from another module
            assert getattr(module, name).__module__ == module.__name__, f"lirpa.{info.name}.{name}"


def _relative_imports(tree: ast.Module) -> set[str]:
    """The modules that ``tree`` imports relatively, inside functions too, outside ``if TYPE_CHECKING:``."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_relative_imports_form_no_cycle():
    sources = sorted(Path(lirpa.__file__).parent.glob("*.py"))
    graph = {path.stem: _relative_imports(ast.parse(path.read_text())) for path in sources}
    assert graph["backward"] >= {"concretize", "ops"}  # the walk sees the imports
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError naming the cycle


def test_bound_query_has_one_mode():
    g, specs = demo_net()
    with pytest.raises(GraphError, match="unknown bound strategy"):
        BoundQuery(g, specs, None)
    assert not hasattr(BoundQuery, "linear")


def test_run_backward_takes_the_graph_the_target_out_coeff_and_ops():
    # perfbench/tracing.py's _rows hook binds the first three names to count backward.rows,
    # which perfbench's test_backward_pass_counts_per_query reads: renaming one breaks the benchmark
    assert list(inspect.signature(lirpa.run_backward).parameters) == ["g", "o", "out_coeff", "ops"]


def test_each_relaxed_unary_node_goes_through_unary_relaxation_once(monkeypatch):
    # perfbench/tracing.py's _unstable hook binds these names on every call to count
    # relaxation.relu_unstable_frac and unary_relaxation.calls: a relax rule that
    # bypassed the function would read 0 there
    assert list(inspect.signature(lirpa.unary_relaxation).parameters) == ["op", "l", "u", "relu_mode"]
    calls, relax = [], lirpa.ops.unary_relaxation
    monkeypatch.setattr(lirpa.ops, "unary_relaxation", lambda op, *args: calls.append(op.kind) or relax(op, *args))
    g, specs = demo_net()
    lirpa.compute_bounds(g, specs, lirpa.BoundStrategy.BACKWARD)
    assert calls == ["relu", "relu"]
    # acceptance corpus graph 21: its output adds relu 7 to relu 9 = relu(relu 7), and relu 5 is off its paths
    rng = np.random.default_rng(2024)
    g, specs = [random_graph(rng, max_nodes=12, max_dim=5) for _ in range(22)][-1]
    assert g.nodes[g.output].op.kind == "add" and g.nodes[g.output].inputs == (9, 7) and g.nodes[9].inputs == (7,)
    unary = [i for i, n in enumerate(g.nodes) if isinstance(n.op, lirpa.ops.UnaryRelaxed)]
    assert unary == [4, 5, 7, 9] and 5 not in g.pop_order(g.output)
    for strategy in lirpa.BoundStrategy:
        calls.clear()
        lirpa.compute_bounds(g, specs, strategy)
        assert calls == ([] if strategy is lirpa.BoundStrategy.IBP else ["relu"] * 3), strategy
