"""The public surface: one entry point per concept, and every exported name resolves."""
import importlib
import pkgutil

import pytest

import lirpa
from helpers import demo_net
from lirpa import GraphError
from lirpa.backward import BoundQuery

PUBLIC = {
    "Add", "Affine", "BackwardState", "BinaryRelaxation", "BoundStrategy", "Constant", "DomainError",
    "Exp", "FusedLossReport", "Graph", "GraphError", "Input", "InputLayout", "IntervalBounds",
    "LinearBounds", "Log", "LpBall", "MarginSpec", "MulElementwise", "Neg", "Node", "OpKind",
    "PerturbationSpec", "ReLU", "ReluLowerMode", "Sub", "SumReduce", "Synonym", "UnaryRelaxation",
    "backward_oracle", "bound_loss_fused", "bound_loss_unfused", "build_fused_loss_graph",
    "compute_bounds", "concretize_bounds", "evaluate", "exp_relaxation", "flatness_score",
    "forward_lirpa", "forward_oracle", "fused_loss_report", "get_out_degree", "ibp_propagate",
    "intermediate_intervals", "interval_oracle", "log_relaxation", "margin_transform",
    "mul_relaxation", "parse_graph", "parse_problem", "relu_relaxation", "run_backward",
    "serialize_problem", "topological_order", "unary_relaxation", "weight_perturbed_graph",
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
            assert hasattr(module, name), f"lirpa.{info.name}.{name}"


def test_bound_query_has_one_mode():
    g, specs = demo_net()
    with pytest.raises(GraphError, match="unknown bound strategy"):
        BoundQuery(g, specs, None)
    assert not hasattr(BoundQuery, "linear")
