"""Certified bound propagation for neural networks as computational graphs.

Given a graph, a nominal input and a perturbation specification, the engines
compute provably sound elementwise bounds on any node: plain interval
propagation, forward/backward linear bound propagation with concretization
over lp balls or bounded word substitution, plus loss-fusion and flatness
analyses built on top. ``compute_bounds`` is the one entry point, with the
strategy as a parameter; ``backward.BoundQuery`` bounds many nodes of one
graph from one shared cache.
"""
from .backward import (
    BackwardState,
    BoundStrategy,
    compute_bounds,
    run_backward,
)
from .concretize import concretize_bounds
from .errors import DomainError, GraphError
from .fusion import (
    FusedLossReport,
    MarginSpec,
    bound_loss_fused,
    bound_loss_unfused,
    build_fused_loss_graph,
    flatness_score,
    fused_loss_report,
    margin_transform,
    weight_perturbed_graph,
)
from .graph import (
    Graph,
    Node,
    evaluate,
    parse_problem,
    serialize_problem,
)
from .linear import InputLayout, IntervalBounds, LinearBounds
from .ops import (
    Add,
    Affine,
    Exp,
    Input,
    Log,
    MulElementwise,
    Neg,
    OpKind,
    ReLU,
    Sub,
    SumReduce,
)
from .perturb import Constant, LpBall, PerturbationSpec, Synonym
from .relaxation import (
    ReluLowerMode,
    exp_relaxation,
    log_relaxation,
    mul_relaxation,
    relu_relaxation,
    unary_relaxation,
)

__version__ = "0.1.0"

__all__ = [
    "Add",
    "Affine",
    "BackwardState",
    "BoundStrategy",
    "Constant",
    "DomainError",
    "Exp",
    "FusedLossReport",
    "Graph",
    "GraphError",
    "Input",
    "InputLayout",
    "IntervalBounds",
    "LinearBounds",
    "Log",
    "LpBall",
    "MarginSpec",
    "MulElementwise",
    "Neg",
    "Node",
    "OpKind",
    "PerturbationSpec",
    "ReLU",
    "ReluLowerMode",
    "Sub",
    "SumReduce",
    "Synonym",
    "bound_loss_fused",
    "bound_loss_unfused",
    "build_fused_loss_graph",
    "compute_bounds",
    "concretize_bounds",
    "evaluate",
    "exp_relaxation",
    "flatness_score",
    "fused_loss_report",
    "log_relaxation",
    "margin_transform",
    "mul_relaxation",
    "parse_problem",
    "relu_relaxation",
    "run_backward",
    "serialize_problem",
    "unary_relaxation",
    "weight_perturbed_graph",
]
