"""Certified bound propagation for neural networks as computational graphs.

Given a graph, a nominal input and a perturbation specification, the engines
compute provably sound elementwise bounds on any node: plain interval
propagation, forward/backward linear bound propagation with concretization
over lp balls or bounded word substitution, plus loss-fusion and flatness
analyses built on top.
"""
from .backward import (
    BackwardState,
    BoundStrategy,
    backward_lirpa,
    backward_oracle,
    compute_bounds,
    intermediate_intervals,
    run_backward,
)
from .concretize import (
    brute_force_synonym,
    concretize_bounds,
    concretize_lp,
    concretize_synonym_dp,
)
from .errors import DomainError, GraphError
from .forward import forward_lirpa, forward_oracle
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
    Add,
    Affine,
    Exp,
    Graph,
    Input,
    Log,
    MulElementwise,
    Neg,
    Node,
    OpKind,
    ReLU,
    Sub,
    SumReduce,
    evaluate,
    get_out_degree,
    parse_graph,
    parse_problem,
    serialize_problem,
    topological_order,
)
from .interval import IntervalBounds, ibp_propagate, input_interval, interval_oracle
from .linear import InputLayout, LinearBounds
from .perturb import (
    Constant,
    LpBall,
    PerturbationSpec,
    Synonym,
    sample_spec,
    spec_center,
)
from .relaxation import (
    BinaryRelaxation,
    ReluLowerMode,
    UnaryRelaxation,
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
    "BinaryRelaxation",
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
    "UnaryRelaxation",
    "backward_lirpa",
    "backward_oracle",
    "bound_loss_fused",
    "bound_loss_unfused",
    "brute_force_synonym",
    "build_fused_loss_graph",
    "compute_bounds",
    "concretize_bounds",
    "concretize_lp",
    "concretize_synonym_dp",
    "evaluate",
    "exp_relaxation",
    "flatness_score",
    "forward_lirpa",
    "forward_oracle",
    "fused_loss_report",
    "get_out_degree",
    "ibp_propagate",
    "input_interval",
    "intermediate_intervals",
    "interval_oracle",
    "log_relaxation",
    "margin_transform",
    "mul_relaxation",
    "parse_graph",
    "parse_problem",
    "relu_relaxation",
    "run_backward",
    "sample_spec",
    "serialize_problem",
    "spec_center",
    "topological_order",
    "unary_relaxation",
    "weight_perturbed_graph",
]
