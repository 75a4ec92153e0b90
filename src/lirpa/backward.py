"""Backward-mode linear bound propagation and the strategy driver.

A BFS from the output node pushes coefficient matrices through each op's
``backward`` rule until only independent nodes carry coefficients.
Out-degree bookkeeping guarantees each dependent node is relaxed exactly
once, with its full accumulated coefficient. Every entry point runs one
``BoundQuery``, whose lazily filled interval cache all its targets share.
Its passes leave out dead neurons, whose relaxation lines are all zero:
each affine step multiplies only its weight's live rows and columns.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .concretize import concretize_blocks, concretize_bounds
from .errors import DomainError, GraphError
from .forward import forward_oracle
from .graph import Affine, Graph, Input, Node, OpKind, get_out_degree, topological_order
from .interval import IntervalBounds, interval_oracle
from .linear import InputLayout, LinearBounds
from .ops import UnaryRelaxed, _Lines
from .perturb import PerturbationSpec
from .relaxation import ReluLowerMode, _inverted

__all__ = [
    "BoundStrategy",
    "BackwardState",
    "backward_oracle",
    "run_backward",
    "intermediate_intervals",
    "compute_bounds",
]


class BoundStrategy(Enum):
    """How intermediate and output bounds are produced."""

    IBP = "ibp"
    FORWARD = "forward"
    BACKWARD = "backward"
    IBP_BACKWARD = "ibp+backward"
    FORWARD_BACKWARD = "forward+backward"


@dataclass
class BackwardState:
    """Coefficient maps and bias terms of one backward pass.

    A dependent node's coefficients are dropped once it is relaxed, so after
    termination only independent nodes keep entries; ``pop_order`` records
    the BFS processing sequence. An input's coefficient may be a factored
    array (a ``MatVec`` weight's) with ``shape``, ``@ vector`` and
    ``row_norms(q)``, which ``np.asarray`` expands.
    """

    lower_coeff: dict[int, np.ndarray]
    upper_coeff: dict[int, np.ndarray]
    lower_bias: np.ndarray
    upper_bias: np.ndarray
    pop_order: tuple[int, ...]


def backward_oracle(
    op: OpKind,
    lower_coeff: np.ndarray,
    upper_coeff: np.ndarray,
    input_intervals: Sequence[IntervalBounds] | None = None,
    relu_mode: ReluLowerMode = ReluLowerMode.ADAPTIVE,
    in_dim: int | None = None,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]:
    """Push output coefficients of one node onto its inputs.

    Returns one (lower, upper) coefficient pair per input, in input order,
    plus the bias increments for both sides. A relaxed op is first relaxed
    on ``input_intervals``. ``in_dim`` is only consulted by sum_reduce,
    whose expansion width is not visible in the coefficients.
    """
    if op.relaxed and input_intervals is None:
        raise DomainError(f"missing intermediate bounds at nonlinear op {op.kind!r}")
    return (op.relax(input_intervals, relu_mode) if op.relaxed else op).backward(lower_coeff, upper_coeff, in_dim)


def _checked_out_coeff(out_coeff: np.ndarray, dim: int) -> np.ndarray:
    out_coeff = np.asarray(out_coeff, dtype=np.float64)
    if out_coeff.ndim != 2 or out_coeff.shape[1] != dim:
        raise GraphError(f"out_coeff must have {dim} columns, got shape {out_coeff.shape}")
    return out_coeff


def run_backward(
    g: Graph,
    o: int,
    intermediate: Mapping[int, IntervalBounds],
    out_coeff: np.ndarray | None = None,
    relu_mode: ReluLowerMode = ReluLowerMode.ADAPTIVE,
) -> BackwardState:
    """Run the backward BFS from node o and return the final state.

    ``out_coeff`` (default identity) left-multiplies the output node, so a
    margin or specification matrix can be bounded in one pass. A node is
    queued only once its pending out-degree reaches zero, which merges all
    coefficient contributions before the node is relaxed. One array serves
    as both sides' coefficients until a relaxation splits them, and an
    identity seed on an affine output starts from its weight and bias.
    """
    dim = g.nodes[o].dim
    if out_coeff is not None:
        out_coeff = _checked_out_coeff(out_coeff, dim)
    elif not isinstance(g.nodes[o].op, Affine):
        out_coeff = np.eye(dim)
    rows = dim if out_coeff is None else out_coeff.shape[0]
    lower: dict[int, np.ndarray | None] = {o: out_coeff}
    upper = dict(lower)
    d_lower = np.zeros(rows)
    d_upper = np.zeros(rows)
    degree = get_out_degree(g, o)
    queue: deque[int] = deque([o])
    pops: list[int] = []
    while queue:
        i = queue.popleft()
        pops.append(i)
        node = g.nodes[i]
        if isinstance(node.op, Input):
            continue
        intervals = None
        if node.op.relaxed:
            try:
                intervals = [intermediate[j] for j in node.inputs]
            except KeyError as exc:
                raise DomainError(
                    f"missing intermediate bounds for node {exc.args[0]} "
                    f"required by nonlinear node {i}"
                ) from exc
        if lower[i] is None:
            # an identity seed on an affine output: I @ W is W, entry for entry
            w, b = node.op.weight, node.op.bias
            lams, d_lo, d_up = [(w, w)], b, b
        else:
            # a factored coefficient is expanded where it meets a rule
            in_dim = g.nodes[node.inputs[0]].dim
            lo, up = np.asarray(lower[i]), np.asarray(upper[i])
            lams, d_lo, d_up = backward_oracle(node.op, lo, up, intervals, relu_mode, in_dim)
        ready: list[int] = []
        for j, (lam_lo, lam_up) in zip(node.inputs, lams):
            # no rule writes to its arguments, so the first contribution is stored as is
            if j in lower:  # a second contribution: add the dense arrays
                shared = lower[j] is upper[j] and lam_lo is lam_up
                lower[j] = np.asarray(lower[j]) + np.asarray(lam_lo)
                upper[j] = lower[j] if shared else np.asarray(upper[j]) + np.asarray(lam_up)
            else:
                lower[j] = lam_lo
                upper[j] = lam_up
            degree[j] -= 1
            if degree[j] == 0 and not isinstance(g.nodes[j].op, Input):
                ready.append(j)
        d_lower = d_lower + d_lo
        d_upper = d_upper + d_up
        del lower[i], upper[i]
        queue.extend(sorted(ready))
    return BackwardState(lower, upper, d_lower, d_upper, tuple(pops))


# what a pass reads of a graph: its nodes, those on paths to the target with the query's pass ops
_PassGraph = NamedTuple("_PassGraph", [("nodes", list)])
_PassNode = NamedTuple("_PassNode", [("op", OpKind), ("inputs", tuple), ("dim", int)])


@dataclass(eq=False)
class BoundQuery:
    """One query: a graph and its specs under one strategy and ReLU mode.

    ``intervals`` caches each node's supplier interval. ``interval(j)`` fills
    it lazily with j and the missing nodes j's interval reads, in topological
    order: by the ops' ``interval`` rules (IBP), by concretizing forward
    bounds (forward), or by one backward pass per node (backward). ``bound``
    and ``box`` run a final backward pass over the cache, so all targets of a
    query share its intervals, and no bound reads a node after its target.

    A cached interval is fixed, so are the lines op of each relaxed node that
    the forward sweep and the passes read, its live neurons and the sliced
    weights they decide: each is computed once per query.
    """

    g: Graph
    specs: Mapping[int, PerturbationSpec]
    strategy: BoundStrategy
    relu_mode: ReluLowerMode = ReluLowerMode.ADAPTIVE

    def __post_init__(self):
        if not isinstance(self.strategy, BoundStrategy):
            raise GraphError(f"unknown bound strategy {self.strategy!r}")
        self.layout = InputLayout.from_specs(self.g, self.specs)
        self.intervals: dict[int, IntervalBounds] = {}
        self._forward: dict[int, LinearBounds] = {}
        self._lines: dict[int, OpKind] = {}
        self._keeps: dict[int, int] = {}
        self._pass_nodes: dict[tuple[int, bool], Node | _PassNode] = {}
        self.extend(self.g)

    def extend(self, g: Graph) -> None:
        """Move the query onto ``g``, which must append non-input nodes to its graph, keeping the caches.

        ``_keeps[i]`` is the relaxed unary node whose live neurons i's coefficient keeps off a pass's
        target: i itself if affine nodes alone read it, the one reader of an affine i read by a relaxed
        unary node alone. Pass ops whose columns this moves are rebuilt.
        """
        self.g, self._rank = g, {i: r for r, i in enumerate(topological_order(g))}
        users: list[list[Node]] = [[] for _ in g.nodes]
        for node in g.nodes:
            for j in node.inputs:
                users[j].append(node)
        keeps = {}
        for node, us in zip(g.nodes, users):
            if isinstance(node.op, UnaryRelaxed) and us and all(isinstance(u.op, Affine) for u in us):
                keeps[node.id] = node.id
            elif isinstance(node.op, Affine) and len(us) == 1 and isinstance(us[0].op, UnaryRelaxed):
                keeps[node.id] = us[0].id
        moved = {i for i in keeps.keys() | self._keeps.keys() if keeps.get(i) != self._keeps.get(i)}
        self._pass_nodes = {k: v for k, v in self._pass_nodes.items() if not moved.intersection((k[0], *v.inputs))}
        self._keeps = keeps

    def _missing(self, nodes: list[int], cache: Mapping) -> list[int]:
        """``nodes`` and their uncached ancestors, in topological order; the walk stops at cached nodes."""
        missing = {i for i in nodes if i not in cache}
        stack = list(missing)
        while stack:
            for k in self.g.nodes[stack.pop()].inputs:
                if k not in cache and k not in missing:
                    missing.add(k)
                    stack.append(k)
        return sorted(missing, key=self._rank.get)

    def _operands(self, o: int) -> list[int]:
        """The intervals a pass from o reads: relaxed nodes' operands on paths to o, in topological order."""
        nodes, scope = self.g.nodes, [o] + [i for i, d in get_out_degree(self.g, o).items() if d]
        return sorted({j for i in scope if nodes[i].op.relaxed for j in nodes[i].inputs}, key=self._rank.get)

    def _fill(self, nodes: list[int]) -> None:
        """Supply the uncached intervals of ``nodes``, in topological order; IBP fills their ancestors first."""
        ibp = self.strategy in (BoundStrategy.IBP, BoundStrategy.IBP_BACKWARD)
        for i in self._missing(nodes, self.intervals) if ibp else nodes:
            if i not in self.intervals:
                self.intervals[i] = _fail_closed(self._supply(i), f"node {i}: {self.strategy.value}")

    def interval(self, j: int) -> IntervalBounds:
        """Node j's supplier interval; a backward supplier first fills the intervals its pass reads."""
        if j not in self.intervals:
            self._fill((self._operands(j) if self.strategy is BoundStrategy.BACKWARD else []) + [j])
        return self.intervals[j]

    def _supply(self, i: int) -> IntervalBounds:
        """Node i's interval from the strategy's supplier, once the intervals it reads are cached."""
        node = self.g.nodes[i]
        if self.strategy in (BoundStrategy.FORWARD, BoundStrategy.FORWARD_BACKWARD):
            return concretize_bounds(self.forward(i), self.layout, self.specs)
        if isinstance(node.op, Input):
            return self.specs[i].box()
        if self.strategy is BoundStrategy.BACKWARD:
            return self._concretize(*self._pass(i, None))
        return interval_oracle(node.op, [self.intervals[k] for k in node.inputs])

    def forward(self, j: int) -> LinearBounds:
        """Node j's forward bounds, filling those of its missing ancestors first."""
        if j not in self._forward:
            for i in self._missing([j], self._forward):
                node = self.g.nodes[i]
                if isinstance(node.op, Input):
                    spec, w = self.specs[i], np.zeros((node.dim, self.layout.dim))
                    b = np.zeros(node.dim) if spec.perturbed else spec.center
                    if spec.perturbed:
                        w[:, self.layout.block(i)] = np.eye(node.dim)
                    self._forward[i] = LinearBounds(w, b, w.copy(), b.copy())
                else:
                    op = self._relaxed(i) if node.op.relaxed else node.op
                    self._forward[i] = forward_oracle(op, [self._forward[k] for k in node.inputs])
        return self._forward[j]

    def _relaxed(self, r: int) -> OpKind:
        """Relaxed node r's lines op, relaxed on its operands' intervals."""
        if r not in self._lines:
            node = self.g.nodes[r]
            self._lines[r] = node.op.relax([self.interval(k) for k in node.inputs], self.relu_mode)
        return self._lines[r]

    def _pass_node(self, i: int, target: bool) -> Node | _PassNode:
        """Node i as a pass reads it: an affine op on its live rows and columns, a relaxed op's lines."""
        node, key, keeps = self.g.nodes[i], (i, target), self._keeps
        if key not in self._pass_nodes and (node.op.relaxed or isinstance(node.op, Affine)):
            # the live columns of i's coefficient and of its input's (None: all)
            j, op = node.inputs[0], node.op
            rows = self._relaxed(keeps[i]).live if i in keeps and not target else None
            cols = self._relaxed(keeps[j]).live if j in keeps else None
            if isinstance(op, Affine) and (rows is not None or cols is not None):
                w, b = (op.weight, op.bias) if rows is None else (op.weight[rows], op.bias[rows])
                op = Affine(w if cols is None else w.take(cols, axis=1), b)
            elif op.relaxed:
                op = self._relaxed(i)
                live = op.live if rows is not None or cols is not None else None
                if live is not None:  # a side pruned: only a unary node has one
                    slopes = tuple((lo[live], up[live]) for lo, up in op.slopes)
                    take, put = (live if rows is None else None), (live if cols is None else None)
                    op = _Lines(slopes, op.lower_const[live], op.upper_const[live], take, put)
            self._pass_nodes[key] = node if op is node.op else _PassNode(op, node.inputs, node.dim)
        return self._pass_nodes.get(key, node)

    def _pass(self, o: int, out_coeff):
        """One backward pass from o over its pass ops: its biases and each reached perturbed input's coefficients."""
        nodes = list(self.g.nodes)
        for i, d in get_out_degree(self.g, o).items():
            nodes[i] = self._pass_node(i, i == o) if d or i == o else nodes[i]
        state = run_backward(_PassGraph(nodes), o, {}, out_coeff)  # its ops are relaxed already
        lb, ub = state.lower_bias, state.upper_bias
        blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for i in sorted(state.lower_coeff):  # the reached inputs, in input order
            a_lo, a_up = state.lower_coeff[i], state.upper_coeff[i]
            if self.specs[i].perturbed:
                blocks[i] = (a_lo, a_up)
            else:  # pinned inputs contribute exactly; fold into the bias
                lb = lb + a_lo @ self.specs[i].center
                ub = ub + a_up @ self.specs[i].center
        return lb, ub, blocks

    def _concretize(self, lb, ub, blocks) -> IntervalBounds:
        return concretize_blocks(lb, ub, [(self.specs[i], a_lo, a_up) for i, (a_lo, a_up) in blocks.items()])

    def _linear(self, lb, ub, blocks) -> LinearBounds:
        """A pass's blocks as dense linear bounds over the layout's columns."""
        lw, uw = np.zeros((2, lb.shape[0], self.layout.dim))
        for i, (a_lo, a_up) in blocks.items():  # a factored block expands on assignment
            lw[:, self.layout.block(i)] = a_lo
            uw[:, self.layout.block(i)] = a_up
        return LinearBounds(lw, lb, uw, ub)

    def box(self, target: int, out_coeff: np.ndarray | None, what: str) -> IntervalBounds:
        """The final pass's interval, concretized block by block; ``what`` names it if it fails closed."""
        self._fill(self._operands(target))
        return _fail_closed(self._concretize(*self._pass(target, out_coeff)), what)

    def bound(self, target: int, out_coeff: np.ndarray | None = None) -> tuple:
        """``compute_bounds``' native bound and interval of ``target``."""
        ibp = self.strategy is BoundStrategy.IBP
        if ibp or self.strategy is BoundStrategy.FORWARD:
            native = self.interval(target) if ibp else self.forward(target)
            if out_coeff is not None:
                coeff = _checked_out_coeff(out_coeff, self.g.nodes[target].dim)
                oracle = interval_oracle if ibp else forward_oracle
                native = oracle(Affine(coeff, np.zeros(len(coeff))), [native])
            box = native if ibp else concretize_bounds(native, self.layout, self.specs)
        else:  # concretized from the pass's blocks, as ``box`` does
            self._fill(self._operands(target))
            result = self._pass(target, out_coeff)
            native, box = self._linear(*result), self._concretize(*result)
        return native, _fail_closed(box, f"node {target}: {self.strategy.value}")

    def node_box(self, target: int) -> IntervalBounds:
        """``bound(target)``'s interval; a dependent node's under ``backward`` is its cached interval."""
        if self.strategy is BoundStrategy.BACKWARD and not isinstance(self.g.nodes[target].op, Input):
            return self.interval(target)
        return self.bound(target)[1]


def intermediate_intervals(
    g: Graph,
    specs: Mapping[int, PerturbationSpec],
    strategy: BoundStrategy,
    target: int | None = None,
    relu_mode: ReluLowerMode = ReluLowerMode.ADAPTIVE,
) -> dict[int, IntervalBounds]:
    """Intervals the backward pass needs, produced by the strategy's supplier."""
    query = BoundQuery(g, specs, strategy, relu_mode)
    return {j: query.interval(j) for j in query._operands(g.output if target is None else target)}


def compute_bounds(
    g: Graph,
    specs: Mapping[int, PerturbationSpec],
    strategy: BoundStrategy,
    target: int | None = None,
    out_coeff: np.ndarray | None = None,
    relu_mode: ReluLowerMode = ReluLowerMode.ADAPTIVE,
) -> tuple[LinearBounds | IntervalBounds, IntervalBounds]:
    """Bound a node under the chosen strategy.

    Returns the strategy's native bound object plus its concretized
    interval. Hybrid strategies take intermediate intervals from the cheap
    supplier and run one backward pass for the target. Raises DomainError
    when the interval has a NaN or is inverted beyond float noise.
    """
    query = BoundQuery(g, specs, strategy, relu_mode)
    return query.bound(g.output if target is None else target, out_coeff)


def _fail_closed(box: IntervalBounds, what: str) -> IntervalBounds:
    """The box, or DomainError when it is NaN or lower exceeds upper beyond float noise."""
    if not (box.lower <= box.upper).all():  # one comparison first, which NaN fails too
        if np.isnan(box.lower).any() or np.isnan(box.upper).any() or _inverted(box.lower, box.upper):
            raise DomainError(f"{what} bounds are NaN or inverted")
    return box
