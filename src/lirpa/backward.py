"""Backward-mode linear bound propagation and the strategy driver.

A walk from the output node pushes coefficient matrices through each
op's ``backward`` rule until only independent nodes carry coefficients.
The graph's ``pop_order``, its topological order reversed, steps each
dependent node through once, with its full accumulated coefficient.
Every entry point runs one ``BoundQuery``, whose lazily filled caches
all its targets share; its ``interval(i)`` and ``forward(i)`` are the
only all-node sweeps. IBP takes an input's box from its spec and any
other node's from its op's ``interval`` rule; the forward sweep bounds
each node by two affine functions of the perturbed input coordinates
through its op's ``forward`` rule, a nonlinear op's once relaxed. A pass
steps by the ops the query hands ``run_backward``: each relaxed node's
lines and each affine weight, on a closed affine -> relaxed unary ->
affine chain on the live neurons alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .concretize import concretize_blocks, concretize_bounds
from .errors import DomainError, GraphError
from .graph import Graph, _node_id
from .linear import InputLayout, IntervalBounds, LinearBounds
from .ops import Affine, Input, OpKind, UnaryRelaxed, _Lines
from .perturb import PerturbationSpec
from .relaxation import ReluLowerMode, _inverted

__all__ = [
    "BoundStrategy",
    "BackwardState",
    "run_backward",
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
    termination only independent nodes keep entries; ``pop_order`` is the
    graph's pop order from the target, the sequence the pass stepped
    through. An input's coefficient may be a factored array (a ``MatVec``
    weight's) with ``shape``, ``@ vector`` and ``row_norms(q)``, which
    ``np.asarray`` expands.
    """

    lower_coeff: dict[int, np.ndarray]
    upper_coeff: dict[int, np.ndarray]
    lower_bias: np.ndarray
    upper_bias: np.ndarray
    pop_order: tuple[int, ...]


def _checked_out_coeff(out_coeff: np.ndarray, g: Graph, o: int) -> np.ndarray:
    out_coeff, dim = np.asarray(out_coeff, dtype=np.float64), g.nodes[o].dim
    if out_coeff.ndim != 2 or out_coeff.shape[1] != dim:
        raise GraphError(f"node {o}: out_coeff must have {dim} columns, got shape {out_coeff.shape}")
    if not np.isfinite(out_coeff).all():
        raise GraphError(f"node {o}: out_coeff must be finite")
    return out_coeff


def run_backward(
    g: Graph, o: int, out_coeff: np.ndarray | None = None, ops: Mapping[int, OpKind] | None = None
) -> BackwardState:
    """Run the backward pass from node o and return the final state.

    The pass steps through ``g.pop_order(o)``, which lists each dependent
    node after all of its consumers on paths to o, so every coefficient
    contribution is merged before its step. Node i steps by ``ops[i]``
    (default: its graph op). It only pushes coefficients: each nonlinear
    node on a path to o must step by its relaxation's lines op, as in
    ``BoundQuery``'s passes, or GraphError is raised.
    ``out_coeff`` (default identity) left-multiplies the output node, so a
    margin or specification matrix can be bounded in one pass. One array
    serves as both sides' coefficients until a relaxation splits them, and
    an identity seed on an affine output starts from its weight and bias.
    """
    pops = g.pop_order(o)
    ops = {i: g.nodes[i].op for i in pops} if ops is None else ops
    dim = g.nodes[o].dim
    if out_coeff is not None:
        out_coeff = _checked_out_coeff(out_coeff, g, o)
    elif not isinstance(ops[o], Affine):
        out_coeff = np.eye(dim)
    rows = dim if out_coeff is None else out_coeff.shape[0]
    lower: dict[int, np.ndarray | None] = {o: out_coeff}
    upper = dict(lower)
    d_lower = np.zeros(rows)
    d_upper = np.zeros(rows)
    for i in pops:
        node, op = g.nodes[i], ops[i]
        if isinstance(op, Input):
            continue
        if op.relaxed:
            raise GraphError(f"op {op.kind!r} must be relaxed on its input intervals first")
        if lower[i] is None:
            # an identity seed on an affine output: I @ W is W, entry for entry
            lams, d_lo, d_up = [(op.weight, op.weight)], op.bias, op.bias
        else:
            # a factored coefficient is expanded where it meets a rule
            in_dim = g.nodes[node.inputs[0]].dim
            lo, up = np.asarray(lower[i]), np.asarray(upper[i])
            lams, d_lo, d_up = op.backward(lo, up, in_dim)
        for j, (lam_lo, lam_up) in zip(node.inputs, lams):
            # no rule writes to its arguments, so the first contribution is stored as is
            if j in lower:  # a second contribution: add the dense arrays
                shared = lower[j] is upper[j] and lam_lo is lam_up
                lower[j] = np.asarray(lower[j]) + np.asarray(lam_lo)
                upper[j] = lower[j] if shared else np.asarray(upper[j]) + np.asarray(lam_up)
            else:
                lower[j] = lam_lo
                upper[j] = lam_up
        d_lower = d_lower + d_lo
        d_upper = d_upper + d_up
        del lower[i], upper[i]
    return BackwardState(lower, upper, d_lower, d_upper, pops)


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
    the forward sweep and the passes read, its live neurons (identity lines
    first) and the sliced weights they decide: each is computed once per
    query. Each entry checks that its target is a node id before any cache.
    """

    g: Graph
    specs: Mapping[int, PerturbationSpec]
    strategy: BoundStrategy
    relu_mode: ReluLowerMode = ReluLowerMode.ADAPTIVE

    def __post_init__(self):
        if not isinstance(self.strategy, BoundStrategy):
            raise GraphError(f"unknown bound strategy {self.strategy!r}")
        if not isinstance(self.relu_mode, ReluLowerMode):
            raise GraphError(f"unknown ReLU lower mode {self.relu_mode!r}")
        self.layout = InputLayout.from_specs(self.g, self.specs)
        self.intervals: dict[int, IntervalBounds] = {}
        self._forward: dict[int, LinearBounds] = {}
        self._lines: dict[int, OpKind] = {}
        self._pass_ops: dict[tuple[int, bool], OpKind] = {}
        # _keeps[r] = _keeps[a] = r on a closed chain a -> r -> affine readers: a relaxed unary r that
        # affine nodes alone read, and its affine input a that r alone reads, keep r's live neurons
        nodes, users, self._keeps = self.g.nodes, self.g.users, {}
        affine = lambda i: isinstance(nodes[i].op, Affine)
        for r, a in ((node.id, node.inputs[0]) for node in nodes if isinstance(node.op, UnaryRelaxed)):
            if affine(a) and users[a] == (r,) and all(map(affine, users[r])):
                self._keeps[r] = self._keeps[a] = r

    def _missing(self, nodes: list[int], cache: Mapping) -> list[int]:
        """``nodes`` and their uncached ancestors, in topological order; the walk stops at cached nodes."""
        missing = {i for i in nodes if i not in cache}
        stack = list(missing)
        while stack:
            for k in self.g.nodes[stack.pop()].inputs:
                if k not in cache and k not in missing:
                    missing.add(k)
                    stack.append(k)
        return [i for i in self.g.order if i in missing]

    def _operands(self, o: int) -> list[int]:
        """The intervals a pass from o reads: relaxed nodes' operands on paths to o, in topological order."""
        nodes = self.g.nodes
        operands = {j for i in self.g.pop_order(o) if nodes[i].op.relaxed for j in nodes[i].inputs}
        return [i for i in self.g.order if i in operands]

    def _fill(self, nodes: list[int]) -> None:
        """Supply the uncached intervals of ``nodes``, in topological order; IBP fills their ancestors first."""
        ibp = self.strategy in (BoundStrategy.IBP, BoundStrategy.IBP_BACKWARD)
        for i in self._missing(nodes, self.intervals) if ibp else nodes:
            if i not in self.intervals:
                self.intervals[i] = _fail_closed(self._supply(i), f"node {i}: {self.strategy.value}")

    def interval(self, j: int) -> IntervalBounds:
        """Node j's supplier interval; a backward supplier first fills the intervals its pass reads."""
        if _node_id(self.g, j) not in self.intervals:
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
        return node.op.interval([self.intervals[k] for k in node.inputs])

    def forward(self, j: int) -> LinearBounds:
        """Node j's forward bounds, filling those of its missing ancestors first."""
        if _node_id(self.g, j) not in self._forward:
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
                    self._forward[i] = op.forward([self._forward[k] for k in node.inputs])
        return self._forward[j]

    def _relaxed(self, r: int) -> OpKind:
        """Relaxed node r's lines op, relaxed on its operands' intervals."""
        if r not in self._lines:
            node = self.g.nodes[r]
            self._lines[r] = node.op.relax([self.interval(k) for k in node.inputs], self.relu_mode)
        return self._lines[r]

    def _pass_op(self, i: int, o: int) -> OpKind:
        """The op a pass from o steps node i by: an affine op on its live rows and columns, a relaxed op's lines.

        Node i keeps all its rows where it is o or o is its chain's relaxed node, as does every node off
        a closed chain (``_keeps``); one unpruned op serves all such passes.
        """
        node, keeps = self.g.nodes[i], self._keeps
        if not (node.op.relaxed or isinstance(node.op, Affine)):
            return node.op
        # the live rows of i's coefficient, identity lines first (None: all)
        rows = self._relaxed(keeps[i]).live if i in keeps and o not in (i, keeps[i]) else None
        key = (i, rows is None)
        if key not in self._pass_ops:
            j, op = node.inputs[0], node.op
            if op.relaxed:
                op = self._relaxed(i)
                if rows is not None:
                    (live, n), ((lo, up),) = rows, op.slopes
                    op = _Lines(((lo[live], up[live]),), op.lower_const[live], op.upper_const[live], n)
            else:  # an affine op's columns are its input's live neurons when that input is kept
                cols = self._relaxed(j).live if j in keeps else None
                if rows is not None or cols is not None:
                    w, b = (op.weight, op.bias) if rows is None else (op.weight[rows[0]], op.bias[rows[0]])
                    op = Affine(w if cols is None else w.take(cols[0], axis=1), b)
            self._pass_ops[key] = op
        return self._pass_ops[key]

    def _pass(self, o: int, out_coeff):
        """One backward pass from o over its pass ops: its biases and each reached perturbed input's coefficients."""
        state = run_backward(self.g, o, out_coeff, {i: self._pass_op(i, o) for i in self.g.pop_order(o)})
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
        self._fill(self._operands(_node_id(self.g, target)))
        return _fail_closed(self._concretize(*self._pass(target, out_coeff)), what)

    def bound(self, target: int, out_coeff: np.ndarray | None = None) -> tuple:
        """``compute_bounds``' native bound and interval of ``target``; GraphError unless it is a node id."""
        ibp, target = self.strategy is BoundStrategy.IBP, _node_id(self.g, target)
        if out_coeff is not None:  # before any interval is filled
            out_coeff = _checked_out_coeff(out_coeff, self.g, target)
        if ibp or self.strategy is BoundStrategy.FORWARD:
            native = self.interval(target) if ibp else self.forward(target)
            if out_coeff is not None:
                op = Affine(out_coeff, np.zeros(len(out_coeff)))
                native = op.interval([native]) if ibp else op.forward([native])
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
    return BoundQuery(g, specs, strategy, relu_mode).bound(g.output if target is None else target, out_coeff)


def _fail_closed(box: IntervalBounds, what: str) -> IntervalBounds:
    """The box, or DomainError when it is NaN or lower exceeds upper beyond float noise."""
    if not (box.lower <= box.upper).all():  # one comparison first, which NaN fails too
        if np.isnan(box.lower).any() or np.isnan(box.upper).any() or _inverted(box.lower, box.upper):
            raise DomainError(f"{what} bounds are NaN or inverted")
    return box
