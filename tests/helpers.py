"""Shared fixtures: the worked demo net, random graph generators, sampling, oracles, reference kernels."""
from __future__ import annotations

import heapq
import json
import math
from collections import deque

import numpy as np

from lirpa import (
    Add,
    Affine,
    BoundStrategy,
    Constant,
    DomainError,
    Exp,
    Graph,
    GraphError,
    Input,
    IntervalBounds,
    LinearBounds,
    Log,
    LpBall,
    MulElementwise,
    Neg,
    Node,
    ReLU,
    ReluLowerMode,
    Sub,
    SumReduce,
    Synonym,
    evaluate,
    margin_transform,
)
from lirpa.backward import BoundQuery
from lirpa.relaxation import _check_interval

W1 = [[2.0, 1.0], [-3.0, 4.0]]
W2 = [[4.0, -2.0], [2.0, 1.0]]
W3 = [[-2.0, 1.0]]


def demo_doc() -> str:
    """Document form of the 2-2-2-1 ReLU demo net (linf ball, eps 2)."""
    return json.dumps(
        {
            "nodes": [
                {"op": "input", "inputs": [], "dim": 2},
                {"op": "affine", "inputs": [0], "dim": 2, "weight": W1, "bias": [0.0, 0.0]},
                {"op": "relu", "inputs": [1], "dim": 2},
                {"op": "affine", "inputs": [2], "dim": 2, "weight": W2, "bias": [0.0, 0.0]},
                {"op": "relu", "inputs": [3], "dim": 2},
                {"op": "affine", "inputs": [4], "dim": 1, "weight": W3, "bias": [0.0]},
            ],
            "output": 5,
            "perturbations": [
                {"node": 0, "type": "lp", "center": [0.0, 1.0], "eps": 2.0, "p": "inf"}
            ],
        }
    )


def demo_net(eps: float = 2.0):
    nodes = (
        Node(0, Input(), (), 2),
        Node(1, Affine(W1, [0.0, 0.0]), (0,), 2),
        Node(2, ReLU(), (1,), 2),
        Node(3, Affine(W2, [0.0, 0.0]), (2,), 2),
        Node(4, ReLU(), (3,), 2),
        Node(5, Affine(W3, [0.0]), (4,), 1),
    )
    g = Graph(nodes, 5)
    specs = {0: LpBall([0.0, 1.0], eps, math.inf)}
    return g, specs


def kahn_topological_order(g) -> list[int]:
    """Reference ``Graph.order``: Kahn's walk with input nodes first in id order, then the
    smallest ready id; GraphError on a cycle."""
    n = len(g.nodes)
    indeg = [0] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    for node in g.nodes:
        for j in node.inputs:
            indeg[node.id] += 1
            succ[j].append(node.id)
    order = [i for i in range(n) if isinstance(g.nodes[i].op, Input)]
    heap: list[int] = []
    for i in order:
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, j)
    while heap:
        i = heapq.heappop(heap)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, j)
    if len(order) != n:
        raise GraphError("cycle detected in graph")
    return order


def node_intervals(g, specs, strategy=BoundStrategy.IBP, relu_mode=ReluLowerMode.ADAPTIVE):
    """Every node's supplier interval, read in topological order from one query."""
    query = BoundQuery(g, specs, strategy, relu_mode)
    return {i: query.interval(i) for i in kahn_topological_order(g)}


def lines_ops(g, o, intervals, relu_mode=ReluLowerMode.ADAPTIVE):
    """The ops a pass from o steps by, for ``run_backward``'s ``ops``: each relaxed node's relaxed on ``intervals``.

    The ops keep every neuron, so a pass by them is the dense, unpruned pass.
    """
    relaxed = lambda n: n.op.relax([intervals[j] for j in n.inputs], relu_mode)
    return {i: relaxed(g.nodes[i]) if g.nodes[i].op.relaxed else g.nodes[i].op for i in g.pop_order(o)}


def counted_out_degree(g, o) -> dict[int, int]:
    """For each node i, the number of successor edges of i on paths to o (0 off them).

    A BFS from o that counts each (input, consumer) edge once per occurrence.
    """
    degree = {i: 0 for i in range(len(g.nodes))}
    seen = {o}
    queue = deque([o])
    while queue:
        i = queue.popleft()
        for j in g.nodes[i].inputs:
            degree[j] += 1
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return degree


def kahn_pop_order(g, o) -> tuple[int, ...]:
    """Reference ``Graph.pop_order``: a BFS from o that queues a dependent node once its pending
    ``counted_out_degree`` reaches zero, the nodes one pop makes ready in sorted order."""
    degree = counted_out_degree(g, o)
    queue, pops = deque([o]), []
    while queue:
        i = queue.popleft()
        pops.append(i)
        ready = []
        for j in g.nodes[i].inputs:
            degree[j] -= 1
            if degree[j] == 0 and not isinstance(g.nodes[j].op, Input):
                ready.append(j)
        queue.extend(sorted(ready))
    return tuple(pops)


def node_forward(g, specs, relu_mode=ReluLowerMode.ADAPTIVE):
    """Every node's forward linear bounds, read in topological order from one query."""
    query = BoundQuery(g, specs, BoundStrategy.FORWARD, relu_mode)
    return {i: query.forward(i) for i in kahn_topological_order(g)}


def sample_points(g, specs, rng, n) -> dict[int, np.ndarray]:
    """One (dim, n) batch of in-region points per input node."""
    return {i: specs[i].sample(rng, n) for i in g.input_ids}


def assert_sound(g, specs, bounds_by_node, rng, n=1000, slack=1e-7):
    """Evaluate n sampled points and check containment at every bounded node."""
    values = sample_points(g, specs, rng, n)
    out = evaluate(g, values)
    for i, box in bounds_by_node.items():
        lo = box.lower[:, None] - slack
        hi = box.upper[:, None] + slack
        assert np.all(out[i] >= lo), f"node {i}: lower bound violated"
        assert np.all(out[i] <= hi), f"node {i}: upper bound violated"


def stack_perturbed(layout, values, n) -> np.ndarray:
    """Concatenate sampled input columns into full X vectors (layout order)."""
    x = np.zeros((layout.dim, n))
    for i, cols in layout.slices.items():
        x[cols] = values[i]
    return x


def assert_linear_sound(g, specs, bounds_by_node, rng, n=1000, slack=1e-7):
    """Check the affine sandwich itself, pointwise over sampled X."""
    from lirpa import InputLayout

    layout = InputLayout.from_specs(g, specs)
    values = sample_points(g, specs, rng, n)
    x = stack_perturbed(layout, values, n)
    out = evaluate(g, values)
    for i, lb in bounds_by_node.items():
        lo = lb.lower_w @ x + lb.lower_b[:, None]
        hi = lb.upper_w @ x + lb.upper_b[:, None]
        assert np.all(lo <= out[i] + slack), f"node {i}: linear lower bound violated"
        assert np.all(out[i] <= hi + slack), f"node {i}: linear upper bound violated"


def _interval_magnitude(box) -> float:
    return float(max(np.max(np.abs(box.lower)), np.max(np.abs(box.upper))))


def random_graph(rng, max_nodes=12, max_dim=5, cap=1e4):
    """A random DAG over the full op set with bounded interval magnitudes.

    Ops whose tentative interval would exceed ``cap`` (or whose domain would
    be violated, e.g. log of a non-positive interval) are rejected, which
    keeps float64 soundness slack far below test tolerances.
    """
    nodes: list[Node] = []
    specs = {}
    boxes = []
    depends = []  # whether the node depends on a perturbed input

    def add(op, inputs, dim, box, dep):
        nodes.append(Node(len(nodes), op, tuple(inputs), dim))
        boxes.append(box)
        depends.append(dep)
        return len(nodes) - 1

    n_inputs = int(rng.integers(1, 3))
    for k in range(n_inputs):
        dim = int(rng.integers(1, max_dim + 1))
        center = rng.uniform(-1, 1, dim)
        if k == n_inputs - 1 or rng.random() < 0.7:
            p = float(rng.choice([1.0, 2.0, math.inf]))
            spec = LpBall(center, float(rng.uniform(0.05, 0.4)), p)
            dep = True
        else:
            spec = Constant(center)
            dep = False
        i = add(Input(), (), dim, spec.box(), dep)
        specs[i] = spec

    n_target = int(rng.integers(n_inputs + 2, max_nodes + 1))
    attempts = 0
    while len(nodes) < n_target and attempts < 200:
        attempts += 1
        kind = rng.choice(
            ["affine", "relu", "add", "sub", "mul", "neg", "exp", "log", "sum_reduce"],
            p=[0.3, 0.2, 0.1, 0.08, 0.1, 0.07, 0.06, 0.04, 0.05],
        )
        j = int(rng.integers(0, len(nodes)))
        dim_j = nodes[j].dim
        if kind == "affine":
            out_dim = int(rng.integers(1, max_dim + 1))
            w = rng.uniform(-1, 1, (out_dim, dim_j)) / math.sqrt(dim_j)
            op, inputs, dim = Affine(w, rng.uniform(-1, 1, out_dim)), (j,), out_dim
        elif kind == "relu":
            op, inputs, dim = ReLU(), (j,), dim_j
        elif kind == "neg":
            op, inputs, dim = Neg(), (j,), dim_j
        elif kind == "exp":
            if boxes[j].upper.max() > 3.0:
                continue
            op, inputs, dim = Exp(), (j,), dim_j
        elif kind == "log":
            if boxes[j].lower.min() < 0.05:
                continue
            op, inputs, dim = Log(), (j,), dim_j
        elif kind == "sum_reduce":
            op, inputs, dim = SumReduce(), (j,), 1
        else:
            peers = [kk for kk in range(len(nodes)) if nodes[kk].dim == dim_j]
            k2 = j if (len(peers) == 1 or rng.random() < 0.1) else int(rng.choice(peers))
            op_cls = {"add": Add, "sub": Sub, "mul": MulElementwise}[kind]
            op, inputs, dim = op_cls(), (j, k2), dim_j
        box = op.interval([boxes[jj] for jj in inputs])
        if not np.all(np.isfinite(box.lower)) or _interval_magnitude(box) > cap:
            continue
        add(op, inputs, dim, box, any(depends[jj] for jj in inputs))

    output = max(
        (i for i in range(len(nodes)) if depends[i] and nodes[i].op.arity > 0),
        default=len(nodes) - 1,
    )
    return Graph(tuple(nodes), output), specs


def random_classifier(rng, num_classes, eps=None):
    """A small ReLU MLP with ``num_classes`` logits and one linf-ball input."""
    in_dim = int(rng.integers(2, 4))
    center = rng.uniform(-1, 1, in_dim)
    spec = LpBall(center, float(eps if eps is not None else rng.uniform(0.05, 0.3)), math.inf)
    nodes = [Node(0, Input(), (), in_dim)]
    prev, prev_dim = 0, in_dim
    for _ in range(int(rng.integers(1, 3))):
        width = int(rng.integers(2, 5))
        w = rng.uniform(-1, 1, (width, prev_dim))
        nodes.append(Node(len(nodes), Affine(w, rng.uniform(-0.5, 0.5, width)), (prev,), width))
        nodes.append(Node(len(nodes), ReLU(), (len(nodes) - 1,), width))
        prev, prev_dim = len(nodes) - 1, width
    w = rng.uniform(-1, 1, (num_classes, prev_dim))
    nodes.append(
        Node(len(nodes), Affine(w, rng.uniform(-0.5, 0.5, num_classes)), (prev,), num_classes)
    )
    g = Graph(tuple(nodes), len(nodes) - 1)
    return g, {0: spec}


def random_synonym_instance(rng, max_words=6, max_subs=3, max_budget=3, max_emb=4, rows=None):
    """A random substitution spec plus random linear bounds over its block."""
    n = int(rng.integers(1, max_words + 1))
    emb = int(rng.integers(1, max_emb + 1))
    words = [f"w{t}" for t in range(n)]
    embeddings = {w: rng.uniform(-1, 1, emb) for w in words}
    subs = {}
    for t in range(n):
        count = int(rng.integers(0, max_subs + 1))
        if count:
            names = [f"w{t}s{k}" for k in range(count)]
            subs[t] = tuple(names)
            for name in names:
                embeddings[name] = rng.uniform(-1, 1, emb)
    spec = Synonym(tuple(words), subs, embeddings, int(rng.integers(0, max_budget + 1)))
    s = int(rows if rows is not None else rng.integers(1, 4))
    lb = LinearBounds(
        rng.uniform(-1, 1, (s, n * emb)),
        rng.uniform(-1, 1, s),
        rng.uniform(-1, 1, (s, n * emb)),
        rng.uniform(-1, 1, s),
    )
    return lb, spec


def extremes_box(lb: LinearBounds, spec) -> IntervalBounds:
    """The spec's own ``extremes`` of ``lb`` over its region plus its biases, as an interval."""
    lo, hi = spec.extremes(lb.lower_w, lb.upper_w)
    return IntervalBounds(lb.lower_b + lo, lb.upper_b + hi)


_BRUTE_FORCE_LIMIT = 10**6


def _enumerate_assignments(spec: Synonym) -> np.ndarray:
    """All candidate index combinations as rows; index 0 means the clean word."""
    sizes = [1 + len(spec.candidates(t)) for t in range(spec.length)]
    total = 1
    for size in sizes:
        total *= size
    if total > _BRUTE_FORCE_LIMIT:
        raise GraphError(f"{total} substitution assignments exceed the brute-force guard")
    grids = np.meshgrid(*[np.arange(size) for size in sizes], indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, spec.length)


def brute_force_synonym(lb: LinearBounds, spec: Synonym) -> IntervalBounds:
    """Oracle: enumerate every substitution assignment within the budget.

    Accumulates per-position contributions left to right, each computed
    from the spec's embeddings directly rather than from its option table,
    so it stays independent of ``Synonym.extremes``.
    """
    combos = _enumerate_assignments(spec)
    within_budget = (combos > 0).sum(axis=1) <= min(spec.budget, spec.length)
    combos = combos[within_budget]

    d = spec.embedding_dim

    def extreme(w: np.ndarray, b: np.ndarray, reduce_rows) -> np.ndarray:
        acc = np.tile(b, (combos.shape[0], 1))
        for t in range(spec.length):
            wt = w[:, t * d:(t + 1) * d]
            words = (spec.words[t],) + spec.candidates(t)
            options = np.stack([wt @ spec.embedding(word) for word in words])
            acc = acc + options[combos[:, t]]
        return reduce_rows(acc)

    return IntervalBounds(
        extreme(lb.lower_w, lb.lower_b, lambda a: a.min(axis=0)),
        extreme(lb.upper_w, lb.upper_b, lambda a: a.max(axis=0)),
    )


def ce_loss(logits: np.ndarray, label: int) -> float:
    return float(np.log(np.sum(np.exp(logits - logits[label]))))


def margin_matrix_fused_loss_graph(g, margin):
    """Reference ``build_fused_loss_graph``: -margin_transform on the logit node, whatever its op.

    The dense K x K margin matrix multiplies the logits, so an affine logit
    layer's margins are read through the product with W, not through W - W[y].
    """
    k, n = g.nodes[g.output].dim, len(g.nodes)
    neg_margin = Affine(-margin_transform(margin.label, k), np.zeros(k))
    nodes = g.nodes + (
        Node(n, neg_margin, (g.output,), k),
        Node(n + 1, Exp(), (n,), k),
        Node(n + 2, SumReduce(), (n + 1,), 1),
    )
    return Graph(nodes, n + 2)


def dense_weight_perturbed_graph(g, eps_bar):
    """Reference ``weight_perturbed_graph`` built from dense matrices.

    Each affine node W x + b becomes flat_w * tile(x) reduced blockwise:
    an (s*t)xt tile of identities, an elementwise product with the weight
    input, and an sx(s*t) Kronecker block sum carrying the bias. Same weight
    specs and id map contract as the library builder.
    """
    nodes, specs, mapping = [], {}, {}

    def add(op, inputs, dim):
        nodes.append(Node(len(nodes), op, inputs, dim))
        return len(nodes) - 1

    for i in kahn_topological_order(g):
        node = g.nodes[i]
        if isinstance(node.op, Affine):
            s, t = node.op.weight.shape
            flat = node.op.weight.reshape(-1)
            wid = add(Input(), (), s * t)
            specs[wid] = LpBall(flat, float(np.linalg.norm(flat)) * eps_bar, 2.0)
            tile = Affine(np.tile(np.eye(t), (s, 1)), np.zeros(s * t))
            tiled = add(tile, (mapping[node.inputs[0]],), s * t)
            prod = add(MulElementwise(), (wid, tiled), s * t)
            block_sum = Affine(np.kron(np.eye(s), np.ones((1, t))), node.op.bias)
            mapping[node.id] = add(block_sum, (prod,), s)
        else:
            mapping[node.id] = add(node.op, tuple(mapping[j] for j in node.inputs), node.dim)
    return Graph(tuple(nodes), mapping[g.output]), specs, mapping


def select_mul_relaxation(lx, ux, ly, uy) -> tuple:
    """Reference ``mul_relaxation``: the six planes picked with ``np.select``, each branch spelled out."""
    lx, ux = _check_interval(lx, ux)
    ly, uy = _check_interval(ly, uy)
    x_const = lx == ux
    y_const = ly == uy
    conds = [x_const & y_const, x_const, y_const]
    zeros = np.zeros_like(lx)
    lower_x = np.select(conds, [zeros, zeros, ly], default=ly)
    lower_y = np.select(conds, [zeros, lx, zeros], default=lx)
    lower_const = np.select(conds, [lx * ly, zeros, zeros], default=-lx * ly)
    upper_x = np.select(conds, [zeros, zeros, ly], default=uy)
    upper_y = np.select(conds, [zeros, lx, zeros], default=lx)
    upper_const = np.select(conds, [lx * ly, zeros, zeros], default=-lx * uy)
    return ((lower_x, upper_x), (lower_y, upper_y)), lower_const, upper_const


def stacked_corners(lx, ux, ly, uy) -> tuple[np.ndarray, np.ndarray]:
    """Reference ``ops._corners``: the four corner products stacked, then reduced; 0 * inf is taken as 0."""
    with np.errstate(invalid="ignore"):
        corners = np.stack([lx * ly, lx * uy, ux * ly, ux * uy])
    corners[np.isnan(corners)] = 0.0  # the ends hold no NaN, so a NaN product is a zero times an infinite end
    return corners.min(axis=0), corners.max(axis=0)


def where_relu_relaxation(l, u, mode=ReluLowerMode.ADAPTIVE) -> tuple:
    """Reference ``relu_relaxation``: every line picked by its own ``np.where``."""
    l, u = _check_interval(l, u)
    active = l >= 0.0
    crossing = (l < 0.0) & (u > 0.0)
    with np.errstate(over="ignore"):
        denom = np.where(crossing, u - l, 1.0)
    # a width past the float range: the chord through the halved ends
    wide = np.isinf(denom)
    chord = np.where(crossing, np.where(wide, 0.5 * u, u) / np.where(wide, 0.5 * u - 0.5 * l, denom), 0.0)
    upper_slope = np.where(active, 1.0, chord)
    upper_intercept = np.where(crossing, -chord * l, 0.0)
    if mode is ReluLowerMode.ZERO:
        lower_slope = np.where(active, 1.0, 0.0)
    else:
        lower_slope = np.where(active | (crossing & (u > -l)), 1.0, 0.0)
    return ((lower_slope, upper_slope),), np.zeros_like(l), upper_intercept


def four_product_lines_backward(op, lower_coeff, upper_coeff, in_dim):
    """Reference ``_Lines.backward``: the leading ``op.n`` identity columns copied, every other column's
    coefficients split into signed parts, each part times its slope, and both constants' products taken."""
    n, lc, uc = op.n, op.lower_const[op.n:], op.upper_const[op.n:]
    lo_pos, lo_neg = np.maximum(lower_coeff[:, n:], 0.0), np.minimum(lower_coeff[:, n:], 0.0)
    up_pos, up_neg = np.maximum(upper_coeff[:, n:], 0.0), np.minimum(upper_coeff[:, n:], 0.0)
    lams = [
        (
            np.concatenate([lower_coeff[:, :n], lo_pos * sl[n:] + lo_neg * su[n:]], axis=1),
            np.concatenate([upper_coeff[:, :n], up_pos * su[n:] + up_neg * sl[n:]], axis=1),
        )
        for sl, su in op.slopes
    ]
    d_lo, d_up = lo_pos @ lc + lo_neg @ uc, up_pos @ uc + up_neg @ lc
    return lams, d_lo, d_up


def signed_mix(slope, on_pos, on_neg):
    """Reference ``ops._mix_rows``: the slope split into signed parts, each part scaling the rows of its own bound."""
    slope = slope[:, None] if on_pos.ndim == 2 else slope
    return np.maximum(slope, 0.0) * on_pos + np.minimum(slope, 0.0) * on_neg


def signed_lines_forward(op, b: LinearBounds) -> LinearBounds:
    """Reference one-input ``_Lines.forward``: each side's slope mixes both bounds through ``signed_mix``."""
    ((sl, su),) = op.slopes
    return LinearBounds(
        signed_mix(sl, b.lower_w, b.upper_w),
        signed_mix(sl, b.lower_b, b.upper_b) + op.lower_const,
        signed_mix(su, b.upper_w, b.lower_w),
        signed_mix(su, b.upper_b, b.lower_b) + op.upper_const,
    )


def explicit_interval(op, inputs) -> IntervalBounds:
    """Reference ``interval`` of the linear and monotone ops, each written out by hand."""
    x = inputs[0]
    if isinstance(op, Affine) and np.isfinite(x.lower).all() and np.isfinite(x.upper).all():
        lo = op.w_pos @ x.lower + op.w_neg @ x.upper + op.bias
        return IntervalBounds(lo, op.w_pos @ x.upper + op.w_neg @ x.lower + op.bias)
    if isinstance(op, Affine):  # an infinite end: each row sums its nonzero weights' products alone
        w = op.weight
        picked = lambda end, other: np.where(w != 0.0, w * np.where(w > 0.0, end, other), 0.0).sum(axis=1) + op.bias
        return IntervalBounds(picked(x.lower, x.upper), picked(x.upper, x.lower))
    if isinstance(op, ReLU):
        return IntervalBounds(np.maximum(x.lower, 0.0), np.maximum(x.upper, 0.0))
    if isinstance(op, Exp):
        return IntervalBounds(np.exp(x.lower), np.exp(x.upper))
    if isinstance(op, Log):
        if np.any(x.lower <= 0.0):
            raise DomainError("log over an interval touching zero or below")
        return IntervalBounds(np.log(x.lower), np.log(x.upper))
    if isinstance(op, Neg):
        return IntervalBounds(-x.upper, -x.lower)
    if isinstance(op, SumReduce):
        return IntervalBounds(np.sum(x.lower, keepdims=True), np.sum(x.upper, keepdims=True))
    y = inputs[1]
    if isinstance(op, Add):
        return IntervalBounds(x.lower + y.lower, x.upper + y.upper)
    return IntervalBounds(x.lower - y.upper, x.upper - y.lower)  # Sub


def explicit_forward(op, bounds) -> LinearBounds:
    """Reference ``forward`` of the linear ops, each written out by hand."""
    x = bounds[0]
    if isinstance(op, Affine):  # the offsets by the interval rule, which reads no infinite end by a zero weight
        b = explicit_interval(op, [IntervalBounds(x.lower_b, x.upper_b)])
        return LinearBounds(
            op.w_pos @ x.lower_w + op.w_neg @ x.upper_w,
            b.lower,
            op.w_pos @ x.upper_w + op.w_neg @ x.lower_w,
            b.upper,
        )
    if isinstance(op, Neg):
        return LinearBounds(-x.upper_w, -x.upper_b, -x.lower_w, -x.lower_b)
    if isinstance(op, SumReduce):
        sums = (x.lower_w.sum(axis=0, keepdims=True), x.lower_b.sum(keepdims=True))
        return LinearBounds(*sums, x.upper_w.sum(axis=0, keepdims=True), x.upper_b.sum(keepdims=True))
    y = bounds[1]
    if isinstance(op, Add):
        return LinearBounds(x.lower_w + y.lower_w, x.lower_b + y.lower_b, x.upper_w + y.upper_w, x.upper_b + y.upper_b)
    return LinearBounds(x.lower_w - y.upper_w, x.lower_b - y.upper_b, x.upper_w - y.lower_w, x.upper_b - y.lower_b)


def explicit_backward(op, lower_coeff, upper_coeff, in_dim):
    """Reference ``backward`` of the elementwise linear ops and ``SumReduce``, each written out by hand."""
    zero = np.zeros(lower_coeff.shape[0])
    if isinstance(op, Neg):
        lams = [(-lower_coeff, -upper_coeff)]
    elif isinstance(op, Add):
        lams = [(lower_coeff, upper_coeff)] * 2
    elif isinstance(op, Sub):
        lams = [(lower_coeff, upper_coeff), (-lower_coeff, -upper_coeff)]
    else:  # SumReduce
        ones = np.ones((1, in_dim))
        lams = [(lower_coeff @ ones, upper_coeff @ ones)]
    return lams, zero, zero.copy()
