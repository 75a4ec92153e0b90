"""One count and one sha256 over the bounds the engines give on fixed graphs.

    python3 tools/bound_digest.py [--src DIR]

Two checkouts that print the same line give bit-identical bounds on:

- the 50-graph acceptance corpus (``random_graph`` with ``default_rng(2024)``,
  as ``tests/test_acceptance.py`` builds it) and the demo net: ``compute_bounds``
  for every node as target, under every strategy and ReLU mode;
- 10 ``random_classifier``s (``default_rng(7)``, 3-5 classes): the same, plus
  ``fused_loss_report``, ``bound_loss_fused``, ``bound_loss_unfused``,
  ``flatness_score`` (eps_bar 0.01, the input's center labelled 0) and
  ``compute_bounds_margin`` (the output's ``compute_bounds`` with the label-0
  ``margin_transform`` as ``out_coeff``, the only call whose native ``ibp``
  and ``forward`` bounds pass through ``Affine.interval`` and
  ``Affine.forward`` after the query) under every strategy and ReLU mode;
- ``compute_bounds_pinned_last``: each graph above with two inputs (29 of
  them), with an ``LpBall(center, 0.3, 2.0)`` on the first input and a
  ``Constant(center)`` on the second, so that a pinned input comes after a
  perturbed one: ``compute_bounds`` for every node as target, under every
  strategy and ReLU mode;
- ``relax``: the lines (``slopes``, ``lower_const``, ``upper_const``) of
  ``op.relax`` for ReLU in both modes, Exp, Log and Mul, on intervals with
  signed-zero ends, one ulp or 1e-12 wide, and wide but of finite width,
  each wherever the op is defined, and on pinned Mul operands;
- ``flatness_score_wide``: ``flatness_score`` (eps_bar 0.01) on 3
  16-32-32-10 ``relu_mlp``s (``tools/mlp.py``, ``default_rng(29)``), each on
  a batch of 2 inputs drawn from U(-1, 1)^16 and labelled with their
  predicted class, under every strategy and ReLU mode: layers wide enough
  that a change in how a ``MatVec`` sums its terms can show.

Each result is hashed as the raw bytes of its float64 arrays, in order; a
call that raises is hashed as its exception's type name. The first line
covers every call but those of ``bound_loss_unfused``,
``compute_bounds_margin``, ``compute_bounds_pinned_last``, ``relax`` and
``flatness_score_wide``, so it compares with checkouts that did not record
those. One indented line follows per function and one per field of
``fused_loss_report``'s result, each over that function's calls alone, and
one, ``pop_order``, over the pop order of every backward pass those calls
run (each ``run_backward`` result's ``pop_order`` as int64 bytes, read
through ``lirpa.backward``'s own binding, so either checkout's walk is
compared). The last line, ``folded``, covers every call with each float's
sign of zero folded (``x + 0.0``), so a change that
flips only the signs of zeros can show it gives the same values. ``--src``
imports lirpa from another checkout's ``src`` directory (default: this
one's); the graphs always come from this checkout's ``tests/helpers.py`` and
``tools/mlp.py``.
``corpus`` lists the calls, which ``tools/bound_diff.py`` compares too.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def corpus(lirpa):
    """The digest's calls, in order, as (function, args); a call's family is its function's name.

    Call it with this checkout's ``tests`` and ``tools`` directories on ``sys.path``: the graphs come from their
    ``helpers`` and ``mlp``.
    """
    from helpers import demo_net, random_classifier, random_graph
    from mlp import relu_mlp

    def compute_bounds_margin(g, specs, strategy, mode):
        margins = lirpa.margin_transform(0, g.nodes[g.output].dim)
        return lirpa.compute_bounds(g, specs, strategy, None, margins, mode)

    def compute_bounds_pinned_last(g, specs, strategy, target, mode):
        return lirpa.compute_bounds(g, specs, strategy, target, None, mode)

    def flatness_score_wide(g, eps_bar, batch, strategy, mode):
        return lirpa.flatness_score(g, eps_bar, batch, strategy, mode)

    def relax(op, intervals, mode):
        lines = op.relax([lirpa.IntervalBounds(*box) for box in intervals], mode)
        return np.asarray(lines.slopes), lines.lower_const, lines.upper_const

    def grids(points, wide):
        """Intervals by family: signed-zero ends, one ulp and 1e-12 wide at ``points``, and ``wide``."""
        zero = np.array([[-0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -1.0, -1.0], [-0.0, 0.0, -0.0, 0.0, 1.0, 1.0, -0.0, 0.0]])
        points = np.array(points)
        thin = [np.array([points, np.nextafter(points, np.inf)]), np.array([points, points + 1e-12])]
        return ([zero] if points.min() < 0.0 else []) + thin + [np.array(wide).T]

    real = grids([-3.0, -1.0, -1e-3, -1e-300, 1e-300, 1e-3, 0.5, 2.0], [(-1e300, 1e300), (-1e300, 1.0), (-1.0, 1e300)])
    exp = grids([-800.0, -3.0, -1e-3, 1e-3, 2.0, 700.0], [(-700.0, 696.0), (-800.0, -700.0), (-1e3, 700.0)])
    log = grids([1e-300, 1e-3, 0.5, 2.0, 1e300], [(1e-300, 1.0), (1e-3, 1e300)])
    products = grids([-3.0, -1e-3, 1e-3, 0.5, 2.0], [(-1e150, 1e150), (-1e150, 1.0), (-1.0, 1e150)])
    for mode in lirpa.ReluLowerMode:
        for box in real:
            yield relax, (lirpa.ReLU(), [box], mode)
    for op, family in ((lirpa.Exp(), exp), (lirpa.Log(), log)):
        for box in family:
            yield relax, (op, [box], lirpa.ReluLowerMode.ZERO)
    for box in products:
        x, y = np.repeat(box, box.shape[1], axis=1), np.tile(box, box.shape[1])  # every pair of the family's intervals
        for pair in ((x, y), (x[[0, 0]], y), (x, y[[0, 0]]), (x[[0, 0]], y[[0, 0]])):  # [[0, 0]]: pinned at l
            yield relax, (lirpa.MulElementwise(), pair, lirpa.ReluLowerMode.ZERO)

    rng = np.random.default_rng(2024)
    graphs = [random_graph(rng, max_nodes=12, max_dim=5) for _ in range(50)] + [demo_net()]
    rng = np.random.default_rng(7)
    classifiers = [random_classifier(rng, 3 + k % 3) for k in range(10)]
    pinned_last = [
        (g, {first: lirpa.LpBall(specs[first].center, 0.3, 2.0), second: lirpa.Constant(specs[second].center)})
        for g, specs in graphs + classifiers
        if len(g.input_ids) == 2
        for first, second in [g.input_ids]
    ]
    for strategy in lirpa.BoundStrategy:
        for mode in lirpa.ReluLowerMode:
            for g, specs in graphs + classifiers:
                for target in range(len(g.nodes)):
                    yield lirpa.compute_bounds, (g, specs, strategy, target, None, mode)
            for g, specs in pinned_last:
                for target in range(len(g.nodes)):
                    yield compute_bounds_pinned_last, (g, specs, strategy, target, mode)
            for g, specs in classifiers:
                margin = lirpa.MarginSpec(0, g.nodes[g.output].dim)
                yield lirpa.fused_loss_report, (g, specs, margin, strategy, mode)
                yield lirpa.bound_loss_fused, (g, specs, margin, strategy, mode)
                yield lirpa.bound_loss_unfused, (g, specs, margin, strategy, mode)
                batch = [({0: specs[0].center}, 0)]
                yield lirpa.flatness_score, (g, 0.01, batch, strategy, mode)
                yield compute_bounds_margin, (g, specs, strategy, mode)
    rng = np.random.default_rng(29)
    wide = [(relu_mlp(lirpa, rng, [16, 32, 32, 10]), rng.uniform(-1.0, 1.0, (2, 16))) for _ in range(3)]
    for strategy in lirpa.BoundStrategy:
        for mode in lirpa.ReluLowerMode:
            for g, xs in wide:
                batch = [({0: x}, int(np.argmax(lirpa.evaluate(g, {0: x})[g.output]))) for x in xs]
                yield flatness_score_wide, (g, 0.01, batch, strategy, mode)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=ROOT / "src")
    args = p.parse_args()
    sys.path[:0] = [str(args.src), str(ROOT / "tests")]
    import lirpa

    digests, counts = {}, Counter()

    def record(call, *call_args):
        # the first line keeps to the calls it has always covered
        family = call.__name__
        left_out = (
            "bound_loss_unfused", "compute_bounds_margin", "compute_bounds_pinned_last", "relax", "flatness_score_wide"
        )
        keys = [family] if family in left_out else ["results", family]
        counts.update(keys + ["folded"])
        try:
            result = call(*call_args)
        except Exception as exc:  # an error is part of the behaviour being pinned
            name = type(exc).__name__.encode()
            chunks = [((), name, name)]
        else:
            chunks = []
            for value in result if isinstance(result, tuple) else (result,):
                fields = [("", value)]
                if dataclasses.is_dataclass(value):  # its fields, not what its cached properties keep beside them
                    fields = [(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)]
                for name, field in fields:
                    # a result object, not a tuple, also feeds one line per field
                    extra = (f"{family}.{name}",) if value is result and name else ()
                    data = np.asarray(field, dtype=np.float64)
                    chunks.append((extra, data.tobytes(), (data + 0.0).tobytes()))
        for extra, data, folded in chunks:
            for key in (*keys, *extra):
                digests.setdefault(key, hashlib.sha256()).update(data)
            digests.setdefault("folded", hashlib.sha256()).update(folded)

    backward_pass = lirpa.backward.run_backward

    def run_backward(*call_args):
        state = backward_pass(*call_args)
        counts["pop_order"] += 1
        digests.setdefault("pop_order", hashlib.sha256()).update(np.asarray(state.pop_order, dtype=np.int64).tobytes())
        return state

    lirpa.backward.run_backward = run_backward
    for call, call_args in corpus(lirpa):
        record(call, *call_args)
    print(f"{counts['results']} results sha256 {digests['results'].hexdigest()}")
    for key in sorted(digests.keys() - {"results", "folded"}) + ["folded"]:
        print(f"  {counts[key.split('.')[0]]} {key} sha256 {digests[key].hexdigest()}")


if __name__ == "__main__":
    main()
