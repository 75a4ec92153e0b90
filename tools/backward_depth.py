"""Time of one `backward` output query on ReLU MLPs of growing depth and width.

    python3 tools/backward_depth.py --nets 4x64 8x128 16x256 [--runs 5] [--src DIR]

"MLP dxw" is a 64-input ReLU MLP with d hidden layers of width w and 10
classes. Its weights are normal with std 1/sqrt(fan-in) and its biases
normal with std 0.1, drawn with numpy's ``default_rng(0)``; the one example
is an l-inf ball of radius 0.01 around x ~ U(-1, 1)^64 from the same
generator. The query is ``compute_bounds(g, specs, BACKWARD, relu_mode=ZERO)``
on one BLAS thread, which runs one backward pass per ReLU operand and one
for the output. Per net: the median wall time of ``--runs`` runs after one
warm-up run and the fastest of them (``min_ms``: ``perfbench`` too keeps
each query's fastest repeat, the time least moved by a noisy host), the
output's total width, the share of ReLU neurons whose
supplier interval proves them dead (upper bound <= 0) and the share it
proves active (lower bound >= 0 and upper bound > 0), whose lines are the
identity, read from one more ``BoundQuery`` under the same strategy. ``--src`` imports lirpa from
another checkout's ``src`` directory (default: this one's). Prints one JSON
line per net.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from mlp import relu_mlp


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--nets", nargs="+", required=True, help="depth x width, e.g. 8x128")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    args = p.parse_args()
    sys.path.insert(0, str(args.src))
    import lirpa
    from lirpa.backward import BoundQuery

    for net in args.nets:
        depth, width = map(int, net.split("x"))
        rng = np.random.default_rng(0)
        dims = [64] + [width] * depth + [10]
        g = relu_mlp(lirpa, rng, dims)
        specs = {0: lirpa.LpBall(rng.uniform(-1.0, 1.0, dims[0]), 0.01, math.inf)}

        def query():
            return lirpa.compute_bounds(g, specs, lirpa.BoundStrategy.BACKWARD, relu_mode=lirpa.ReluLowerMode.ZERO)[1]

        box = query()
        times = []
        for _ in range(args.runs):
            start = time.perf_counter()
            query()
            times.append((time.perf_counter() - start) * 1000.0)
        supplier = BoundQuery(g, specs, lirpa.BoundStrategy.BACKWARD, lirpa.ReluLowerMode.ZERO)
        operands = [supplier.interval(n.inputs[0]) for n in g.nodes if isinstance(n.op, lirpa.ReLU)]
        dead = sum(int(np.sum(b.upper <= 0.0)) for b in operands)
        identity = sum(int(np.sum((b.lower >= 0.0) & (b.upper > 0.0))) for b in operands)
        total = sum(b.upper.size for b in operands)
        print(json.dumps({"net": net, "time_ms": statistics.median(times), "min_ms": min(times), "runs": args.runs,
                          "output_width": float(np.sum(box.upper - box.lower)),
                          "dead_frac": dead / total, "identity_frac": identity / total}), flush=True)


if __name__ == "__main__":
    main()
