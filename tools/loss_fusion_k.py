"""Time and peak memory of one paired loss query against the class count K.

    python3 tools/loss_fusion_k.py --classes 10 100 400 1000 [--src DIR]

The net is a 32-128-128-128-K ReLU MLP whose weights are normal with std
1/sqrt(fan-in) and whose biases are normal with std 0.1, drawn with numpy's
``default_rng(0)``; the one example is an l-inf ball of radius 0.002 around
x ~ U(-1, 1)^32 from the same generator, labelled with its predicted class.
The query is ``fused_loss_report(g, specs, margin, IBP_BACKWARD, ZERO)`` on
one BLAS thread. Per K: the median wall time of 5 runs after one warm-up
run, then the ``tracemalloc`` peak of one more run, in MB rounded to 3
decimals (the peak moves by about 100 bytes between runs of the same code).
``--src`` imports lirpa from another checkout's ``src`` directory (default:
this one's). Prints one JSON line per K, with both loss bounds.
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
import tracemalloc
from pathlib import Path

import numpy as np
from mlp import relu_mlp


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--classes", type=int, nargs="+", required=True)
    p.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    args = p.parse_args()
    sys.path.insert(0, str(args.src))
    import lirpa

    for k in args.classes:
        rng = np.random.default_rng(0)
        dims = [32, 128, 128, 128, k]
        g = relu_mlp(lirpa, rng, dims)
        x = rng.uniform(-1.0, 1.0, dims[0])
        specs = {0: lirpa.LpBall(x, 0.002, math.inf)}
        margin = lirpa.MarginSpec(int(np.argmax(lirpa.evaluate(g, {0: x})[g.output])), k)

        def query():
            return lirpa.fused_loss_report(
                g, specs, margin, lirpa.BoundStrategy.IBP_BACKWARD, lirpa.ReluLowerMode.ZERO
            )

        report = query()
        times = []
        for _ in range(5):
            start = time.perf_counter()
            query()
            times.append((time.perf_counter() - start) * 1000.0)
        tracemalloc.start()
        query()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(json.dumps({"classes": k, "time_ms": statistics.median(times), "peak_mb": round(peak / 2**20, 3),
                          "fused_upper": report.fused_upper, "unfused_upper": report.unfused_upper}), flush=True)


if __name__ == "__main__":
    main()
