"""Time and peak memory of one flatness query against the hidden width.

    python3 tools/flatness_width.py --widths 32 64 128 256 [--src DIR]

The net is a 32-w-w-10 ReLU MLP whose weights are normal with std
1/sqrt(fan-in) and whose biases are normal with std 0.1, drawn with numpy's
``default_rng(0)``; the one example is x ~ U(-1, 1)^32 from the same
generator, labelled with its predicted class. The query is
``flatness_score(g, 1e-3, [example], IBP_BACKWARD, ZERO)`` on one BLAS
thread. Per width: the median wall time of 5 runs after one warm-up run
and the minor page faults per run over those 5 (``getrusage`` of this
process), then the ``tracemalloc`` peak of one more run, in MB rounded to 3
decimals (the peak moves by about 100 bytes between runs of the same code).
``--src`` imports lirpa from another checkout's ``src`` directory (default:
this one's). Prints one JSON line per width.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
from mlp import relu_mlp


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--widths", type=int, nargs="+", required=True)
    p.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    args = p.parse_args()
    sys.path.insert(0, str(args.src))
    import lirpa

    for width in args.widths:
        rng = np.random.default_rng(0)
        dims = [32, width, width, 10]
        g = relu_mlp(lirpa, rng, dims)
        x = rng.uniform(-1.0, 1.0, dims[0])
        label = int(np.argmax(lirpa.evaluate(g, {0: x})[g.output]))

        def query():
            return lirpa.flatness_score(
                g, 1e-3, [({0: x}, label)], lirpa.BoundStrategy.IBP_BACKWARD, lirpa.ReluLowerMode.ZERO
            )

        score = query()
        times, faults = [], resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            start = time.perf_counter()
            query()
            times.append((time.perf_counter() - start) * 1000.0)
        faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / len(times)
        tracemalloc.start()
        query()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(json.dumps({"width": width, "time_ms": statistics.median(times), "minor_faults_per_query": faults,
                          "peak_mb": round(peak / 2**20, 3), "score": score}), flush=True)


if __name__ == "__main__":
    main()
