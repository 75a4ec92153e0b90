"""One count and one sha256 over the bounds the engines give on fixed graphs.

    python3 tools/bound_digest.py [--src DIR]

Two checkouts that print the same line give bit-identical bounds on:

- the 50-graph acceptance corpus (``random_graph`` with ``default_rng(2024)``,
  as ``tests/test_acceptance.py`` builds it) and the demo net: ``compute_bounds``
  for every node as target, under every strategy and ReLU mode;
- 10 ``random_classifier``s (``default_rng(7)``, 3-5 classes): the same, plus
  ``fused_loss_report``, ``bound_loss_fused`` and ``flatness_score``
  (eps_bar 0.01, the input's center labelled 0) under every strategy and
  ReLU mode.

Each result is hashed as the raw bytes of its float64 arrays, in order; a
call that raises is hashed as its exception's type name. ``--src`` imports
lirpa from another checkout's ``src`` directory (default: this one's); the
graphs always come from this checkout's ``tests/helpers.py``.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=ROOT / "src")
    args = p.parse_args()
    sys.path[:0] = [str(args.src), str(ROOT / "tests")]
    import lirpa
    from helpers import demo_net, random_classifier, random_graph

    digest, count = hashlib.sha256(), 0

    def record(call, *call_args):
        nonlocal count
        count += 1
        try:
            result = call(*call_args)
        except Exception as exc:  # an error is part of the behaviour being pinned
            digest.update(type(exc).__name__.encode())
            return
        for value in result if isinstance(result, tuple) else (result,):
            fields = vars(value).values() if hasattr(value, "__dict__") else (value,)
            for field in fields:
                digest.update(np.asarray(field, dtype=np.float64).tobytes())

    rng = np.random.default_rng(2024)
    graphs = [random_graph(rng, max_nodes=12, max_dim=5) for _ in range(50)] + [demo_net()]
    rng = np.random.default_rng(7)
    classifiers = [random_classifier(rng, 3 + k % 3) for k in range(10)]
    for strategy in lirpa.BoundStrategy:
        for mode in lirpa.ReluLowerMode:
            for g, specs in graphs + classifiers:
                for target in range(len(g.nodes)):
                    record(lirpa.compute_bounds, g, specs, strategy, target, None, mode)
            for g, specs in classifiers:
                margin = lirpa.MarginSpec(0, g.nodes[g.output].dim)
                record(lirpa.fused_loss_report, g, specs, margin, strategy, mode)
                record(lirpa.bound_loss_fused, g, specs, margin, strategy, mode)
                batch = [({0: specs[0].center}, 0)]
                record(lirpa.flatness_score, g, 0.01, batch, strategy, mode)
    print(f"{count} results sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
