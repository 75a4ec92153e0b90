"""Repeat the benchmark over seeds and summarise every metric.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs ``run.py`` once per workload and seed 1-10 with ``--trace 0`` and once
per workload with ``--trace 1`` (seed 1), one run at a time, each for
``run_seconds`` of ``BENCHMARK.json``. Prints and writes, per workload and
metric, the median, the quartiles and the spread (quartile distance as a
share of the median). Later changes compare their own runs with the
parent's by these numbers.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import environment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = list(range(1, 11))


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=200)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect results:\n{out.stdout}")
    return result


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "unit": unit, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    report = {"environment": environment(), "seeds": SEEDS, "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        runs = [bench(name, seed, seconds, 0) for seed in SEEDS]
        metrics = {m: summary([r["metrics"][m]["value"] for r in runs], v["unit"])
                   for m, v in runs[0]["metrics"].items()}
        traced = bench(name, SEEDS[0], seconds, 1)
        report["workloads"][name] = {
            "end_to_end": metrics,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "per_layer_seed": SEEDS[0],
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
        print(f"== {name}: {len(SEEDS)} seeds")
        for m, s in metrics.items():
            print(f"  {m:16s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
