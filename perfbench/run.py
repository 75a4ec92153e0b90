"""lirpa benchmark: seeded certification workloads through the public API.

    python3 perfbench/run.py --workload certify-mlp --seed 1 --seconds 25 --trace 0

Checks the demo net first, generates the workload's documents from the seed,
then starts the workload in its own process (``worker.py``) with one BLAS
thread. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` the per-module metrics of a run whose lirpa functions are
wrapped from outside. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported here or in a worker
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from worker import import_lirpa  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODEL_SEED = 20200214  # the networks are fixed; --seed draws the timed queries
PROBE_SEED = 19060316  # draws the probe queries, the same for every --seed
SLACK_S = 150.0  # time allowed beyond --seconds for set-up and checks
END_TO_END = {
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "looseness": "bound",
}

DEMO = {
    "nodes": [
        {"op": "input", "inputs": [], "dim": 2},
        {"op": "affine", "inputs": [0], "dim": 2, "weight": [[2.0, 1.0], [-3.0, 4.0]], "bias": [0.0, 0.0]},
        {"op": "relu", "inputs": [1], "dim": 2},
        {"op": "affine", "inputs": [2], "dim": 2, "weight": [[4.0, -2.0], [2.0, 1.0]], "bias": [0.0, 0.0]},
        {"op": "relu", "inputs": [3], "dim": 2},
        {"op": "affine", "inputs": [4], "dim": 1, "weight": [[-2.0, 1.0]], "bias": [0.0]},
    ],
    "output": 5,
    "perturbations": [{"node": 0, "type": "lp", "center": [0.0, 1.0], "eps": 2.0, "p": "inf"}],
}


class BenchError(Exception):
    """The benchmark cannot produce trustworthy numbers."""


def pin_check(lirpa) -> None:
    """Acceptance criterion 1 on the demo net, before anything is measured."""
    g, specs = lirpa.parse_problem(json.dumps(DEMO))
    _, ibp = lirpa.compute_bounds(g, specs, lirpa.BoundStrategy.IBP)
    _, bwd = lirpa.compute_bounds(g, specs, lirpa.BoundStrategy.BACKWARD, relu_mode=lirpa.ReluLowerMode.ZERO)
    if not (ibp.lower[0] == -56.0 and ibp.upper[0] == 32.0):
        raise BenchError(f"demo net ibp bounds [{ibp.lower[0]}, {ibp.upper[0]}] != [-56, 32]")
    if abs(bwd.lower[0] + 42.0) > 0.02 or abs(bwd.upper[0] - 24.2857) > 0.02:
        raise BenchError(f"demo net backward bounds [{bwd.lower[0]}, {bwd.upper[0]}] not within 0.02 of [-42, 24.2857]")


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"commit": commit, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": 1, "nproc": os.cpu_count()}


def start_worker(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a workload process and return it with the set-up time it reports, in s."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0.0))
    word, _, setup = (proc.stdout.readline() if ready else "").partition(" ")
    if word != "ready":
        stop(proc)
        raise BenchError(f"workload process did not become ready (exit code {proc.returncode})")
    return proc, float(setup)


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("workload process ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return out


def documents(name: str, seed: int) -> tuple[dict, list[str]]:
    """The graph document and the query lines: the timed and check-only
    queries drawn from ``seed``, then the probe queries, which give
    ``looseness`` and are the same for every seed."""
    workload = WORKLOADS[name]
    doc, lines = workload.generate(np.random.default_rng(MODEL_SEED), np.random.default_rng(seed))
    _, probes = workload.generate(np.random.default_rng(MODEL_SEED), np.random.default_rng(PROBE_SEED))
    return doc, lines + [json.dumps({**json.loads(line), "probe": True}) for line in probes[: workload.queries]]


def measure(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> tuple[dict, list[float]]:
    doc, lines = documents(name, seed)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as work:
        (Path(work) / "graph.json").write_text(json.dumps(doc))
        (Path(work) / "queries.jsonl").write_text("\n".join(lines) + "\n")
        args = ["--workload", name, "--work", work, "--seconds", str(seconds), "--trace", str(int(trace))]
        if trace:
            args += ["--spans", str(out_dir / f"spans-{name}-seed{seed}.jsonl")]
        proc, setup = start_worker(args, deadline)
        try:
            report = json.loads(finish(proc, deadline).splitlines()[-1])
        finally:
            stop(proc)
        setups = [setup] + report.get("setups", [])
    return report, setups


def unit(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_mb"):
        return "MB"
    return "count" if metric == "backward.rows" else "ratio"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    deadline = time.monotonic() + args.seconds + SLACK_S

    try:
        pin_check(import_lirpa())
        report, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"# workload {args.workload} seed {args.seed}: {report['distinct_queries']} distinct queries, "
          "closed loop, 1 client, 1 process")
    if args.trace:
        print(f"# {report['traced_queries']} traced queries; per-query means")
        metrics = {m: {"value": report["layers"][m], "unit": unit(m)} for m in LAYER_METRICS}
    else:
        print(f"# {report['passes']} passes over the distinct queries in {report['loop_s']:.2f} s; "
              f"each query's fastest pass is timed; setup runs {len(setups)}")
        values = {**report, "setup_s": statistics.median(setups)}
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    for m, v in metrics.items():
        print(f"# {m:40s} {v['value']:.6g} {v['unit']}")
    print(f"# {'failed_frac':40s} {report['failed'] / report['attempted']:.6g} ratio "
          f"({report['failed']} of {report['attempted']})")
    if report["certified_frac"] is not None:
        print(f"# {'certified_frac':40s} {report['certified_frac']:.6g} ratio")
    if report["first_error"]:
        print(f"# first failure: {report['first_error']}")
    print(f"# env {json.dumps(environment())}")
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
