"""One workload's own process: set up, run the closed loop, check every result.

Started by ``run.py`` with the generated documents in a work directory. It
prints ``ready <setup seconds>`` once set-up is done, then, unless
``--setup-only``, one JSON line with the workload's measurements. Set-up is
timed from the first line of this file: imports of numpy and lirpa, parsing
of every document and the first query.
"""
from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_PASSES = 7  # each query's fastest time is taken over at least this many runs
SETUPS = 10  # set-up-only copies started during a timed loop, spread evenly over it


def import_lirpa():
    """Import lirpa from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import lirpa

    if Path(lirpa.__file__).resolve().parent != SRC / "lirpa":
        raise ImportError(f"lirpa was imported from {lirpa.__file__}, not from {SRC}")
    return lirpa


class Outcome:
    """Counts attempted and failed queries; keeps the first failure's reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def record(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.first_error = self.first_error or reason


def same(a, b) -> bool:
    return b is not None and all(np.array_equal(x, y) for x, y in zip(a, b))


def closed_loop(queries, seconds: float, outcome: Outcome, first, tracer=None, between=None) -> np.ndarray:
    """Run passes over the queries, each in order and one at a time.

    Passes continue for at least ``seconds`` and MIN_PASSES passes. Pass k
    runs on the k-th allowed CPU in turn: on a shared machine one CPU can be
    slowed by other tenants for tens of seconds while another is not.
    Untraced, each pass starts with an untimed run of the last query, so the
    first timed query does not pay for the move to a cold CPU.
    ``between`` runs after each pass, still on its CPU and outside any
    query's time. Returns every query's wall time in every pass, shaped
    (passes, queries).
    Each result must equal, bit for bit, the same query's result from before
    the loop.
    """
    cpus = sorted(os.sched_getaffinity(0))
    passes, results = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
        if tracer is None:
            try:
                queries[-1]()
            except Exception:
                pass  # the timed runs record every failure
        times = []
        for q, query in enumerate(queries):
            if tracer is not None:
                tracer.query = len(passes) * len(queries) + q
            t0 = time.perf_counter()
            try:
                result = query()
            except Exception:
                result = None
                outcome.record(False, traceback.format_exc())
            times.append(time.perf_counter() - t0)
            results.append((q, result))
        passes.append(times)
        if between is not None:
            between()
    os.sched_setaffinity(0, cpus)
    for q, result in results:
        if result is not None:
            outcome.record(same(result, first[q]), f"query {q}: result differs from its first result")
    return np.array(passes)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--work", required=True, type=Path)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path)
    p.add_argument("--setup-only", action="store_true")
    argv = sys.argv[1:] if argv is None else argv
    args = p.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import reference
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    lirpa = import_lirpa()
    setup_tracer = Tracer(lirpa) if args.trace else None
    if setup_tracer:
        setup_tracer.install()
    graph_text = (args.work / "graph.json").read_text()
    lines = (args.work / "queries.jsonl").read_text().splitlines()
    graph, _ = lirpa.parse_problem(graph_text)
    fields = [json.loads(line) for line in lines]
    queries = [workload.prepare(lirpa, graph, lirpa.parse_problem(line)[1][0], f) for line, f in zip(lines, fields)]
    if setup_tracer:
        setup_tracer.uninstall()
    queries[0]()
    print(f"ready {time.perf_counter() - START!r}", flush=True)
    if args.setup_only:
        return 0

    # every distinct query once; the timed loop must reproduce these results
    outcome = Outcome()
    first = []
    for query in queries:
        try:
            first.append(query())
        except Exception:
            outcome.record(False, traceback.format_exc())
            first.append(None)
    # check-only and probe queries come last, so timed query q is queries[q]
    timed = [q for q, f in zip(queries, fields) if not (f.get("check_only") or f.get("probe"))]

    report = {"distinct_queries": len(timed)}
    # each query's fastest pass: other tenants only ever add time
    if args.trace:
        untraced = closed_loop(timed, args.seconds / 2, outcome, first).min(axis=0)
        with Tracer(lirpa) as tracer:
            traced = closed_loop(timed, args.seconds / 2, outcome, first, tracer)
        overhead = np.median(traced.min(axis=0)) / np.median(untraced) - 1.0
        report["layers"] = tracer.metrics(traced.size, setup_tracer.total_self_ms("graph.parse_problem"), overhead)
        report["traced_queries"] = traced.size
        if args.spans:
            tracer.dump(args.spans)
    else:
        setups, start = [], time.perf_counter()

        def set_up_again():
            # a fresh process on this pass's CPU, after the first pass and then
            # once per 1/SETUPS of the run, so set-ups are spread over the run
            # and the CPUs as the passes are
            if time.perf_counter() - start < len(setups) * args.seconds / SETUPS:
                return
            child = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"],
                                   capture_output=True, text=True, timeout=60, check=True)
            setups.append(float(child.stdout.split()[1]))

        times = closed_loop(timed, args.seconds, outcome, first, between=set_up_again)
        best = times.min(axis=0)
        report.update(
            setups=setups,
            passes=len(times),
            loop_s=float(times.sum()),
            query_p50_ms=1e3 * float(np.percentile(best, 50)),
            query_p90_ms=1e3 * float(np.percentile(best, 90)),
            queries_per_s=len(best) / float(best.sum()),
        )
    # read before the reference checks, whose arrays are not the workload's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # soundness of every distinct result, against the reference interpreter
    doc = reference.load(graph_text)
    rng = np.random.default_rng(0)
    for q, result in enumerate(first):
        if result is not None:
            ok = workload.valid(result) and workload.sound(doc, fields[q], result, rng)
            outcome.record(ok, f"query {q}: invalid or unsound result")
    # a failed query has no trustworthy bound, so neither has the total
    good = outcome.failed == 0
    # looseness and certified_frac come from the probe queries, the same for every seed
    pairs = [(r, f) for r, f in zip(first, fields) if f.get("probe")]
    certified = [workload.certified(f, r) for r, f in pairs] if good else [None]
    report.update(
        attempted=outcome.attempted,
        failed=outcome.failed,
        first_error=outcome.first_error,
        looseness=workload.total_looseness([workload.looseness(r, f) for r, f in pairs]) if good else float("nan"),
        certified_frac=None if None in certified else statistics.mean(certified),
        peak_rss_mb=peak_rss_mb,
    )
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
