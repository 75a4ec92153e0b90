"""Tests of the benchmark's own code: generators, reference, trace, harness.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import lirpa  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def generate(name: str, seed: int):
    return WORKLOADS[name].generate(np.random.default_rng(run.MODEL_SEED), np.random.default_rng(seed))


def prepared(name: str, count: int, seed: int = 1):
    doc, lines = generate(name, seed)
    graph, _ = lirpa.parse_problem(json.dumps(doc))
    fields = [json.loads(line) for line in lines[:count]]
    specs = [lirpa.parse_problem(line)[1][0] for line in lines[:count]]
    queries = [WORKLOADS[name].prepare(lirpa, graph, s, f) for s, f in zip(specs, fields)]
    return reference.load(json.dumps(doc)), fields, queries


def bitwise_equal(a, b) -> bool:
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_documents(name):
    doc1, lines1 = generate(name, 7)
    doc2, lines2 = generate(name, 7)
    assert json.dumps(doc1) == json.dumps(doc2)
    assert lines1 == lines2
    _, lines3 = generate(name, 8)
    assert lines1 != lines3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_probe_queries_are_the_same_for_every_seed(name):
    doc1, lines1 = run.documents(name, 7)
    doc2, lines2 = run.documents(name, 8)
    assert json.dumps(doc1) == json.dumps(doc2)
    probes = WORKLOADS[name].queries
    assert all(json.loads(line).get("probe") for line in lines1[-probes:])
    assert not any(json.loads(line).get("probe") for line in lines1[:-probes])
    assert lines1[-probes:] == lines2[-probes:]
    assert lines1[:-probes] != lines2[:-probes]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_bounds_are_bit_identical(name):
    _, _, queries = prepared(name, 2)
    plain = [q() for q in queries]
    with Tracer(lirpa) as tracer:
        traced = [q() for q in queries]
    assert tracer.spans
    assert all(bitwise_equal(a, b) for a, b in zip(plain, traced))
    # uninstall restores every binding
    assert "traced" not in lirpa.compute_bounds.__code__.co_name
    assert lirpa.backward.concretize_bounds is lirpa.concretize.concretize_bounds
    assert lirpa.InputLayout.from_specs.__func__.__module__ == "lirpa.linear"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_fit_in_query_wall_time(name):
    _, _, queries = prepared(name, 3)
    walls = []
    with Tracer(lirpa) as tracer:
        for k, query in enumerate(queries):
            tracer.query = k
            start = time.perf_counter()
            query()
            walls.append(time.perf_counter() - start)
    own = tracer.self_times()
    for k, wall in enumerate(walls):
        total = sum(t for span, t in zip(tracer.spans, own) if span[4] == k)
        assert 0.0 < total <= wall
    assert min(own) >= 0.0


@pytest.mark.parametrize("name, calls, rows", [("certify-mlp", 9, 1034), ("loss-fusion", 2, 401)])
def test_backward_pass_counts_per_query(name, calls, rows):
    _, _, queries = prepared(name, 3)
    with Tracer(lirpa) as tracer:
        for query in queries:
            query()
    layers = tracer.metrics(len(queries), 0.0, 0.0)
    assert layers["backward.run_backward.calls"] == calls
    assert layers["backward.rows"] == rows


def test_weight_graph_bytes_match_the_dense_matrices():
    _, _, queries = prepared("flatness", 1)
    with Tracer(lirpa) as tracer:
        queries[0]()
    # tile (s*t x t) plus block-sum (s x s*t) per layer of 64-128-128-10
    entries = sum(s * t * t + s * s * t for s, t in [(128, 64), (128, 128), (10, 128)])
    assert tracer.metrics(1, 0.0, 0.0)["fusion.weight_graph_mb"] == entries * 8 / 2**20


def test_reference_matches_lirpa_evaluate():
    # the benchmark never uses lirpa.evaluate; this test cross-checks the two
    doc, _ = generate("synonym-dag", 3)
    graph, _ = lirpa.parse_problem(json.dumps(doc))
    x = np.random.default_rng(0).uniform(-1, 1, (graph.nodes[0].dim, 5))
    ours = reference.evaluate(doc, {0: x})
    theirs = lirpa.evaluate(graph, {0: x})
    for i in range(len(doc["nodes"])):
        np.testing.assert_allclose(ours[i], theirs[i], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_soundness_check_accepts_bounds_and_rejects_shrunk_ones(name):
    workload = WORKLOADS[name]
    doc, fields, queries = prepared(name, 1)
    result = queries[0]()
    rng = np.random.default_rng(0)
    assert workload.valid(result)
    assert workload.sound(doc, fields[0], result, rng)
    # collapse the bound onto its lower end: sampled values must escape it
    if len(result) == 2:
        shrunk = (result[0], result[0].copy())
    else:
        shrunk = tuple(np.zeros_like(r) for r in result)
    assert not workload.sound(doc, fields[0], shrunk, rng)


def test_exhaustive_check_sees_a_budget_one_too_small():
    workload = WORKLOADS["synonym-dag"]
    doc, lines = generate("synonym-dag", 1)
    graph, _ = lirpa.parse_problem(json.dumps(doc))
    field = json.loads(lines[workload.queries])
    assert field["check_only"]
    short = json.loads(lines[workload.queries])
    short["perturbations"][0]["delta"] -= 1
    ref = reference.load(json.dumps(doc))
    rng = np.random.default_rng(0)
    for line, sound in ((field, True), (short, False)):
        query = workload.prepare(lirpa, graph, lirpa.parse_problem(json.dumps(line))[1][0], line)
        # both are checked against the full budget of the generated query
        assert workload.sound(ref, field, query(), rng) is sound


def test_closed_loop_times_every_pass_and_flags_a_changed_result():
    calls = []

    def drifting():
        calls.append(1)
        return (np.array([float(len(calls) > 3)]),)

    # drifting() comes first: each untimed warm-up runs the last query
    queries = [drifting, lambda: (np.array([1.0]),)]
    outcome = worker.Outcome()
    first = [q() for q in queries]
    times = worker.closed_loop(queries, 0.0, outcome, first)
    assert times.shape == (worker.MIN_PASSES, 2)
    assert outcome.attempted == 2 * worker.MIN_PASSES
    assert outcome.failed == worker.MIN_PASSES - 2  # drifting() changes from its 4th call on


def test_pin_check_rejects_a_wrong_demo_bound(monkeypatch):
    run.pin_check(lirpa)
    original = lirpa.compute_bounds

    def looser(*args, **kwargs):
        lb, box = original(*args, **kwargs)
        return lb, lirpa.IntervalBounds(box.lower - 1.0, box.upper)

    monkeypatch.setattr(lirpa, "compute_bounds", looser)
    with pytest.raises(run.BenchError):
        run.pin_check(lirpa)


def test_run_prints_result_line(capsys):
    assert run.main(["--workload", "loss-fusion", "--seed", "3", "--seconds", "0.5", "--trace", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-mlp", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
