import json
from pathlib import Path

import numpy as np
import pytest

from helpers import demo_doc
from lirpa import BoundStrategy
from lirpa.cli import main


@pytest.fixture
def demo_graph(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(demo_doc())
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_bounds_ibp_golden(capsys, demo_graph):
    code, report = _run(capsys, ["bounds", demo_graph, "--method", "ibp"])
    assert code == 0
    assert report["lower"] == [-56.0]
    assert report["upper"] == [32.0]
    assert report["method"] == "ibp"


def test_bounds_backward_golden(capsys, demo_graph):
    code, report = _run(capsys, ["bounds", demo_graph, "--method", "backward"])
    assert code == 0
    assert report["lower"][0] == pytest.approx(-42.0, abs=0.02)
    assert report["upper"][0] == pytest.approx(24.28, abs=0.02)


def test_bounds_forward_zero_eps_is_point_value(capsys, demo_graph):
    code, report = _run(capsys, ["bounds", demo_graph, "--method", "forward", "--eps", "0"])
    assert code == 0
    assert report["lower"][0] == pytest.approx(6.0, abs=1e-9)
    assert report["upper"][0] == pytest.approx(6.0, abs=1e-9)


def test_bounds_all_nodes(capsys, demo_graph):
    code, report = _run(capsys, ["bounds", demo_graph, "--method", "ibp", "--all-nodes"])
    assert code == 0
    assert set(report["nodes"]) == {str(i) for i in range(6)}
    assert report["nodes"]["1"]["lower"] == [-5.0, -10.0]
    assert report["nodes"]["1"]["upper"] == [7.0, 18.0]


@pytest.mark.parametrize("method", ["ibp", "forward", "backward", "ibp+backward", "forward+backward"])
def test_bounds_all_nodes_match_per_node_bounds(capsys, tmp_path, method):
    from helpers import demo_net, random_graph
    from lirpa import BoundStrategy, ReluLowerMode, compute_bounds, serialize_problem
    from lirpa.cli import _fmt

    rng = np.random.default_rng(47)
    for k, (g, specs) in enumerate([demo_net()] + [random_graph(rng) for _ in range(50)]):
        path = tmp_path / f"g{k}.json"
        path.write_text(serialize_problem(g, specs))
        code, report = _run(capsys, ["bounds", str(path), "--method", method, "--all-nodes"])
        assert code == 0
        assert set(report["nodes"]) == {str(i) for i in range(len(g.nodes))}
        for i, entry in report["nodes"].items():
            box = compute_bounds(g, specs, BoundStrategy(method), int(i), None, ReluLowerMode.ZERO)[1]
            assert entry == {"lower": _fmt(box.lower.tolist()), "upper": _fmt(box.upper.tolist())}
        out = report["nodes"][str(g.output)]
        assert out == {"lower": report["lower"], "upper": report["upper"]}


def test_bounds_all_nodes_runs_at_most_one_backward_pass_per_node(capsys, monkeypatch):
    from lirpa import backward

    calls = []
    run_backward = backward.run_backward

    def counting(*args, **kwargs):
        calls.append(args[1])
        return run_backward(*args, **kwargs)

    monkeypatch.setattr(backward, "run_backward", counting)
    demo = Path(__file__).resolve().parents[1] / "demo" / "two_layer_relu.json"
    code, report = _run(capsys, ["bounds", str(demo), "--method", "backward", "--all-nodes"])
    assert code == 0
    assert len(report["nodes"]) == 6
    assert len(calls) <= 6


def test_bounds_sampling_diagnostic_stays_inside(capsys, demo_graph):
    code, report = _run(
        capsys,
        ["bounds", demo_graph, "--method", "backward", "--samples", "500", "--seed", "1"],
    )
    assert code == 0
    assert report["lower"][0] <= report["sampled_min"][0]
    assert report["sampled_max"][0] <= report["upper"][0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--samples", "-3"], "error: --samples must be nonnegative"),
        (["--p", "nan", "--method", "backward"], "error: node 0: lp ball requires p >= 1, got nan"),
        (["--eps", "-1"], "error: node 0: ball radius must be finite and nonnegative, got -1.0"),
    ],
)
def test_bounds_bad_option_is_usage_error(capsys, demo_graph, argv, message):
    assert main(["bounds", demo_graph, *argv]) == 1
    assert message in capsys.readouterr().err


def test_bounds_report_is_deterministic(capsys, demo_graph, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["bounds", demo_graph, "--method", "backward", "--output", str(out1)]) == 0
    assert main(["bounds", demo_graph, "--method", "backward", "--output", str(out2)]) == 0
    capsys.readouterr()
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    r1.pop("time_ms")
    r2.pop("time_ms")
    assert r1 == r2
    # key order is fixed
    assert list(json.loads(out1.read_text())) == ["method", "lower", "upper", "time_ms"]


def test_report_floats_are_nine_significant_digits(capsys, demo_graph):
    code, report = _run(capsys, ["bounds", demo_graph, "--method", "backward"])
    assert code == 0
    assert report["upper"][0] == float(f"{170.0 / 7.0:.9g}")


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["bounds", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_non_finite_document_exit_code(capsys, tmp_path):
    doc = {
        "nodes": [{"op": "input", "inputs": [], "dim": 1}],
        "output": 0,
        "perturbations": [{"node": 0, "type": "lp", "center": [0.5], "eps": "TOKEN", "p": "inf"}],
    }
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc).replace('"TOKEN"', "NaN"))
    assert main(["bounds", str(bad)]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_malformed_op_exit_code(capsys, tmp_path):
    doc = {"nodes": [{"op": "input", "inputs": [], "dim": 1}, {"op": ["relu"], "inputs": [0], "dim": 1}], "output": 1}
    bad = tmp_path / "op.json"
    bad.write_text(json.dumps(doc))
    assert main(["bounds", str(bad)]) == 1
    assert "node 1: unknown op name" in capsys.readouterr().err


def test_missing_file_exit_code(capsys, tmp_path):
    assert main(["bounds", str(tmp_path / "nope.json")]) == 1
    capsys.readouterr()


def test_domain_error_exit_code(capsys, tmp_path):
    doc = {
        "nodes": [
            {"op": "input", "inputs": [], "dim": 1},
            {"op": "log", "inputs": [0], "dim": 1},
        ],
        "output": 1,
        "perturbations": [{"node": 0, "type": "lp", "center": [0.5], "eps": 1.0, "p": "inf"}],
    }
    path = tmp_path / "log.json"
    path.write_text(json.dumps(doc))
    assert main(["bounds", str(path), "--method", "ibp"]) == 2
    assert "domain" in capsys.readouterr().err


def _classifier_doc(scale, eps):
    # logits = scale * [x0, -x0]: label 0 margin is 2*scale*x0
    return {
        "nodes": [
            {"op": "input", "inputs": [], "dim": 1},
            {"op": "affine", "inputs": [0], "dim": 2, "weight": [[scale], [-scale]], "bias": [0, 0]},
        ],
        "output": 1,
        "perturbations": [{"node": 0, "type": "lp", "center": [1.0], "eps": eps, "p": "inf"}],
    }


def test_verify_certified(capsys, tmp_path):
    path = tmp_path / "clf.json"
    path.write_text(json.dumps(_classifier_doc(5.0, 0.01)))
    code, report = _run(capsys, ["verify", str(path), "--label", "0", "--method", "backward"])
    assert code == 0
    assert report["verdict"] == "certified"
    assert report["margin_lowers"][0] == 0.0
    assert report["margin_lowers"][1] > 0.0


def test_verify_unknown_with_huge_radius(capsys, tmp_path):
    path = tmp_path / "clf.json"
    path.write_text(json.dumps(_classifier_doc(5.0, 100.0)))
    code, report = _run(capsys, ["verify", str(path), "--label", "0", "--method", "backward"])
    assert code == 0
    assert report["verdict"] == "unknown"


def test_verify_single_class_is_usage_error(capsys, demo_graph):
    assert main(["verify", demo_graph, "--label", "0"]) == 1
    assert "2 classes" in capsys.readouterr().err


def test_compare_demo_net_goldens(capsys, demo_graph):
    code, report = _run(capsys, ["compare", demo_graph])
    assert code == 0
    methods = [row["method"] for row in report["methods"]]
    widths = [row["width"] for row in report["methods"]]
    assert widths == sorted(widths, reverse=True)
    by_method = {row["method"]: row for row in report["methods"]}
    assert by_method["ibp"]["width"] == pytest.approx(88.0, abs=0.0)
    assert by_method["forward"]["width"] == pytest.approx(80.29, abs=0.02)
    assert by_method["backward"]["width"] == pytest.approx(66.28, abs=0.02)
    assert by_method["forward+backward"]["width"] == pytest.approx(66.2857143, abs=1e-7)
    assert methods[:2] == ["ibp", "forward"] and set(methods) == {s.value for s in BoundStrategy}


def test_compare_affine_chain_equal_widths(capsys, tmp_path):
    doc = {
        "nodes": [
            {"op": "input", "inputs": [], "dim": 2},
            {"op": "affine", "inputs": [0], "dim": 2, "weight": [[1.0, 0.5], [0.25, 2.0]], "bias": [0, 0]},
            {"op": "affine", "inputs": [1], "dim": 1, "weight": [[1.0, 1.0]], "bias": [0.5]},
        ],
        "output": 2,
        "perturbations": [{"node": 0, "type": "lp", "center": [0.0, 0.0], "eps": 1.0, "p": "inf"}],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, report = _run(capsys, ["compare", str(path)])
    assert code == 0
    widths = {row["width"] for row in report["methods"]}
    assert len(widths) == 1


def test_compare_random_graph_contains_samples(capsys, tmp_path):
    import sys

    sys.path.insert(0, "tests")
    from helpers import random_graph, sample_points
    from lirpa import evaluate, serialize_problem

    rng = np.random.default_rng(21)
    g, specs = random_graph(rng)
    path = tmp_path / "rand.json"
    path.write_text(serialize_problem(g, specs))
    code, report = _run(capsys, ["compare", str(path)])
    assert code == 0
    values = sample_points(g, specs, rng, 1000)
    sampled = evaluate(g, values)[g.output]
    for row in report["methods"]:
        assert np.all(sampled >= np.asarray(row["lower"])[:, None] - 1e-7)
        assert np.all(sampled <= np.asarray(row["upper"])[:, None] + 1e-7)


def test_verify_synonym_document_end_to_end(capsys, tmp_path):
    # word-substitution spec straight from a document, certified via the
    # budget-aware concretization
    doc = {
        "nodes": [
            {"op": "input", "inputs": [], "dim": 2},
            {"op": "affine", "inputs": [0], "dim": 2, "weight": [[1.0, 0.0], [0.0, 1.0]], "bias": [0, 0]},
        ],
        "output": 1,
        "perturbations": [
            {
                "node": 0,
                "type": "synonym",
                "delta": 1,
                "words": ["good", "movie"],
                "substitutions": {"0": ["fine"], "1": ["film"]},
                "embeddings": {
                    "good": [2.0],
                    "fine": [1.5],
                    "movie": [0.1],
                    "film": [0.3],
                },
            }
        ],
    }
    path = tmp_path / "syn.json"
    path.write_text(json.dumps(doc))
    code, report = _run(capsys, ["verify", str(path), "--label", "0", "--method", "backward"])
    assert code == 0
    assert report["verdict"] == "certified"
    # budget 1 allows a single swap: min(1.9, 1.5-0.1, 2.0-0.3) = 1.4
    assert report["margin_lowers"][1] == pytest.approx(1.4, abs=1e-12)
    # the interval path boxes the words jointly (budget ignored): 1.5-0.3
    code, report = _run(capsys, ["verify", str(path), "--label", "0", "--method", "ibp"])
    assert code == 0
    assert report["margin_lowers"][1] == pytest.approx(1.2, abs=1e-12)


def test_fuse_reports_both_bounds(capsys, tmp_path):
    path = tmp_path / "clf.json"
    path.write_text(json.dumps(_classifier_doc(1.0, 0.2)))
    code, report = _run(capsys, ["fuse", str(path), "--label", "0"])
    assert code == 0
    assert report["fused_upper"] <= report["unfused_upper"] + 1e-9
    assert len(report["margin_lowers"]) == 2


def test_fuse_past_expm1_range_reports_a_finite_bound(capsys, tmp_path):
    # margin interval [-700, 696]: the exp chord spans more than expm1 can take
    path = tmp_path / "clf.json"
    path.write_text(json.dumps(_classifier_doc(1.0, 349.0)))
    code, report = _run(capsys, ["fuse", str(path), "--label", "0", "--method", "ibp+backward"])
    assert code == 0
    assert report["unfused_upper"] == 696.0
    assert 696.0 <= report["fused_upper"] <= 696.0 + 1e-9


@pytest.mark.parametrize("argv", [["fuse", "--label", "0"], ["flatness", "--eps-bar", "0.01", "--label", "0"]])
def test_nan_loss_bounds_exit_2(capsys, tmp_path, monkeypatch, argv):
    from lirpa import IntervalBounds
    from lirpa.backward import BoundQuery

    supply = BoundQuery._supply

    def poisoned(query, i):
        if i == 0:  # node 0 is the data input in both graphs
            return IntervalBounds([np.nan], [np.nan])
        return supply(query, i)

    monkeypatch.setattr(BoundQuery, "_supply", poisoned)
    path = tmp_path / "clf.json"
    doc = _classifier_doc(1.0, 0.2)
    # square the input first, so the input interval enters a relaxation
    doc["nodes"].insert(1, {"op": "mul", "inputs": [0, 0], "dim": 1})
    doc["nodes"][2]["inputs"] = [1]
    doc["output"] = 2
    path.write_text(json.dumps(doc))
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert "NaN or inverted" in captured.err
    assert captured.out == ""


def test_flatness_subcommand(capsys, tmp_path):
    path = tmp_path / "clf.json"
    path.write_text(json.dumps(_classifier_doc(1.0, 0.0)))
    code, report = _run(capsys, ["flatness", str(path), "--eps-bar", "0.0", "--label", "0"])
    assert code == 0
    assert report["flatness"] == pytest.approx(0.0, abs=1e-9)
    code, report = _run(capsys, ["flatness", str(path), "--eps-bar", "0.05", "--label", "0"])
    assert code == 0
    assert report["flatness"] >= -1e-9


@pytest.mark.parametrize("eps_bar", ["nan", "inf", "-0.5"])
def test_flatness_rejects_a_non_finite_or_negative_eps_bar(capsys, tmp_path, eps_bar):
    path = tmp_path / "clf.json"
    path.write_text(json.dumps(_classifier_doc(1.0, 0.0)))
    assert main(["flatness", str(path), "--eps-bar", eps_bar, "--label", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: weight perturbation scale must be finite and nonnegative")
    assert captured.out == ""


def test_flatness_data_file(capsys, tmp_path):
    path = tmp_path / "clf.json"
    path.write_text(json.dumps(_classifier_doc(1.0, 0.0)))
    data = tmp_path / "batch.json"
    data.write_text(json.dumps([{"x": [0.5], "label": 1}, {"x": [-0.25], "label": 0}]))
    code, report = _run(
        capsys, ["flatness", str(path), "--eps-bar", "0.02", "--data", str(data)]
    )
    assert code == 0
    assert report["batch_size"] == 2
    assert report["flatness"] >= -1e-9


GOOD_ENTRY = '{"x": [0.5], "label": 1}'


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read data file"),
        ('{"x": [0.5], "label": 1}', "must hold a list"),
        ("[" + GOOD_ENTRY + ', {"label": 0}]', "data entry 1: expected an object"),
        ('[{"x": {"zero": [0.5]}, "label": 0}]', "data entry 0: 'x' must map"),
        ('[{"x": {"0": [0.5], "1": [0.0, 0.0]}, "label": 0}]', "data entry 0: 'x' must map"),
        ('[{"x": {"5": [0.5]}, "label": 0}]', "data entry 0: 'x' must map"),
        ('[{"x": [0.5], "label": true}]', "data entry 0: expected an object"),
        ('[{"x": [0.5], "label": 1.7}]', "data entry 0: expected an object"),
        ('[{"x": [0.5], "label": 2}]', "data entry 0: label 2 out of range"),
        ("[" + GOOD_ENTRY + ', {"x": [0.5, 1.0], "label": 0}]', "data entry 1: spec dim 2"),
        ('[{"x": ["a"], "label": 0}]', "data entry 0:"),
        ('[{"x": [NaN], "label": 0}]', "non-finite number NaN"),
        ('[{"x": [0.5], "label": 0}', "invalid JSON"),
    ],
)
def test_flatness_data_file_fails_closed(capsys, tmp_path, text, message):
    path = tmp_path / "clf.json"
    path.write_text(json.dumps(_classifier_doc(1.0, 0.0)))
    data = tmp_path / "batch.json"
    if text is not None:
        data.write_text(text)
    assert main(["flatness", str(path), "--eps-bar", "0.02", "--data", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def _synonym_problem(**fields):
    entry = {"node": 0, "type": "synonym", "words": ["a", "c"], "substitutions": {"0": ["b"]},
             "embeddings": {"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [0.5, 0.5]}, "delta": 1, **fields}
    return {"nodes": [{"op": "input", "inputs": [], "dim": 4}], "output": 0, "perturbations": [entry]}


def _demo(edit):
    doc = json.loads(demo_doc())
    edit(doc)
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (_demo(lambda d: d["nodes"][2].update(dim=0)), "node 2: dimension must be positive, got 0"),
        (_demo(lambda d: d["nodes"][2].update(inputs=[1, 1])), "node 2: op 'relu' takes 1 input(s), got 2"),
        (_demo(lambda d: d["nodes"].insert(3, [])), "node 3: expected an object"),
        (_demo(lambda d: d["nodes"][5].pop("dim")), "node 5: missing 'op'/'dim'"),
        ([], "document must be an object with a 'nodes' array"),
        (_demo(lambda d: d["perturbations"].append(d["perturbations"][0])), "duplicate perturbation for node 0"),
        (_demo(lambda d: d["perturbations"][0].update(center=[0.0, 1.0, 2.0])),
         "perturbation dim 3 does not match node 0 dim 2"),
        (_demo(lambda d: d.pop("perturbations")), "no perturbation spec for input node 0"),
        (_demo(lambda d: d["perturbations"][0].pop("type")),
         "node 0: malformed perturbation: perturbation entry must be an object with a 'type' field"),
        (_synonym_problem(delta=-1), "node 0: malformed perturbation: substitution budget must be nonnegative"),
        (_synonym_problem(words=[]), "node 0: malformed perturbation: synonym spec requires at least one word"),
        (_synonym_problem(embeddings={"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [0.5, 0.5, 0.5]}),
         "node 0: malformed perturbation: embeddings must share one dimension, got [2, 3]"),
        (_synonym_problem(substitutions={"2": ["b"]}), "node 0: malformed perturbation: substitution position 2 out of range"),
        (_synonym_problem(embeddings={"a": [1.0, 0.0], "c": [0.5, 0.5]}),
         "node 0: malformed perturbation: no embedding for words ['b']"),
    ],
)
def test_bounds_rejects_malformed_document(capsys, tmp_path, doc, message):
    # each is a document error: exit 1 and one message, naming the node wherever the error is a node's
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["bounds", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}"), captured.err
    assert captured.out == ""


def test_flatness_without_a_label_or_a_data_file_exits_1(capsys, tmp_path):
    path = tmp_path / "clf.json"
    path.write_text(json.dumps(_classifier_doc(1.0, 0.0)))
    assert main(["flatness", str(path), "--eps-bar", "0.01"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: flatness needs --label when no --data file is given")
    assert captured.out == ""


def test_reports_print_infinite_and_nan_floats_as_strings():
    from lirpa.cli import _fmt

    assert _fmt(float("inf")) == "inf" and _fmt(float("-inf")) == "-inf" and _fmt(float("nan")) == "nan"
    assert _fmt({"upper": [1.0, float("inf")], "lower": (0.1234567891234, float("nan"))}) == {
        "upper": [1.0, "inf"],
        "lower": [0.123456789, "nan"],
    }


def test_an_unwritable_output_exits_1_and_prints_nothing(capsys, demo_graph, tmp_path):
    assert main(["bounds", demo_graph, "--output", str(tmp_path / "missing" / "r.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write report: ") and "r.json" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "GRAPH", "--method", "bogus"], "argument --method: invalid choice: 'bogus'"),
        (["verify", "GRAPH"], "the following arguments are required: --label"),
        (["bounds"], "the following arguments are required: graph"),
        (["verify", "GRAPH", "--label", "0", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["compare", "GRAPH", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["fuse", "GRAPH", "--label", "0", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["flatness", "GRAPH", "--eps-bar", "0", "--label", "0", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["flatness", "GRAPH", "--eps-bar", "0", "--label", "0", "--eps", "0.1"], "unrecognized arguments: --eps 0.1"),
        (["flatness", "GRAPH", "--eps-bar", "0", "--label", "0", "--p", "2"], "unrecognized arguments: --p 2"),
    ],
)
def test_a_usage_error_exits_1_with_the_usage_text(capsys, demo_graph, argv, message):
    # exit 2 is a domain error; a command line argparse rejects is a usage problem, as a bad document is
    assert main([demo_graph if a == "GRAPH" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: lirpa") and message in captured.err
    assert captured.out == ""


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["bounds", "--help"]) == 0
    assert "--seed" in capsys.readouterr().out


def test_report_key_orders_are_fixed(capsys, tmp_path):
    path = tmp_path / "clf.json"
    path.write_text(json.dumps(_classifier_doc(1.0, 0.2)))
    code, report = _run(capsys, ["verify", str(path), "--label", "0"])
    assert code == 0 and list(report) == ["method", "lower", "upper", "verdict", "margin_lowers", "time_ms"]
    code, report = _run(capsys, ["compare", str(path)])
    assert code == 0 and list(report) == ["methods"]
    for row in report["methods"]:
        assert list(row) == ["method", "lower", "upper", "width", "time_ms"]
    code, report = _run(capsys, ["fuse", str(path), "--label", "0"])
    assert code == 0 and list(report) == ["method", "fused_upper", "unfused_upper", "margin_lowers", "time_ms"]
    code, report = _run(capsys, ["flatness", str(path), "--eps-bar", "0.01", "--label", "0"])
    assert code == 0 and list(report) == ["eps_bar", "flatness", "batch_size", "time_ms"]


def test_the_module_entry_point_prints_the_report_main_returns(capsys):
    import os
    import subprocess
    import sys

    root = Path(__file__).resolve().parents[1]
    demo = str(root / "demo" / "two_layer_relu.json")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "lirpa.cli", "bounds", demo], capture_output=True, text=True, env=env, check=False
    )
    assert done.returncode == 0 and done.stderr == ""
    code, report = _run(capsys, ["bounds", demo])
    assert code == 0
    printed = json.loads(done.stdout)
    assert list(printed) == list(report)
    del printed["time_ms"], report["time_ms"]
    assert printed == report
