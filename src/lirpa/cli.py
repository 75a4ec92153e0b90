"""Command-line front end.

Each subcommand returns a JSON report of its graph document; ``main`` loads
the document, runs the subcommand and writes the report to ``--output`` (if
given) and to stdout. Exit codes: 0 success, 1 for usage problems and
malformed inputs (including a report that cannot be written), 2 for domain
errors during analysis.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .backward import BoundQuery, BoundStrategy
from .errors import DomainError, GraphError
from .fusion import MarginSpec, flatness_score, fused_loss_report, margin_transform
from .graph import Graph, _load_json, evaluate, parse_problem
from .linear import InputLayout
from .perturb import Constant, LpBall, _is_int
from .relaxation import ReluLowerMode

__all__ = ["main", "build_parser"]


def _fmt(value):
    """Round floats to 9 significant digits so reports diff byte-for-byte."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return str(value)
        return float(f"{value:.9g}")
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return value


def _read(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise GraphError(f"cannot read {what}: {exc}") from exc


def _timed(fn, *args):
    """``fn(*args)`` and the milliseconds it took."""
    start = time.perf_counter()
    result = fn(*args)
    return result, (time.perf_counter() - start) * 1000.0


def _run(args, g, specs, method, out_coeff=None):
    """The output's box under ``method``, the ms that building and running its query took, and the query."""
    query, build_ms = _timed(BoundQuery, g, specs, BoundStrategy(method), ReluLowerMode(args.relu))
    (_, box), bound_ms = _timed(query.bound, g.output, out_coeff)
    return box, build_ms + bound_ms, query


def cmd_bounds(args, g, specs) -> dict:
    if args.samples < 0:
        raise GraphError("--samples must be nonnegative")
    box, elapsed, query = _run(args, g, specs, args.method)
    report = {"method": args.method, "lower": box.lower, "upper": box.upper}
    if args.all_nodes:
        boxes = {i: box if i == g.output else query.node_box(i) for i in g.order}
        report["nodes"] = {str(i): {"lower": b.lower, "upper": b.upper} for i, b in boxes.items()}
    if args.samples:
        rng = np.random.default_rng(args.seed)
        sampled = evaluate(g, {i: specs[i].sample(rng, args.samples) for i in g.input_ids})[g.output]
        report["sampled_min"], report["sampled_max"] = sampled.min(axis=1), sampled.max(axis=1)
    report["time_ms"] = elapsed
    return report


def cmd_verify(args, g, specs) -> dict:
    k = g.nodes[g.output].dim
    if k < 2:
        raise GraphError(f"verification needs at least 2 classes, output dim is {k}")
    box, elapsed, _ = _run(args, g, specs, args.method, margin_transform(args.label, k))
    certified = bool(np.all(np.delete(box.lower, args.label) > 0.0))
    return {
        "method": args.method,
        "lower": box.lower,
        "upper": box.upper,
        "verdict": "certified" if certified else "unknown",
        "margin_lowers": box.lower,
        "time_ms": elapsed,
    }


def cmd_compare(args, g, specs) -> dict:
    rows = []
    for method in BoundStrategy:
        box, elapsed, _ = _run(args, g, specs, method)
        width = float(np.sum(box.upper - box.lower))
        rows.append(
            {"method": method.value, "lower": box.lower, "upper": box.upper, "width": width, "time_ms": elapsed}
        )
    return {"methods": sorted(rows, key=lambda r: -r["width"])}


def cmd_fuse(args, g, specs) -> dict:
    margin = MarginSpec(args.label, g.nodes[g.output].dim)
    report, elapsed = _timed(
        fused_loss_report, g, specs, margin, BoundStrategy(args.method), ReluLowerMode(args.relu)
    )
    return {
        "method": args.method,
        "fused_upper": report.fused_upper,
        "unfused_upper": report.unfused_upper,
        "margin_lowers": report.margin_lowers,
        "time_ms": elapsed,
    }


def _flatness_entry(g: Graph, entry) -> tuple[dict[int, np.ndarray], int]:
    if not isinstance(entry, dict) or "x" not in entry or not _is_int(entry.get("label")):
        raise GraphError("expected an object with 'x' and an integer 'label'")
    x = entry["x"]
    if not isinstance(x, dict) and len(g.input_ids) == 1:
        x = {str(g.input_ids[0]): x}
    if not isinstance(x, dict) or set(x) != {str(i) for i in g.input_ids}:
        raise GraphError(f"'x' must map each input node id {list(g.input_ids)} to a vector")
    points = {int(i): Constant(v) for i, v in x.items()}
    InputLayout.from_specs(g, points)  # checks each vector's dim
    label = MarginSpec(entry["label"], g.nodes[g.output].dim).label
    return {i: p.center for i, p in points.items()}, label


def _flatness_batch(args, g, specs) -> list[tuple[dict[int, np.ndarray], int]]:
    if args.data:
        entries = _load_json(_read(args.data, "data file"))
        if not isinstance(entries, list):
            raise GraphError("data file must hold a list of entries")
        batch = []
        for idx, entry in enumerate(entries):
            try:
                batch.append(_flatness_entry(g, entry))
            except (GraphError, TypeError, ValueError) as exc:
                raise GraphError(f"data entry {idx}: {exc}") from exc
        return batch
    if args.label is None:
        raise GraphError("flatness needs --label when no --data file is given")
    values = {i: specs[i].center for i in g.input_ids}
    return [(values, args.label)]


def cmd_flatness(args, g, specs) -> dict:
    batch = _flatness_batch(args, g, specs)
    score, elapsed = _timed(
        flatness_score, g, args.eps_bar, batch, BoundStrategy(args.method), ReluLowerMode(args.relu)
    )
    return {"eps_bar": args.eps_bar, "flatness": score, "batch_size": len(batch), "time_ms": elapsed}


def _subcommand(subs, name: str, func, help: str, balls: bool = True) -> argparse.ArgumentParser:
    """A subcommand's parser with the options they all take, and ``--eps``/``--p`` where ``balls``."""
    sub = subs.add_parser(name, help=help, allow_abbrev=balls)  # no --eps to read as flatness's --eps-bar
    sub.add_argument("graph", help="path to a graph JSON document")
    methods = sorted(s.value for s in BoundStrategy)
    sub.add_argument("--method", choices=methods, default="ibp+backward", help="bound strategy")
    if balls:
        sub.add_argument("--eps", type=float, default=None, help="override every lp ball radius")
        p = lambda s: math.inf if s == "inf" else float(s)
        sub.add_argument("--p", type=p, default=None, help="override every lp ball exponent (1, 2 or inf)")
    relu = ["adaptive", "zero"]
    sub.add_argument("--relu", choices=relu, default="zero", help="lower-line mode for unstable ReLU neurons")
    sub.add_argument("--output", default=None, help="also write the report to this path")
    sub.set_defaults(func=func)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lirpa", description="Certified bound propagation over computational graphs")
    subs = parser.add_subparsers(dest="command", required=True)

    p_bounds = _subcommand(subs, "bounds", cmd_bounds, "bound the output node")
    p_bounds.add_argument("--all-nodes", action="store_true", help="include every node's interval")
    p_bounds.add_argument(
        "--samples", type=int, default=0, help="add min/max over sampled points as a sanity check"
    )
    p_bounds.add_argument("--seed", type=int, default=0, help="seed for --samples")

    p_verify = _subcommand(subs, "verify", cmd_verify, "certify a label via margin bounds")
    p_verify.add_argument("--label", type=int, required=True, help="ground-truth class index")

    _subcommand(subs, "compare", cmd_compare, "run all strategies and tabulate widths")

    p_fuse = _subcommand(subs, "fuse", cmd_fuse, "fused vs unfused certified loss bounds")
    p_fuse.add_argument("--label", type=int, required=True, help="ground-truth class index")

    # flatness scores pinned points, so no lp ball radius or exponent applies
    p_flat = _subcommand(subs, "flatness", cmd_flatness, "certified loss gap under weight perturbation", balls=False)
    p_flat.add_argument("--eps-bar", type=float, required=True, help="normalized weight ball radius")
    p_flat.add_argument("--label", type=int, default=None, help="label for the default example")
    p_flat.add_argument("--data", default=None, help="JSON file with [{'x': ..., 'label': ...}]")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 after a usage error, which is exit 1 here
        return 1 if exc.code else 0
    try:
        g, specs = parse_problem(_read(args.graph, "graph document"))
        for i, spec in specs.items():
            if isinstance(spec, LpBall) and "eps" in args:  # flatness takes no --eps/--p
                eps = spec.eps if args.eps is None else args.eps
                try:
                    specs[i] = LpBall(spec.center, eps, spec.p if args.p is None else args.p)
                except GraphError as exc:
                    raise GraphError(f"node {i}: {exc}") from exc
        text = json.dumps(_fmt(args.func(args, g, specs)), indent=2)
        if args.output:
            try:
                with open(args.output, "w") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise GraphError(f"cannot write report: {exc}") from exc
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
