"""Command-line front end.

Subcommands load a graph document, run a bound strategy and emit a JSON
report on stdout (and optionally to a file). Exit codes: 0 success, 1 for
parse/usage problems with the inputs, 2 for domain errors during analysis.
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
from .linear import InputLayout, IntervalBounds
from .perturb import Constant, LpBall, PerturbationSpec, _is_int
from .relaxation import ReluLowerMode

__all__ = ["main", "build_parser"]

_METHODS = {s.value: s for s in BoundStrategy}


def _fmt(value):
    """Round floats to 9 significant digits so reports diff byte-for-byte."""
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return str(value)
        return float(f"{value:.9g}")
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return value


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(_fmt(report), indent=2)
    print(text)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")


def _read(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise GraphError(f"cannot read {what}: {exc}") from exc


def _load(args) -> tuple[Graph, dict[int, PerturbationSpec]]:
    """Parse ``args.graph`` and apply the --eps/--p overrides to its lp balls."""
    g, specs = parse_problem(_read(args.graph, "graph document"))
    for i, spec in specs.items():
        if isinstance(spec, LpBall):
            eps = spec.eps if args.eps is None else args.eps
            try:
                specs[i] = LpBall(spec.center, eps, spec.p if args.p is None else args.p)
            except GraphError as exc:
                raise GraphError(f"node {i}: {exc}") from exc
    return g, specs


def _interval_report(bounds: IntervalBounds) -> tuple[list, list]:
    return bounds.lower.tolist(), bounds.upper.tolist()


def _run_method(g, specs, method, relu_mode, out_coeff=None):
    start = time.perf_counter()
    query = BoundQuery(g, specs, _METHODS[method], relu_mode)
    box = query.bound(g.output, out_coeff)[1]
    return box, (time.perf_counter() - start) * 1000.0, query


def cmd_bounds(args) -> int:
    if args.samples < 0:
        raise GraphError("--samples must be nonnegative")
    g, specs = _load(args)
    box, elapsed, query = _run_method(g, specs, args.method, ReluLowerMode(args.relu))
    lower, upper = _interval_report(box)
    report = {"method": args.method, "lower": lower, "upper": upper}
    if args.all_nodes:
        report["nodes"] = {}
        for i in g.order:
            lo, hi = _interval_report(box if i == g.output else query.node_box(i))
            report["nodes"][str(i)] = {"lower": lo, "upper": hi}
    if args.samples:
        rng = np.random.default_rng(args.seed)
        values = {i: specs[i].sample(rng, args.samples) for i in g.input_ids}
        sampled = evaluate(g, values)[g.output]
        report["sampled_min"] = sampled.min(axis=1).tolist()
        report["sampled_max"] = sampled.max(axis=1).tolist()
    report["time_ms"] = elapsed
    _emit(report, args.output)
    return 0


def cmd_verify(args) -> int:
    g, specs = _load(args)
    k = g.nodes[g.output].dim
    if k < 2:
        raise GraphError(f"verification needs at least 2 classes, output dim is {k}")
    margin = MarginSpec(args.label, k)
    coeff = margin_transform(margin.label, margin.num_classes)
    box, elapsed, _ = _run_method(g, specs, args.method, ReluLowerMode(args.relu), coeff)
    others = [i for i in range(k) if i != margin.label]
    certified = bool(np.all(box.lower[others] > 0.0))
    lower, upper = _interval_report(box)
    report = {
        "method": args.method,
        "lower": lower,
        "upper": upper,
        "verdict": "certified" if certified else "unknown",
        "margin_lowers": lower,
        "time_ms": elapsed,
    }
    _emit(report, args.output)
    return 0


def cmd_compare(args) -> int:
    g, specs = _load(args)
    relu_mode = ReluLowerMode(args.relu)
    rows = []
    for method in ("ibp", "forward", "backward", "ibp+backward"):
        box, elapsed, _ = _run_method(g, specs, method, relu_mode)
        lower, upper = _interval_report(box)
        rows.append(
            {
                "method": method,
                "lower": lower,
                "upper": upper,
                "width": float(np.sum(box.upper - box.lower)),
                "time_ms": elapsed,
            }
        )
    rows.sort(key=lambda r: -r["width"])
    _emit({"methods": rows}, args.output)
    return 0


def cmd_fuse(args) -> int:
    g, specs = _load(args)
    k = g.nodes[g.output].dim
    margin = MarginSpec(args.label, k)
    start = time.perf_counter()
    report_obj = fused_loss_report(
        g, specs, margin, _METHODS[args.method], ReluLowerMode(args.relu)
    )
    elapsed = (time.perf_counter() - start) * 1000.0
    report = {
        "method": args.method,
        "fused_upper": report_obj.fused_upper,
        "unfused_upper": report_obj.unfused_upper,
        "margin_lowers": report_obj.margin_lowers.tolist(),
        "time_ms": elapsed,
    }
    _emit(report, args.output)
    return 0


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


def cmd_flatness(args) -> int:
    g, specs = _load(args)
    batch = _flatness_batch(args, g, specs)
    start = time.perf_counter()
    score = flatness_score(g, args.eps_bar, batch, _METHODS[args.method], ReluLowerMode(args.relu))
    elapsed = (time.perf_counter() - start) * 1000.0
    _emit(
        {
            "eps_bar": args.eps_bar,
            "flatness": score,
            "batch_size": len(batch),
            "time_ms": elapsed,
        },
        args.output,
    )
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("graph", help="path to a graph JSON document")
    sub.add_argument("--method", choices=sorted(_METHODS), default="ibp+backward", help="bound strategy")
    sub.add_argument("--eps", type=float, default=None, help="override every lp ball radius")
    sub.add_argument(
        "--p",
        type=lambda s: math.inf if s == "inf" else float(s),
        default=None,
        help="override every lp ball exponent (1, 2 or inf)",
    )
    sub.add_argument(
        "--relu",
        choices=["adaptive", "zero"],
        default="zero",
        help="lower-line mode for unstable ReLU neurons",
    )
    sub.add_argument("--seed", type=int, default=0, help="seed for sampling diagnostics")
    sub.add_argument("--output", default=None, help="also write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lirpa",
        description="Certified bound propagation over computational graphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_bounds = subs.add_parser("bounds", help="bound the output node")
    _add_common(p_bounds)
    p_bounds.add_argument("--all-nodes", action="store_true", help="include every node's interval")
    p_bounds.add_argument(
        "--samples", type=int, default=0, help="add min/max over sampled points as a sanity check"
    )
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = subs.add_parser("verify", help="certify a label via margin bounds")
    _add_common(p_verify)
    p_verify.add_argument("--label", type=int, required=True, help="ground-truth class index")
    p_verify.set_defaults(func=cmd_verify)

    p_compare = subs.add_parser("compare", help="run all strategies and tabulate widths")
    _add_common(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_fuse = subs.add_parser("fuse", help="fused vs unfused certified loss bounds")
    _add_common(p_fuse)
    p_fuse.add_argument("--label", type=int, required=True, help="ground-truth class index")
    p_fuse.set_defaults(func=cmd_fuse)

    p_flat = subs.add_parser("flatness", help="certified loss gap under weight perturbation")
    _add_common(p_flat)
    p_flat.add_argument("--eps-bar", type=float, required=True, help="normalized weight ball radius")
    p_flat.add_argument("--label", type=int, default=None, help="label for the default example")
    p_flat.add_argument("--data", default=None, help="JSON file with [{'x': ..., 'label': ...}]")
    p_flat.set_defaults(func=cmd_flatness)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
