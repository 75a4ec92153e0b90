"""The ``tools/`` scripts run at their smallest setting and print the rows their docstrings describe.

Each runs in its own interpreter, as from the command line, against this
checkout's ``src``; the scripts read the package's public names and
``BoundQuery``, so a renamed or deleted name breaks them here first.
``bound_diff``'s comparison is also checked on made-up results.
"""
import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lirpa import IntervalBounds

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _run(script: str, *args: str) -> list[str]:
    done = subprocess.run([sys.executable, str(TOOLS / script), *args], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize(
    "script, args, setting, fields",
    [
        ("backward_depth.py", ["--nets", "2x8", "--runs", "2"], {"net": "2x8"}, {"min_ms"}),
        ("loss_fusion_k.py", ["--classes", "10"], {"classes": 10}, {"peak_mb"}),
        ("flatness_width.py", ["--widths", "8"], {"width": 8}, {"peak_mb", "minor_faults_per_query"}),
    ],
)
def test_a_sweep_prints_one_json_row_per_setting(script, args, setting, fields):
    (line,) = _run(script, *args)
    row = json.loads(line)
    assert row.items() >= setting.items() and row.keys() >= fields
    numbers = [v for k, v in row.items() if k not in setting]
    assert numbers and all(isinstance(v, (int, float)) and math.isfinite(v) for v in numbers)
    assert row["time_ms"] > 0.0 and row.get("min_ms", 0.0) <= row["time_ms"]
    if "peak_mb" in row:  # rounded, so rows compare across checkouts
        assert row["peak_mb"] == round(row["peak_mb"], 3)
    if "minor_faults_per_query" in row:
        assert row["minor_faults_per_query"] >= 0.0


def test_the_digest_prints_its_count_and_one_line_per_function():
    first, *rest, folded = _run("bound_digest.py")
    assert re.fullmatch(r"4800 results sha256 [0-9a-f]{64}", first)
    assert rest and all(re.fullmatch(r"  \d+ [\w.]+ sha256 [0-9a-f]{64}", line) for line in rest)
    # the last line covers every call, also those the first line leaves out, with each zero's sign folded
    counts = {line.split()[1]: int(line.split()[0]) for line in rest}
    assert counts["compute_bounds_margin"] == 100  # 10 classifiers, 5 strategies, 2 ReLU modes
    assert counts["compute_bounds_pinned_last"] == 2260  # 29 two-input graphs, 226 nodes, 5 strategies, 2 modes
    assert counts["relax"] == 31  # ReLU in 2 modes x 4 grids, Exp 4, Log 3, Mul 4 grids x 4 pinnings
    assert counts["flatness_score_wide"] == 30  # 3 nets, 5 strategies, 2 modes
    assert counts["pop_order"] == 5350  # the backward passes of the calls above, one pop order each
    left_out = ["bound_loss_unfused", "compute_bounds_margin", "compute_bounds_pinned_last", "relax"]
    left_out = sum(counts[f] for f in left_out + ["flatness_score_wide"])
    assert re.fullmatch(rf"  {4800 + left_out} folded sha256 [0-9a-f]{{64}}", folded)


def test_the_bound_diff_of_a_checkout_against_itself_moves_nothing():
    lines = _run("bound_diff.py", "--old", str(TOOLS.parent / "src"))
    families = [re.fullmatch(r"(\w+): (\d+) calls, 0 moved, 0 looser", line).group(1, 2) for line in lines]
    assert dict(families)["compute_bounds"] == "4500" and len(families) == 9


def _bound_diff():
    spec = importlib.util.spec_from_file_location("bound_diff", TOOLS / "bound_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_bound_diff_flags_a_looser_box_and_lists_a_one_sided_raise(monkeypatch, capsys):
    bd = _bound_diff()
    box = lambda lower, upper: bd.groups("compute_bounds", (np.zeros((2, 3)), IntervalBounds(lower, upper)))
    old = [("compute_bounds", box([-1.0, 2.0], [1.0, 3.0]))] * 4 + [
        ("compute_bounds", box([-1.0, 2.0], [1.0, math.inf])),
        ("flatness_score", bd.groups("flatness_score", 0.5)),
    ]
    new = [
        ("compute_bounds", box([-1.0, 2.0], [1.0, 3.0])),  # the same bytes
        ("compute_bounds", box([-1.0, 2.0], [1.0, 3.0 + 2e-15])),  # rounding: within 1e-15 of 3
        ("compute_bounds", box([-1.0 - 1e-12, 2.0], [1.0, 3.0])),  # a lower end fell
        ("compute_bounds", "DomainError"),
        ("compute_bounds", box([-1.0 - 1e-12, 2.0], [1.0, math.inf])),  # an infinite end sets no scale
        ("flatness_score", bd.groups("flatness_score", 0.25)),  # a tighter upper bound
    ]
    lines, any_looser = bd.report(old, new)
    assert any_looser and lines == [
        "compute_bounds: 5 calls, 4 moved, 2 looser",
        "    compute_bounds[2] looser",
        "    compute_bounds[3] raises: a result -> DomainError",
        "    compute_bounds[4] looser",
        "flatness_score: 1 calls, 1 moved, 0 looser",
    ]
    assert bd.report(old, old) == ([
        "compute_bounds: 5 calls, 0 moved, 0 looser", "flatness_score: 1 calls, 0 moved, 0 looser"
    ], False)
    # the command exits 1 on a looser result
    monkeypatch.setattr(bd, "side", lambda src: old if src.name == "old" else new)
    monkeypatch.setattr(sys, "argv", ["bound_diff.py", "--old", "old", "--new", "new"])
    with pytest.raises(SystemExit) as exit_:
        bd.main()
    assert exit_.value.code == 1 and capsys.readouterr().out.splitlines() == lines
