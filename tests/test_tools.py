"""The ``tools/`` scripts run at their smallest setting and print the rows their docstrings describe.

Each runs in its own interpreter, as from the command line, against this
checkout's ``src``; the scripts read the package's public names and
``BoundQuery``, so a renamed or deleted name breaks them here first.
"""
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _run(script: str, *args: str) -> list[str]:
    done = subprocess.run([sys.executable, str(TOOLS / script), *args], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize(
    "script, args, setting",
    [
        ("backward_depth.py", ["--nets", "2x8", "--runs", "1"], {"net": "2x8"}),
        ("loss_fusion_k.py", ["--classes", "10"], {"classes": 10}),
        ("flatness_width.py", ["--widths", "8"], {"width": 8}),
    ],
)
def test_a_sweep_prints_one_json_row_per_setting(script, args, setting):
    (line,) = _run(script, *args)
    row = json.loads(line)
    assert row.items() >= setting.items()
    numbers = [v for k, v in row.items() if k not in setting]
    assert numbers and all(isinstance(v, (int, float)) and math.isfinite(v) for v in numbers)
    assert row["time_ms"] > 0.0


def test_the_digest_prints_its_count_and_one_line_per_function():
    first, *rest, folded = _run("bound_digest.py")
    assert re.fullmatch(r"4800 results sha256 [0-9a-f]{64}", first)
    assert rest and all(re.fullmatch(r"  \d+ [\w.]+ sha256 [0-9a-f]{64}", line) for line in rest)
    # the last line covers every call, also those the first line leaves out, with each zero's sign folded
    counts = {line.split()[1]: int(line.split()[0]) for line in rest}
    assert counts["compute_bounds_margin"] == 100  # 10 classifiers, 5 strategies, 2 ReLU modes
    assert counts["relax"] == 31  # ReLU in 2 modes x 4 grids, Exp 4, Log 3, Mul 4 grids x 4 pinnings
    assert counts["pop_order"] == 3790  # the backward passes of the calls above, one pop order each
    left_out = counts["bound_loss_unfused"] + counts["compute_bounds_margin"] + counts["relax"]
    assert re.fullmatch(rf"  {4800 + left_out} folded sha256 [0-9a-f]{{64}}", folded)
