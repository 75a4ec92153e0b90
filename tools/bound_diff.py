"""Which of the digest's bounds moved between two checkouts, and whether any got looser.

    python3 tools/bound_diff.py --old DIR [--new DIR]

Runs every call of ``bound_digest.corpus`` once against each ``src``
directory (``--new`` defaults to this checkout's), each side in its own
interpreter; the graphs come from this checkout's ``tests/helpers.py`` and
``tools/mlp.py``. Prints one line per family (the called function's name):
its number of calls, how many moved (any result byte differs, or the call
raises on one side only) and how many are looser. A result is looser when a lower bound
fell or an upper bound rose by more than 1e-15 of max(1, |l|, |u|), over
its interval's finite ends on the old side. An interval's ends, ``fused_loss_report``'s
fields and the loss and flatness values are bounds; other data (a native
linear bound's coefficients, a relaxation's lines) only moves. Each call
that raises on one side only, and each looser one, is listed below its
family's line. Exits 1 if any result is looser, else 0.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SLACK = 1e-15

# what a result's bare values bound, by position; a result object's fields say it by name
BARE = {
    "bound_loss_fused": ("upper",), "bound_loss_unfused": ("upper", "lower"),
    "flatness_score": ("upper",), "flatness_score_wide": ("upper",),
}
FIELDS = dict(lower="lower", margin_lowers="lower", upper="upper", fused_upper="upper", unfused_upper="upper")


def groups(family: str, result) -> list[dict[str, np.ndarray]]:
    """A result as groups of float64 arrays keyed ``lower``, ``upper`` or ``data``; an interval is one group."""
    out = []
    for k, value in enumerate(result if isinstance(result, tuple) else (result,)):
        if dataclasses.is_dataclass(value):  # its fields, not what its cached properties keep beside them
            fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
            if fields.keys() == {"lower", "upper"}:
                out.append({side: np.asarray(a, dtype=np.float64) for side, a in fields.items()})
            else:
                out += [{FIELDS.get(name, "data"): np.asarray(a, dtype=np.float64)} for name, a in fields.items()]
        else:
            sides = BARE.get(family, ())
            out.append({sides[k] if k < len(sides) else "data": np.asarray(value, dtype=np.float64)})
    return out


def looser(old: list[dict], new: list[dict]) -> bool:
    """Whether some lower bound of ``new`` fell, or some upper bound rose, beyond the slack of ``old``'s scale."""
    for was, now in zip(old, new):
        ends = [np.abs(np.where(np.isfinite(was[side]), was[side], 0.0)) for side in ("lower", "upper") if side in was]
        scale = SLACK * np.maximum(1.0, np.max(ends, axis=0)) if ends else 0.0
        if "lower" in was and np.any(now["lower"] < was["lower"] - scale):
            return True
        if "upper" in was and np.any(now["upper"] > was["upper"] + scale):
            return True
    return False


def moved(old, new) -> bool:
    if isinstance(old, str) or isinstance(new, str):  # an exception's type name
        return old != new
    return len(old) != len(new) or any(
        was.keys() != now.keys() or any(was[k].tobytes() != now[k].tobytes() for k in was) for was, now in zip(old, new)
    )


def run(src: Path) -> list[tuple[str, object]]:
    """Each corpus call's family and its result groups, or the type name of what it raised, under ``src``."""
    sys.path[:0] = [str(src), str(ROOT / "tests"), str(ROOT / "tools")]
    import lirpa
    from bound_digest import corpus

    results = []
    for call, call_args in corpus(lirpa):
        family = call.__name__
        try:
            results.append((family, groups(family, call(*call_args))))
        except Exception as exc:  # an error is part of the behaviour compared
            results.append((family, type(exc).__name__))
    return results


def side(src: Path) -> list[tuple[str, object]]:
    """``run(src)`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, __file__, "--dump", str(src)], capture_output=True, check=True)
    return pickle.loads(done.stdout)


def report(old: list, new: list) -> tuple[list[str], bool]:
    """The per-family lines and whether any result is looser; both sides list the same calls in order."""
    counts, index, listed, any_looser = Counter(), Counter(), {}, False
    for (family, was), (_, now) in zip(old, new):
        k = index[family]
        index[family] += 1
        counts[family, "calls"] += 1
        if not moved(was, now):
            continue
        counts[family, "moved"] += 1
        if isinstance(was, str) or isinstance(now, str):
            name = lambda r: r if isinstance(r, str) else "a result"
            listed.setdefault(family, []).append(f"    {family}[{k}] raises: {name(was)} -> {name(now)}")
        elif looser(was, now):
            counts[family, "looser"] += 1
            any_looser = True
            listed.setdefault(family, []).append(f"    {family}[{k}] looser")
    lines = []
    for family in index:
        c = [counts[family, key] for key in ("calls", "moved", "looser")]
        lines.append(f"{family}: {c[0]} calls, {c[1]} moved, {c[2]} looser")
        lines += listed.get(family, [])
    return lines, any_looser


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--old", type=Path)
    p.add_argument("--new", type=Path, default=ROOT / "src")
    p.add_argument("--dump", type=Path, help=argparse.SUPPRESS)  # one side's results, pickled to stdout
    args = p.parse_args()
    if args.dump is not None:
        sys.stdout.buffer.write(pickle.dumps(run(args.dump)))
        return
    if args.old is None:
        p.error("--old is required")
    lines, any_looser = report(side(args.old), side(args.new))
    print("\n".join(lines))
    sys.exit(1 if any_looser else 0)


if __name__ == "__main__":
    main()
