"""Check that the working tree writes the same outputs as a git revision.

    python3 tools/same_outputs.py REV

Checks REV out into a temporary git worktree, then runs the three perfbench
workload configs (``perfbench/workloads.make_config``) for seeds 0-9 with the
program of REV and with the program of the working tree.  It compares
summary.json and every CSV byte for byte, prints how many files differ and
the largest relative difference between their numbers, and exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SEEDS = range(10)
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf)")


def run(src: Path, name: str, seed: int, work: Path) -> Path:
    """Run one workload with the program in `src`; returns its output directory."""
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(workloads.make_config(name, seed)))
    out = work / "out"
    env = {**os.environ, "PYTHONPATH": str(src), "OMP_NUM_THREADS": "1"}
    argv = workloads.argv(name, str(config), str(out))
    subprocess.run([sys.executable, "-m", "nlwaves.cli", *argv], env=env, check=True)
    return out


def relative_difference(a: bytes, b: bytes) -> float:
    """Largest relative difference between the numbers of two outputs, in order."""
    xs, ys = NUMBER.findall(a.decode()), NUMBER.findall(b.decode())
    if len(xs) != len(ys):
        return float("inf")
    worst = 0.0
    for x, y in zip(map(float, xs), map(float, ys)):
        if x != y and not (math.isnan(x) and math.isnan(y)):
            scale = max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / scale if scale > 0 else float("inf"))
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    args = parser.parse_args()
    compared, differing, worst = 0, 0, 0.0
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp) / "rev"
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach", str(checkout), args.rev],
            check=True, capture_output=True,
        )
        try:
            for name in workloads.WORKLOADS:
                for seed in SEEDS:
                    before = run(checkout / "src", name, seed, Path(tmp) / "a" / name / str(seed))
                    after = run(ROOT / "src", name, seed, Path(tmp) / "b" / name / str(seed))
                    files = sorted({p.name for p in before.iterdir()} | {p.name for p in after.iterdir()})
                    for file in files:
                        compared += 1
                        a, b = before / file, after / file
                        if not (a.exists() and b.exists()):
                            differing += 1
                            worst = float("inf")
                            print(f"{name} seed {seed}: {file} written by one side only")
                        elif a.read_bytes() != b.read_bytes():
                            differing += 1
                            worst = max(worst, relative_difference(a.read_bytes(), b.read_bytes()))
                            print(f"{name} seed {seed}: {file} differs")
        finally:
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", "remove", "--force", str(checkout)],
                check=True, capture_output=True,
            )
    print(f"{compared} files compared, {differing} differ, "
          f"largest relative difference {worst:.3g}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
