"""Check that the working tree writes the same outputs as a git revision.

    python3 tools/same_outputs.py REV

Exports REV (``git archive``) into a temporary directory, then runs the
three perfbench workload configs (``perfbench/workloads.make_config``) for
seeds 0-9 with the program of REV and with the program of the working tree.
Each seed also runs the simulate-n256 config with breakdown_threshold 1.0,
which breaks down (exit 2) at t=0 or mid-run, so the exact breakdown monitor
decides it.  It requires equal exit codes (0 or 2), compares summary.json
and every CSV byte for byte, prints how many files differ and the largest
relative difference between their numbers (in a CSV, relative to the
column's peak), and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SEEDS = range(10)
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf)")
#: label -> (workload, config entries changed): every workload as it is, and
#: simulate-n256 with a threshold that its initial data reaches
RUNS = {name: (name, {}) for name in workloads.WORKLOADS}
RUNS["simulate-n256-breakdown"] = ("simulate-n256", {"breakdown_threshold": 1.0})


def run(src: Path, label: str, seed: int, work: Path) -> tuple[int, Path]:
    """Run one labelled config with the program in `src`; returns its exit code
    (0, or 2 for a breakdown) and its output directory."""
    name, changes = RUNS[label]
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps({**workloads.make_config(name, seed), **changes}))
    out = work / "out"
    env = {**os.environ, "PYTHONPATH": str(src), "OMP_NUM_THREADS": "1"}
    argv = workloads.argv(name, str(config), str(out))
    done = subprocess.run([sys.executable, "-m", "nlwaves.cli", *argv], env=env)
    if done.returncode not in (0, 2):
        raise subprocess.CalledProcessError(done.returncode, done.args)
    return done.returncode, out


def _columns(text: str) -> list[list[float]]:
    """The numbers of a CSV's rows below its header, column by column."""
    return [list(map(float, c)) for c in zip(*(row.split(",") for row in text.splitlines()[1:]))]


def relative_difference(a: bytes, b: bytes, by_column: bool = False) -> float:
    """Largest relative difference between the numbers of two outputs, in order.

    Each difference is relative to the larger of its two numbers, or, with
    `by_column` (for CSVs), to the largest finite magnitude in its column of
    either output, so that round-off in entries far below a column's peak
    reads as round-off.
    """
    if by_column:
        columns_a, columns_b = _columns(a.decode()), _columns(b.decode())
        if [len(c) for c in columns_a] != [len(c) for c in columns_b]:
            return float("inf")
        triples = []
        for xs, ys in zip(columns_a, columns_b):
            peak = max((abs(v) for v in xs + ys if math.isfinite(v)), default=0.0)
            triples += [(x, y, peak) for x, y in zip(xs, ys)]
    else:
        xs, ys = NUMBER.findall(a.decode()), NUMBER.findall(b.decode())
        if len(xs) != len(ys):
            return float("inf")
        triples = [(x, y, max(abs(x), abs(y))) for x, y in zip(map(float, xs), map(float, ys))]
    worst = 0.0
    for x, y, scale in triples:
        if x != y and not (math.isnan(x) and math.isnan(y)):
            worst = max(worst, abs(x - y) / scale if scale > 0 else float("inf"))
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    args = parser.parse_args()
    compared, differing, exits_differing, worst = 0, 0, 0, 0.0
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp) / "rev"
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.rev], check=True, capture_output=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(checkout, filter="data")
        for label in RUNS:
            for seed in SEEDS:
                work = Path(tmp) / label / str(seed)
                code_a, before = run(checkout / "src", label, seed, work / "a")
                code_b, after = run(ROOT / "src", label, seed, work / "b")
                if code_a != code_b:
                    exits_differing += 1
                    print(f"{label} seed {seed}: exit {code_a} at REV, {code_b} here")
                files = sorted({p.name for p in [*before.iterdir(), *after.iterdir()]})
                for file in files:
                    compared += 1
                    a, b = before / file, after / file
                    if not (a.exists() and b.exists()):
                        differing += 1
                        worst = float("inf")
                        print(f"{label} seed {seed}: {file} written by one side only")
                    elif a.read_bytes() != b.read_bytes():
                        differing += 1
                        worst = max(worst, relative_difference(
                            a.read_bytes(), b.read_bytes(), by_column=file.endswith(".csv")))
                        print(f"{label} seed {seed}: {file} differs")
    print(f"{compared} files compared, {differing} differ, "
          f"largest relative difference {worst:.3g}; {exits_differing} exit codes differ")
    return 1 if differing or exits_differing else 0


if __name__ == "__main__":
    sys.exit(main())
