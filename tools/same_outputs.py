"""Check that the working tree writes the same outputs as a git revision.

    python3 tools/same_outputs.py REV

Exports REV (``git archive``) into a temporary directory, then runs the
three perfbench workload configs (``perfbench/workloads.make_config``) for
seeds 0-9 with the program of REV and with the program of the working tree.
Each seed also runs the simulate-n256 config with breakdown_threshold 1.0,
which breaks down (exit 2) at t=0 or mid-run, so the exact breakdown monitor
decides it; the simulate-n256 config with emit_timeseries false, whose
summary.json is read from the run's first and last samples alone; the
sweep-dispersion-n2048 config with a table kernel: the exponential symbol
sampled into a file that is written once into the temporary directory and
read by both sides; and ``kernel-info`` with the sweep-dispersion-n2048
config and with its table kernel.  It requires equal exit codes (0 or 2),
compares summary.json and every CSV byte for byte (220 files), prints how
many files differ and, per run and file, the largest relative difference
between their numbers (in a CSV, relative to the column's peak; in
summary.json, between the values under the same key) and the summary.json
keys written by one side only, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SEEDS = range(10)


def runs(table: Path) -> dict:
    """label -> (workload, config entries changed, command or None for the
    workload's own): every workload as it is, simulate-n256 with a threshold
    that its initial data reaches and without a time series,
    sweep-dispersion-n2048 with the kernel table file `table`, and
    kernel-info on the sweep-dispersion-n2048 config with its kernel and
    with `table`."""
    sweep, tabled = "sweep-dispersion-n2048", {"kernel": str(table)}
    labelled = {name: (name, {}, None) for name in workloads.WORKLOADS}
    labelled["simulate-n256-breakdown"] = ("simulate-n256", {"breakdown_threshold": 1.0}, None)
    labelled["simulate-n256-summary"] = ("simulate-n256", {"emit_timeseries": False}, None)
    labelled["sweep-dispersion-n2048-table"] = (sweep, tabled, None)
    labelled["kernel-info-n2048"] = (sweep, {}, "kernel-info")
    labelled["kernel-info-n2048-table"] = (sweep, tabled, "kernel-info")
    return labelled


def exponential_table() -> str:
    """The exponential kernel's symbol 1/(1+xi^2) at xi = 0, 0.01, ..., 80, as
    a kernel table file; the sweep's delta * xi stays below 65."""
    xi = [i / 100.0 for i in range(8001)]
    return "".join(f"{x!r} {1.0 / (1.0 + x * x)!r}\n" for x in xi)


def run(src: Path, name: str, changes: dict, command: str | None, seed: int,
        work: Path) -> tuple[int, Path]:
    """Run workload `name` with the config entries `changes`, as `command`
    if given, and the program in `src`; returns its exit code (0, or 2 for
    a breakdown) and its output directory.  Standard output (kernel-info's
    table, which it also writes to kernel_info.csv) is discarded."""
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps({**workloads.make_config(name, seed), **changes}))
    out = work / "out"
    env = {**os.environ, "PYTHONPATH": str(src), "OMP_NUM_THREADS": "1"}
    argv = workloads.argv(name, str(config), str(out))
    if command is not None:
        argv[0] = command
    done = subprocess.run([sys.executable, "-m", "nlwaves.cli", *argv], env=env,
                          stdout=subprocess.DEVNULL)
    if done.returncode not in (0, 2):
        raise subprocess.CalledProcessError(done.returncode, done.args)
    return done.returncode, out


def _columns(text: str) -> list[list[float]]:
    """The numbers of a CSV's rows below its header, column by column."""
    return [list(map(float, c)) for c in zip(*(row.split(",") for row in text.splitlines()[1:]))]


def _leaves(value, path: str = "") -> dict:
    """key path -> value for every leaf of a JSON value."""
    if isinstance(value, dict):
        items = [(f"{path}.{key}" if path else key, v) for key, v in value.items()]
    elif isinstance(value, list):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        return {path: value}
    return {k: v for key, item in items for k, v in _leaves(item, key).items()}


def one_sided_keys(a: bytes, b: bytes) -> set[str]:
    """Key paths of one summary.json that the other lacks."""
    return set(_leaves(json.loads(a))) ^ set(_leaves(json.loads(b)))


def relative_difference(a: bytes, b: bytes, by_column: bool = False) -> float:
    """Largest relative difference between the numbers of two outputs.

    With `by_column` (for CSVs) the numbers are paired in order and each
    difference is relative to the largest finite magnitude in its column of
    either output, so that round-off in entries far below a column's peak
    reads as round-off.  Otherwise the outputs are JSON and the values under
    the same key are paired, each difference relative to the larger of the
    two; keys that one side lacks are left to `one_sided_keys`, and unequal
    values that are not both numbers differ infinitely.
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
        leaves_a, leaves_b = _leaves(json.loads(a)), _leaves(json.loads(b))
        triples = []
        for key in leaves_a.keys() & leaves_b.keys():
            x, y = leaves_a[key], leaves_b[key]
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
                triples.append((float(x), float(y), max(abs(x), abs(y))))
            elif x != y:
                return float("inf")
    worst = 0.0
    for x, y, scale in triples:
        if x != y and not (math.isnan(x) and math.isnan(y)):
            worst = max(worst, abs(x - y) / scale if scale > 0 else float("inf"))
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    args = parser.parse_args()
    compared, differing, exits_differing = 0, 0, 0
    worst = {}  # (run label, file) -> largest relative difference over the seeds
    one_sided = set()  # (run label, summary.json key) written by one side only
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp) / "rev"
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.rev], check=True, capture_output=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(checkout, filter="data")
        table = Path(tmp) / "exponential_table.txt"
        table.write_text(exponential_table())
        for label, (name, changes, command) in runs(table).items():
            for seed in SEEDS:
                work = Path(tmp) / label / str(seed)
                code_a, before = run(checkout / "src", name, changes, command, seed, work / "a")
                code_b, after = run(ROOT / "src", name, changes, command, seed, work / "b")
                if code_a != code_b:
                    exits_differing += 1
                    print(f"{label} seed {seed}: exit {code_a} at REV, {code_b} here")
                files = sorted({p.name for p in [*before.iterdir(), *after.iterdir()]})
                for file in files:
                    compared += 1
                    a, b = before / file, after / file
                    if not (a.exists() and b.exists()):
                        differing += 1
                        worst[label, file] = float("inf")
                        print(f"{label} seed {seed}: {file} written by one side only")
                    elif a.read_bytes() != b.read_bytes():
                        differing += 1
                        csv = file.endswith(".csv")
                        diff = relative_difference(a.read_bytes(), b.read_bytes(), by_column=csv)
                        worst[label, file] = max(worst.get((label, file), 0.0), diff)
                        if not csv:
                            keys = one_sided_keys(a.read_bytes(), b.read_bytes())
                            one_sided |= {(label, key) for key in keys}
                        print(f"{label} seed {seed}: {file} differs")
    for (label, file), diff in sorted(worst.items()):
        print(f"{label} {file}: largest relative difference {diff:.3g}")
    for label, key in sorted(one_sided):
        print(f"{label} summary.json: key {key} written by one side only")
    print(f"{compared} files compared, {differing} differ, "
          f"largest relative difference {max(worst.values(), default=0.0):.3g}; "
          f"{exits_differing} exit codes differ")
    return 1 if differing or exits_differing else 0


if __name__ == "__main__":
    sys.exit(main())
