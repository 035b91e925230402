"""Write reference.json: final fields and sweep results for seeds 0..9.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are trusted.  The committed
file was written from the initial import of nlwaves; regenerating it on a
later commit would let a wrong answer become the reference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import check
import workloads
from run import Runner

SEEDS = range(10)


def reference_values(runner: Runner) -> dict:
    runner.reference = None
    inv = runner.invoke(trace=False)
    if not inv.ok:
        raise SystemExit(f"{runner.name}: {inv.problem}")
    out = runner.work / "out"
    summary = check.read_summary(out)
    if summary["command"] == "simulate":
        values = {k: summary["final"][k] for k in ("energy", "monitor")}
        for var in ("u", "v"):
            rows = check.read_csv(out / f"final_{var}.csv", "x,value")
            values[f"final_{var}"] = [r[1] for r in rows]
        return values
    return {k: summary[k] for k in ("errors", "slope", "r2")}


def main() -> int:
    root = Path.cwd()
    table = {
        name: {str(seed): reference_values(Runner(root, name, seed)) for seed in SEEDS}
        for name in workloads.WORKLOADS
    }
    check.REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
