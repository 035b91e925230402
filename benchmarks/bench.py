"""In-process layer timings of the spectral core, written to BENCH_layers.json.

    python3 benchmarks/bench.py [--out BENCH_layers.json]

Times one right-hand-side call (the closure `dynamics._spectral_rhs` builds)
and one step of a whole `integrate` call, at N in {256, 2048}, rows in
{1, 5} and eps in {0, 0.1}: triangular kernel, n = 1, L = 20, dt = 0.25 h,
Gaussian strain.  A row is one run; five rows are the deltas of one batched
sweep, stepped together.  A repeat times a batch of calls or steps with
`time.perf_counter` and divides by the batch size; each result is the median
and interquartile range over the repeats, in ms.  The file also records the
grid, rows, repeats, numpy version, CPU count and git commit.  For the
end-to-end CLI workloads see perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from nlwaves import Grid, Kernel, ModelConfig, integrate, make_initial  # noqa: E402
from nlwaves.dynamics import _coefficients, _multiplier, _spectral_rhs, shared_dt  # noqa: E402

SIZES = (256, 2048)
ROWS = (1, 5)
EPSILONS = (0.0, 0.1)
DELTAS = (0.4, 0.2, 0.1, 0.05, None)  # the first `rows` of them
HALF_LENGTH = 20.0
KERNEL = "triangular"
U0 = {"shape": "gaussian", "a": 0.5, "b": 2.0}
REPEATS = 7
RHS_CALLS = 200  # right-hand-side calls per repeat
STEPS = 200  # steps of the integrate call of one repeat


def summary(seconds: list[float]) -> dict:
    ms = [1e3 * s for s in seconds]
    q1, _, q3 = statistics.quantiles(ms, n=4)
    return {"median_ms": statistics.median(ms), "iqr_ms": q3 - q1, "samples_ms": ms}


def time_rhs(grid: Grid, configs, init) -> list[float]:
    multiplier = np.stack([_multiplier(grid, c.kernel, c.delta) for c in configs])
    y = np.repeat(_coefficients(init)[:, None], len(configs), axis=1)
    out = np.empty_like(y)
    rhs = _spectral_rhs(multiplier, configs[0], grid.size, y.shape[1:])
    rhs(y, 0.0, out)  # warm-up
    seconds = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(RHS_CALLS):
            rhs(y, 0.0, out)
        seconds.append((perf_counter() - start) / RHS_CALLS)
    return seconds


def time_step(configs, init) -> list[float]:
    run = configs if len(configs) > 1 else configs[0]
    integrate(run, init)  # warm-up
    seconds = []
    for _ in range(REPEATS):
        start = perf_counter()
        integrate(run, init)
        seconds.append((perf_counter() - start) / STEPS)
    return seconds


def git_commit() -> str | None:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if dirty else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = parser.parse_args(argv)
    results = []
    for size in SIZES:
        grid = Grid(HALF_LENGTH, size)
        dt = shared_dt(grid)
        init = make_initial(U0, None, grid)
        kernel = Kernel(KERNEL)
        for rows in ROWS:
            for eps in EPSILONS:
                configs = [
                    ModelConfig(kernel=kernel, delta=d, dt=dt, t_end=STEPS * dt,
                                epsilon=eps, n=1)
                    for d in DELTAS[:rows]
                ]
                case = {"grid_n": size, "rows": rows, "epsilon": eps}
                timings = {
                    "rhs_call": (RHS_CALLS, time_rhs(grid, configs, init)),
                    "integrate_step": (STEPS, time_step(configs, init)),
                }
                for layer, (batch, seconds) in timings.items():
                    results.append({"layer": layer, **case, "batch": batch, **summary(seconds)})
                    print(f"{layer:15s} N={size:5d} rows={rows} eps={eps:<4g} "
                          f"{results[-1]['median_ms']:.4f} ms (IQR {results[-1]['iqr_ms']:.4f})")
    record = {
        "commit": git_commit(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "setup": {"kernel": KERNEL, "n": 1, "grid_l": HALF_LENGTH, "dt": "0.25 h", "u0": U0,
                  "deltas": list(DELTAS)},
        "results": results,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
