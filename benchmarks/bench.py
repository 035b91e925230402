"""In-process layer timings of the spectral core, written to BENCH_layers.json.

    python3 benchmarks/bench.py [--out BENCH_layers.json]

Times one symbol evaluation (`Kernel.scaled_sqrt_symbol` over the real-FFT
frequencies, for each built-in kernel, at delta 0.4) at N in {256, 2048}.
Times one right-hand-side call (the closure for dt/2 that
`dynamics._spectral_rhs` builds, under the numpy settings with which
`dynamics._drive` steps a march), one bare RK4 step (the first scaled stage and
`dynamics._rk4` on the closures for dt/2 and dt, under the same
settings, with no check, probe or snapshot, stepping its state in place) and one step of a whole
`integrate` call, at N in {256, 2048}, rows in {1, 5} and eps in {0, 0.1}:
triangular kernel, n = 1, L = 20, dt = 0.25 h, Gaussian strain.  A row is
one run; five rows are the deltas of one batched sweep, stepped together.
At eps 0.1 it also times the breakdown check's two layers on the
coefficients after 20 steps, under the same settings: the bound from the
state (`dynamics._state_bound`, its abs written into a spare array as the
march's stage buffer takes it) and the exact monitor (the product M v^ and
`dynamics._monitor`).  Each (N, rows, eps) cell also records
`integrate_peak_bytes`: the tracemalloc peak of one whole `integrate` call
above the memory traced before it, after an untraced call, a number that
repeats from run to run where timings do not.  It times one step of an
`integrate_chain` call that
steps the lattice sweep's four chains of deltas h * {8, 4, 2, 1} at N=2048
and eps 0.1, and one diagnostic sample as each command takes it from the
stepped arrays: `simulate`'s energy, monitor and |u|_inf at N=256 (one row,
eps 0.1), the dispersion sweep's errors at N=2048 (five rows: the classical
run and four deltas), and the lattice sweep's classical (u, u_t) and the
errors of the four chains at N=2048.  A repeat times a batch of calls, steps
or samples with `time.perf_counter` and divides by the batch size; each
result is the median and interquartile range over the repeats, in ms.  The
file also records the grid, rows, repeats, numpy version, CPU count and git
commit.  For the end-to-end CLI workloads see perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from nlwaves import Grid, Kernel, ModelConfig, integrate, make_initial  # noqa: E402
from nlwaves import convergence, dynamics, lattice  # noqa: E402
from nlwaves.dynamics import _coefficients, _multiplier, _rk4, _spectral_rhs, shared_dt  # noqa: E402
from nlwaves.kernels import BUILTIN_NAMES  # noqa: E402
from nlwaves.spectral import norm_weights  # noqa: E402

SIZES = (256, 2048)
ROWS = (1, 5)
EPSILONS = (0.0, 0.1)
DELTAS = (0.4, 0.2, 0.1, 0.05, None)  # the first `rows` of them
HALF_LENGTH = 20.0
KERNEL = "triangular"
U0 = {"shape": "gaussian", "a": 0.5, "b": 2.0}
REPEATS = 7
RHS_CALLS = 200  # symbol, right-hand-side, bare-step or monitor calls per repeat
STEPS = 200  # steps of the integrate call of one repeat
SAMPLES = 200  # diagnostic samples per repeat
CHAIN_STRIDES = (8, 4, 2, 1)  # the lattice sweep's deltas, in grid spacings


def summary(seconds: list[float]) -> dict:
    ms = [1e3 * s for s in seconds]
    q1, _, q3 = statistics.quantiles(ms, n=4)
    return {"median_ms": statistics.median(ms), "iqr_ms": q3 - q1, "samples_ms": ms}


def repeat(call, batch: int) -> list[float]:
    """Seconds per call of call(), one entry per repeat of `batch` calls, after a warm-up."""
    call()
    seconds = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(batch):
            call()
        seconds.append((perf_counter() - start) / batch)
    return seconds


def stage_repeat(call, rows: int) -> list[float]:
    """`repeat` of RHS_CALLS calls under the numpy settings that `dynamics._drive` sets."""
    with np.errstate(over="ignore", invalid="ignore"):
        if rows > 1:  # as `dynamics._drive` steps a state of several rows
            np.setbufsize(dynamics._STAGE_BUFSIZE)
        return repeat(call, RHS_CALLS)


def time_symbol(grid: Grid, kernel: Kernel) -> list[float]:
    xi = grid.rfreqs
    return repeat(lambda: kernel.scaled_sqrt_symbol(DELTAS[0], xi), RHS_CALLS)


def time_rhs(grid: Grid, configs, init) -> dict:
    """One right-hand-side call, and one bare RK4 step: its first scaled stage and `_rk4`."""
    multiplier = np.stack([_multiplier(grid, c.kernel, c.delta) for c in configs])
    y = np.repeat(_coefficients(init)[:, None], len(configs), axis=1)
    out, stage = np.empty_like(y), np.empty_like(y)
    scaled = _spectral_rhs(multiplier, configs[0])
    dt = configs[0].dt
    half, full = scaled(0.5 * dt), scaled(dt)

    def step():
        half(y, out)
        _rk4(half, full, y, stage, out)

    return {"rhs_call": stage_repeat(lambda: half(y, out), len(configs)),
            "rk4_step": stage_repeat(step, len(configs))}


def time_steps(march) -> list[float]:
    """Seconds per step of march(), which takes STEPS steps."""
    return [s / STEPS for s in repeat(march, 1)]


def time_monitors(grid: Grid, configs, init) -> dict:
    """The state bound and the exact monitor of `integrate`'s check, on the
    coefficients after 20 steps."""
    y = stepped(configs, init)
    multiplier = np.stack([_multiplier(grid, c.kernel, c.delta) for c in configs])
    ddx = _multiplier(grid, None, None)
    bound, spare = dynamics._state_bound(multiplier, ddx, grid.size), np.empty_like(y)
    return {
        "monitor_bound": stage_repeat(lambda: bound(y, spare), len(configs)),
        "monitor": stage_repeat(
            lambda: dynamics._monitor(y[0], multiplier * y[1], ddx, grid.size),
            len(configs)),
    }


def traced_peak(call) -> int:
    """Bytes of the tracemalloc peak of call() above the memory traced before
    it, after one untraced call keeps numpy's first-call allocations out."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def time_chain_step() -> list[float]:
    """One step of the lattice sweep's four chains, stepped together."""
    grid = Grid(HALF_LENGTH, 2048)
    chains = [lattice.make_chain(U0, None, Grid(HALF_LENGTH, grid.size // s))
              for s in CHAIN_STRIDES]
    dt = shared_dt(grid)
    return time_steps(lambda: lattice.integrate_chain(chains, 0.1, 1, dt, STEPS * dt))


def stepped(configs, init, steps: int = 20) -> np.ndarray:
    """The coefficients that `integrate` holds after `steps` steps of the configs."""
    held = []
    integrate([replace(c, t_end=steps * c.dt) for c in configs], init,
              probe=lambda y, _t: held.append(y.copy()))
    return held[-1]


def time_samples(kernel: Kernel) -> list[dict]:
    """One diagnostic sample of each command, as its probe takes it."""
    cases = []
    grid = Grid(HALF_LENGTH, 256)
    cfg = ModelConfig(kernel=kernel, delta=DELTAS[0], dt=shared_dt(grid), t_end=0.0,
                      epsilon=0.1, n=1)
    y = stepped([cfg], make_initial(U0, None, grid))
    take = dynamics._sampler(cfg, grid)
    cases.append(({"layer": "simulate_sample", "grid_n": 256, "rows": 1, "epsilon": 0.1},
                  repeat(lambda: take(y, 0.0), SAMPLES)))

    grid = Grid(HALF_LENGTH, 2048)
    init = make_initial(U0, None, grid)
    configs = [ModelConfig(kernel=kernel, delta=d, dt=shared_dt(grid), t_end=0.0, epsilon=0.1,
                           n=1) for d in (None, *DELTAS[:4])]
    y = stepped(configs, init)
    weights = norm_weights(grid, 2.0)
    cases.append(({"layer": "dispersion_errors", "grid_n": 2048, "rows": 5, "epsilon": 0.1},
                  repeat(lambda: convergence._dispersion_errors(y, weights), SAMPLES)))

    y = stepped(configs[:1], init)
    ddx = _multiplier(grid, None, None)
    chains = [lattice.make_chain(U0, None, Grid(HALF_LENGTH, grid.size // s))
              for s in CHAIN_STRIDES]
    sites = np.concatenate([(c.strain, c.velocity) for c in chains], axis=1)
    ends = np.cumsum([c.grid.size for c in chains])
    spans = [slice(end - c.grid.size, end) for end, c in zip(ends, chains)]
    chain_weights = [norm_weights(c.grid, 2.0) for c in chains]

    def lattice_sample():
        classical = convergence._strain_and_rate(y, ddx, grid.size)
        return convergence._chain_errors(sites, classical, spans, CHAIN_STRIDES, chain_weights)

    cases.append(({"layer": "lattice_errors", "grid_n": 2048, "rows": len(chains),
                   "epsilon": 0.1}, repeat(lattice_sample, SAMPLES)))
    return cases


def git_commit() -> str | None:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if dirty else "")


def report(result: dict) -> None:
    case = result.get("kernel") or f"rows={result['rows']} eps={result['epsilon']:<4g}"
    print(f"{result['layer']:17s} N={result['grid_n']:5d} {case:15s} "
          f"{result['median_ms']:.4f} ms (IQR {result['iqr_ms']:.4f})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = parser.parse_args(argv)
    results = []
    for size in SIZES:
        grid = Grid(HALF_LENGTH, size)
        for name in BUILTIN_NAMES:
            results.append({"layer": "symbol", "grid_n": size, "kernel": name,
                            "batch": RHS_CALLS, **summary(time_symbol(grid, Kernel(name)))})
            report(results[-1])
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
                run = configs if rows > 1 else configs[0]
                timings = {layer: (RHS_CALLS, seconds) for layer, seconds
                           in time_rhs(grid, configs, init).items()}
                timings["integrate_step"] = (STEPS, time_steps(lambda: integrate(run, init)))
                if eps:
                    timings.update((layer, (RHS_CALLS, seconds)) for layer, seconds
                                   in time_monitors(grid, configs, init).items())
                for layer, (batch, seconds) in timings.items():
                    results.append({"layer": layer, **case, "batch": batch, **summary(seconds)})
                    report(results[-1])
                peak = traced_peak(lambda: integrate(run, init))
                results.append({"layer": "integrate_peak_bytes", **case, "bytes": peak})
                print(f"{'integrate_peak':17s} N={size:5d} rows={rows} eps={eps:<4g}    {peak} B")
    results.append({"layer": "chain_step", "grid_n": 2048, "rows": len(CHAIN_STRIDES),
                    "epsilon": 0.1, "batch": STEPS, **summary(time_chain_step())})
    report(results[-1])
    for case, seconds in time_samples(Kernel(KERNEL)):
        results.append({**case, "batch": SAMPLES, **summary(seconds)})
        report(results[-1])
    record = {
        "commit": git_commit(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "setup": {"kernel": KERNEL, "n": 1, "grid_l": HALF_LENGTH, "dt": "0.25 h", "u0": U0,
                  "deltas": list(DELTAS), "symbol_delta": DELTAS[0], "sample_s": 3.0,
                  "sampled_after_steps": 20, "chain_strides": list(CHAIN_STRIDES)},
        "results": results,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
