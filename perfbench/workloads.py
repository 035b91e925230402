"""Workload definitions: the CLI command, its generated config and its size.

Every workload names grid, kernel, deltas, nonlinearity and initial data
explicitly, so the program's defaults never decide what is measured.  The
seed only draws the Gaussian ``u0`` amplitude and width from a small range
that stays breakdown-free; the program receives nothing but the generated
config file.
"""

from __future__ import annotations

import math
import random

GRID_L = 20.0
#: CFL guard of the CLI (dt = 0.25 h / max sqrt(b)); every kernel used here
#: has max sqrt(b) = 1, reached at xi = 0, so dt = 0.25 h exactly.
CFL_SAFETY = 0.25
#: fraction of dt tolerated when counting steps, as in the program
STEP_ROUNDING = 1e-9
#: initial amplitude and width ranges drawn by the seed
AMPLITUDE_RANGE = (0.4, 0.6)
WIDTH_RANGE = (1.5, 2.5)


def _spacing(grid_n: int) -> float:
    return 2.0 * GRID_L / grid_n


# Why each workload exists is in README.md; in one line each:
WORKLOADS = {
    # per-step overhead at small N; one run, so sweep batching has no effect;
    # n=2 pads the power to 2N; diagnostics sampled every 10 steps
    "simulate-n256": {
        "command": "simulate",
        "config": {
            "kernel": "exponential",
            "grid_n": 256,
            "delta": 0.5,
            "epsilon": 0.1,
            "n": 2,
            "t_end": 320 * CFL_SAFETY * _spacing(256),  # 320 steps
            "sample_stride": 10,
            "emit_timeseries": True,
        },
    },
    # FFT-bound sweep at N=2048: five runs share grid and dt
    "sweep-dispersion-n2048": {
        "command": "converge-dispersion",
        "config": {
            "kernel": "triangular",
            "grid_n": 2048,
            "delta_list": [0.4, 0.2, 0.1, 0.05],
            "epsilon": 0.1,
            "n": 1,
            "t_end": 0.15,
            "sample_stride": 10,
            "emit_timeseries": True,
        },
    },
    # chain runs against the classical spectral reference; the deltas are
    # grid-aligned (h * 8, 4, 2, 1) because the chain needs that
    "sweep-lattice-n2048": {
        "command": "converge-lattice",
        "config": {
            "kernel": "triangular",
            "grid_n": 2048,
            "delta_list": [_spacing(2048) * r for r in (8, 4, 2, 1)],
            "epsilon": 0.1,
            "n": 1,
            "t_end": 0.5,
            "sample_stride": 10,
            "emit_timeseries": True,
        },
    },
}


def initial_data(seed: int) -> tuple[float, float]:
    """Gaussian amplitude and width for a seed."""
    rng = random.Random(seed)
    a = round(rng.uniform(*AMPLITUDE_RANGE), 6)
    b = round(rng.uniform(*WIDTH_RANGE), 6)
    return a, b


def make_config(name: str, seed: int) -> dict:
    """The full config file content for one workload and seed."""
    a, b = initial_data(seed)
    cfg = {"grid_l": GRID_L, "dt": None}
    cfg.update(WORKLOADS[name]["config"])
    cfg["u0"] = {"shape": "gaussian", "a": a, "b": b}
    cfg["v0"] = {"shape": "zero"}
    return cfg


def dt(cfg: dict) -> float:
    return CFL_SAFETY * _spacing(cfg["grid_n"])


def steps_per_run(cfg: dict) -> int:
    return math.ceil(cfg["t_end"] / dt(cfg) - STEP_ROUNDING)


def runs(name: str, cfg: dict) -> int:
    """Time integrations per invocation: one, or the reference plus one per delta."""
    if WORKLOADS[name]["command"] == "simulate":
        return 1
    return 1 + len(cfg["delta_list"])


def model_steps(name: str, cfg: dict) -> int:
    """(run, time step) pairs of one invocation, computed from the config alone."""
    return runs(name, cfg) * steps_per_run(cfg)


def argv(name: str, config_path: str, out_dir: str) -> list[str]:
    return [WORKLOADS[name]["command"], "--config", config_path, "--out", out_dir]
