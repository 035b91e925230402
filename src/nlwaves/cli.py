"""Command-line entry point.

Commands:

    nlwaves kernel-info [KERNEL] [flags]     symbol table over the grid's
                                             frequency range
    nlwaves simulate [flags]                 one time integration
    nlwaves converge-dispersion [flags]      nonlocal-vs-classical delta sweep
    nlwaves converge-lattice [flags]         chain-vs-classical delta sweep

Configuration is a flat JSON file (--config); individual flags override file
values.  Every run writes a JSON summary embedding the fully-resolved config
(defaults included) plus command-specific CSV files into --out.  All floats
are emitted with 17 significant digits so downstream fits can round-trip.

Exit codes: 0 success, 1 internal numeric failure, 2 breakdown detected,
3 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys
from pathlib import Path

import numpy as np

from . import convergence, dynamics, lattice, shapes
from .errors import AlignmentError, BreakdownError, ConfigError, InvalidSpecError
from .errors import NlwavesError, NonFiniteError
from .kernels import BUILTIN_NAMES, Kernel
from .spectral import Grid, write_field_csv

_DEFAULTS = {
    "kernel": "triangular",
    "grid_l": 20.0,
    "grid_n": 1024,
    "delta": None,
    "delta_list": [0.3125, 0.15625, 0.078125, 0.0390625],
    "epsilon": 0.1,
    "n": 1,
    "s": 3.0,
    "theta": 2.0,
    "dt": None,
    "t_end": 1.0,
    "u0": {"shape": "gaussian", "a": 0.5, "b": 2.0},
    "v0": {"shape": "zero"},
    "breakdown_threshold": 1e3,
    "sample_stride": 10,
    "emit_timeseries": False,
}


#: keys that ModelConfig and SweepConfig take under the same name
_MODEL_KEYS = ("t_end", "epsilon", "n", "s", "breakdown_threshold")


def _fmt(x) -> str:
    return f"{x:.17g}"


def parse_config(config_path, overrides) -> dict:
    """Merge defaults, config file, and flag overrides; validate everything."""
    resolved = json.loads(json.dumps(_DEFAULTS))  # deep copy
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError("config", f"file not found: {config_path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config", "top-level JSON value must be an object")
        for key, value in loaded.items():
            if key not in _DEFAULTS:
                raise ConfigError(key, "unknown configuration key")
            resolved[key] = value
    for key, value in overrides.items():
        if value is not None:
            resolved[key] = value
    _validate(resolved)
    return resolved


#: numeric keys (delta and dt may also be null): the range each value must
#: lie in, checked after its type
_NUMERIC_RULES = {
    "grid_l": (lambda v: v > 0, "must be positive"),
    "grid_n": (lambda v: isinstance(v, int) and v >= 8 and v % 2 == 0,
               "must be an even integer >= 8"),
    "delta": (lambda v: v > 0, "must be positive (or null for the Dirac limit)"),
    "epsilon": (lambda v: v >= 0, "must be nonnegative"),
    "n": (lambda v: isinstance(v, int) and v >= 1, "must be a positive integer"),
    "s": (lambda v: v > 2.5, "must exceed 5/2"),
    "theta": (lambda v: 0 < v <= 2, "must be in (0, 2]"),
    "dt": (lambda v: v > 0, "must be positive (or null for the CFL default)"),
    "t_end": (lambda v: v >= 0, "must be nonnegative"),
    "breakdown_threshold": (lambda v: v > 0, "must be positive"),
    "sample_stride": (lambda v: isinstance(v, int) and v >= 1, "must be a positive integer"),
}


def _check_number(key: str, value) -> None:
    """Reject bools, non-numbers and infinities (exit 3); NaN is a numeric failure."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(key, f"must be a number, got {value!r}")
    if value != value:  # NaN; math.isnan would overflow on huge ints
        raise NonFiniteError(f"config field '{key}' is NaN")
    if abs(value) > sys.float_info.max:  # also ints too large for a float
        raise ConfigError(key, "must be finite")


def _validate(cfg: dict) -> None:
    if isinstance(cfg["delta"], str):
        if cfg["delta"] != "dirac-limit":
            raise ConfigError("delta", f"unknown value '{cfg['delta']}'")
        cfg["delta"] = None
    for key, (in_range, message) in _NUMERIC_RULES.items():
        if cfg[key] is None and key in ("delta", "dt"):
            continue
        _check_number(key, cfg[key])
        if not in_range(cfg[key]):
            raise ConfigError(key, message)
    dl = cfg["delta_list"]
    if not isinstance(dl, (list, tuple)) or not dl:
        raise ConfigError("delta_list", "must be a nonempty list")
    for d in dl:
        _check_number("delta_list", d)
    if any(d <= 0 for d in dl):
        raise ConfigError("delta_list", "entries must be positive")
    if any(later >= earlier for later, earlier in zip(dl[1:], dl)):
        raise ConfigError("delta_list ordering", "must be strictly decreasing")


def _check_initial_data(cfg: dict, command: str) -> None:
    """Evaluate u0 and v0 as `command` will; a bad spec is a config error on its key."""
    grid = Grid(cfg["grid_l"], cfg["grid_n"])
    for key in ("u0", "v0"):
        try:
            shapes.evaluate_on_nodes(cfg[key], grid.nodes, grid.half_length)
            if key == "v0" and command == "converge-lattice":
                lattice.initial_velocity(cfg[key], grid.spacing, grid.nodes, grid.half_length)
        except InvalidSpecError as exc:
            raise ConfigError(key, str(exc)) from None


def _build_kernel(spec: str) -> Kernel:
    if spec in BUILTIN_NAMES:
        return Kernel.from_name(spec)
    path = Path(spec)
    if not path.is_file():
        raise ConfigError("kernel", f"not a built-in kernel name or table file: {spec}")
    return Kernel.from_file(path)


def _write_summary(out_dir: Path, payload: dict) -> None:
    """Write strict JSON; a NaN or infinity anywhere is a numeric failure."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(f"summary.json would contain a non-finite value: {exc}") from None
    (out_dir / "summary.json").write_text(text + "\n")


def _cmd_kernel_info(cfg: dict, out_dir: Path) -> int:
    kernel = _build_kernel(cfg["kernel"])
    grid = Grid(cfg["grid_l"], cfg["grid_n"])
    xi = np.sort(grid.freqs[grid.freqs >= 0])
    lines = ["xi,symbol,k_symbol"]
    lines += [
        f"{_fmt(x)},{_fmt(kernel.symbol(x))},{_fmt(kernel.sqrt_symbol(x))}"
        for x in xi
    ]
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    (out_dir / "kernel_info.csv").write_text(table)
    report = kernel.validate(grid.freqs)
    _write_summary(
        out_dir,
        {
            "command": "kernel-info",
            "config": cfg,
            "hypotheses_passed": report.passed,
            "symbol_min": report.symbol_min,
            "symbol_max": report.symbol_max,
        },
    )
    return 0


def _cmd_simulate(cfg: dict, out_dir: Path) -> int:
    kernel = _build_kernel(cfg["kernel"])
    grid = Grid(cfg["grid_l"], cfg["grid_n"])
    dt = dynamics.shared_dt(grid, kernel, [cfg["delta"]], cfg["dt"])
    mc = dynamics.ModelConfig(
        kernel=kernel, delta=cfg["delta"], dt=dt, **{k: cfg[k] for k in _MODEL_KEYS}
    )
    initial = dynamics.make_initial(cfg["u0"], cfg["v0"], grid)

    rows = []
    stride = cfg["sample_stride"]
    counter = {"i": -1}

    def recorder(state):
        counter["i"] += 1
        if counter["i"] % stride == 0:
            rows.append(
                (
                    state.t,
                    dynamics.energy(state, mc),
                    dynamics.breakdown_monitor(state, mc),
                    float(np.max(np.abs(state.u.samples))),
                )
            )

    observers = (recorder,) if cfg["emit_timeseries"] else ()
    breakdown = None
    try:
        final = dynamics.integrate(mc, initial, observers=observers)
    except BreakdownError as exc:
        breakdown = exc
        final = None

    if cfg["emit_timeseries"]:
        with open(out_dir / "timeseries.csv", "w") as fh:
            fh.write("t,E_s,monitor,u_linf\n")
            for t, e, m, ul in rows:
                fh.write(f"{_fmt(t)},{_fmt(e)},{_fmt(m)},{_fmt(ul)}\n")

    payload = {"command": "simulate", "config": cfg, "dt_used": dt}
    if breakdown is not None:
        payload["breakdown"] = {
            "time": breakdown.time,
            "monitor": breakdown.monitor,
            "threshold": breakdown.threshold,
        }
        _write_summary(out_dir, payload)
        sys.stderr.write(
            f"breakdown detected at t={_fmt(breakdown.time)} "
            f"(monitor={_fmt(breakdown.monitor)})\n"
        )
        return 2

    write_field_csv(final.u, out_dir / "final_u.csv")
    write_field_csv(final.v, out_dir / "final_v.csv")
    payload["breakdown"] = None
    payload["final"] = {
        "t": final.t,
        "energy": dynamics.energy(final, mc),
        "monitor": dynamics.breakdown_monitor(final, mc),
        "u_linf": float(np.max(np.abs(final.u.samples))),
    }
    _write_summary(out_dir, payload)
    return 0


def _sweep_config(cfg: dict, kernel: Kernel, grid: Grid) -> convergence.SweepConfig:
    return convergence.SweepConfig(
        kernel=kernel,
        deltas=tuple(cfg["delta_list"]),
        grid=grid,
        theta_expected=cfg["theta"],
        dt=cfg["dt"],
        u0=cfg["u0"],
        v0=cfg["v0"],
        sample_stride=cfg["sample_stride"],
        **{k: cfg[k] for k in _MODEL_KEYS},
    )


def _write_sweep_outputs(
    command: str, cfg: dict, report: convergence.ConvergenceReport, out_dir: Path
) -> None:
    with open(out_dir / "sweep.csv", "w") as fh:
        fh.write("delta,error_terminal,slope_running\n")
        for i, (d, e) in enumerate(zip(report.deltas, report.errors)):
            running_s = "nan"
            if i >= 1:
                try:
                    running_s = _fmt(convergence.fit_rate(
                        list(zip(report.deltas[: i + 1], report.errors[: i + 1]))
                    ).slope)
                except NlwavesError:
                    pass
            fh.write(f"{_fmt(d)},{_fmt(e)},{running_s}\n")
    if cfg["emit_timeseries"]:
        with open(out_dir / "series.csv", "w") as fh:
            fh.write("delta,t,error\n")
            for d, errs in zip(report.deltas, report.series):
                for t, e in zip(report.times, errs):
                    fh.write(f"{_fmt(d)},{_fmt(t)},{_fmt(e)}\n")
    payload = {"command": command, "config": cfg}
    payload.update(report.to_dict())
    _write_summary(out_dir, payload)


def _cmd_converge(command: str, cfg: dict, out_dir: Path) -> int:
    kernel = _build_kernel(cfg["kernel"])
    grid = Grid(cfg["grid_l"], cfg["grid_n"])
    sweep_cfg = _sweep_config(cfg, kernel, grid)
    if command == "converge-dispersion":
        report = convergence.zero_dispersion_sweep(sweep_cfg)
    else:
        try:
            report = convergence.lattice_sweep(sweep_cfg)
        except AlignmentError as exc:
            raise ConfigError("delta_list", str(exc)) from None
    _write_sweep_outputs(command, cfg, report, out_dir)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlwaves",
        description="Nonlocal wave equation simulations and convergence sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("kernel-info", "simulate", "converge-dispersion", "converge-lattice"):
        p = sub.add_parser(name)
        if name == "kernel-info":
            p.add_argument("kernel_name", nargs="?", default=None)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=".")
        p.add_argument("--delta", default=None)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--grid-n", type=int, default=None, dest="grid_n")
        p.add_argument("--grid-l", type=float, default=None, dest="grid_l")
        p.add_argument("--t-end", type=float, default=None, dest="t_end")
        p.add_argument("--dt", type=float, default=None)
        p.add_argument(
            "--emit-timeseries",
            action="store_true",
            default=None,
            dest="emit_timeseries",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        delta = args.delta
        if delta is not None and delta != "dirac-limit":
            try:
                delta = float(delta)
            except ValueError:
                raise ConfigError("delta", f"not a number: {delta!r}") from None
        overrides = {
            "delta": delta,
            "epsilon": args.epsilon,
            "n": args.n,
            "grid_n": args.grid_n,
            "grid_l": args.grid_l,
            "t_end": args.t_end,
            "dt": args.dt,
            "emit_timeseries": args.emit_timeseries,
        }
        if args.command == "kernel-info" and args.kernel_name is not None:
            overrides["kernel"] = args.kernel_name
        cfg = parse_config(args.config, overrides)
        if args.command != "kernel-info":
            _check_initial_data(cfg, args.command)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "kernel-info":
            return _cmd_kernel_info(cfg, out_dir)
        if args.command == "simulate":
            return _cmd_simulate(cfg, out_dir)
        return _cmd_converge(args.command, cfg, out_dir)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except BreakdownError as exc:
        sys.stderr.write(f"breakdown: {exc}\n")
        return 2
    except NlwavesError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
