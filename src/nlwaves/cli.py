"""Command-line entry point.

`USAGE` states the grammar, and -h or --help prints it.  Configuration is a
flat JSON file (--config); flags override file values.  Every run writes a
JSON summary embedding the fully-resolved config (defaults included) plus
command-specific CSV files into --out.  All floats are emitted with 17
significant digits so downstream fits can round-trip.  `main` builds the
grid and the kernel once and hands them to the command, which returns its
exit code and {file name: text}; only then does `main` create --out and
write them, so a run that raises creates no directory.  `simulate` keeps
its samples in one recorder: every sample_stride-th step and the last with
a time series, the first and the last without one; summary.json's final
values are its last sample, so they equal the time series' last row bit
for bit.

Exit codes: 0 success, 1 internal numeric failure, 2 breakdown detected,
3 invalid configuration or usage error; only 0 and a `simulate` breakdown
(2) write files.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import convergence, dynamics, schema
from .errors import BreakdownError, ConfigError, InvalidSpecError
from .errors import NlwavesError, NonFiniteError, UsageError
from .kernels import BUILTIN_NAMES, Kernel
from .spectral import Grid

#: config keys that a ModelConfig takes as they are: its fields but the
#: kernel, delta and dt, which `_model` resolves
_MODEL_KEYS = tuple(f.name for f in fields(dynamics.ModelConfig)
                    if f.name not in ("kernel", "delta", "dt"))
#: keys with a value flag of the same name (grid_n is --grid-n)
FLAG_KEYS = ("delta", "epsilon", "n", "grid_n", "grid_l", "t_end", "dt")
#: flag -> the argument or config key that its value sets
_VALUE_FLAGS = {"--" + key.replace("_", "-"): key for key in ("config", "out", *FLAG_KEYS)}
COMMANDS = ("kernel-info", "simulate", "converge-dispersion", "converge-lattice")

USAGE = """\
usage: nlwaves COMMAND [flags]

commands:
  kernel-info [KERNEL]   symbol table over the grid's frequency range
  simulate               one time integration
  converge-dispersion    nonlocal-vs-classical delta sweep
  converge-lattice       chain-vs-classical delta sweep

flags, each given as --flag VALUE or --flag=VALUE:
  --config PATH          flat JSON config file
  --out DIR              output directory (default: .)
  --delta, --epsilon, --n, --grid-n, --grid-l, --t-end, --dt VALUE
                         the config key of the same name; VALUE is read as
                         JSON (--t-end 1 is the integer 1), or else as text
                         (--delta dirac-limit)
  --emit-timeseries      set emit_timeseries to true
  -h, --help             print this text and exit

Flags are spelled out in full; an abbreviation is an unknown flag.
"""


def _fmt(x) -> str:
    return f"{x:.17g}"


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row of numbers."""
    return header + "\n" + "".join(",".join(map(_fmt, row)) + "\n" for row in rows)


def parse_config(config_path, overrides) -> dict:
    """Merge defaults, config file, and flag overrides (config values, None
    meaning null); validate everything."""
    defaults = {key: rule[0] for key, rule in schema.RULES.items()}
    resolved = json.loads(json.dumps(defaults))  # deep copy
    loaded = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError("config", f"file not found: {config_path}")
        try:  # not UTF-8, not JSON, an integer past Python's digit limit, or too deep
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, RecursionError, OSError) as exc:
            raise ConfigError("config", f"cannot read {config_path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config", "top-level JSON value must be an object")
    for key, value in {**loaded, **overrides}.items():
        if key not in schema.RULES:
            raise ConfigError(key, "unknown configuration key")
        resolved[key] = value
    if resolved["delta"] == "dirac-limit":
        resolved["delta"] = None
    for key, value in resolved.items():
        schema.check(key, value)
    schema.check_grid(resolved["grid_l"], resolved["grid_n"])  # grid_l's rule on grid_n
    schema.nonlinear_coefficient(resolved["epsilon"], resolved["n"])  # and n's on epsilon
    return resolved


def _build_kernel(spec: str) -> Kernel:
    if spec in BUILTIN_NAMES:
        return Kernel(spec)
    path = Path(spec)
    if not path.is_file():
        raise ConfigError("kernel", f"not a built-in kernel name or table file: {spec}")
    try:
        return Kernel.from_file(path)
    except (ValueError, InvalidSpecError) as exc:  # np.loadtxt raises ValueError
        raise ConfigError("kernel", f"bad table file {spec}: {exc}") from None


def _summary_text(payload: dict) -> str:
    """summary.json as strict JSON, encoded before any output is written; a NaN
    or infinity anywhere is a numeric failure."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(f"summary.json would contain a non-finite value: {exc}") from None
    return text + "\n"


def _cmd_kernel_info(cfg: dict, grid: Grid, kernel: Kernel) -> tuple[int, dict]:
    xi = np.sort(grid.freqs[grid.freqs >= 0])
    table = _csv("xi,symbol,k_symbol", zip(xi, kernel.symbol(xi), kernel.sqrt_symbol(xi)))
    symbol = kernel.symbol(grid.freqs)
    summary = _summary_text(
        {
            "command": "kernel-info",
            "config": cfg,
            "symbol_min": float(symbol.min()),
            "symbol_max": float(symbol.max()),
        }
    )
    sys.stdout.write(table)
    return 0, {"kernel_info.csv": table, "summary.json": summary}


def _model(cfg: dict, grid: Grid, kernel: Kernel, delta) -> dynamics.ModelConfig:
    """The ModelConfig of one run of `cfg` with this delta, its null dt
    resolved by `shared_dt`; a sweep's classical run has delta None."""
    return dynamics.ModelConfig(kernel=kernel, delta=delta, dt=dynamics.shared_dt(grid, cfg["dt"]),
                                **{k: cfg[k] for k in _MODEL_KEYS})


def _cmd_simulate(cfg: dict, grid: Grid, kernel: Kernel) -> tuple[int, dict]:
    mc = _model(cfg, grid, kernel, cfg["delta"])
    initial = dynamics.make_initial(cfg["u0"], cfg["v0"], grid)
    steps = dynamics.n_steps(mc.t_end, mc.dt)
    take = dynamics._sampler(mc, grid)
    # without a time series one stride spans the run: the first and last samples
    stride = cfg["sample_stride"] if cfg["emit_timeseries"] else max(steps, 1)
    recorder = dynamics._Recorder(stride, steps, take,
                                  lambda y, t: take(y, t, initial.u))
    payload = {"command": "simulate", "config": cfg, "dt_used": mc.dt, "breakdown": None}
    outputs = {}
    try:
        final = dynamics.integrate(mc, initial, probe=recorder)
    except BreakdownError as exc:
        payload["breakdown"] = {"time": exc.time, "monitor": exc.monitor,
                                "threshold": exc.threshold}
        sys.stderr.write(f"breakdown detected at t={_fmt(exc.time)} "
                         f"(monitor={_fmt(exc.monitor)})\n")
        code = 2
    else:
        energy, monitor, u_linf = recorder.snaps[-1]
        payload["final"] = {"t": recorder.times[-1], "energy": energy, "monitor": monitor,
                            "u_linf": u_linf}
        outputs["final_u.csv"] = _csv("x,value", zip(grid.nodes, final.u))
        outputs["final_v.csv"] = _csv("x,value", zip(grid.nodes, final.v))
        code = 0
    outputs["summary.json"] = _summary_text(payload)
    if cfg["emit_timeseries"]:
        outputs["timeseries.csv"] = _csv(
            "t,E_s,monitor,u_linf", ((t, *snap) for t, snap in zip(recorder.times, recorder.snaps))
        )
    return code, outputs


def _running_slope(deltas, errors) -> float:
    """The rate fitted to the pairs so far, or NaN when none can be fitted."""
    try:
        return convergence.fit_rate(list(zip(deltas, errors))).slope
    except NlwavesError:
        return math.nan


def _cmd_converge(command: str, cfg: dict, grid: Grid, kernel: Kernel) -> tuple[int, dict]:
    sweep_cfg = convergence.SweepConfig(_model(cfg, grid, kernel, None), cfg["delta_list"], grid,
                                        cfg["u0"], cfg["v0"], cfg["sample_stride"])
    if command == "converge-dispersion":
        report = convergence.zero_dispersion_sweep(sweep_cfg)
    else:
        report = convergence.lattice_sweep(sweep_cfg)
    deltas, errors = report.deltas, report.errors
    outputs = {
        "summary.json": _summary_text({"command": command, "config": cfg, **report.to_dict()}),
        "sweep.csv": _csv("delta,error_terminal,slope_running", (
            (d, e, _running_slope(deltas[: i + 1], errors[: i + 1]))
            for i, (d, e) in enumerate(zip(deltas, errors))
        )),
    }
    if cfg["emit_timeseries"]:
        outputs["series.csv"] = _csv("delta,t,error", (
            (d, t, e) for d, errs in zip(deltas, report.series) for t, e in zip(report.times, errs)
        ))
    return 0, outputs


def _json_or_text(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError):  # not JSON, too long an integer or too deep
        return text


def split_argv(argv) -> tuple[SimpleNamespace, dict]:
    """Parsed arguments (command, config, out, help) and the config overrides
    their flags give, each flag's text read as JSON; a token outside the
    grammar of `USAGE` raises UsageError naming it.

    A value flag takes the next token verbatim, so --dt -1e-3 reaches the
    schema, which names the key it rejects.  Parsing stops at -h or --help.
    """
    args = SimpleNamespace(command=None, config=None, out=".", help=False)
    overrides = {}
    tokens = iter(sys.argv[1:] if argv is None else argv)
    for token in tokens:
        if token in ("-h", "--help"):
            args.help = True
            return args, overrides
        if not token.startswith("-"):
            if args.command is None and token in COMMANDS:
                args.command = token
            elif args.command is None:
                raise UsageError(f"unknown command {token!r}")
            elif args.command == "kernel-info" and "kernel" not in overrides:
                overrides["kernel"] = token
            else:
                raise UsageError(f"unexpected argument {token!r}")
            continue
        flag, has_value, value = token.partition("=")
        if flag == "--emit-timeseries":
            if has_value:
                raise UsageError(f"flag {flag!r} takes no value")
            overrides["emit_timeseries"] = True
            continue
        if flag not in _VALUE_FLAGS:
            raise UsageError(f"unknown flag {token!r}")
        if not has_value:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"flag {token!r} needs a value")
        key = _VALUE_FLAGS[flag]
        if key in ("config", "out"):
            setattr(args, key, value)
        else:
            overrides[key] = _json_or_text(value)
    if args.command is None:
        raise UsageError("no command given")
    return args, overrides



def main(argv=None) -> int:
    try:
        args, overrides = split_argv(argv)
        if args.help:
            sys.stdout.write(USAGE)
            return 0
        cfg = parse_config(args.config, overrides)
        grid, kernel = Grid(cfg["grid_l"], cfg["grid_n"]), _build_kernel(cfg["kernel"])
        if args.command == "kernel-info":
            code, outputs = _cmd_kernel_info(cfg, grid, kernel)
        elif args.command == "simulate":
            code, outputs = _cmd_simulate(cfg, grid, kernel)
        else:
            code, outputs = _cmd_converge(args.command, cfg, grid, kernel)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, text in outputs.items():
                (out_dir / name).write_text(text)
        except OSError as exc:
            sys.stderr.write(f"error: --out {out_dir}: {exc.strerror or exc}\n")
            return 3
        return code
    except (ConfigError, InvalidSpecError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except UsageError as exc:
        sys.stderr.write(f"error: {exc} (nlwaves --help states the grammar)\n")
        return 3
    except BreakdownError as exc:
        sys.stderr.write(f"breakdown: {exc}\n")
        return 2
    except NlwavesError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
