"""Output check of one CLI invocation; any problem counts the run as failed.

On every seed: summary.json is strict JSON (no NaN or Infinity), every CSV
value is finite, sizes and sample times follow from the config, the mean of
u is conserved (the right-hand side of u_t is a derivative), the sweep
errors fall with delta and the fitted slope lies in the tier-1 band of
acceptance criteria 2 and 3.  On seeds listed in reference.json the final
fields, sweep errors and slope are also compared with values from the seed
code, with tolerances that allow round-off reordering but not a wrong
answer.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import workloads

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: tier-1 slope band of acceptance criteria 2 and 3
SLOPE_BAND = (1.7, 2.3)
#: sup-norm distance of final fields from the reference (ROADMAP: ~1e-14)
FIELD_TOL = 1e-12
#: relative distance of scalar diagnostics and sweep errors from the reference
REL_TOL = 1e-9
#: absolute distance of fitted slope and R^2 from the reference
FIT_TOL = 1e-9
#: drift allowed in the mean of u over a run
MEAN_TOL = 1e-10


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _reject_constant(name):
    raise CheckError(f"summary.json contains {name}, which is not JSON")


def read_summary(out_dir: Path) -> dict:
    try:
        return json.loads((out_dir / "summary.json").read_text(), parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise CheckError(f"summary.json unreadable: {exc}") from None


def read_csv(path: Path, header: str) -> list[list[float]]:
    """Rows of floats; callers check finiteness (a first running slope is nan)."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise CheckError(f"{path.name} unreadable: {exc}") from None
    _require(lines and lines[0] == header, f"{path.name}: header is not {header!r}")
    width = header.count(",") + 1
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        _require(len(parts) == width, f"{path.name}: row {line!r} has {len(parts)} fields")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise CheckError(f"{path.name}: row {line!r} is not numeric") from None
    return rows


def _finite(values, what: str) -> None:
    _require(all(math.isfinite(v) for v in values), f"{what} is not finite")


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def sample_count(steps: int, stride: int) -> int:
    """Snapshots a sweep keeps: every stride-th step plus the last one."""
    return steps // stride + 1 + (1 if steps % stride else 0)


def load_reference(name: str, seed: int):
    if not REFERENCE_PATH.is_file():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(name, {}).get(str(seed))


def verify(name: str, cfg: dict, out_dir: Path, reference) -> None:
    """Raise CheckError unless the outputs in out_dir are right for cfg."""
    try:
        _verify(name, cfg, out_dir, reference)
    except (KeyError, TypeError, IndexError, ValueError, AttributeError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from None


def _verify(name, cfg, out_dir, reference) -> None:
    summary = read_summary(out_dir)
    command = workloads.WORKLOADS[name]["command"]
    _require(summary.get("command") == command, f"summary command is {summary.get('command')!r}")
    for key, value in cfg.items():
        _require(summary["config"].get(key) == value, f"summary config {key} differs from input")
    if command == "simulate":
        _verify_simulate(cfg, out_dir, summary, reference)
    else:
        _verify_sweep(command, cfg, out_dir, summary, reference)


def _verify_simulate(cfg, out_dir, summary, reference) -> None:
    n, dt, steps = cfg["grid_n"], workloads.dt(cfg), workloads.steps_per_run(cfg)
    h = 2.0 * cfg["grid_l"] / n
    nodes = [-cfg["grid_l"] + h * j for j in range(n)]
    _require(summary["breakdown"] is None, "breakdown reported")
    _require(summary["dt_used"] == dt, f"dt_used {summary['dt_used']} != {dt}")
    final = summary["final"]
    _require(final["t"] == cfg["t_end"], "final time differs from t_end")
    _finite(final.values(), "summary final diagnostics")

    fields = {}
    for var in ("u", "v"):
        rows = read_csv(out_dir / f"final_{var}.csv", "x,value")
        _require(len(rows) == n, f"final_{var}.csv has {len(rows)} rows, expected {n}")
        _finite((v for r in rows for v in r), f"final_{var}.csv")
        _require(
            max(abs(r[0] - x) for r, x in zip(rows, nodes)) <= 1e-12,
            f"final_{var}.csv nodes are not the grid",
        )
        fields[var] = [r[1] for r in rows]
    u, v = fields["u"], fields["v"]
    _require(max(map(abs, u)) == final["u_linf"], "u_linf disagrees with final_u.csv")

    a, b = cfg["u0"]["a"], cfg["u0"]["b"]
    mean_u0 = sum(a * math.exp(-b * x * x) for x in nodes) / n
    _require(abs(sum(u) / n - mean_u0) <= MEAN_TOL, "mean of u is not conserved")
    _require(abs(sum(v) / n) <= MEAN_TOL, "mean of v is not conserved")

    series = read_csv(out_dir / "timeseries.csv", "t,E_s,monitor,u_linf")
    stride = cfg["sample_stride"]
    _require(len(series) == steps // stride + 1, f"timeseries.csv has {len(series)} rows")
    _finite((x for r in series for x in r), "timeseries.csv")
    _require(
        all(abs(r[0] - k * stride * dt) <= 1e-9 for k, r in enumerate(series)),
        "timeseries.csv sample times are not every stride steps",
    )
    _require(series[0][3] == a, "initial u_linf is not the Gaussian amplitude")

    if reference is not None:
        for var in ("u", "v"):
            diff = max(abs(p - q) for p, q in zip(fields[var], reference[f"final_{var}"]))
            _require(diff <= FIELD_TOL, f"final {var} is {diff:.3e} from the reference")
        for key in ("energy", "monitor"):
            _require(_close(final[key], reference[key], REL_TOL), f"final {key} differs from the reference")


def _verify_sweep(command, cfg, out_dir, summary, reference) -> None:
    deltas = cfg["delta_list"]
    rows = read_csv(out_dir / "sweep.csv", "delta,error_terminal,slope_running")
    _require([r[0] for r in rows] == deltas, "sweep.csv deltas differ from the config")
    errors = [r[1] for r in rows]
    _finite(errors, "sweep errors")
    _require(all(e > 0 for e in errors), "sweep errors are not positive")
    _require(all(p > q for p, q in zip(errors, errors[1:])), "sweep errors do not fall with delta")
    _require(math.isnan(rows[0][2]), "first running slope is not nan")
    _finite((r[2] for r in rows[1:]), "running slopes")
    _require(summary["errors"] == errors, "summary errors differ from sweep.csv")
    _require(summary["deltas"] == deltas, "summary deltas differ from the config")
    _require(summary["degenerate"] is False, "fit reported degenerate")
    slope = summary["slope"]
    _finite([slope, summary["r2"]], "fit")
    _require(SLOPE_BAND[0] <= slope <= SLOPE_BAND[1], f"slope {slope} outside {SLOPE_BAND}")
    _require(rows[-1][2] == slope, "last running slope differs from the fitted slope")

    samples = sample_count(workloads.steps_per_run(cfg), cfg["sample_stride"])
    series = read_csv(out_dir / "series.csv", "delta,t,error")
    _require(len(series) == len(deltas) * samples, f"series.csv has {len(series)} rows")
    _finite((x for r in series for x in r), "series.csv")
    for i, delta in enumerate(deltas):
        block = series[i * samples:(i + 1) * samples]
        _require(all(r[0] == delta for r in block), "series.csv is not grouped by delta")
        _require(block[-1][1] == cfg["t_end"] and block[-1][2] == errors[i], "series end differs from sweep.csv")
        if command == "converge-dispersion":
            _require(block[0][2] == 0.0, "dispersion error at t=0 is not zero")

    if reference is not None:
        for got, want in zip(errors, reference["errors"]):
            _require(_close(got, want, REL_TOL), f"sweep error {got!r} differs from the reference {want!r}")
        for key in ("slope", "r2"):
            _require(abs(summary[key] - reference[key]) <= FIT_TOL, f"{key} differs from the reference")
