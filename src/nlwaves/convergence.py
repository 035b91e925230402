"""Sweep orchestration and log-log rate estimation.

Three studies, one per quantitative claim:

- ``operator_error``: how far the scaled convolution operator is from the
  identity on a fixed field, against the delta^theta bound.
- ``zero_dispersion_sweep``: nonlocal runs against one classical run with the
  same data, terminal Sobolev error per delta, fitted slope.
- ``lattice_sweep``: chain runs against one classical run, strain and strain
  rate compared on the grid-aligned chain sites; the chains of every delta
  are stepped together in one batched ``integrate_chain`` call.

Both runs of a pair share grid, dt, and dealiasing so discretization error
cancels to leading order in the difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import dynamics, lattice, schema
from .errors import AlignmentError, ConfigError, DegenerateDataError, DegenerateFitError
from .kernels import Kernel
from .spectral import Field, Grid, derivative, sobolev_norm, spectrum_norm

#: errors below this are treated as exact zeros and excluded from log fits
ZERO_ERROR_FLOOR = 1e-14


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log delta, log error)."""

    slope: float
    intercept: float
    r_squared: float
    excluded: tuple[float, ...] = ()


#: config-file keys of the SweepConfig fields not named as in the config
_CONFIG_KEYS = {"deltas": "delta_list", "theta_expected": "theta"}


@dataclass(frozen=True)
class SweepConfig:
    """Configuration for one convergence sweep."""

    kernel: Kernel
    deltas: tuple[float, ...]
    grid: Grid
    t_end: float
    epsilon: float = 0.1
    n: int = 1
    s: float = 3.0
    theta_expected: float = 2.0
    dt: float | None = None
    u0: object = None
    v0: object = None
    sample_stride: int = 10
    breakdown_threshold: float = 1e3

    def __post_init__(self):
        for f in fields(self):
            if f.name not in ("kernel", "grid"):
                schema.check(_CONFIG_KEYS.get(f.name, f.name), getattr(self, f.name))
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-delta terminal errors, optional time series, and the fitted rate."""

    deltas: tuple[float, ...]
    errors: tuple[float, ...]
    fit: RateFit | None
    degenerate: bool
    times: tuple[float, ...] = ()
    series: tuple[tuple[float, ...], ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "deltas": list(self.deltas),
            "errors": list(self.errors),
            "degenerate": self.degenerate,
            "slope": None if self.fit is None else self.fit.slope,
            "intercept": None if self.fit is None else self.fit.intercept,
            "r2": None if self.fit is None else self.fit.r_squared,
            "excluded": [] if self.fit is None else list(self.fit.excluded),
        }


def fit_rate(pairs) -> RateFit:
    """Fit log(error) = slope * log(delta) + intercept by least squares.

    Pairs with error at or below the zero floor are excluded (and reported in
    the fit's `excluded` field); fewer than two usable pairs raises
    DegenerateFitError.
    """
    pairs = [(float(d), float(e)) for d, e in pairs]
    if any(e < 0 for _, e in pairs):
        raise ValueError("errors must be nonnegative")
    usable = [(d, e) for d, e in pairs if e > ZERO_ERROR_FLOOR]
    excluded = tuple(d for d, e in pairs if e <= ZERO_ERROR_FLOOR)
    if len(usable) < 2:
        raise DegenerateFitError(
            f"need >= 2 positive errors, have {len(usable)}"
        )
    logd = np.log([d for d, _ in usable])
    loge = np.log([e for _, e in usable])
    slope, intercept = np.polyfit(logd, loge, 1)
    pred = slope * logd + intercept
    ss_res = float(np.sum((loge - pred) ** 2))
    ss_tot = float(np.sum((loge - np.mean(loge)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), r2, excluded)


def operator_error(
    kernel: Kernel, delta: float, v: Field, s: float, theta: float
) -> tuple[float, float]:
    """Distance of the scaled convolution operator from the identity on v.

    Returns (error, bound_ratio) where error = |Kd v - v| in the order-s
    Sobolev norm and bound_ratio = error / (delta^theta * |v|_{s+theta}).
    A constant bound_ratio across delta is the signature of a sharp rate.
    The estimate is an upper bound: a slope fitted over several deltas
    approaches theta only once delta * xi, at the frequencies that carry v,
    lies in the Taylor regime of sqrt(b) (see Kernel.taylor_deviation).
    """
    spec = v.spectrum
    reference = spectrum_norm(v.grid, spec, s + theta)
    if reference == 0.0:
        raise DegenerateDataError("field has zero norm; bound ratio undefined")
    # (Kd - I) v as one multiplier, so a symbol equal to 1 gives exactly 0
    symbol = kernel.scaled_sqrt_symbol(delta, v.grid.freqs)
    err = spectrum_norm(v.grid, (symbol - 1.0) * spec, s)
    return err, err / (delta**theta * reference)


def _model_config(cfg: SweepConfig, delta: float | None, dt: float) -> dynamics.ModelConfig:
    return dynamics.ModelConfig(
        kernel=cfg.kernel,
        delta=delta,
        dt=dt,
        t_end=cfg.t_end,
        epsilon=cfg.epsilon,
        n=cfg.n,
        s=cfg.s,
        breakdown_threshold=cfg.breakdown_threshold,
    )


def zero_dispersion_sweep(cfg: SweepConfig) -> ConvergenceReport:
    """Error of the nonlocal system against the classical one, per delta.

    The classical run and one nonlocal run per delta start from identical
    initial data and share grid and dt; one batched integration steps them
    together.  The error at each sampled time is |u_d - u| + |v_d - v| in the
    order-(s-1) Sobolev norm; terminal errors feed the log-log slope fit.
    """
    dt = dynamics.shared_dt(cfg.grid, cfg.dt)
    initial = dynamics.make_initial(cfg.u0, cfg.v0, cfg.grid)
    order = cfg.s - 1.0

    def errors_against_classical(states):
        classical = states[0]
        return tuple(
            sobolev_norm(s.u - classical.u, order) + sobolev_norm(s.v - classical.v, order)
            for s in states[1:]
        )

    rec = dynamics._Recorder(
        cfg.sample_stride, dynamics.n_steps(cfg.t_end, dt), errors_against_classical
    )
    configs = [_model_config(cfg, delta, dt) for delta in (None, *cfg.deltas)]
    dynamics.integrate(configs, initial, observers=(rec,))
    series = list(zip(*rec.snaps))
    errors = [errs[-1] for errs in series]
    return _assemble_report(cfg.deltas, errors, tuple(rec.times), series)


def lattice_sweep(cfg: SweepConfig) -> ConvergenceReport:
    """Error of the particle chain against the classical system, per delta.

    Every delta must equal the spectral spacing times an integer so chain
    sites coincide with grid nodes.  The error compares strain and strain
    rate on the chain sites in the order-(s-1) Sobolev norm of the aligned
    coarse grid; the classical strain rate is the spectral derivative of v.
    """
    grid = cfg.grid
    strides = [int(round(delta / grid.spacing)) for delta in cfg.deltas]
    for delta, stride in zip(cfg.deltas, strides):
        if stride < 1 or abs(delta / grid.spacing - stride) > 1e-9 or grid.size % stride != 0:
            raise AlignmentError(
                f"delta {delta} is not an integer multiple of grid spacing {grid.spacing}"
            )
        try:  # a chain's sites make a grid of their own
            schema.check("grid_n", grid.size // stride)
        except ConfigError:
            raise AlignmentError(f"delta {delta} gives a chain of {grid.size // stride} sites, "
                                 "not an even number >= 8") from None
    chains = [
        lattice.make_chain(cfg.u0, cfg.v0, grid.half_length, grid.size // s, s) for s in strides
    ]
    dt = dynamics.shared_dt(grid, cfg.dt)
    n_steps = dynamics.n_steps(cfg.t_end, dt)
    initial = dynamics.make_initial(cfg.u0, cfg.v0, grid)
    # classical strain u and strain rate u_t = v_x, sampled once per snapshot
    reference = dynamics._Recorder(
        cfg.sample_stride, n_steps, lambda s: (s.u.samples, derivative(s.v).samples)
    )
    dynamics.integrate(_model_config(cfg, None, dt), initial, observers=(reference,))

    order = cfg.s - 1.0
    coarse = [Grid(grid.half_length, c.sites) for c in chains]

    def errors_against_classical(states):
        sample = len(rec.times) - 1
        if reference.times[sample : sample + 1] != [states[0].t]:
            raise AssertionError("sample times diverged between paired runs")
        u, ut = reference.snaps[sample]
        return tuple(
            sobolev_norm(Field(g, c.strain - u[::stride]), order)
            + sobolev_norm(Field(g, c.velocity - ut[::stride]), order)
            for c, g, stride in zip(states, coarse, strides)
        )

    rec = dynamics._Recorder(cfg.sample_stride, n_steps, errors_against_classical)
    lattice.integrate_chain(chains, cfg.epsilon, cfg.n, dt, cfg.t_end, observers=(rec,))
    if rec.times != reference.times:
        raise AssertionError("sample times diverged between paired runs")
    series = list(zip(*rec.snaps))
    errors = [errs[-1] for errs in series]
    return _assemble_report(cfg.deltas, errors, tuple(reference.times), series)


def _assemble_report(deltas, errors, times, series) -> ConvergenceReport:
    try:
        fit = fit_rate(list(zip(deltas, errors)))
        degenerate = False
    except DegenerateFitError:
        fit = None
        degenerate = True
    return ConvergenceReport(
        deltas=tuple(deltas),
        errors=tuple(float(e) for e in errors),
        fit=fit,
        degenerate=degenerate,
        times=times,
        series=tuple(series),
    )
