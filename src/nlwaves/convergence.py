"""Sweep orchestration and log-log rate estimation.

A rate is the least-squares line through (log delta, log error), computed in
closed form from the centred logs (`fit_rate`).

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

Every error is one Sobolev norm, taken over real-FFT coefficients
(`spectral.coefficient_norm`); a sweep builds its weights once per grid.
The sweeps read the integrators' arrays through their probe (see
`dynamics._march`) and build no snapshot between samples: the dispersion
error is the norm of the coefficient differences, with no transform; the
lattice sweep keeps the classical (u, u_t) from one inverse transform per
sample and takes one forward transform of each chain's differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics, lattice, schema
from .errors import AlignmentError, ConfigError, DegenerateDataError, DegenerateFitError
from .kernels import Kernel
from .spectral import Grid, coefficient_norm, norm_weights

#: errors below this are treated as exact zeros and excluded from log fits
ZERO_ERROR_FLOOR = 1e-14


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log delta, log error)."""

    slope: float
    intercept: float
    r_squared: float
    excluded: tuple[float, ...] = ()


@dataclass(frozen=True)
class SweepConfig:
    """Configuration for one convergence sweep: the model of its classical run
    and what a sweep adds to one run.

    Every run of the sweep is `model` with its delta set to one of `deltas`,
    and the classical run is `model` itself, so the runs share every other
    model parameter, dt included.  `model` checks its own fields; a sweep
    checks `deltas` (as delta_list) and sample_stride, and rejects a model
    whose delta is not None with a ConfigError naming delta.  Fields left
    out take the config's defaults (`schema.default`), here those of the
    model (t_end 1, eps 0.1, ...) and the Gaussian u0 of the CLI:

        grid = Grid(20.0, 2048)
        model = ModelConfig(Kernel("triangular"), delta=None, dt=shared_dt(grid))
        cfg = SweepConfig(model, deltas=(0.4, 0.2, 0.1, 0.05), grid=grid)
    """

    model: dynamics.ModelConfig
    deltas: tuple[float, ...]
    grid: Grid
    u0: object = schema.default("u0")
    v0: object = schema.default("v0")
    sample_stride: int = schema.default("sample_stride")

    def __post_init__(self):
        if self.model.delta is not None:
            raise ConfigError("delta", "a sweep's model is its classical run, so its delta "
                                       f"must be None, got {self.model.delta!r}")
        schema.check("delta_list", self.deltas)
        schema.check("sample_stride", self.sample_stride)
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

    The line is the closed-form one through the centred logs: slope =
    sum(dx dy) / sum(dx^2) and intercept = mean(y) - slope mean(x).  Pairs
    with error at or below the zero floor are excluded (and reported in the
    fit's `excluded` field); fewer than two distinct deltas among the usable
    pairs raises DegenerateFitError.  A negative or non-finite error and a
    delta that is not finite and positive raise ValueError.
    """
    pairs = [(float(d), float(e)) for d, e in pairs]
    if not all(0 <= e < np.inf for _, e in pairs):
        raise ValueError("errors must be finite and nonnegative")
    if not all(0 < d < np.inf for d, _ in pairs):
        raise ValueError("deltas must be finite and positive")
    usable = [(d, e) for d, e in pairs if e > ZERO_ERROR_FLOOR]
    excluded = tuple(d for d, e in pairs if e <= ZERO_ERROR_FLOOR)
    logd = np.log([d for d, _ in usable])
    loge = np.log([e for _, e in usable])
    if len(usable) < 2 or logd.min() == logd.max():
        raise DegenerateFitError(
            f"need >= 2 distinct deltas with positive errors, have {len(set(logd.tolist()))}"
        )
    dx, dy = logd - logd.mean(), loge - loge.mean()
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    intercept = float(loge.mean() - slope * logd.mean())
    ss_res = float(np.sum((loge - (slope * logd + intercept)) ** 2))
    ss_tot = float(np.sum(dy**2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope, intercept, r2, excluded)


def operator_error(
    kernel: Kernel, delta: float, grid: Grid, v: np.ndarray, s: float, theta: float
) -> tuple[float, float]:
    """Distance of the scaled convolution operator from the identity on the
    field with samples v on `grid`.

    Returns (error, bound_ratio) where error = |Kd v - v| in the order-s
    Sobolev norm and bound_ratio = error / (delta^theta * |v|_{s+theta}).
    A constant bound_ratio across delta is the signature of a sharp rate.
    The estimate is an upper bound: a slope fitted over several deltas
    approaches theta only once delta * xi, at the frequencies that carry v,
    lies in the Taylor regime of sqrt(b) (see Kernel.taylor_deviation).
    """
    coeffs = np.fft.rfft(v)
    reference = float(coefficient_norm(coeffs, norm_weights(grid, s + theta)))
    if reference == 0.0:
        raise DegenerateDataError("field has zero norm; bound ratio undefined")
    # (Kd - I) v as one multiplier, so a symbol equal to 1 gives exactly 0
    symbol = kernel.scaled_sqrt_symbol(delta, grid.rfreqs)
    err = float(coefficient_norm((symbol - 1.0) * coeffs, norm_weights(grid, s)))
    return err, err / (delta**theta * reference)


def _dispersion_errors(y: np.ndarray, weights: np.ndarray) -> tuple[float, ...]:
    """|u_d - u| + |v_d - v| for the runs in rows 1.. of the coefficients y
    against the classical run in row 0, in the norm of `weights`."""
    norms = coefficient_norm(y[:, 1:] - y[:, :1], weights)
    return tuple(float(e) for e in norms[0] + norms[1])


def _strain_and_rate(y: np.ndarray, ddx: np.ndarray, size: int, u=None) -> np.ndarray:
    """Samples of the classical strain u and strain rate u_t = v_x of the
    first run of the coefficients y, from one inverse transform; the strain
    samples `u`, if given, stand for the transformed ones."""
    samples = np.fft.irfft(np.stack([y[0, 0], ddx * y[1, 0]]), n=size)
    if u is not None:
        samples[0] = u
    return samples


def _chain_errors(y: np.ndarray, classical: np.ndarray, spans, strides,
                  weights) -> tuple[float, ...]:
    """|u_c - u| + |u_t,c - u_t| for the chains at `spans` of the site arrays
    y = (u, u_t) against the classical samples (u, u_t) at every stride-th
    node, one forward transform per chain, in the norms of `weights`."""
    return tuple(
        float(np.sum(coefficient_norm(np.fft.rfft(y[:, span] - classical[:, ::stride]), w)))
        for span, stride, w in zip(spans, strides, weights)
    )


def zero_dispersion_sweep(cfg: SweepConfig) -> ConvergenceReport:
    """Error of the nonlocal system against the classical one, per delta.

    The classical run and one nonlocal run per delta start from identical
    initial data and share grid and dt; one batched integration steps them
    together.  The error at each sampled time is |u_d - u| + |v_d - v| in the
    order-(s-1) Sobolev norm, taken from the difference of the coefficients
    with no transform, so it is exactly 0 at t = 0; terminal errors feed the
    log-log slope fit.
    """
    model = cfg.model
    initial = dynamics.make_initial(cfg.u0, cfg.v0, cfg.grid)
    weights = norm_weights(cfg.grid, model.s - 1.0)
    rec = dynamics._Recorder(cfg.sample_stride, dynamics.n_steps(model.t_end, model.dt),
                             lambda y, _t: _dispersion_errors(y, weights))
    # the classical run is row 0 of the coefficients, then one row per delta
    configs = [replace(model, delta=delta) for delta in (None, *cfg.deltas)]
    dynamics.integrate(configs, initial, probe=rec)
    return _assemble_report(cfg.deltas, rec)


def lattice_sweep(cfg: SweepConfig) -> ConvergenceReport:
    """Error of the particle chain against the classical system, per delta.

    Every delta must equal the spectral spacing times an integer so chain
    sites coincide with grid nodes.  A chain starts on every stride-th
    initial strain sample of the classical run (u0 is evaluated once), with
    v0's difference quotient at its sites for velocities.  The error
    compares strain and strain rate on the chain sites in the order-(s-1)
    Sobolev norm of the aligned coarse grid; the classical strain rate is
    the spectral derivative of v.  At t = 0 the strains match exactly.
    """
    grid, model = cfg.grid, cfg.model
    initial = dynamics.make_initial(cfg.u0, cfg.v0, grid)
    strides, coarse = [], []
    for delta in cfg.deltas:
        stride = int(round(delta / grid.spacing))
        if stride < 1 or abs(delta / grid.spacing - stride) > 1e-9 or grid.size % stride != 0:
            raise AlignmentError(
                f"delta {delta} is not an integer multiple of grid spacing {grid.spacing}"
            )
        try:  # a chain's sites make a grid of their own
            coarse.append(Grid(grid.half_length, grid.size // stride))
        except ConfigError:
            raise AlignmentError(f"delta {delta} gives a chain of {grid.size // stride} sites, "
                                 "not an even number >= 8") from None
        strides.append(stride)
    chains = [lattice.make_chain(initial.u[::stride], cfg.v0, grid.half_length, c.size)
              for stride, c in zip(strides, coarse)]
    weights = [norm_weights(c, model.s - 1.0) for c in coarse]
    n_steps = dynamics.n_steps(model.t_end, model.dt)
    ddx = dynamics._multiplier(grid, None, None)
    # at t = 0 the initial samples, on which the chains start, stand for the strain
    reference = dynamics._Recorder(
        cfg.sample_stride, n_steps, lambda y, _t: _strain_and_rate(y, ddx, grid.size),
        lambda y, _t: _strain_and_rate(y, ddx, grid.size, initial.u),
    )
    dynamics.integrate(model, initial, probe=reference)

    ends = np.cumsum([c.sites for c in chains])  # the chains lie end to end in y
    spans = [slice(end - c.sites, end) for end, c in zip(ends, chains)]

    def errors_against_classical(y, t):
        sample = len(rec.times) - 1
        if reference.times[sample : sample + 1] != [t]:
            raise AssertionError("sample times diverged between paired runs")
        return _chain_errors(y, reference.snaps[sample], spans, strides, weights)

    rec = dynamics._Recorder(cfg.sample_stride, n_steps, errors_against_classical)
    lattice.integrate_chain(chains, model.epsilon, model.n, model.dt, model.t_end, probe=rec)
    if rec.times != reference.times:
        raise AssertionError("sample times diverged between paired runs")
    return _assemble_report(cfg.deltas, rec)


def _assemble_report(deltas, recorder) -> ConvergenceReport:
    """The report of a recorder that kept one error per delta at each sample."""
    series = tuple(zip(*recorder.snaps))
    errors = tuple(float(errs[-1]) for errs in series)
    try:
        fit = fit_rate(list(zip(deltas, errors)))
    except DegenerateFitError:
        fit = None
    return ConvergenceReport(deltas=tuple(deltas), errors=errors, fit=fit,
                             degenerate=fit is None, times=tuple(recorder.times), series=series)
