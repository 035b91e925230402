"""Right-hand sides, RK4 time stepping, energy diagnostic, breakdown monitor.

The first-order system in (u, v) is

    u_t = Kd v_x,     v_t = Kd (u + eps^n u^(n+1))_x,

where Kd is the Fourier multiplier with symbol sqrt(b(delta*xi)).  The
classical (dispersionless) counterpart drops Kd.  `delta=None` in ModelConfig
selects the classical system; any positive delta selects the nonlocal one.
Nonlinear products are dealiased by zero padding, and the classical
right-hand side is written in the same conservative form so a delta-sweep
isolates the kernel effect alone.

`integrate` keeps (u, v) as real-FFT coefficients for the whole run.  The
right-hand side is then (M v^, M (u + g(u))^) with the fused multiplier
M = i xi sqrt(b(delta xi)) built once per call, so a stage costs one padded
transform pair for the power and none when eps = 0.  Before each step the
breakdown monitor is bounded from the coefficients u^, the first RK4 stage
and |xi| u^, with no transform; the exact monitor, one inverse transform of
all rows, runs only when the bound reaches the threshold, so every breakdown
decision is the exact monitor's.  Runs that differ only in delta are rows of
one array and share every transform.  Each call allocates its work buffers
once (RK4 stage input, stage derivative and accumulator, dealiasing and
monitor buffers); a step then allocates only its new state, which observers
get as states whose samples are transformed on the first read of u or v.
`breakdown_monitor` is a Field-level wrapper over the same core.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache, cached_property

import numpy as np

from . import schema, shapes
from .errors import BreakdownError, ConfigError, HyperbolicityError, NonFiniteError
from .kernels import Kernel
from .spectral import (
    Field,
    Grid,
    _integer_power,
    dealiased_power_rfft,
    power_buffers,
    sobolev_scale,
)

_STEP_ROUNDING = 1e-9  # fraction of dt tolerated when counting steps
_CFL_SAFETY = 0.25  # Courant number of the CFL step
# The exact monitor runs when the coefficient bound reaches the threshold less
# this fraction, which covers the round-off of both, or this ceiling, far below
# where a transform of the coefficients could overflow.
_BOUND_MARGIN = 1e-6
_BOUND_CEILING = 1e300


@dataclass(frozen=True)
class State:
    """Solution snapshot: strain u, auxiliary variable v, current time."""

    u: Field
    v: Field
    t: float

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise ValueError("u and v live on different grids")

    @property
    def grid(self) -> Grid:
        return self.u.grid


@dataclass(frozen=True)
class ModelConfig:
    """Model and integration parameters for one run.

    delta=None selects the classical elasticity system (the Dirac limit);
    delta>0 selects the nonlocal system with the configured kernel.  The
    nonlinearity is g(u) = eps^n * u^(n+1); eps=0 gives the linear system.
    """

    kernel: Kernel
    delta: float | None
    dt: float
    t_end: float
    epsilon: float = 0.0
    n: int = 1
    s: float = 3.0
    breakdown_threshold: float = 1e3

    def __post_init__(self):
        for f in fields(self)[1:]:  # each field after the kernel is named as in the config
            schema.check(f.name, getattr(self, f.name))
        if self.dt is None:  # null asks for the CFL step, which `shared_dt` resolves
            raise ConfigError("dt", "must be a number in a ModelConfig, got None")

    @property
    def nonlinear_coefficient(self) -> float:
        return self.epsilon**self.n


def cfl_dt(grid: Grid, kernel: Kernel, delta: float | None) -> float:
    """Time step from the unit-wave-speed CFL guard: _CFL_SAFETY * h / max(k)."""
    if delta is None:
        speed = 1.0
    else:
        speed = float(np.max(kernel.scaled_sqrt_symbol(delta, grid.freqs)))
    return _CFL_SAFETY * grid.spacing / max(speed, 1e-12)


def shared_dt(grid: Grid, kernel: Kernel, deltas, dt: float | None = None) -> float:
    """Step size shared by the classical run and one run per delta.

    An explicit dt wins; otherwise the most restrictive CFL guard over the
    classical system and every positive delta in `deltas`.
    """
    if dt is not None:
        return dt
    candidates = [cfl_dt(grid, kernel, None)]
    candidates += [cfl_dt(grid, kernel, d) for d in deltas if d is not None]
    return min(candidates)


def n_steps(span: float, dt: float) -> int:
    """RK4 steps that cover `span`; the last one may be shorter than dt."""
    return int(np.ceil(span / dt - _STEP_ROUNDING)) if span > 0 else 0


# --- spectral-state core ----------------------------------------------------
#
# The stepper holds real-FFT coefficients y = (u^, v^) of shape (2, rows, N/2+1);
# a row is one run, and runs that differ only in delta share every transform.


def _multiplier(grid: Grid, kernel: Kernel, delta: float | None) -> np.ndarray:
    """Fused multiplier i xi sqrt(b(delta xi)) with the Nyquist bin zeroed.

    delta=None gives the classical multiplier i xi, the spectral derivative.
    """
    xi = grid.rfreqs
    m = 1j * xi
    if delta is not None:
        m = m * kernel.scaled_sqrt_symbol(delta, xi)
    m[-1] = 0.0
    return m


def _spectral_rhs(multiplier: np.ndarray, cfg: ModelConfig, size: int, shape):
    """y -> (M y[1], M (y[0] + eps^n y[0]^(n+1))^) for (2, *shape) coefficient arrays.

    The returned rhs(y, t, out) writes into `out`; its dealiasing buffers are
    allocated here, once.
    """
    coef = cfg.nonlinear_coefficient
    power = cfg.n + 1
    buffers = None if coef == 0.0 else power_buffers(shape, size, power)

    def rhs(y, _t, out):
        np.multiply(multiplier, y[1], out=out[0])
        stress = y[0]
        if coef != 0.0:
            stress = dealiased_power_rfft(y[0], size, power, buffers)
            np.multiply(coef, stress, out=stress)
            np.add(y[0], stress, out=stress)
        np.multiply(multiplier, stress, out=out[1])

    return rhs


def _monitor(u: np.ndarray, du: np.ndarray, ddx: np.ndarray, stacked, samples) -> np.ndarray:
    """|u|_inf + |u_t|_inf + |u_x|_inf per row, from one inverse transform.

    ddx is the classical multiplier, so ddx * u is the coefficient array of
    u_x; `stacked` (3, *u.shape) and `samples` (3, *u.shape[:-1], N) are work buffers.
    """
    stacked[0] = u
    stacked[1] = du
    np.multiply(ddx, u, out=stacked[2])
    np.fft.irfft(stacked, n=samples.shape[-1], out=samples)
    peaks = np.max(np.abs(samples, out=samples), axis=-1)
    return peaks[0] + peaks[1] + peaks[2]


def _monitor_bound(ddx: np.ndarray, size: int):
    """(u, du) -> per-row upper bound on what `_monitor` returns, without a transform.

    An inverse real DFT sample is at most sum_k w_k |c_k| with w_0 = w_{N/2} =
    1/N and 2/N elsewhere, and |c| <= |Re c| + |Im c|; the u_x term weighs u^
    by |xi| and skips the Nyquist bin, as ddx does.  The weights are built
    here, once; the returned bound(u, du, scratch) uses `scratch`, a real
    buffer of shape (*u.shape[:-1], 2 * u.shape[-1]).
    """
    w = np.full(ddx.shape, 2.0 / size)
    w[0] = w[-1] = 1.0 / size
    w_u = np.repeat(w * (1.0 + np.abs(ddx)), 2)  # over (Re, Im) pairs
    w_du = np.repeat(w, 2)

    def bound(u, du, scratch):
        total = np.abs(u.view(float), out=scratch) @ w_u
        return total + np.abs(du.view(float), out=scratch) @ w_du

    return bound


def _rk4(rhs, y: np.ndarray, t: float, h: float, stage, k, acc):
    """One classical RK4 step of the stacked pair y = (u, v); returns the new y.

    rhs(y, t, out) writes the derivative of y into out; `stage`, `k` and `acc`
    are buffers shaped like y for the stage input, the stage derivative and
    the weighted stage sum, which holds k1 = rhs(y, t) on entry.  Only the
    new y is allocated, and it is never written again, so snapshots may keep
    it.  Serves coefficient arrays and the chain's site arrays alike.
    """
    half = 0.5 * h
    np.multiply(half, acc, out=stage)
    np.add(y, stage, out=stage)
    rhs(stage, t + half, k)  # k2
    np.multiply(half, k, out=stage)
    np.add(y, stage, out=stage)
    np.multiply(2.0, k, out=k)
    np.add(acc, k, out=acc)
    rhs(stage, t + half, k)  # k3
    np.multiply(h, k, out=stage)
    np.add(y, stage, out=stage)
    np.multiply(2.0, k, out=k)
    np.add(acc, k, out=acc)
    rhs(stage, t + h, k)  # k4
    np.add(acc, k, out=acc)
    np.multiply(h / 6.0, acc, out=acc)
    return np.add(y, acc)


def _coefficients(state: State) -> np.ndarray:
    """Real-FFT coefficients of (u, v), stacked."""
    return np.fft.rfft(np.stack([state.u.samples, state.v.samples]))


def breakdown_monitor(state: State, cfg: ModelConfig) -> float:
    """Wave-breaking indicator: |u|_inf + |u_t|_inf + |u_x|_inf.

    u_t is recomputed from the active right-hand side rather than stored,
    matching the system definition.
    """
    grid = state.grid
    u, v = _coefficients(state)
    du = _multiplier(grid, cfg.kernel, cfg.delta) * v
    stacked, samples = np.empty((3, *u.shape), dtype=complex), np.empty((3, grid.size))
    return float(_monitor(u, du, _multiplier(grid, None, None), stacked, samples))


def energy(state: State, cfg: ModelConfig, s: float | None = None) -> float:
    """Weighted Sobolev energy: sqrt(0.5 * int((1+w)(S u)^2 + (S v)^2) dx)
    with S the order-s smoothing multiplier and w = (n+1) eps^n u^n.

    Conserved exactly by the linear (eps=0) semi-discrete flow; a diagnostic
    otherwise.  Raises HyperbolicityError when 1 + w <= 0 anywhere.
    """
    order = cfg.s if s is None else s
    coef = (cfg.n + 1) * cfg.nonlinear_coefficient
    with np.errstate(over="ignore", invalid="ignore"):
        w = coef * _integer_power(state.u.samples, cfg.n) if coef != 0.0 else 0.0
    one_plus_w = 1.0 + w
    if np.min(one_plus_w) <= 0.0:
        raise HyperbolicityError(
            f"1 + g'(u) reaches {np.min(one_plus_w):.3e} <= 0 at t={state.t:.6g}"
        )
    lu = sobolev_scale(state.u, order).samples
    lv = sobolev_scale(state.v, order).samples
    h = state.grid.spacing
    # squared over 2**e, the peak's power of two: exact, and finite data cannot overflow
    e = np.frexp(max(np.max(np.abs(lu)), np.max(np.abs(lv))))[1]
    lu, lv = np.ldexp(lu, -e), np.ldexp(lv, -e)
    return float(np.ldexp(np.sqrt(0.5 * h * np.sum(one_plus_w * lu**2 + lv**2)), e))


def make_initial(u0_spec, v0_spec, grid: Grid) -> State:
    """Build the t=0 state from initial-data specs.

    Only (u0, v0) are stored; the initial strain rate is implied by the
    system and never supplied directly.
    """
    u = Field(grid, shapes.evaluate_on_nodes(u0_spec, grid.nodes, grid.half_length))
    v = Field(grid, shapes.evaluate_on_nodes(v0_spec, grid.nodes, grid.half_length))
    return State(u, v, 0.0)


def _shared_settings(cfg: ModelConfig) -> tuple:
    return tuple(getattr(cfg, f.name) for f in fields(ModelConfig) if f.name != "delta")


def _unchecked(cls, **attributes):
    """An instance of the frozen dataclass `cls` with `attributes`, built without __init__."""
    instance = cls.__new__(cls)
    instance.__dict__.update(attributes)
    return instance


class _Snapshot(State):
    """A State handed out by `integrate`: u and v are built on first access.

    The rows of one step share `_samples`, which transforms all of them in one
    cached inverse FFT; `t` needs no transform.
    """

    u = cached_property(lambda self: Field(self._grid, self._samples()[0, self._row]))
    v = cached_property(lambda self: Field(self._grid, self._samples()[1, self._row]))


def _snapshots(grid: Grid, y: np.ndarray, t: float) -> tuple[State, ...]:
    """Lazy states of every row of the coefficients y, sharing one transform."""
    @cache
    def samples():
        out = np.fft.irfft(y, n=grid.size)
        out.setflags(write=False)
        return out

    rows = range(y.shape[1])
    return tuple(_unchecked(_Snapshot, t=t, _grid=grid, _samples=samples, _row=r) for r in rows)


class _Recorder:
    """Observer keeping take(state) every `stride` steps plus the last step."""

    def __init__(self, stride: int, n_steps: int, take):
        self.stride = stride
        self.n_steps = n_steps
        self.take = take
        self.count = -1
        self.times = []
        self.snaps = []

    def __call__(self, state):
        self.count += 1
        if self.count % self.stride == 0 or self.count == self.n_steps:
            first = state[0] if isinstance(state, tuple) else state
            self.times.append(first.t)
            self.snaps.append(self.take(state))


def integrate(cfg, initial: State, observers=()):
    """March the configured system from initial.t to cfg.t_end with RK4.

    The last step is shortened to land on t_end exactly.  Observers are
    invoked on the initial state and after every step.  Raises BreakdownError
    when the wave-breaking monitor exceeds cfg.breakdown_threshold and
    NonFiniteError if the state stops being finite, including after the last
    step.  Each step checks a bound on the monitor summed from the
    coefficients; the monitor itself is transformed only when that bound
    reaches the threshold (less a round-off margin), is non-finite or is huge.

    `cfg` may also be a sequence of configs that differ only in delta: the
    runs then start from the same initial state and are stepped together.
    Observers receive, and the call returns, a tuple of states in the order
    of the configs; the earliest breakdown of any run is raised.
    """
    batch = not isinstance(cfg, ModelConfig)
    configs = tuple(cfg) if batch else (cfg,)
    if not configs:
        raise ValueError("integrate needs at least one config")
    base = configs[0]
    if any(_shared_settings(c) != _shared_settings(base) for c in configs[1:]):
        raise ValueError("batched configs may differ only in delta")
    if base.t_end < initial.t:
        raise ValueError(f"t_end {base.t_end} precedes initial time {initial.t}")
    steps = n_steps(base.t_end - initial.t, base.dt)

    def notify(states):
        for observer in observers:
            observer(states if batch else states[0])

    states = (initial,) * len(configs)
    notify(states)
    if steps == 0:
        return states if batch else initial

    grid = initial.grid
    y = np.empty((2, len(configs), grid.size // 2 + 1), dtype=complex)
    y[...] = _coefficients(initial)[:, None]
    multiplier = np.stack([_multiplier(grid, c.kernel, c.delta) for c in configs])
    rhs = _spectral_rhs(multiplier, base, grid.size, y.shape[1:])
    ddx = _multiplier(grid, None, None)
    bound = _monitor_bound(ddx, grid.size)
    gate = min(base.breakdown_threshold * (1.0 - _BOUND_MARGIN), _BOUND_CEILING)
    # the stage input and derivative; before the stages, the monitor's stack
    # (work[:3]) and the bound's scratch (work[3] as reals)
    work = np.empty((4, *y.shape[1:]), dtype=complex)
    stage, k, acc = work[:2], work[2:], np.empty_like(y)
    samples = np.empty((3, len(configs), grid.size))
    t = initial.t
    for i in range(steps):
        last = i == steps - 1
        h = base.t_end - t if last else base.dt
        with np.errstate(over="ignore", invalid="ignore"):
            rhs(y, t, acc)
            # below the gate the exact monitor is finite and cannot exceed the
            # threshold (a NaN bound fails the test too)
            if not (bound(y[0], acc[0], work[3].view(float)) <= gate).all():
                monitor = _monitor(y[0], acc[0], ddx, work[:3], samples)
                if not np.all(np.isfinite(monitor)):
                    raise NonFiniteError(f"state became non-finite at t={t:.6g}")
                over = monitor > base.breakdown_threshold
                if np.any(over):
                    row = int(np.argmax(over))
                    raise BreakdownError(t, float(monitor[row]), base.breakdown_threshold)
            y = _rk4(rhs, y, t, h, stage, k, acc)
        t = base.t_end if last else t + h
        if last and not np.all(np.isfinite(y)):
            raise NonFiniteError(f"state became non-finite at t={t:.6g}")
        if observers or last:
            states = _snapshots(grid, y, t)
            notify(states)
    return states if batch else states[0]
