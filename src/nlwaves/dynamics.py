"""Right-hand side, RK4 time stepping, energy diagnostic, breakdown monitor.

The first-order system in (u, v) is

    u_t = Kd v_x,     v_t = Kd (u + eps^n u^(n+1))_x,

where Kd is the Fourier multiplier with symbol sqrt(b(delta*xi)).  The
classical (dispersionless) counterpart drops Kd.  `delta=None` in ModelConfig
selects the classical system; any positive delta selects the nonlocal one.
Nonlinear products are dealiased by zero padding, and the classical
right-hand side is written in the same conservative form so a delta-sweep
isolates the kernel effect alone.

`integrate` keeps (u, v) as real-FFT coefficients for the whole run.  The
right-hand side is then M (v^, u^) + (0, M g(u)^) with the fused multiplier
M = i xi sqrt(b(delta xi)) built once per call.  An RK4 stage writes c f(y),
its weight c folded in: one multiply of c M by the swapped pair, plus, when
eps != 0, the power of u on a zero-padded grid of P >= (n+2)/2 N points (one
padded transform pair, which removes its aliasing exactly) and one
multiply-add by c eps^n (P/N)^n M; `_spectral_rhs` builds one closure per c
over one set of buffers.  The pair calls the two
pocketfft gufuncs that `np.fft.irfft` and `np.fft.rfft` end in, bound once
at import: at N=256 the wrappers' checks cost about as much as a
transform.  Every other transform goes through `np.fft`.  Before each step
the breakdown monitor is bounded from the state alone (`_state_bound`);
the exact monitor, one inverse transform of all rows, runs only when the
bound reaches the threshold, so every breakdown decision is the exact
monitor's.  Runs that differ only in delta are rows of one array and share
every transform.

One RK4 march, `_march`, steps both models: this spectral core and the
particle chain of `nlwaves.lattice`.  It owns the step count, the shortened
last step that lands on t_end, the check of each first stage, the final
finiteness check, its one hook and its numpy error state, and allocates its
work buffers once per call; a step then allocates only its new state.

The hook is `probe(y, t)`: it sees the stepped arrays at the start and after
every step, and every built-in diagnostic reads them through it; `_Recorder`
is that probe.  The integrators' public observers are called after it with
t alone.  A State holds its grid, read-only node samples of u and v, and
t; none is built between steps: `integrate` builds the final ones, once,
as views of one inverse transform of the last coefficients.  A `simulate`
sample (`_sampler`) is one inverse transform of (u^, M v^, u_x^, S u^,
S v^), S the order-s smoothing multiplier; `simulate` takes every sample,
its summary's final values too, through one `_Recorder`.  The energy
(`_energy`) and the monitor's sum of peaks (`_peak_sum`) have no other
path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.fft._pocketfft_umath import irfft as _irfft, rfft_n_even as _rfft

from . import schema, shapes
from .errors import BreakdownError, ConfigError, HyperbolicityError, NonFiniteError
from .kernels import Kernel
from .spectral import Grid, _integer_power

_STEP_ROUNDING = 1e-9  # fraction of dt tolerated when counting steps
# Past 2**53 steps t + dt no longer moves t near the end of the span, so the
# march's shortened last step would cover the rest of it
_MAX_STEPS = 2.0**53
_CFL_SAFETY = 0.25  # Courant number of the CFL step
# The exact monitor runs when the coefficient bound reaches the threshold less
# this fraction, which covers the round-off of both, or this ceiling, far below
# where a transform of the coefficients could overflow.
_BOUND_MARGIN = 1e-6
_BOUND_CEILING = 1e300
#: ufunc buffer size, in elements, while a state of several rows is stepped
_STAGE_BUFSIZE = 16


@dataclass(frozen=True, eq=False)
class State:
    """Solution snapshot on `grid`: samples of the strain u and the auxiliary
    variable v at its nodes, and the time t.

    u and v are read-only float arrays of shape (grid.size,).  Writable input
    is copied; read-only input is kept, so a State may view the arrays of
    another.  Raises ValueError when a shape differs.
    """

    grid: Grid
    u: np.ndarray
    v: np.ndarray
    t: float

    def __post_init__(self):
        for name in ("u", "v"):
            samples = np.asarray(getattr(self, name), dtype=float)
            if samples.shape != (self.grid.size,):
                raise ValueError(f"{name} has shape {samples.shape}, expected ({self.grid.size},)")
            if samples.flags.writeable:
                samples = samples.copy()
                samples.setflags(write=False)
            object.__setattr__(self, name, samples)


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
    t_end: float = schema.default("t_end")
    epsilon: float = schema.default("epsilon")
    n: int = schema.default("n")
    s: float = schema.default("s")
    breakdown_threshold: float = schema.default("breakdown_threshold")

    def __post_init__(self):
        for f in fields(self)[1:]:  # each field after the kernel is named as in the config
            schema.check(f.name, getattr(self, f.name))
        if self.dt is None:  # null asks for the CFL step, which `shared_dt` resolves
            raise ConfigError("dt", "must be a number in a ModelConfig, got None")
        schema.nonlinear_coefficient(self.epsilon, self.n)  # the rule of n that needs epsilon

    @property
    def nonlinear_coefficient(self) -> float:
        return schema.nonlinear_coefficient(self.epsilon, self.n)


def shared_dt(grid: Grid, dt: float | None = None) -> float:
    """Step size shared by the runs of one study: an explicit dt, or the CFL
    step _CFL_SAFETY * h.

    The CFL step needs no kernel: every kernel obeys 0 <= b <= b(0) = 1, so
    no wave is faster than the classical speed 1.
    """
    return _CFL_SAFETY * grid.spacing if dt is None else dt


def n_steps(span: float, dt: float) -> int:
    """RK4 steps that cover `span`, one at least if span > 0; the last may be
    shorter than dt.  Raises ConfigError naming dt when span / dt exceeds
    _MAX_STEPS or overflows."""
    if span <= 0:
        return 0
    if not span / dt <= _MAX_STEPS:
        raise ConfigError("dt", f"{dt!r} is too small for a span of {span!r}: "
                                f"{span / dt:.3g} steps exceed 2**53")
    return max(1, int(np.ceil(span / dt - _STEP_ROUNDING)))


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


def _padded_size(n: int, power: int) -> int:
    """Even padded length of at least (power+1)/2 * n points."""
    padded = int(np.ceil((power + 1) * n / 2))
    return padded + padded % 2


def _nonlinear_scale(coef: float, n: int, size: int) -> float:
    """eps^n (P/N)^n, the scale of the dealiased power of an N = `size` point
    field with P = `_padded_size(N, n + 1)`, from coef = eps^n; 0 when coef is
    0, since the linear system takes no power.  Raises ConfigError naming n
    when it overflows.  The chain applies the same rule, so both models
    reject the same n."""
    if coef == 0.0:
        return 0.0
    try:
        scale = coef * (_padded_size(size, n + 1) / size) ** n
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise ConfigError("n", f"the nonlinear scale epsilon**n (P/N)**n overflows at n = {n}")
    return scale


def _spectral_rhs(multiplier: np.ndarray, cfg: ModelConfig, size: int, shape):
    """scaled(c) -> rhs(y, out), which writes c (M y[1], M (y[0] + eps^n
    y[0]^(n+1))^) of (2, *shape) coefficient arrays y into `out`.

    The power is taken on P = `_padded_size` points, zero-padded, and
    truncated back, which removes its aliasing exactly; the weight 1/2 splits
    the Nyquist coefficient between the +/- N/2 padded modes.  Neither
    transform is rescaled: scaled(c) builds the multipliers c M and c eps^n
    (P/N)^n M, which zeroes the left-out Nyquist bin, and every closure
    shares the work buffers built here, once.  The pair is the gufunc calls
    that `np.fft.irfft(fine, n=P, out=product)` and `np.fft.rfft(product,
    out=spec)` make after their checks, with numpy's scales 1/P and 1; P is
    even, so the forward gufunc is `rfft_n_even`.  Raises ConfigError naming
    n when eps^n (P/N)^n (`_nonlinear_scale`) or its product with M is not
    finite.
    """
    scale = _nonlinear_scale(cfg.nonlinear_coefficient, cfg.n, size)
    if scale == 0.0:
        def linear(c):
            m = c * multiplier
            return lambda y, out: np.multiply(m, y[::-1], out=out)

        return linear
    power, half = cfg.n + 1, size // 2
    padded = _padded_size(size, power)
    with np.errstate(over="ignore", invalid="ignore"):
        m_nl = scale * multiplier[..., :half]
    if not np.all(np.isfinite(m_nl)):
        raise ConfigError("n", f"the nonlinear multiplier epsilon**n (P/N)**n M overflows at "
                               f"n = {cfg.n}")
    weights = np.append(np.ones(half, complex), 0.5)
    fine = np.zeros((*shape[:-1], padded // 2 + 1), complex)  # zero above N/2
    head = fine[..., : half + 1]
    product = np.empty((*shape[:-1], padded))
    spec = np.empty_like(fine)
    scratch = spec.view(float)[..., :padded]  # partial products, until rfft writes spec
    stress = spec[..., :half]

    def scaled(c):
        m, m_nl_c = c * multiplier, c * m_nl

        def rhs(y, out):
            np.multiply(m, y[::-1], out=out)
            np.multiply(y[0], weights, out=head)
            _irfft(fine, 1 / padded, out=product)
            _integer_power(product, power, out=product, scratch=scratch)
            _rfft(product, 1.0, out=spec)
            np.multiply(m_nl_c, stress, out=stress)
            dv = out[1, ..., :half]
            np.add(dv, stress, out=dv)

        return rhs

    return scaled


def _smoothing(grid: Grid, s: float) -> np.ndarray:
    """Order-s smoothing multiplier (1 + xi^2)^(s/2) over the real-FFT
    frequencies; raises ConfigError naming s when it overflows."""
    with np.errstate(over="ignore"):
        scale = (1.0 + grid.rfreqs**2) ** (s / 2.0)
    if not np.all(np.isfinite(scale)):
        raise ConfigError("s", f"the order-{s!r} smoothing multiplier overflows on {grid}")
    return scale


def _monitor(u: np.ndarray, du: np.ndarray, ddx: np.ndarray, stacked, samples) -> np.ndarray:
    """|u|_inf + |u_t|_inf + |u_x|_inf per row, from one inverse transform.

    ddx is the classical multiplier, so ddx * u is the coefficient array of
    u_x; `stacked` (3, *u.shape) and `samples` (3, *u.shape[:-1], N) are work buffers.
    """
    stacked[0] = u
    stacked[1] = du
    np.multiply(ddx, u, out=stacked[2])
    np.fft.irfft(stacked, n=samples.shape[-1], out=samples)
    return _peak_sum(samples)


def _peak_sum(samples: np.ndarray) -> np.ndarray:
    """The monitor's |u|_inf + |u_t|_inf + |u_x|_inf per row of rows 0-2, taken in place."""
    peaks = np.max(np.abs(samples, out=samples), axis=-1)
    return peaks[0] + peaks[1] + peaks[2]


def _state_bound(multiplier: np.ndarray, ddx: np.ndarray, size: int):
    """y -> per-row upper bound on `_monitor` of u^ and M v^, without a
    transform, for coefficients y = (u^, v^) of shape (2, *multiplier.shape).

    An inverse real DFT sample is at most sum_k w_k |c_k| with w_0 = w_{N/2} =
    1/N and 2/N elsewhere, and |c| <= |Re c| + |Im c|; the u_x term weighs u^
    by |xi| and skips the Nyquist bin, as ddx does.  Every symbol is real, so
    M is imaginary and |Re M v| + |Im M v| = |M| (|Re v| + |Im v|): one abs
    and one dot per row, against weights built here, once.
    """
    w = np.full(ddx.shape, 2.0 / size)
    w[0] = w[-1] = 1.0 / size
    rows = multiplier.shape[0]
    weights = np.empty((rows, 2, 2 * ddx.size))  # (row, u or v, Re and Im pairs)
    weights[:, 0] = np.repeat(w * (1.0 + np.abs(ddx)), 2)
    weights[:, 1] = np.repeat(w * np.abs(multiplier), 2, axis=-1)
    weights = weights.reshape(rows, -1)
    scratch = np.empty((rows, 2, 2 * ddx.size))
    flat = scratch.reshape(rows, -1)

    def bound(y):
        np.abs(y.view(float).transpose(1, 0, 2), out=scratch)
        return np.vecdot(flat, weights)

    return bound


def _rk4(half, full, sixth, y: np.ndarray, stage, k, acc):
    """One RK4 step of the stacked pair y = (u, v) in scaled stages; returns the new y.

    half, full and sixth write (h/2) f, h f and (h/6) f of their first
    argument into their second; `acc` holds a = (h/2) f(y) on entry, and
    `stage` and `k` are buffers shaped like y.  With b = (h/2) f(y + a), c =
    h f(y + b) and d = (h/6) f(y + c) the new y is y + ((a + b + b + c) (1/3)
    + d), the one array allocated; it is never written again, so a probe may
    keep it.  Serves coefficient arrays and the chain's site arrays alike.
    """
    np.add(y, acc, out=stage)
    half(stage, k)  # b
    np.add(y, k, out=stage)
    np.add(acc, k, out=acc)
    np.add(acc, k, out=acc)
    full(stage, k)  # c
    np.add(y, k, out=stage)
    np.add(acc, k, out=acc)
    sixth(stage, k)  # d
    np.multiply(acc, 1.0 / 3.0, out=acc)  # numpy's complex acc / 3 is this multiply
    np.add(acc, k, out=acc)
    return np.add(y, acc)


def _hook(probe, observers):
    """The march's one hook: probe(y, t), if given, then each observer with t only."""
    if not observers:
        return probe

    def hook(y, t):
        if probe is not None:
            probe(y, t)
        for observer in observers:
            observer(t)

    return hook


def _march(scaled, y: np.ndarray, t: float, t_end: float, dt: float, check, probe):
    """March y from t to t_end with RK4 steps of dt, the last one shortened to
    land on t_end; returns the y of the last step, or y itself if there is none.

    scaled(c) returns rhs(y, out), which writes c f(y) into out.  probe(y,
    t), if not None, sees y at t and after every step; it must not write y,
    and may keep it, since a stepped y is never written again.  Before each
    step check(y, a, t) sees the state and a = (h/2) f(y) and may raise; the
    state after the last step must be finite.  Steps and probes ignore
    overflow and invalid.  Raises ValueError, before the first probe, when
    t_end precedes t.
    """
    if t_end < t:
        raise ValueError(f"t_end {t_end} precedes the start time {t}")
    if probe is not None:
        probe(y, t)
    steps = n_steps(t_end - t, dt)
    stage, k, acc = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    with np.errstate(over="ignore", invalid="ignore"):
        # numpy's ufuncs copy the row-strided views of a stage on several rows
        # through new buffers of `np.getbufsize()` elements; with buffers shorter
        # than a row they take each row in place, with the same arithmetic.
        if y.ndim > 2 and y.shape[1] > 1:
            np.setbufsize(_STAGE_BUFSIZE)  # leaving the errstate restores it
        for i in range(steps):
            last = i == steps - 1
            h = t_end - t if last else dt
            if i == 0 or h != dt:  # for dt, and again for a shortened last step
                half = full = sixth = None  # dt's closures go first, to bound memory
                half, full, sixth = scaled(0.5 * h), scaled(h), scaled(h / 6.0)
            half(y, acc)
            check(y, acc, t)
            y = _rk4(half, full, sixth, y, stage, k, acc)
            t = t_end if last else t + h
            if last and not np.all(np.isfinite(y)):
                raise NonFiniteError(f"state became non-finite at t={t:.6g}")
            if probe is not None:
                probe(y, t)
    return y


def _coefficients(state: State) -> np.ndarray:
    """Real-FFT coefficients of (u, v), stacked."""
    return np.fft.rfft(np.stack([state.u, state.v]))


def _energy(u: np.ndarray, lu: np.ndarray, lv: np.ndarray, cfg: ModelConfig, h: float,
            t: float) -> float:
    """Weighted Sobolev energy sqrt(0.5 * int((1+w)(S u)^2 + (S v)^2) dx), w =
    (n+1) eps^n u^n, from the samples of u and of its and v's order-s
    smoothings lu = S u and lv = S v.

    Conserved exactly by the linear (eps=0) semi-discrete flow; a diagnostic
    otherwise.  Raises HyperbolicityError when 1 + w <= 0 anywhere.
    """
    coef = (cfg.n + 1) * cfg.nonlinear_coefficient
    with np.errstate(over="ignore", invalid="ignore"):
        w = coef * _integer_power(u, cfg.n) if coef != 0.0 else 0.0
    one_plus_w = 1.0 + w
    if np.min(one_plus_w) <= 0.0:
        raise HyperbolicityError(f"1 + g'(u) reaches {np.min(one_plus_w):.3e} <= 0 at t={t:.6g}")
    # squared over 2**e, the peak's power of two: exact, and finite data cannot overflow
    e = np.frexp(max(np.max(np.abs(lu)), np.max(np.abs(lv))))[1]
    lu, lv = np.ldexp(lu, -e), np.ldexp(lv, -e)
    return float(np.ldexp(np.sqrt(0.5 * h * np.sum(one_plus_w * lu**2 + lv**2)), e))


def _sampler(cfg: ModelConfig, grid: Grid):
    """take(y, t, u=None) -> (energy, monitor, |u|_inf) of the first run of
    the coefficients y at t, from one inverse transform of (u^, M v^, u_x^,
    S u^, S v^); M, the derivative and S are built here, once.  The strain
    samples `u`, if given, stand for the transformed ones in the energy
    weight and in |u|_inf; the monitor keeps the transformed strain, as
    `integrate`'s check does.  Raises HyperbolicityError where `_energy` does."""
    m, ddx = _multiplier(grid, cfg.kernel, cfg.delta), _multiplier(grid, None, None)
    scale = _smoothing(grid, cfg.s)
    stacked = np.empty((5, grid.size // 2 + 1), dtype=complex)
    samples = np.empty((5, grid.size))

    def take(y, t, u=None):
        stacked[0] = y[0, 0]
        np.multiply(m, y[1, 0], out=stacked[1])
        np.multiply(ddx, y[0, 0], out=stacked[2])
        np.multiply(scale, y[:, 0], out=stacked[3:])
        np.fft.irfft(stacked, n=grid.size, out=samples)
        if u is None:
            u = samples[0]
        e = _energy(u, samples[3], samples[4], cfg, grid.spacing, t)
        u_linf = float(np.max(np.abs(u)))
        return e, float(_peak_sum(samples[:3])), u_linf

    return take


def make_initial(u0_spec, v0_spec, grid: Grid) -> State:
    """Build the t=0 state from initial-data specs.

    Only (u0, v0) are stored; the initial strain rate is implied by the
    system and never supplied directly.  A spec that cannot be evaluated
    raises InvalidSpecError naming its config key, u0 or v0, and finite
    samples whose real-FFT coefficients are not finite raise ConfigError
    naming it.
    """
    with shapes.naming("u0"):
        u = shapes.evaluate_on_nodes(u0_spec, grid.nodes, grid.half_length)
    with shapes.naming("v0"):
        v = shapes.evaluate_on_nodes(v0_spec, grid.nodes, grid.half_length)
    state = State(grid, u, v, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients = _coefficients(state)
    for key, row in zip(("u0", "v0"), coefficients):
        if not np.all(np.isfinite(row)):
            raise ConfigError(key, "its real-FFT coefficients are not finite")
    return state


def _shared_settings(cfg: ModelConfig) -> tuple:
    return tuple(getattr(cfg, f.name) for f in fields(ModelConfig) if f.name != "delta")


class _Recorder:
    """Probe keeping take(y, t) every `stride` steps plus the last step.

    The initial sample is first(y, t) if given, so a caller can read it from
    exact initial samples rather than from their coefficients.
    """

    def __init__(self, stride: int, n_steps: int, take, first=None):
        self.stride = stride
        self.n_steps = n_steps
        self.take = take
        self.first = take if first is None else first
        self.count = -1
        self.times = []
        self.snaps = []

    def __call__(self, y, t):
        self.count += 1
        if self.count % self.stride == 0 or self.count == self.n_steps:
            self.times.append(t)
            self.snaps.append((self.take if self.count else self.first)(y, t))


def integrate(cfg, initial: State, observers=(), probe=None):
    """March the configured system from initial.t to cfg.t_end with RK4.

    The last step is shortened to land on t_end exactly.  The internal
    probe(y, t) sees the coefficients y of shape (2, runs, N/2 + 1) at
    initial.t and after every step (see `_march`); each observer is then
    called with t alone.  Raises NonFiniteError before the first probe when
    the initial coefficients are not finite (`make_initial` names the config
    key of such data), BreakdownError when the wave-breaking monitor exceeds
    cfg.breakdown_threshold and NonFiniteError if the state stops being
    finite.  Each step checks a bound on the monitor summed from the
    state's coefficients; the monitor itself is transformed only when that
    bound reaches the threshold (less a round-off margin), is non-finite or
    is huge.

    `cfg` may also be a sequence of configs that differ only in delta: the
    runs then start from the same initial state and are stepped together.
    The call returns a tuple of states in the order of the configs; the
    earliest breakdown of any run is raised.  The final states are built
    once, their samples read-only views of one inverse transform of the last
    step's coefficients; a call that takes no step returns `initial` (once
    per config).
    """
    batch = not isinstance(cfg, ModelConfig)
    configs = tuple(cfg) if batch else (cfg,)
    if not configs:
        raise ValueError("integrate needs at least one config")
    base = configs[0]
    if any(_shared_settings(c) != _shared_settings(base) for c in configs[1:]):
        raise ValueError("batched configs may differ only in delta")
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients = _coefficients(initial)
    if not np.all(np.isfinite(coefficients)):
        raise NonFiniteError(f"the real-FFT coefficients of the state at t={initial.t:.6g} "
                             "are not finite")
    grid = initial.grid
    y = np.empty((2, len(configs), grid.size // 2 + 1), dtype=complex)
    y[...] = coefficients[:, None]
    multiplier = np.stack([_multiplier(grid, c.kernel, c.delta) for c in configs])
    scaled = _spectral_rhs(multiplier, base, grid.size, y.shape[1:])
    ddx = _multiplier(grid, None, None)
    gate = min(base.breakdown_threshold * (1.0 - _BOUND_MARGIN), _BOUND_CEILING)
    stacked = np.empty((3, *y.shape[1:]), dtype=complex)
    samples = np.empty((3, len(configs), grid.size))
    bound = _state_bound(multiplier, ddx, grid.size)

    def check(y, _a, t):
        # below the gate the exact monitor is finite and cannot exceed the
        # threshold (a NaN bound fails the test too)
        if (bound(y) <= gate).all():
            return
        monitor = _monitor(y[0], multiplier * y[1], ddx, stacked, samples)
        if not np.all(np.isfinite(monitor)):
            raise NonFiniteError(f"state became non-finite at t={t:.6g}")
        over = monitor > base.breakdown_threshold
        if np.any(over):
            raise BreakdownError(t, float(monitor[np.argmax(over)]), base.breakdown_threshold)

    last = _march(scaled, y, initial.t, base.t_end, base.dt, check, _hook(probe, observers))
    if last is y:
        states = (initial,) * len(configs)
    else:  # every row from one inverse transform, read-only so each State views it
        final = np.fft.irfft(last, n=grid.size)
        final.setflags(write=False)
        states = tuple(State(grid, u, v, base.t_end) for u, v in zip(*final))
    return states if batch else states[0]
