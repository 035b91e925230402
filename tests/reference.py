"""Independent and previous implementations that the tests compare against,
and adapters onto the production core.

A field is the array of its samples at the nodes of a grid; the helpers
that need the grid take it first, as (grid, samples).

- `energy`, `breakdown_monitor` and `sobolev_norm` take the diagnostics that
  the CLI reports of a State or a field, through the cores that
  `dynamics._sampler`, `integrate`'s check and the sweeps use: `_smoothing`
  and `_energy`, `_multiplier` and `_monitor`, `norm_weights` and
  `coefficient_norm`.  `zeros` is the samples of the zero field of a grid,
  and `freqs` its FFT-ordered frequencies m pi / L, m = 0..N/2-1, -N/2..-1.
- `rhs_fields` evaluates the right-hand side that `dynamics.integrate` steps,
  built by `dynamics._spectral_rhs` with `dynamics._multiplier`, on a State
  and returns the samples of (u_t, v_t).  `cfg.delta` picks the system: None
  is the classical one.
- `apply_multiplier`, `derivative`, `sobolev_scale` and `dealiased_power`
  act on fields through the full complex FFT (`field_from_spectrum`), and
  `spectrum_norm` is the Sobolev norm over the full spectrum.
  `TestSpectralCoreParity` builds an RK4 from them that shares no code with
  the real-FFT core of `dynamics.integrate`; the norm tests compare the
  core's real-FFT coefficient norm with `spectrum_norm`.
- `dealiased_power_rfft`, `_spectral_rhs`, `_rk4` and `_chain_rhs` are the
  allocating versions that the in-place core replaced, and `_neighbours` and
  `_stencil` the chain's second difference on gathered neighbours that the
  slice stencil replaced, kept verbatim except
  for their integer powers, which are spelled out as the left-to-right
  product x*x*...*x that the core computes in place of numpy's `**`, and
  for the right-hand sides' arithmetic, which follows the core's: the power
  is taken without its Nyquist bin and added to u^ before the spectral
  multiplier weighs the sum, its scale eps^n (P/N)^n rides in the
  inverse transform's scale as an (n+1)-th root, and each right-hand side is
  built for a factor c that it folds into its one multiplier (spectral) or
  into 1/delta^2 and u_t (chain).
  `_rk4` is the textbook step on c = 1; `_scaled_rk4` spells out the
  scaled-stage step of `dynamics._rk4`.
  `integrate_rows` and `integrate_chains` step them in the loops the
  integrators used, so a test can require equal bits from the in-place step
  (`_scaled_rk4`) and a round-off distance from the textbook one (`_rk4`).
  `integrate_rows` also evaluates the exact breakdown monitor before every
  step, which `integrate` skips while a bound from the state stays below
  the threshold, so a test can require the same errors too.
- `observe_states` and `observe_chains` turn an observer of States or Chains
  into a probe for `integrate` or `integrate_chain`: it gets the initial
  objects first, then ones built from copies of the probe's array at every
  step, which the march steps in place.
"""

import numpy as np

from nlwaves import BreakdownError, Chain, NonFiniteError, State, dynamics
from nlwaves.dynamics import ModelConfig, _multiplier, _padded_size, n_steps
from nlwaves.spectral import coefficient_norm, norm_weights


def zeros(grid) -> np.ndarray:
    return np.zeros(grid.size)


def freqs(grid) -> np.ndarray:
    """The full FFT's frequencies of a grid, in FFT order."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.size, d=grid.spacing)


def sobolev_norm(grid, f: np.ndarray, s: float) -> float:
    """Discrete Sobolev norm of order s of a field (see `spectral.norm_weights`)."""
    return float(coefficient_norm(np.fft.rfft(f), norm_weights(grid, s)))


def energy(state, cfg: ModelConfig, s: float | None = None) -> float:
    """Weighted Sobolev energy sqrt(0.5 * int((1+w)(S u)^2 + (S v)^2) dx), S the
    order-s smoothing (cfg.s by default) and w = (n+1) eps^n u^n, by the core of
    `dynamics._sampler`; raises HyperbolicityError when 1 + w <= 0."""
    grid = state.grid
    scale = dynamics._smoothing(grid, cfg.s if s is None else s)
    lu, lv = np.fft.irfft(scale * dynamics._coefficients(state), n=grid.size)
    return dynamics._energy(state.u, lu, lv, cfg, grid.spacing, state.t)


def breakdown_monitor(state, cfg: ModelConfig) -> float:
    """|u|_inf + |u_t|_inf + |u_x|_inf, u_t from the active right-hand side, by
    the transform that `integrate`'s check takes."""
    grid = state.grid
    u, v = dynamics._coefficients(state)
    du = _multiplier(grid, cfg.kernel, cfg.delta) * v
    return float(dynamics._monitor(u, du, _multiplier(grid, None, None), grid.size))


def rhs_fields(state, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """(u_t, v_t) of the system at scale cfg.delta, by the core's right-hand side."""
    grid, y = state.grid, dynamics._coefficients(state)
    multiplier = _multiplier(grid, cfg.kernel, cfg.delta)
    dy = np.empty_like(y)
    with np.errstate(over="ignore", invalid="ignore"):
        dynamics._spectral_rhs(multiplier, cfg)(1.0)(y, dy)
    du, dv = np.fft.irfft(dy, n=grid.size)
    return du, dv


def field_from_spectrum(spectrum) -> np.ndarray:
    """A field from FFT coefficients (real part of the inverse)."""
    return np.fft.ifft(spectrum).real


def derivative(grid, f: np.ndarray) -> np.ndarray:
    """Spectral x-derivative; the Nyquist mode is zeroed (odd multiplier)."""
    m = 1j * freqs(grid)
    m[grid.size // 2] = 0.0
    return field_from_spectrum(m * np.fft.fft(f))


def sobolev_scale(grid, f: np.ndarray, s: float) -> np.ndarray:
    """Apply the smoothing/roughening multiplier (1 + xi^2)^(s/2)."""
    return field_from_spectrum((1.0 + freqs(grid) ** 2) ** (s / 2.0) * np.fft.fft(f))


def spectrum_norm(grid, spectrum, s: float) -> float:
    """Discrete Sobolev norm of order s of the field with FFT coefficients
    `spectrum`: the frequency quadrature with measure weight h/N, squared
    over the peak's power of two."""
    weights = (1.0 + freqs(grid) ** 2) ** s
    e = np.frexp(np.max(np.abs(spectrum)))[1]
    scaled = np.ldexp(np.abs(spectrum), -e)
    return float(np.ldexp(np.sqrt(grid.spacing / grid.size * np.sum(weights * scaled**2)), e))


def apply_multiplier(grid, f: np.ndarray, multiplier) -> np.ndarray:
    """Multiply the spectrum pointwise by multiplier(xi) and transform back.

    `multiplier` is a callable evaluated at every grid frequency, or an array
    already aligned with ``freqs(grid)``.  Real output is guaranteed only for
    even multipliers (kernel symbols are even by construction).
    """
    xi = freqs(grid)
    m = multiplier(xi) if callable(multiplier) else np.asarray(multiplier)
    if m.shape != xi.shape:
        raise ValueError("multiplier values do not match the grid frequency set")
    # non-finite intermediates surface as a typed error, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        out = field_from_spectrum(m * np.fft.fft(f))
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("multiplier application produced non-finite samples")
    return out


def dealiased_power(grid, f: np.ndarray, power: int) -> np.ndarray:
    """Pointwise integer power computed without aliasing.

    The product is evaluated on a zero-padded grid of at least
    (power+1)/2 * N points and truncated back, which removes aliasing of a
    degree-`power` product exactly.  Contributions at the +/- Nyquist pair of
    the coarse grid fold into its single shared bin.
    """
    if power < 1 or int(power) != power:
        raise ValueError(f"power must be a positive integer, got {power}")
    if power == 1:
        return f
    n = grid.size
    half = n // 2
    padded = _padded_size(n, power)

    spec = np.fft.fft(f)
    fine = np.zeros(padded, dtype=complex)
    fine[:half] = spec[:half]
    fine[padded - half:] = spec[half:]
    with np.errstate(over="ignore", invalid="ignore"):
        product = np.fft.ifft(fine).real * (padded / n)
        product **= power
        fine_spec = np.fft.fft(product) * (n / padded)
        out = np.empty(n, dtype=complex)
        out[:half] = fine_spec[:half]
        out[half] = fine_spec[half] + fine_spec[padded - half]
        out[half + 1:] = fine_spec[padded - half + 1:]
        return field_from_spectrum(out)


def dealiased_power_rfft(coeffs: np.ndarray, n: int, power: int, root: float) -> np.ndarray:
    """`dealiased_power` on real-FFT coefficients of an n-point field, times
    root^power (n/P)^(power-1) and without the Nyquist bin, as
    `dynamics._spectral_rhs` takes it: the inverse transform's samples are
    scaled by root / P.

    `coeffs` has shape (..., n/2 + 1); every leading row is transformed in
    the same call.  The coarse Nyquist coefficient is split evenly between
    the +/- n/2 modes of the padded grid, which reproduces the real part that
    `dealiased_power` takes.
    """
    half = n // 2
    padded = _padded_size(n, power)
    fine = np.zeros(coeffs.shape[:-1] + (padded // 2 + 1,), dtype=complex)
    fine[..., : half + 1] = coeffs * np.append(np.ones(half), 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.fft.irfft(fine, n=padded, norm="forward") * (root / padded)
        product = samples
        for _ in range(power - 1):
            product = product * samples
        return np.fft.rfft(product)[..., :half]


def _spectral_rhs(multiplier: np.ndarray, cfg: ModelConfig, size: int):
    """scaled(c) -> rhs(u, v) = c (M v^, M (u^ + eps^n u^(n+1)^)) for
    coefficient arrays, c folded into the multiplier and the power's scale
    eps^n (P/N)^n into its inverse transform, as the (n+1)-th root."""
    coef = cfg.nonlinear_coefficient
    power, half = cfg.n + 1, size // 2
    root = (coef * (_padded_size(size, power) / size) ** cfg.n) ** (1.0 / power)

    def scaled(c):
        m = c * multiplier

        def rhs(u, v):
            du, dv = m * v, m * u
            if coef != 0.0:
                power_hat = dealiased_power_rfft(u, size, power, root)
                dv[..., :half] = m[..., :half] * (u[..., :half] + power_hat)
            return du, dv

        return rhs

    return scaled


def _rk4(rhs, u, v, h: float):
    """One textbook RK4 step of the pair (u, v); rhs(u, v) -> (du, dv).

    Works for coefficient arrays and the chain's site arrays alike.
    """
    k1u, k1v = rhs(u, v)
    k2u, k2v = rhs(u + (0.5 * h) * k1u, v + (0.5 * h) * k1v)
    k3u, k3v = rhs(u + (0.5 * h) * k2u, v + (0.5 * h) * k2v)
    k4u, k4v = rhs(u + h * k3u, v + h * k3v)
    w = h / 6.0
    return (
        u + w * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
        v + w * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
    )


def _scaled_rk4(scaled, u, v, h: float):
    """One RK4 step of the pair (u, v) in the scaled-stage arithmetic of
    `dynamics._rk4`; scaled(c) -> rhs(u, v) -> c times the derivative.

    With a = (h/2) f(y), b = (h/2) f(y + a), c = h f(y + b) and d = (h/2)
    f(y + c), the new y is y + (a + b + b + c + d) (1/3).
    """
    half, full = scaled(0.5 * h), scaled(h)
    au, av = half(u, v)
    bu, bv = half(u + au, v + av)
    cu, cv = full(u + bu, v + bv)
    du, dv = half(u + cu, v + cv)
    third = 1.0 / 3.0
    return u + (au + bu + bu + cu + du) * third, v + (av + bv + bv + cv + dv) * third


def _neighbours(sizes) -> tuple[np.ndarray, np.ndarray]:
    """Left and right neighbours of chains of `sizes` sites laid end to end, each periodic."""
    ends = np.cumsum(sizes)
    left, right = np.arange(-1, ends[-1] - 1), np.arange(1, ends[-1] + 1)
    left[ends - sizes] = ends - 1
    right[ends - 1] = ends - sizes
    return left, right


def _stencil(g: np.ndarray, inv, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(g_{j+1} - 2 g_j + g_{j-1}) * inv with the given neighbour indices."""
    return (g[right] - 2.0 * g + g[left]) * inv


def _chain_rhs(delta, epsilon: float, n: int, neighbours):
    """scaled(c) -> rhs(u, u_t) = c (u_t, D2 (u + eps^n u^(n+1))) for site
    arrays with per-site spacing delta, c folded into 1 / delta^2."""
    coef = epsilon**n
    inv = 1.0 / (delta * delta)

    def scaled(c):
        inv_c = c * inv

        def rhs(u, ut):
            with np.errstate(over="ignore", invalid="ignore"):
                power = u
                for _ in range(n):
                    power = power * u
                g = u + coef * power
                return c * ut, _stencil(g, inv_c, *neighbours)

        return rhs

    return scaled


def monitor(u, du, ddx, size: int):
    """|u|_inf + |u_t|_inf + |u_x|_inf per row from the coefficients of u and
    u_t, by the one inverse transform of `dynamics._monitor`, allocating."""
    samples = np.fft.irfft(np.stack([u, du, ddx * u]), n=size)
    peaks = np.max(np.abs(samples), axis=-1)
    return peaks[0] + peaks[1] + peaks[2]


def integrate_rows(configs, initial, t_end, record=None, textbook=False):
    """(rows, 2, N) samples of (u, v) at t_end, stepped with the allocating RK4:
    `_scaled_rk4`, or `_rk4` on the unscaled right-hand side if `textbook`.

    Before every step the exact breakdown monitor is evaluated on every row,
    and NonFiniteError and BreakdownError are raised as `integrate` raised
    them when it transformed for the monitor on every step.  `record`, if a
    list, receives the coefficients (u^, v^) that each check saw, stacked.
    """
    grid, base = initial.grid, configs[0]
    multiplier = np.stack([_multiplier(grid, c.kernel, c.delta) for c in configs])
    ddx = _multiplier(grid, None, None)
    scaled = _spectral_rhs(multiplier, base, grid.size)
    u0, v0 = np.fft.rfft(np.stack([initial.u, initial.v]))
    u = np.tile(u0, (len(configs), 1))
    v = np.tile(v0, (len(configs), 1))
    t = initial.t
    steps = n_steps(t_end - t, base.dt)
    for i in range(steps):
        last = i == steps - 1
        h = t_end - t if last else base.dt
        with np.errstate(over="ignore", invalid="ignore"):
            if record is not None:
                record.append(np.stack([u, v]))
            peaks = monitor(u, multiplier * v, ddx, grid.size)
            if not np.all(np.isfinite(peaks)):
                raise NonFiniteError(f"state became non-finite at t={t:.6g}")
            over = peaks > base.breakdown_threshold
            if np.any(over):
                row = int(np.argmax(over))
                raise BreakdownError(t, float(peaks[row]), base.breakdown_threshold)
            if textbook:
                u, v = _rk4(scaled(1.0), u, v, h)
            else:
                u, v = _scaled_rk4(scaled, u, v, h)
        t = t_end if last else t + h
        if last and not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise NonFiniteError(f"state became non-finite at t={t:.6g}")
    return np.fft.irfft(np.stack([u, v], axis=-2), n=grid.size)


def integrate_chains(chains, epsilon, n, dt, t_end, textbook=False):
    """Site arrays (u, u_t) of chains laid end to end at t_end, stepped with
    the allocating RK4: `_scaled_rk4`, or `_rk4` on the unscaled right-hand
    side if `textbook`."""
    sizes = [c.grid.size for c in chains]
    delta = np.repeat([c.grid.spacing for c in chains], sizes)
    scaled = _chain_rhs(delta, epsilon, n, _neighbours(sizes))
    u, ut = np.concatenate([(c.strain, c.velocity) for c in chains], axis=1)
    t = chains[0].t
    steps = n_steps(t_end - t, dt)
    for i in range(steps):
        last = i == steps - 1
        step = (t_end - t) if last else dt
        with np.errstate(over="ignore", invalid="ignore"):
            if textbook:
                u, ut = _rk4(scaled(1.0), u, ut, step)
            else:
                u, ut = _scaled_rk4(scaled, u, ut, step)
        t = t_end if last else t + step
    return u, ut


def observe_states(observer, initial, batch=False):
    """A probe for `integrate` that calls observer(states): `initial` (a tuple
    of it per run when `batch`) first, then the States of every run, from one
    inverse transform of the probe's coefficients y."""
    grid, started = initial.grid, False

    def probe(y, t):
        nonlocal started
        if started:
            u, v = np.fft.irfft(y, n=grid.size)
            states = tuple(State(grid, ur, vr, t) for ur, vr in zip(u, v))
        else:
            started, states = True, (initial,) * y.shape[1]
        observer(states if batch else states[0])

    return probe


def observe_chains(observer, chains, batch=False):
    """A probe for `integrate_chain` that calls observer(chains): the input
    `chains` first, then Chains whose site arrays are copies of the probe's y."""
    chains = tuple(chains) if batch else (chains,)
    splits, started = np.cumsum([c.grid.size for c in chains])[:-1], False

    def probe(y, t):
        nonlocal started
        if started:
            parts = np.split(y.copy(), splits, axis=1)
            seen = tuple(Chain(c.grid, *part, t) for c, part in zip(chains, parts))
        else:
            started, seen = True, chains
        observer(seen if batch else seen[0])

    return probe


def solitary_wave(grid, delta: float, c: float, eps: float, n: int, x0: float, t: float):
    """Samples (u, v) of the exact solitary wave of the exponential-kernel
    model, the improved Boussinesq equation (1 - delta^2 d_x^2) u_tt =
    (u + eps^n u^(n+1))_xx, for a speed c with c^2 > 1:

        u = A sech^(2/n)(kappa (x - c t - x0)),  A^n = (n+2)(c^2-1) / (2 eps^n),
        kappa = (n/2) sqrt(c^2-1) / (delta c),

    its argument wrapped onto the box [-L, L).  Its partner is v = -c K^-1 u,
    K^-1 = sqrt(1 + delta^2 xi^2) applied to the samples spectrally.
    Bogolubsky, Comput. Phys. Commun. 13 (1977) 149-155.
    """
    amplitude = ((n + 2) * (c * c - 1) / (2 * eps**n)) ** (1.0 / n)
    kappa = 0.5 * n * np.sqrt(c * c - 1) / (delta * c)
    period = 2.0 * grid.half_length
    z = (grid.nodes - c * t - x0 + grid.half_length) % period - grid.half_length
    u = amplitude / np.cosh(kappa * z) ** (2.0 / n)
    inverse = np.sqrt(1.0 + (delta * grid.rfreqs) ** 2)
    v = -c * np.fft.irfft(inverse * np.fft.rfft(u), n=grid.size)
    return u, v
