"""Independent and previous implementations that the tests compare against,
and an adapter onto the production core.

- `rhs_fields` evaluates the right-hand side that `dynamics.integrate` steps,
  built by `dynamics._spectral_rhs` with `dynamics._multiplier`, on a State
  and returns (u_t, v_t) as Fields.  `cfg.delta` picks the system: None is
  the classical one.
- `apply_multiplier` and `dealiased_power` act on Fields through the full
  complex FFT.  `TestSpectralCoreParity` builds an RK4 from them that shares
  no code with the real-FFT core of `dynamics.integrate`.
- `dealiased_power_rfft`, `_spectral_rhs`, `_rk4` and `_chain_rhs` are the
  allocating versions that the in-place core replaced, kept verbatim except
  for their integer powers, which are spelled out as the left-to-right
  product x*x*...*x that the core computes in place of numpy's `**`.
  `integrate_rows` and `integrate_chains` step them in the loops the
  integrators used, so a test can require equal bits from the in-place step.
  `integrate_rows` also evaluates the exact breakdown monitor before every
  step, which `integrate` skips while a coefficient bound stays below the
  threshold, so a test can require the same errors too.
"""

import numpy as np

from nlwaves import BreakdownError, Field, NonFiniteError, dynamics
from nlwaves.dynamics import ModelConfig, _multiplier, n_steps
from nlwaves.lattice import _neighbours, _stencil
from nlwaves.spectral import _padded_size


def rhs_fields(state, cfg: ModelConfig) -> tuple[Field, Field]:
    """(u_t, v_t) of the system at scale cfg.delta, by the core's right-hand side."""
    grid, y = state.grid, dynamics._coefficients(state)
    multiplier = _multiplier(grid, cfg.kernel, cfg.delta)
    dy = np.empty_like(y)
    with np.errstate(over="ignore", invalid="ignore"):
        dynamics._spectral_rhs(multiplier, cfg, grid.size, y.shape[1:])(y, state.t, dy)
    du, dv = np.fft.irfft(dy, n=grid.size)
    return Field(grid, du), Field(grid, dv)


def apply_multiplier(f: Field, multiplier) -> Field:
    """Multiply the spectrum pointwise by multiplier(xi) and transform back.

    `multiplier` is a callable evaluated at every grid frequency, or an array
    already aligned with ``f.grid.freqs``.  Real output is guaranteed only for
    even multipliers (kernel symbols are even by construction).
    """
    m = multiplier(f.grid.freqs) if callable(multiplier) else np.asarray(multiplier)
    if m.shape != f.grid.freqs.shape:
        raise ValueError("multiplier values do not match the grid frequency set")
    # non-finite intermediates surface as a typed error, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        out = Field.from_spectrum(f.grid, m * f.spectrum)
    if not np.all(np.isfinite(out.samples)):
        raise NonFiniteError("multiplier application produced non-finite samples")
    return out


def dealiased_power(f: Field, power: int) -> Field:
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
    n = f.grid.size
    half = n // 2
    padded = _padded_size(n, power)

    spec = f.spectrum
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
        return Field.from_spectrum(f.grid, out)


def dealiased_power_rfft(coeffs: np.ndarray, n: int, power: int) -> np.ndarray:
    """`dealiased_power` on real-FFT coefficients of an n-point field.

    `coeffs` has shape (..., n/2 + 1); every leading row is transformed in
    the same call.  The coarse Nyquist coefficient is split evenly between
    the +/- n/2 modes of the padded grid, which reproduces the real part that
    `dealiased_power` takes, and the result folds both back into one bin.
    """
    half = n // 2
    padded = _padded_size(n, power)
    fine = np.zeros(coeffs.shape[:-1] + (padded // 2 + 1,), dtype=complex)
    fine[..., :half] = coeffs[..., :half]
    fine[..., half] = 0.5 * coeffs[..., half]
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.fft.irfft(fine, n=padded) * (padded / n)
        product = samples
        for _ in range(power - 1):
            product = product * samples
        fine_spec = np.fft.rfft(product) * (n / padded)
    out = fine_spec[..., : half + 1]
    out[..., half] = 2.0 * out[..., half].real
    return out


def _spectral_rhs(multiplier: np.ndarray, cfg: ModelConfig, size: int):
    """(u^, v^) -> (M v^, M (u + eps^n u^(n+1))^) for coefficient arrays."""
    coef = cfg.nonlinear_coefficient
    power = cfg.n + 1

    def rhs(u, v, _t=None):
        stress = u if coef == 0.0 else u + coef * dealiased_power_rfft(u, size, power)
        return multiplier * v, multiplier * stress

    return rhs


def _rk4(rhs, u, v, t: float, h: float, k1=None):
    """One classical RK4 step of the pair (u, v); rhs(u, v, t) -> (du, dv).

    Works for coefficient arrays, Fields and the chain's site arrays alike.
    Pass k1 when the first stage is already known.
    """
    k1u, k1v = rhs(u, v, t) if k1 is None else k1
    k2u, k2v = rhs(u + (0.5 * h) * k1u, v + (0.5 * h) * k1v, t + 0.5 * h)
    k3u, k3v = rhs(u + (0.5 * h) * k2u, v + (0.5 * h) * k2v, t + 0.5 * h)
    k4u, k4v = rhs(u + h * k3u, v + h * k3v, t + h)
    w = h / 6.0
    return (
        u + w * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
        v + w * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
    )


def _chain_rhs(delta, epsilon: float, n: int, neighbours):
    """(u, u_t) -> (u_t, D2 (u + eps^n u^(n+1))) for site arrays with per-site spacing delta."""
    coef = epsilon**n
    inv = 1.0 / (delta * delta)

    def rhs(u, ut, _t=None):
        with np.errstate(over="ignore", invalid="ignore"):
            power = u
            for _ in range(n):
                power = power * u
            g = u + coef * power
        return ut, _stencil(g, inv, *neighbours)

    return rhs


def monitor(u, du, ddx, size: int):
    """|u|_inf + |u_t|_inf + |u_x|_inf per row from the coefficients of u and
    u_t, by the one inverse transform of `dynamics._monitor`, allocating."""
    samples = np.fft.irfft(np.stack([u, du, ddx * u]), n=size)
    peaks = np.max(np.abs(samples), axis=-1)
    return peaks[0] + peaks[1] + peaks[2]


def integrate_rows(configs, initial, t_end, record=None):
    """(rows, 2, N) samples of (u, v) at t_end, stepped with the allocating RK4.

    Before every step the exact breakdown monitor is evaluated on every row,
    and NonFiniteError and BreakdownError are raised as `integrate` raised
    them when it transformed for the monitor on every step.  `record`, if a
    list, receives the coefficients (u^, u_t^) that each check saw.
    """
    grid, base = initial.grid, configs[0]
    multiplier = np.stack([_multiplier(grid, c.kernel, c.delta) for c in configs])
    ddx = _multiplier(grid, None, None)
    rhs = _spectral_rhs(multiplier, base, grid.size)
    u0, v0 = np.fft.rfft(np.stack([initial.u.samples, initial.v.samples]))
    u = np.tile(u0, (len(configs), 1))
    v = np.tile(v0, (len(configs), 1))
    t = initial.t
    steps = n_steps(t_end - t, base.dt)
    for i in range(steps):
        last = i == steps - 1
        h = t_end - t if last else base.dt
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = rhs(u, v)
            if record is not None:
                record.append((u, k1[0]))
            peaks = monitor(u, k1[0], ddx, grid.size)
            if not np.all(np.isfinite(peaks)):
                raise NonFiniteError(f"state became non-finite at t={t:.6g}")
            over = peaks > base.breakdown_threshold
            if np.any(over):
                row = int(np.argmax(over))
                raise BreakdownError(t, float(peaks[row]), base.breakdown_threshold)
            u, v = _rk4(rhs, u, v, t, h, k1)
        t = t_end if last else t + h
        if last and not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise NonFiniteError(f"state became non-finite at t={t:.6g}")
    return np.fft.irfft(np.stack([u, v], axis=-2), n=grid.size)


def integrate_chains(chains, epsilon, n, dt, t_end):
    """Site arrays (u, u_t) of chains laid end to end at t_end, stepped with the allocating RK4."""
    sizes = [c.sites for c in chains]
    rhs = _chain_rhs(np.repeat([c.delta for c in chains], sizes), epsilon, n, _neighbours(sizes))
    u, ut = np.concatenate([(c.strain, c.velocity) for c in chains], axis=1)
    t = chains[0].t
    steps = n_steps(t_end - t, dt)
    for i in range(steps):
        last = i == steps - 1
        step = (t_end - t) if last else dt
        u, ut = _rk4(rhs, u, ut, t, step)
        t = t_end if last else t + step
    return u, ut
