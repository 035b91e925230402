"""Periodic grid, real fields, and Fourier-multiplier operations.

The domain is the periodic box [-L, L) sampled at N uniform nodes.  Discrete
frequencies are xi_m = m*pi/L for m = -N/2 .. N/2-1 (stored in FFT order).
Fields are value-semantics snapshots: every operation returns a new Field and
never mutates its inputs.  A Field stores samples only; `Field.spectrum`
transforms them on every access.  The time stepper does not use Fields: it
holds real-FFT coefficients (see `dynamics.integrate`), and Fields serve the
diagnostics, the norms and the CSV output.

Norm convention: sobolev_norm(f, 0) equals the physical-space L2 norm
(sqrt(h * sum f_j^2)) exactly, i.e. the frequency quadrature carries the
measure weight that makes the discrete Parseval identity exact.
"""

from __future__ import annotations

import numpy as np

from . import schema


class Grid:
    """Uniform periodic grid on [-L, L) with an even number of nodes."""

    def __init__(self, half_length: float, size: int):
        schema.check("grid_l", half_length)
        schema.check("grid_n", size)
        self.half_length = float(half_length)
        self.size = int(size)
        self.spacing = 2.0 * self.half_length / self.size
        self.nodes = -self.half_length + self.spacing * np.arange(self.size)
        self.nodes.setflags(write=False)
        # FFT-ordered frequencies m*pi/L, m = 0..N/2-1, -N/2..-1
        self.freqs = 2.0 * np.pi * np.fft.fftfreq(self.size, d=self.spacing)
        self.freqs.setflags(write=False)
        # real-FFT frequencies m*pi/L, m = 0..N/2
        self.rfreqs = 2.0 * np.pi * np.fft.rfftfreq(self.size, d=self.spacing)
        self.rfreqs.setflags(write=False)
        self.nyquist_index = self.size // 2

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.half_length == other.half_length
            and self.size == other.size
        )

    def __hash__(self):
        return hash((self.half_length, self.size))

    def __repr__(self):
        return f"Grid(half_length={self.half_length}, size={self.size})"


class Field:
    """Real-valued samples on a Grid; the spectrum is computed on demand."""

    __slots__ = ("grid", "_samples")

    def __init__(self, grid: Grid, samples):
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (grid.size,):
            raise ValueError(
                f"samples have shape {samples.shape}, expected ({grid.size},)"
            )
        samples = samples.copy() if samples.flags.writeable else samples
        samples.setflags(write=False)
        self.grid = grid
        self._samples = samples

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.size))

    @classmethod
    def from_spectrum(cls, grid: Grid, spectrum) -> "Field":
        """Build a field from FFT coefficients (real part of the inverse)."""
        return cls(grid, np.fft.ifft(spectrum).real)

    @property
    def samples(self) -> np.ndarray:
        return self._samples

    @property
    def spectrum(self) -> np.ndarray:
        return np.fft.fft(self._samples)

    def __add__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")
        return Field(self.grid, self._samples + other._samples)

    def __sub__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")
        return Field(self.grid, self._samples - other._samples)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return Field(self.grid, self._samples * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


def derivative(f: Field) -> Field:
    """Spectral x-derivative; the Nyquist mode is zeroed (odd multiplier)."""
    m = 1j * f.grid.freqs.copy()
    m[f.grid.nyquist_index] = 0.0
    return Field.from_spectrum(f.grid, m * f.spectrum)


def sobolev_scale(f: Field, s: float) -> Field:
    """Apply the smoothing/roughening multiplier (1 + xi^2)^(s/2)."""
    return Field.from_spectrum(f.grid, (1.0 + f.grid.freqs**2) ** (s / 2.0) * f.spectrum)


def spectrum_norm(grid: Grid, spectrum, s: float) -> float:
    """Discrete Sobolev norm of order s of the field with FFT coefficients `spectrum`.

    Quadrature of the defining frequency integral with the grid's frequency
    spacing as measure weight, normalized so that s = 0 reproduces the
    physical-space L2 norm exactly.
    """
    weights = (1.0 + grid.freqs**2) ** s
    # squared over 2**e, the peak's power of two: exact, and finite data cannot overflow
    e = np.frexp(np.max(np.abs(spectrum)))[1]
    scaled = np.ldexp(np.abs(spectrum), -e)
    return float(np.ldexp(np.sqrt(grid.spacing / grid.size * np.sum(weights * scaled**2)), e))


def sobolev_norm(f: Field, s: float) -> float:
    """Discrete Sobolev norm of order s (see `spectrum_norm`)."""
    return spectrum_norm(f.grid, f.spectrum, s)


def _integer_power(x: np.ndarray, power: int, out=None, scratch=None) -> np.ndarray:
    """x**power for an integer power >= 1, as the left-to-right product x*x*...*x.

    numpy's vectorised `pow` may send negative bases to a slow scalar path
    whose last bits differ from its fast one (numpy 2.4's AVX-512 build does
    for powers >= 3).  The product costs power - 1 multiplications, is exactly
    odd or even in x and does not depend on how numpy was built; power 2 is
    numpy's own square, bit for bit.  The result goes to `out` (new if None),
    which may be x; powers >= 3 keep their partial products in `scratch` (new
    if None), which must not overlap x or `out`.
    """
    if power <= 2:
        return np.multiply(x, x, out=out) if power == 2 else np.positive(x, out=out)
    partial = np.multiply(x, x, out=scratch)
    for _ in range(power - 3):
        np.multiply(partial, x, out=partial)
    return np.multiply(partial, x, out=out)


def _padded_size(n: int, power: int) -> int:
    """Even padded length of at least (power+1)/2 * n points."""
    padded = int(np.ceil((power + 1) * n / 2))
    return padded + padded % 2


def power_buffers(shape, n: int, power: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Work buffers of `dealiased_power_rfft` for coefficients of `shape`: the
    padded spectrum (zero above n/2, which no call writes), the padded samples
    and the padded spectrum of their power."""
    padded = _padded_size(n, power)
    spectra = (*shape[:-1], padded // 2 + 1)
    return np.zeros(spectra, complex), np.empty((*shape[:-1], padded)), np.empty(spectra, complex)


def dealiased_power_rfft(coeffs: np.ndarray, n: int, power: int, buffers) -> np.ndarray:
    """Pointwise integer power of an n-point field, computed without aliasing.

    `coeffs` holds real-FFT coefficients of shape (..., n/2 + 1); every
    leading row is transformed in the same call.  The product is evaluated on
    a zero-padded grid of at least (power+1)/2 * n points and truncated back,
    which removes aliasing of a degree-`power` product exactly.  The power
    itself is the repeated product of `_integer_power`.  The coarse Nyquist
    coefficient is split evenly between the +/- n/2 modes of the padded grid
    (the real part of the full-spectrum product), and the result folds both
    back into one bin.

    The work happens in `buffers` from `power_buffers`, and the result is a
    view into them, valid until the next call with the same buffers.  It
    sets no `np.errstate`: its one caller, the right-hand side that
    `dynamics._spectral_rhs` builds, runs inside `dynamics.integrate`'s step
    loop, which holds one that lets overflow pass silently.
    """
    half = n // 2
    padded = _padded_size(n, power)
    fine, product, spec = buffers
    fine[..., :half] = coeffs[..., :half]
    np.multiply(0.5, coeffs[..., half], out=fine[..., half])
    np.fft.irfft(fine, n=padded, out=product)
    np.multiply(product, padded / n, out=product)
    # the padded spectrum is free until rfft writes it: its reals hold the partial products
    _integer_power(product, power, out=product, scratch=spec.view(float)[..., :padded])
    np.fft.rfft(product, out=spec)
    out = np.multiply(spec[..., : half + 1], n / padded, out=spec[..., : half + 1])
    out[..., half] = 2.0 * out[..., half].real
    return out


def write_field_csv(f: Field, path) -> None:
    """Dump a field as CSV with header ``x,value``, 17 significant digits."""
    with open(path, "w") as fh:
        fh.write("x,value\n")
        for x, v in zip(f.grid.nodes, f.samples):
            fh.write(f"{x:.17g},{v:.17g}\n")
