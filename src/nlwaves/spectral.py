"""Periodic grid, the coefficient Sobolev norm and integer powers.

The domain is the periodic box [-L, L) sampled at N uniform nodes.  The
real-FFT frequencies are xi_m = m*pi/L for m = 0 .. N/2.
A real field on the grid is an array of its N node samples; the time
stepper and the sweeps hold real-FFT coefficients instead (see
`dynamics.integrate`).

Norm convention: the order-s Sobolev norm is a weighted sum over the N/2+1
real-FFT coefficients, `coefficient_norm` with weights from `norm_weights`;
at s = 0 it equals the physical-space L2 norm (sqrt(h * sum f_j^2)) to
round-off, i.e. the frequency quadrature carries the measure weight that
makes the discrete Parseval identity exact.

`_integer_power` takes the integer powers of the spectral right-hand side
(which dealiases them, see `dynamics._spectral_rhs`), the chain and the
energy weight as repeated products.
"""

from __future__ import annotations

import numpy as np

from . import schema
from .errors import ConfigError


class Grid:
    """Uniform periodic grid on [-L, L) with an even number of nodes, at least
    8; raises ConfigError naming grid_l or grid_n otherwise (see
    `schema.check_grid`), and naming grid_n when its nodes or frequencies
    cannot be allocated."""

    def __init__(self, half_length: float, size: int):
        schema.check_grid(half_length, size)
        self.half_length = float(half_length)
        self.size = int(size)
        self.spacing = 2.0 * self.half_length / self.size
        try:  # numpy refuses a size past its largest array, malloc one past the memory
            self.nodes = -self.half_length + self.spacing * np.arange(self.size)
            # real-FFT frequencies m*pi/L, m = 0..N/2
            self.rfreqs = 2.0 * np.pi * np.fft.rfftfreq(self.size, d=self.spacing)
        except (ValueError, MemoryError) as exc:
            raise ConfigError("grid_n", f"{self.size} nodes cannot be allocated: {exc}") from None
        self.nodes.setflags(write=False)
        self.rfreqs.setflags(write=False)

    def __repr__(self):
        return f"Grid(half_length={self.half_length}, size={self.size})"


def norm_weights(grid: Grid, s: float) -> np.ndarray:
    """Weights of the order-s Sobolev norm over the (Re, Im) pairs of real-FFT
    coefficients on `grid`; a caller taking many norms builds them once.

    Quadrature of the defining frequency integral with the grid's frequency
    spacing as measure weight, h/N (1 + xi^2)^s, normalized so that s = 0
    reproduces the physical-space L2 norm.  The interior bins stand for a
    +/- xi pair of the full spectrum and count twice; bin 0 and the Nyquist
    bin count once.  Raises ConfigError naming s when the weights or their
    sum overflow, so that no norm taken with them overflows on that account.
    """
    with np.errstate(over="ignore"):
        weights = (1.0 + grid.rfreqs**2) ** s * (2.0 * grid.spacing / grid.size)
        if not np.isfinite(2.0 * np.sum(weights)):  # bounds the sum of the returned weights
            raise ConfigError("s", f"the order-{s!r} Sobolev weights overflow on {grid}")
    weights[0] /= 2.0
    weights[-1] /= 2.0
    return np.repeat(weights, 2)


def coefficient_norm(coeffs, weights: np.ndarray) -> np.ndarray:
    """Discrete Sobolev norm of each row of the real-FFT coefficients `coeffs`,
    of shape (..., N/2 + 1), with `weights` from `norm_weights`; shape (...).

    Each row is squared over 2**e, its peak's power of two: exact, and finite
    data cannot overflow.
    """
    pairs = np.ascontiguousarray(coeffs, dtype=complex).view(float)
    e = np.frexp(np.max(np.abs(pairs), axis=-1, keepdims=True))[1]
    scaled = np.ldexp(pairs, -e)
    np.multiply(np.square(scaled, out=scaled), weights, out=scaled)
    return np.ldexp(np.sqrt(np.sum(scaled, axis=-1)), e[..., 0])


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

