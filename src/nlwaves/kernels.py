"""Dispersive kernels identified by their Fourier symbols.

A kernel enters the dynamics only through its symbol b(xi) (the Fourier
transform of the physical-space weight) and the derived square-root symbol
sqrt(b(xi)) that defines the convolution operator of the first-order system.
Built-in variants:

- ``dirac``:        b(xi) = 1 (classical, dispersionless limit)
- ``exponential``:  weight 0.5*exp(-|x|), b(xi) = 1/(1+xi^2)
- ``triangular``:   weight 1-|x| on [-1,1], b(xi) = (4/xi^2)*sin^2(xi/2)
- ``table``:        tabulated finite symbol values, linearly interpolated, even
                    extension in xi implied

A Kernel that exists satisfies the hypotheses: its symbol is even, real,
normalized to b(0) = 1 and bounded by it, 0 <= b(xi) <= b(0) = 1.  The
upper bound is this package's own hypothesis: every nonnegative weight beta
obeys it, since |int beta(x) cos(xi x) dx| <= int beta = b(0), and it caps
every wave speed sqrt(b) at the classical speed 1, so the CFL step needs no
kernel.  The built-in formulas satisfy the hypotheses by construction; a
table is checked against them once, when it is built, and one that fails
raises InvalidSpecError.
"""

from __future__ import annotations

import warnings
from functools import partial

import numpy as np

from .errors import InvalidSpecError

BUILTIN_NAMES = ("dirac", "exponential", "triangular")

# Below this |xi| the triangular symbol switches to its Taylor branch;
# the closed form is 0/0 at xi = 0.
_TRI_TAYLOR_CUTOFF = 2e-4

#: largest |b(0) - 1| a table may have, and largest excess of a value over 1
_TABLE_TOL = 1e-8


def _triangular_symbol(xi):
    out = np.zeros(xi.shape, dtype=float)  # the limit at infinite xi
    small = np.abs(xi) < _TRI_TAYLOR_CUTOFF
    closed = ~(small | np.isinf(xi))
    y = xi[closed]
    out[closed] = (2.0 * np.sin(y / 2.0) / y) ** 2
    out[small] = 1.0 - xi[small] ** 2 / 12.0
    return out


def _table_symbol(table_xi, table_values, xi):
    # even extension and edge clamping are np.interp defaults; one ulp below
    # a zero entry it can round to a negative of round-off size
    return np.maximum(np.interp(np.abs(xi), table_xi, table_values), 0.0)


_SYMBOLS = {"dirac": np.ones_like, "exponential": lambda xi: 1.0 / (1.0 + xi**2),
            "triangular": _triangular_symbol}


def _checked_table(table_xi, table_values):
    """Private copies of a table's two columns, or InvalidSpecError naming the
    first hypothesis the table fails."""
    xi = np.array(table_xi, dtype=float)
    vals = np.array(table_values, dtype=float)
    if xi.ndim != 1 or xi.shape != vals.shape:
        raise InvalidSpecError("table kernel needs two equal-length 1-d columns")
    if xi.size < 2:
        raise InvalidSpecError(f"table kernel needs at least two rows, got {xi.size}")
    if not (np.isfinite(xi).all() and np.isfinite(vals).all()):
        raise InvalidSpecError("table entries must be finite numbers")
    if xi[0] < 0 or np.any(np.diff(xi) <= 0):
        raise InvalidSpecError("table frequencies must be >= 0 and ascending")
    if np.any(vals < 0):
        raise InvalidSpecError(f"table values must be >= 0, got {vals.min():.17g}")
    if abs(vals[0] - 1.0) > _TABLE_TOL:
        raise InvalidSpecError(f"table b(0) = {vals[0]:.17g} is not 1 within {_TABLE_TOL:g}")
    if vals.max() > 1.0 + _TABLE_TOL:
        raise InvalidSpecError(f"table value {vals.max():.17g} exceeds b(0) = 1 by more than "
                               f"{_TABLE_TOL:g}")
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.diff(vals) / np.diff(xi))
    if not finite.all():
        raise InvalidSpecError(f"table slope overflows after xi = {xi[np.argmin(finite)]:.17g}")
    return xi, vals


class Kernel:
    """A dispersive kernel, evaluated through its Fourier symbol.

    The methods act elementwise on an array of frequencies; a scalar gives a
    0-d result.
    """

    def __init__(self, variant, table_xi=None, table_values=None):
        if variant == "table":
            self._symbol = partial(_table_symbol, *_checked_table(table_xi, table_values))
        elif variant in _SYMBOLS:
            self._symbol = _SYMBOLS[variant]
        else:
            raise InvalidSpecError(f"unknown kernel variant '{variant}'")
        self.variant = variant

    @classmethod
    def from_table(cls, xi, values) -> "Kernel":
        return cls("table", table_xi=xi, table_values=values)

    @classmethod
    def from_file(cls, path) -> "Kernel":
        """Load a table kernel: two whitespace-separated columns, xi >= 0 ascending."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file; counted below
            data = np.loadtxt(path, dtype=float, ndmin=2)
        if len(data) < 2:
            raise InvalidSpecError(f"kernel table '{path}' needs at least two rows")
        if data.shape[1] != 2:
            raise InvalidSpecError(f"kernel table '{path}' must have exactly two columns")
        return cls.from_table(data[:, 0], data[:, 1])

    def __repr__(self):
        return f"Kernel({self.variant!r})"

    def symbol(self, xi):
        """The Fourier symbol b(xi)."""
        return self._symbol(np.asarray(xi, dtype=float))

    def sqrt_symbol(self, xi):
        """Square root of the symbol; the multiplier of the convolution operator."""
        return np.sqrt(self.symbol(xi))

    def scaled_sqrt_symbol(self, delta: float, xi):
        """sqrt(b(delta*xi)), the scaled operator's multiplier.

        Where delta*xi overflows it is infinite, and the symbol is read there
        without a warning: 0 for the exponential and triangular kernels, 1
        for dirac, a table's last value.
        """
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        with np.errstate(over="ignore"):
            return self.sqrt_symbol(np.asarray(xi, dtype=float) * delta)

    def taylor_deviation(self, xi, theta: float):
        """|sqrt_symbol(xi) - 1| / |xi|^theta, the sharp-rate constant probe.

        Sampling this over xi bounds the constant in the operator-error
        estimate empirically.  theta must lie in (0, 2]; xi must be nonzero.
        """
        if not 0 < theta <= 2:
            raise ValueError(f"theta must be in (0, 2], got {theta}")
        xi = np.asarray(xi, dtype=float)
        if np.any(xi == 0.0):
            raise ValueError("taylor_deviation is undefined at xi = 0")
        return np.abs(self.sqrt_symbol(xi) - 1.0) / np.abs(xi) ** theta
