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

All symbols are even, real, bounded, and normalized to b(0) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidKernelError, InvalidSpecError

BUILTIN_NAMES = ("dirac", "exponential", "triangular")

# Below this |xi| the triangular symbol switches to its Taylor branch;
# the closed form is 0/0 at xi = 0.
_TRI_TAYLOR_CUTOFF = 2e-4

_CLOSED_FORM_TOL = 1e-12
_TABLE_TOL = 1e-8


@dataclass(frozen=True)
class ValidationReport:
    """Hypothesis checks for a kernel symbol on a frequency sample set."""

    evenness_residual: float
    symbol_min: float
    symbol_max: float
    normalization_residual: float
    tolerance: float
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _triangular_symbol(xi):
    out = np.empty(xi.shape, dtype=float)
    small = np.abs(xi) < _TRI_TAYLOR_CUTOFF
    y = xi[~small]
    out[~small] = (2.0 * np.sin(y / 2.0) / y) ** 2
    out[small] = 1.0 - xi[small] ** 2 / 12.0
    return out


class Kernel:
    """A dispersive kernel, evaluated through its Fourier symbol."""

    def __init__(self, variant, table_xi=None, table_values=None):
        if variant not in BUILTIN_NAMES + ("table",):
            raise InvalidSpecError(f"unknown kernel variant '{variant}'")
        self.variant = variant
        if variant == "table":
            xi = np.asarray(table_xi, dtype=float)
            vals = np.asarray(table_values, dtype=float)
            if xi.ndim != 1 or xi.shape != vals.shape or xi.size < 2:
                raise InvalidSpecError("table kernel needs two equal-length 1-d columns")
            if not (np.isfinite(xi).all() and np.isfinite(vals).all()):
                raise InvalidSpecError("table entries must be finite numbers")
            if xi[0] < 0 or np.any(np.diff(xi) <= 0):
                raise InvalidSpecError("table frequencies must be >= 0 and ascending")
            # private immutable copies: kernels are shared across runs
            xi, vals = xi.copy(), vals.copy()
            xi.setflags(write=False)
            vals.setflags(write=False)
            self.table_xi = xi
            self.table_values = vals
        else:
            self.table_xi = None
            self.table_values = None

    @classmethod
    def from_name(cls, name: str) -> "Kernel":
        return cls(name)

    @classmethod
    def from_table(cls, xi, values) -> "Kernel":
        return cls("table", table_xi=xi, table_values=values)

    @classmethod
    def from_file(cls, path) -> "Kernel":
        """Load a table kernel: two whitespace-separated columns, xi >= 0 ascending."""
        data = np.loadtxt(path, dtype=float)
        if data.ndim != 2 or data.shape[1] != 2:
            raise InvalidSpecError(f"kernel table '{path}' must have exactly two columns")
        return cls.from_table(data[:, 0], data[:, 1])

    @property
    def tolerance(self) -> float:
        return _TABLE_TOL if self.variant == "table" else _CLOSED_FORM_TOL

    def __repr__(self):
        return f"Kernel({self.variant!r})"

    def symbol(self, xi):
        """Evaluate the Fourier symbol b(xi).  Vectorized; total on finite xi."""
        arr = np.atleast_1d(np.asarray(xi, dtype=float))
        if self.variant == "dirac":
            out = np.ones_like(arr)
        elif self.variant == "exponential":
            out = 1.0 / (1.0 + arr**2)
        elif self.variant == "triangular":
            out = _triangular_symbol(arr)
        else:
            # even extension + edge clamping are np.interp defaults
            out = np.interp(np.abs(arr), self.table_xi, self.table_values)
        return float(out[0]) if np.isscalar(xi) else out

    def sqrt_symbol(self, xi):
        """Square root of the symbol; the multiplier of the convolution operator."""
        s = np.atleast_1d(np.asarray(self.symbol(xi), dtype=float))
        if np.any(s < -self.tolerance):
            raise InvalidKernelError(
                f"symbol of {self.variant} kernel is negative (min {s.min():.3e})"
            )
        out = np.sqrt(np.clip(s, 0.0, None))
        return float(out[0]) if np.isscalar(xi) else out

    def scaled_symbol(self, delta: float, xi):
        """Symbol of the delta-scaled kernel family: b(delta*xi)."""
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        if np.isscalar(xi):
            return self.symbol(delta * xi)
        return self.symbol(np.asarray(xi, dtype=float) * delta)

    def scaled_sqrt_symbol(self, delta: float, xi):
        """sqrt(b(delta*xi)), the scaled operator's multiplier."""
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        if np.isscalar(xi):
            return self.sqrt_symbol(delta * xi)
        return self.sqrt_symbol(np.asarray(xi, dtype=float) * delta)

    def taylor_deviation(self, xi, theta: float):
        """|sqrt_symbol(xi) - 1| / |xi|^theta, the sharp-rate constant probe.

        Sampling this over xi bounds the constant in the operator-error
        estimate empirically.  theta must lie in (0, 2]; xi must be nonzero.
        """
        if not 0 < theta <= 2:
            raise ValueError(f"theta must be in (0, 2], got {theta}")
        arr = np.atleast_1d(np.asarray(xi, dtype=float))
        if np.any(arr == 0.0):
            raise ValueError("taylor_deviation is undefined at xi = 0")
        out = np.abs(self.sqrt_symbol(arr) - 1.0) / np.abs(arr) ** theta
        return float(out[0]) if np.isscalar(xi) else out

    def validate(self, xi_samples) -> ValidationReport:
        """Check evenness, nonnegativity, boundedness, and normalization."""
        xi = np.asarray(xi_samples, dtype=float)
        if xi.size == 0:
            raise ValueError("need a nonempty frequency sample list")
        tol = self.tolerance
        vals = self.symbol(xi)
        evenness = float(np.max(np.abs(vals - self.symbol(-xi))))
        smin = float(np.min(vals))
        smax = float(np.max(vals))
        norm_res = float(abs(self.symbol(0.0) - 1.0))

        failures = []
        if evenness > tol:
            failures.append("evenness")
        if smin < -tol:
            failures.append("nonnegativity")
        if not np.isfinite(smax):
            failures.append("boundedness")
        if norm_res > tol:
            failures.append("normalization")
        return ValidationReport(
            evenness_residual=evenness,
            symbol_min=smin,
            symbol_max=smax,
            normalization_residual=norm_res,
            tolerance=tol,
            failures=tuple(failures),
        )
