"""The configuration schema: the default, type and range of each key, stated once.

`check(key, value)` applies a key's rule and raises ConfigError naming the
key; `nonlinear_coefficient` applies the rule of n that depends on epsilon,
and `check_grid` the rules of grid_l that depend on grid_n.  The CLI checks
every key of the resolved config, then builds a Grid and a ModelConfig from
it for the rules between keys (ModelConfig's rule of dt on t_end, through
`dynamics.n_steps`, among them); Grid, ModelConfig and `integrate_chain`
check their arguments under the config-file name of each, and SweepConfig
checks only what a sweep adds to its ModelConfig (delta_list and
sample_stride), so a bad value fails alike from JSON and from Python.
Numbers must be finite; bools are not numbers.  ModelConfig and
SweepConfig take their defaults from here too (`default`), so a library
call and a config file that leave a key out run alike.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import field
from numbers import Integral, Real

from .errors import ConfigError

#: key -> (CLI default, type, range test, message when the test fails).  A key
#: whose default is null may be null.  u0 and v0 are initial-data specs,
#: checked by evaluating them (see `shapes`).
RULES = {
    "kernel": ("triangular", str, None, None),
    "grid_l": (20.0, Real, lambda v: v > 0, "must be positive"),
    "grid_n": (1024, Integral, lambda v: v >= 8 and v % 2 == 0, "must be an even integer >= 8"),
    "delta": (None, Real, lambda v: v > 0, "must be positive (or null for the Dirac limit)"),
    "delta_list": (
        [0.3125, 0.15625, 0.078125, 0.0390625], list, lambda v: v > 0, "entries must be positive"
    ),
    "epsilon": (0.1, Real, lambda v: v >= 0, "must be nonnegative"),
    "n": (1, Integral, lambda v: v >= 1, "must be a positive integer"),
    "s": (3.0, Real, lambda v: v > 2.5, "must exceed 5/2"),
    "dt": (None, Real, lambda v: v > 0, "must be positive (or null for the CFL default)"),
    "t_end": (1.0, Real, lambda v: v >= 0, "must be nonnegative"),
    "u0": ({"shape": "gaussian", "a": 0.5, "b": 2.0}, object, None, None),
    "v0": ({"shape": "zero"}, object, None, None),
    "breakdown_threshold": (1e3, Real, lambda v: v > 0, "must be positive"),
    "sample_stride": (10, Integral, lambda v: v >= 1, "must be a positive integer"),
    "emit_timeseries": (False, bool, None, None),
}

_NOUNS = {str: "a string", bool: "true or false", Real: "a number", Integral: "an integer"}


def check(key: str, value) -> None:
    """Raise ConfigError naming `key` unless `value` obeys the key's rule."""
    default, kind, in_range, message = RULES[key]
    if value is None and default is None:
        return
    if kind is list:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(key, f"must be a nonempty list, got {value!r}")
        for entry in value:
            _check_number(key, entry, Real, in_range, message)
        if any(later >= earlier for later, earlier in zip(value[1:], value)):
            raise ConfigError("delta_list ordering", "must be strictly decreasing")
    elif kind in (Real, Integral):
        _check_number(key, value, kind, in_range, message)
    elif not isinstance(value, kind):
        raise ConfigError(key, f"must be {_NOUNS[kind]}, got {value!r}")


def default(key: str):
    """A dataclass field defaulting to a fresh copy of the key's CLI default."""
    value = RULES[key][0]
    return field(default_factory=lambda: copy.deepcopy(value))


def nonlinear_coefficient(epsilon, n: int):
    """eps^n; raises ConfigError naming n unless it, and the energy weight's
    (n+1) eps^n, are finite floats.

    An eps > 1 whose power overflows is rejected from its logarithm first, so
    an integer eps never builds a power of more than about 1,025 bits.
    """
    try:
        if epsilon <= 1 or n * math.log(epsilon) <= math.log(sys.float_info.max):
            coef = epsilon**n
            if math.isfinite((n + 1) * coef):
                return coef
    except OverflowError:  # a float power, or an integer one past the largest float
        pass
    raise ConfigError("n", f"(n+1) epsilon**n overflows a float at n = {n}")


def check_grid(grid_l, grid_n) -> None:
    """Check grid_l and grid_n, then the rules of grid_l on grid_n: pi N / L,
    twice the largest frequency of the grid of N nodes on [-L, L), and 2 L /
    N, its spacing, must be finite; raises ConfigError naming the key."""
    check("grid_l", grid_l)
    check("grid_n", grid_n)
    half_length, size = float(grid_l), int(grid_n)
    if not math.isfinite(math.pi * size / half_length):
        raise ConfigError("grid_l", f"{half_length!r} is too small for {size} nodes: "
                                    "the grid's frequencies overflow")
    if not math.isfinite(2.0 * half_length / size):
        raise ConfigError("grid_l", f"{half_length!r} is too large for {size} nodes: "
                                    "the grid's spacing overflows")


def _check_number(key: str, value, kind, in_range, message: str) -> None:
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(key, f"must be {_NOUNS[kind]}, got {value!r}")
    # int/float comparison is exact, so an int too large for a float fails here
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(key, "must be finite")
    if not in_range(value):
        raise ConfigError(key, message)
