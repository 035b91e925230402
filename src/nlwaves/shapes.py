"""Initial-data shapes, evaluable at arbitrary points.

A spec is either a dict naming a built-in shape, a plain array of node
samples, a callable, or None (zero).  Built-ins:

    {"shape": "zero"}
    {"shape": "gaussian", "a": A, "b": B}      A * exp(-B x^2)
    {"shape": "sine", "a": A, "k": K}          A * sin(K pi x / L)
    {"shape": "sech2", "a": A, "b": B}         A * sech^2(B x)
    {"shape": "samples", "values": [...]}      node samples (grid-bound)

Analytic shapes can be evaluated off-grid (the lattice initial velocity needs
half-site values); sample arrays cannot.
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager

import numpy as np

from .errors import InvalidSpecError

_REQUIRED_KEYS = {
    "zero": set(),
    "gaussian": {"a", "b"},
    "sine": {"a", "k"},
    "sech2": {"a", "b"},
    "samples": {"values"},
}


def _checked_shape(spec: dict) -> str:
    """The shape name of a dict spec with exactly that shape's keys and real parameters."""
    name = spec.get("shape")
    if not isinstance(name, str) or name not in _REQUIRED_KEYS:
        raise InvalidSpecError(f"unknown shape {name!r}")
    if set(spec) - {"shape"} != _REQUIRED_KEYS[name]:
        raise InvalidSpecError(f"shape '{name}' takes exactly keys {sorted(_REQUIRED_KEYS[name])}")
    for key in sorted(_REQUIRED_KEYS[name] - {"values"}):
        if isinstance(spec[key], bool) or not isinstance(spec[key], numbers.Real):
            raise InvalidSpecError(f"shape parameter '{key}' must be a number, got {spec[key]!r}")
    return name


def make_callable(spec, half_length: float):
    """Return f(x) for an analytic spec; reject sample arrays.

    Sine shapes need the box half-length to fix their wavenumber, hence the
    `half_length` argument.
    """
    if spec is None:
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if callable(spec):
        return spec
    if isinstance(spec, (list, tuple, np.ndarray)):
        raise InvalidSpecError("sample arrays cannot be evaluated off-grid")
    if not isinstance(spec, dict):
        raise InvalidSpecError(f"spec must be a dict, array, or callable: {spec!r}")
    name = _checked_shape(spec)

    if name == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if name == "gaussian":
        a, b = float(spec["a"]), float(spec["b"])
        return lambda x: a * np.exp(-b * np.asarray(x, dtype=float) ** 2)
    if name == "sine":
        a, k = float(spec["a"]), float(spec["k"])
        w = k * np.pi / half_length
        return lambda x: a * np.sin(w * np.asarray(x, dtype=float))
    if name == "sech2":
        a, b = float(spec["a"]), float(spec["b"])

        def sech2(x):
            # far out cosh(b x)^2 overflows to inf, and a / inf is the right 0
            with np.errstate(over="ignore"):
                return a / np.cosh(b * np.asarray(x, dtype=float)) ** 2

        return sech2
    raise InvalidSpecError("sample arrays cannot be evaluated off-grid")


def evaluate_on_nodes(spec, nodes: np.ndarray, half_length: float) -> np.ndarray:
    """Evaluate any spec at the given nodes; a sample array holds one value
    per node.  Raises InvalidSpecError when a value is not finite; the
    evaluation itself warns of nothing."""
    if isinstance(spec, dict) and _checked_shape(spec) == "samples":
        spec = spec["values"]
    elif not isinstance(spec, (list, tuple, np.ndarray)):
        with np.errstate(all="ignore"):
            return _finite(make_callable(spec, half_length)(nodes), "its value")
    try:
        values = np.asarray(spec, dtype=float)
    except (TypeError, ValueError):
        raise InvalidSpecError("sample values must be numbers") from None
    if values.shape != nodes.shape:
        raise InvalidSpecError(f"sample array has shape {values.shape}, expected {nodes.shape}")
    return _finite(values, "its value")


@contextmanager
def naming(key: str):
    """Re-raise an InvalidSpecError of the block as one naming the config entry `key`."""
    try:
        yield
    except InvalidSpecError as exc:
        raise InvalidSpecError(str(exc), key) from None


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """`values`, unless one is not finite: then InvalidSpecError naming `what`."""
    if not np.all(np.isfinite(values)):
        raise InvalidSpecError(f"{what} is not finite at every node")
    return values
