"""Direct particle-chain model: periodic nearest-neighbor lattice in strain form.

The chain integrates

    u_tt = D2 (u + eps^n u^(n+1)),   D2 g = (g_{j+1} - 2 g_j + g_{j-1}) / delta^2

on M sites with spacing delta = 2L/M, independent of the spectral solver so
the two can cross-validate.  Its state is the pair (u, u_t) of site arrays,
stepped by the RK4 march of the spectral core (`dynamics._march`) with the
array right-hand side (u, u_t) -> (u_t, D2 g), so the chain and the
classical reference of a lattice sweep land on one time grid.  The chains
of a lattice sweep are stepped together, end to end in one pair of arrays,
each wrapping on itself; observers get chains whose site arrays are views of
the stepped state, taken on first access.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import schema, shapes
from .dynamics import _march, _unchecked
from .errors import ConfigError, NonFiniteError
from .spectral import _integer_power


@dataclass(frozen=True, eq=False)
class Chain:
    """Periodic particle chain: strains and strain velocities at M sites."""

    half_length: float
    strain: np.ndarray
    velocity: np.ndarray
    t: float

    def __post_init__(self):
        strain = np.asarray(self.strain, dtype=float)
        velocity = np.asarray(self.velocity, dtype=float)
        if strain.ndim != 1 or strain.shape != velocity.shape:
            raise ValueError("strain and velocity must be equal-length 1-d arrays")
        schema.check("grid_l", self.half_length)
        object.__setattr__(self, "strain", strain)
        object.__setattr__(self, "velocity", velocity)

    def __eq__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        return (
            self.half_length == other.half_length
            and self.t == other.t
            and np.array_equal(self.strain, other.strain)
            and np.array_equal(self.velocity, other.velocity)
        )

    @property
    def sites(self) -> int:
        return self.strain.shape[0]

    @property
    def delta(self) -> float:
        # spacing is defined as 2L/M so M * delta = 2L holds exactly
        return 2.0 * self.half_length / self.sites

    @property
    def positions(self) -> np.ndarray:
        return -self.half_length + self.delta * np.arange(self.sites)


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
    """rhs(y, t, out): out = (u_t, D2 (u + eps^n u^(n+1))) for site arrays y = (u, u_t)."""
    coef = epsilon**n
    inv = 1.0 / (delta * delta)

    def rhs(y, _t, out):
        u = y[0]
        g = u + coef * _integer_power(u, n + 1)
        out[0] = y[1]
        out[1] = _stencil(g, inv, *neighbours)

    return rhs


def initial_velocity(v0_spec, delta: float, sites: np.ndarray, half_length: float) -> np.ndarray:
    """Discrete initial strain rate: symmetric quotient of v0 at half-offsets.

    v0 must be evaluable at x +/- delta/2 analytically; sample arrays are
    rejected because interpolation would pollute the quotient.
    """
    v0 = shapes.make_callable(v0_spec, half_length)
    return (v0(sites + delta / 2.0) - v0(sites - delta / 2.0)) / delta


def make_chain(u0_spec, v0_spec, half_length: float, sites: int, stride: int = 1) -> Chain:
    """Chain at t=0: strains from u0 (sample arrays span sites * stride nodes),
    velocities from the discrete quotient of v0."""
    delta = 2.0 * half_length / sites
    x = -half_length + delta * np.arange(sites)
    strain = shapes.evaluate_on_nodes(u0_spec, x, half_length, stride)
    velocity = initial_velocity(v0_spec, delta, x, half_length)
    return Chain(half_length, strain, velocity, 0.0)


class _ChainSnapshot(Chain):
    """A Chain handed out by `integrate_chain`: its site arrays are views of
    the state of its step, taken on first access."""

    strain = cached_property(lambda self: self._y[0, self._span])
    velocity = cached_property(lambda self: self._y[1, self._span])


def integrate_chain(chain, epsilon: float, n: int, dt: float, t_end: float, observers=(),
                    probe=None):
    """March the chain to t_end with RK4; last step shortened to land exactly.

    Observers see the initial chain and every stepped snapshot; the internal
    probe(y, t) sees, before them, the site arrays y = (u, u_t) of every
    chain laid end to end (see `dynamics._march`).  Raises
    NonFiniteError when the first RK4 stage of a step, or the state after
    the last step, is not finite.  `chain` may also be a sequence of chains
    at one time t, stepped together; observers then get, and the call
    returns, a tuple of chains in input order.
    """
    batch = not isinstance(chain, Chain)
    chains = tuple(chain) if batch else (chain,)
    if not chains:
        raise ValueError("integrate_chain needs at least one chain")
    t = chains[0].t
    if any(c.t != t for c in chains[1:]):
        raise ValueError("batched chains must start at one time")
    for key, value in (("epsilon", epsilon), ("n", n), ("dt", dt), ("t_end", t_end)):
        schema.check(key, value)
    if dt is None:  # null asks for the CFL step, which `shared_dt` resolves
        raise ConfigError("dt", "must be a number in integrate_chain, got None")
    if t_end < t:
        raise ValueError(f"t_end {t_end} precedes chain time {t}")
    sizes = [c.sites for c in chains]
    rhs = _chain_rhs(np.repeat([c.delta for c in chains], sizes), epsilon, n, _neighbours(sizes))
    ends = np.cumsum(sizes)
    spans = [slice(end - size, end) for end, size in zip(ends, sizes)]

    def snapshots(y, t):
        return tuple(_unchecked(_ChainSnapshot, half_length=c.half_length, t=t, _y=y, _span=s)
                     for c, s in zip(chains, spans))

    def check(_y, k1, t):
        if not np.all(np.isfinite(k1)):
            raise NonFiniteError(f"chain became non-finite at t={t:.6g}")

    y = np.concatenate([(c.strain, c.velocity) for c in chains], axis=1)
    return _march(rhs, y, t, t_end, dt, chains, snapshots, observers, check, batch, probe)
