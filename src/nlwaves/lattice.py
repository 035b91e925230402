"""Direct particle-chain model: periodic nearest-neighbor lattice in strain form.

The chain integrates

    u_tt = D2 (u + eps^n u^(n+1)),   D2 g = (g_{j+1} - 2 g_j + g_{j-1}) / delta^2

on M sites with spacing delta = 2L/M, independent of the spectral solver so
the two can cross-validate.  Its state is the pair (u, u_t) of site arrays,
stepped by the RK4 march of the spectral core (`dynamics._march`) with the
array right-hand side (u, u_t) -> c (u_t, D2 g), each RK4 weight c folded
into u_t and 1/delta^2, so the chain and the classical reference of a
lattice sweep land on one time grid.  The chains of a lattice sweep are
stepped together, end to end in one pair of arrays, each wrapping on itself.
The second difference is taken on shifted slices of the whole array and
redone at each chain's two ends with the neighbours that wrap within the
chain, into buffers built once per call, with the operations of a gather
over neighbour indices and so its bits.  The march's
probe sees the stepped site arrays and observers get t alone; the chains
`integrate_chain` returns are built once, with site arrays that are views
of the last step's state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import schema, shapes
from .dynamics import _hook, _march, _nonlinear_scale
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
        if strain.size < 1:
            raise ValueError("a chain needs at least one site")
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


def _chain_rhs(delta, epsilon: float, n: int, sizes):
    """Builder of y -> c (u_t, D2 (u + eps^n u^(n+1))) for site arrays y = (u, u_t)
    of chains of `sizes` sites laid end to end, each periodic: scaled(c)
    returns rhs(y, out), which writes into `out`; `delta` is one spacing or
    one per site.

    D2 g = ((g_{j+1} - 2 g_j) + g_{j-1}) * (c / delta^2) is taken on shifted
    slices of the whole array, then redone at each chain's first and last
    site with the neighbours that wrap within the chain: the same operations
    in the same order as on gathered neighbours, so the same bits.  g, 2 g
    and the power's partial products live in buffers built here, once, and
    shared by every closure; scaled(c) builds c / delta^2 and its values at
    the chain ends.  When eps^n is 0 the chain is linear and g is u, with no
    power, as in the spectral core.
    """
    coef = schema.nonlinear_coefficient(epsilon, n)
    sizes = np.asarray(sizes)
    ends = np.cumsum(sizes)
    total = int(ends[-1])
    inv = np.broadcast_to(1.0 / (delta * delta), (total,))
    firsts, lasts = ends - sizes, ends - 1
    edges = np.concatenate([firsts, lasts])
    # a chain's first site wraps left to its last, its last right to its first
    # (a one-site chain is its own neighbour)
    right = np.concatenate([np.minimum(firsts + 1, lasts), firsts])
    left = np.concatenate([lasts, np.maximum(lasts - 1, firsts)])
    stress, twice, scratch = np.empty(total), np.empty(total), np.empty(total)

    def scaled(c):
        inv_c = c * inv
        inner_inv, edge_inv = inv_c[1:-1], inv_c[edges]

        def rhs(y, out):
            u, d2 = y[0], out[1]
            g = u
            if coef != 0.0:
                g = stress
                _integer_power(u, n + 1, out=g, scratch=scratch)
                np.multiply(coef, g, out=g)
                np.add(u, g, out=g)
            np.multiply(c, y[1], out=out[0])
            np.multiply(2.0, g, out=twice)
            inner = d2[1:-1]
            np.subtract(g[2:], twice[1:-1], out=inner)
            np.add(inner, g[:-2], out=inner)
            np.multiply(inner, inner_inv, out=inner)
            d2[edges] = (g[right] - twice[edges] + g[left]) * edge_inv

        return rhs

    return scaled


def initial_velocity(v0_spec, delta: float, sites: np.ndarray, half_length: float) -> np.ndarray:
    """Discrete initial strain rate: symmetric quotient of v0 at half-offsets.

    v0 must be evaluable at x +/- delta/2 analytically; sample arrays are
    rejected because interpolation would pollute the quotient.  Raises
    InvalidSpecError when the quotient is not finite at every site.
    """
    v0 = shapes.make_callable(v0_spec, half_length)
    with np.errstate(all="ignore"):
        rate = (v0(sites + delta / 2.0) - v0(sites - delta / 2.0)) / delta
    return shapes._finite(rate, "its difference quotient")


def make_chain(u0_spec, v0_spec, half_length: float, sites: int) -> Chain:
    """Chain at t=0: strains from u0 at its sites (or one sample per site),
    velocities from the discrete quotient of v0.  A spec that cannot be
    evaluated raises InvalidSpecError naming its config key, u0 or v0, and
    fewer than one site raises ValueError."""
    if sites < 1:
        raise ValueError(f"a chain needs at least one site, got {sites}")
    delta = 2.0 * half_length / sites
    x = -half_length + delta * np.arange(sites)
    with shapes.naming("u0"):
        strain = shapes.evaluate_on_nodes(u0_spec, x, half_length)
    with shapes.naming("v0"):
        velocity = initial_velocity(v0_spec, delta, x, half_length)
    return Chain(half_length, strain, velocity, 0.0)


def integrate_chain(chain, epsilon: float, n: int, dt: float, t_end: float, observers=(),
                    probe=None):
    """March the chain to t_end with RK4; last step shortened to land exactly.

    The internal probe(y, t) sees the site arrays y = (u, u_t) of every
    chain laid end to end at the chain time and after every step (see
    `dynamics._march`); each observer is then called with t alone.  Raises
    ConfigError naming n where the spectral core does (see
    `dynamics._nonlinear_scale`), ValueError when t_end precedes the chain
    time, and NonFiniteError when the first scaled stage (h/2) f(y) of a
    step, or the state after the last step, is not finite.  Its factor h/2
    is folded into the stencil, so an overflow may be reported one step
    earlier than a check of f(y) would (dt > 2, a factor above 1) or later
    (a factor below 1 that keeps the stage finite).  `chain` may also be a
    sequence of chains at one time t, stepped together; the call then
    returns a tuple of chains in input order.  The returned chains are
    built once, their site arrays views of the last step's state; a call
    that takes no step returns its input.
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
    sizes = [c.sites for c in chains]
    # the spectral core's rule of n, which bounds the power's cost too
    _nonlinear_scale(schema.nonlinear_coefficient(epsilon, n), n, max(sizes))
    scaled = _chain_rhs(np.repeat([c.delta for c in chains], sizes), epsilon, n, sizes)
    y = np.concatenate([(c.strain, c.velocity) for c in chains], axis=1)

    def check(_y, a, t):
        # a NaN is the max, an inf the max or the min: two reductions, no new array
        if not (np.isfinite(a.max()) and np.isfinite(a.min())):
            raise NonFiniteError(f"chain became non-finite at t={t:.6g}")

    last = _march(scaled, y, t, t_end, dt, check, _hook(probe, observers))
    if last is not y:
        parts = np.split(last, np.cumsum(sizes)[:-1], axis=1)  # views, (2, sites) each
        chains = tuple(Chain(c.half_length, *part, t_end) for c, part in zip(chains, parts))
    return chains if batch else chains[0]
