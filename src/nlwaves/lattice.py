"""Direct particle-chain model: periodic nearest-neighbor lattice in strain form.

The chain integrates

    u_tt = D2 (u + eps^n u^(n+1)),   D2 g = (g_{j+1} - 2 g_j + g_{j-1}) / delta^2

with a site at each node of a `Grid` and delta its spacing, independent of
the spectral solver so the two can cross-validate.  A chain starts on u0
sampled at its nodes and on the symmetric quotient of v0 at half a spacing
off them (`shapes.sample`, `shapes.quotient`).  The RK4 march of the
spectral core (`dynamics._march`) steps it, so the chain and the classical
reference of a lattice sweep land on one time grid and step in lockstep.
The chains of a lattice sweep are stepped together, end to end in one pair
of site arrays, each wrapping on itself.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import schema
from .dynamics import _drive, _freeze, _march, _nonlinear_scale
from .errors import ConfigError, NonFiniteError
from .shapes import quotient, sample
from .spectral import Grid, _integer_power


@dataclass(frozen=True, eq=False)
class Chain:
    """Periodic particle chain with a site at each node of `grid`: the strains
    and strain velocities there, and the time t.

    strain and velocity are read-only float arrays of shape (grid.size,), as
    `dynamics._freeze` makes them for a State too.
    """

    grid: Grid
    strain: np.ndarray
    velocity: np.ndarray
    t: float

    def __post_init__(self):
        _freeze(self, ("strain", "velocity"))


def _chain_rhs(grids, epsilon: float, n: int):
    """Builder of y -> c (u_t, D2 (u + eps^n u^(n+1))) for site arrays y = (u, u_t)
    of chains on `grids` laid end to end, each periodic with delta its grid's
    spacing: scaled(c) returns rhs(y, out), which writes into `out`, which
    may be y.

    D2 g = ((g_{j+1} - 2 g_j) + g_{j-1}) * (c / delta^2) is taken on shifted
    slices of the whole array, then redone at each chain's first and last
    site with the neighbours that wrap within the chain: the same operations
    in the same order as on gathered neighbours, so the same bits.  g and 2 g
    live in two buffers built here, once, and shared by every closure (the
    power's partial products use the one of 2 g before it is formed);
    scaled(c) builds c / delta^2 and its values at the chain ends.  When
    eps^n is 0 the chain is linear and g is a copy of u, with no power, as
    in the spectral core; u itself may be written over by c u_t.
    """
    coef = schema.nonlinear_coefficient(epsilon, n)
    sizes = [g.size for g in grids]
    inv = np.repeat([1.0 / (g.spacing * g.spacing) for g in grids], sizes)
    ends = np.cumsum(sizes)
    firsts, lasts = ends - sizes, ends - 1
    edges = np.concatenate([firsts, lasts])
    # a chain's first site wraps left to its last, its last right to its first
    right = np.concatenate([firsts + 1, firsts])
    left = np.concatenate([lasts, lasts - 1])
    stress, twice = np.empty(ends[-1]), np.empty(ends[-1])

    def scaled(c):
        inv_c = c * inv
        inner_inv, edge_inv = inv_c[1:-1], inv_c[edges]

        def rhs(y, out):
            u, d2, g = y[0], out[1], stress
            if coef != 0.0:
                _integer_power(u, n + 1, out=g, scratch=twice)  # before 2 g is formed
                np.multiply(coef, g, out=g)
                np.add(u, g, out=g)
            else:
                np.copyto(g, u)
            np.multiply(c, y[1], out=out[0])
            np.multiply(2.0, g, out=twice)
            inner = d2[1:-1]
            np.subtract(g[2:], twice[1:-1], out=inner)
            np.add(inner, g[:-2], out=inner)
            np.multiply(inner, inner_inv, out=inner)
            d2[edges] = (g[right] - twice[edges] + g[left]) * edge_inv

        return rhs

    return scaled


def make_chain(u0_spec, v0_spec, grid: Grid) -> Chain:
    """Chain at t=0 on `grid`: strains from u0 at its nodes (or one sample per
    node), velocities the quotient of v0 at half its spacing off them.  A spec
    that cannot be read raises InvalidSpecError naming u0 or v0."""
    return Chain(grid, sample(u0_spec, grid, "u0"), quotient(v0_spec, grid, "v0"), 0.0)


def integrate_chain(chain, epsilon: float, n: int, dt: float, t_end: float, observers=(),
                    probe=None):
    """March the chain to t_end with RK4; last step shortened to land exactly.

    `chain` may also be a sequence of chains at one time, stepped together;
    the call then returns a tuple of chains in input order.  The internal
    probe(y, t) sees the site arrays y = (u, u_t) of every chain laid end to
    end at the chain time and after every step (see `dynamics._march` and
    `dynamics._drive`), under the numpy settings of the spectral core; each
    observer is then called with t alone.  The returned chains view one
    read-only stepped array; a call whose t_end is the chain time takes no
    step and returns its input.

    Raises ConfigError naming n where the spectral core does (see
    `dynamics._nonlinear_scale`), ValueError when t_end precedes the chain
    time, and NonFiniteError when the first scaled stage (h/2) f(y) of a
    step, or the state after the last step, is not finite.  Its factor h/2
    is folded into the stencil, so an overflow may be reported one step
    earlier than a check of f(y) would (dt > 2, a factor above 1) or later
    (a factor below 1 that keeps the stage finite).
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
    sizes = [c.grid.size for c in chains]
    # the spectral core's rule of n, which bounds the power's cost too
    _nonlinear_scale(schema.nonlinear_coefficient(epsilon, n), n, max(sizes))
    scaled = _chain_rhs([c.grid for c in chains], epsilon, n)
    y = np.concatenate([(c.strain, c.velocity) for c in chains], axis=1)

    def check(_y, a, t, _spare):
        # a NaN is the max, an inf the max or the min: two reductions, no new array
        if not (np.isfinite(a.max()) and np.isfinite(a.min())):
            raise NonFiniteError(f"chain became non-finite at t={t:.6g}")

    _drive(_march(scaled, y, t, t_end, dt, check), y, probe, observers)
    if t_end != t:  # a step was taken
        y.setflags(write=False)  # so each Chain views it
        parts = np.split(y, np.cumsum(sizes)[:-1], axis=1)
        chains = tuple(Chain(c.grid, *part, t_end) for c, part in zip(chains, parts))
    return chains if batch else chains[0]
