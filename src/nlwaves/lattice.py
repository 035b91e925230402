"""Direct particle-chain model: periodic nearest-neighbor lattice in strain form.

The chain integrates

    u_tt = D2 (u + eps^n u^(n+1)),   D2 g = (g_{j+1} - 2 g_j + g_{j-1}) / delta^2

on M sites with spacing delta = 2L/M, independent of the spectral solver so
the two can cross-validate.  Its state is the pair (u, u_t) of site arrays,
stepped by the same RK4 stage combination as the spectral core
(`dynamics._rk4`) with the array right-hand side (u, u_t) -> (u_t, D2 g).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import shapes
from .dynamics import _rk4, n_steps
from .errors import CompatibilityError, InvalidSpecError, NonFiniteError


@dataclass(frozen=True)
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
        if self.half_length <= 0:
            raise ValueError("half_length must be positive")
        object.__setattr__(self, "strain", strain)
        object.__setattr__(self, "velocity", velocity)

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


def second_difference(values: np.ndarray, delta: float) -> np.ndarray:
    """Centered second difference with periodic wraparound.

    Non-finite values propagate silently; integrate_chain reports them.
    """
    values = np.asarray(values, dtype=float)
    inv = 1.0 / (delta * delta)
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.roll(values, -1) - 2.0 * values + np.roll(values, 1)) * inv


def _chain_rhs(delta: float, epsilon: float, n: int):
    """(u, u_t) -> (u_t, D2 (u + eps^n u^(n+1))) for site arrays."""
    coef = epsilon**n

    def rhs(u, ut, _t=None):
        with np.errstate(over="ignore", invalid="ignore"):
            g = u + coef * u ** (n + 1)
        return ut, second_difference(g, delta)

    return rhs


def initial_velocity(v0_spec, delta: float, sites: np.ndarray, half_length: float) -> np.ndarray:
    """Discrete initial strain rate: symmetric quotient of v0 at half-offsets.

    v0 must be evaluable at x +/- delta/2 analytically; sample arrays are
    rejected because interpolation would pollute the quotient.
    """
    if isinstance(v0_spec, (list, tuple, np.ndarray)) or (
        isinstance(v0_spec, dict) and v0_spec.get("shape") == "samples"
    ):
        raise InvalidSpecError("initial velocity needs an analytic v0, not samples")
    v0 = shapes.make_callable(v0_spec, half_length)
    return (v0(sites + delta / 2.0) - v0(sites - delta / 2.0)) / delta


def make_chain(u0_spec, v0_spec, half_length: float, sites: int) -> Chain:
    """Chain at t=0: strains from u0, velocities from the discrete quotient of v0."""
    delta = 2.0 * half_length / sites
    x = -half_length + delta * np.arange(sites)
    strain = shapes.evaluate_on_nodes(u0_spec, x, half_length)
    velocity = initial_velocity(v0_spec, delta, x, half_length)
    return Chain(half_length, strain, velocity, 0.0)


def displacement_to_strain(displacement: np.ndarray, delta: float) -> np.ndarray:
    """Forward difference quotient (w_{j+1} - w_j)/delta with wraparound."""
    w = np.asarray(displacement, dtype=float)
    return (np.roll(w, -1) - w) / delta


def strain_to_displacement(strain: np.ndarray, delta: float) -> np.ndarray:
    """Discrete anti-difference with the w_0 = 0 gauge.

    Requires the periodic strain sum to vanish (tolerance 1e-10 * M);
    otherwise no periodic displacement exists.
    """
    u = np.asarray(strain, dtype=float)
    total = float(np.sum(u))
    if abs(total) > 1e-10 * u.size:
        raise CompatibilityError(
            f"strain sums to {total:.3e} over the period; cannot integrate"
        )
    w = np.empty_like(u)
    w[0] = 0.0
    np.cumsum(u[:-1] * delta, out=w[1:])
    return w


def integrate_chain(
    chain: Chain,
    epsilon: float,
    n: int,
    dt: float,
    t_end: float,
    observers=(),
) -> Chain:
    """March the chain to t_end with RK4; last step shortened to land exactly.

    Observers see the initial chain and every stepped snapshot.  Raises
    NonFiniteError when the state blows up to NaN/inf.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < chain.t:
        raise ValueError(f"t_end {t_end} precedes chain time {chain.t}")
    steps = n_steps(t_end - chain.t, dt)
    rhs = _chain_rhs(chain.delta, epsilon, n)

    state = chain
    for observer in observers:
        observer(state)
    u, ut, t = state.strain, state.velocity, state.t
    for i in range(steps):
        step = (t_end - t) if i == steps - 1 else dt
        u, ut = _rk4(rhs, u, ut, t, step)
        t = t_end if i == steps - 1 else t + step
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(ut))):
            raise NonFiniteError(f"chain became non-finite at t={t:.6g}")
        state = replace(state, strain=u, velocity=ut, t=t)
        for observer in observers:
            observer(state)
    return state

