"""Particle-chain mechanics: differences, transforms, and chain integration."""

import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nlwaves import (
    Chain,
    ConfigError,
    Grid,
    InvalidSpecError,
    Kernel,
    ModelConfig,
    NonFiniteError,
    integrate,
    integrate_chain,
    make_chain,
    make_initial,
)
from nlwaves import lattice
from nlwaves.dynamics import shared_dt
from nlwaves.lattice import _chain_rhs
from reference import _neighbours, integrate_chains, observe_chains
from reference import _chain_rhs as gathered_chain_rhs


def chain_rhs(chain, epsilon, n):
    """The chain integrator's right-hand side at the chain's state."""
    rhs = _chain_rhs([chain.grid], epsilon, n)(1.0)
    out = np.empty((2, chain.grid.size))
    rhs(np.stack([chain.strain, chain.velocity]), out)
    return out[0], out[1]


def second_difference(values, grid):
    """D2 of the site values of one periodic chain on `grid`, by the chain's
    right-hand side at eps 0."""
    rhs = _chain_rhs([grid], 0.0, 1)(1.0)
    out = np.empty((2, values.size))
    rhs(np.stack([values, np.zeros_like(values)]), out)
    return out[1]


class TestSecondDifference:
    def test_constant_maps_to_zero(self):
        vals = np.full(16, 2.5)
        assert np.max(np.abs(second_difference(vals, Grid(2.4, 16)))) == 0.0

    def test_quadratic_exact_away_from_wraparound(self):
        x = 0.25 * np.arange(32)
        out = second_difference(x**2, Grid(4.0, 32))
        np.testing.assert_allclose(out[1:-1], 2.0, rtol=1e-11)

    def test_pure_mode_multiplier_identity(self):
        # trig identity: second difference of sin(xi x) multiplies it by
        # -(4/d^2) sin^2(xi d / 2), the negative square frequency times the
        # triangular-kernel symbol at xi*d
        L, M = 8.0, 64
        grid = Grid(L, M)
        x, delta = grid.nodes, grid.spacing
        xi = 3 * np.pi / L
        out = second_difference(np.sin(xi * x), grid)
        tri = Kernel("triangular")
        expected = -(xi**2) * tri.symbol(xi * delta) * np.sin(xi * x)
        np.testing.assert_allclose(out, expected, rtol=1e-11, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(4, 32).map(lambda k: 2 * k), min_size=1, max_size=4),
        n=st.sampled_from([1, 2, 3]),
        epsilon=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, 0.005, 0.01 / 6.0, 3.7]),
    )
    # the fewest sites a Grid has, alone and between longer chains
    @example(sizes=[8], n=1, epsilon=0.1, seed=0, scale=1.0)
    @example(sizes=[10, 8, 12, 8], n=2, epsilon=0.1, seed=1, scale=1.0)
    def test_slices_match_gathered_neighbours(self, sizes, n, epsilon, seed, scale):
        # the slice stencil with its redone chain ends gives the bits of the
        # gather over periodic neighbour indices, chain by chain, for every
        # factor the closure folds in
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((2, sum(sizes)))
        grids = [Grid(rng.uniform(0.05, 1.0) * m / 2, m) for m in sizes]
        delta = np.repeat([g.spacing for g in grids], sizes)
        out = np.empty_like(y)
        _chain_rhs(grids, epsilon, n)(scale)(y, out)
        expected = gathered_chain_rhs(delta, epsilon, n, _neighbours(sizes))(scale)(y[0], y[1])
        assert np.array_equal(out[0], expected[0])
        assert np.array_equal(out[1], expected[1])


class TestInPlaceChainRhs:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_out_may_be_the_input(self, epsilon, n):
        # at eps 0 the stress is u itself, which c u_t writes over
        grids = [Grid(4.0, 32), Grid(4.0, 16), Grid(3.2, 8)]  # spacings 0.25, 0.5, 0.8
        rng = np.random.default_rng(n)
        y = rng.standard_normal((2, 56))
        rhs = _chain_rhs(grids, epsilon, n)(0.5)
        out = np.empty_like(y)
        rhs(y, out)
        rhs(y, y)
        assert np.array_equal(y, out)


class TestLatticeRhs:
    def test_zero_chain(self):
        chain = Chain(Grid(8.0, 16), np.zeros(16), np.zeros(16), 0.0)
        du, dut = chain_rhs(chain, 0.1, 1)
        assert np.all(du == 0.0) and np.all(dut == 0.0)

    def test_linear_single_mode_acceleration(self):
        grid = Grid(np.pi, 32)
        x = grid.nodes
        chain = Chain(grid, np.sin(x), np.zeros(grid.size), 0.0)
        _, acc = chain_rhs(chain, 0.0, 1)
        tri = Kernel("triangular")
        expected = -tri.symbol(grid.spacing) * np.sin(x)
        np.testing.assert_allclose(acc, expected, rtol=1e-10, atol=1e-12)

    def test_constant_strain_has_no_force(self):
        chain = Chain(Grid(8.0, 16), np.full(16, 0.7), np.zeros(16), 0.0)
        _, acc = chain_rhs(chain, 0.1, 1)
        assert np.max(np.abs(acc)) == 0.0

    def test_velocities_pass_through(self):
        rng = np.random.default_rng(3)
        vel = rng.standard_normal(16)
        chain = Chain(Grid(8.0, 16), np.zeros(16), vel, 0.0)
        du, _ = chain_rhs(chain, 0.1, 1)
        np.testing.assert_array_equal(du, vel)


def initial_velocity(v0, grid):
    """The initial strain rate of a chain on `grid` whose v0 is `v0`."""
    return make_chain(None, v0, grid).velocity


class TestInitialVelocity:
    def test_quadratic_is_exact(self):
        grid = Grid(10.0, 40)
        out = initial_velocity(lambda x: x**2, grid)
        assert np.max(np.abs(out - 2 * grid.nodes)) < 1e-12

    def test_constant_gives_zero(self):
        out = initial_velocity({"shape": "zero"}, Grid(10.0, 40))
        assert np.all(out == 0.0)

    def test_gaussian_second_order_convergence(self):
        """delta-sweep against the analytic derivative, discrete-L2 error."""
        L = 20.0
        a, b = 1.0, 2.0
        spec = {"shape": "gaussian", "a": a, "b": b}
        errors, deltas = [], []
        for m_exp in (7, 8, 9, 10):
            grid = Grid(L, 2**m_exp)
            sites, delta = grid.nodes, grid.spacing
            exact = -2 * b * sites * a * np.exp(-b * sites**2)
            approx = initial_velocity(spec, grid)
            errors.append(np.sqrt(delta * np.sum((approx - exact) ** 2)))
            deltas.append(delta)
        slope = np.polyfit(np.log(deltas), np.log(errors), 1)[0]
        assert 1.9 < slope < 2.1

    def test_odd_data_gives_even_quotient(self):
        out = initial_velocity({"shape": "sine", "a": 1.0, "k": 3}, Grid(10.0, 64))
        reflected = np.concatenate([out[:1], out[1:][::-1]])
        np.testing.assert_allclose(out, reflected, atol=1e-14)

    @pytest.mark.parametrize("spec", [
        {"shape": "gaussian", "a": 0.5, "b": 2.0},
        {"shape": "sine", "a": 0.3, "k": 3},
        {"shape": "sech2", "a": 0.4, "b": 1.5},
    ], ids=lambda spec: spec["shape"])
    @pytest.mark.parametrize("half_length,sites", [(10.0, 40), (7.3, 96), (np.pi, 32)])
    def test_is_the_half_spacing_quotient_bit_for_bit(self, spec, half_length, sites):
        grid = Grid(half_length, sites)
        x, h = grid.nodes, grid.spacing
        f = {
            "gaussian": lambda x: spec["a"] * np.exp(-spec["b"] * x**2),
            "sine": lambda x: spec["a"] * np.sin(spec["k"] * np.pi / half_length * x),
            "sech2": lambda x: spec["a"] / np.cosh(spec["b"] * x) ** 2,
        }[spec["shape"]]
        expected = (f(x + h / 2.0) - f(x - h / 2.0)) / h
        assert np.array_equal(initial_velocity(spec, grid), expected)

    def test_non_finite_quotient_rejected_without_warning(self):
        step = lambda x: np.where(x > 0, 1e308, -1e308)  # noqa: E731; 2e308 across x = 0
        with pytest.raises(InvalidSpecError, match="v0.*not finite"):
            initial_velocity(step, Grid(10.0, 40))
        with pytest.raises(InvalidSpecError, match="not finite"):
            make_chain({"shape": "gaussian", "a": 0.5, "b": -10}, None, Grid(10.0, 32))

    def test_sample_arrays_rejected(self):
        with pytest.raises(InvalidSpecError, match="v0"):
            initial_velocity(np.zeros(8), Grid(10.0, 8))
        with pytest.raises(InvalidSpecError, match="v0"):
            initial_velocity({"shape": "samples", "values": [1.0] * 8}, Grid(10.0, 8))


def trig_data(a):
    """A smooth 2 pi-periodic callable from three cosine and three sine modes."""
    return lambda x: sum(
        a[2 * k] * np.cos((k + 1) * x) + a[2 * k + 1] * np.sin((k + 1) * x)
        for k in range(3)
    )


class TestIntegrateChain:
    def test_zero_chain_stays_zero(self):
        chain = Chain(Grid(8.0, 16), np.zeros(16), np.zeros(16), 0.0)
        out = integrate_chain(chain, 0.1, 1, 0.01, 1.0)
        assert out.t == 1.0
        assert np.all(out.strain == 0.0) and np.all(out.velocity == 0.0)

    def test_single_mode_dispersion_period(self):
        """Linear chain mode oscillates at the lattice dispersion frequency."""
        grid = Grid(np.pi, 16)
        chain = Chain(grid, np.sin(grid.nodes), np.zeros(grid.size), 0.0)
        tri = Kernel("triangular")
        omega = 1.0 * tri.sqrt_symbol(grid.spacing)  # mode xi = 1
        period = 2 * np.pi / omega
        out = integrate_chain(chain, 0.0, 1, period / 4000, period)
        assert np.max(np.abs(out.strain - chain.strain)) < 1e-4
        assert np.max(np.abs(out.velocity)) < 1e-4

    def test_matches_spectral_solver_at_equal_delta(self):
        """Cross-solver oracle: the chain is the triangular-kernel system."""
        u0 = {"shape": "gaussian", "a": 0.5, "b": 2.0}
        v0 = {"shape": "gaussian", "a": 0.3, "b": 1.0}

        grid = Grid(16.0, 512)
        dt = 0.125 * grid.spacing
        cfg = ModelConfig(
            kernel=Kernel("triangular"),
            delta=grid.spacing, dt=dt, t_end=1.0, epsilon=0.1, n=1,
        )
        spectral_final = integrate(cfg, make_initial(u0, v0, grid))
        chain_final = integrate_chain(make_chain(u0, v0, grid), 0.1, 1, dt, 1.0)
        assert np.max(np.abs(spectral_final.u - chain_final.strain)) < 1e-8

    @settings(max_examples=20, deadline=None)
    @given(amplitudes=st.lists(st.floats(-0.3, 0.3), min_size=12, max_size=12))
    def test_linear_chain_equals_spectral_run_at_delta_h(self, amplitudes):
        """At delta = h the linear chain and the triangular-kernel spectral
        run agree to round-off on band-limited data."""
        u0, v0 = trig_data(amplitudes[:6]), trig_data(amplitudes[6:])
        grid = Grid(np.pi, 32)
        dt = grid.spacing / 4
        t_end = 50 * dt
        cfg = ModelConfig(
            kernel=Kernel("triangular"),
            delta=grid.spacing, dt=dt, t_end=t_end, epsilon=0.0,
        )
        spectral_final = integrate(cfg, make_initial(u0, v0, grid))
        chain_final = integrate_chain(make_chain(u0, v0, grid), 0.0, 1, dt, t_end)
        assert np.max(np.abs(spectral_final.u - chain_final.strain)) <= 1e-13

    def test_momentum_conserved(self):
        rng = np.random.default_rng(5)
        M = 64
        chain = Chain(Grid(8.0, M), rng.standard_normal(M) * 0.1, rng.standard_normal(M) * 0.1, 0.0)
        p0 = np.sum(chain.velocity)
        out = integrate_chain(chain, 0.2, 1, 0.01, 1.0)
        assert abs(np.sum(out.velocity) - p0) < 1e-12 * M

    def test_observers_see_every_step(self):
        chain = Chain(Grid(8.0, 16), np.zeros(16), np.zeros(16), 0.0)
        times = []
        integrate_chain(chain, 0.0, 1, 0.25, 1.0, observers=(times.append,))
        assert times == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_t_end_before_the_chain_time_rejected(self):
        seen = []
        with pytest.raises(ValueError, match="precedes"):
            integrate_chain(Chain(Grid(8.0, 8), [0.1] * 8, [0.0] * 8, 1.0), 0.1, 1, 0.1, 0.5,
                            probe=lambda _y, t: seen.append(t))
        assert seen == []

    def test_non_finite_chain_signalled(self):
        chain = Chain(Grid(8.0, 16), np.full(16, 1e200), np.zeros(16), 0.0)
        with pytest.raises(NonFiniteError):
            integrate_chain(chain, 1.0, 3, 0.01, 1.0)

    def test_overflow_in_the_step_raises_without_a_warning(self):
        # the RK4 stage arithmetic, not only the right-hand side, overflows
        chain = make_chain({"shape": "gaussian", "a": 1e154, "b": 2.0},
                           {"shape": "sine", "a": 1e154, "k": 1}, Grid(20.0, 64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                integrate_chain(chain, 1.0, 1, 0.1, 1.0)

    def test_first_stage_overflow_raises_at_its_time(self):
        # the strain's power overflows in the first stage of the first step
        chain = make_chain({"shape": "gaussian", "a": 1e154, "b": 2.0},
                           {"shape": "sine", "a": 1e154, "k": 1}, Grid(20.0, 64))
        seen = []
        with pytest.raises(NonFiniteError, match=r"at t=0$"):
            integrate_chain(chain, 1.0, 1, 0.1, 1.0, observers=(seen.append,))
        assert seen == [0.0]


class TestChainIsTheTriangularModel:
    """The chain of stride k is the triangular nonlocal model at delta = k h
    on every k-th node: D2 of spacing k h has the symbol -xi^2 b(k h xi), and
    it couples only the nodes of one residue mod k."""

    GRID = Grid(20.0, 1024)  # fine enough that the power's aliasing is below round-off

    @settings(max_examples=15, deadline=None)
    @given(a=st.floats(0.4, 0.6), b=st.floats(1.5, 2.5))
    def test_chain_equals_the_spectral_run_on_its_sites(self, a, b):
        grid, dt = self.GRID, shared_dt(self.GRID)
        initial = make_initial({"shape": "gaussian", "a": a, "b": b}, None, grid)
        for k in (1, 2, 4, 8):
            chain = make_chain(initial.u[::k], None, Grid(grid.half_length, grid.size // k))
            for eps in (0.0, 0.1):
                cfg = ModelConfig(Kernel("triangular"), k * grid.spacing, dt, 1.0, eps)
                spectral = integrate(cfg, initial).u[::k]
                strain = integrate_chain(chain, eps, 1, dt, 1.0).strain
                # the largest relative sup difference over 600 draws (4,800 runs) was 2.1e-15
                assert np.max(np.abs(spectral - strain)) <= 5e-15 * np.max(np.abs(strain))


class TestSharedTimeGrid:
    @settings(max_examples=40, deadline=None)
    @given(
        dt=st.floats(1e-2, 1.0),
        t_end=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        start=st.sampled_from([0.0, 0.3]),
    )
    @example(dt=0.1, t_end=0.0, start=0.0)
    @example(dt=0.1, t_end=0.35, start=0.0)
    @example(dt=0.25, t_end=1.0, start=0.0)
    @example(dt=1.0, t_end=4.5e-197, start=0.0)  # a span far below the step count's rounding
    def test_integrators_observe_the_same_times(self, dt, t_end, start):
        # lattice_sweep pairs the chain with the classical run at equal times
        assume(t_end >= start)
        grid = Grid(np.pi, 16)
        u0, v0 = trig_data([0.1, 0.0, 0.05, 0.0, 0.0, 0.02]), trig_data([0.0] * 6)
        initial = make_initial(u0, v0, grid)
        initial = type(initial)(grid, initial.u, initial.v, start)
        chain = make_chain(u0, v0, grid)
        chain = Chain(grid, chain.strain, chain.velocity, start)
        cfg = ModelConfig(kernel=Kernel("dirac"), delta=None, dt=dt, t_end=t_end, epsilon=0.1)
        spectral, lattice = [], []
        integrate(cfg, initial, observers=(spectral.append,))
        integrate_chain(chain, 0.1, 1, dt, t_end, observers=(lattice.append,))
        assert spectral == lattice
        assert spectral[0] == start and spectral[-1] == t_end


class TestBatchedChains:
    @settings(max_examples=20, deadline=None)
    @given(
        sites=st.lists(st.sampled_from([8, 16, 32, 64]), min_size=1, max_size=4),
        amplitudes=st.lists(st.floats(-0.3, 0.3), min_size=12, max_size=12),
        epsilon=st.floats(0.0, 0.2),
        n=st.sampled_from([1, 2]),
    )
    def test_batched_chains_equal_single_chain_runs(self, sites, amplitudes, epsilon, n):
        u0, v0 = trig_data(amplitudes[:6]), trig_data(amplitudes[6:])
        chains = [make_chain(u0, v0, Grid(np.pi, m)) for m in sites]
        dt, t_end = 0.02, 0.5
        batched = integrate_chain(chains, epsilon, n, dt, t_end)
        assert len(batched) == len(chains)
        for chain, out in zip(chains, batched):
            single = integrate_chain(chain, epsilon, n, dt, t_end)
            assert out.grid is chain.grid and out.t == single.t
            assert np.array_equal(out.strain, single.strain)
            assert np.array_equal(out.velocity, single.velocity)

    def test_observers_get_tuples_in_input_order(self):
        chains = [Chain(Grid(8.0, m), np.full(m, float(m)), np.zeros(m), 0.0) for m in (32, 8, 16)]
        seen = []
        out = integrate_chain(chains, 0.0, 1, 0.25, 0.5,
                              probe=observe_chains(seen.append, chains, batch=True))
        assert len(seen) == 3  # initial chains and two steps
        for states in seen:
            assert isinstance(states, tuple)
            assert [c.grid for c in states] == [c.grid for c in chains]
            assert [c.strain[0] for c in states] == [32.0, 8.0, 16.0]
        assert all(a is b for a, b in zip(seen[0], chains))
        for c, last in zip(out, seen[-1]):
            assert np.array_equal(c.strain, last.strain) and c.t == last.t == 0.5
            assert np.array_equal(c.velocity, last.velocity)

    def test_single_chain_still_returns_a_chain(self):
        chain = Chain(Grid(8.0, 16), np.zeros(16), np.zeros(16), 0.0)
        seen = []
        out = integrate_chain(chain, 0.0, 1, 0.25, 0.5, probe=observe_chains(seen.append, chain))
        assert isinstance(out, Chain)
        assert all(isinstance(c, Chain) for c in seen)
        one = integrate_chain([chain], 0.0, 1, 0.25, 0.5)
        assert isinstance(one, tuple) and len(one) == 1

    def test_mixed_times_rejected(self):
        a = Chain(Grid(8.0, 16), np.zeros(16), np.zeros(16), 0.0)
        b = Chain(Grid(8.0, 8), np.zeros(8), np.zeros(8), 0.5)
        with pytest.raises(ValueError):
            integrate_chain([a, b], 0.0, 1, 0.25, 1.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            integrate_chain([], 0.0, 1, 0.25, 1.0)

    def test_one_blowing_up_chain_signalled(self):
        calm = Chain(Grid(8.0, 16), np.zeros(16), np.zeros(16), 0.0)
        wild = Chain(Grid(8.0, 8), np.full(8, 1e200), np.zeros(8), 0.0)
        seen = []
        with pytest.raises(NonFiniteError):
            integrate_chain([calm, wild, calm], 1.0, 3, 0.01, 1.0,
                            probe=observe_chains(seen.append, [calm, wild, calm], batch=True))
        assert len(seen) == 1  # raised at the first step, before any stepped chain


class TestMakeChain:
    @settings(max_examples=30, deadline=None)
    @given(half_length=st.floats(0.5, 50.0), sites=st.integers(4, 128).map(lambda k: 2 * k))
    @example(half_length=10.0, sites=40)
    @example(half_length=7.3, sites=96)
    @example(half_length=np.pi, sites=32)
    def test_samples_the_old_geometry_bit_for_bit(self, half_length, sites):
        # before a chain held a Grid it placed its sites at -L + (2L/M) j and
        # took v0's quotient at the spacing 2L/M
        u0 = lambda x: 0.5 * np.exp(-2.0 * x**2)  # noqa: E731
        v0 = lambda x: 0.3 * np.sin(2.0 * x)  # noqa: E731
        delta = 2.0 * half_length / sites
        x = -half_length + delta * np.arange(sites)
        chain = make_chain(u0, v0, Grid(half_length, sites))
        assert np.array_equal(chain.strain, u0(x))
        assert np.array_equal(chain.velocity, (v0(x + delta / 2.0) - v0(x - delta / 2.0)) / delta)
        assert chain.t == 0.0

    def test_stepped_chain_keeps_its_grid(self):
        chain = make_chain({"shape": "gaussian", "a": 0.5, "b": 2.0}, None, Grid(8.0, 32))
        out = integrate_chain(chain, 0.1, 1, 0.05, 0.5)
        assert out.grid is chain.grid and out.t == 0.5
        assert not np.array_equal(out.strain, chain.strain)


class TestSignSymmetry:
    @settings(max_examples=20, deadline=None)
    @given(
        amplitudes=st.lists(st.floats(-0.3, 0.3), min_size=12, max_size=12),
        sites=st.sampled_from([16, 64, 256]),
        n=st.sampled_from([2, 4]),
    )
    def test_negated_chain_gives_the_negated_run(self, amplitudes, sites, n):
        # g(u) = eps^n u^(n+1) is odd for even n, and so is every step
        u0, v0 = trig_data(amplitudes[:6]), trig_data(amplitudes[6:])
        chain = make_chain(u0, v0, Grid(np.pi, sites))
        flipped = Chain(chain.grid, -chain.strain, -chain.velocity, 0.0)
        out = integrate_chain(chain, 0.3, n, 0.01, 0.5)
        out_flipped = integrate_chain(flipped, 0.3, n, 0.01, 0.5)
        assert np.array_equal(out_flipped.strain, -out.strain)
        assert np.array_equal(out_flipped.velocity, -out.velocity)


class TestInPlaceChainStep:
    """integrate_chain against the allocating scaled-stage RK4 loop, bit for
    bit, and against the textbook RK4 loop to round-off."""

    @pytest.mark.parametrize("n,epsilon", [(1, 0.0), (1, 0.1), (2, 0.1), (3, 0.1)])
    def test_batched_chains_match_allocating_step(self, n, epsilon):
        u0 = {"shape": "gaussian", "a": 0.5, "b": 2.0}
        v0 = {"shape": "sine", "a": 0.3, "k": 2}
        chains = [make_chain(u0, v0, Grid(8.0, m)) for m in (128, 64, 32, 16)]
        dt = 0.01
        out = integrate_chain(chains, epsilon, n, dt, 50 * dt)
        u, ut = integrate_chains(chains, epsilon, n, dt, 50 * dt)
        assert np.array_equal(np.concatenate([c.strain for c in out]), u)
        assert np.array_equal(np.concatenate([c.velocity for c in out]), ut)

    @pytest.mark.parametrize("n,epsilon", [(1, 0.0), (1, 0.1), (2, 0.1), (3, 0.1)])
    def test_batched_chains_are_the_textbook_step_to_round_off(self, n, epsilon):
        # the scaled stages reorder the textbook step's arithmetic only: the
        # largest relative sup difference over these cases measured 4.0e-15
        u0 = {"shape": "gaussian", "a": 0.5, "b": 2.0}
        v0 = {"shape": "sine", "a": 0.3, "k": 2}
        chains = [make_chain(u0, v0, Grid(8.0, m)) for m in (128, 64, 32, 16)]
        dt = 0.01
        out = integrate_chain(chains, epsilon, n, dt, 50 * dt)
        u, ut = integrate_chains(chains, epsilon, n, dt, 50 * dt, textbook=True)
        for got, want in ((np.concatenate([c.strain for c in out]), u),
                          (np.concatenate([c.velocity for c in out]), ut)):
            assert np.max(np.abs(got - want)) <= 7.8e-15 * np.max(np.abs(want))

    def test_the_probe_sees_one_site_array_stepped_in_place(self):
        # a probe sees the one array the march steps, holding the state of
        # its step; the chains it keeps are copies, and the returned chains
        # view the stepped array
        u0 = {"shape": "gaussian", "a": 0.5, "b": 2.0}
        chains = [make_chain(u0, None, Grid(8.0, m)) for m in (32, 16)]
        seen, copies, kept = [], [], []
        observe = observe_chains(kept.append, chains, batch=True)

        def probe(y, t):
            seen.append(y)
            copies.append(y.copy())
            observe(y, t)

        out = integrate_chain(chains, 0.1, 1, 0.05, 0.5, probe=probe)
        assert len(seen) == 11 and all(y is seen[0] for y in seen)
        assert not any(np.array_equal(a, b) for a, b in zip(copies, copies[1:]))
        for states, y in zip(kept, copies):
            assert np.array_equal(np.concatenate([c.strain for c in states]), y[0])
            assert np.array_equal(np.concatenate([c.velocity for c in states]), y[1])
        for c in out:  # read-only views of the stepped array
            for sites in (c.strain, c.velocity):
                assert np.shares_memory(sites, seen[0]) and not sites.flags.writeable
        assert np.array_equal(np.concatenate([c.velocity for c in out]), copies[-1][1])


class TestRuleOfN:
    """integrate_chain rejects the n that the spectral core rejects, before a step."""

    def test_huge_n_raises_at_once(self):
        # the power takes n multiplications: this ran for more than 10 s before
        start = time.perf_counter()
        with pytest.raises(ConfigError) as info:
            integrate_chain(Chain(Grid(8.0, 8), [0.1] * 8, [0.0] * 8, 0.0), 1.0, 10**9, 0.1, 0.1)
        assert info.value.field == "n"
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", [161, 162])  # eps 1 on 8 points: 162 is the first rejected
    def test_chain_and_spectral_core_agree(self, n):
        def rejects(call):
            try:
                call()
            except ConfigError as exc:
                assert exc.field == "n"
                return True
            return False

        chain = Chain(Grid(8.0, 8), [0.1] * 8, [0.0] * 8, 0.0)
        grid = Grid(8.0, 8)
        cfg = ModelConfig(kernel=Kernel("dirac"), delta=None, dt=0.1, t_end=0.1, epsilon=1.0, n=n)
        initial = make_initial({"shape": "sine", "a": 0.1, "k": 1}, None, grid)
        spectral = rejects(lambda: integrate(cfg, initial))
        assert rejects(lambda: integrate_chain(chain, 1.0, n, 0.1, 0.1)) == spectral == (n == 162)

    def test_linear_chain_takes_no_power(self, monkeypatch):
        # eps^n = 0: one step took 2.6 s at n = 10**6 while the power was taken
        chain = Chain(Grid(8.0, 8), np.sin(np.arange(8.0)), np.cos(np.arange(8.0)), 0.0)
        linear = integrate_chain(chain, 0.0, 1, 0.1, 0.1)
        powers = []
        monkeypatch.setattr(lattice, "_integer_power", lambda *a, **kw: powers.append(a))
        out = integrate_chain(chain, 0.0, 10**6, 0.1, 0.1)
        assert np.array_equal(out.strain, linear.strain)
        assert np.array_equal(out.velocity, linear.velocity)
        assert powers == []
