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
    initial_velocity,
    integrate,
    integrate_chain,
    make_chain,
    make_initial,
)
from nlwaves import lattice
from nlwaves.dynamics import shared_dt
from nlwaves.lattice import _chain_rhs
from reference import _neighbours, integrate_chains, observe_chains, positions
from reference import _chain_rhs as gathered_chain_rhs


def chain_rhs(chain, epsilon, n):
    """The chain integrator's right-hand side at the chain's state."""
    rhs = _chain_rhs(chain.delta, epsilon, n, [chain.sites])(1.0)
    out = np.empty((2, chain.sites))
    rhs(np.stack([chain.strain, chain.velocity]), out)
    return out[0], out[1]


def second_difference(values, delta):
    """D2 of the site values of one periodic chain, by the chain's right-hand side at eps 0."""
    rhs = _chain_rhs(delta, 0.0, 1, [values.size])(1.0)
    out = np.empty((2, values.size))
    rhs(np.stack([values, np.zeros_like(values)]), out)
    return out[1]


class TestSecondDifference:
    def test_constant_maps_to_zero(self):
        vals = np.full(16, 2.5)
        assert np.max(np.abs(second_difference(vals, 0.3))) == 0.0

    def test_quadratic_exact_away_from_wraparound(self):
        x = 0.25 * np.arange(32)
        out = second_difference(x**2, 0.25)
        np.testing.assert_allclose(out[1:-1], 2.0, rtol=1e-11)

    def test_pure_mode_multiplier_identity(self):
        # trig identity: second difference of sin(xi x) multiplies it by
        # -(4/d^2) sin^2(xi d / 2), the negative square frequency times the
        # triangular-kernel symbol at xi*d
        L, M = 8.0, 64
        delta = 2 * L / M
        x = -L + delta * np.arange(M)
        xi = 3 * np.pi / L
        out = second_difference(np.sin(xi * x), delta)
        tri = Kernel("triangular")
        expected = -(xi**2) * tri.symbol(xi * delta) * np.sin(xi * x)
        np.testing.assert_allclose(out, expected, rtol=1e-11, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(8, 64), min_size=1, max_size=4),
        n=st.sampled_from([1, 2, 3]),
        epsilon=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, 0.005, 0.01 / 6.0, 3.7]),
    )
    # a one-site chain is its own neighbour
    @example(sizes=[1], n=1, epsilon=0.1, seed=0, scale=1.0)
    @example(sizes=[3, 1, 2, 1], n=2, epsilon=0.1, seed=1, scale=1.0)
    def test_slices_match_gathered_neighbours(self, sizes, n, epsilon, seed, scale):
        # the slice stencil with its redone chain ends gives the bits of the
        # gather over periodic neighbour indices, chain by chain, for every
        # factor the closure folds in
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((2, sum(sizes)))
        delta = np.repeat(rng.uniform(0.05, 1.0, len(sizes)), sizes)
        out = np.empty_like(y)
        _chain_rhs(delta, epsilon, n, sizes)(scale)(y, out)
        expected = gathered_chain_rhs(delta, epsilon, n, _neighbours(sizes))(scale)(y[0], y[1])
        assert np.array_equal(out[0], expected[0])
        assert np.array_equal(out[1], expected[1])


class TestLatticeRhs:
    def test_zero_chain(self):
        chain = Chain(8.0, np.zeros(16), np.zeros(16), 0.0)
        du, dut = chain_rhs(chain, 0.1, 1)
        assert np.all(du == 0.0) and np.all(dut == 0.0)

    def test_linear_single_mode_acceleration(self):
        L, M = np.pi, 32
        delta = 2 * L / M
        x = -L + delta * np.arange(M)
        chain = Chain(L, np.sin(x), np.zeros(M), 0.0)
        _, acc = chain_rhs(chain, 0.0, 1)
        tri = Kernel("triangular")
        np.testing.assert_allclose(acc, -tri.symbol(delta) * np.sin(x), rtol=1e-10, atol=1e-12)

    def test_constant_strain_has_no_force(self):
        chain = Chain(8.0, np.full(16, 0.7), np.zeros(16), 0.0)
        _, acc = chain_rhs(chain, 0.1, 1)
        assert np.max(np.abs(acc)) == 0.0

    def test_velocities_pass_through(self):
        rng = np.random.default_rng(3)
        vel = rng.standard_normal(16)
        chain = Chain(8.0, np.zeros(16), vel, 0.0)
        du, _ = chain_rhs(chain, 0.1, 1)
        np.testing.assert_array_equal(du, vel)


class TestInitialVelocity:
    def test_quadratic_is_exact(self):
        sites = np.linspace(-10, 9.5, 40)
        out = initial_velocity(lambda x: x**2, 0.5, sites, 10.0)
        assert np.max(np.abs(out - 2 * sites)) < 1e-12

    def test_constant_gives_zero(self):
        sites = np.linspace(-10, 9.5, 40)
        out = initial_velocity({"shape": "zero"}, 0.5, sites, 10.0)
        assert np.all(out == 0.0)

    def test_gaussian_second_order_convergence(self):
        """delta-sweep against the analytic derivative, discrete-L2 error."""
        L = 20.0
        a, b = 1.0, 2.0
        spec = {"shape": "gaussian", "a": a, "b": b}
        errors, deltas = [], []
        for m_exp in (7, 8, 9, 10):
            sites_count = 2**m_exp
            delta = 2 * L / sites_count
            sites = -L + delta * np.arange(sites_count)
            exact = -2 * b * sites * a * np.exp(-b * sites**2)
            approx = initial_velocity(spec, delta, sites, L)
            errors.append(np.sqrt(delta * np.sum((approx - exact) ** 2)))
            deltas.append(delta)
        slope = np.polyfit(np.log(deltas), np.log(errors), 1)[0]
        assert 1.9 < slope < 2.1

    def test_odd_data_gives_even_quotient(self):
        L, M = 10.0, 64
        delta = 2 * L / M
        sites = -L + delta * np.arange(M)
        out = initial_velocity({"shape": "sine", "a": 1.0, "k": 3}, delta, sites, L)
        reflected = np.concatenate([out[:1], out[1:][::-1]])
        np.testing.assert_allclose(out, reflected, atol=1e-14)

    def test_non_finite_quotient_rejected_without_warning(self):
        sites = np.linspace(-10, 9.5, 40)
        step = lambda x: np.where(x > 0, 1e308, -1e308)  # noqa: E731; 2e308 across x = 0
        with pytest.raises(InvalidSpecError, match="not finite"):
            initial_velocity(step, 0.5, sites, 10.0)
        with pytest.raises(InvalidSpecError, match="not finite"):
            make_chain({"shape": "gaussian", "a": 0.5, "b": -10}, None, 10.0, 32)

    def test_sample_arrays_rejected(self):
        with pytest.raises(InvalidSpecError):
            initial_velocity(np.zeros(8), 0.5, np.zeros(8), 10.0)
        with pytest.raises(InvalidSpecError):
            initial_velocity({"shape": "samples", "values": [1.0]}, 0.5, np.zeros(8), 10.0)


def trig_data(a):
    """A smooth 2 pi-periodic callable from three cosine and three sine modes."""
    return lambda x: sum(
        a[2 * k] * np.cos((k + 1) * x) + a[2 * k + 1] * np.sin((k + 1) * x)
        for k in range(3)
    )


class TestIntegrateChain:
    def test_zero_chain_stays_zero(self):
        chain = Chain(8.0, np.zeros(16), np.zeros(16), 0.0)
        out = integrate_chain(chain, 0.1, 1, 0.01, 1.0)
        assert out.t == 1.0
        assert np.all(out.strain == 0.0) and np.all(out.velocity == 0.0)

    def test_single_mode_dispersion_period(self):
        """Linear chain mode oscillates at the lattice dispersion frequency."""
        L, M = np.pi, 16
        delta = 2 * L / M
        x = -L + delta * np.arange(M)
        chain = Chain(L, np.sin(x), np.zeros(M), 0.0)
        tri = Kernel("triangular")
        omega = 1.0 * tri.sqrt_symbol(delta)  # mode xi = 1
        period = 2 * np.pi / omega
        out = integrate_chain(chain, 0.0, 1, period / 4000, period)
        assert np.max(np.abs(out.strain - chain.strain)) < 1e-4
        assert np.max(np.abs(out.velocity)) < 1e-4

    def test_matches_spectral_solver_at_equal_delta(self):
        """Cross-solver oracle: the chain is the triangular-kernel system."""
        grid_l, size = 16.0, 512
        u0 = {"shape": "gaussian", "a": 0.5, "b": 2.0}
        v0 = {"shape": "gaussian", "a": 0.3, "b": 1.0}

        grid = Grid(grid_l, size)
        dt = 0.125 * grid.spacing
        cfg = ModelConfig(
            kernel=Kernel("triangular"),
            delta=grid.spacing, dt=dt, t_end=1.0, epsilon=0.1, n=1,
        )
        spectral_final = integrate(cfg, make_initial(u0, v0, grid))
        chain_final = integrate_chain(make_chain(u0, v0, grid_l, size), 0.1, 1, dt, 1.0)
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
        chain_final = integrate_chain(make_chain(u0, v0, np.pi, 32), 0.0, 1, dt, t_end)
        assert np.max(np.abs(spectral_final.u - chain_final.strain)) <= 1e-13

    def test_momentum_conserved(self):
        rng = np.random.default_rng(5)
        M = 64
        chain = Chain(8.0, rng.standard_normal(M) * 0.1, rng.standard_normal(M) * 0.1, 0.0)
        p0 = np.sum(chain.velocity)
        out = integrate_chain(chain, 0.2, 1, 0.01, 1.0)
        assert abs(np.sum(out.velocity) - p0) < 1e-12 * M

    def test_observers_see_every_step(self):
        chain = Chain(8.0, np.zeros(16), np.zeros(16), 0.0)
        times = []
        integrate_chain(chain, 0.0, 1, 0.25, 1.0, observers=(times.append,))
        assert times == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_t_end_before_the_chain_time_rejected(self):
        seen = []
        with pytest.raises(ValueError, match="precedes"):
            integrate_chain(Chain(8.0, [0.1] * 8, [0.0] * 8, 1.0), 0.1, 1, 0.1, 0.5,
                            probe=lambda _y, t: seen.append(t))
        assert seen == []

    def test_non_finite_chain_signalled(self):
        chain = Chain(8.0, np.full(16, 1e200), np.zeros(16), 0.0)
        with pytest.raises(NonFiniteError):
            integrate_chain(chain, 1.0, 3, 0.01, 1.0)

    def test_overflow_in_the_step_raises_without_a_warning(self):
        # the RK4 stage arithmetic, not only the right-hand side, overflows
        chain = make_chain({"shape": "gaussian", "a": 1e154, "b": 2.0},
                           {"shape": "sine", "a": 1e154, "k": 1}, 20.0, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                integrate_chain(chain, 1.0, 1, 0.1, 1.0)

    def test_first_stage_overflow_raises_at_its_time(self):
        # the strain's power overflows in the first stage of the first step
        chain = make_chain({"shape": "gaussian", "a": 1e154, "b": 2.0},
                           {"shape": "sine", "a": 1e154, "k": 1}, 20.0, 64)
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
            chain = make_chain(initial.u[::k], None, grid.half_length, grid.size // k)
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
        chain = make_chain(u0, v0, np.pi, 16)
        chain = Chain(chain.half_length, chain.strain, chain.velocity, start)
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
        chains = [make_chain(u0, v0, np.pi, m) for m in sites]
        dt, t_end = 0.02, 0.5
        batched = integrate_chain(chains, epsilon, n, dt, t_end)
        assert len(batched) == len(chains)
        for chain, out in zip(chains, batched):
            single = integrate_chain(chain, epsilon, n, dt, t_end)
            assert out.sites == chain.sites and out.t == single.t
            assert np.array_equal(out.strain, single.strain)
            assert np.array_equal(out.velocity, single.velocity)

    def test_observers_get_tuples_in_input_order(self):
        chains = [Chain(8.0, np.full(m, float(m)), np.zeros(m), 0.0) for m in (32, 8, 16)]
        seen = []
        out = integrate_chain(chains, 0.0, 1, 0.25, 0.5,
                              probe=observe_chains(seen.append, chains, batch=True))
        assert len(seen) == 3  # initial chains and two steps
        for states in seen:
            assert isinstance(states, tuple)
            assert [c.sites for c in states] == [32, 8, 16]
            assert [c.strain[0] for c in states] == [32.0, 8.0, 16.0]
        assert all(a is b for a, b in zip(seen[0], chains))
        assert out == seen[-1] and all(c.t == 0.5 for c in out)

    def test_single_chain_still_returns_a_chain(self):
        chain = Chain(8.0, np.zeros(16), np.zeros(16), 0.0)
        seen = []
        out = integrate_chain(chain, 0.0, 1, 0.25, 0.5, probe=observe_chains(seen.append, chain))
        assert isinstance(out, Chain)
        assert all(isinstance(c, Chain) for c in seen)
        one = integrate_chain([chain], 0.0, 1, 0.25, 0.5)
        assert isinstance(one, tuple) and len(one) == 1

    def test_mixed_times_rejected(self):
        a = Chain(8.0, np.zeros(16), np.zeros(16), 0.0)
        b = Chain(8.0, np.zeros(8), np.zeros(8), 0.5)
        with pytest.raises(ValueError):
            integrate_chain([a, b], 0.0, 1, 0.25, 1.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            integrate_chain([], 0.0, 1, 0.25, 1.0)

    def test_one_blowing_up_chain_signalled(self):
        calm = Chain(8.0, np.zeros(16), np.zeros(16), 0.0)
        wild = Chain(8.0, np.full(8, 1e200), np.zeros(8), 0.0)
        seen = []
        with pytest.raises(NonFiniteError):
            integrate_chain([calm, wild, calm], 1.0, 3, 0.01, 1.0,
                            probe=observe_chains(seen.append, [calm, wild, calm], batch=True))
        assert len(seen) == 1  # raised at the first step, before any stepped chain


def test_chain_geometry():
    chain = Chain(10.0, np.zeros(40), np.zeros(40), 0.0)
    assert chain.sites * chain.delta == pytest.approx(20.0, abs=0)
    assert positions(chain)[0] == -10.0
    with pytest.raises(ValueError):
        Chain(10.0, np.zeros(8), np.zeros(4), 0.0)


def test_empty_chain_rejected():
    with pytest.raises(ValueError, match="at least one site"):
        Chain(20.0, [], [], 0.0)


@pytest.mark.parametrize("sites", [0, -4])
def test_make_chain_rejects_fewer_than_one_site(sites):
    with pytest.raises(ValueError, match="at least one site"):
        make_chain(None, None, 20.0, sites)


class TestChainEquality:
    def test_chains_compare_by_value(self):
        a = Chain(8.0, np.arange(4.0), np.zeros(4), 0.5)
        assert a == Chain(8.0, np.arange(4.0), np.zeros(4), 0.5)
        assert a != Chain(8.0, np.arange(4.0), np.ones(4), 0.5)
        assert a != Chain(8.0, -np.arange(4.0), np.zeros(4), 0.5)
        assert a != Chain(8.0, np.arange(4.0), np.zeros(4), 0.25)
        assert a != Chain(4.0, np.arange(4.0), np.zeros(4), 0.5)
        assert a != Chain(8.0, np.arange(8.0), np.zeros(8), 0.5)
        assert a != "chain"

    def test_stepped_chain_equals_its_rebuilt_copy(self):
        chain = make_chain({"shape": "gaussian", "a": 0.5, "b": 2.0}, None, 8.0, 32)
        out = integrate_chain(chain, 0.1, 1, 0.05, 0.5)
        assert out == Chain(8.0, out.strain.copy(), out.velocity.copy(), out.t)
        assert out != chain


class TestSignSymmetry:
    @settings(max_examples=20, deadline=None)
    @given(
        amplitudes=st.lists(st.floats(-0.3, 0.3), min_size=12, max_size=12),
        sites=st.sampled_from([16, 64, 256]),
        n=st.sampled_from([2, 4]),
    )
    def test_negated_chain_gives_the_negated_run(self, amplitudes, sites, n):
        # g(u) = eps^n u^(n+1) is odd for even n, and so is every step
        chain = make_chain(trig_data(amplitudes[:6]), trig_data(amplitudes[6:]), np.pi, sites)
        flipped = Chain(chain.half_length, -chain.strain, -chain.velocity, 0.0)
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
        chains = [make_chain(u0, v0, 8.0, m) for m in (128, 64, 32, 16)]
        dt = 0.01
        out = integrate_chain(chains, epsilon, n, dt, 50 * dt)
        u, ut = integrate_chains(chains, epsilon, n, dt, 50 * dt)
        assert np.array_equal(np.concatenate([c.strain for c in out]), u)
        assert np.array_equal(np.concatenate([c.velocity for c in out]), ut)

    @pytest.mark.parametrize("n,epsilon", [(1, 0.0), (1, 0.1), (2, 0.1), (3, 0.1)])
    def test_batched_chains_are_the_textbook_step_to_round_off(self, n, epsilon):
        # the scaled stages reorder the textbook step's arithmetic only: the
        # largest relative sup difference over these cases measured 3.9e-15
        u0 = {"shape": "gaussian", "a": 0.5, "b": 2.0}
        v0 = {"shape": "sine", "a": 0.3, "k": 2}
        chains = [make_chain(u0, v0, 8.0, m) for m in (128, 64, 32, 16)]
        dt = 0.01
        out = integrate_chain(chains, epsilon, n, dt, 50 * dt)
        u, ut = integrate_chains(chains, epsilon, n, dt, 50 * dt, textbook=True)
        for got, want in ((np.concatenate([c.strain for c in out]), u),
                          (np.concatenate([c.velocity for c in out]), ut)):
            assert np.max(np.abs(got - want)) <= 7.8e-15 * np.max(np.abs(want))

    def test_chains_kept_past_their_step_keep_their_values(self):
        u0 = {"shape": "gaussian", "a": 0.5, "b": 2.0}
        chains = [make_chain(u0, None, 8.0, m) for m in (32, 16)]
        kept, copies = [], []

        def observer(states):
            kept.append(states)
            copies.append([(c.strain.copy(), c.velocity.copy()) for c in states])

        integrate_chain(chains, 0.1, 1, 0.05, 0.5,
                        probe=observe_chains(observer, chains, batch=True))
        assert len(kept) == 11
        for states, arrays in zip(kept, copies):
            for c, (strain, velocity) in zip(states, arrays):
                assert np.array_equal(c.strain, strain) and np.array_equal(c.velocity, velocity)


class TestRuleOfN:
    """integrate_chain rejects the n that the spectral core rejects, before a step."""

    def test_huge_n_raises_at_once(self):
        # the power takes n multiplications: this ran for more than 10 s before
        start = time.perf_counter()
        with pytest.raises(ConfigError) as info:
            integrate_chain(Chain(8.0, [0.1] * 8, [0.0] * 8, 0.0), 1.0, 10**9, 0.1, 0.1)
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

        chain = Chain(8.0, [0.1] * 8, [0.0] * 8, 0.0)
        grid = Grid(8.0, 8)
        cfg = ModelConfig(kernel=Kernel("dirac"), delta=None, dt=0.1, t_end=0.1, epsilon=1.0, n=n)
        initial = make_initial({"shape": "sine", "a": 0.1, "k": 1}, None, grid)
        spectral = rejects(lambda: integrate(cfg, initial))
        assert rejects(lambda: integrate_chain(chain, 1.0, n, 0.1, 0.1)) == spectral == (n == 162)

    def test_linear_chain_takes_no_power(self, monkeypatch):
        # eps^n = 0: one step took 2.6 s at n = 10**6 while the power was taken
        chain = Chain(8.0, np.sin(np.arange(8.0)), np.cos(np.arange(8.0)), 0.0)
        linear = integrate_chain(chain, 0.0, 1, 0.1, 0.1)
        powers = []
        monkeypatch.setattr(lattice, "_integer_power", lambda *a, **kw: powers.append(a))
        assert integrate_chain(chain, 0.0, 10**6, 0.1, 0.1) == linear
        assert powers == []
