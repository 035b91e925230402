"""System right-hand sides, RK4 stepping, energy, monitor, and integration."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nlwaves import (
    BreakdownError,
    Field,
    Grid,
    HyperbolicityError,
    InvalidSpecError,
    Kernel,
    ModelConfig,
    NonFiniteError,
    State,
    breakdown_monitor,
    cfl_dt,
    derivative,
    energy,
    integrate,
    make_initial,
)
from nlwaves.dynamics import _monitor, _monitor_bound, _multiplier
from reference import apply_multiplier, dealiased_power, integrate_rows, monitor, rhs_fields

TRI = Kernel.from_name("triangular")
DIRAC = Kernel.from_name("dirac")


def config(**kw):
    base = dict(kernel=TRI, delta=1.0, dt=0.01, t_end=1.0, epsilon=0.0, n=1)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture
def unit_grid():
    return Grid(np.pi, 64)


class TestNonlocalRhs:
    def test_zero_state(self, unit_grid):
        st = State(Field.zeros(unit_grid), Field.zeros(unit_grid), 0.0)
        du, dv = rhs_fields(st, config())
        assert np.all(du.samples == 0.0) and np.all(dv.samples == 0.0)

    def test_linear_single_mode_u_equation(self, unit_grid):
        # v = sin(x) drives u_t = Kd v_x = k(1) cos(x) for delta = 1
        st = State(Field.zeros(unit_grid), Field(unit_grid, np.sin(unit_grid.nodes)), 0.0)
        du, dv = rhs_fields(st, config(epsilon=0.3))
        expected = 2 * np.sin(0.5) * np.cos(unit_grid.nodes)
        np.testing.assert_allclose(du.samples, expected, atol=1e-13)
        assert np.max(np.abs(dv.samples)) == 0.0

    def test_linear_single_mode_v_equation(self, unit_grid):
        st = State(Field(unit_grid, np.sin(unit_grid.nodes)), Field.zeros(unit_grid), 0.0)
        du, dv = rhs_fields(st, config(epsilon=0.0))
        expected = 2 * np.sin(0.5) * np.cos(unit_grid.nodes)
        assert np.max(np.abs(du.samples)) == 0.0
        np.testing.assert_allclose(dv.samples, expected, atol=1e-13)


class TestClassicalRhs:
    def test_zero_state(self, unit_grid):
        st = State(Field.zeros(unit_grid), Field.zeros(unit_grid), 0.0)
        du, dv = rhs_fields(st, config(delta=None))
        assert np.all(du.samples == 0.0) and np.all(dv.samples == 0.0)

    def test_linear_single_mode(self, unit_grid):
        st = State(Field(unit_grid, np.sin(unit_grid.nodes)), Field.zeros(unit_grid), 0.0)
        du, dv = rhs_fields(st, config(delta=None, epsilon=0.0))
        np.testing.assert_allclose(dv.samples, np.cos(unit_grid.nodes), atol=1e-13)
        assert np.max(np.abs(du.samples)) == 0.0

    def test_quadratic_nonlinearity_calculus_identity(self, unit_grid):
        # (u + 0.1 u^2)_x = cos x + 0.1 sin 2x for u = sin x
        x = unit_grid.nodes
        st = State(Field(unit_grid, np.sin(x)), Field.zeros(unit_grid), 0.0)
        _, dv = rhs_fields(st, config(delta=None, epsilon=0.1, n=1))
        expected = np.cos(x) + 0.1 * np.sin(2 * x)
        assert np.max(np.abs(dv.samples - expected)) < 1e-11

    def test_dirac_nonlocal_equals_classical_on_random_states(self):
        rng = np.random.default_rng(7)
        g = Grid(10.0, 128)
        cfg_nl = config(kernel=DIRAC, delta=0.37, epsilon=0.2, n=2)
        cfg_cl = config(kernel=DIRAC, delta=None, epsilon=0.2, n=2)
        for _ in range(20):
            st = State(
                Field(g, rng.standard_normal(g.size)),
                Field(g, rng.standard_normal(g.size)),
                0.0,
            )
            du_a, dv_a = rhs_fields(st, cfg_nl)
            du_b, dv_b = rhs_fields(st, cfg_cl)
            assert np.max(np.abs(du_a.samples - du_b.samples)) < 1e-13
            assert np.max(np.abs(dv_a.samples - dv_b.samples)) < 1e-13


class TestRk4Step:
    def test_linear_wave_returns_after_one_period(self, unit_grid):
        # single-mode classical linear system has period 2*pi
        x = unit_grid.nodes
        st = State(Field(unit_grid, np.cos(x)), Field(unit_grid, np.sin(x)), 0.0)
        cfg = config(kernel=DIRAC, delta=None, epsilon=0.0, dt=2 * np.pi / 200, t_end=2 * np.pi)
        out = integrate(cfg, st)
        assert np.max(np.abs(out.u.samples - st.u.samples)) < 1e-6
        assert np.max(np.abs(out.v.samples - st.v.samples)) < 1e-6

    def test_halving_dt_cuts_error_sixteenfold(self):
        g = Grid(20.0, 256)
        init = make_initial(
            {"shape": "gaussian", "a": 0.5, "b": 2.0},
            {"shape": "gaussian", "a": 0.5, "b": 2.0},
            g,
        )

        def final(dt):
            return integrate(config(delta=0.5, epsilon=0.2, dt=dt, t_end=1.0), init)

        ref = final(0.0025)
        e1 = np.max(np.abs(final(0.04).u.samples - ref.u.samples))
        e2 = np.max(np.abs(final(0.02).u.samples - ref.u.samples))
        assert 12.0 < e1 / e2 < 20.0


class TestIntegrate:
    def test_zero_span_returns_initial(self, unit_grid):
        st = State(Field(unit_grid, np.sin(unit_grid.nodes)), Field.zeros(unit_grid), 0.7)
        out = integrate(config(t_end=0.7), st)
        assert out is st

    def test_t_end_before_start_rejected(self, unit_grid):
        st = State(Field.zeros(unit_grid), Field.zeros(unit_grid), 1.0)
        with pytest.raises(ValueError):
            integrate(config(t_end=0.5), st)

    def test_last_step_lands_exactly(self, unit_grid):
        st = State(Field.zeros(unit_grid), Field.zeros(unit_grid), 0.0)
        out = integrate(config(dt=0.3, t_end=1.0), st)
        assert out.t == 1.0

    def test_observers_see_every_step(self, unit_grid):
        st = State(Field.zeros(unit_grid), Field.zeros(unit_grid), 0.0)
        times = []
        integrate(config(dt=0.25, t_end=1.0), st, observers=(lambda s: times.append(s.t),))
        assert len(times) == 5  # initial + 4 steps
        assert times[0] == 0.0 and times[-1] == 1.0

    def test_short_linear_conservation(self):
        g = Grid(20.0, 256)
        init = make_initial({"shape": "gaussian", "a": 1.0, "b": 4.0}, None, g)
        cfg = config(delta=1.0, epsilon=0.0, dt=5e-3, t_end=2.0)
        e_start = energy(init, cfg, s=0)
        out = integrate(cfg, init)
        assert abs(energy(out, cfg, s=0) / e_start - 1.0) < 1e-9

    def test_steepening_run_triggers_breakdown(self):
        g = Grid(10.0, 512)
        init = make_initial({"shape": "gaussian", "a": 0.8, "b": 4.0}, None, g)
        cfg = config(
            kernel=DIRAC, delta=None, epsilon=2.0, n=1,
            dt=cfl_dt(g, DIRAC, None), t_end=3.0, breakdown_threshold=4.0,
        )
        with pytest.raises(BreakdownError) as info:
            integrate(cfg, init)
        assert 0.0 < info.value.time < 3.0
        assert info.value.monitor > 4.0

    def test_non_finite_state_signalled(self, unit_grid):
        huge = Field(unit_grid, np.full(unit_grid.size, 1e200))
        st = State(huge, huge, 0.0)
        cfg = config(delta=None, kernel=DIRAC, epsilon=1.0, n=3,
                     breakdown_threshold=1e400)  # inf threshold: monitor check first
        with pytest.raises(NonFiniteError):
            integrate(cfg, st)


class TestEnergy:
    def test_zero_state(self, unit_grid):
        st = State(Field.zeros(unit_grid), Field.zeros(unit_grid), 0.0)
        assert energy(st, config()) == 0.0

    def test_linear_closed_forms(self, unit_grid):
        x = unit_grid.nodes
        st_u = State(Field(unit_grid, np.sin(x)), Field.zeros(unit_grid), 0.0)
        assert energy(st_u, config(epsilon=0.0), s=0) == pytest.approx(
            np.sqrt(np.pi / 2), rel=1e-12
        )
        st_v = State(Field.zeros(unit_grid), Field(unit_grid, np.sin(x)), 0.0)
        assert energy(st_v, config(epsilon=0.0), s=1) == pytest.approx(
            np.sqrt(np.pi), rel=1e-12
        )

    def test_hyperbolicity_violation_raises(self, unit_grid):
        st = State(Field(unit_grid, -np.ones(unit_grid.size)), Field.zeros(unit_grid), 0.0)
        with pytest.raises(HyperbolicityError):
            energy(st, config(epsilon=0.6, n=1))


    # Relative drift |E(T)/E(0) - 1| of the order-3 energy after 25 steps of
    # 0.02 with eps = 0, measured on 200 draws of such data per kernel:
    #
    #     kernel        max       median
    #     triangular    7.9e-9    5.8e-10
    #     exponential   7.0e-9    9.5e-12
    #     dirac         8.1e-9    7.2e-9
    #
    # The drift is RK4's damping, below 25 (3 * 0.02)^6 / 144 = 8.1e-9 for
    # data in modes 1-3 (wave speeds are <= 1); the exact flow conserves E.
    @settings(max_examples=25, deadline=None)
    @given(
        amplitudes=st.lists(st.floats(-0.3, 0.3), min_size=6, max_size=6),
        kernel=st.sampled_from([TRI, DIRAC, Kernel.from_name("exponential")]),
        delta=st.floats(0.05, 2.0),
    )
    def test_linear_energy_drift_is_bounded(self, amplitudes, kernel, delta):
        assume(max(map(abs, amplitudes)) > 1e-3)  # E(0) far from underflow
        g = Grid(np.pi, 32)
        x = g.nodes
        u0 = sum(a * np.cos((k + 1) * x) for k, a in enumerate(amplitudes[:3]))
        v0 = sum(a * np.sin((k + 1) * x) for k, a in enumerate(amplitudes[3:]))
        init = State(Field(g, u0), Field(g, v0), 0.0)
        cfg = config(kernel=kernel, delta=delta, epsilon=0.0, dt=0.02, t_end=0.5)
        assert abs(energy(integrate(cfg, init), cfg) / energy(init, cfg) - 1.0) < 1e-8


class TestBreakdownMonitor:
    def test_zero_state(self, unit_grid):
        st = State(Field.zeros(unit_grid), Field.zeros(unit_grid), 0.0)
        assert breakdown_monitor(st, config()) == 0.0

    def test_classical_static_mode(self, unit_grid):
        st = State(Field(unit_grid, np.sin(unit_grid.nodes)), Field.zeros(unit_grid), 0.0)
        cfg = config(kernel=DIRAC, delta=None, epsilon=0.0)
        assert breakdown_monitor(st, cfg) == pytest.approx(2.0, rel=1e-12)

    def test_nonlocal_velocity_term(self, unit_grid):
        st = State(Field.zeros(unit_grid), Field(unit_grid, np.sin(unit_grid.nodes)), 0.0)
        cfg = config(epsilon=0.0, delta=1.0)
        assert breakdown_monitor(st, cfg) == pytest.approx(2 * np.sin(0.5), rel=1e-12)


class TestMakeInitial:
    def test_gaussian_peak_on_node(self):
        g = Grid(10.0, 128)
        st = make_initial({"shape": "gaussian", "a": 1.0, "b": 4.0}, None, g)
        assert st.t == 0.0
        assert np.max(st.u.samples) == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(st.v.samples)) == 0.0

    def test_zero_specs(self, unit_grid):
        st = make_initial(None, {"shape": "zero"}, unit_grid)
        assert np.all(st.u.samples == 0.0) and np.all(st.v.samples == 0.0)

    def test_shapes_sampled_exactly_at_nodes(self):
        g = Grid(10.0, 128)
        st = make_initial(
            {"shape": "sine", "a": 0.5, "k": 1},
            {"shape": "gaussian", "a": 0.2, "b": 2.0},
            g,
        )
        np.testing.assert_array_equal(st.u.samples, 0.5 * np.sin((np.pi / 10.0) * g.nodes))
        np.testing.assert_array_equal(st.v.samples, 0.2 * np.exp(-2.0 * g.nodes**2))

    def test_sech2_shape(self):
        g = Grid(10.0, 128)
        st = make_initial({"shape": "sech2", "a": 0.7, "b": 1.5}, None, g)
        np.testing.assert_array_equal(
            st.u.samples, 0.7 / np.cosh(1.5 * g.nodes) ** 2
        )

    def test_sample_arrays_accepted(self, unit_grid):
        values = np.linspace(0, 1, unit_grid.size)
        st = make_initial(values, {"shape": "samples", "values": values}, unit_grid)
        np.testing.assert_array_equal(st.u.samples, values)
        np.testing.assert_array_equal(st.v.samples, values)

    def test_bad_specs_rejected(self, unit_grid):
        with pytest.raises(InvalidSpecError):
            make_initial({"shape": "wedge"}, None, unit_grid)
        with pytest.raises(InvalidSpecError):
            make_initial(np.zeros(3), None, unit_grid)


class TestModelConfig:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            config(delta=-0.5)
        with pytest.raises(ValueError):
            config(epsilon=-0.1)
        with pytest.raises(ValueError):
            config(n=0)
        with pytest.raises(ValueError):
            config(dt=0.0)
        with pytest.raises(ValueError):
            config(s=2.0)  # diagnostics demand s > 5/2

    def test_cfl_dt_uses_max_wave_speed(self):
        g = Grid(20.0, 256)
        # classical speed is 1; nonlocal speeds are <= 1 for the built-ins
        assert cfl_dt(g, DIRAC, None) == pytest.approx(0.25 * g.spacing)
        assert cfl_dt(g, TRI, 0.5) >= 0.25 * g.spacing


class TestParityPreservation:
    @staticmethod
    def reflect(values):
        return np.concatenate([values[:1], values[1:][::-1]])

    def test_even_u_odd_v_parity_is_preserved(self):
        g = Grid(10.0, 128)
        init = make_initial(
            {"shape": "gaussian", "a": 0.5, "b": 2.0},  # even
            {"shape": "sine", "a": 0.3, "k": 2},        # odd
            g,
        )
        cfg = config(delta=0.8, epsilon=0.1, n=1, dt=0.02, t_end=0.4)

        def check(state):
            u, v = state.u.samples, state.v.samples
            assert np.max(np.abs(u - self.reflect(u))) < 1e-13
            assert np.max(np.abs(v + self.reflect(v))) < 1e-13

        integrate(cfg, init, observers=(check,))

    @settings(max_examples=25, deadline=None)
    @given(
        noise=st.lists(st.floats(-0.3, 0.3), min_size=64, max_size=64),
        kernel=st.sampled_from([TRI, Kernel.from_name("exponential")]),
        eps=st.floats(0.0, 0.3),
        n=st.integers(1, 3),
        delta=st.floats(0.05, 2.0),
    )
    def test_parity_is_preserved_for_random_data(self, noise, kernel, eps, n, delta):
        g = Grid(np.pi, 32)
        a, b = np.array(noise[:32]), np.array(noise[32:])
        init = State(Field(g, a + self.reflect(a)), Field(g, b - self.reflect(b)), 0.0)
        cfg = config(kernel=kernel, delta=delta, epsilon=eps, n=n, dt=0.01, t_end=0.1)
        final = integrate(cfg, init)
        u, v = final.u.samples, final.v.samples
        assert np.max(np.abs(u - self.reflect(u))) < 1e-13  # measured: <= 8e-16
        assert np.max(np.abs(v + self.reflect(v))) < 1e-13


class TestSignSymmetry:
    """g(u) = eps^n u^(n+1) is odd for even n, so negating (u0, v0) negates
    the run exactly: every operation of a step is then odd in the state, and
    rounding to nearest is symmetric."""

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(0.05, 0.6),
        b=st.floats(-0.3, 0.3),
        kernel=st.sampled_from(["exponential", "triangular", "dirac"]),
        delta=st.floats(0.1, 1.0),
        n=st.sampled_from([2, 4]),
    )
    @example(a=0.5, b=0.3, kernel="exponential", delta=0.5, n=2)
    @example(a=0.5, b=0.3, kernel="exponential", delta=0.5, n=4)
    def test_negated_data_give_the_negated_run(self, a, b, kernel, delta, n):
        g = Grid(10.0, 128)
        init = make_initial(
            {"shape": "gaussian", "a": a, "b": 2.0}, {"shape": "sine", "a": b, "k": 3}, g
        )
        flipped = State(-init.u, -init.v, 0.0)
        cfg = config(kernel=Kernel.from_name(kernel), delta=delta, epsilon=0.3, n=n,
                     dt=0.02, t_end=0.5)
        out, out_flipped = integrate(cfg, init), integrate(cfg, flipped)
        assert np.array_equal(out_flipped.u.samples, -out.u.samples)
        assert np.array_equal(out_flipped.v.samples, -out.v.samples)


class TestSpectralCoreParity:
    """The spectral-state stepper against an independent Field-level RK4."""

    GRID = Grid(10.0, 64)
    TABLE = Kernel.from_table(
        np.linspace(0.0, 40.0, 81), 1.0 / (1.0 + np.linspace(0.0, 40.0, 81) ** 2)
    )
    SYSTEMS = {
        "dirac": (DIRAC, 0.7),
        "exponential": (Kernel.from_name("exponential"), 0.7),
        "triangular": (TRI, 0.7),
        "table": (TABLE, 0.7),
        "classical": (TRI, None),
    }

    @staticmethod
    def field_rk4(cfg, state, steps):
        """Classical RK4 on Fields, built from the public spectral operators."""
        kvals = None
        if cfg.delta is not None:
            kvals = cfg.kernel.scaled_sqrt_symbol(cfg.delta, state.grid.freqs)

        def rhs(u, v):
            stress = u
            if cfg.nonlinear_coefficient != 0.0:
                stress = u + cfg.nonlinear_coefficient * dealiased_power(u, cfg.n + 1)
            du, dv = derivative(v), derivative(stress)
            if kvals is not None:
                du, dv = apply_multiplier(du, kvals), apply_multiplier(dv, kvals)
            return du, dv

        u, v, h = state.u, state.v, cfg.dt
        for _ in range(steps):
            k1u, k1v = rhs(u, v)
            k2u, k2v = rhs(u + (0.5 * h) * k1u, v + (0.5 * h) * k1v)
            k3u, k3v = rhs(u + (0.5 * h) * k2u, v + (0.5 * h) * k2v)
            k4u, k4v = rhs(u + h * k3u, v + h * k3v)
            u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        return u, v

    @pytest.mark.parametrize("n,eps", [(1, 0.0), (1, 0.1), (2, 0.1), (3, 0.1)])
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_integrate_matches_field_rk4(self, system, n, eps):
        kernel, delta = self.SYSTEMS[system]
        steps = 200
        dt = 0.5 * cfl_dt(self.GRID, kernel, delta)
        cfg = config(kernel=kernel, delta=delta, epsilon=eps, n=n, dt=dt, t_end=steps * dt)
        init = make_initial(
            {"shape": "gaussian", "a": 0.5, "b": 2.0},
            {"shape": "sine", "a": 0.3, "k": 2},
            self.GRID,
        )
        out = integrate(cfg, init)
        u, v = self.field_rk4(cfg, init, steps)
        assert np.max(np.abs(out.u.samples - u.samples)) <= 1e-13
        assert np.max(np.abs(out.v.samples - v.samples)) <= 1e-13

    def test_batched_rows_equal_single_runs(self):
        g = Grid(20.0, 256)
        init = make_initial({"shape": "gaussian", "a": 0.5, "b": 2.0}, None, g)
        dt = cfl_dt(g, TRI, None)
        configs = [
            config(delta=d, epsilon=0.1, n=1, dt=dt, t_end=60 * dt)
            for d in (None, 0.4, 0.2, 0.1)
        ]
        rows = integrate(configs, init)
        assert isinstance(rows, tuple) and len(rows) == len(configs)
        for cfg, row in zip(configs, rows):
            single = integrate(cfg, init)
            assert row.t == single.t
            assert np.max(np.abs(row.u.samples - single.u.samples)) <= 1e-14
            assert np.max(np.abs(row.v.samples - single.v.samples)) <= 1e-14

    def test_batch_configs_may_differ_only_in_delta(self, unit_grid):
        st = State(Field.zeros(unit_grid), Field.zeros(unit_grid), 0.0)
        with pytest.raises(ValueError):
            integrate([config(delta=None), config(delta=0.5, epsilon=0.1)], st)

    def test_batch_raises_earliest_breakdown(self):
        g = Grid(10.0, 256)
        init = make_initial({"shape": "gaussian", "a": 0.8, "b": 4.0}, None, g)
        configs = [
            config(kernel=TRI, delta=d, epsilon=2.0, n=1, dt=cfl_dt(g, DIRAC, None),
                   t_end=3.0, breakdown_threshold=4.0)
            for d in (0.2, 0.1, None)
        ]
        singles = []
        for cfg in configs:
            with pytest.raises(BreakdownError) as single:
                integrate(cfg, init)
            singles.append(single.value)
        earliest = min(singles, key=lambda e: e.time)
        assert earliest is singles[-1]  # the classical row, listed last
        with pytest.raises(BreakdownError) as batched:
            integrate(configs, init)
        assert batched.value.time == earliest.time
        assert batched.value.monitor == pytest.approx(earliest.monitor, rel=1e-12)

    def test_non_finite_final_state_signalled(self, unit_grid):
        # one step: the monitor check before it still sees finite data, and
        # eps u^2 overflows in the step
        u = Field(unit_grid, 1e155 * np.sin(unit_grid.nodes))
        st = State(u, Field.zeros(unit_grid), 0.0)
        cfg = config(epsilon=1.0, n=1, dt=0.1, t_end=0.1, breakdown_threshold=1e300)
        with pytest.raises(NonFiniteError, match="t=0.1"):
            integrate(cfg, st)

    @settings(max_examples=20, deadline=None)
    @given(
        amplitudes=st.lists(st.floats(-0.3, 0.3), min_size=6, max_size=6),
        eps=st.floats(0.0, 0.3),
        n=st.integers(1, 3),
        delta=st.floats(0.05, 2.0),
    )
    def test_dirac_row_equals_classical_row(self, amplitudes, eps, n, delta):
        g = Grid(np.pi, 32)
        x = g.nodes
        u0 = sum(a * np.cos((k + 1) * x) for k, a in enumerate(amplitudes[:3]))
        v0 = sum(a * np.sin((k + 1) * x) for k, a in enumerate(amplitudes[3:]))
        init = State(Field(g, u0), Field(g, v0), 0.0)
        dt = 0.01
        rows = integrate(
            [
                config(kernel=DIRAC, delta=None, epsilon=eps, n=n, dt=dt, t_end=20 * dt),
                config(kernel=DIRAC, delta=delta, epsilon=eps, n=n, dt=dt, t_end=20 * dt),
            ],
            init,
        )
        classical, dirac = rows
        assert np.max(np.abs(dirac.u.samples - classical.u.samples)) <= 1e-14
        assert np.max(np.abs(dirac.v.samples - classical.v.samples)) <= 1e-14


class TestInPlaceStep:
    """integrate against the allocating RK4 loop it replaced, bit for bit."""

    GRID = Grid(20.0, 256)

    def initial(self):
        u0 = {"shape": "gaussian", "a": 0.5, "b": 2.0}
        return make_initial(u0, {"shape": "sine", "a": 0.3, "k": 2}, self.GRID)

    @pytest.mark.parametrize("n,eps", [(1, 0.0), (1, 0.1), (2, 0.1), (3, 0.1)])
    @pytest.mark.parametrize(
        "deltas", [(0.7,), (None, 0.4, 0.2, 0.1, 0.05)], ids=["single", "batch"]
    )
    def test_integrate_matches_allocating_step(self, deltas, n, eps):
        dt = 0.5 * cfl_dt(self.GRID, TRI, None)
        configs = [config(delta=d, epsilon=eps, n=n, dt=dt, t_end=50 * dt) for d in deltas]
        init = self.initial()
        out = integrate(configs, init) if len(configs) > 1 else (integrate(configs[0], init),)
        expected = integrate_rows(configs, init, configs[0].t_end)
        assert len(out) == len(expected)
        for state, (u, v) in zip(out, expected):
            assert np.array_equal(state.u.samples, u)
            assert np.array_equal(state.v.samples, v)


class TestMonitorGate:
    """integrate checks a coefficient bound before each step and transforms for
    the exact monitor only when the bound reaches the threshold; every outcome
    must equal that of the loop that transforms on every step."""

    GRID = Grid(10.0, 64)

    def initial(self):
        u0 = {"shape": "gaussian", "a": 0.8, "b": 4.0}
        return make_initial(u0, {"shape": "sine", "a": 0.3, "k": 2}, self.GRID)

    @staticmethod
    def outcome(run):
        try:
            return run()
        except (BreakdownError, NonFiniteError) as exc:
            return exc

    def assert_same_outcome(self, configs, init):
        expected = self.outcome(lambda: integrate_rows(configs, init, configs[0].t_end))
        out = self.outcome(lambda: integrate(configs, init))
        if isinstance(expected, Exception):
            assert type(out) is type(expected) and str(out) == str(expected)
            if isinstance(expected, BreakdownError):
                assert out.time == expected.time and out.monitor == expected.monitor
        else:
            assert isinstance(out, tuple) and len(out) == len(expected)
            for state, (u, v) in zip(out, expected):
                assert np.array_equal(state.u.samples, u)
                assert np.array_equal(state.v.samples, v)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.sampled_from([1, 3]),
        n=st.sampled_from([1, 2]),
        eps=st.floats(0.0, 2.0),
        where=st.floats(0.0, 1.0),
    )
    def test_integrate_matches_the_exact_monitor_loop(self, rows, n, eps, where):
        init = self.initial()
        deltas = (0.5,) if rows == 1 else (None, 0.5, 0.2)
        dt = cfl_dt(self.GRID, DIRAC, None)
        configs = [
            config(delta=d, epsilon=eps, n=n, dt=dt, t_end=40 * dt, breakdown_threshold=np.inf)
            for d in deltas
        ]
        checks = []
        integrate_rows(configs, init, configs[0].t_end, record=checks)
        ddx = _multiplier(self.GRID, None, None)
        bound = _monitor_bound(ddx, self.GRID.size)
        scratch = np.empty((rows, self.GRID.size + 2))
        peak_monitor = max(np.max(monitor(u, du, ddx, self.GRID.size)) for u, du in checks)
        peak_bound = max(np.max(bound(u, du, scratch)) for u, du in checks)
        assume(np.isfinite(peak_bound))
        # log-uniform from half the peak monitor to twice the peak bound, so a
        # run may break down at once, later, or pass the exact check and go on
        low, high = np.log(0.5 * peak_monitor), np.log(2.0 * peak_bound)
        threshold = float(np.exp(low + where * (high - low)))
        configs = [replace(c, breakdown_threshold=threshold) for c in configs]
        self.assert_same_outcome(configs, init)

    @pytest.mark.parametrize(
        "shape,size,eps,n,steps,threshold",
        [
            ("wave", 1e200, 1.0, 3, 3, np.inf),  # finite bound, then u^4 overflows
            ("wave", 1e155, 1.0, 1, 1, 1e300),  # non-finite only after the last step
            ("wave", 1e301, 0.0, 1, 3, np.inf),  # finite, the bound above its ceiling
            # finite coefficients whose inverse transform overflows: a bound
            # below the ceiling would skip the NonFiniteError
            ("spike", 1e307, 0.0, 1, 3, np.inf),
        ],
    )
    def test_huge_states_match_the_exact_monitor_loop(self, shape, size, eps, n, steps, threshold):
        x = self.GRID.nodes
        u = np.cos(np.pi * x / 10.0) ** 2 if shape == "wave" else (x == 0.0).astype(float)
        init = State(Field(self.GRID, size * u), Field.zeros(self.GRID), 0.0)
        configs = [
            config(delta=d, epsilon=eps, n=n, dt=0.01, t_end=steps * 0.01,
                   breakdown_threshold=threshold)
            for d in (None, 0.5)
        ]
        self.assert_same_outcome(configs, init)

    @pytest.mark.parametrize("kind", ["complex", "real", "nyquist", "single-mode"])
    @pytest.mark.parametrize("seed", range(5))
    def test_bound_is_at_least_the_monitor(self, kind, seed):
        rng = np.random.default_rng(seed)
        size, rows = 64, 4
        shape = (rows, size // 2 + 1)
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        du = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if kind == "real":
            u, du = u.real + 0j, du.real + 0j
        elif kind != "complex":
            mode = np.zeros(shape[1], dtype=bool)
            mode[-1 if kind == "nyquist" else rng.integers(shape[1])] = True
            u, du = np.where(mode, u, 0), np.where(mode, du, 0)
        u *= 10.0 ** rng.uniform(-3, 3, (rows, 1))
        ddx = _multiplier(Grid(10.0, size), None, None)
        exact = _monitor(u, du, ddx, np.empty((3, *shape), complex), np.empty((3, rows, size)))
        bound = _monitor_bound(ddx, size)(u, du, np.empty((rows, size + 2)))
        assert np.all(bound >= exact)

    @pytest.mark.parametrize("level", [0.7, -1.3, 1e-3])
    def test_constant_state_breaks_down_just_below_its_monitor(self, level):
        # u = level, v = 0 has monitor |level| and a bound equal to it: the
        # exact monitor decides both thresholds
        init = State(Field(self.GRID, np.full(self.GRID.size, level)), Field.zeros(self.GRID), 0.0)
        assert breakdown_monitor(init, config(delta=0.5)) == abs(level)
        at = config(delta=0.5, dt=0.01, t_end=0.05, breakdown_threshold=abs(level))
        final = integrate(at, init)
        assert np.array_equal(final.u.samples, init.u.samples)
        below = replace(at, breakdown_threshold=np.nextafter(abs(level), 0.0))
        with pytest.raises(BreakdownError) as info:
            integrate(below, init)
        assert info.value.time == 0.0 and info.value.monitor == abs(level)


class TestLazySnapshots:
    GRID = Grid(10.0, 64)
    STEPS = 20

    def configs(self, eps=0.1):
        t_end = self.STEPS * 0.01
        return [config(delta=d, epsilon=eps, dt=0.01, t_end=t_end) for d in (None, 0.5, 0.2)]

    def test_samples_transformed_only_when_read(self, monkeypatch):
        irfft = np.fft.irfft
        calls = []
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: calls.append(1) or irfft(*a, **k))
        init = make_initial({"shape": "gaussian", "a": 0.5, "b": 2.0}, None, self.GRID)

        # eps = 0 and the monitor's coefficient bound below the threshold:
        # a step makes no transform of its own
        read_t = lambda states: states[0].t
        integrate(self.configs(eps=0.0), init, observers=(read_t,))
        assert len(calls) == 0
        read_all = lambda states: [(s.u, s.v) for s in states]
        integrate(self.configs(eps=0.0), init, observers=(read_all,))
        assert len(calls) == self.STEPS
        calls.clear()
        # with this v0 the checked monitor peaks at 1.335 and the least bound
        # is 1.485 (measured): the exact monitor runs on every step, never raising
        init = make_initial(
            {"shape": "gaussian", "a": 0.5, "b": 2.0}, {"shape": "sine", "a": 0.3, "k": 2},
            self.GRID,
        )
        configs = [replace(c, breakdown_threshold=1.4) for c in self.configs(eps=0.0)]
        integrate(configs, init, observers=(read_t,))
        assert len(calls) == self.STEPS

    def test_states_kept_past_their_step_keep_their_values(self):
        init = make_initial({"shape": "gaussian", "a": 0.5, "b": 2.0}, None, self.GRID)
        kept, copies = [], []

        def read_now(states):
            copies.append([(s.u.samples.copy(), s.v.samples.copy()) for s in states])

        integrate(self.configs(), init, observers=(kept.append,))
        integrate(self.configs(), init, observers=(read_now,))
        assert len(kept) == len(copies) == self.STEPS + 1
        for states, arrays in zip(kept, copies):
            for state, (u, v) in zip(states, arrays):
                assert isinstance(state, State)
                assert np.array_equal(state.u.samples, u) and np.array_equal(state.v.samples, v)
