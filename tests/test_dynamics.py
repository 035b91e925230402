"""System right-hand sides, RK4 stepping, energy, monitor, and integration."""

import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nlwaves import (
    BreakdownError,
    Chain,
    ConfigError,
    Grid,
    HyperbolicityError,
    InvalidSpecError,
    Kernel,
    ModelConfig,
    NonFiniteError,
    State,
    integrate,
    make_initial,
)
from nlwaves import dynamics
from nlwaves.dynamics import (
    _Recorder,
    _coefficients,
    _monitor,
    _multiplier,
    _sampler,
    _spectral_rhs,
    _state_bound,
    shared_dt,
)
from reference import (
    apply_multiplier,
    breakdown_monitor,
    dealiased_power,
    derivative,
    energy,
    freqs,
    integrate_rows,
    monitor,
    observe_states,
    rhs_fields,
    zeros,
)

TRI = Kernel("triangular")
DIRAC = Kernel("dirac")
TABLE_XI = np.linspace(0.0, 40.0, 81)
TABLE = Kernel.from_table(TABLE_XI, 1.0 / (1.0 + TABLE_XI**2))  # the exponential symbol
# every built-in kernel, a table, and None for the classical system
KERNELS = (DIRAC, Kernel("exponential"), TRI, TABLE, None)


def config(**kw):
    base = dict(kernel=TRI, delta=1.0, dt=0.01, t_end=1.0, epsilon=0.0, n=1)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture
def unit_grid():
    return Grid(np.pi, 64)


class TestState:
    def test_round_trip(self, unit_grid):
        rng = np.random.default_rng(1234)
        u, v = rng.standard_normal((2, unit_grid.size))
        back = np.fft.irfft(_coefficients(State(unit_grid, u, v, 0.0)), n=unit_grid.size)
        np.testing.assert_allclose(back, [u, v], rtol=1e-13, atol=1e-15)

    def test_final_states_share_one_transform(self):
        g = Grid(10.0, 64)
        init = make_initial({"shape": "gaussian", "a": 0.5, "b": 2.0}, None, g)
        configs = [config(delta=d, dt=0.01, t_end=0.05) for d in (None, 0.5)]
        states = integrate(configs, init)
        base = states[0].u.base
        assert base is not None and all(s.u.base is base and s.v.base is base for s in states)

    def test_state_hashes(self, unit_grid):
        st = State(unit_grid, zeros(unit_grid), zeros(unit_grid), 0.0)
        assert {st: 1}[st] == 1


#: the two snapshots on a grid and the names of their arrays
SNAPSHOTS = [pytest.param(State, ("u", "v"), id="State"),
             pytest.param(Chain, ("strain", "velocity"), id="Chain")]


@pytest.mark.parametrize("kind, names", SNAPSHOTS)
class TestSnapshotArrays:
    """State and Chain check and hold their arrays and t alike."""

    def test_arrays_are_read_only(self, unit_grid, kind, names):
        snap = kind(unit_grid, np.sin(unit_grid.nodes), zeros(unit_grid), 0.0)
        for name in names:
            with pytest.raises(ValueError):
                getattr(snap, name)[0] = 99.0

    @pytest.mark.parametrize("wrong", [0, 1])
    def test_wrong_shape_rejected(self, unit_grid, kind, names, wrong):
        arrays = [zeros(unit_grid), zeros(unit_grid)]
        arrays[wrong] = np.zeros(unit_grid.size + 2)
        with pytest.raises(ValueError, match=names[wrong]):
            kind(unit_grid, *arrays, 0.0)
        with pytest.raises(ValueError, match="shape"):
            kind(unit_grid, [], [], 0.0)

    def test_writable_input_is_copied(self, unit_grid, kind, names):
        first = np.sin(unit_grid.nodes)
        snap = kind(unit_grid, first, [0.0] * unit_grid.size, 0.0)
        first[0] = 99.0
        kept, second = (getattr(snap, name) for name in names)
        assert kept[0] != 99.0 and not np.shares_memory(kept, first)
        assert second.dtype == float and not second.flags.writeable

    def test_read_only_input_is_kept(self, unit_grid, kind, names):
        samples = np.sin(unit_grid.nodes)
        samples.setflags(write=False)
        snap = kind(unit_grid, samples, samples, 0.0)
        assert all(getattr(snap, name) is samples for name in names)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, unit_grid, kind, names, t):
        with pytest.raises(ValueError, match="t must be finite"):
            kind(unit_grid, zeros(unit_grid), zeros(unit_grid), t)


class TestNonlocalRhs:
    def test_zero_state(self, unit_grid):
        st = State(unit_grid, zeros(unit_grid), zeros(unit_grid), 0.0)
        du, dv = rhs_fields(st, config())
        assert np.all(du == 0.0) and np.all(dv == 0.0)

    def test_linear_single_mode_u_equation(self, unit_grid):
        # v = sin(x) drives u_t = Kd v_x = k(1) cos(x) for delta = 1
        st = State(unit_grid, zeros(unit_grid), np.sin(unit_grid.nodes), 0.0)
        du, dv = rhs_fields(st, config(epsilon=0.3))
        expected = 2 * np.sin(0.5) * np.cos(unit_grid.nodes)
        np.testing.assert_allclose(du, expected, atol=1e-13)
        assert np.max(np.abs(dv)) == 0.0

    def test_linear_single_mode_v_equation(self, unit_grid):
        st = State(unit_grid, np.sin(unit_grid.nodes), zeros(unit_grid), 0.0)
        du, dv = rhs_fields(st, config(epsilon=0.0))
        expected = 2 * np.sin(0.5) * np.cos(unit_grid.nodes)
        assert np.max(np.abs(du)) == 0.0
        np.testing.assert_allclose(dv, expected, atol=1e-13)


class TestClassicalRhs:
    def test_zero_state(self, unit_grid):
        st = State(unit_grid, zeros(unit_grid), zeros(unit_grid), 0.0)
        du, dv = rhs_fields(st, config(delta=None))
        assert np.all(du == 0.0) and np.all(dv == 0.0)

    def test_linear_single_mode(self, unit_grid):
        st = State(unit_grid, np.sin(unit_grid.nodes), zeros(unit_grid), 0.0)
        du, dv = rhs_fields(st, config(delta=None, epsilon=0.0))
        np.testing.assert_allclose(dv, np.cos(unit_grid.nodes), atol=1e-13)
        assert np.max(np.abs(du)) == 0.0

    def test_quadratic_nonlinearity_calculus_identity(self, unit_grid):
        # (u + 0.1 u^2)_x = cos x + 0.1 sin 2x for u = sin x
        x = unit_grid.nodes
        st = State(unit_grid, np.sin(x), zeros(unit_grid), 0.0)
        _, dv = rhs_fields(st, config(delta=None, epsilon=0.1, n=1))
        expected = np.cos(x) + 0.1 * np.sin(2 * x)
        assert np.max(np.abs(dv - expected)) < 1e-11

    def test_dirac_nonlocal_equals_classical_on_random_states(self):
        rng = np.random.default_rng(7)
        g = Grid(10.0, 128)
        cfg_nl = config(kernel=DIRAC, delta=0.37, epsilon=0.2, n=2)
        cfg_cl = config(kernel=DIRAC, delta=None, epsilon=0.2, n=2)
        for _ in range(20):
            st = State(g, rng.standard_normal(g.size), rng.standard_normal(g.size), 0.0)
            du_a, dv_a = rhs_fields(st, cfg_nl)
            du_b, dv_b = rhs_fields(st, cfg_cl)
            assert np.max(np.abs(du_a - du_b)) < 1e-13
            assert np.max(np.abs(dv_a - dv_b)) < 1e-13


class TestSpectralRhsTransforms:
    """One right-hand-side call makes one padded transform pair when eps > 0,
    none when eps = 0, with the pocketfft gufuncs that `dynamics` binds and
    no `np.fft` call, and leaves the Nyquist bin of both derivatives at 0."""

    GRID = Grid(10.0, 64)

    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_one_transform_pair_per_call(self, monkeypatch, eps, n, rows):
        deltas = (None, 0.4, 0.2, 0.1, 0.05)[:rows]
        multiplier = np.stack([_multiplier(self.GRID, TRI, d) for d in deltas])
        u0, v0 = {"shape": "gaussian", "a": 0.5, "b": 2.0}, {"shape": "sine", "a": 0.3, "k": 2}
        y = np.repeat(_coefficients(make_initial(u0, v0, self.GRID))[:, None], rows, axis=1)
        y[..., -1] = 0.1 + 0.2j  # a Nyquist bin that the derivatives must not see
        scaled = _spectral_rhs(multiplier, config(epsilon=eps, n=n))
        calls = {"_irfft": 0, "_rfft": 0, "np.fft": 0}
        for name in ("_irfft", "_rfft"):
            def counted(*args, _fft=getattr(dynamics, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fft(*args, **kwargs)

            monkeypatch.setattr(dynamics, name, counted)
        for name in ("irfft", "rfft", "fft", "ifft"):
            def wrapper(*args, _fft=getattr(np.fft, name), **kwargs):
                calls["np.fft"] += 1
                return _fft(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, wrapper)
        out = np.full_like(y, np.nan)
        scaled(0.5)(y, out)
        pairs = 1 if eps > 0.0 else 0
        assert calls == {"_irfft": pairs, "_rfft": pairs, "np.fft": 0}
        assert np.all(out[..., -1] == 0.0)
        assert np.all(np.isfinite(out))


@settings(max_examples=100, deadline=None)
@given(
    kernel=st.sampled_from(KERNELS[:-1]),
    delta=st.one_of(st.none(), st.floats(1e-3, 10.0)),
    half_length=st.floats(0.5, 100.0),
    size=st.sampled_from([8, 64, 256, 2048]),
)
def test_multiplier_is_purely_imaginary(kernel, delta, half_length, size):
    # every symbol is real, so the state bound may weigh v^ by |M|
    assert np.all(_multiplier(Grid(half_length, size), kernel, delta).real == 0.0)


class TestInPlaceRhs:
    """Every closure writes the same bits over its input as into another array."""

    GRID = Grid(10.0, 64)

    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_out_may_be_the_input(self, eps, n, rows):
        deltas = (None, 0.4, 0.2, 0.1, 0.05)[:rows]
        multiplier = np.stack([_multiplier(self.GRID, TRI, d) for d in deltas])
        rng = np.random.default_rng(10 * n + rows)
        y = rng.standard_normal((2, rows, self.GRID.size // 2 + 1, 2)) @ np.array([1.0, 1j])
        rhs = _spectral_rhs(multiplier, config(epsilon=eps, n=n))(0.5)
        out = np.empty_like(y)
        rhs(y, out)
        rhs(y, y)
        assert np.array_equal(y, out)


class TestBoundTransforms:
    """The gufuncs that `dynamics` binds, called as the right-hand side calls
    them, give the bits of `np.fft.irfft(x, n=P)` and `np.fft.rfft`."""

    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("size", [8, 256, 2048])
    def test_equal_np_fft_bit_for_bit(self, size, n, rows):
        padded = dynamics._padded_size(size, n + 1)
        rng = np.random.default_rng(size + 10 * n + rows)
        fine = rng.standard_normal((rows, padded // 2 + 1, 2)) @ np.array([1.0, 1j])
        product = np.empty((rows, padded))
        dynamics._irfft(fine, 1 / padded, out=product)
        assert np.array_equal(product, np.fft.irfft(fine, n=padded))
        spec = np.empty_like(fine)
        dynamics._rfft(product, 1.0, out=spec)
        assert np.array_equal(spec, np.fft.rfft(product))

    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("size", [8, 256, 2048])
    def test_inverse_zero_pads_the_coefficients_itself(self, size, n, rows):
        # the right-hand side hands the inverse gufunc N/2 + 1 coefficients
        # for a P-point transform, written into the head of the padded
        # spectrum buffer (a row-strided view), and keeps no zero-padded copy
        half, padded = size // 2, dynamics._padded_size(size, n + 1)
        rng = np.random.default_rng(size + 10 * n + rows)
        coefficients = rng.standard_normal((rows, half + 1, 2)) @ np.array([1.0, 1j])
        head = coefficients * np.append(np.ones(half, complex), 0.5)
        fine = np.zeros((rows, padded // 2 + 1), complex)
        fine[:, : half + 1] = head
        spec = np.full((rows, padded // 2 + 1), np.nan, complex)
        spec[:, : half + 1] = head
        samples = []
        for given in (head, spec[:, : half + 1], fine):
            samples.append(np.empty((rows, padded)))
            dynamics._irfft(given, 1 / padded, out=samples[-1])
        short, view, long = samples
        assert np.array_equal(short, long)
        assert np.array_equal(view, long)


class TestMarchMemory:
    def test_traced_peak_of_a_batched_run(self):
        # the march holds the state and two stage buffers, c M in each of
        # the closures for h/2 and h, the right-hand side's two transform
        # buffers and the state bound's weights: 1.20 MB traced (numpy
        # 2.4.6).  A new state per step and a third stage buffer read 1.51
        # MB; a second multiplier per closure, a buffer of its own for the
        # weighted coefficients, a scratch for the bound and the kept
        # initial coefficient pair 1.96 MB before that
        grid = Grid(20.0, 2048)
        configs = [config(delta=d, epsilon=0.1, dt=shared_dt(grid), t_end=0.02)
                   for d in (None, 0.4, 0.2, 0.1, 0.05)]
        init = make_initial({"shape": "gaussian", "a": 0.5, "b": 2.0}, {"shape": "zero"}, grid)
        integrate(configs, init)  # first calls of numpy's paths stay out of the count
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            integrate(configs, init)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.26e6


class TestRk4Step:
    def test_linear_wave_returns_after_one_period(self, unit_grid):
        # single-mode classical linear system has period 2*pi
        x = unit_grid.nodes
        st = State(unit_grid, np.cos(x), np.sin(x), 0.0)
        cfg = config(kernel=DIRAC, delta=None, epsilon=0.0, dt=2 * np.pi / 200, t_end=2 * np.pi)
        out = integrate(cfg, st)
        assert np.max(np.abs(out.u - st.u)) < 1e-6
        assert np.max(np.abs(out.v - st.v)) < 1e-6

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
        e1 = np.max(np.abs(final(0.04).u - ref.u))
        e2 = np.max(np.abs(final(0.02).u - ref.u))
        assert 12.0 < e1 / e2 < 20.0


class TestIntegrate:
    def test_zero_span_returns_initial(self, unit_grid):
        st = State(unit_grid, np.sin(unit_grid.nodes), zeros(unit_grid), 0.7)
        out = integrate(config(t_end=0.7), st)
        assert out is st

    def test_t_end_before_start_rejected(self, unit_grid):
        st = State(unit_grid, zeros(unit_grid), zeros(unit_grid), 1.0)
        seen = []
        with pytest.raises(ValueError, match="precedes"):
            integrate(config(t_end=0.5), st, probe=lambda _y, t: seen.append(t))
        assert seen == []

    def test_step_count_overflow_names_dt(self, unit_grid):
        st = State(unit_grid, zeros(unit_grid), zeros(unit_grid), 0.0)
        with pytest.raises(ConfigError) as info:
            integrate(config(dt=1e-320, t_end=1.0), st)
        assert info.value.field == "dt"

    def test_a_span_just_past_whole_steps_takes_one_more(self):
        # 1e-6 of a step past four steps is no rounding of the span
        assert dynamics.n_steps(0.25 * (4 + 1e-6), 0.25) == 5

    def test_last_step_lands_exactly(self, unit_grid):
        st = State(unit_grid, zeros(unit_grid), zeros(unit_grid), 0.0)
        out = integrate(config(dt=0.3, t_end=1.0), st)
        assert out.t == 1.0

    def test_observers_see_every_step(self, unit_grid):
        st = State(unit_grid, zeros(unit_grid), zeros(unit_grid), 0.0)
        times = []
        integrate(config(dt=0.25, t_end=1.0), st, observers=(times.append,))
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
            dt=shared_dt(g), t_end=3.0, breakdown_threshold=4.0,
        )
        with pytest.raises(BreakdownError) as info:
            integrate(cfg, init)
        assert 0.0 < info.value.time < 3.0
        assert info.value.monitor > 4.0

    def test_non_finite_state_signalled(self, unit_grid):
        huge = np.full(unit_grid.size, 1e200)
        st = State(unit_grid, huge, huge, 0.0)
        cfg = config(delta=None, kernel=DIRAC, epsilon=1.0, n=3,
                     breakdown_threshold=sys.float_info.max)  # no monitor can exceed it
        with pytest.raises(NonFiniteError):
            integrate(cfg, st)


class TestEnergy:
    def test_zero_state(self, unit_grid):
        st = State(unit_grid, zeros(unit_grid), zeros(unit_grid), 0.0)
        assert energy(st, config()) == 0.0

    def test_linear_closed_forms(self, unit_grid):
        x = unit_grid.nodes
        st_u = State(unit_grid, np.sin(x), zeros(unit_grid), 0.0)
        assert energy(st_u, config(epsilon=0.0), s=0) == pytest.approx(
            np.sqrt(np.pi / 2), rel=1e-12
        )
        st_v = State(unit_grid, zeros(unit_grid), np.sin(x), 0.0)
        assert energy(st_v, config(epsilon=0.0), s=1) == pytest.approx(
            np.sqrt(np.pi), rel=1e-12
        )

    def test_hyperbolicity_violation_raises(self, unit_grid):
        st = State(unit_grid, -np.ones(unit_grid.size), zeros(unit_grid), 0.0)
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
        kernel=st.sampled_from([TRI, DIRAC, Kernel("exponential")]),
        delta=st.floats(0.05, 2.0),
    )
    def test_linear_energy_drift_is_bounded(self, amplitudes, kernel, delta):
        assume(max(map(abs, amplitudes)) > 1e-3)  # E(0) far from underflow
        g = Grid(np.pi, 32)
        x = g.nodes
        u0 = sum(a * np.cos((k + 1) * x) for k, a in enumerate(amplitudes[:3]))
        v0 = sum(a * np.sin((k + 1) * x) for k, a in enumerate(amplitudes[3:]))
        init = State(g, u0, v0, 0.0)
        cfg = config(kernel=kernel, delta=delta, epsilon=0.0, dt=0.02, t_end=0.5)
        assert abs(energy(integrate(cfg, init), cfg) / energy(init, cfg) - 1.0) < 1e-8


class TestBreakdownMonitor:
    def test_zero_state(self, unit_grid):
        st = State(unit_grid, zeros(unit_grid), zeros(unit_grid), 0.0)
        assert breakdown_monitor(st, config()) == 0.0

    def test_classical_static_mode(self, unit_grid):
        st = State(unit_grid, np.sin(unit_grid.nodes), zeros(unit_grid), 0.0)
        cfg = config(kernel=DIRAC, delta=None, epsilon=0.0)
        assert breakdown_monitor(st, cfg) == pytest.approx(2.0, rel=1e-12)

    def test_nonlocal_velocity_term(self, unit_grid):
        st = State(unit_grid, zeros(unit_grid), np.sin(unit_grid.nodes), 0.0)
        cfg = config(epsilon=0.0, delta=1.0)
        assert breakdown_monitor(st, cfg) == pytest.approx(2 * np.sin(0.5), rel=1e-12)


class TestMakeInitial:
    def test_gaussian_peak_on_node(self):
        g = Grid(10.0, 128)
        st = make_initial({"shape": "gaussian", "a": 1.0, "b": 4.0}, None, g)
        assert st.t == 0.0
        assert np.max(st.u) == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(st.v)) == 0.0

    def test_zero_specs(self, unit_grid):
        st = make_initial(None, {"shape": "zero"}, unit_grid)
        assert np.all(st.u == 0.0) and np.all(st.v == 0.0)

    def test_shapes_sampled_exactly_at_nodes(self):
        g = Grid(10.0, 128)
        st = make_initial(
            {"shape": "sine", "a": 0.5, "k": 1},
            {"shape": "gaussian", "a": 0.2, "b": 2.0},
            g,
        )
        np.testing.assert_array_equal(st.u, 0.5 * np.sin((np.pi / 10.0) * g.nodes))
        np.testing.assert_array_equal(st.v, 0.2 * np.exp(-2.0 * g.nodes**2))

    def test_sech2_shape(self):
        g = Grid(10.0, 128)
        st = make_initial({"shape": "sech2", "a": 0.7, "b": 1.5}, None, g)
        np.testing.assert_array_equal(
            st.u, 0.7 / np.cosh(1.5 * g.nodes) ** 2
        )

    @pytest.mark.parametrize("b", [20.0, 40.0])
    def test_steep_sech2_raises_no_overflow_warning(self, b):
        # cosh(b x)^2 overflows far from the peak, where a / inf = 0 is the value
        g = Grid(20.0, 256)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = make_initial({"shape": "sech2", "a": 0.5, "b": b}, None, g)
        assert np.max(st.u) == 0.5 and np.min(st.u) == 0.0

    def test_sample_arrays_accepted(self, unit_grid):
        values = np.linspace(0, 1, unit_grid.size)
        st = make_initial(values, {"shape": "samples", "values": values}, unit_grid)
        np.testing.assert_array_equal(st.u, values)
        np.testing.assert_array_equal(st.v, values)

    def test_bad_specs_rejected(self, unit_grid):
        with pytest.raises(InvalidSpecError, match="config field 'u0'"):
            make_initial({"shape": "wedge"}, None, unit_grid)
        with pytest.raises(InvalidSpecError):
            make_initial(np.zeros(3), None, unit_grid)
        with pytest.raises(InvalidSpecError) as info:
            make_initial(None, np.zeros(3), unit_grid)
        assert info.value.field == "v0"


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

    @settings(max_examples=60, deadline=None)
    @given(
        half_length=st.floats(0.5, 50.0),
        size=st.integers(4, 512).map(lambda m: 2 * m),
        delta=st.floats(1e-3, 10.0),
        variant=st.sampled_from(["dirac", "exponential", "triangular", "table"]),
        b0=st.floats(1.0 - 9e-9, 1.0 + 9e-9),
        gaps=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_shared_dt_is_the_kernel_cfl_rule(self, half_length, size, delta, variant, b0,
                                              gaps, data):
        g = Grid(half_length, size)
        if variant == "table":
            rest = st.floats(0.0, 1.0 + 1e-8)
            values = [b0, *data.draw(st.lists(rest, min_size=len(gaps), max_size=len(gaps)))]
            kernel = Kernel.from_table(np.concatenate([[0.0], np.cumsum(gaps)]), values)
        else:
            kernel = Kernel(variant)
        self.check_cfl_rule(g, kernel, delta)

    def test_shared_dt_holds_for_a_table_just_above_one(self):
        kernel = Kernel.from_table([0.0, 1.0], [1.0, 1.00000001])
        self.check_cfl_rule(Grid(1.75, 18), kernel, 1.0)

    @staticmethod
    def check_cfl_rule(g, kernel, delta):
        # the rule before kernels were bounded by b(0) = 1: the classical
        # speed 1 and the fastest nonlocal wave speed sqrt(b(delta xi)).  A
        # table may exceed 1 by 1e-8, which the step need not follow.
        speed = float(np.max(kernel.scaled_sqrt_symbol(delta, g.rfreqs)))
        if kernel.variant == "table":
            assert shared_dt(g) == 0.25 * g.spacing
            assert max(1.0, speed) <= np.sqrt(1.0 + 1e-8)
        else:
            assert shared_dt(g) == 0.25 * g.spacing / max(1.0, speed)
        assert shared_dt(g, 0.0123) == 0.0123


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
            u, v = state.u, state.v
            assert np.max(np.abs(u - self.reflect(u))) < 1e-13
            assert np.max(np.abs(v + self.reflect(v))) < 1e-13

        integrate(cfg, init, probe=observe_states(check, init))

    @settings(max_examples=25, deadline=None)
    @given(
        noise=st.lists(st.floats(-0.3, 0.3), min_size=64, max_size=64),
        kernel=st.sampled_from([TRI, Kernel("exponential")]),
        eps=st.floats(0.0, 0.3),
        n=st.integers(1, 3),
        delta=st.floats(0.05, 2.0),
    )
    def test_parity_is_preserved_for_random_data(self, noise, kernel, eps, n, delta):
        g = Grid(np.pi, 32)
        a, b = np.array(noise[:32]), np.array(noise[32:])
        init = State(g, a + self.reflect(a), b - self.reflect(b), 0.0)
        cfg = config(kernel=kernel, delta=delta, epsilon=eps, n=n, dt=0.01, t_end=0.1)
        final = integrate(cfg, init)
        u, v = final.u, final.v
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
        flipped = State(g, -init.u, -init.v, 0.0)
        cfg = config(kernel=Kernel(kernel), delta=delta, epsilon=0.3, n=n,
                     dt=0.02, t_end=0.5)
        out, out_flipped = integrate(cfg, init), integrate(cfg, flipped)
        assert np.array_equal(out_flipped.u, -out.u)
        assert np.array_equal(out_flipped.v, -out.v)


class TestEpsilonScaling:
    """eps is a pure amplitude scale: (u, v) solves the eps-system exactly
    when (eps u, eps v) solves the eps = 1 system, for every n, since
    eps^n u^(n+1) = (eps u)^(n+1) / eps.  Over 2,000 random draws of these
    ranges (exponential kernel, delta 0.5, N 128, L 20, t 2, CFL dt) the
    largest relative sup difference of u or v was 5.5e-16; the bound is
    about 4x that."""

    @settings(max_examples=20, deadline=None)
    @given(
        eps=st.floats(0.05, 1.0),
        n=st.sampled_from([1, 2, 3]),
        a=st.floats(0.4, 0.6),
        b=st.floats(1.5, 2.5),
        a_v=st.floats(0.4, 0.6),
        b_v=st.floats(1.5, 2.5),
    )
    def test_run_equals_scaled_unit_epsilon_run(self, eps, n, a, b, a_v, b_v):
        g = Grid(20.0, 128)

        def run(epsilon, scale):
            init = make_initial({"shape": "gaussian", "a": scale * a, "b": b},
                                {"shape": "gaussian", "a": scale * a_v, "b": b_v}, g)
            cfg = config(kernel=Kernel("exponential"), delta=0.5, epsilon=epsilon, n=n,
                         dt=shared_dt(g), t_end=2.0)
            return integrate(cfg, init)

        out, unit = run(eps, 1.0), run(1.0, eps)
        for field, scaled in ((out.u, unit.u), (out.v, unit.v)):
            peak = np.max(np.abs(field))
            assert np.max(np.abs(field - scaled / eps)) <= 2e-15 * peak


class TestSpectralCoreParity:
    """The spectral-state stepper against an independent sample-level RK4."""

    GRID = Grid(10.0, 64)
    SYSTEMS = {
        "dirac": (DIRAC, 0.7),
        "exponential": (Kernel("exponential"), 0.7),
        "triangular": (TRI, 0.7),
        "table": (TABLE, 0.7),
        "classical": (TRI, None),
    }

    @staticmethod
    def field_rk4(cfg, state, steps):
        """Classical RK4 on samples, built from the full-FFT reference operators."""
        grid, kvals = state.grid, None
        if cfg.delta is not None:
            kvals = cfg.kernel.scaled_sqrt_symbol(cfg.delta, freqs(grid))

        def rhs(u, v):
            stress = u
            if cfg.nonlinear_coefficient != 0.0:
                stress = u + cfg.nonlinear_coefficient * dealiased_power(grid, u, cfg.n + 1)
            du, dv = derivative(grid, v), derivative(grid, stress)
            if kvals is not None:
                du, dv = apply_multiplier(grid, du, kvals), apply_multiplier(grid, dv, kvals)
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
        dt = 0.5 * shared_dt(self.GRID)
        cfg = config(kernel=kernel, delta=delta, epsilon=eps, n=n, dt=dt, t_end=steps * dt)
        init = make_initial(
            {"shape": "gaussian", "a": 0.5, "b": 2.0},
            {"shape": "sine", "a": 0.3, "k": 2},
            self.GRID,
        )
        out = integrate(cfg, init)
        u, v = self.field_rk4(cfg, init, steps)
        assert np.max(np.abs(out.u - u)) <= 1e-13
        assert np.max(np.abs(out.v - v)) <= 1e-13

    def test_batched_rows_equal_single_runs(self):
        g = Grid(20.0, 256)
        init = make_initial({"shape": "gaussian", "a": 0.5, "b": 2.0}, None, g)
        dt = shared_dt(g)
        configs = [
            config(delta=d, epsilon=0.1, n=1, dt=dt, t_end=60 * dt)
            for d in (None, 0.4, 0.2, 0.1)
        ]
        rows = integrate(configs, init)
        assert isinstance(rows, tuple) and len(rows) == len(configs)
        for cfg, row in zip(configs, rows):
            single = integrate(cfg, init)
            assert row.t == single.t
            assert np.max(np.abs(row.u - single.u)) <= 1e-14
            assert np.max(np.abs(row.v - single.v)) <= 1e-14

    def test_batch_configs_may_differ_only_in_kernel_and_delta(self, unit_grid):
        st = State(unit_grid, zeros(unit_grid), zeros(unit_grid), 0.0)
        with pytest.raises(ValueError, match="only in kernel and delta"):
            integrate([config(delta=None), config(delta=0.5, epsilon=0.1)], st)

    def test_batched_rows_of_other_kernels_equal_single_runs_bit_for_bit(self):
        # each row has its own multiplier; two triangular kernels built
        # separately are two objects with one symbol
        g = Grid(20.0, 256)
        init = make_initial({"shape": "gaussian", "a": 0.5, "b": 2.0},
                            {"shape": "sine", "a": 0.3, "k": 2}, g)
        dt = shared_dt(g)
        rows = (("triangular", 0.1), ("exponential", 0.2), ("dirac", 0.3), ("triangular", None))
        configs = [config(kernel=Kernel(name), delta=d, epsilon=0.1, n=1, dt=dt, t_end=60 * dt)
                   for name, d in rows]
        batched = integrate(configs, init)
        for cfg, row in zip(configs, batched):
            single = integrate(cfg, init)
            assert np.array_equal(row.u, single.u) and np.array_equal(row.v, single.v)

    def test_batch_raises_earliest_breakdown(self):
        g = Grid(10.0, 256)
        init = make_initial({"shape": "gaussian", "a": 0.8, "b": 4.0}, None, g)
        configs = [
            config(kernel=TRI, delta=d, epsilon=2.0, n=1, dt=shared_dt(g),
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
        u = 1e155 * np.sin(unit_grid.nodes)
        st = State(unit_grid, u, zeros(unit_grid), 0.0)
        cfg = config(epsilon=1.0, n=1, dt=0.1, t_end=0.1, breakdown_threshold=1e300)
        with pytest.raises(NonFiniteError, match="t=0.1"):
            integrate(cfg, st)

    @pytest.mark.parametrize("key", ["u0", "v0"])
    def test_initial_coefficients_that_overflow_name_their_key(self, unit_grid, key):
        # finite samples whose k = 3 coefficient, 32e308, is not: the spec
        # names its key, a state names none, mid-run or not
        huge = {"shape": "sine", "a": 1e308, "k": 3}
        specs = {"u0": None, "v0": None, key: huge}
        seen = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as info:
                make_initial(specs["u0"], specs["v0"], unit_grid)
            samples = 1e308 * np.sin(3 * unit_grid.nodes)
            fields = {"u0": zeros(unit_grid), "v0": zeros(unit_grid), key: samples}
            with pytest.raises(NonFiniteError, match="t=0.5") as state_error:
                integrate(config(t_end=1.0), State(unit_grid, fields["u0"], fields["v0"], 0.5),
                          probe=lambda y, t: seen.append(t))
        assert info.value.field == key and seen == []
        assert not isinstance(state_error.value, ConfigError)

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
        init = State(g, u0, v0, 0.0)
        dt = 0.01
        rows = integrate(
            [
                config(kernel=DIRAC, delta=None, epsilon=eps, n=n, dt=dt, t_end=20 * dt),
                config(kernel=DIRAC, delta=delta, epsilon=eps, n=n, dt=dt, t_end=20 * dt),
            ],
            init,
        )
        classical, dirac = rows
        assert np.max(np.abs(dirac.u - classical.u)) <= 1e-14
        assert np.max(np.abs(dirac.v - classical.v)) <= 1e-14


class TestInPlaceStep:
    """integrate against the allocating scaled-stage RK4 loop, bit for bit, and
    against the textbook RK4 loop to round-off."""

    GRID = Grid(20.0, 256)

    def initial(self):
        u0 = {"shape": "gaussian", "a": 0.5, "b": 2.0}
        return make_initial(u0, {"shape": "sine", "a": 0.3, "k": 2}, self.GRID)

    @pytest.mark.parametrize("n,eps", [(1, 0.0), (1, 0.1), (2, 0.1), (3, 0.1)])
    @pytest.mark.parametrize(
        "deltas", [(0.7,), (None, 0.4, 0.2, 0.1, 0.05)], ids=["single", "batch"]
    )
    def test_integrate_matches_allocating_step(self, deltas, n, eps):
        dt = 0.5 * shared_dt(self.GRID)
        configs = [config(delta=d, epsilon=eps, n=n, dt=dt, t_end=50 * dt) for d in deltas]
        init = self.initial()
        out = integrate(configs, init) if len(configs) > 1 else (integrate(configs[0], init),)
        expected = integrate_rows(configs, init, configs[0].t_end)
        assert len(out) == len(expected)
        for state, (u, v) in zip(out, expected):
            assert np.array_equal(state.u, u)
            assert np.array_equal(state.v, v)

    @pytest.mark.parametrize("n,eps", [(1, 0.0), (1, 0.1), (2, 0.1), (3, 0.1)])
    @pytest.mark.parametrize(
        "deltas", [(0.7,), (None, 0.4, 0.2, 0.1, 0.05)], ids=["single", "batch"]
    )
    def test_integrate_is_the_textbook_step_to_round_off(self, deltas, n, eps):
        # the scaled stages reorder the textbook step's arithmetic only: the
        # largest relative sup difference over these cases measured 5.8e-16
        dt = 0.5 * shared_dt(self.GRID)
        configs = [config(delta=d, epsilon=eps, n=n, dt=dt, t_end=50 * dt) for d in deltas]
        init = self.initial()
        out = integrate(configs, init)
        expected = integrate_rows(configs, init, configs[0].t_end, textbook=True)
        for state, (u, v) in zip(out, expected):
            for got, want in ((state.u, u), (state.v, v)):
                assert np.max(np.abs(got - want)) <= 1.6e-15 * np.max(np.abs(want))


class TestMonitorGate:
    """integrate checks a bound from the state's coefficients before each step
    and transforms for the exact monitor only when the bound reaches the
    threshold; every outcome must equal that of the loop that transforms on
    every step."""

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
                assert np.array_equal(state.u, u)
                assert np.array_equal(state.v, v)

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
        dt = shared_dt(self.GRID)
        configs = [
            config(delta=d, epsilon=eps, n=n, dt=dt, t_end=40 * dt,
                   breakdown_threshold=sys.float_info.max)
            for d in deltas
        ]
        checks = []
        integrate_rows(configs, init, configs[0].t_end, record=checks)
        ddx = _multiplier(self.GRID, None, None)
        multiplier = np.stack([_multiplier(self.GRID, c.kernel, c.delta) for c in configs])
        bound = _state_bound(multiplier, ddx, self.GRID.size)
        spare = np.empty_like(checks[0])
        peak_monitor = max(np.max(monitor(y[0], multiplier * y[1], ddx, self.GRID.size))
                           for y in checks)
        peak_bound = max(np.max(bound(y, spare)) for y in checks)
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
            ("wave", 1e200, 1.0, 3, 3, sys.float_info.max),  # finite bound, then u^4 overflows
            ("wave", 1e155, 1.0, 1, 1, 1e300),  # non-finite only after the last step
            ("wave", 1e301, 0.0, 1, 3, sys.float_info.max),  # finite, the bound above its ceiling
            # finite coefficients whose inverse transform overflows: a bound
            # below the ceiling would skip the NonFiniteError
            ("spike", 1e307, 0.0, 1, 3, sys.float_info.max),
        ],
    )
    def test_huge_states_match_the_exact_monitor_loop(self, shape, size, eps, n, steps, threshold):
        x = self.GRID.nodes
        u = np.cos(np.pi * x / 10.0) ** 2 if shape == "wave" else (x == 0.0).astype(float)
        init = State(self.GRID, size * u, zeros(self.GRID), 0.0)
        configs = [
            config(delta=d, epsilon=eps, n=n, dt=0.01, t_end=steps * 0.01,
                   breakdown_threshold=threshold)
            for d in (None, 0.5)
        ]
        self.assert_same_outcome(configs, init)

    @pytest.mark.parametrize("kind", ["complex", "real", "nyquist", "single-mode"])
    @pytest.mark.parametrize("seed", range(5))
    def test_bound_is_at_least_the_monitor(self, kind, seed):
        # the bound reads the state alone: each row has its own kernel and
        # delta, and the exact monitor transforms u^ and M v^
        rng = np.random.default_rng(seed)
        grid = self.GRID
        ddx = _multiplier(grid, None, None)
        for rows in [1, 4] * 10:
            shape = (2, rows, grid.size // 2 + 1)
            y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            if kind == "real":
                y = y.real + 0j
            elif kind != "complex":
                mode = np.zeros(shape[-1], dtype=bool)
                mode[-1 if kind == "nyquist" else rng.integers(shape[-1])] = True
                y = np.where(mode, y, 0)
            y *= 10.0 ** rng.uniform(-3, 3, (2, rows, 1))
            kernels = [KERNELS[i] for i in rng.integers(len(KERNELS), size=rows)]
            multiplier = np.stack([
                _multiplier(grid, k, None if k is None else rng.uniform(0.01, 4.0))
                for k in kernels
            ])
            exact = _monitor(y[0], multiplier * y[1], ddx, grid.size)
            spare = np.full_like(y, np.nan)  # its contents are overwritten
            bound = _state_bound(multiplier, ddx, grid.size)(y, spare)
            assert bound.shape == (rows,)
            assert np.all(bound >= exact)

    @pytest.mark.parametrize("level", [0.7, -1.3, 1e-3])
    def test_constant_state_breaks_down_just_below_its_monitor(self, level):
        # u = level, v = 0 has monitor |level| and a bound equal to it: the
        # exact monitor decides both thresholds
        init = State(self.GRID, np.full(self.GRID.size, level), zeros(self.GRID), 0.0)
        assert breakdown_monitor(init, config(delta=0.5)) == abs(level)
        at = config(delta=0.5, dt=0.01, t_end=0.05, breakdown_threshold=abs(level))
        final = integrate(at, init)
        assert np.array_equal(final.u, init.u)
        below = replace(at, breakdown_threshold=np.nextafter(abs(level), 0.0))
        with pytest.raises(BreakdownError) as info:
            integrate(below, init)
        assert info.value.time == 0.0 and info.value.monitor == abs(level)


class TestFinalStates:
    GRID = Grid(10.0, 64)
    STEPS = 20

    def configs(self, eps=0.1):
        t_end = self.STEPS * 0.01
        return [config(delta=d, epsilon=eps, dt=0.01, t_end=t_end) for d in (None, 0.5, 0.2)]

    def test_steps_transform_only_for_the_exact_monitor(self, monkeypatch):
        irfft = np.fft.irfft
        calls = []
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: calls.append(1) or irfft(*a, **k))
        init = make_initial({"shape": "gaussian", "a": 0.5, "b": 2.0}, None, self.GRID)

        # eps = 0 and the monitor's coefficient bound below the threshold:
        # a step makes no transform of its own; the final states make one
        times = []
        integrate(self.configs(eps=0.0), init, observers=(times.append,))
        assert len(calls) == 1 and len(times) == self.STEPS + 1
        calls.clear()
        # with this v0 the checked monitor peaks at 1.335 and the least bound
        # is 1.485 (measured): the exact monitor runs on every step, never raising
        init = make_initial(
            {"shape": "gaussian", "a": 0.5, "b": 2.0}, {"shape": "sine", "a": 0.3, "k": 2},
            self.GRID,
        )
        configs = [replace(c, breakdown_threshold=1.4) for c in self.configs(eps=0.0)]
        integrate(configs, init, observers=(times.append,))
        assert len(calls) == self.STEPS + 1

    def test_the_probe_sees_one_array_stepped_in_place(self):
        # a probe sees the one array the march steps, holding the state of
        # its step, and copies what it keeps
        init = make_initial({"shape": "gaussian", "a": 0.5, "b": 2.0}, None, self.GRID)
        seen, copies, checks = [], [], []

        def probe(y, _t):
            seen.append(y)
            copies.append(y.copy())

        final = integrate(self.configs(), init, probe=probe)
        integrate_rows(self.configs(), init, self.STEPS * 0.01, record=checks)
        assert len(seen) == len(checks) + 1 == self.STEPS + 1
        assert all(y is seen[0] for y in seen)
        assert np.array_equal(seen[0], copies[-1])
        for y, want in zip(copies, checks):  # the state before each step
            assert np.array_equal(y, want)
        u, v = np.fft.irfft(copies[-1], n=self.GRID.size)
        for state, ur, vr in zip(final, u, v):
            assert isinstance(state, State) and state.t == self.STEPS * 0.01
            assert np.array_equal(state.u, ur) and np.array_equal(state.v, vr)


class TestProbe:
    GRID = Grid(10.0, 64)

    def test_probe_sees_every_step_before_the_observers(self):
        init = make_initial({"shape": "gaussian", "a": 0.5, "b": 2.0}, None, self.GRID)
        seen = []
        final = integrate(config(dt=0.25, t_end=1.0, epsilon=0.1), init,
                          observers=(lambda t: seen.append(("observer", t)),),
                          probe=lambda y, t: seen.append(("probe", t, y.shape)))
        times = [0.0, 0.25, 0.5, 0.75, 1.0]
        assert seen == [entry for t in times
                        for entry in (("probe", t, (2, 1, 33)), ("observer", t))]
        assert final.t == 1.0

    def test_final_states_are_built_once(self, monkeypatch):
        irfft, shapes = np.fft.irfft, []
        monkeypatch.setattr(np.fft, "irfft", lambda a, *r, **k: shapes.append(a.shape)
                            or irfft(a, *r, **k))
        init = make_initial({"shape": "gaussian", "a": 0.5, "b": 2.0}, None, self.GRID)
        configs = [config(delta=d, dt=0.1, t_end=1.0, epsilon=0.1) for d in (None, 0.5)]
        rec = _Recorder(configs[0], init, lambda y, t, u: t, 2)
        final = integrate(configs, init, probe=rec)
        assert shapes == [(2, 2, 33)]  # one inverse transform of both runs
        assert [s.t for s in final] == [1.0, 1.0]
        assert rec.snaps == rec.times == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        assert rec.times[-1] == 1.0

    def test_recorder_takes_its_first_sample_from_first(self):
        init = make_initial({"shape": "gaussian", "a": 0.5, "b": 2.0}, None, self.GRID)

        def take(y, t, u):
            return ("first" if u is init.u else "take" if u is None else u, t)

        rec = _Recorder(config(dt=1.0, t_end=3.0), init, take, 2)
        for t in (0.0, 1.0, 2.0, 3.0):
            rec(None, t)
        assert rec.snaps == [("first", 0.0), ("take", 2.0), ("take", 3.0)]

    @settings(max_examples=60, deadline=None)
    @given(steps=st.integers(0, 40), stride=st.one_of(st.none(), st.integers(1, 7)),
           start=st.sampled_from([0.0, 0.5]))
    @example(steps=0, stride=None, start=0.5)
    @example(steps=12, stride=4, start=0.0)
    @example(steps=13, stride=None, start=0.0)
    def test_recorder_keeps_every_stride_th_count_and_the_last(self, steps, stride, start):
        grid, dt = Grid(10.0, 16), 0.25  # every t below is exact in binary
        init = State(grid, np.exp(-grid.nodes**2), np.zeros(grid.size), start)
        rec = _Recorder(config(dt=dt, t_end=start + steps * dt), init,
                        lambda y, t, u: u, stride)
        integrate(config(dt=dt, t_end=start + steps * dt), init, probe=rec)
        if stride is None:
            counts = [0, steps] if steps else [0]
        else:
            counts = list(range(0, steps + 1, stride)) + ([steps] if steps % stride else [])
            assert len(counts) == steps // stride + 1 + (steps % stride > 0)
        assert rec.times == [start + k * dt for k in counts]
        assert rec.snaps[0] is init.u
        assert rec.snaps[1:] == [None] * (len(counts) - 1)

    @settings(max_examples=40, deadline=None)
    @given(
        amplitude=st.floats(-3.0, 3.0),
        eps=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
        n=st.sampled_from([1, 2, 3]),
        delta=st.sampled_from([None, 0.5]),
    )
    @example(amplitude=-1.0, eps=0.6, n=1, delta=0.5)
    def test_sample_is_energy_monitor_and_peak(self, amplitude, eps, n, delta):
        """A probe sample raises HyperbolicityError where `energy` does, and
        otherwise equals the State-level diagnostics to round-off."""
        g = self.GRID
        u0 = amplitude * np.exp(-g.nodes**2)
        w = (n + 1) * eps**n * u0**n
        assume(np.min(np.abs(1.0 + w)) > 1e-6)  # the two sides may round apart at 0
        state = State(g, u0, 0.3 * np.sin(np.pi * g.nodes / 10.0), 0.5)
        cfg = config(delta=delta, epsilon=eps, n=n)
        take = _sampler(cfg, g)
        y = _coefficients(state)[:, None]  # the one run of an `integrate` call
        try:
            expected = energy(state, cfg)
        except HyperbolicityError:
            with pytest.raises(HyperbolicityError):
                take(y, state.t)
            return
        e, m, peak = take(y, state.t)
        assert e == pytest.approx(expected, rel=1e-13)
        assert m == pytest.approx(breakdown_monitor(state, cfg), rel=1e-13)
        assert peak == pytest.approx(np.max(np.abs(u0)), rel=1e-13)
