"""Rate fitting, operator error, and sweep plumbing (full sweeps live in acceptance)."""

import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlwaves import (
    AlignmentError,
    BreakdownError,
    ModelConfig,
    DegenerateDataError,
    DegenerateFitError,
    Grid,
    Kernel,
    SweepConfig,
    fit_rate,
    integrate,
    integrate_chain,
    lattice_sweep,
    make_chain,
    make_initial,
    operator_error,
    zero_dispersion_sweep,
)
from nlwaves import dynamics, lattice
from nlwaves.dynamics import shared_dt
from nlwaves.spectral import coefficient_norm, norm_weights
from reference import derivative, observe_chains, observe_states, sobolev_norm, zeros

TRI = Kernel("triangular")
DIRAC = Kernel("dirac")


def _exact_fit(x, y) -> tuple[float, float, float]:
    """Slope, intercept and R^2 of the least-squares line through the points
    (x, y), computed in exact rational arithmetic and rounded once."""
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    slope = sum((a - mx) * (b - my) for a, b in zip(x, y)) / sum((a - mx) ** 2 for a in x)
    intercept = my - slope * mx
    ss_res = sum((b - slope * a - intercept) ** 2 for a, b in zip(x, y))
    ss_tot = sum((b - my) ** 2 for b in y)
    return float(slope), float(intercept), float(1 - ss_res / ss_tot)


class TestFitRate:
    def test_quadratic_synthetic(self):
        deltas = [0.4, 0.2, 0.1, 0.05]
        fit = fit_rate([(d, d**2) for d in deltas])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.excluded == ()

    def test_linear_synthetic_with_constant(self):
        deltas = [0.4, 0.2, 0.1, 0.05]
        fit = fit_rate([(d, 3.0 * d) for d in deltas])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)

    def test_zero_entry_excluded_with_flag(self):
        pairs = [(0.4, 0.16), (0.2, 0.04), (0.1, 0.0), (0.05, 0.0025)]
        fit = fit_rate(pairs)
        assert fit.excluded == (0.1,)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)

    def test_errors_between_the_floor_and_1e_12_are_fitted(self):
        # 1e-13 lies above the zero floor 1e-14, so only 1e-20 is excluded
        fit = fit_rate([(0.4, 1e-2), (0.2, 1e-13), (0.1, 1e-20)])
        assert fit.excluded == (0.1,)

    def test_fewer_than_two_positive_errors_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit_rate([(0.4, 0.0), (0.2, 0.0), (0.1, 1e-3)])

    @pytest.mark.parametrize(
        "pairs",
        [[(0.1, 1e-3), (0.1, 2e-3)], [(0.2, 0.0), (0.1, 1e-3), (0.1, 2e-3)]],
        ids=["two-equal-deltas", "equal-usable-deltas"],
    )
    def test_equal_usable_deltas_degenerate(self, pairs):
        with pytest.raises(DegenerateFitError, match="distinct deltas"):
            fit_rate(pairs)

    @settings(max_examples=200, deadline=None)
    @given(
        rungs=st.lists(st.integers(0, 100), min_size=2, max_size=7, unique=True),
        c=st.floats(0.01, 100.0),
        theta=st.floats(0.5, 2.5),
        noise=st.lists(st.floats(0.99, 1.01), min_size=7, max_size=7),
    )
    def test_closed_form_matches_polyfit_and_exact_arithmetic(self, rungs, c, theta, noise):
        # deltas on the ladder 1e-4**(k/100) in [1e-4, 1], errors c delta^theta
        # with up to 1 % multiplicative noise.  Measured over 60,000 random
        # draws of this family, relative to max(|reference|, 1): against
        # np.polyfit, slope 7.2e-14, intercept 1.0e-12, R^2 4.9e-15 (polyfit's
        # own error: it is as far from the exact fit); against the exact least
        # squares of the same float logs, 5.6e-16, 9.9e-15 and 2.3e-15.
        deltas = [1e-4 ** (k / 100) for k in rungs]
        errors = [c * d**theta * f for d, f in zip(deltas, noise)]
        fit = fit_rate(list(zip(deltas, errors)))
        x, y = np.log(deltas), np.log(errors)
        slope, intercept = np.polyfit(x, y, 1)
        r2 = 1.0 - np.sum((y - slope * x - intercept) ** 2) / np.sum((y - y.mean()) ** 2)
        got = (fit.slope, fit.intercept, fit.r_squared)
        for value, ref, bound in zip(got, (slope, intercept, r2), (4e-13, 5e-12, 3e-14)):
            assert abs(value - ref) <= bound * max(abs(ref), 1.0)
        for value, ref, bound in zip(got, _exact_fit(x, y), (3e-15, 5e-14, 1.2e-14)):
            assert abs(value - ref) <= bound * max(abs(ref), 1.0)

    def test_negative_errors_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([(0.4, -1.0), (0.2, 0.1)])

    @pytest.mark.parametrize(
        "pair, name",
        [((0.1, np.nan), "errors"), ((0.1, np.inf), "errors"), ((0.0, 1e-3), "deltas"),
         ((-0.1, 1e-3), "deltas"), ((np.nan, 1e-3), "deltas"), ((np.inf, 1e-3), "deltas")],
        ids=["error-nan", "error-inf", "delta-0", "delta-negative", "delta-nan", "delta-inf"],
    )
    def test_non_finite_or_non_positive_input_rejected(self, pair, name):
        # none of these is fitted silently or reaches np.log
        with pytest.raises(ValueError, match=name):
            fit_rate([(0.4, 1e-2), (0.2, 2.5e-3), pair])


class TestOperatorError:
    GRID = Grid(20.0, 1024)

    @pytest.fixture
    def gaussian_field(self):
        return np.exp(-4.0 * self.GRID.nodes**2)

    def test_dirac_error_is_zero(self, gaussian_field):
        err, ratio = operator_error(DIRAC, 0.3, self.GRID, gaussian_field, 3.0, 2.0)
        assert err == 0.0
        assert ratio == 0.0

    def test_zero_field_degenerate(self):
        g = Grid(20.0, 64)
        with pytest.raises(DegenerateDataError):
            operator_error(TRI, 0.3, g, zeros(g), 3.0, 2.0)

    def test_triangular_error_ratios_near_four_per_halving(self, gaussian_field):
        deltas = [0.4, 0.2, 0.1, 0.05]
        errs = [operator_error(TRI, d, self.GRID, gaussian_field, 3.0, 2.0)[0] for d in deltas]
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert all(3.5 < r < 4.3 for r in ratios)

    def test_bound_ratio_plateau_signals_sharp_rate(self, gaussian_field):
        # empirical constancy of the rate constant across a 3-octave range
        deltas = [0.4, 0.2, 0.1, 0.05]
        ratios = [operator_error(TRI, d, self.GRID, gaussian_field, 3.0, 2.0)[1] for d in deltas]
        assert max(ratios) / min(ratios) < 2.0


def small_sweep_config(kernel=TRI, t_end=0.2, **kw):
    """A sweep whose model takes `kernel` and `t_end`, the CFL dt of its
    grid and eps 0.1, n 1, s 3; `kw` sets the sweep's own fields."""
    base = dict(
        deltas=(0.4, 0.2),
        grid=Grid(10.0, 128),
        u0={"shape": "gaussian", "a": 0.5, "b": 2.0},
        v0={"shape": "zero"},
        sample_stride=5,
    )
    base.update(kw)
    model = ModelConfig(kernel=kernel, delta=None, dt=shared_dt(base["grid"]), t_end=t_end,
                        epsilon=0.1, n=1, s=3.0)
    return SweepConfig(model, **base)


class TestSweepConfig:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            small_sweep_config(deltas=(0.1, 0.2))
        with pytest.raises(ValueError):
            small_sweep_config(deltas=(0.2, -0.1))

    def test_fields_are_the_model_and_what_a_sweep_adds(self):
        assert [f.name for f in fields(SweepConfig)] == [
            "model", "deltas", "grid", "u0", "v0", "sample_stride"]

    def test_every_run_is_the_model_with_its_delta(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dynamics, "integrate", lambda cfg, *a, **kw: calls.append(cfg))
        cfg = small_sweep_config()
        zero_dispersion_sweep(cfg)
        assert calls == [[replace(cfg.model, delta=d) for d in (None, 0.4, 0.2)]]


class TestZeroDispersionSweep:
    def test_dirac_control_errors_vanish(self):
        report = zero_dispersion_sweep(small_sweep_config(DIRAC))
        assert all(e < 1e-12 for e in report.errors)
        assert report.degenerate
        assert report.fit is None

    def test_initial_error_is_exactly_zero(self):
        report = zero_dispersion_sweep(small_sweep_config())
        for series in report.series:
            assert series[0] == 0.0

    def test_errors_decrease_with_delta(self):
        report = zero_dispersion_sweep(small_sweep_config(deltas=(0.4, 0.2, 0.1)))
        assert report.errors[0] > report.errors[1] > report.errors[2]
        assert report.fit is not None

    def test_times_cover_the_run(self):
        report = zero_dispersion_sweep(small_sweep_config())
        assert report.times[0] == 0.0
        assert report.times[-1] == 0.2

    def test_traced_peak_of_a_five_row_sweep(self):
        # the march of the classical run and four deltas at N=2048, and each
        # sample's norms taken one row's difference at a time: 1.31 MB
        # traced (numpy 2.4.6); one difference of every row and its norm's
        # full-size temporaries, on a march that made a new state per step,
        # read 1.67 MB
        grid = Grid(20.0, 2048)
        model = ModelConfig(kernel=TRI, delta=None, dt=shared_dt(grid), t_end=0.15,
                            epsilon=0.1, n=1)
        cfg = SweepConfig(model, deltas=(0.4, 0.2, 0.1, 0.05), grid=grid,
                          u0={"shape": "gaussian", "a": 0.5, "b": 2.0}, sample_stride=10)
        zero_dispersion_sweep(cfg)  # first calls of numpy's paths stay out of the count
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            zero_dispersion_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.37e6


class TestLatticeSweep:
    def test_zero_data_gives_zero_errors(self):
        grid = Grid(10.0, 128)
        h = grid.spacing
        cfg = small_sweep_config(
            grid=grid,
            deltas=(4 * h, 2 * h),
            u0={"shape": "zero"},
            v0={"shape": "zero"},
        )
        report = lattice_sweep(cfg)
        assert all(e == 0.0 for e in report.errors)
        assert report.degenerate

    def test_initial_u_error_zero_but_rate_error_quadratic(self):
        """At t=0 the strain matches exactly; the strain rate differs O(delta^2)."""
        grid = Grid(10.0, 512)
        h = grid.spacing
        deltas = (8 * h, 4 * h, 2 * h)  # coarsest chain still resolves the data
        cfg = small_sweep_config(
            grid=grid,
            deltas=deltas,
            t_end=0.1,
            v0={"shape": "gaussian", "a": 0.5, "b": 1.0},
            sample_stride=10,
        )
        report = lattice_sweep(cfg)
        initial_errors = [series[0] for series in report.series]
        strain_only = lattice_sweep(replace(cfg, v0={"shape": "zero"}))
        assert [series[0] for series in strain_only.series] == [0.0] * len(deltas)
        assert all(e > 0 for e in initial_errors)
        slope = np.polyfit(np.log(deltas), np.log(initial_errors), 1)[0]
        assert 1.8 < slope < 2.2

    def test_u0_is_evaluated_once_per_sweep(self):
        calls = []

        def u0(x):
            calls.append(x)
            return 0.5 * np.exp(-2.0 * x**2)

        grid = Grid(10.0, 128)
        h = grid.spacing
        lattice_sweep(small_sweep_config(grid=grid, deltas=(8 * h, 4 * h, 2 * h, h), u0=u0))
        assert len(calls) == 1

    def test_chains_start_on_the_classical_strain_samples(self):
        # stride 3: the chain's sites -L + 3h j are not the grid's nodes
        # -L + h (3j) to the last bit, so only the initial samples match exactly
        grid = Grid(7.3, 96)
        h = grid.spacing
        report = lattice_sweep(small_sweep_config(grid=grid, deltas=(3 * h, 2 * h), t_end=0.5))
        assert [series[0] for series in report.series] == [0.0, 0.0]

    def aligned_config(self):
        grid = Grid(10.0, 128)
        h = grid.spacing
        return small_sweep_config(
            grid=grid,
            deltas=(4 * h, 2 * h, h),
            v0={"shape": "gaussian", "a": 0.3, "b": 1.0},
        )

    def test_errors_equal_per_delta_single_chain_runs(self):
        """Bit for bit the errors of one chain run per delta against the
        classical (u, v_x) read from the coefficients, and to round-off those
        of the sample-level norms of the snapshots' differences."""
        cfg = self.aligned_config()
        grid, mc = cfg.grid, cfg.model
        dt = 0.25 * grid.spacing
        assert (mc.delta, mc.dt) == (None, dt)
        ddx = 1j * grid.rfreqs
        ddx[-1] = 0.0
        classical, fields = [], []
        initial = make_initial(cfg.u0, cfg.v0, grid)
        observe = observe_states(
            lambda s: fields.append((s.u, derivative(grid, s.v))), initial)

        def probe(y, t):
            classical.append(np.fft.irfft(np.stack([y[0, 0], ddx * y[1, 0]]), n=grid.size))
            observe(y, t)

        integrate(mc, initial, probe=probe)
        classical[0][0] = initial.u  # the strain the chains start from
        expected, field_level = [], []
        for delta in cfg.deltas:
            stride = int(round(delta / grid.spacing))
            coarse = Grid(grid.half_length, grid.size // stride)
            chain = make_chain(initial.u[::stride], cfg.v0, coarse)
            snaps = []
            integrate_chain(chain, mc.epsilon, mc.n, dt, mc.t_end,
                            probe=observe_chains(snaps.append, chain))
            weights = norm_weights(coarse, mc.s - 1)
            sampled = [i for i in range(len(snaps))
                       if i % cfg.sample_stride == 0 or i == len(snaps) - 1]
            expected.append(tuple(
                float(np.sum(coefficient_norm(np.fft.rfft(
                    np.stack([snaps[i].strain, snaps[i].velocity]) - classical[i][:, ::stride]
                ), weights)))
                for i in sampled
            ))
            order = mc.s - 1
            field_level.append([
                sobolev_norm(coarse, snaps[i].strain - fields[i][0][::stride], order)
                + sobolev_norm(coarse, snaps[i].velocity - fields[i][1][::stride], order)
                for i in sampled
            ])
        report = lattice_sweep(cfg)
        assert report.series == tuple(expected)
        assert report.errors == tuple(e[-1] for e in expected)
        np.testing.assert_allclose(report.series, field_level, rtol=1e-10)

    def test_one_integrate_chain_call_for_all_deltas(self, monkeypatch):
        # every step of the chains and of the classical run, which steps in
        # lockstep with them from their probe, runs inside the one call
        calls, steps = [], []
        rk4, original = dynamics._rk4, lattice.integrate_chain

        def counted(*args, **kwargs):
            calls.append(args[0])
            out = original(*args, **kwargs)
            calls.append(None)
            return out

        monkeypatch.setattr(lattice, "integrate_chain", counted)
        monkeypatch.setattr(dynamics, "integrate", None)  # not to be called
        monkeypatch.setattr(dynamics, "_rk4", lambda *a: steps.append(len(calls)) or rk4(*a))
        cfg = self.aligned_config()
        lattice_sweep(cfg)
        assert len(calls) == 2 and calls[1] is None
        assert [c.grid.size for c in calls[0]] == [32, 64, 128]
        assert steps == [1] * 2 * dynamics.n_steps(cfg.model.t_end, cfg.model.dt)

    def test_traced_peak_does_not_grow_with_t_end(self):
        # four chains at N=2048 (strides 8, 4, 2, 1) and the classical run
        # stepped in lockstep, each sample's classical (u, u_t) dropped once
        # read: 0.91 MB traced to t_end 0.5 (103 steps) and 0.94 MB to t_end
        # 8 (1,639 steps), numpy 2.4.6; a classical run taken whole first,
        # its samples kept, read 1.00 and 6.07 MB
        grid = Grid(20.0, 2048)
        model = ModelConfig(kernel=TRI, delta=None, dt=shared_dt(grid), epsilon=0.1, n=1)
        cfg = SweepConfig(model, deltas=tuple(s * grid.spacing for s in (8, 4, 2, 1)),
                          grid=grid, u0={"shape": "gaussian", "a": 0.5, "b": 2.0},
                          sample_stride=10)
        peaks = []
        lattice_sweep(replace(cfg, model=replace(model, t_end=0.5)))  # numpy's first calls
        for t_end in (0.5, 8.0):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                lattice_sweep(replace(cfg, model=replace(model, t_end=t_end)))
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.41e6
        assert max(peaks) <= 1.1 * min(peaks)

    def test_unaligned_delta_rejected(self):
        grid = Grid(10.0, 128)
        cfg = small_sweep_config(grid=grid, deltas=(0.31, 0.155))
        with pytest.raises(AlignmentError):
            lattice_sweep(cfg)


    def test_chain_of_fewer_than_8_sites_rejected(self):
        grid = Grid(10.0, 64)
        cfg = small_sweep_config(grid=grid, deltas=(16 * grid.spacing, 8 * grid.spacing))
        with pytest.raises(AlignmentError) as info:  # 4 sites
            lattice_sweep(cfg)
        assert info.value.field == "delta_list"


class TestNumpySettings:
    """A march leaves numpy's error state and ufunc buffer size as its caller
    set them, also when it raises, and its probes ignore overflow and
    invalid."""

    GRID = Grid(10.0, 128)

    def probe(self, seen):
        def probe(_y, _t):
            seen.append({k: np.geterr()[k] for k in ("over", "invalid")})

        return probe

    def integrate_rows(self, seen):
        init = make_initial({"shape": "gaussian", "a": 0.5, "b": 2.0}, None, self.GRID)
        configs = [ModelConfig(kernel=TRI, delta=d, dt=0.05, t_end=0.2) for d in (None, 0.4)]
        integrate(configs, init, probe=self.probe(seen))

    def integrate_chain(self, seen):
        chain = make_chain({"shape": "gaussian", "a": 0.5, "b": 2.0}, None, self.GRID)
        integrate_chain(chain, 0.1, 1, 0.05, 0.2, probe=self.probe(seen))

    def lattice_sweep(self, _seen):
        h = self.GRID.spacing
        lattice_sweep(small_sweep_config(grid=self.GRID, deltas=(2 * h, h)))

    def breaking_lattice_sweep(self, _seen):
        h = self.GRID.spacing
        cfg = small_sweep_config(grid=self.GRID, deltas=(2 * h, h))
        with pytest.raises(BreakdownError):  # the classical run's, at its first step
            lattice_sweep(replace(cfg, model=replace(cfg.model, breakdown_threshold=0.1)))

    @pytest.mark.parametrize("run", ["integrate_rows", "integrate_chain", "lattice_sweep",
                                     "breaking_lattice_sweep"])
    def test_settings_do_not_leak(self, run):
        seen = []
        with np.errstate(all="raise"):
            np.setbufsize(4096)
            caller = np.geterr(), np.getbufsize()
            getattr(self, run)(seen)
            assert (np.geterr(), np.getbufsize()) == caller
        assert all(s == {"over": "ignore", "invalid": "ignore"} for s in seen)
        if run.startswith("integrate"):
            assert len(seen) == 5


def test_report_serialization_round_trip():
    report = zero_dispersion_sweep(small_sweep_config())
    d = report.to_dict()
    assert d["deltas"] == [0.4, 0.2]
    assert len(d["errors"]) == 2
    assert d["slope"] is not None
    assert isinstance(d["r2"], float)
