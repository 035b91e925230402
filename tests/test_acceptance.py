"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from nlwaves import (
    Field,
    Grid,
    Kernel,
    ModelConfig,
    SweepConfig,
    breakdown_monitor,
    cfl_dt,
    energy,
    fit_rate,
    initial_velocity,
    integrate,
    integrate_chain,
    lattice_sweep,
    make_chain,
    make_initial,
    operator_error,
    sobolev_norm,
    zero_dispersion_sweep,
)
from reference import rhs_fields

TRI = Kernel.from_name("triangular")
EXP = Kernel.from_name("exponential")
DIRAC = Kernel.from_name("dirac")

GAUSS_HALF = {"shape": "gaussian", "a": 0.5, "b": 2.0}


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_operator_error_rates():
    """Operator-error slope 2 for triangular and exponential kernels.

    The slope reaches theta only once delta * xi lies in the Taylor regime of
    sqrt(b), so each kernel gets its own ladder: four halvings from the
    largest delta0 in {0.4 * 2^-j} whose Taylor deviation at the field's peak
    frequency is at least 0.9 of its limit at the origin.
    """
    start = time.perf_counter()
    grid = Grid(20.0, 2048)
    v = Field(grid, np.exp(-4.0 * grid.nodes**2))  # gaussian a=1, b=4
    s, theta, min_ratio = 3.0, 2.0, 0.9
    # grid frequency carrying the largest share of |v|_{s+theta}
    weight = (1.0 + grid.freqs**2) ** (s + theta) * np.abs(v.spectrum) ** 2
    xi_peak = abs(grid.freqs[np.argmax(weight)])
    results = {}
    for name, kernel in (("triangular", TRI), ("exponential", EXP)):
        limit = kernel.taylor_deviation(1e-3, theta)

        def regime_ratio(delta):
            return kernel.taylor_deviation(delta * xi_peak, theta) / limit

        delta0 = next(
            0.4 * 2.0**-j for j in range(10) if regime_ratio(0.4 * 2.0**-j) >= min_ratio
        )
        deltas = [delta0 * 2.0**-i for i in range(4)]
        for d in deltas:
            assert regime_ratio(d) >= min_ratio, (
                f"{name}: delta={d} is outside the Taylor regime of sqrt(b) "
                f"(taylor deviation ratio {regime_ratio(d):.3f} < {min_ratio})"
            )
        errs = [operator_error(kernel, d, v, s, theta)[0] for d in deltas]
        results[name] = (delta0, regime_ratio(delta0), fit_rate(list(zip(deltas, errs))))
    elapsed = time.perf_counter() - start
    ok = all(
        1.85 <= fit.slope <= 2.15 and fit.r_squared > 0.999
        for _, _, fit in results.values()
    ) and elapsed < 10.0
    detail = ", ".join(
        f"{name} delta0={delta0:g} taylor={ratio:.3f} "
        f"slope={fit.slope:.3f} r2={fit.r_squared:.5f}"
        for name, (delta0, ratio, fit) in results.items()
    )
    assert report(1, ok, f"{detail} ({elapsed:.1f}s)")


def test_criterion_02_zero_dispersion_rate():
    """Nonlocal-to-classical terminal error decays at rate ~2 in delta."""
    start = time.perf_counter()
    cfg = SweepConfig(
        kernel=TRI,
        deltas=(0.4, 0.2, 0.1, 0.05),
        grid=Grid(20.0, 2048),
        t_end=1.0,
        epsilon=0.1,
        n=1,
        s=3.0,
        u0=GAUSS_HALF,
        v0={"shape": "zero"},
        sample_stride=25,
    )
    rep = zero_dispersion_sweep(cfg)
    elapsed = time.perf_counter() - start
    decreasing = all(a > b for a, b in zip(rep.errors, rep.errors[1:]))
    initial_zero = all(series[0] == 0.0 for series in rep.series)
    growing_in_time = all(
        np.all(np.diff(series) > -1e-14) for series in rep.series
    )
    # slope must be stable under removal of the coarsest delta
    tail_fit = fit_rate(list(zip(rep.deltas[1:], rep.errors[1:])))
    stable = abs(tail_fit.slope - rep.fit.slope) < 0.1
    ok = (
        1.7 <= rep.fit.slope <= 2.3
        and decreasing
        and initial_zero
        and growing_in_time
        and stable
        and elapsed < 300.0
    )
    assert report(
        2,
        ok,
        f"slope={rep.fit.slope:.3f} r2={rep.fit.r_squared:.5f} "
        f"decreasing={decreasing} e(0)=0:{initial_zero} "
        f"t-monotone={growing_in_time} slope-stability={abs(tail_fit.slope - rep.fit.slope):.3f} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_03_lattice_rate():
    """Chain-to-classical terminal error decays at rate ~2 in the spacing."""
    grid = Grid(20.0, 2048)
    h = grid.spacing
    cfg = SweepConfig(
        kernel=TRI,
        deltas=tuple(h * r for r in (16, 8, 4, 2)),  # 4 grid-aligned halvings
        grid=grid,
        t_end=1.0,
        epsilon=0.1,
        n=1,
        s=3.0,
        u0=GAUSS_HALF,
        v0=GAUSS_HALF,
        sample_stride=25,
    )
    rep = lattice_sweep(cfg)
    ok = 1.7 <= rep.fit.slope <= 2.3
    assert report(3, ok, f"slope={rep.fit.slope:.3f} r2={rep.fit.r_squared:.5f}")


def test_criterion_04_discrete_initial_velocity():
    """Half-offset quotient: O(delta^2) for gaussians, exact for quadratics."""
    L = 20.0
    spec = {"shape": "gaussian", "a": 1.0, "b": 2.0}
    deltas, errors = [], []
    for m_exp in (7, 8, 9, 10):
        count = 2**m_exp
        delta = 2 * L / count
        sites = -L + delta * np.arange(count)
        exact = -4.0 * sites * np.exp(-2.0 * sites**2)
        approx = initial_velocity(spec, delta, sites, L)
        deltas.append(delta)
        errors.append(np.sqrt(delta * np.sum((approx - exact) ** 2)))
    slope = fit_rate(list(zip(deltas, errors))).slope

    sites = np.linspace(-10, 9.5, 40)
    quad_err = np.max(np.abs(initial_velocity(lambda x: x**2, 0.5, sites, 10.0) - 2 * sites))

    ok = 1.9 <= slope <= 2.1 and quad_err < 1e-12
    assert report(4, ok, f"gaussian slope={slope:.3f}, quadratic err={quad_err:.2e}")


def test_criterion_05_linear_energy_conservation():
    """With eps=0 the energies E_0 and E_3 drift less than 1e-8 over T=10."""
    grid = Grid(20.0, 256)
    init = make_initial(
        {"shape": "gaussian", "a": 1.0, "b": 4.0},
        {"shape": "gaussian", "a": 0.5, "b": 2.0},
        grid,
    )
    worst = {}
    for name in ("dirac", "exponential", "triangular"):
        kernel = Kernel.from_name(name)
        cfg = ModelConfig(
            kernel=kernel, delta=1.0, dt=1e-3, t_end=10.0, epsilon=0.0, n=1
        )
        ref = {s: energy(init, cfg, s=s) for s in (0, 3)}
        drift = {0: 0.0, 3: 0.0}
        counter = {"i": -1}

        def watch(state, cfg=cfg, ref=ref, drift=drift, counter=counter):
            counter["i"] += 1
            if counter["i"] % 200 == 0:
                for s in (0, 3):
                    drift[s] = max(drift[s], abs(energy(state, cfg, s=s) / ref[s] - 1.0))

        final = integrate(cfg, init, observers=(watch,))
        for s in (0, 3):
            drift[s] = max(drift[s], abs(energy(final, cfg, s=s) / ref[s] - 1.0))
        worst[name] = max(drift.values())
    ok = all(v < 1e-8 for v in worst.values())
    detail = ", ".join(f"{k} drift={v:.2e}" for k, v in worst.items())
    assert report(5, ok, detail)


def test_criterion_06_spectral_chain_equivalence():
    """Chain integration equals the triangular-kernel spectral run at delta=h."""
    grid = Grid(20.0, 2048)
    dt = 0.125 * grid.spacing
    u0, v0 = GAUSS_HALF, GAUSS_HALF
    cfg = ModelConfig(
        kernel=TRI, delta=grid.spacing, dt=dt, t_end=1.0, epsilon=0.1, n=1
    )
    spectral_u = integrate(cfg, make_initial(u0, v0, grid)).u.samples
    chain = integrate_chain(
        make_chain(u0, v0, grid.half_length, grid.size), 0.1, 1, dt, 1.0
    )
    diff = float(np.max(np.abs(spectral_u - chain.strain)))
    ok = diff < 1e-8
    assert report(6, ok, f"sup-norm difference at T=1: {diff:.2e}")


def test_criterion_07_dirac_degeneration():
    """Dirac kernel: nonlocal rhs equals classical; sweep errors vanish."""
    rng = np.random.default_rng(42)
    grid = Grid(10.0, 128)
    cfg_nl = ModelConfig(kernel=DIRAC, delta=0.3, dt=0.01, t_end=1.0, epsilon=0.2, n=2)
    cfg_cl = ModelConfig(kernel=DIRAC, delta=None, dt=0.01, t_end=1.0, epsilon=0.2, n=2)
    from nlwaves import State

    worst = 0.0
    for _ in range(100):
        st = State(
            Field(grid, rng.standard_normal(grid.size)),
            Field(grid, rng.standard_normal(grid.size)),
            0.0,
        )
        du_a, dv_a = rhs_fields(st, cfg_nl)
        du_b, dv_b = rhs_fields(st, cfg_cl)
        worst = max(
            worst,
            float(np.max(np.abs(du_a.samples - du_b.samples))),
            float(np.max(np.abs(dv_a.samples - dv_b.samples))),
        )

    sweep = zero_dispersion_sweep(
        SweepConfig(
            kernel=DIRAC,
            deltas=(0.4, 0.2, 0.1, 0.05),
            grid=Grid(10.0, 256),
            t_end=0.5,
            epsilon=0.1,
            n=1,
            s=3.0,
            u0=GAUSS_HALF,
            v0={"shape": "zero"},
            sample_stride=10,
        )
    )
    max_err = max(sweep.errors)
    ok = worst < 1e-13 and max_err < 1e-12
    assert report(7, ok, f"rhs diff={worst:.2e}, sweep max error={max_err:.2e}")


def test_criterion_08_rk4_self_convergence():
    """Observed RK4 order on a nonlinear triangular-kernel run."""
    grid = Grid(20.0, 256)
    init = make_initial(GAUSS_HALF, GAUSS_HALF, grid)

    def final(dt):
        cfg = ModelConfig(kernel=TRI, delta=0.5, dt=dt, t_end=1.0, epsilon=0.2, n=1)
        return integrate(cfg, init).u.samples

    dts = [0.04, 0.02, 0.01, 0.005]
    ref = final(0.04 / 16)
    errs = [float(np.max(np.abs(final(dt) - ref))) for dt in dts]
    fit = fit_rate(list(zip(dts, errs)))
    ok = 3.7 <= fit.slope <= 4.1
    assert report(8, ok, f"slope={fit.slope:.3f} errors={[f'{e:.1e}' for e in errs]}")


def test_criterion_09_long_time_existence():
    """Run to T = 1/eps with no breakdown and a bounded monitor."""
    grid = Grid(24.0, 1024)
    init = make_initial(GAUSS_HALF, GAUSS_HALF, grid)
    cfg = ModelConfig(
        kernel=TRI,
        delta=1.0,
        dt=cfl_dt(grid, TRI, 1.0),
        t_end=10.0,  # 1/eps
        epsilon=0.1,
        n=1,
    )
    m0 = breakdown_monitor(init, cfg)
    peak = [m0]
    worst_one_plus_w = [np.inf]
    counter = {"i": -1}

    def watch(state):
        counter["i"] += 1
        # hyperbolicity guard holds at every step of the run
        w_min = 1.0 + 2.0 * cfg.epsilon * float(np.min(state.u.samples))
        worst_one_plus_w[0] = min(worst_one_plus_w[0], w_min)
        if counter["i"] % 20 == 0:
            peak[0] = max(peak[0], breakdown_monitor(state, cfg))

    final = integrate(cfg, init, observers=(watch,))  # raises on breakdown
    peak[0] = max(peak[0], breakdown_monitor(final, cfg))
    ok = peak[0] <= 4.0 * m0 and worst_one_plus_w[0] > 0.0
    assert report(
        9,
        ok,
        f"monitor initial={m0:.3f} peak={peak[0]:.3f} (bound {4*m0:.3f}), "
        f"min(1+g'(u))={worst_one_plus_w[0]:.3f}",
    )


def test_criterion_10_parity_and_closed_forms():
    """Parity survives 100 steps at machine precision; single-mode norm exact."""
    grid = Grid(10.0, 128)
    init = make_initial(
        {"shape": "gaussian", "a": 0.5, "b": 2.0},  # even
        {"shape": "sine", "a": 0.3, "k": 2},        # odd
        grid,
    )
    dt = cfl_dt(grid, TRI, 0.8)
    cfg = ModelConfig(
        kernel=TRI, delta=0.8, dt=dt, t_end=100 * dt, epsilon=0.1, n=1
    )

    def reflect(values):
        return np.concatenate([values[:1], values[1:][::-1]])

    residual = [0.0]

    def watch(state):
        residual[0] = max(
            residual[0],
            float(np.max(np.abs(state.u.samples - reflect(state.u.samples)))),
            float(np.max(np.abs(state.v.samples + reflect(state.v.samples)))),
        )

    integrate(cfg, init, observers=(watch,))

    g = Grid(np.pi, 64)
    norm = sobolev_norm(Field(g, np.sin(g.nodes)), 1.0)
    norm_err = abs(norm - np.sqrt(2 * np.pi))
    ok = residual[0] < 1e-13 and norm_err < 1e-10
    assert report(
        10, ok, f"parity residual={residual[0]:.2e}, norm error={norm_err:.2e}"
    )
