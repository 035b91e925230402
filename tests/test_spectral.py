"""Grid mechanics, multiplier algebra, norms, and the convolution oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlwaves import (
    Grid,
    Kernel,
    NonFiniteError,
)
from nlwaves.spectral import _integer_power, coefficient_norm, norm_weights
from reference import (
    apply_multiplier,
    dealiased_power,
    derivative,
    sobolev_norm,
    sobolev_scale,
    spectrum_norm,
    zeros,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_field(grid, rng):
    return rng.standard_normal(grid.size)


class TestGrid:
    def test_geometry(self):
        g = Grid(20.0, 1024)
        assert g.spacing * g.size == pytest.approx(2 * g.half_length, rel=1e-15)
        assert g.nodes[0] == -20.0
        assert np.max(g.freqs) == pytest.approx((g.size / 2 - 1) * np.pi / 20.0)
        assert np.min(g.freqs) == pytest.approx(-(g.size / 2) * np.pi / 20.0)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            Grid(10.0, 7)
        with pytest.raises(ValueError):
            Grid(10.0, 6)
        with pytest.raises(ValueError):
            Grid(-1.0, 64)


class TestApplyMultiplier:
    def test_identity(self, rng):
        g = Grid(10.0, 256)
        f = random_field(g, rng)
        out = apply_multiplier(g, f, lambda xi: np.ones_like(xi))
        assert np.max(np.abs(out - f)) < 1e-13

    def test_triangular_symbol_on_single_mode(self):
        g = Grid(np.pi, 64)
        f = np.sin(g.nodes)
        tri = Kernel("triangular")
        out = apply_multiplier(g, f, tri.symbol)
        expected = 4 * np.sin(0.5) ** 2 * np.sin(g.nodes)
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_zero_multiplier_gives_zero_field(self, rng):
        g = Grid(10.0, 64)
        out = apply_multiplier(g, random_field(g, rng), lambda xi: np.zeros_like(xi))
        assert np.max(np.abs(out)) == 0.0

    def test_multiplier_array_accepted(self, rng):
        g = Grid(10.0, 64)
        f = random_field(g, rng)
        m = 1.0 / (1.0 + g.freqs**2)
        a = apply_multiplier(g, f, m)
        b = apply_multiplier(g, f, lambda xi: 1.0 / (1.0 + xi**2))
        np.testing.assert_array_equal(a, b)

    def test_non_finite_output_signalled(self, rng):
        g = Grid(10.0, 64)
        f = random_field(g, rng)
        with pytest.raises(NonFiniteError):
            apply_multiplier(g, f, lambda xi: np.full_like(xi, np.inf))

    def test_composition(self, rng):
        g = Grid(10.0, 256)
        f = random_field(g, rng)
        m1 = lambda xi: 1.0 / (1.0 + xi**2)
        m2 = Kernel("triangular").symbol
        chained = apply_multiplier(g, apply_multiplier(g, f, m1), m2)
        product = apply_multiplier(g, f, lambda xi: m1(xi) * m2(xi))
        np.testing.assert_allclose(chained, product, atol=1e-12)


class TestDerivative:
    def test_single_mode_exact(self):
        g = Grid(np.pi, 64)
        f = np.sin(2 * g.nodes)
        out = derivative(g, f)
        assert np.max(np.abs(out - 2 * np.cos(2 * g.nodes))) < 1e-11

    def test_constant_derivative_is_zero(self):
        g = Grid(5.0, 32)
        out = derivative(g, np.full(32, 3.7))
        assert np.max(np.abs(out)) < 1e-14

    def test_gaussian_against_richardson_finite_difference(self):
        """Finite-difference oracle: h^2-extrapolated central differences."""
        g = Grid(10.0, 2048)
        u = np.exp(-4 * g.nodes**2)
        d1 = (np.roll(u, -1) - np.roll(u, 1)) / (2 * g.spacing)
        d2 = (np.roll(u, -2) - np.roll(u, 2)) / (4 * g.spacing)
        oracle = (4 * d1 - d2) / 3.0
        out = derivative(g, u)
        assert np.max(np.abs(out - oracle)) < 1e-6

    def test_nyquist_mode_zeroed(self):
        g = Grid(np.pi, 16)
        f = np.cos(8 * g.nodes)  # pure Nyquist mode
        assert np.max(np.abs(derivative(g, f))) < 1e-13

    def test_commutes_with_multipliers(self, rng):
        g = Grid(10.0, 256)
        f = random_field(g, rng)
        k = Kernel("triangular").sqrt_symbol
        a = derivative(g, apply_multiplier(g, f, k))
        b = apply_multiplier(g, derivative(g, f), k)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestSobolevScale:
    def test_zero_order_is_identity(self, rng):
        g = Grid(10.0, 64)
        f = random_field(g, rng)
        np.testing.assert_allclose(sobolev_scale(g, f, 0.0), f, atol=1e-14)

    def test_single_mode_order_two(self):
        g = Grid(np.pi, 64)
        f = np.sin(g.nodes)
        np.testing.assert_allclose(
            sobolev_scale(g, f, 2.0), 2.0 * np.sin(g.nodes), atol=1e-13
        )

    def test_inverse_pair(self, rng):
        g = Grid(10.0, 128)
        f = random_field(g, rng)
        back = sobolev_scale(g, sobolev_scale(g, f, 1.7), -1.7)
        np.testing.assert_allclose(back, f, atol=1e-12)


class TestNorms:
    def test_zero_field(self):
        g = Grid(10.0, 64)
        assert sobolev_norm(g, zeros(g), 2.0) == 0.0

    def test_single_mode_closed_forms(self):
        g = Grid(np.pi, 64)
        f = np.sin(g.nodes)
        assert sobolev_norm(g, f, 0.0) == pytest.approx(np.sqrt(np.pi), rel=1e-13)
        assert sobolev_norm(g, f, 1.0) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-13)

    def test_parseval_against_physical_quadrature(self, rng):
        g = Grid(13.0, 512)
        for _ in range(5):
            f = random_field(g, rng)
            physical = np.sqrt(g.spacing * np.sum(f**2))
            assert sobolev_norm(g, f, 0.0) == pytest.approx(physical, rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        size=st.sampled_from([2**k for k in range(3, 12)]),
        s=st.sampled_from([0, 1, 2, 3]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, 1e-150, 1e155]),
    )
    @example(size=2048, s=3, seed=0, scale=1e155)
    def test_coefficient_norm_is_the_sampled_field_norm(self, size, s, seed, scale):
        g = Grid(13.0, size)
        rng = np.random.default_rng(seed)
        m = size // 2 + 1
        coeffs = scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        coeffs[[0, -1]] = coeffs[[0, -1]].real  # the bins a real field's spectrum keeps real
        f = np.fft.irfft(coeffs, n=size)
        norm = coefficient_norm(coeffs, norm_weights(g, s))
        assert np.isfinite(norm)
        assert norm == pytest.approx(sobolev_norm(g, f, s), rel=1e-13)
        assert norm == pytest.approx(spectrum_norm(g, np.fft.fft(f), s), rel=1e-13)

    @pytest.mark.parametrize("size", [8, 256, 2048])
    def test_huge_gaussian_norm_is_finite_and_scales(self, size):
        g = Grid(20.0, size)
        gaussian = np.exp(-2.0 * g.nodes**2)
        for s in (0, 1, 2, 3):
            unit = sobolev_norm(g, gaussian, s)
            huge = sobolev_norm(g, 1e155 * gaussian, s)
            assert np.isfinite(huge)
            assert huge == pytest.approx(1e155 * unit, rel=1e-13)

    def test_norms_of_rows(self):
        g = Grid(10.0, 64)
        rows = np.fft.rfft(np.stack([np.sin(g.nodes), np.zeros(64), 3.0 * np.cos(g.nodes)]))
        norms = coefficient_norm(rows, norm_weights(g, 1.0))
        expected = [sobolev_norm(g, np.fft.irfft(r, n=64), 1.0) for r in rows]
        assert norms.shape == (3,) and norms[1] == 0.0
        np.testing.assert_allclose(norms, expected, rtol=1e-15)

    def test_linf_on_grid_peak(self):
        g = Grid(np.pi, 64)  # contains x = pi/2
        assert np.max(np.abs(np.sin(g.nodes))) == pytest.approx(1.0, abs=1e-15)
        g2 = Grid(10.0, 256)  # contains x = 0
        f = 3.0 * np.exp(-4 * g2.nodes**2)
        assert np.max(np.abs(f)) == pytest.approx(3.0, abs=1e-15)


class TestSelfAdjointness:
    def test_multiplier_self_adjoint_in_discrete_inner_product(self, rng):
        g = Grid(10.0, 256)
        k = Kernel("triangular").sqrt_symbol
        for _ in range(3):
            f, w = random_field(g, rng), random_field(g, rng)
            kf = apply_multiplier(g, f, k)
            kw = apply_multiplier(g, w, k)
            lhs = g.spacing * np.sum(kf * w)
            rhs = g.spacing * np.sum(f * kw)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestParity:
    @staticmethod
    def reflect(values):
        # x -> -x maps node j to node (N - j) % N
        return np.concatenate([values[:1], values[1:][::-1]])

    def test_even_multiplier_preserves_parity(self, rng):
        g = Grid(10.0, 256)
        base = rng.standard_normal(g.size)
        even = base + self.reflect(base)
        out = apply_multiplier(g, even, Kernel("exponential").symbol)
        np.testing.assert_allclose(out, self.reflect(out), atol=1e-13)

    def test_derivative_flips_parity(self, rng):
        g = Grid(10.0, 256)
        base = rng.standard_normal(g.size)
        even = base + self.reflect(base)
        out = derivative(g, even)
        np.testing.assert_allclose(out, -self.reflect(out), atol=1e-11)


class TestConvolutionOracle:
    def test_triangular_multiplier_matches_direct_convolution(self):
        """Trapezoidal quadrature of the physical-space convolution."""
        g = Grid(8.0, 8192)  # spacing 1/512 so the kernel kinks sit on nodes
        h = g.spacing
        f = np.exp(-4 * g.nodes**2)
        window = int(round(1.0 / h))
        offsets = np.arange(-window, window + 1)
        weights = (1.0 - np.abs(offsets * h)) * h  # zero at both ends
        conv = np.zeros_like(f)
        for off, w in zip(offsets, weights):
            conv += w * np.roll(f, off)
        tri = Kernel("triangular")
        out = apply_multiplier(g, f, tri.symbol)
        assert np.max(np.abs(out - conv)) < 1e-6


class TestDealiasedPower:
    def test_matches_pointwise_power_for_well_resolved_field(self):
        g = Grid(10.0, 512)
        u = np.exp(-g.nodes**2)  # spectrum decays far below the quarter band
        out = dealiased_power(g, u, 3)
        np.testing.assert_allclose(out, u**3, rtol=1e-12, atol=1e-13)

    def test_projects_out_of_band_content(self):
        # squaring a half-band mode creates a mode outside the band: the
        # dealiased product must keep the in-band part and drop the rest
        g = Grid(np.pi, 16)
        m = 5
        f = np.cos(m * g.nodes)
        out = dealiased_power(g, f, 2)
        # cos^2 = 1/2 + cos(2m x)/2 and 2m=10 > N/2: only the mean survives
        np.testing.assert_allclose(out, np.full(g.size, 0.5), atol=1e-13)

    def test_power_one_is_identity(self):
        g = Grid(10.0, 64)
        f = np.sin(g.nodes)
        assert dealiased_power(g, f, 1) is f

    def test_invalid_power_rejected(self):
        g = Grid(10.0, 64)
        with pytest.raises(ValueError):
            dealiased_power(g, zeros(g), 0)


class TestIntegerPower:
    """`_integer_power`, the product x*x*...*x, against numpy's powers."""

    SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 1e200, -1.5])

    def test_square_is_numpys_square_bit_for_bit(self, rng):
        normals = np.ldexp(rng.standard_normal(10**5), rng.integers(-600, 600, 10**5))
        x = np.concatenate([self.SPECIALS, normals])
        y = x.copy()
        with np.errstate(over="ignore", under="ignore"):
            expected = np.power(x, 2)
            got = _integer_power(x, 2)
            assert _integer_power(y, 2, out=y) is y
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert np.array_equal(y.view(np.int64), expected.view(np.int64))

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="long double is float64 here")
    @pytest.mark.parametrize("power", [3, 4, 5])
    def test_within_power_minus_one_ulp(self, rng, power):
        # mantissas in [1, 2) of either sign, at exponents that keep every
        # partial product and the result in the normal range
        size = 3 * 10**5
        x = np.ldexp(rng.uniform(1.0, 2.0, size), rng.integers(-1000 // power, 1000 // power, size))
        x *= rng.choice([-1.0, 1.0], size)
        exact = np.power(x.astype(np.longdouble), power).astype(float)
        ulps = np.abs(_integer_power(x, power) - exact) / np.spacing(np.abs(exact))
        assert ulps.max() <= power - 1  # measured: power - 2

    @pytest.mark.parametrize("power", [1, 2, 3, 4, 5])
    def test_exactly_odd_or_even_in_place(self, rng, power):
        x = rng.standard_normal(1000)
        y, scratch = -x, np.empty_like(x)
        assert _integer_power(y, power, out=y, scratch=scratch) is y
        assert np.array_equal(y, (-1.0) ** power * _integer_power(x, power))

