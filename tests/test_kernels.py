"""Kernel symbol values against closed forms and brute-force quadrature oracles."""

import numpy as np
import pytest

from nlwaves import InvalidKernelError, InvalidSpecError, Kernel


def exponential_symbol_oracle(xi):
    """Quadrature of the defining integral: int 0.5*exp(-|x|)*cos(xi x) dx.

    Trapezoid on a wide truncated interval; the tail beyond x=40 is below
    1e-17 so truncation is invisible at the tolerances used here.
    """
    x = np.linspace(0.0, 40.0, 400_001)
    f = 0.5 * np.exp(-x) * np.cos(xi * x)
    return 2.0 * np.trapezoid(f, x)


def triangular_symbol_oracle(xi):
    """Gauss-Legendre quadrature of int_{-1}^{1} (1-|x|) e^{-i xi x} dx.

    The imaginary part vanishes by symmetry, so this is 2*int_0^1 (1-x)cos(xi x).
    128 nodes resolve oscillations up to |xi| ~ 80 to machine precision.
    """
    nodes, weights = np.polynomial.legendre.leggauss(128)
    x = 0.5 * (nodes + 1.0)  # map to [0, 1]
    w = 0.5 * weights
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    vals = 2.0 * np.sum(w * (1.0 - x) * np.cos(np.outer(xi, x)), axis=1)
    return vals


@pytest.fixture(scope="module")
def builtins():
    return {name: Kernel.from_name(name) for name in ("dirac", "exponential", "triangular")}


class TestSymbolValues:
    def test_dirac_is_identically_one(self, builtins):
        assert builtins["dirac"].symbol(3.7) == 1.0
        xi = np.linspace(-50, 50, 101)
        assert np.all(builtins["dirac"].symbol(xi) == 1.0)

    def test_triangular_at_pi(self, builtins):
        assert builtins["triangular"].symbol(np.pi) == pytest.approx(4 / np.pi**2, rel=1e-14)

    def test_triangular_at_zero_removable_singularity(self, builtins):
        assert builtins["triangular"].symbol(0.0) == 1.0

    def test_triangular_taylor_branch_agrees_with_closed_form(self, builtins):
        k = builtins["triangular"]
        # just inside the branch cutoff the closed form is still well
        # conditioned, so the two formulas must agree to round-off
        xi = 1.9e-4
        closed = (2 * np.sin(xi / 2) / xi) ** 2
        assert k.symbol(xi) == pytest.approx(closed, abs=1e-15)

    def test_exponential_against_quadrature_oracle(self, builtins):
        k = builtins["exponential"]
        for xi in (0.3, 1.0, 2.5):
            assert k.symbol(xi) == pytest.approx(exponential_symbol_oracle(xi), rel=1e-7)
        assert k.symbol(1.0) == pytest.approx(0.5, rel=1e-12)

    def test_triangular_against_quadrature_oracle_on_grid(self, builtins):
        # grid frequencies of a realistic box, incl. the exact zeros at 2*pi*m
        xi = np.pi / 20.0 * np.arange(0, 256)
        expected = triangular_symbol_oracle(xi)
        np.testing.assert_allclose(
            builtins["triangular"].symbol(xi), expected, rtol=1e-8, atol=1e-12
        )


class TestSqrtSymbol:
    def test_dirac(self, builtins):
        assert builtins["dirac"].sqrt_symbol(123.4) == 1.0

    def test_triangular_at_pi(self, builtins):
        assert builtins["triangular"].sqrt_symbol(np.pi) == pytest.approx(2 / np.pi, rel=1e-14)

    def test_exponential_at_one(self, builtins):
        expected = np.sqrt(exponential_symbol_oracle(1.0))
        assert builtins["exponential"].sqrt_symbol(1.0) == pytest.approx(expected, rel=1e-7)

    def test_square_recovers_symbol(self, builtins):
        xi = np.linspace(-40, 40, 1001)
        for k in builtins.values():
            np.testing.assert_allclose(
                k.sqrt_symbol(xi) ** 2, k.symbol(xi), rtol=1e-14, atol=1e-15
            )

    def test_negative_symbol_rejected(self):
        k = Kernel.from_table([0.0, 1.0, 2.0], [1.0, 0.5, -0.3])
        with pytest.raises(InvalidKernelError):
            k.sqrt_symbol(np.array([0.0, 2.0]))


class TestScaledSymbol:
    def test_scaling_moves_the_argument(self, builtins):
        k = builtins["triangular"]
        assert k.scaled_symbol(0.5, 2 * np.pi) == pytest.approx(4 / np.pi**2, rel=1e-14)

    def test_zero_frequency_is_one_for_any_delta(self, builtins):
        for k in builtins.values():
            for delta in (0.01, 1.0, 7.3):
                assert k.scaled_symbol(delta, 0.0) == 1.0

    def test_exponential_with_delta_two(self, builtins):
        expected = exponential_symbol_oracle(1.0)
        assert builtins["exponential"].scaled_symbol(2.0, 0.5) == pytest.approx(
            expected, rel=1e-7
        )

    def test_unit_scale_is_identity(self, builtins):
        xi = np.linspace(-30, 30, 301)
        for k in builtins.values():
            assert np.array_equal(k.scaled_symbol(1.0, xi), k.symbol(xi))

    def test_nonpositive_delta_rejected(self, builtins):
        with pytest.raises(ValueError):
            builtins["triangular"].scaled_symbol(0.0, 1.0)
        with pytest.raises(ValueError):
            builtins["triangular"].scaled_sqrt_symbol(-1.0, 1.0)


class TestTaylorDeviation:
    def test_dirac_deviation_is_zero(self, builtins):
        assert builtins["dirac"].taylor_deviation(1.0, 2.0) == 0.0

    def test_triangular_at_pi(self, builtins):
        expected = (1 - 2 / np.pi) / np.pi**2
        assert builtins["triangular"].taylor_deviation(np.pi, 2.0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_exponential_small_xi_plateau(self, builtins):
        # ratio |k-1|/xi^2 must stabilize (at 1/2) as xi -> 0
        vals = [builtins["exponential"].taylor_deviation(x, 2.0) for x in (1e-1, 1e-2, 1e-3)]
        assert all(np.isfinite(v) for v in vals)
        assert max(vals) / min(vals) < 1.01

    def test_zero_frequency_rejected(self, builtins):
        with pytest.raises(ValueError):
            builtins["triangular"].taylor_deviation(0.0, 2.0)

    def test_bad_theta_rejected(self, builtins):
        with pytest.raises(ValueError):
            builtins["triangular"].taylor_deviation(1.0, 2.5)


class TestValidate:
    def test_builtins_pass_on_dense_grid(self, builtins):
        xi = np.linspace(-80, 80, 4001)
        for name, k in builtins.items():
            report = k.validate(xi)
            assert report.passed, f"{name}: {report.failures}"
            assert report.evenness_residual == 0.0
            assert report.normalization_residual <= 1e-12

    def test_exponential_max_at_zero(self, builtins):
        xi = np.linspace(-80, 80, 4001)
        report = builtins["exponential"].validate(xi)
        assert report.symbol_max == pytest.approx(1.0, abs=1e-12)
        assert report.symbol_min >= 0.0

    def test_negative_table_entry_fails_nonnegativity(self):
        k = Kernel.from_table([0.0, 1.0, 2.0], [1.0, 0.2, -0.5])
        report = k.validate(np.linspace(0, 2, 50))
        assert not report.passed
        assert "nonnegativity" in report.failures

    def test_empty_sample_list_rejected(self, builtins):
        with pytest.raises(ValueError):
            builtins["dirac"].validate([])


class TestInvariants:
    def test_evenness_exact_on_grid_frequencies(self, builtins):
        xi = np.pi / 20.0 * np.arange(-512, 512)
        for k in builtins.values():
            assert np.array_equal(k.symbol(xi), k.symbol(-xi))

    def test_symbols_bounded_by_one(self, builtins):
        xi = np.pi / 20.0 * np.arange(-512, 512)
        for k in builtins.values():
            vals = k.symbol(xi)
            assert np.all(vals >= 0.0)
            assert np.all(vals <= 1.0 + 1e-15)

    def test_sqrt_symbol_slope_vanishes_at_zero(self, builtins):
        # central finite difference of sqrt_symbol at 0
        for h in (1e-2, 1e-3):
            for k in builtins.values():
                fd = (k.sqrt_symbol(h) - k.sqrt_symbol(-h)) / (2 * h)
                assert abs(fd) < 1e-6


class TestTableKernel:
    def test_loads_from_file_and_interpolates(self, tmp_path):
        xi = np.linspace(0.0, 5.0, 200)
        tri = Kernel.from_name("triangular")
        path = tmp_path / "tri_table.txt"
        np.savetxt(path, np.column_stack([xi, tri.symbol(xi)]))
        table = Kernel.from_file(path)
        probe = np.linspace(-4.9, 4.9, 401)
        np.testing.assert_allclose(table.symbol(probe), tri.symbol(probe), atol=2e-4)
        assert table.validate(probe).passed

    def test_edge_clamping(self):
        k = Kernel.from_table([0.0, 1.0], [1.0, 0.25])
        assert k.symbol(10.0) == 0.25
        assert k.symbol(-10.0) == 0.25

    def test_malformed_tables_rejected(self):
        with pytest.raises(InvalidSpecError):
            Kernel.from_table([1.0, 0.5], [1.0, 0.9])  # not ascending
        with pytest.raises(InvalidSpecError):
            Kernel.from_table([-1.0, 0.5], [1.0, 0.9])  # negative frequency
        with pytest.raises(InvalidSpecError):
            Kernel.from_table([0.0], [1.0])  # too short
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidSpecError):
                Kernel.from_table([0.0, 1.0], [1.0, bad])  # non-finite value
            with pytest.raises(InvalidSpecError):
                Kernel.from_table([0.0, bad], [1.0, 0.5])  # non-finite frequency
