"""Kernel symbol values against closed forms and brute-force quadrature oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlwaves import InvalidSpecError, Kernel


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
    return {name: Kernel(name) for name in ("dirac", "exponential", "triangular")}


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
        with pytest.raises(InvalidSpecError, match=">= 0"):
            Kernel.from_table([0.0, 1.0, 2.0], [1.0, 0.5, -0.3])


class TestScaledSymbol:
    def test_scaling_moves_the_argument(self, builtins):
        k = builtins["triangular"]
        assert k.scaled_sqrt_symbol(0.5, 2 * np.pi) == pytest.approx(2 / np.pi, rel=1e-14)

    def test_zero_frequency_is_one_for_any_delta(self, builtins):
        for k in builtins.values():
            for delta in (0.01, 1.0, 7.3):
                assert k.scaled_sqrt_symbol(delta, 0.0) == 1.0

    def test_exponential_with_delta_two(self, builtins):
        expected = np.sqrt(exponential_symbol_oracle(1.0))
        assert builtins["exponential"].scaled_sqrt_symbol(2.0, 0.5) == pytest.approx(
            expected, rel=1e-7
        )

    def test_unit_scale_is_identity(self, builtins):
        xi = np.linspace(-30, 30, 301)
        for k in builtins.values():
            assert np.array_equal(k.scaled_sqrt_symbol(1.0, xi), k.sqrt_symbol(xi))

    def test_nonpositive_delta_rejected(self, builtins):
        with pytest.raises(ValueError):
            builtins["triangular"].scaled_sqrt_symbol(0.0, 1.0)
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
    """The hypotheses hold for every kernel that exists: the built-in formulas
    by construction, a table by the checks it passes when it is built."""

    def test_builtins_pass_on_dense_grid(self, builtins):
        xi = np.linspace(-80, 80, 4001)
        for name, k in builtins.items():
            vals = k.symbol(xi)
            assert np.array_equal(vals, k.symbol(-xi)), name
            assert k.symbol(0.0) == 1.0, name
            assert vals.max() == vals[xi == 0.0][0] == 1.0, name
            assert vals.min() >= 0.0, name

    def test_exponential_max_at_zero(self, builtins):
        xi = np.linspace(-80, 80, 4001)
        vals = builtins["exponential"].symbol(xi)
        assert np.argmax(vals) == 2000 and xi[2000] == 0.0
        assert vals.max() == 1.0
        assert vals.min() >= 0.0

    def test_negative_table_entry_fails_nonnegativity(self):
        with pytest.raises(InvalidSpecError, match=">= 0"):
            Kernel.from_table([0.0, 1.0, 2.0], [1.0, 0.2, -0.5])


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
        tri = Kernel("triangular")
        path = tmp_path / "tri_table.txt"
        np.savetxt(path, np.column_stack([xi, tri.symbol(xi)]))
        table = Kernel.from_file(path)
        probe = np.linspace(-4.9, 4.9, 401)
        np.testing.assert_allclose(table.symbol(probe), tri.symbol(probe), atol=2e-4)

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

    def test_normalization_checked(self):
        Kernel.from_table([0.0, 1.0], [1.0 + 9e-9, 0.5])
        for b0 in (2.0, 1.0 + 2e-8, 0.5):
            with pytest.raises(InvalidSpecError, match="not 1 within"):
                Kernel.from_table([0.0, 1.0], [b0, 0.5])

    def test_overflowing_slope_rejected(self):
        # values in [0, 1] whose slope overflows over the smallest subnormal gap
        with pytest.raises(InvalidSpecError, match="slope overflows after xi = 0"):
            Kernel.from_table([0.0, 5e-324, 1.0], [1.0, 0.0, 0.0])

    def test_value_above_b0_rejected(self):
        Kernel.from_table([0.0, 1.0, 2.0], [1.0, 1.0 + 1e-8, 0.0])
        for peak in (1.0 + 2e-8, 1.5, 1e300):
            with pytest.raises(InvalidSpecError, match="exceeds b\\(0\\) = 1"):
                Kernel.from_table([0.0, 1.0, 2.0], [1.0, peak, 0.0])

    @pytest.mark.parametrize("text", ["", "# header only\n", "0 1\n"])
    def test_short_file_names_too_few_rows(self, tmp_path, text):
        path = tmp_path / "kern.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidSpecError, match="at least two rows"):
                Kernel.from_file(path)


@st.composite
def tables(draw):
    """A table that passes construction: ascending xi >= 0 and values in
    [0, 1], zeros included, with b(0) within 1e-8 of 1."""
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=8))
    xi = draw(st.floats(0.0, 2.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    rest = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    values = [1.0 + draw(st.floats(-9e-9, 9e-9))] + draw(
        st.lists(rest, min_size=len(gaps), max_size=len(gaps))
    )
    return xi, np.array(values)


class TestTableHypotheses:
    @settings(max_examples=200, deadline=None)
    @given(table=tables(), probe=st.lists(st.floats(-100.0, 100.0), max_size=50))
    def test_built_table_satisfies_hypotheses(self, table, probe):
        xi, values = table
        k = Kernel.from_table(xi, values)
        # the nodes and their neighbouring floats, where interpolation rounds
        xs = np.concatenate([probe, xi, np.nextafter(xi, 0.0), np.nextafter(xi, np.inf)])
        vals = k.symbol(xs)
        assert np.isfinite(vals).all()
        assert (vals >= 0.0).all() and (vals <= 1.0 + 1e-8).all()
        assert np.array_equal(vals, k.symbol(-xs))
        assert abs(k.symbol(0.0) - 1.0) <= 1e-8
        assert np.isfinite(k.sqrt_symbol(xs)).all()

    @settings(max_examples=100, deadline=None)
    @given(table=tables(), data=st.data())
    def test_table_breaking_a_hypothesis_rejected(self, table, data):
        xi, values = table
        broken = data.draw(st.sampled_from(["negative entry", "b(0) off", "above b(0)"]))
        entry = data.draw(st.integers(0, len(values) - 1))
        if broken == "negative entry":
            values[entry] = -data.draw(st.floats(1e-300, 1e6))
        elif broken == "b(0) off":
            values[0] = 1.0 + data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(
                st.floats(2e-8, 1e3)
            )
        else:
            values[entry] = 1.0 + data.draw(st.floats(2e-8, 1e300))
        with pytest.raises(InvalidSpecError):
            Kernel.from_table(xi, values)
