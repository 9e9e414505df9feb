"""Cosine basis machinery: analysis, differentiation, propagation, quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fbplab.errors import ConfigurationError, DomainViolationError, InstabilityError
from fbplab.spectral import (CosineSeries, Field2D, Grid, cosine_analyze,
                             constant_field, propagate_heat, write_field_csv,
                             x_second_derivative)

L = np.pi


@pytest.fixture
def small_grid():
    return Grid(L=L, T_end=1.0, n_x=64, n_t=65, n_modes=16)


class TestGrid:
    def test_antialiasing_margin(self):
        with pytest.raises(ConfigurationError):
            Grid(L=L, T_end=1.0, n_x=16, n_t=8, n_modes=16)

    def test_endpoint_stencil_needs_three_space_samples(self):
        # n_x = 2 meets the anti-aliasing margin for one mode, but the
        # one-sided endpoint slope reads three samples
        with pytest.raises(ConfigurationError, match="three space samples"):
            Grid(L=L, T_end=1.0, n_x=2, n_t=8, n_modes=1)
        assert Grid(L=L, T_end=1.0, n_x=3, n_t=8, n_modes=1).n_x == 3

    def test_nodes_include_endpoints(self, small_grid):
        assert small_grid.x[0] == 0.0
        assert small_grid.x[-1] == pytest.approx(L)
        assert small_grid.t[0] == 0.0
        assert small_grid.t[-1] == 1.0

    def test_time_index_requires_grid_sample(self, small_grid):
        assert small_grid.time_index(0.5) == 32
        with pytest.raises(ConfigurationError):
            small_grid.time_index(0.5001)


class TestAnalyze:
    def test_constant_is_mode_zero(self, small_grid):
        s = cosine_analyze(np.full(64, 3.25), L, 16)
        assert s.coeffs[0] == pytest.approx(3.25)
        assert np.max(np.abs(s.coeffs[1:])) < 1e-13

    def test_pure_mode(self, small_grid):
        s = cosine_analyze(np.cos(small_grid.x), L, 16)
        expect = np.zeros(17)
        expect[1] = 1.0
        assert np.allclose(s.coeffs, expect, atol=1e-12)

    def test_cos_squared_double_angle(self, small_grid):
        # cos^2(x) = 1/2 + cos(2x)/2; oracle = pointwise comparison
        s = cosine_analyze(np.cos(small_grid.x) ** 2, L, 16)
        assert s.coeffs[0] == pytest.approx(0.5, abs=1e-13)
        assert s.coeffs[2] == pytest.approx(0.5, abs=1e-13)
        assert np.max(np.abs(s.synthesize(small_grid.x) - np.cos(small_grid.x) ** 2)) < 1e-13

    def test_too_few_samples(self):
        with pytest.raises(ConfigurationError):
            cosine_analyze(np.zeros(8), L, 16)

    @settings(max_examples=40)
    @given(arrays(float, 9, elements=st.floats(-5, 5)))
    def test_round_trip_band_limited(self, coeffs):
        grid = Grid(L=L, T_end=1.0, n_x=64, n_t=4, n_modes=8)
        samples = CosineSeries(L, coeffs).synthesize(grid.x)
        back = cosine_analyze(samples, L, 8)
        assert np.max(np.abs(back.coeffs - coeffs)) <= 1e-12 * max(1.0, np.max(np.abs(coeffs)))

    def test_parseval(self, small_grid):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=17)
        s = CosineSeries(L, coeffs)
        vals = s.synthesize(small_grid.x)
        grid_norm = np.trapezoid(vals * vals, small_grid.x)
        coeff_norm = L * (coeffs[0] ** 2 + 0.5 * np.sum(coeffs[1:] ** 2))
        assert grid_norm == pytest.approx(coeff_norm, rel=1e-10)


class TestSecondDerivative:
    """``x_second_derivative``: v_xx of a sampled field, as every check uses it."""

    def test_against_finite_differences(self):
        rng = np.random.default_rng(5)
        series = CosineSeries(L, rng.normal(size=6) * 0.3)
        g = Grid(L=L, T_end=1.0, n_x=4001, n_t=2, n_modes=16)
        vals = series.synthesize(g.x)
        fd = np.gradient(np.gradient(vals, g.x), g.x)
        spectral = x_second_derivative(Field2D(g, np.repeat(vals[:, None], 2, axis=1)))
        interior = slice(40, -40)
        assert np.max(np.abs(fd[interior, None] - spectral[interior])) < 5e-4


class TestPropagate:
    def test_mode_zero_steady(self):
        for kappa in (-2.0, 0.0, 1.0):
            s = propagate_heat(CosineSeries(L, [2.5]), kappa, 5.0)
            assert s.coeffs[0] == 2.5

    def test_exact_exponential_vs_fine_stepping(self):
        # oracle: forward-Euler integration of w_t = w_xx for mode 1 with tiny steps
        n, dt = 200_000, 1.0 / 200_000
        w = 1.0
        for _ in range(n):
            w += dt * (-1.0) * w
        exact = propagate_heat(CosineSeries(L, [0.0, 1.0]), 1.0, 1.0).coeffs[1]
        assert exact == pytest.approx(np.exp(-1.0), rel=1e-14)
        assert exact == pytest.approx(w, rel=1e-5)

    @settings(max_examples=30)
    @given(st.floats(0, 0.6), st.floats(0, 0.6), st.floats(-1.5, 1.5))
    def test_semigroup(self, dt1, dt2, kappa):
        series = CosineSeries(L, [0.3, -1.2, 0.8])
        one = propagate_heat(propagate_heat(series, kappa, dt1), kappa, dt2)
        two = propagate_heat(series, kappa, dt1 + dt2)
        assert np.max(np.abs(one.coeffs - two.coeffs)) <= 1e-12 * np.max(np.abs(two.coeffs))

    def test_overflow_guard_names_mode(self):
        with pytest.raises(InstabilityError, match="mode 8"):
            propagate_heat(CosineSeries(L, [0.0] * 8 + [1.0]), -12.0, 1.0)

    def test_inactive_modes_do_not_trip_guard(self):
        # zero coefficients stay exactly zero no matter the exponent
        s = propagate_heat(CosineSeries(L, [1.0] + [0.0] * 30), -12.0, 10.0)
        assert np.all(s.coeffs[1:] == 0.0)

    def test_negative_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            propagate_heat(CosineSeries(L, [1.0]), 1.0, -0.1)


class TestField2D:
    def test_shape_guard(self, small_grid):
        with pytest.raises(ConfigurationError):
            Field2D(small_grid, np.zeros((3, 3)))

    def test_finite_guard(self, small_grid):
        vals = np.zeros((small_grid.n_x, small_grid.n_t))
        vals[0, 0] = np.inf
        with pytest.raises(DomainViolationError):
            Field2D(small_grid, vals)

    def test_values_immutable(self, small_grid):
        f = constant_field(small_grid, 1.0)
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0

    def test_csv_layout(self, small_grid, tmp_path):
        f = constant_field(small_grid, 1.5, "demo")
        path = tmp_path / "demo.csv"
        write_field_csv(f, path)
        lines = path.read_text().splitlines()
        assert len(lines) == small_grid.n_t + 1
        header = lines[0].split("\t")
        assert header[0] == "x"
        assert len(header) == small_grid.n_x + 1
        assert float(header[1]) == 0.0
        row = lines[1].split("\t")
        assert float(row[0]) == 0.0
        assert float(row[5]) == 1.5

    def test_csv_bytes_match_per_value_format(self, small_grid, tmp_path):
        # the row template must write exactly what format(v, '.17g') writes
        vals = np.random.default_rng(3).normal(size=(small_grid.n_x, small_grid.n_t))
        vals[0, 0], vals[1, 0] = 1e-300, -123456789.125
        path = tmp_path / "rand.csv"
        write_field_csv(Field2D(small_grid, vals), path)
        cells = lambda arr: "\t".join(format(v, ".17g") for v in arr)
        expected = "x\t" + cells(small_grid.x) + "\n" + "".join(
            format(tj, ".17g") + "\t" + cells(vals[:, j]) + "\n"
            for j, tj in enumerate(small_grid.t))
        assert path.read_text() == expected

    def test_restrict_keeps_spacing(self, small_grid):
        f = constant_field(small_grid, 2.0)
        r = f.restrict(33)
        assert r.grid.n_t == 33
        assert r.grid.dt == pytest.approx(small_grid.dt)
        assert r.grid.T_end == pytest.approx(small_grid.t[32])
