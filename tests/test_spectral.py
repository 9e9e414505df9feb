"""Cosine basis machinery: analysis, differentiation, propagation, quadrature."""

import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fbplab.errors import ConfigurationError, DomainViolationError, InstabilityError
from fbplab.spectral import (BOUNDARY_SLOPE_TOL, CosineSeries, Field2D, Grid,
                             analyze_columns, boundary_slopes, cosine_analyze,
                             constant_field, format_rows, mode_exponential,
                             write_field_csv, x_second_derivative)
from oracles import propagate_heat

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

    def test_decay_is_not_refused(self):
        # exponent -1024 is a decay to zero, not an overflow
        s = propagate_heat(CosineSeries(L, [0.0] * 32 + [1.0]), 1.0, 1.0)
        assert np.all(s.coeffs == 0.0)

    def test_guard_on_active_modes_only(self):
        expo = np.array([[0.0, 1.0], [800.0, 900.0], [650.0, 701.0]])
        out = mode_exponential(expo, [True, False, False], "probe")
        assert np.array_equal(out, np.vstack([np.exp(expo[0]), np.ones((2, 2))]))
        with pytest.raises(InstabilityError, match="probe: mode 2 exponent 701.0"):
            mode_exponential(expo, [True, False, True], "probe")
        assert np.array_equal(CosineSeries(L, [1.0, 0.0, -2.0]).active, [True, False, True])

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

    def test_modes_are_the_frozen_projection(self, small_grid):
        vals = np.random.default_rng(4).normal(size=(small_grid.n_x, small_grid.n_t))
        f = Field2D(small_grid, vals)
        assert f.modes is f.modes          # projected once, then kept
        assert f.modes.tobytes() == analyze_columns(f.values, L, small_grid.n_modes).tobytes()
        with pytest.raises(ValueError):
            f.modes[0, 0] = 1.0
        with pytest.raises(AttributeError):
            f.modes = np.zeros_like(f.modes)

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


def per_value_rows(values) -> bytes:
    """The oracle: format(v, '.17g') per cell, tab-separated rows."""
    return "".join("\t".join(format(v, ".17g") for v in row) + "\n"
                   for row in np.asarray(values).tolist()).encode()


def row_template_csv(f: Field2D, path) -> None:
    """The field writer before the numpy encoder: one '%.17g' template per row."""
    cells = "\t".join(["%.17g"] * f.grid.n_x) + "\n"
    row = "%.17g\t" + cells
    with open(path, "w") as fh:
        fh.write("x\t" + cells % tuple(f.grid.x.tolist()))
        for tj, vals in zip(f.grid.t.tolist(), f.values.T):
            fh.write(row % (tj, *vals.tolist()))


POWERS_OF_TEN = [np.nextafter(10.0 ** k, toward)
                 for k in range(-6, 18) for toward in (0.0, np.inf)]
# rows of 1e-8 .. 1e17 in magnitude: every exponent class of the numpy path,
# and the fallback on either side of it
EVERY_CLASS = (np.random.default_rng(11).uniform(1.0, 10.0, (26, 40))
               * (10.0 ** np.arange(-8, 18) * (-1.0) ** np.arange(26))[:, None])


class TestFormatRows:
    """``format_rows`` writes exactly the bytes of Python's '%.17g'."""

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(np.array([[2.0 ** -25, -(2.0 ** -25)]]))           # half-even tie
    @example(np.array([[1e15 + 0.25, 1e15 + 0.75, 123456789012345.625]]))   # ties, fixed
    @example(np.array([POWERS_OF_TEN, [-x for x in POWERS_OF_TEN]]))
    @example(np.array([[9.9999999999999995e-05, 1e16, 1e17]]))
    @example(np.array([[0.0, -0.0, 5e-324, 1.7976931348623157e308]]))
    @example(EVERY_CLASS)
    def test_matches_per_value_format(self, values):
        assert format_rows(values) == per_value_rows(values)


class TestFieldFileEdgeCases:
    """Whole fields whose every cell takes one special path, byte for byte
    against the row template the encoder replaced."""

    @pytest.mark.parametrize("make", [
        lambda shape, rng: np.zeros(shape),                       # the baseline weight
        lambda shape, rng: np.where(rng.random(shape) < 0.5, -0.0, rng.normal(size=shape)),
        lambda shape, rng: 1e-7 * rng.normal(size=shape),         # all exponent notation
    ], ids=["all-zero", "negative-zero", "exponent-notation"])
    def test_bytes_match_row_template(self, small_grid, tmp_path, make):
        f = Field2D(small_grid, make((small_grid.n_x, small_grid.n_t),
                                     np.random.default_rng(5)))
        write_field_csv(f, tmp_path / "new.csv")
        row_template_csv(f, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_exponent_notation_field_is_not_slower(self, tmp_path):
        # every cell falls back to Python's '%.17g'; the fallback formats a
        # chunk's cells with one format string, so it keeps the row template's pace.
        # Each repetition times both writers back to back, so host drift hits both.
        grid = Grid(L=L, T_end=1.0, n_x=256, n_t=257, n_modes=16)
        f = Field2D(grid, 1e-7 * np.random.default_rng(6).normal(size=(256, 257)))
        writers = ((write_field_csv, tmp_path / "new.csv"),
                   (row_template_csv, tmp_path / "old.csv"))
        best = [np.inf, np.inf]
        for _ in range(5):
            for i, (write, path) in enumerate(writers):
                start = time.perf_counter()
                write(f, path)
                best[i] = min(best[i], time.perf_counter() - start)
        new, old = best
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert new <= 1.5 * old


class TestBoundarySlopes:
    @pytest.mark.parametrize("k", [8, 16, 24, 32])
    def test_band_limited_columns_read_round_off(self, k):
        # the bare one-sided stencil reads its truncation error (1.5e-3 at k = 8)
        x = np.linspace(0.0, L, 128)
        vals = 0.1 * np.cos(k * x)[:, None] * np.array([1.0, -2.0])
        assert np.max(boundary_slopes(vals, analyze_columns(vals, L, 32), L)) < 1e-13

    def test_ramp_reads_its_slope(self):
        x = np.linspace(0.0, L, 128)
        ramp = (0.1 * x / L)[:, None]
        slopes = boundary_slopes(ramp, analyze_columns(ramp, L, 32), L)
        assert slopes.shape == (2, 1)
        assert np.all(slopes > BOUNDARY_SLOPE_TOL)
