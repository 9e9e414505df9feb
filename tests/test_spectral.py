"""Cosine basis machinery: analysis, differentiation, propagation, quadrature."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fbplab.errors import ConfigurationError, DomainViolationError, InstabilityError
from fbplab.spectral import (BOUNDARY_SLOPE_TOL, CosineSeries, Field2D, Grid,
                             analyze_columns, boundary_slopes,
                             constant_field, field_from_modes, format_rows, mode_exponential,
                             write_field_csv)
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

    @pytest.mark.parametrize("n_t", [97, 256, 1024, 2048])
    def test_window_times_are_the_first_samples(self, n_t):
        # rebuilt from t[n-1], the 97-sample grid's windows n = 26 and n = 51 would
        # read t and dt one bit off the grid's own
        grid = Grid(L=L, T_end=1.0, n_x=64, n_t=n_t, n_modes=16)
        assert grid.t.tobytes() == np.linspace(0.0, 1.0, n_t).tobytes()
        for n in range(2, n_t + 1):
            window = grid.with_time(n)
            assert window.dt == grid.dt, n
            assert window.t.tobytes() == grid.t[:n].tobytes(), n


def analyze(samples: np.ndarray, n_modes: int) -> np.ndarray:
    """The cosine coefficients of one profile, by ``analyze_columns``."""
    return analyze_columns(samples[:, None], L, n_modes)[:, 0]


class TestAnalyze:
    def test_constant_is_mode_zero(self, small_grid):
        coeffs = analyze(np.full(64, 3.25), 16)
        assert coeffs[0] == pytest.approx(3.25)
        assert np.max(np.abs(coeffs[1:])) < 1e-13

    def test_pure_mode(self, small_grid):
        coeffs = analyze(np.cos(small_grid.x), 16)
        expect = np.zeros(17)
        expect[1] = 1.0
        assert np.allclose(coeffs, expect, atol=1e-12)

    def test_cos_squared_double_angle(self, small_grid):
        # cos^2(x) = 1/2 + cos(2x)/2; oracle = pointwise comparison
        coeffs = analyze(np.cos(small_grid.x) ** 2, 16)
        assert coeffs[0] == pytest.approx(0.5, abs=1e-13)
        assert coeffs[2] == pytest.approx(0.5, abs=1e-13)
        s = CosineSeries(L, coeffs)
        assert np.max(np.abs(s.synthesize(small_grid.x) - np.cos(small_grid.x) ** 2)) < 1e-13

    @settings(max_examples=40)
    @given(arrays(float, 9, elements=st.floats(-5, 5)))
    def test_round_trip_band_limited(self, coeffs):
        grid = Grid(L=L, T_end=1.0, n_x=64, n_t=4, n_modes=8)
        samples = CosineSeries(L, coeffs).synthesize(grid.x)
        back = analyze(samples, 8)
        assert np.max(np.abs(back - coeffs)) <= 1e-12 * max(1.0, np.max(np.abs(coeffs)))

    def test_parseval(self, small_grid):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=17)
        s = CosineSeries(L, coeffs)
        vals = s.synthesize(small_grid.x)
        grid_norm = np.trapezoid(vals * vals, small_grid.x)
        coeff_norm = L * (coeffs[0] ** 2 + 0.5 * np.sum(coeffs[1:] ** 2))
        assert grid_norm == pytest.approx(coeff_norm, rel=1e-10)


class TestSecondDerivative:
    """``Field2D.xx``: v_xx of a sampled field, as every check uses it."""

    def test_against_finite_differences(self):
        rng = np.random.default_rng(5)
        series = CosineSeries(L, rng.normal(size=6) * 0.3)
        g = Grid(L=L, T_end=1.0, n_x=4001, n_t=2, n_modes=16)
        vals = series.synthesize(g.x)
        fd = np.gradient(np.gradient(vals, g.x), g.x)
        spectral = Field2D(g, np.repeat(vals[:, None], 2, axis=1)).xx
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

    def test_restrict_holds_its_window(self, small_grid):
        # the strided window is copied once: the cut field owns exactly its samples
        vals = np.random.default_rng(7).normal(size=(small_grid.n_x, small_grid.n_t))
        f = Field2D(small_grid, vals)
        r = f.restrict(33)
        assert r.values.base is None and r.values.flags.c_contiguous
        assert r.values.tobytes() == vals[:, :33].tobytes()
        assert f.restrict(small_grid.n_t).values.base is f.values
        assert r.modes.tobytes() == analyze_columns(vals[:, :33].copy(), L,
                                                    small_grid.n_modes).tobytes()
        with pytest.raises(ValueError):
            r.values[0, 0] = 1.0

    def test_holds_a_read_only_array_and_copies_a_writeable_one(self, small_grid):
        vals = np.random.default_rng(8).normal(size=(small_grid.n_x, small_grid.n_t))
        copied = Field2D(small_grid, vals)
        assert not np.shares_memory(copied.values, vals)
        assert copied.values.tobytes() == vals.tobytes()
        vals.flags.writeable = False
        assert Field2D(small_grid, vals).values is vals

    @pytest.mark.parametrize("layout", [
        lambda a: a[::-1],
        lambda a: np.broadcast_to(a[:1], a.shape),
        np.asfortranarray,
        lambda a: np.repeat(a, 2, axis=1)[:, ::2],
    ], ids=["reversed", "broadcast-row", "column-major", "strided-columns"])
    def test_held_samples_project_as_their_contiguous_copy(self, small_grid, layout):
        # a read-only broadcast is held as given; any other layout is copied once,
        # laid out
        view = layout(np.random.default_rng(9).normal(size=(small_grid.n_x, small_grid.n_t)))
        view.flags.writeable = False
        f = Field2D(small_grid, view)
        assert (f.values is view) == (0 in view.strides)
        assert f.values.flags.c_contiguous or f.values is view
        laid_out = Field2D(small_grid, np.ascontiguousarray(view))
        assert f.modes.tobytes() == laid_out.modes.tobytes()

    def test_field_from_modes_forms_its_samples_once(self):
        grid = Grid(L=L, T_end=1.0, n_x=128, n_t=1024, n_modes=32)
        modes = np.random.default_rng(10).normal(size=(grid.n_modes + 1, grid.n_t))
        grid.x  # the nodes are kept by the grid, outside the trace
        tracemalloc.start()
        try:
            field_from_modes(grid, modes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * grid.n_x * grid.n_t * 8

    def test_constant_field_rejects_non_finite(self, small_grid):
        with pytest.raises(DomainViolationError):
            constant_field(small_grid, np.nan)

    def test_broadcast_samples_are_checked(self, small_grid):
        shape = (small_grid.n_x, small_grid.n_t)
        row, column = np.zeros(small_grid.n_t), np.zeros((small_grid.n_x, 1))
        row[3], column[5] = np.inf, np.nan
        for held in (np.broadcast_to(np.nan, shape), np.broadcast_to(row, shape),
                     np.broadcast_to(column, shape)):
            with pytest.raises(DomainViolationError):
                Field2D(small_grid, held)

    def test_constant_field_checks_its_one_value(self):
        grid = Grid(L=L, T_end=1.0, n_x=512, n_t=2048, n_modes=128)
        tracemalloc.start()
        try:
            constant_field(grid, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024     # a boolean mask of every sample takes 1 MB


@pytest.mark.parametrize("value", [0.0, -0.0, 1.5, 1e-7, 5e-324],
                         ids=["zero", "negative-zero", "fixed", "fallback", "subnormal"])
class TestConstantField:
    """A constant field holds one float64 and reads as the field it stands for."""

    def test_holds_one_element(self, small_grid, value):
        f = constant_field(small_grid, value)
        assert f.values.shape == (small_grid.n_x, small_grid.n_t)
        assert f.values.strides == (0, 0)
        low, high = np.lib.array_utils.byte_bounds(f.values)
        assert high - low == f.values.itemsize
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0

    def test_matches_a_materialized_field(self, small_grid, tmp_path, value):
        f = constant_field(small_grid, value, "c")
        full = Field2D(small_grid, np.full((small_grid.n_x, small_grid.n_t), value), "c")
        assert f.values.tobytes() == full.values.tobytes()
        assert f.modes.tobytes() == full.modes.tobytes()
        r, r_full = f.restrict(33), full.restrict(33)
        assert r.values.strides == (0, 0)
        assert r.values.tobytes() == r_full.values.tobytes()
        assert r.modes.tobytes() == r_full.modes.tobytes()
        for name, field in (("one", f), ("full", full)):
            write_field_csv(field, tmp_path / f"{name}.csv")
        row_template_csv(full, tmp_path / "template.csv")
        one = (tmp_path / "one.csv").read_bytes()
        assert one == (tmp_path / "full.csv").read_bytes()
        assert one == (tmp_path / "template.csv").read_bytes()


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
        # chunk's cells with one format string, at about 1.2x the row template's
        # time.  Each repetition times both writers back to back, so host drift
        # hits both, and the median of the paired ratios ignores a drifting pair.
        grid = Grid(L=L, T_end=1.0, n_x=256, n_t=257, n_modes=16)
        f = Field2D(grid, 1e-7 * np.random.default_rng(6).normal(size=(256, 257)))
        writers = ((write_field_csv, tmp_path / "new.csv"),
                   (row_template_csv, tmp_path / "old.csv"))
        ratios = []
        for _ in range(15):
            times = []
            for write, path in writers:
                start = time.perf_counter()
                write(f, path)
                times.append(time.perf_counter() - start)
            ratios.append(times[0] / times[1])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert np.median(ratios) <= 1.5


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
