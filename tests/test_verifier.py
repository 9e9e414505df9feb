"""Admissibility checks: positive cases on certified triples, negative
controls on manufactured violators, and the cross-form consistency checks."""

import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.integrate import cumulative_simpson, simpson

from fbplab import solvers, spectral
from fbplab.controls import control_table, negative_controls
from fbplab.counterexample import construct_family
from fbplab.errors import ConfigurationError, DomainViolationError, GridMismatchError
from fbplab.phase_model import (EntropyFlux, PhaseParams, beta0_extended, beta2_extended,
                                branch_gap_extended, branch_image_primitives,
                                certificate_from_primitives, entropy_primitive)
from fbplab.solvers import solve_pseudoparabolic, solve_unstable_backward
from fbplab.spectral import (CosineSeries, Field2D, Grid, analyze_columns,
                             constant_field, x_derivative_columns)
from fbplab.verifier import (BumpTest, FinalZeroTest, ModeProductTest, SolutionTriple,
                             VerificationReport, CheckResult,
                             certificate_identity_error, default_entropy_tests,
                             default_flux_battery, default_weak_tests,
                             distinctness, entropy_inequality_residual,
                             monotonicity_report, pointwise_certificate, relaxation_report,
                             run_triple_battery,
                             running_simpson, structural_check,
                             viscous_entropy_audit, viscous_entropy_residual,
                             weak_residual, _flux_pass, _row_blocks, _weighted_factors)
from oracles import (psi, psi_t, psi_x, random_diagrams, running_simpson_oracle,
                     uncut_sourced_triple)

L = np.pi


@pytest.fixture(scope="module")
def two_samples(family):
    """The 1-mode source's triple on its first two samples, with t_bar = 0."""
    t = family[1]
    return SolutionTriple(t.u.restrict(2), t.v.restrict(2), t.lam.restrict(2), 0.0, "short",
                          lam_t=t.lam_t.restrict(2), source=t.source)


@pytest.fixture(scope="module")
def past_horizon(default_sources, backward, params, grid):
    """The 1-mode source's triple on the whole grid, past its certified horizon."""
    return uncut_sourced_triple(default_sources[1], backward.v_bar.values[:, 0], params, grid)


class TestWeakResidual:
    def test_baseline_classical_solution(self, family, backward):
        assert weak_residual(family[0], backward.u0) <= 1e-6

    def test_sourced_triples(self, family, backward):
        for triple in family[1:]:
            assert weak_residual(triple, backward.u0) <= 1e-6

    def test_refinement_decay(self, params):
        # quadrature error shrinks by at least 4x per doubling until round-off
        errs = []
        for n in (33, 65, 129):
            g = Grid(L=L, T_end=1.0, n_x=n, n_t=n, n_modes=8)
            back = solve_unstable_backward(CosineSeries(L, [0.0, 0.1]), params, g)
            zero = constant_field(g, 0.0)
            triple = SolutionTriple(back.u_bar, back.v_bar, zero, 1.0, "baseline",
                                    lam_t=zero, source=np.zeros(g.n_x))
            errs.append(weak_residual(triple, back.u0))
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= coarse / 4 + 1e-12

    def test_grid_mismatch(self, family, params):
        with pytest.raises(ConfigurationError):
            weak_residual(family[0], np.zeros(7))
        # a 1-sample datum would broadcast against every row of u(., 0)
        with pytest.raises(GridMismatchError):
            structural_check(family[1], np.zeros(1), params)


class TestEntropyInequality:
    def test_zero_test_function(self, family, params):
        # a time window beyond the rectangle synthesizes to the zero function
        dead = ModeProductTest(1, 2.0, 2.5)
        val = entropy_inequality_residual(family[1],
                                          EntropyFlux.identity(), dead, params)
        assert val == 0.0

    def test_constant_flux_on_classical_solution(self, family, params):
        test = BumpTest(0.5 * L, 0.5, 0.2 * L, 0.2)
        val = entropy_inequality_residual(family[0],
                                          EntropyFlux.clamp(3.0, 3.0), test, params)
        assert val >= -1e-6

    @pytest.mark.parametrize("flux", default_flux_battery(), ids=lambda f: f.label())
    def test_certified_triples_admissible(self, family, params, flux):
        for triple in family:
            for test in default_entropy_tests(triple.grid.L, triple.grid.T_end):
                assert entropy_inequality_residual(triple, flux, test, params) >= -1e-6

    def test_note_names_the_worst_pair(self, family, backward, params):
        # the row's note names the (flux, test) pair whose integral is the residual
        for triple in family:
            entry = run_triple_battery(triple, backward.u0, params).entry("entropy-inequality")
            fluxes = {f.label(): f for f in default_flux_battery()}
            tests = {t.label(): t
                     for t in default_entropy_tests(triple.grid.L, triple.grid.T_end)}
            flux_label, test_label = entry.note.split("; worst ")[1].split(" x ")
            assert entropy_inequality_residual(triple, fluxes[flux_label], tests[test_label],
                                               params) == entry.residual


class TestPointwiseCertificate:
    def test_zero_weight_triple_is_exactly_zero(self, family, params):
        for flux in default_flux_battery():
            assert pointwise_certificate(family[0], flux, params) == 0.0

    def test_constant_flux_gives_zero(self, family, params):
        constant = EntropyFlux.clamp(1.0, 1.0)
        assert pointwise_certificate(family[1], constant,
                                     params) == pytest.approx(0.0, abs=1e-12)

    def test_sourced_triples_strictly_positive_factors(self, family, params):
        # both factors positive away from t = 0 for the unit source
        triple = family[1]
        val = pointwise_certificate(triple, EntropyFlux.identity(), params)
        assert val >= 0.0

    def test_identity_defect_small_at_default_resolution(self, family, params):
        for flux in (EntropyFlux.identity(), EntropyFlux.saturating(1.0)):
            for triple in family:
                assert certificate_identity_error(triple, flux, params) < 1e-3


class TestOneEntropyPass:
    """The battery's entropy residuals come from the standalone checks' formulas."""

    def test_battery_equals_standalone_checks(self, family, backward, params):
        fluxes = default_flux_battery()
        for triple in family:
            rep = run_triple_battery(triple, backward.u0, params)
            tests = default_entropy_tests(triple.grid.L, triple.grid.T_end)
            entropy = min(entropy_inequality_residual(triple, flux, test, params)
                          for flux in fluxes for test in tests)
            cert = min(pointwise_certificate(triple, flux, params) for flux in fluxes)
            ident = max(certificate_identity_error(triple, flux, params) for flux in fluxes)
            assert rep.entry("entropy-inequality").residual == entropy
            assert rep.entry("pointwise-certificate").residual == cert
            assert rep.entry("certificate-identity").residual == ident

    def test_one_gamma_per_flux(self, family, backward, params, monkeypatch):
        # G(beta0(v)) and G(beta2(v)) are affine images of one Gamma(v)
        seen = []
        original = EntropyFlux.antiderivative

        def counting(self, v):
            seen.append(np.size(v))
            return original(self, v)

        monkeypatch.setattr(EntropyFlux, "antiderivative", counting)
        for triple in family:
            seen.clear()
            run_triple_battery(triple, backward.u0, params)
            assert seen.count(triple.v.values.size) == len(default_flux_battery())
            assert sum(seen) == len(default_flux_battery()) * (triple.v.values.size + 4)

    def test_two_sample_window_fails_identity_closed(self, two_samples, backward, params):
        entry = run_triple_battery(two_samples, backward.u0,
                                   params).entry("certificate-identity")
        assert not entry.passed
        assert np.isnan(entry.residual)
        assert "three" in entry.note

    def test_two_sample_window_identity_error_is_nan(self, two_samples, params):
        # the single check follows the battery's row: NaN, not a refusal
        assert two_samples.grid.n_t == 2
        for flux in (EntropyFlux.identity(), EntropyFlux.saturating(1.0)):
            assert np.isnan(certificate_identity_error(two_samples, flux, params))


def whole_field_flux_pass(triple, params, fluxes, tests):
    """The flux pass before row blocking: every flux forms its arrays over the
    whole field, and g'(v) evaluates tanh(v/s) a second time."""
    grid, v, lam = triple.grid, triple.v.values, triple.lam.values
    vx = x_derivative_columns(triple.v.modes, grid.L, grid.x)
    vxx = triple.v.xx
    gap = branch_gap_extended(params, v)
    weighted = _weighted_factors(tests, grid)
    out = []
    for flux in fluxes:
        g0, g2 = branch_image_primitives(params, flux, v)
        gv = flux.value(v)
        gstar = (1.0 - lam) * g0 + lam * g2
        rate_cert = triple.lam_t.values * certificate_from_primitives(gap, g0, g2, gv)
        gvx = gv * vx
        dgvx2 = flux.derivative(v) * vx * vx
        integrals = [float(xp @ (gstar @ ts) - xs @ (gvx @ tp) - xp @ (dgvx2 @ tp))
                     for xp, xs, tp, ts in weighted]
        defect = np.nan
        if grid.n_t >= 3:
            defect = float(np.max(np.abs(gv[:, 1:-1] * vxx[:, 1:-1]
                                         - (gstar[:, 2:] - gstar[:, :-2]) / (2.0 * grid.dt)
                                         - rate_cert[:, 1:-1])))
        out.append((integrals, float(np.min(rate_cert)), defect))
    return out


def assert_same_pass(triple, params):
    fluxes = default_flux_battery()
    tests = default_entropy_tests(triple.grid.L, triple.grid.T_end)
    got = _flux_pass(triple, params, fluxes, tests)
    want = whole_field_flux_pass(triple, params, fluxes, tests)
    for flux, (g_int, g_cert, g_def), (w_int, w_cert, w_def) in zip(fluxes, got, want,
                                                                      strict=True):
        # compared as bit patterns, so that the sign of a zero and a NaN count too
        assert (np.array(g_int + [g_cert, g_def]).view(np.int64).tolist()
                == np.array(w_int + [w_cert, w_def]).view(np.int64).tolist()), flux.label()


@pytest.fixture(scope="module")
def blocked_family(params):
    """Certified triples on 203 x 1201: several row blocks, the last one short by
    a row count that is 3 mod 4."""
    grid = Grid(L, 1.0, 203, 1201, 32)
    sources = [CosineSeries(L, [1.0]), CosineSeries(L, [1.0, 0.0, 0.3])]
    return construct_family(CosineSeries(L, [0.0, 0.1]), sources, params, grid)


class TestBlockedFluxPass:
    """The row-blocked flux pass equals the whole-field pass bit for bit."""

    def test_reference_triples(self, family, params):
        for triple in family:
            assert len(_row_blocks(params, triple.v.values)) == 1
            assert_same_pass(triple, params)

    def test_several_blocks_and_a_short_last_block(self, blocked_family, params):
        for triple in blocked_family:
            blocks = _row_blocks(params, triple.v.values)
            assert len(blocks) >= 3
            assert all((b.stop - b.start) % 8 == 0 for b in blocks[:-1])
            assert (triple.grid.n_x - blocks[-1].start) % 4 == 3
            assert_same_pass(triple, params)

    def test_sample_past_b_takes_the_whole_field_path(self, blocked_family, params):
        triple = blocked_family[1]
        v = triple.v.values.copy()
        v[100, triple.grid.n_t // 2] = params.B + 0.01
        past = replace(triple, v=Field2D(triple.grid, v, "v"))
        assert _row_blocks(params, v) == [slice(0, triple.grid.n_x)]
        assert_same_pass(past, params)

    def test_two_sample_window(self, two_samples, params):
        assert all(np.isnan(defect) for _, _, defect in
                   _flux_pass(two_samples, params, default_flux_battery(), []))
        assert_same_pass(two_samples, params)

    def test_peak_memory_is_a_few_fields(self, params):
        # the whole-field pass peaks near 10 field sizes on this triple
        grid = Grid(L, 1.0, 128, 2048, 32)
        triple = construct_family(CosineSeries(L, [0.0, 0.1]), [CosineSeries(L, [1.0])],
                                  params, grid)[1]
        assert len(_row_blocks(params, triple.v.values)) >= 8
        tests = default_entropy_tests(grid.L, grid.T_end)
        tracemalloc.start()
        try:
            _flux_pass(triple, params, default_flux_battery(), tests)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * triple.v.values.nbytes


class TestBatteryFootprint:
    """The flux pass reads the family's fields in place, and the battery reduces
    each field-sized temporary as soon as it is formed."""

    def test_row_blocks_are_read_in_place(self, family, params):
        # a field holds C-contiguous or broadcast samples, so every row block of
        # v, lambda and lambda_t is a view that BLAS and the ufuncs read as laid out
        for triple in family:
            for rows in _row_blocks(params, triple.v.values):
                for name in ("v", "lam", "lam_t"):
                    held = getattr(triple, name).values
                    block = held[rows]
                    assert np.shares_memory(block, held), name
                    assert block.flags.c_contiguous or 0 in block.strides, name

    def test_battery_leaves_no_projection_on_the_family(self, params, final_datum,
                                                         default_sources, grid):
        # the battery projects v through a field of its own, freed when it returns
        fresh = construct_family(final_datum, default_sources, params, grid)
        for triple in fresh:
            run_triple_battery(triple, fresh[0].u.values[:, 0], params)
            for name in ("u", "v", "lam", "lam_t"):
                cached = {"modes", "xx"} & vars(getattr(triple, name)).keys()
                assert not cached, (triple.provenance, name, cached)

    def test_battery_peaks_below_six_fields(self, params, final_datum, default_sources):
        # before the views and the in-place checks the baseline peaked at 12.3
        grid = Grid(L, 1.0, 128, 1024, 32)
        family = construct_family(final_datum, default_sources, params, grid)
        u0, peaks = family[0].u.values[:, 0], []
        tracemalloc.start()
        try:
            for triple in family:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert run_triple_battery(triple, u0, params).passed
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert max(peaks) <= 6 * grid.n_x * grid.n_t * 8, peaks


class TestQuadratureResolution:
    """The exactly admissible classical baseline on diagram (b, c, A, B) =
    (0, 1, 0, 3) with slopes 4 and final datum 0.5 + 0.1 cos x: the entropy
    integral is >= 0 in the continuum, and its x-quadrature error decides the
    verdict against the absolute ENTROPY_TOL."""

    @staticmethod
    def baseline_residual(n_x):
        from fbplab.counterexample import construct_family
        from fbplab.phase_model import PhaseParams
        params = PhaseParams(0.0, 1.0, 0.0, 3.0, 4.0, 4.0)
        grid = Grid(L, 1.0, n_x, 256, 32)
        base = construct_family(CosineSeries(L, [0.5, 0.1]), [], params, grid)[0]
        return run_triple_battery(base, base.u.values[:, 0],
                                  params).entry("entropy-inequality")

    @pytest.mark.xfail(strict=True, reason="x-quadrature error (-1.18e-6) exceeds the "
                       "absolute ENTROPY_TOL at n_x = 128; tolerances that scale with "
                       "the resolution are ROADMAP item 3")
    def test_baseline_passes_at_reference_resolution(self):
        assert self.baseline_residual(128).passed

    def test_baseline_passes_at_doubled_resolution(self):
        entry = self.baseline_residual(256)
        assert entry.passed
        assert abs(entry.residual) < 1e-7


class TestHighModeBaselineResolution:
    """The exact classical baseline from 0.1 cos 8x on the default diagram: its
    mode decays like e^{-64(T-t)}, and the time discretization of the
    state-evolution and certificate-identity rows decides their verdicts
    against the absolute WEAK_TOL and IDENTITY_TOL."""

    @staticmethod
    def baseline_report(params, n_t):
        grid = Grid(L, 1.0, 128, n_t, 32)
        base = construct_family(CosineSeries(L, [0.0] * 8 + [0.1]), [], params, grid)[0]
        return run_triple_battery(base, base.u.values[:, 0], params)

    @pytest.mark.xfail(strict=True, reason="time-discretization error (state-evolution "
                       "1.51e-5, certificate-identity 5.78e-2) exceeds the absolute "
                       "tolerances at n_t = 256; tolerances that scale with the "
                       "resolution are ROADMAP item 3")
    def test_baseline_passes_at_reference_resolution(self, params):
        assert self.baseline_report(params, 256).passed

    def test_baseline_passes_at_n_t_1024(self, params):
        report = self.baseline_report(params, 1024)
        assert report.passed
        assert report.entry("state-evolution-identity").residual < 1e-7
        assert report.entry("certificate-identity").residual < 1e-2


def count_calls(monkeypatch, name: str, home=spectral) -> list:
    """The arguments of each call of ``home.<name>``, through one wrapper in every
    fbplab module that binds it."""
    original, calls = getattr(home, name), []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        if (module_name == "fbplab" or module_name.startswith("fbplab.")) \
                and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


class TestOneProjection:
    """Counted on a fresh family, whose fields carry no projection yet."""

    def test_battery_projects_v_once(self, final_datum, default_sources, params, grid,
                                     backward, monkeypatch):
        fresh = construct_family(final_datum, default_sources, params, grid)
        calls = count_calls(monkeypatch, "analyze_columns")
        for triple in fresh:
            calls.clear()
            run_triple_battery(triple, backward.u0, params)
            assert [args[0].shape for args in calls] == [triple.v.values.shape]

    def test_battery_synthesizes_twice(self, final_datum, default_sources, params, grid,
                                       backward, monkeypatch):
        # v_xx, kept beside the projection for the evolution identity and the
        # flux pass, and the zero-flux test's synthesis of the projection
        fresh = construct_family(final_datum, default_sources, params, grid)
        calls = count_calls(monkeypatch, "synthesize_columns")
        for triple in fresh:
            calls.clear()
            run_triple_battery(triple, backward.u0, params)
            assert len(calls) == 2, [args[0].shape for args in calls]


class TestMonotonicity:
    def test_baseline_passes(self, family, params):
        assert monotonicity_report(family[0], params).passed

    def test_certified_triples_pass(self, family, params):
        for triple in family[1:]:
            rep = monotonicity_report(triple, params)
            assert rep.entry("lambda2-monotone").passed

    def test_total_variation_reported(self, family, params):
        rep = monotonicity_report(family[1], params)
        tv = rep.entry("lambda2-total-variation")
        assert tv.passed  # reported, never asserted
        assert 0.0 < tv.residual < 1.0

    def test_manufactured_decrease_is_located(self, family, params, grid):
        lam = np.maximum(0.0, 0.2 - grid.t)[None, :] * np.ones((grid.n_x, 1))
        bad = SolutionTriple(family[0].u, family[0].v,
                             Field2D(grid, lam), 1.0, "control", lam_t=family[0].lam_t,
                             source=family[0].source)
        rep = monotonicity_report(bad, params)
        entry = rep.entry("lambda2-monotone")
        assert not entry.passed
        assert entry.residual < -1e-3
        assert 0.0 < entry.t <= 0.21

    @staticmethod
    def padded_extreme(triple, params):
        """The row as the report formed it before it reduced in place: the
        masked increments, padded with a zero column for sample 0, and their
        first minimum."""
        v, lam, grid = triple.v.values, triple.lam.values, triple.grid
        on = (v[:, 1:] > params.A) & (v[:, :-1] > params.A)
        viol = np.pad(np.where(on, np.diff(lam, axis=1), 0.0), ((0, 0), (1, 0)))
        i, j = np.unravel_index(int(np.argmin(viol)), viol.shape)
        return float(viol[i, j]), float(grid.x[i]), float(grid.t[j])

    def test_least_increment_is_located_as_on_the_padded_array(self, family, params, grid):
        rng = np.random.default_rng(9)
        ramp = np.maximum(0.0, 0.2 - grid.t)[None, :] * np.ones((grid.n_x, 1))
        noisy = np.round(rng.normal(size=(grid.n_x, grid.n_t)), 1)   # many ties
        v_low = family[0].v.values.copy()
        v_low[:64] = params.A - 0.1          # half the rows never qualify
        triples = list(family) + [
            replace(family[0], lam=Field2D(grid, lam), v=Field2D(grid, v))
            for lam in (ramp, noisy, -ramp) for v in (family[0].v.values, v_low)]
        for triple in triples:
            entry = monotonicity_report(triple, params).entry("lambda2-monotone")
            got = (entry.residual, entry.x, entry.t)
            want = self.padded_extreme(triple, params)
            assert np.array(got).tobytes() == np.array(want).tobytes()


class TestStructural:
    def test_baseline_all_pass(self, family, backward, params):
        assert structural_check(family[0], backward.u0, params).passed

    def test_certified_sourced_all_pass(self, family, backward, params):
        for triple in family[1:]:
            rep = structural_check(triple, backward.u0, params)
            assert rep.passed, rep.to_text()

    def test_sweep_past_horizon_flags_jump_clause(self, family, past_horizon, backward,
                                                  params):
        # the 1-mode source crosses v = B after its horizon with weight < 1
        rep = structural_check(past_horizon, backward.u0, params)
        entry = rep.entry("upper-jump-clause")
        assert not entry.passed
        assert entry.t > family[2].t_bar

    def test_boundary_flux_trace_measured_small(self, family, backward, params):
        # band-limited fields: the stencil reads only what the cosine projection
        # misses, which is round-off (at most 3.6e-14 at 128 x 256)
        for triple in family:
            entry = structural_check(triple, backward.u0, params).entry("boundary-flux")
            assert entry.passed and entry.residual < 1e-12

    def test_high_mode_baseline_has_zero_flux(self, params, grid):
        # the stencil alone reads 1.54e-3 on this baseline, above its bound 1e-3
        final = CosineSeries(L, [0.0] * 8 + [0.1])
        base = construct_family(final, [], params, grid)[0]
        entry = run_triple_battery(base, base.u.values[:, 0],
                                   params).entry("boundary-flux")
        assert entry.passed and entry.residual < 1e-12
        # the series is taken whole: mode 8 decays by exp(-|phi0'| 64 (T - t))
        g = base.grid
        decay = np.exp(-abs(params.phi0_slope) * 64.0 * (g.T_end - g.t))
        exact = 0.1 * np.cos(8 * g.x)[:, None] * decay
        assert np.max(np.abs(base.u.values - exact)) < 1e-12


class TestViscousEntropy:
    def test_equilibrium_residuals_vanish(self, params, grid):
        sol = solve_pseudoparabolic(np.full(grid.n_x, 0.3), 0.1, params, grid)
        for test in default_entropy_tests(grid.L, grid.T_end):
            val = viscous_entropy_residual(sol, EntropyFlux.identity(), test, params)
            assert abs(val) < 1e-9

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_unstable_datum_admissible(self, backward, params, grid, eps):
        sol = solve_pseudoparabolic(backward.u0, eps, params, grid)
        for flux in (EntropyFlux.identity(), EntropyFlux.clamp(-0.5, 0.5),
                     EntropyFlux.saturating(0.5)):
            for test in default_entropy_tests(grid.L, grid.T_end):
                assert viscous_entropy_residual(sol, flux, test, params) >= -1e-6


class TestDistinctness:
    def test_self_distance_zero(self, family):
        assert distinctness(family[0], family[0], 0.4) == (0.0, 0.0, 0.0)

    def test_baseline_vs_unit_source(self, family):
        du, dv, dl = distinctness(family[0], family[1], 0.4)
        assert du <= 1e-8
        assert dv == pytest.approx(0.4 * np.sqrt(np.pi), abs=1e-6)
        assert dl > 0.1

    def test_probe_beyond_horizon_rejected(self, family):
        with pytest.raises(DomainViolationError):
            distinctness(family[0], family[3], 0.6)

    def test_probe_one_ulp_past_the_horizon_rejected(self, family):
        # probes compare exactly: every caller probes a grid sample at or before t_bar
        with pytest.raises(DomainViolationError):
            distinctness(family[0], family[1], float(np.nextafter(family[1].t_bar, np.inf)))

    def test_grids_one_ulp_apart_in_dt_rejected(self, family):
        # grids compare exactly: every window keeps its construction grid's dt bitwise
        a = family[0]
        g = a.grid
        shifted = Grid(g.L, float(np.nextafter(g.T_end, np.inf)), g.n_x, g.n_t, g.n_modes)
        assert shifted.dt == np.nextafter(g.dt, np.inf)
        u, v, lam, lam_t = (Field2D(shifted, f.values) for f in (a.u, a.v, a.lam, a.lam_t))
        moved = SolutionTriple(u, v, lam, a.t_bar, "shifted", lam_t=lam_t, source=a.source)
        with pytest.raises(GridMismatchError):
            distinctness(a, moved, 0.4)


class TestNegativeControls:
    @pytest.mark.parametrize("diagram", random_diagrams(20),
                             ids=[f"draw{i:02d}" for i in range(20)])
    def test_every_control_rejected_on_a_random_diagram(self, diagram):
        # the control data follow the diagram, so no draw is left out or re-seeded;
        # a draw that misses a control is pinned as a strict xfail naming it
        results = negative_controls(diagram)
        assert len(results) == 14
        for name, rejected, detail in results:
            assert rejected, f"{name} slipped through ({detail})"

    @pytest.mark.parametrize("diagram", [PhaseParams(-0.05, 0.05, -1.0, 1.0),
                                         PhaseParams(-1.0, 1.0, -0.05, 0.05)],
                             ids=["five-sample-window", "zero-horizon"])
    def test_every_control_rejected_on_a_short_certified_window(self, diagram):
        # the sourced control keeps 5 samples on the first diagram and 2 on the
        # second (T_bar = 0); its weight violators must lie inside that window
        results = negative_controls(diagram)
        assert len(results) == 14
        for name, rejected, detail in results:
            assert rejected, f"{name} slipped through ({detail})"

    @pytest.mark.parametrize("diagram", [PhaseParams.default()] + random_diagrams(20),
                             ids=["unit"] + [f"draw{i:02d}" for i in range(20)])
    def test_one_backward_solve_per_table(self, diagram, monkeypatch):
        # the sourced control starts from the base's own flux datum
        calls = count_calls(monkeypatch, "solve_unstable_backward", home=solvers)
        control_table(diagram)
        assert len(calls) == 1

    def test_every_check_rejects_its_violator(self, params):
        results = negative_controls(params)
        assert len(results) == 14
        for name, rejected, detail in results:
            assert rejected, f"{name} slipped through ({detail})"

    def test_every_bounded_row_is_a_target(self, family, backward, params, grid):
        # every row that can fail, in the battery and in the relaxation audit,
        # has a manufactured violator that it must reject
        relaxed = solve_pseudoparabolic(backward.u0, 0.1, params, grid)
        reports = [run_triple_battery(family[1], backward.u0, params),
                   relaxation_report(relaxed, params)]
        bounded = {c.name for rep in reports for c in rep.checks
                   if np.isfinite(c.lower) or np.isfinite(c.upper)}
        targets = {row for _, rows, _ in control_table(params) for row in rows}
        assert bounded <= targets, sorted(bounded - targets)
        assert len(bounded) == 15


class TestReports:
    def test_battery_covers_every_check_once(self, family, backward, params):
        rep = run_triple_battery(family[1], backward.u0, params)
        names = [c.name for c in rep.checks]
        assert len(names) == len(set(names))
        expected = {"initial-trace", "boundary-flux", "flux-above-lower-critical",
                    "upper-jump-clause", "superposition-identity",
                    "state-evolution-identity", "weight-bounds", "weight-rate-sign",
                    "lambda2-monotone", "lambda2-total-variation",
                    "weak-form", "entropy-inequality", "pointwise-certificate",
                    "certificate-identity"}
        assert set(names) == expected
        assert rep.passed

    def test_duplicate_names_rejected(self):
        c = CheckResult("x", 0.0)
        with pytest.raises(ConfigurationError):
            VerificationReport([c, c], "g")

    def test_csv_serialization(self, family, backward, params, tmp_path):
        rep = structural_check(family[0], backward.u0, params)
        path = tmp_path / "report.csv"
        rep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "check\tstatus\tresidual\tx\tt"
        assert len(lines) == len(rep.checks) + 1
        assert all(len(row.split("\t")) == 5 for row in lines[1:])

    def test_text_rendering_flags_failures(self, past_horizon, backward, params):
        rep = structural_check(past_horizon, backward.u0, params)
        text = rep.to_text()
        assert "FAIL" in text and "upper-jump-clause" in text


class TestPassRule:
    """Every row passes exactly when lower <= residual <= upper."""

    @staticmethod
    def with_fields(triple, v=None, lam=None):
        grid = triple.grid
        return SolutionTriple(triple.u, Field2D(grid, triple.v.values if v is None else v),
                              Field2D(grid, triple.lam.values if lam is None else lam),
                              triple.t_bar, "control", lam_t=triple.lam_t,
                              source=triple.source)

    def test_flux_dip_below_lower_critical_fails(self, family, backward, params):
        # a dip of 1e-10 below A: the flux check holds v to the jump bound 1e-12
        base = family[0]
        v = base.v.values.copy()
        v[40, 60] = params.A - 1e-10
        entry = structural_check(self.with_fields(base, v=v), backward.u0,
                                 params).entry("flux-above-lower-critical")
        assert not entry.passed
        assert entry.residual == pytest.approx(1e-10, rel=1e-3)
        assert (entry.x, entry.t) == (base.grid.x[40], base.grid.t[60])

    def test_weight_bounds_located_at_the_residual(self, family, backward, params):
        base = family[1]
        lam = base.lam.values.copy()
        lam[17, 5] = 1.0 + 1e-3
        entry = structural_check(self.with_fields(base, lam=lam), backward.u0,
                                 params).entry("weight-bounds")
        assert not entry.passed
        assert entry.residual == pytest.approx(1e-3, rel=1e-9)
        assert (entry.x, entry.t) == (base.grid.x[17], base.grid.t[5])

    def test_bounds_are_module_constants(self, family, backward, params):
        import fbplab.spectral as spectral
        import fbplab.verifier as verifier
        constants = {value for name, value in vars(verifier).items()
                     if name.endswith("_TOL") and isinstance(value, float)}
        constants |= {-c for c in constants}
        for triple in family:
            for c in run_triple_battery(triple, backward.u0, params).checks:
                bounds = [b for b in (c.lower, c.upper) if np.isfinite(b)]
                if c.name == "lambda2-total-variation":
                    assert bounds == []
                elif c.name == "boundary-flux":
                    scale = max(1.0, float(np.max(np.abs(triple.v.values))))
                    assert bounds == [spectral.BOUNDARY_SLOPE_TOL * scale]
                else:
                    assert len(bounds) == 1 and bounds[0] in constants, c.name

    def test_worst_is_least_relative_headroom(self):
        rows = [CheckResult("far", 0.5, upper=1.0),           # headroom 0.5
                CheckResult("near", 9e-9, upper=1e-8),        # 0.1, against the tighter bound
                CheckResult("below", 2e-7, lower=-1e-6),      # 1.2
                CheckResult("report", 1e9)]                   # no bound
        rep = VerificationReport(rows, "g")
        assert rep.worst().name == "near" and rep.passed
        assert rep.worst().headroom == pytest.approx(0.1)
        assert rows[3].headroom == np.inf and rows[3].passed
        nan_row = CheckResult("nan", np.nan, upper=1.0)
        assert not nan_row.passed
        assert VerificationReport(rows + [nan_row], "g").worst().name == "nan"

    def test_failing_row_has_negative_headroom(self):
        row = CheckResult("over", 3e-6, upper=1e-6)
        assert not row.passed and row.headroom == pytest.approx(-2.0)


class TestTestFunctions:
    def test_bump_support_and_sign(self, grid):
        test = BumpTest(0.5 * L, 0.5, 0.2 * L, 0.2)
        dense = psi(test.factors(grid))
        assert dense.min() >= 0.0
        assert dense[0, :].max() == 0.0 and dense[-1, :].max() == 0.0
        assert dense[:, 0].max() == 0.0 and dense[:, -1].max() == 0.0

    def test_bump_derivative_matches_fd(self, grid):
        # the mollifier's higher derivatives spike near the support edge, so
        # the centered-difference comparison is restricted to the core
        test = BumpTest(0.5 * L, 0.5, 0.3 * L, 0.3)
        fd = np.gradient(psi(test.factors(grid)), grid.t, axis=1, edge_order=2)
        diff = np.abs(fd - psi_t(test.factors(grid)))
        core = np.abs((grid.t - 0.5) / 0.3) < 0.6
        assert diff[:, core].max() < 1e-3
        assert diff.max() < 0.1

    def test_mode_product_nonnegative(self, grid):
        test = ModeProductTest(2, 0.1, 0.9)
        assert psi(test.factors(grid)).min() >= 0.0

    def test_final_zero_vanishes_at_horizon(self, grid):
        for test in default_weak_tests():
            assert np.max(np.abs(psi(test.factors(grid))[:, -1])) == 0.0

    def test_defaults_counts(self):
        assert len(default_flux_battery()) == 12
        assert len(default_entropy_tests(L, 1.0)) == 6
        assert len(default_weak_tests()) == 3

    def test_invalid_supports_rejected(self):
        with pytest.raises(ConfigurationError):
            BumpTest(0.1, 0.5, 0.2, 0.2)
        with pytest.raises(ConfigurationError):
            ModeProductTest(0, 0.1, 0.9)


class TestSeparableContraction:
    """Entropy integrals contract the separable factors instead of dense fields."""

    @pytest.mark.parametrize("test, core", [
        (BumpTest(0.5 * L, 0.5, 0.3 * L, 0.3), 0.18 * L),
        (ModeProductTest(2, 0.1, 0.9), L),
        (FinalZeroTest(3, 2), L),
    ], ids=["bump", "mode-product", "final-zero"])
    def test_psi_x_matches_fd(self, test, core):
        # as for psi_t, the bump's centered differences are compared on its core
        grid = Grid(L, 1.0, 1025, 33, 16)
        fd = np.gradient(psi(test.factors(grid)), grid.x, axis=0, edge_order=2)
        inside = np.abs(grid.x - 0.5 * L) <= core
        assert np.abs(fd - psi_x(test.factors(grid)))[inside].max() < 1e-4

    def test_contraction_matches_dense_quadrature(self, family, params):
        for triple in family:
            grid = triple.grid
            v, lam = triple.v.values, triple.lam.values
            vx = x_derivative_columns(analyze_columns(v, grid.L, grid.n_modes),
                                      grid.L, grid.x)
            tests = default_entropy_tests(grid.L, grid.T_end)
            for flux in default_flux_battery():
                big_g = ((1.0 - lam) * entropy_primitive(params, flux, beta0_extended(params, v))
                         + lam * entropy_primitive(params, flux, beta2_extended(params, v)))
                for test in tests:
                    integrand = (big_g * psi_t(test.factors(grid))
                                 - flux.value(v) * vx * psi_x(test.factors(grid))
                                 - flux.derivative(v) * vx * vx * psi(test.factors(grid)))
                    dense = np.trapezoid(np.trapezoid(integrand, grid.x, axis=0), grid.t)
                    got = entropy_inequality_residual(triple, flux, test, params)
                    assert abs(got - dense) <= 1e-14, (flux.label(), test.label())

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_audit_equals_min_of_single_residuals(self, backward, params, grid, eps):
        sol = solve_pseudoparabolic(backward.u0, eps, params, grid)
        tests = default_entropy_tests(grid.L, grid.T_end)
        single = min(viscous_entropy_residual(sol, flux, test, params)
                     for flux in default_flux_battery() for test in tests)
        assert viscous_entropy_audit(sol, params) == single

    def test_relaxation_report_rows(self, backward, params, grid):
        sol = solve_pseudoparabolic(backward.u0, 0.1, params, grid)
        rep = relaxation_report(sol, params)
        assert [c.name for c in rep.checks] == ["mass-drift", "viscous-entropy"]
        assert rep.passed
        mass = np.trapezoid(sol.u_eps.values, grid.x, axis=0)
        assert rep.entry("mass-drift").residual == np.max(np.abs(mass - mass[0]))
        assert rep.entry("viscous-entropy").residual == viscous_entropy_audit(sol, params)


class TestRunningSimpson:
    """The numpy time quadrature against scipy's rules, which it replaces, and
    bit for bit against its concatenating form."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_bits_of_the_concatenating_form(self, n):
        y = np.random.default_rng(n).normal(size=(3, 4, n))
        ours = running_simpson(y, 0.37)
        assert ours.shape == y.shape
        assert ours.tobytes() == running_simpson_oracle(y, 0.37).tobytes()
        strided = y[:, ::2, :]
        assert (running_simpson(strided, 0.37).tobytes()
                == running_simpson_oracle(strided, 0.37).tobytes())

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=9),
                  elements=st.floats(-1e6, 1e6)),
           st.floats(1e-6, 10.0))
    def test_bits_of_the_concatenating_form_on_any_shape(self, y, dt):
        assert running_simpson(y, dt).tobytes() == running_simpson_oracle(y, dt).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 256])
    def test_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        y = rng.normal(size=(4, n))
        dt = 0.37
        ours = running_simpson(y, dt)
        cum = cumulative_simpson(y, dx=dt, axis=-1, initial=0.0)
        total = simpson(y, dx=dt, axis=-1)
        assert ours.shape == y.shape
        assert np.all(ours[:, 0] == 0.0)
        assert np.max(np.abs(ours - cum)) <= 1e-14 * np.max(np.abs(cum))
        assert np.max(np.abs(ours[:, -1] - total)) <= 1e-14 * np.max(np.abs(total))

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 33, 256])
    def test_exact_on_quadratics(self, n):
        t = np.linspace(0.0, 1.3, n)
        dt = 1.3 / (n - 1)
        y = np.stack([np.ones(n), t, 3.0 * t * t - 2.0 * t + 0.5])
        exact = np.stack([t, t * t / 2.0, t ** 3 - t * t + 0.5 * t])
        assert np.max(np.abs(running_simpson(y, dt) - exact)) <= 1e-14
