"""Admissibility checks: positive cases on certified triples, negative
controls on manufactured violators, and the cross-form consistency checks."""

import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, simpson

from fbplab import spectral
from fbplab.counterexample import SolutionTriple, construct_family
from fbplab.errors import ConfigurationError, DomainViolationError
from fbplab.phase_model import (EntropyFlux, beta0_extended, beta2_extended,
                                branch_gap_extended, branch_image_primitives,
                                certificate_from_primitives, entropy_primitive)
from fbplab.solvers import solve_pseudoparabolic, solve_unstable_backward
from fbplab.spectral import (CosineSeries, Field2D, Grid, analyze_columns,
                             constant_field, x_derivative_columns, x_second_derivative)
from fbplab.verifier import (BumpTest, FinalZeroTest, ModeProductTest,
                             VerificationReport, CheckResult,
                             certificate_identity_error, default_entropy_tests,
                             default_flux_battery, default_weak_tests,
                             distinctness, entropy_inequality_residual,
                             monotonicity_report, negative_controls, control_table,
                             pointwise_certificate, relaxation_report,
                             run_triple_battery,
                             running_simpson, structural_check,
                             viscous_entropy_audit, viscous_entropy_residual,
                             weak_residual, _flux_pass, _row_blocks, _weighted_factors)
from oracles import psi, psi_t, psi_x

L = np.pi


@pytest.fixture(scope="module")
def restricted_family(family):
    return [t.restricted() for t in family]


class TestWeakResidual:
    def test_baseline_classical_solution(self, restricted_family, backward):
        assert weak_residual(restricted_family[0], backward.u0) <= 1e-6

    def test_sourced_triples(self, restricted_family, backward):
        for triple in restricted_family[1:]:
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

    def test_grid_mismatch(self, restricted_family):
        with pytest.raises(ConfigurationError):
            weak_residual(restricted_family[0], np.zeros(7))


class TestEntropyInequality:
    def test_zero_test_function(self, restricted_family, params):
        # a time window beyond the rectangle synthesizes to the zero function
        dead = ModeProductTest(1, 2.0, 2.5)
        val = entropy_inequality_residual(restricted_family[1],
                                          EntropyFlux.identity(), dead, params)
        assert val == 0.0

    def test_constant_flux_on_classical_solution(self, restricted_family, params):
        test = BumpTest(0.5 * L, 0.5, 0.2 * L, 0.2)
        val = entropy_inequality_residual(restricted_family[0],
                                          EntropyFlux.clamp(3.0, 3.0), test, params)
        assert val >= -1e-6

    @pytest.mark.parametrize("flux", default_flux_battery(), ids=lambda f: f.label())
    def test_certified_triples_admissible(self, restricted_family, params, flux):
        for triple in restricted_family:
            for test in default_entropy_tests(triple.grid.L, triple.grid.T_end):
                assert entropy_inequality_residual(triple, flux, test, params) >= -1e-6

    def test_note_names_the_worst_pair(self, restricted_family, backward, params):
        # the row's note names the (flux, test) pair whose integral is the residual
        for triple in restricted_family:
            entry = run_triple_battery(triple, backward.u0, params).entry("entropy-inequality")
            fluxes = {f.label(): f for f in default_flux_battery()}
            tests = {t.label(): t
                     for t in default_entropy_tests(triple.grid.L, triple.grid.T_end)}
            flux_label, test_label = entry.note.split("; worst ")[1].split(" x ")
            assert entropy_inequality_residual(triple, fluxes[flux_label], tests[test_label],
                                               params) == entry.residual


class TestPointwiseCertificate:
    def test_zero_weight_triple_is_exactly_zero(self, restricted_family, params):
        for flux in default_flux_battery():
            assert pointwise_certificate(restricted_family[0], flux, params) == 0.0

    def test_constant_flux_gives_zero(self, restricted_family, params):
        constant = EntropyFlux.clamp(1.0, 1.0)
        assert pointwise_certificate(restricted_family[1], constant,
                                     params) == pytest.approx(0.0, abs=1e-12)

    def test_sourced_triples_strictly_positive_factors(self, restricted_family, params):
        # both factors positive away from t = 0 for the unit source
        triple = restricted_family[1]
        val = pointwise_certificate(triple, EntropyFlux.identity(), params)
        assert val >= 0.0

    def test_identity_defect_small_at_default_resolution(self, restricted_family, params):
        for flux in (EntropyFlux.identity(), EntropyFlux.saturating(1.0)):
            for triple in restricted_family:
                assert certificate_identity_error(triple, flux, params) < 1e-3


class TestOneEntropyPass:
    """The battery's entropy residuals come from the standalone checks' formulas."""

    def test_battery_equals_standalone_checks(self, restricted_family, backward, params):
        fluxes = default_flux_battery()
        for triple in restricted_family:
            rep = run_triple_battery(triple, backward.u0, params)
            tests = default_entropy_tests(triple.grid.L, triple.grid.T_end)
            entropy = min(entropy_inequality_residual(triple, flux, test, params)
                          for flux in fluxes for test in tests)
            cert = min(pointwise_certificate(triple, flux, params) for flux in fluxes)
            ident = max(certificate_identity_error(triple, flux, params) for flux in fluxes)
            assert rep.entry("entropy-inequality").residual == entropy
            assert rep.entry("pointwise-certificate").residual == cert
            assert rep.entry("certificate-identity").residual == ident

    def test_one_gamma_per_flux(self, restricted_family, backward, params, monkeypatch):
        # G(beta0(v)) and G(beta2(v)) are affine images of one Gamma(v)
        seen = []
        original = EntropyFlux.antiderivative

        def counting(self, v):
            seen.append(np.size(v))
            return original(self, v)

        monkeypatch.setattr(EntropyFlux, "antiderivative", counting)
        for triple in restricted_family:
            seen.clear()
            run_triple_battery(triple, backward.u0, params)
            assert seen.count(triple.v.values.size) == len(default_flux_battery())
            assert sum(seen) == len(default_flux_battery()) * (triple.v.values.size + 4)

    def test_two_sample_window_fails_identity_closed(self, restricted_family, backward,
                                                     params):
        short = restricted_family[1]
        short = SolutionTriple(short.u.restrict(2), short.v.restrict(2),
                               short.lam.restrict(2), 0.0, "short",
                               lam_t=short.lam_t.restrict(2), source=short.source)
        entry = run_triple_battery(short, backward.u0, params).entry("certificate-identity")
        assert not entry.passed
        assert np.isnan(entry.residual)
        assert "three" in entry.note


def whole_field_flux_pass(triple, params, fluxes, tests):
    """The flux pass before row blocking: every flux forms its arrays over the
    whole field, and g'(v) evaluates tanh(v/s) a second time."""
    grid, v, lam = triple.grid, triple.v.values, triple.lam.values
    vx = x_derivative_columns(triple.v.modes, grid.L, grid.x)
    vxx = x_second_derivative(triple.v)
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
    """Restricted triples on 203 x 1201: several row blocks, the last one short by
    a row count that is 3 mod 4."""
    grid = Grid(L, 1.0, 203, 1201, 32)
    sources = [CosineSeries(L, [1.0]), CosineSeries(L, [1.0, 0.0, 0.3])]
    return [t.restricted()
            for t in construct_family(CosineSeries(L, [0.0, 0.1]), sources, params, grid)]


class TestBlockedFluxPass:
    """The row-blocked flux pass equals the whole-field pass bit for bit."""

    def test_reference_triples(self, restricted_family, params):
        for triple in restricted_family:
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

    def test_two_sample_window(self, restricted_family, params):
        short = restricted_family[1]
        short = SolutionTriple(short.u.restrict(2), short.v.restrict(2),
                               short.lam.restrict(2), 0.0, "short",
                               lam_t=short.lam_t.restrict(2), source=short.source)
        assert all(np.isnan(defect) for _, _, defect in
                   _flux_pass(short, params, default_flux_battery(), []))
        assert_same_pass(short, params)

    def test_peak_memory_is_a_few_fields(self, params):
        # the whole-field pass peaks near 10 field sizes on this triple
        grid = Grid(L, 1.0, 128, 2048, 32)
        triple = construct_family(CosineSeries(L, [0.0, 0.1]), [CosineSeries(L, [1.0])],
                                  params, grid)[1].restricted()
        assert len(_row_blocks(params, triple.v.values)) >= 8
        tests = default_entropy_tests(grid.L, grid.T_end)
        tracemalloc.start()
        try:
            _flux_pass(triple, params, default_flux_battery(), tests)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * triple.v.values.nbytes


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
        return run_triple_battery(base.restricted(), base.u.values[:, 0],
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
        return run_triple_battery(base.restricted(), base.u.values[:, 0], params)

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


class TestOneProjection:
    def test_battery_projects_v_once(self, family, backward, params, monkeypatch):
        # every fbplab module that binds analyze_columns counts through one wrapper
        original, calls = spectral.analyze_columns, []

        def counting(*args):
            calls.append(args[0].shape)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if (name == "fbplab" or name.startswith("fbplab.")) \
                    and getattr(module, "analyze_columns", None) is original:
                monkeypatch.setattr(module, "analyze_columns", counting)
        for triple in family:
            fresh = triple.restricted()
            calls.clear()
            run_triple_battery(fresh, backward.u0, params)
            assert calls == [fresh.v.values.shape]


class TestMonotonicity:
    def test_baseline_passes(self, restricted_family, params):
        assert monotonicity_report(restricted_family[0], params).passed

    def test_certified_triples_pass(self, restricted_family, params):
        for triple in restricted_family[1:]:
            rep = monotonicity_report(triple, params)
            assert rep.entry("lambda2-monotone").passed

    def test_total_variation_reported(self, restricted_family, params):
        rep = monotonicity_report(restricted_family[1], params)
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


class TestStructural:
    def test_baseline_all_pass(self, restricted_family, backward, params):
        assert structural_check(restricted_family[0], backward.u0, params).passed

    def test_certified_sourced_all_pass(self, restricted_family, backward, params):
        for triple in restricted_family[1:]:
            rep = structural_check(triple, backward.u0, params)
            assert rep.passed, rep.to_text()

    def test_sweep_past_horizon_flags_jump_clause(self, family, backward, params):
        # the 1-mode source crosses v = B after its horizon with weight < 1
        full = family[2]
        rep = structural_check(full, backward.u0, params)
        entry = rep.entry("upper-jump-clause")
        assert not entry.passed
        assert entry.t > full.t_bar

    def test_boundary_flux_trace_measured_small(self, restricted_family, backward, params):
        # band-limited fields: the stencil reads only what the cosine projection
        # misses, which is round-off (at most 3.6e-14 at 128 x 256)
        for triple in restricted_family:
            entry = structural_check(triple, backward.u0, params).entry("boundary-flux")
            assert entry.passed and entry.residual < 1e-12

    def test_high_mode_baseline_has_zero_flux(self, params, grid):
        # the stencil alone reads 1.54e-3 on this baseline, above its bound 1e-3,
        # and refuses its sampled datum
        final = CosineSeries(L, [0.0] * 8 + [0.1])
        base = construct_family(final, [], params, grid)[0]
        entry = run_triple_battery(base.restricted(), base.u.values[:, 0],
                                   params).entry("boundary-flux")
        assert entry.passed and entry.residual < 1e-12
        sampled = solve_unstable_backward(0.1 * np.cos(8 * grid.x), params, grid)
        assert np.max(np.abs(sampled.u0 - base.u.values[:, 0])) < 1e-12


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


class TestNegativeControls:
    def test_every_check_rejects_its_violator(self, params):
        results = negative_controls(params)
        assert len(results) == 14
        for name, rejected, detail in results:
            assert rejected, f"{name} slipped through ({detail})"

    def test_every_bounded_row_is_a_target(self, restricted_family, backward, params, grid):
        # every row that can fail, in the battery and in the relaxation audit,
        # has a manufactured violator that it must reject
        relaxed = solve_pseudoparabolic(backward.u0, 0.1, params, grid)
        reports = [run_triple_battery(restricted_family[1], backward.u0, params),
                   relaxation_report(relaxed, params)]
        bounded = {c.name for rep in reports for c in rep.checks
                   if np.isfinite(c.lower) or np.isfinite(c.upper)}
        targets = {row for _, rows, _ in control_table(params) for row in rows}
        assert bounded <= targets, sorted(bounded - targets)
        assert len(bounded) == 15


class TestReports:
    def test_battery_covers_every_check_once(self, restricted_family, backward, params):
        rep = run_triple_battery(restricted_family[1], backward.u0, params)
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

    def test_csv_serialization(self, restricted_family, backward, params, tmp_path):
        rep = structural_check(restricted_family[0], backward.u0, params)
        path = tmp_path / "report.csv"
        rep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "check\tstatus\tresidual\tx\tt"
        assert len(lines) == len(rep.checks) + 1
        assert all(len(row.split("\t")) == 5 for row in lines[1:])

    def test_text_rendering_flags_failures(self, family, backward, params):
        rep = structural_check(family[2], backward.u0, params)
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

    def test_flux_dip_below_lower_critical_fails(self, restricted_family, backward, params):
        # a dip of 1e-10 below A: the flux check holds v to the jump bound 1e-12
        base = restricted_family[0]
        v = base.v.values.copy()
        v[40, 60] = params.A - 1e-10
        entry = structural_check(self.with_fields(base, v=v), backward.u0,
                                 params).entry("flux-above-lower-critical")
        assert not entry.passed
        assert entry.residual == pytest.approx(1e-10, rel=1e-3)
        assert (entry.x, entry.t) == (base.grid.x[40], base.grid.t[60])

    def test_weight_bounds_located_at_the_residual(self, restricted_family, backward,
                                                   params):
        base = restricted_family[1]
        lam = base.lam.values.copy()
        lam[17, 5] = 1.0 + 1e-3
        entry = structural_check(self.with_fields(base, lam=lam), backward.u0,
                                 params).entry("weight-bounds")
        assert not entry.passed
        assert entry.residual == pytest.approx(1e-3, rel=1e-9)
        assert (entry.x, entry.t) == (base.grid.x[17], base.grid.t[5])

    def test_bounds_are_module_constants(self, restricted_family, backward, params):
        import fbplab.spectral as spectral
        import fbplab.verifier as verifier
        constants = {value for name, value in vars(verifier).items()
                     if name.endswith("_TOL") and isinstance(value, float)}
        constants |= {-c for c in constants}
        for triple in restricted_family:
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

    def test_contraction_matches_dense_quadrature(self, restricted_family, params):
        for triple in restricted_family:
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
    """The numpy time quadrature against scipy's rules, which it replaces."""

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
