"""Acceptance gate: the seven exit criteria of the reference scenario.

Every tolerance is pinned here, not deferred.  Each test prints one
``ACCEPTANCE n [pass|fail]`` line (visible with ``pytest -s``).

One sub-clause is unattainable by the continuum mathematics itself: with the
reference sources, the flux fields of the two non-constant sources cross the
upper critical value B before t = 0.8 (grid-sweep oracle: horizons 0.745 and
0.486), so "certified horizon >= 0.8 for every triple" cannot hold.  That
sub-clause is kept as a strict expected failure rather than weakened; the
baseline and unit-source triples do reach 0.8, and every triple passes the
full battery on its own certified horizon.
"""

import dataclasses
import time

import numpy as np
import pytest

from fbplab.cli import cmd_counterexample
from fbplab.config import ScenarioConfig
from fbplab.controls import negative_controls
from fbplab.counterexample import construct_family
from fbplab.phase_model import EntropyFlux, branch_gap_extended
from fbplab.solvers import (inverse_source_from_endpoints, solve_pseudoparabolic,
                            solve_sourced, solve_unstable_backward)
from fbplab.spectral import CosineSeries, Grid, analyze_columns, synthesize_columns
from fbplab.verifier import (certificate_identity_error, default_entropy_tests,
                             default_flux_battery, distinctness,
                             entropy_inequality_residual, monotonicity_report,
                             pointwise_certificate,
                             run_triple_battery, viscous_entropy_residual)
from oracles import vt_field

L = np.pi


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} [{'pass' if ok else 'fail'}]: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def batteries(family, backward, params):
    return [run_triple_battery(t, backward.u0, params) for t in family]


# -- criterion 1: the multi-solution demonstration ---------------------------


class TestCriterion1:
    def test_command_succeeds_within_budget(self, tmp_path):
        config = ScenarioConfig.default().with_output(tmp_path / "ce")
        start = time.monotonic()
        code = cmd_counterexample(config)
        elapsed = time.monotonic() - start
        report(1, code == 0 and elapsed <= 10.0,
               f"command exit {code}, runtime {elapsed:.2f}s <= 10s")

    def test_family_shares_initial_datum(self, family, backward):
        worst = max(np.max(np.abs(t.u.values[:, 0] - backward.u0)) for t in family)
        report(1, len(family) >= 4 and worst <= 1e-10,
               f"{len(family)} triples share u0 to {worst:.2e}")

    def test_every_triple_passes_battery_on_its_horizon(self, family, batteries):
        all_pass = all(r.passed for r in batteries)
        detail = ", ".join(f"{t.provenance}: T_bar={t.t_bar:.4f} "
                           f"{'pass' if r.passed else 'fail'}"
                           for t, r in zip(family, batteries))
        report(1, all_pass, detail)

    def test_headline_horizons_reach_080(self, family):
        ok = family[0].t_bar >= 0.8 and family[1].t_bar >= 0.8
        report(1, ok, f"baseline T_bar={family[0].t_bar:.4f}, "
                      f"unit source T_bar={family[1].t_bar:.4f}, both >= 0.8")

    @pytest.mark.xfail(
        strict=True,
        reason="continuum obstruction: the non-constant sources drive v past B "
               "before t=0.8 (horizons 0.745 and 0.486 by the grid-sweep oracle), "
               "so this clause cannot hold as stated; see the honest horizons above")
    def test_all_triples_horizon_bound_as_stated(self, family):
        assert all(t.t_bar >= 0.8 for t in family)

    def test_v_distance_baseline_vs_unit_source(self, family):
        du, dv, dl = distinctness(family[0], family[1], 0.4)
        expect = 0.4 * np.sqrt(np.pi)
        ok = abs(dv - expect) <= 1e-6 and du <= 1e-8 and dl > 0
        report(1, ok, f"at t=0.4: |dv - 0.4 sqrt(pi)| = {abs(dv - expect):.2e}, "
                      f"du = {du:.2e}, dl = {dl:.2e}")

    def test_u_distance_nonconstant_sources_grid_converged(self, family, params,
                                                           final_datum,
                                                           default_sources):
        t_half = min(family[2].t_bar, family[3].t_bar) / 2
        grid = family[0].grid
        probe = grid.t[int(round(t_half / grid.dt))]
        du, _, _ = distinctness(family[2], family[3], probe)

        fine_grid = Grid(L, 1.0, 256, 511, 32)
        fine = construct_family(final_datum, default_sources[1:], params, fine_grid)
        probe_fine = fine_grid.t[int(round(probe / fine_grid.dt))]
        du_fine, _, _ = distinctness(fine[1], fine[2], probe_fine)
        ok = du > 1e-3 and abs(du - du_fine) <= 0.05 * du
        report(1, ok, f"u-distance {du:.5f} at t={probe:.4f}; "
                      f"refined grid gives {du_fine:.5f}")


# -- criterion 2: entropy certificate over the whole battery -----------------


class TestCriterion2:
    def test_entropy_and_certificate_everywhere(self, family, params):
        worst_ent = np.inf
        worst_cert = np.inf
        fluxes = default_flux_battery()
        for triple in family:
            tests = default_entropy_tests(triple.grid.L, triple.grid.T_end)
            for flux in fluxes:
                worst_cert = min(worst_cert, pointwise_certificate(triple, flux, params))
                for test in tests:
                    worst_ent = min(worst_ent, entropy_inequality_residual(
                        triple, flux, test, params))
        ok = worst_ent >= -1e-6 and worst_cert >= -1e-8
        report(2, ok, f"min entropy residual {worst_ent:.2e} >= -1e-6, "
                      f"min certificate {worst_cert:.2e} >= -1e-8 "
                      f"({len(fluxes)} fluxes x 6 tests x {len(family)} triples)")

    def test_proof_identity_order(self, params, final_datum):
        # simultaneous (dx, dt) halving; C1 fluxes (the clamp corners are only
        # first-order accurate for the differenced (G*)_t and are excluded)
        smooth = [EntropyFlux.identity(), EntropyFlux.saturating(0.5),
                  EntropyFlux.saturating(2.0)]
        errs = []
        for n_x, n_t in ((64, 128), (128, 256), (256, 512)):
            grid = Grid(L, 1.0, n_x, n_t, 32)
            fam = construct_family(final_datum, [CosineSeries(L, [1.0])], params, grid)
            errs.append(max(certificate_identity_error(fam[1], flux, params)
                            for flux in smooth))
        rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        ok = min(rates) >= 1.9
        report(2, ok, f"identity defects {[f'{e:.2e}' for e in errs]}, "
                      f"orders {[f'{r:.2f}' for r in rates]} >= 1.9")


# -- criterion 3: weight construction correctness -----------------------------


class TestCriterion3:
    def test_weight_against_time_integration_oracle(self, family, backward, params,
                                                    default_sources):
        # oracle chain: (i) the excess rate recovered from the fields
        # (spectral curvature plus the analytic rate) is the source exactly;
        # (ii) its trapezoid time-cumulation over the branch gap reproduces
        # the constructed weight
        worst_identity = 0.0
        worst = 0.0
        for src, triple in zip(default_sources, family[1:]):
            grid = triple.grid
            sol = solve_sourced(src, backward.v_bar.values[:, 0],
                                params.sigma_abs, grid)
            modes = analyze_columns(sol.v.values, grid.L, grid.n_modes)
            vxx = synthesize_columns(-(grid.mu()[:, None] * modes), grid.L, grid.x)
            m = vxx + params.sigma_abs * vt_field(sol).values
            worst_identity = max(worst_identity, np.max(np.abs(
                m - sol.source[:, None])))
            cum = np.concatenate(
                [np.zeros((grid.n_x, 1)),
                 np.cumsum(0.5 * (m[:, 1:] + m[:, :-1]) * grid.dt, axis=1)], axis=1)
            oracle = cum / branch_gap_extended(params, sol.v.values)
            worst = max(worst, np.max(np.abs(triple.lam.values - oracle)))
        report(3, worst <= 1e-8 and worst_identity <= 1e-11,
               f"max |weight - trapezoid oracle| = {worst:.2e} <= 1e-8 "
               f"(excess-rate identity defect {worst_identity:.2e})")

    def test_weight_zero_at_start_exactly(self, family):
        exact = all(np.all(t.lam.values[:, 0] == 0.0) for t in family)
        report(3, exact, "lambda(.,0) == 0 exactly for every triple")

    def test_weight_bounded_on_headline_window(self, family, grid):
        j = int(round(0.8 / grid.dt))
        lam = family[1].lam.values[:, : j + 1]
        ok = lam.min() >= 0.0 and lam.max() <= 0.5
        report(3, ok, f"unit-source weight in [0, {lam.max():.4f}] on [0, 0.8], "
                      "inside [0, 0.5]")

    def test_rate_matches_finite_differences_order(self, params, final_datum):
        errs = []
        for n_t in (126, 251, 501):
            g = Grid(L, 1.0, 128, n_t, 32)
            fam = construct_family(final_datum, [CosineSeries(L, [1.0])], params, g)
            lam, lam_t = fam[1].lam.values, fam[1].lam_t.values
            fd = np.gradient(lam, fam[1].grid.t, axis=1, edge_order=2)
            errs.append(np.max(np.abs(fd[:, 1:-1] - lam_t[:, 1:-1])))
        step = np.log2((251 - 1) / (126 - 1))
        rates = [np.log2(errs[i] / errs[i + 1]) / step for i in range(2)]
        ok = min(rates) >= 1.9
        report(3, ok, f"rate-vs-differences orders {[f'{r:.2f}' for r in rates]} >= 1.9")


# -- criterion 4: inverse-source round trip ------------------------------------


class TestCriterion4:
    def test_round_trip_low_modes(self, grid):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(20):
            a = CosineSeries(L, rng.uniform(-1.0, 1.0, 9))
            b = CosineSeries(L, rng.uniform(-1.0, 1.0, 9))
            f = inverse_source_from_endpoints(a, b, grid.T_end, 1.0)
            sol = solve_sourced(f, a, 1.0, grid)
            worst = max(worst, np.max(np.abs(sol.v.values[:, -1]
                                             - b.synthesize(grid.x))))
        report(4, worst <= 1e-8,
               f"worst round-trip error over 20 random k<=8 pairs: {worst:.2e} <= 1e-8")

    def test_mean_mode_spot_value_exact(self):
        f = inverse_source_from_endpoints(CosineSeries(L, [0.0]),
                                          CosineSeries(L, [1.0]), 1.0, 1.0)
        exact = float(f.coeffs[0]) == 1.0
        report(4, exact, "f0 = (b0 - a0)|sigma|/T evaluates to exactly 1.0")


# -- criterion 5: relaxation solver ---------------------------------------------


class TestCriterion5:
    def test_sweep(self, backward, params, grid):
        start = time.monotonic()
        fluxes = default_flux_battery()
        tests = default_entropy_tests(grid.L, grid.T_end)
        drifts, residuals, rate_errors = [], [], []
        for eps in (0.1, 0.01, 0.001):
            sol = solve_pseudoparabolic(backward.u0, eps, params, grid)
            mass = np.trapezoid(sol.u_eps.values, grid.x, axis=0)
            drifts.append(np.max(np.abs(mass - mass[0])))
            residuals.append(min(viscous_entropy_residual(sol, flux, test, params)
                                 for flux in fluxes for test in tests))
            stable = solve_pseudoparabolic(2.5 + 0.25 * np.cos(grid.x), eps,
                                           params, grid)
            j = grid.n_t // 2
            measured = -np.log(stable.u_modes[1, j] / stable.u_modes[1, 0]) / grid.t[j]
            expect = params.alpha2 / (1.0 + eps)
            rate_errors.append(abs(measured - expect) / expect)
        elapsed = time.monotonic() - start
        ok = (max(drifts) <= 1e-8 and min(residuals) >= -1e-6
              and max(rate_errors) <= 1e-6 and elapsed <= 60.0)
        report(5, ok,
               f"drift <= {max(drifts):.2e}, min viscous residual {min(residuals):.2e}, "
               f"max relative rate error {max(rate_errors):.2e}, runtime {elapsed:.1f}s")


# -- criterion 6: negative controls ---------------------------------------------


class TestCriterion6:
    def test_all_violators_rejected(self, params):
        results = negative_controls(params)
        ok = all(rejected for _, rejected, _ in results)
        report(6, ok, "; ".join(f"{name}: {'rejected' if r else 'MISSED'}"
                                for name, r, _ in results))


# -- criterion 7: weight monotonicity as a property ------------------------------


class TestCriterion7:
    def test_upper_weight_nondecreasing_with_bounded_variation(self, family, params):
        worst = np.inf
        tvs = []
        for triple in family:
            rep = monotonicity_report(triple, params)
            entry = rep.entry("lambda2-monotone")
            worst = min(worst, entry.residual)
            assert entry.passed
            tvs.append(rep.entry("lambda2-total-variation").residual)
        ok = worst >= -1e-8 and all(np.isfinite(tv) for tv in tvs)
        report(7, ok,
               f"min increment on v > A intervals: {worst:.2e} >= -1e-8; "
               f"discrete total variation per triple: {[f'{tv:.4f}' for tv in tvs]}")
