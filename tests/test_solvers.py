"""Solver contracts, each checked against an independent oracle."""

import re
import warnings

import numpy as np
import pytest

import mpmath as mp

from fbplab.errors import (BoundaryConditionError, ConfigurationError,
                           DomainViolationError, InstabilityError)
from fbplab.phase_model import EntropyFlux, PhaseParams, entropy_primitive, eval_phi
from fbplab.solvers import (inverse_source_from_endpoints, solve_pseudoparabolic,
                            solve_sourced, solve_unstable_backward)
from fbplab.spectral import CosineSeries, Grid, propagate_heat

L = np.pi


def heat_fd_oracle(g_vals, x, diffusivity, horizon, n_steps):
    """Explicit finite-difference heat flow with zero-flux ends (the reversed
    backward problem); crude but entirely independent of the mode solver."""
    dx = x[1] - x[0]
    dt = horizon / n_steps
    assert dt <= dx * dx / (2 * diffusivity)
    w = g_vals.copy()
    for _ in range(n_steps):
        lap = np.empty_like(w)
        lap[1:-1] = (w[2:] - 2 * w[1:-1] + w[:-2]) / (dx * dx)
        lap[0] = 2 * (w[1] - w[0]) / (dx * dx)
        lap[-1] = 2 * (w[-2] - w[-1]) / (dx * dx)
        w = w + dt * diffusivity * lap
    return w


class TestBackwardSolve:
    def test_single_mode_exact_solution(self, backward, grid):
        # ubar(x,t) = 0.1 e^{t-1} cos x for g = 0.1 cos x
        expect = 0.1 * np.exp(grid.t[None, :] - 1.0) * np.cos(grid.x)[:, None]
        assert np.max(np.abs(backward.u_bar.values - expect)) < 1e-13
        assert backward.u0.max() == pytest.approx(0.1 * np.exp(-1.0), abs=1e-14)

    def test_initial_datum_against_fd_oracle(self, backward, grid, params):
        w = heat_fd_oracle(backward.final_data, grid.x,
                           abs(params.phi0_slope), grid.T_end, 40_000)
        assert np.max(np.abs(w - backward.u0)) < 5e-5

    def test_constant_final_datum_is_steady(self, params, grid):
        sol = solve_unstable_backward(np.full(grid.n_x, 0.15), params, grid)
        assert np.max(np.abs(sol.u_bar.values - 0.15)) < 1e-13

    def test_mass_conserved_in_time(self, backward, grid):
        mass = np.trapezoid(backward.u_bar.values, grid.x, axis=0)
        target = np.trapezoid(backward.final_data, grid.x)
        assert np.max(np.abs(mass - target)) < 1e-12

    def test_maximum_principle(self, backward):
        g = backward.final_data
        assert backward.u_bar.values.min() >= g.min() - 1e-12
        assert backward.u_bar.values.max() <= g.max() + 1e-12

    def test_flux_is_phi_of_state(self, backward, params):
        expect = eval_phi(params, backward.u_bar.values)
        assert np.max(np.abs(backward.v_bar.values - expect)) == 0.0

    def test_duality_forward_reproduces_final_datum(self, backward, grid, params):
        # re-propagate u0 forward under the decreasing-branch flow
        series = CosineSeries(grid.L, [0.0, float(backward.u0.max())])
        fwd = propagate_heat(series, params.phi0_slope, grid.T_end)
        assert fwd.synthesize(grid.x) == pytest.approx(backward.final_data, abs=1e-8)

    def test_range_outside_branch_rejected(self, params, grid):
        with pytest.raises(DomainViolationError):
            solve_unstable_backward(np.full(grid.n_x, 1.5), params, grid)

    def test_nonzero_endpoint_slope_rejected(self, params, grid):
        with pytest.raises(BoundaryConditionError):
            solve_unstable_backward(0.1 * grid.x / grid.L, params, grid)


class TestInverseSource:
    def test_mean_mode_formula_exact(self):
        a = CosineSeries(L, [0.0])
        b = CosineSeries(L, [1.0])
        f = inverse_source_from_endpoints(a, b, 1.0, 1.0)
        assert float(f.coeffs[0]) == 1.0

    def test_first_mode_derived_value(self):
        # exponent is 1, so f1 = (e-1)/(e-1) = 1
        a = CosineSeries(L, [0.0, 0.0])
        b = CosineSeries(L, [0.0, np.e - 1.0])
        f = inverse_source_from_endpoints(a, b, 1.0, 1.0)
        assert float(f.coeffs[1]) == pytest.approx(1.0, rel=1e-12)

    def test_free_evolution_gives_zero_source(self, grid):
        a = CosineSeries(L, [0.4, 0.2, -0.1])
        free = propagate_heat(a, -1.0, 1.0)  # |sigma| v_t + v_xx = 0
        f = inverse_source_from_endpoints(a, free, 1.0, 1.0)
        assert np.max(np.abs(f.as_float())) < 1e-12

    def test_equal_endpoints_force_nonzero_high_modes(self):
        a = CosineSeries(L, [0.3, 0.5])
        f = inverse_source_from_endpoints(a, a, 1.0, 1.0)
        assert float(f.coeffs[0]) == 0.0
        # f1 = mu1 a1 (1 - E)/(E - 1) = -a1
        assert float(f.coeffs[1]) == pytest.approx(-0.5, rel=1e-12)

    def test_overflow_guard_cites_summability(self):
        coeffs = np.zeros(40)
        coeffs[-1] = 1.0
        with pytest.raises(InstabilityError, match="summability"):
            inverse_source_from_endpoints(CosineSeries(L, coeffs),
                                          CosineSeries(L, np.ones(40)), 1.0, 1.0)

    def test_guard_boundary_mode(self):
        # exponent k^2 crosses 700 between k = 26 and k = 27
        ok = np.zeros(27)
        ok[26] = 1.0
        inverse_source_from_endpoints(CosineSeries(L, ok), CosineSeries(L, ok * 2), 1.0, 1.0)
        bad = np.zeros(28)
        bad[27] = 1.0
        with pytest.raises(InstabilityError):
            inverse_source_from_endpoints(CosineSeries(L, bad), CosineSeries(L, bad * 2),
                                          1.0, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            inverse_source_from_endpoints(CosineSeries(L, [0.0]),
                                          CosineSeries(L, [0.0, 1.0]), 1.0, 1.0)


class TestSourcedSolve:
    def test_round_trip_through_inverse(self, grid):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = CosineSeries(L, rng.uniform(-1, 1, 9))
            b = CosineSeries(L, rng.uniform(-1, 1, 9))
            f = inverse_source_from_endpoints(a, b, grid.T_end, 1.0)
            sol = solve_sourced(f, a, 1.0, grid)
            err = np.max(np.abs(sol.v.values[:, -1] - b.synthesize(grid.x)))
            assert err <= 1e-8

    def test_constant_source_mean_growth(self, grid):
        kappa, v0 = 0.8, -0.3
        sol = solve_sourced(CosineSeries(L, [2.0 * kappa]), np.full(grid.n_x, v0),
                            2.0, grid)
        expect = v0 + kappa * grid.t[None, :]
        assert np.max(np.abs(sol.v.values - expect)) < 1e-12

    def test_unit_source_shifts_backward_flux(self, backward, grid):
        # the |sigma|-source solution is vbar + t
        sol = solve_sourced(CosineSeries(L, [1.0]), backward.v_bar.values[:, 0],
                            1.0, grid)
        expect = backward.v_bar.values + grid.t[None, :]
        assert np.max(np.abs(sol.v.values - expect)) < 1e-8

    def test_equation_residual_spectral(self, backward, grid):
        sol = solve_sourced(CosineSeries(L, [1.0, 0.3]), backward.v_bar.values[:, 0],
                            1.0, grid)
        resid = sol.vxx_field().values + 1.0 * sol.vt_field().values \
            - sol.source_values()[:, None]
        assert np.max(np.abs(resid)) < 1e-8

    def test_excess_rate_equals_source_exactly(self, backward, grid, params):
        # m = v_xx - (beta0(v))_t = v_xx + |sigma| v_t = f, exact given sigma < 0
        sol = solve_sourced(CosineSeries(L, [1.0, 0.0, 0.3]),
                            backward.v_bar.values[:, 0], params.sigma_abs, grid)
        m = sol.vxx_field().values + params.sigma_abs * sol.vt_field().values
        assert np.max(np.abs(m - sol.source_values()[:, None])) < 1e-12

    def test_beta0_rate_matches_difference_quotient(self, backward, grid, params):
        sol = solve_sourced(CosineSeries(L, [1.0]), backward.v_bar.values[:, 0],
                            params.sigma_abs, grid)
        beta0 = params.b + params.sigma * (sol.v.values - params.B)
        fd = np.gradient(beta0, grid.t, axis=1, edge_order=2)
        analytic = params.sigma * sol.vt_field().values
        assert np.max(np.abs(fd - analytic)) < 5e-5

    def test_zero_source_matches_free_propagation(self, grid):
        a = CosineSeries(L, [0.2, -0.4, 0.0, 0.1])
        sol = solve_sourced(CosineSeries(L, [0.0]), a, 1.0, grid)
        for j in (0, grid.n_t // 2, grid.n_t - 1):
            free = propagate_heat(a, -1.0, grid.t[j])
            assert sol.v.values[:, j] == pytest.approx(free.synthesize(grid.x), abs=1e-10)

    def test_float_and_extended_paths_agree(self, grid):
        # growth exponent 9 stays on the float64 path; object coefficients
        # force the extended path on the same data
        a = np.zeros(4)
        a[3] = 0.2
        f = np.zeros(4)
        f[3] = 0.5
        fast = solve_sourced(CosineSeries(L, f), CosineSeries(L, a), 1.0, grid)
        slow = solve_sourced(CosineSeries(L, np.asarray([mp.mpf(v) for v in f], dtype=object)),
                             CosineSeries(L, a), 1.0, grid)
        assert np.max(np.abs(fast.v.values - slow.v.values)) < 1e-10

    def test_active_mode_overflow_guard(self, grid):
        coeffs = np.zeros(grid.n_modes + 1)
        coeffs[-1] = 1.0  # mode 32: exponent 1024 > 700
        with pytest.raises(InstabilityError):
            solve_sourced(CosineSeries(L, coeffs), np.zeros(grid.n_x), 1.0, grid)


class TestPseudoparabolic:
    def test_equilibrium(self, params, grid):
        sol = solve_pseudoparabolic(np.full(grid.n_x, 0.4), 0.1, params, grid)
        assert np.max(np.abs(sol.u_eps.values - 0.4)) < 1e-13
        assert np.max(np.abs(sol.v_eps.values - eval_phi(params, 0.4))) < 1e-13

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_stable_branch_decay_rate(self, params, grid, eps):
        # mode 1 of a branch-2 profile decays at alpha2 mu1/(1 + eps mu1)
        sol = solve_pseudoparabolic(2.5 + 0.25 * np.cos(grid.x), eps, params, grid)
        j = grid.n_t // 2
        measured = -np.log(sol.u_modes[1, j] / sol.u_modes[1, 0]) / grid.t[j]
        expect = params.alpha2 * 1.0 / (1.0 + eps * 1.0)
        assert measured == pytest.approx(expect, rel=1e-6)

    def test_unstable_branch_growth_rate(self, params, grid, backward):
        eps = 0.05
        sol = solve_pseudoparabolic(backward.u0, eps, params, grid)
        j = grid.n_t // 2
        measured = np.log(sol.u_modes[1, j] / sol.u_modes[1, 0]) / grid.t[j]
        expect = abs(params.phi0_slope) * 1.0 / (1.0 + eps * 1.0)
        assert measured == pytest.approx(expect, rel=1e-6)

    def test_conservation(self, params, grid, backward):
        for eps in (0.1, 0.001):
            sol = solve_pseudoparabolic(backward.u0, eps, params, grid)
            mass = np.trapezoid(sol.u_eps.values, grid.x, axis=0)
            assert np.max(np.abs(mass - mass[0])) < 1e-8

    def test_relaxation_identity_at_samples(self, params, grid, backward):
        # (I - eps d_xx) v = phi(u) column by column
        eps = 0.01
        sol = solve_pseudoparabolic(backward.u0, eps, params, grid)
        mu = grid.mu()
        lhs = (1.0 + eps * mu)[:, None] * sol.v_modes
        from fbplab.spectral import analyze_columns
        rhs = analyze_columns(eval_phi(params, sol.u_eps.values), grid.L, grid.n_modes)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_eps_consistency_single_branch(self, params, grid):
        # distance to the eps = 0 heat flow shrinks monotonically with eps
        u0 = 2.5 + 0.25 * np.cos(grid.x)
        exact = 2.5 + 0.25 * np.exp(-params.alpha2 * grid.t[None, :]) * np.cos(grid.x)[:, None]
        dists = []
        for eps in (0.1, 0.01, 0.001):
            sol = solve_pseudoparabolic(u0, eps, params, grid)
            dists.append(np.max(np.abs(sol.u_eps.values - exact)))
        assert dists[0] > dists[1] > dists[2]
        assert dists[1] < 0.2 * dists[0]

    def test_mixed_branch_relaxation(self, params, monkeypatch):
        # 0.9 cos x starts in the unstable branch and spreads into both stable
        # ones, so the flux modes come from pointwise evaluation; the energy
        # int Phi(u) dx, Phi' = phi, decays by -int v_x^2 + eps v_xx^2 <= 0
        import fbplab.solvers as solvers
        pointwise = []

        def counting(p, u):
            pointwise.append(u.size)
            return eval_phi(p, u)

        monkeypatch.setattr(solvers, "eval_phi", counting)
        small = Grid(L, 0.5, 64, 65, 16)
        sol = solve_pseudoparabolic(0.9 * np.cos(small.x), 1e-2, params, small)
        u = sol.u_eps.values
        assert pointwise
        assert u.min() < params.b and u.max() > params.c
        mass = np.trapezoid(u, small.x, axis=0)
        assert np.max(np.abs(mass - mass[0])) <= 1e-12
        energy = np.trapezoid(entropy_primitive(params, EntropyFlux.identity(), u),
                              small.x, axis=0)
        assert np.all(np.diff(energy) <= 0.0)

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001, 1e-6, 1e-7])
    def test_exact_stepping_matches_closed_form(self, params, grid, backward, eps):
        # the backward datum keeps the middle branch, where mode 1 grows as
        # exp(|phi0'| t/(1 + eps)) and every other mode stays put; at eps 1e-6
        # and 1e-7 RK4 everywhere would pass the step budget, but no step needs it
        sol = solve_pseudoparabolic(backward.u0, eps, params, grid)
        a0, a1 = sol.u_modes[:2, 0]
        exact = a0 + (a1 * np.exp(abs(params.phi0_slope) * grid.t / (1.0 + eps))[None, :]
                      * np.cos(grid.x)[:, None])
        assert np.max(np.abs(sol.u_eps.values - exact)) <= 1e-14
        assert np.all(sol.u_modes[0] == a0)
        assert np.all(sol.u_modes[2:] == 0.0)

    def test_exact_step_guards_the_overflow_exponent(self, params):
        # mode 64 would grow by e^1453 over one interval, but its coefficient
        # is zero: it stays zero and no floating-point warning is raised
        eps, coarse = 1e-4, Grid(L, 1.0, 128, 3, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_pseudoparabolic(0.05 * np.cos(coarse.x), eps, params, coarse)
        assert np.all(sol.u_modes[2:] == 0.0)
        np.testing.assert_allclose(sol.u_modes[1], 0.05 * np.exp(coarse.t / (1.0 + eps)),
                                   rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("amplitude, exact", [(0.9, False), (0.5, True)])
    def test_exact_step_needs_the_drift_certificate(self, params, monkeypatch,
                                                    amplitude, exact):
        # one interval of length 0.5 from a cos x in the middle branch: the
        # drift bound of 0.9 cos x reaches c = 1, so that interval runs the
        # 200 RK4 sub-steps (4 flux evaluations each) and crosses into a stable
        # branch; 0.5 cos x stays below c and takes the exact step
        import fbplab.solvers as solvers
        flux_modes = solvers._flux_modes
        calls, pointwise = [], []

        def counting_flux(*args):
            calls.append(1)
            return flux_modes(*args)

        def counting_phi(p, u):
            pointwise.append(u.size)
            return eval_phi(p, u)

        monkeypatch.setattr(solvers, "_flux_modes", counting_flux)
        monkeypatch.setattr(solvers, "eval_phi", counting_phi)
        one_step = Grid(L, 0.5, 64, 2, 16)
        sol = solve_pseudoparabolic(amplitude * np.cos(one_step.x), 1e-2, params, one_step)
        n_sub = 200  # ceil(dt / (eps / 4))
        assert len(calls) == (0 if exact else 4 * n_sub) + one_step.n_t
        assert bool(pointwise) is not exact
        assert (sol.u_eps.values.max() > params.c) is not exact

    @pytest.mark.parametrize("slope, refused", [(40.0, True), (10.0, False)])
    def test_steep_branch_guard(self, grid, slope, refused):
        # at eps = 0.01 the step is eps/4-capped; slope 40 pushes the fastest
        # mode past RK4's stability region, slope 10 stays inside it.  The
        # guard acts where RK4 is first needed: 0.9 cos x reaches c = 1 near
        # t = 0.1, while 2 + 0.1 cos x keeps the upper branch and takes exact
        # steps only, so it runs at either slope and decays per mode as
        # exp(-slope mu_k t/(1 + eps mu_k))
        eps = 0.01
        steep = PhaseParams(b=-1.0, c=1.0, A=-1.0, B=1.0, alpha1=slope, alpha2=slope)
        mixed = 0.9 * np.cos(grid.x)
        if refused:
            with pytest.raises(ConfigurationError,
                               match=r"branch slope 40 .*eps/4 from t = 0\.1"):
                solve_pseudoparabolic(mixed, eps, steep, grid)
        else:
            assert np.all(np.isfinite(solve_pseudoparabolic(mixed, eps, steep, grid).u_eps.values))
        sol = solve_pseudoparabolic(2.0 + 0.1 * np.cos(grid.x), eps, steep, grid)
        a0, a1 = sol.u_modes[:2, 0]
        exact = a0 + (a1 * np.exp(-slope * grid.t / (1.0 + eps))[None, :]
                      * np.cos(grid.x)[:, None])
        assert np.max(np.abs(sol.u_eps.values - exact)) <= 1e-14
        assert np.all(sol.u_modes[2:] == 0.0)

    def test_step_budget_guard(self, params, grid):
        # 0.9 cos x reaches c = 1 near t = 0.1, where RK4 must take over; the
        # budget counts RK4 steps from that interval on and refuses the run
        # there, before any RK4 step
        eps = 1e-7
        with pytest.raises(ConfigurationError, match="RK4 steps needed from t = 0.1") as err:
            solve_pseudoparabolic(0.9 * np.cos(grid.x), eps, params, grid)
        total, t = re.search(r"(\d+) RK4 steps needed from t = ([\d.]+);",
                             str(err.value)).groups()
        j = round(float(t) / grid.dt) + 1  # the first interval that needs RK4 ends at j
        assert int(total) == int(np.ceil(grid.dt / (eps / 4))) * (grid.n_t - j)

    def test_bad_eps(self, params, grid):
        with pytest.raises(ConfigurationError):
            solve_pseudoparabolic(np.full(grid.n_x, 0.1), 0.0, params, grid)
