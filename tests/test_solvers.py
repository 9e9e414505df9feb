"""Solver contracts, each checked against an independent oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpmath as mp

from fbplab.errors import (BoundaryConditionError, ConfigurationError,
                           DomainViolationError, InstabilityError)
from fbplab.phase_model import EntropyFlux, PhaseParams, entropy_primitive, eval_phi
from fbplab.solvers import (inverse_source_from_endpoints, solve_pseudoparabolic,
                            solve_sourced, solve_unstable_backward)
from fbplab.spectral import (CosineSeries, Grid, analysis_matrix, cosine_basis,
                             mode_exponential)
from oracles import propagate_heat, vxx_field

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


def rk4_relaxation_oracle(u0, eps, params, grid, refine=1):
    """Mode history of the relaxation stepper that exact mixed-interval steps
    replaced: an interval certified to one branch takes the per-mode closed form,
    any other one refine * ceil(dt/(eps/4)) classic RK4 steps on the nonlinear
    system, with phi evaluated at the nodes."""
    from fbplab.solvers import _certified_branch, _flux_modes, _profile_to_series

    mu = grid.mu()
    resolvent = 1.0 / (1.0 + eps * mu)
    n_sub = refine * max(1, int(np.ceil(grid.dt / (eps / 4.0))))
    h = grid.dt / n_sub
    basis = np.ascontiguousarray(cosine_basis(grid.n_modes, grid.L, grid.x).T)
    analysis = analysis_matrix(grid.n_modes, grid.L, grid.n_x)

    def rhs(state):
        return -mu * resolvent * _flux_modes(state, params, basis, analysis)

    exponents = -np.outer(params.branches.slope, mu * resolvent) * grid.dt
    u_modes = np.zeros((grid.n_modes + 1, grid.n_t))
    u_modes[:, 0] = state = _profile_to_series(u0, grid, "initial state").as_float()
    start, run = 0, None
    for j in range(1, grid.n_t):
        i = _certified_branch(state, params, basis, exponents)
        if i is not None and i != run:
            start, run = j - 1, i
        if i is not None:
            state = u_modes[:, start] * mode_exponential(
                (j - start) * exponents[i], u_modes[:, start] != 0, "relaxation step")
        else:
            run = None
            for _ in range(n_sub):
                k1 = rhs(state)
                k2 = rhs(state + 0.5 * h * k1)
                k3 = rhs(state + 0.5 * h * k2)
                k4 = rhs(state + h * k3)
                state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u_modes[:, j] = state
    return u_modes


def assert_relaxes(sol, params, strict=False, crosses=True):
    """u leaves [b, c] (when it crosses), int u dx is conserved to 1e-12 and
    int Phi(u) dx (Phi' = phi) never increases: not at all when strict, else by
    at most 4 ulps of the trapezoid sum, as at an equilibrium reached to round-off."""
    x, u = sol.grid.x, sol.u_eps.values
    assert not crosses or u.min() < params.b or u.max() > params.c
    mass = np.trapezoid(u, x, axis=0)
    assert np.max(np.abs(mass - mass[0])) <= 1e-12
    energy = np.trapezoid(entropy_primitive(params, EntropyFlux.identity(), u), x, axis=0)
    slack = 0.0 if strict else 4.0 * np.spacing(np.abs(energy[:-1]))
    assert np.all(np.diff(energy) <= slack)


@pytest.fixture
def frozen_patterns(monkeypatch):
    """Records each node-branch pattern the relaxation decomposes, and each
    anchor a sub-step is certified from: the pattern object and what is left
    of its sample interval."""
    import fbplab.solvers as solvers
    log = {"patterns": [], "anchors": []}
    certified = solvers._FrozenPattern._certified

    class Recording(solvers._FrozenPattern):
        def __init__(self, pattern, *args):
            log["patterns"].append(pattern.copy())
            super().__init__(pattern, *args)

        def _certified(self, nodes, rates, taus):
            log["anchors"].append((self, taus[0]))
            return certified(self, nodes, rates, taus)

    monkeypatch.setattr(solvers, "_FrozenPattern", Recording)
    return log


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
        resid = vxx_field(sol).values + 1.0 * sol.vt_field().values \
            - sol.source_values()[:, None]
        assert np.max(np.abs(resid)) < 1e-8

    def test_excess_rate_equals_source_exactly(self, backward, grid, params):
        # m = v_xx - (beta0(v))_t = v_xx + |sigma| v_t = f, exact given sigma < 0
        sol = solve_sourced(CosineSeries(L, [1.0, 0.0, 0.3]),
                            backward.v_bar.values[:, 0], params.sigma_abs, grid)
        m = vxx_field(sol).values + params.sigma_abs * sol.vt_field().values
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
        with pytest.raises(InstabilityError, match="mode 32 .*summability"):
            solve_sourced(CosineSeries(L, coeffs), np.zeros(grid.n_x), 1.0, grid)

    def test_float_path_is_the_per_mode_closed_form(self, grid):
        # v_k(t) = (a_k + f_k/mu_k) e^{mu_k t/|sigma|} - f_k/mu_k, mode 0 linear
        short = Grid(L, 0.01, grid.n_x, 9, grid.n_modes)
        a = np.zeros(short.n_modes + 1)
        f = np.zeros(short.n_modes + 1)
        a[[0, 2, 5]], f[[0, 1, 5, 32]] = (0.3, -0.2, 0.05), (1.0, 0.4, -0.1, 0.02)
        sol = solve_sourced(CosineSeries(L, f), CosineSeries(L, a), 2.0, short)
        mu = short.mu()
        assert np.array_equal(sol.v_modes[0], a[0] + f[0] * short.t / 2.0)
        for k in range(1, short.n_modes + 1):
            fk = f[k] / mu[k]
            expect = (a[k] + fk) * np.exp(mu[k] * short.t / 2.0) - fk if a[k] or f[k] else 0.0
            assert np.array_equal(sol.v_modes[k], np.broadcast_to(expect, short.t.shape)), k


class TestPseudoparabolic:
    def test_exact_step_overflow_is_instability(self, params, grid):
        # mode 32 at 1e-310 stays certified in the middle branch until its run
        # exponent passes the guard: refused, not handed to RK4
        u0 = CosineSeries(L, [0.0] * 32 + [1e-310])
        with pytest.raises(InstabilityError, match="relaxation step: mode 32"):
            solve_pseudoparabolic(u0, 1e-4, params, grid)

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
                                                    frozen_patterns, amplitude, exact):
        # one interval of length 0.5 from a cos x in the middle branch: the
        # drift bound of 0.9 cos x reaches c = 1, so that interval is stepped
        # under frozen node-branch patterns and crosses into a stable branch;
        # 0.5 cos x stays below c and takes the single-branch closed form
        import fbplab.solvers as solvers
        patterns, pointwise = frozen_patterns["patterns"], []

        def counting_phi(p, u):
            pointwise.append(u.size)
            return eval_phi(p, u)

        monkeypatch.setattr(solvers, "eval_phi", counting_phi)
        one_step = Grid(L, 0.5, 64, 2, 16)
        sol = solve_pseudoparabolic(amplitude * np.cos(one_step.x), 1e-2, params, one_step)
        assert bool(patterns) is not exact
        assert bool(pointwise) is not exact  # only the flux at the crossed end sample
        assert (sol.u_eps.values.max() > params.c) is not exact
        if not exact:
            # the run starts all-middle and ends with nodes in both stable branches
            assert not np.any(patterns[0]) and {1, 2} <= set(patterns[-1])

    def test_frozen_pattern_step_matches_refined_rk4(self, params, frozen_patterns):
        # 1.5 cos x starts in all three branches, and over 0.01 no node crosses:
        # one pattern, one linear system, which RK4 refined 64x resolves
        patterns = frozen_patterns["patterns"]
        one_step = Grid(L, 0.01, 32, 2, 8)
        u0 = 1.5 * np.cos(one_step.x)
        sol = solve_pseudoparabolic(u0, 1e-2, params, one_step)
        assert len(patterns) == 1 and set(patterns[0]) == {0, 1, 2}
        oracle = rk4_relaxation_oracle(u0, 1e-2, params, one_step, refine=64)
        assert np.max(np.abs(sol.u_modes[:, 1] - oracle[:, 1])) <= 1e-10
        assert np.max(np.abs(sol.u_modes[:, 1] - sol.u_modes[:, 0])) > 1e-2

    def test_refined_rk4_approaches_exact_steps_on_a_nonunit_diagram(self):
        # b, c, A, B = 0, 1, 0, 3 with outer slopes 4: 0.5 + 0.6 cos x crosses
        # both breakpoints, and RK4 refined 4x and 16x closes in on the exact
        # steps: they lie within half the 4x-to-16x gap of RK4 16x (0.19 of it)
        steep = PhaseParams(b=0.0, c=1.0, A=0.0, B=3.0, alpha1=4.0, alpha2=4.0)
        small = Grid(L, 0.3, 64, 65, 16)
        u0 = 0.5 + 0.6 * np.cos(small.x)
        sol = solve_pseudoparabolic(u0, 1e-2, steep, small)
        assert_relaxes(sol, steep, strict=True)
        fine, coarse = (rk4_relaxation_oracle(u0, 1e-2, steep, small, refine)
                        for refine in (16, 4))
        assert np.max(np.abs(sol.u_modes - fine)) < 0.5 * np.max(np.abs(coarse - fine))

    def test_crossing_time_matches_the_closed_form(self, params, frozen_patterns):
        # 1.5 cos x on 32 nodes: one node reaches its breakpoint mid-interval.
        # The located time is where the solver's second pattern starts; the
        # oracle bisects the first pattern's closed form exp(t M) (scipy's expm
        # of the affine system, not the eigen-decomposition) for the first
        # time a node lies past its breakpoint
        from scipy.linalg import expm
        eps, one_step = 1e-2, Grid(L, 0.02, 32, 2, 8)
        u0 = 1.5 * np.cos(one_step.x)
        sol = solve_pseudoparabolic(u0, eps, params, one_step)
        anchors = frozen_patterns["anchors"]
        flows = list(dict.fromkeys(flow for flow, _ in anchors))
        assert len(flows) == 2
        located = one_step.T_end - next(left for flow, left in anchors if flow is flows[1])

        basis = cosine_basis(one_step.n_modes, L, one_step.x).T
        analysis = analysis_matrix(one_step.n_modes, L, one_step.n_x)
        rate = one_step.mu() / (1.0 + eps * one_step.mu())
        pattern = params.branch_index(u0)
        slope, intercept = params.branches.slope[pattern], params.branches.intercept[pattern]
        n = one_step.n_modes + 1
        system = np.zeros((n + 1, n + 1))
        system[:n, :n] = -rate[:, None] * (analysis @ (slope[:, None] * basis))
        system[:n, n] = -rate * (analysis @ intercept)
        lo, hi = np.array(params.branches.closed)[pattern].T

        def past(t):
            nodes = basis @ (expm(t * system) @ np.r_[sol.u_modes[:, 0], 1.0])[:n]
            return np.any((nodes < lo) | (nodes > hi))

        ts = np.linspace(0.0, one_step.T_end, 401)
        first = next(i for i, t in enumerate(ts) if past(t))
        a, b = ts[first - 1], ts[first]
        for _ in range(60):
            a, b = (a, 0.5 * (a + b)) if past(0.5 * (a + b)) else (0.5 * (a + b), b)
        assert 0.0 < located < one_step.T_end
        assert abs(located - b) <= 1e-12

    @pytest.mark.parametrize("slope", [40.0, 10.0])
    def test_steep_branch_runs(self, grid, slope):
        # no RK4 stability region limits a step: with outer slopes 40 at
        # eps = 0.01, 0.9 cos x crosses into both stable branches and relaxes,
        # and 2 + 0.1 cos x keeps the upper branch, decaying per mode as
        # exp(-slope mu_k t/(1 + eps mu_k))
        eps = 0.01
        steep = PhaseParams(b=-1.0, c=1.0, A=-1.0, B=1.0, alpha1=slope, alpha2=slope)
        sol = solve_pseudoparabolic(0.9 * np.cos(grid.x), eps, steep, grid)
        assert_relaxes(sol, steep)
        sol = solve_pseudoparabolic(2.0 + 0.1 * np.cos(grid.x), eps, steep, grid)
        a0, a1 = sol.u_modes[:2, 0]
        exact = a0 + (a1 * np.exp(-slope * grid.t / (1.0 + eps))[None, :]
                      * np.cos(grid.x)[:, None])
        assert np.max(np.abs(sol.u_eps.values - exact)) <= 1e-14
        assert np.all(sol.u_modes[2:] == 0.0)

    def test_no_step_budget(self, params, grid):
        # 0.9 cos x reaches c = 1 near t = 0.1; at eps = 1e-7 the RK4 stepper
        # would have needed 2.8e7 steps from there and refused; exact steps
        # do not depend on eps
        assert_relaxes(solve_pseudoparabolic(0.9 * np.cos(grid.x), 1e-7, params, grid), params)

    @settings(max_examples=25, deadline=None)
    @given(amplitude=st.floats(0.5, 1.5), second=st.floats(-0.5, 0.5),
           k=st.integers(2, 4), log_eps=st.floats(-6.0, -1.0))
    @example(amplitude=0.9, second=0.0, k=2, log_eps=-3.0)
    def test_two_mode_relaxation_invariants(self, params, amplitude, second, k, log_eps):
        small = Grid(L, 0.5, 32, 33, 8)
        u0 = amplitude * np.cos(small.x) + second * np.cos(k * small.x)
        assert_relaxes(solve_pseudoparabolic(u0, 10.0 ** log_eps, params, small), params,
                       strict=True, crosses=False)

    def test_vanishing_eps_sweep_work_is_bounded(self, params, grid, frozen_patterns):
        # 0.9 cos x at 128x256x32 takes 128-129 decompositions and 368-371
        # certified sub-steps at each of these eps; no count grows as eps falls
        for eps in (1e-4, 1e-5, 1e-6):
            assert_relaxes(solve_pseudoparabolic(0.9 * np.cos(grid.x), eps, params, grid),
                           params, strict=True)
            work = {key: len(frozen_patterns[key]) for key in ("patterns", "anchors")}
            assert work["patterns"] <= 200 and work["anchors"] <= 600, (eps, work)
            frozen_patterns["patterns"].clear()
            frozen_patterns["anchors"].clear()

    def test_bad_eps(self, params, grid):
        with pytest.raises(ConfigurationError):
            solve_pseudoparabolic(np.full(grid.n_x, 0.1), 0.0, params, grid)
