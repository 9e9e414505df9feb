"""Weight construction, state assembly, horizon certification, family building.

Spot values are frozen from the affine branch maps of the default diagram:
with the unit-slope backward solve, the |sigma| source gives v = vbar + t,
gap(v) = 2(1 + v), weight = t/gap, and at the midpoint (vbar = 0, t = 0.1)
weight = 0.1/2.2 and weight rate = 1/2.2 - 0.2/2.2^2.
"""

import sys

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from fbplab import counterexample, spectral
from fbplab.counterexample import assemble_state, build_lambda, certify_horizon, construct_family
from fbplab.errors import (ConfigurationError, DomainViolationError, GridMismatchError,
                           NearSingularError)
from fbplab.phase_model import (PhaseParams, branch_gap_extended, beta0_extended,
                                beta2_extended)
from fbplab.solvers import solve_sourced, solve_unstable_backward
from fbplab.spectral import CosineSeries, Field2D, Grid, analyze_columns, synthesize_columns
from fbplab.verifier import SolutionTriple
from oracles import uncut_sourced_triple, vt_field

L = np.pi


@pytest.fixture(scope="module")
def midpoint_grid():
    # x = pi/2 is node 64 and t = 0.1 is sample 25 on this grid
    return Grid(L=L, T_end=1.0, n_x=129, n_t=251, n_modes=32)


@pytest.fixture(scope="module")
def cut_window_case():
    """A family on a non-unit diagram whose second sourced triple stops early:
    its v dips below A at t = 0.2, so the construction keeps samples 0..2."""
    params = PhaseParams(-0.8694236187043056, 0.13392635882708182, -0.2525825676231057,
                         2.198107496694716, 0.6621014715338207, 0.5496900706021547)
    grid, s = Grid(L, 1.0, 64, 16, 16), 0.9612559724376797
    family = construct_family(CosineSeries(L, [-0.36774863, 0.04446508]),
                              [CosineSeries(L, [s]), CosineSeries(L, [s, 0.0, 0.0, 0.3 * s])],
                              params, grid, delta=0.05)
    return family, grid


@pytest.fixture(scope="module")
def midpoint_setup(params, midpoint_grid):
    back = solve_unstable_backward(CosineSeries(L, [0.0, 0.1]), params, midpoint_grid)
    sol = solve_sourced(CosineSeries(L, [1.0]), back.v_bar.values[:, 0], 1.0,
                        midpoint_grid)
    return back, sol


@pytest.fixture(scope="module")
def one_sample_past(family, default_sources, backward, params, grid):
    """Each reference sourced triple assembled on one sample past its certified
    window, where the condition that ends its horizon fails."""
    return [uncut_sourced_triple(f, backward.v_bar.values[:, 0], params, grid,
                                 triple.grid.n_t + 1)
            for triple, f in zip(family[1:], default_sources, strict=True)]


def lambda_oracle(sol, params):
    """Trapezoid time-integration of the excess rate computed from the fields,
    divided by the branch gap; independent of the closed-form t*f path."""
    grid = sol.grid
    modes = analyze_columns(sol.v.values, grid.L, grid.n_modes)
    vxx = synthesize_columns(-(grid.mu()[:, None] * modes), grid.L, grid.x)
    m = vxx + params.sigma_abs * vt_field(sol).values
    integral = np.concatenate(
        [np.zeros((grid.n_x, 1)),
         np.cumsum((m[:, 1:] + m[:, :-1]) * 0.5 * grid.dt, axis=1)], axis=1)
    return integral / branch_gap_extended(params, sol.v.values)


class TestBuildLambda:
    def test_zero_at_initial_time_exactly(self, midpoint_setup, params):
        _, sol = midpoint_setup
        lam, _ = build_lambda(sol, params)
        assert np.all(lam.values[:, 0] == 0.0)

    def test_midpoint_spot_value(self, midpoint_setup, params, midpoint_grid):
        _, sol = midpoint_setup
        lam, _ = build_lambda(sol, params)
        i, j = 64, 25  # x = pi/2 (vbar = 0), t = 0.1
        assert midpoint_grid.x[i] == pytest.approx(np.pi / 2)
        assert midpoint_grid.t[j] == pytest.approx(0.1)
        assert lam.values[i, j] == pytest.approx(0.1 / 2.2, abs=1e-12)

    def test_matches_time_integration_oracle(self, midpoint_setup, params):
        _, sol = midpoint_setup
        lam, _ = build_lambda(sol, params)
        assert np.max(np.abs(lam.values - lambda_oracle(sol, params))) < 1e-8

    def test_zero_source_gives_zero_weight(self, midpoint_setup, params, midpoint_grid):
        back, _ = midpoint_setup
        free = solve_sourced(CosineSeries(L, [0.0]), back.v_bar.values[:, 0], 1.0,
                             midpoint_grid)
        lam, _ = build_lambda(free, params)
        assert np.max(np.abs(lam.values)) == 0.0

    def test_flux_crossing_lower_critical_rejected(self, backward, params, grid):
        # the 2-mode source drives v below A near t = 0.82
        sol = solve_sourced(CosineSeries(L, [1.0, 0.0, 0.3]),
                            backward.v_bar.values[:, 0], 1.0, grid)
        with pytest.raises((DomainViolationError, NearSingularError)):
            build_lambda(sol, params)


class TestLambdaRate:
    def test_initial_value_is_rate_over_gap(self, midpoint_setup, params):
        _, sol = midpoint_setup
        lam, rate = build_lambda(sol, params)
        expect = sol.source / branch_gap_extended(params, sol.v.values[:, 0])
        assert rate.values[:, 0] == pytest.approx(expect, abs=1e-12)
        assert np.all(rate.values[:, 0] > 0)

    def test_midpoint_spot_value(self, midpoint_setup, params):
        # closed form with alpha2 = 1, sigma = -1, vbar = 0, vbar_t = 0, t = 0.1:
        # [2(v+1) - 2t(vbar_t+1)] / (4 (v+1)^2) with v = 0.1
        _, sol = midpoint_setup
        lam, rate = build_lambda(sol, params)
        assert rate.values[64, 25] == pytest.approx(
            (2 * 1.1 - 0.2 * 1.0) / (4 * 1.1 ** 2), abs=1e-12)
        assert rate.values[64, 25] == pytest.approx(0.4132231404958678, abs=1e-12)

    def test_matches_finite_differences_at_order_two(self, params):
        errs = []
        for n_t in (126, 251, 501):
            g = Grid(L=L, T_end=1.0, n_x=129, n_t=n_t, n_modes=32)
            back = solve_unstable_backward(CosineSeries(L, [0.0, 0.1]), params, g)
            sol = solve_sourced(CosineSeries(L, [1.0]), back.v_bar.values[:, 0], 1.0, g)
            lam, rate = build_lambda(sol, params)
            fd = np.gradient(lam.values, g.t, axis=1, edge_order=2)
            errs.append(np.max(np.abs(fd[:, 1:-1] - rate.values[:, 1:-1])))
        rates = [np.log2(errs[i] / errs[i + 1]) / np.log2((251 - 1) / (126 - 1))
                 for i in range(2)]
        assert min(rates) > 1.9

    def test_zero_source_rate_vanishes(self, midpoint_setup, params, midpoint_grid):
        back, _ = midpoint_setup
        free = solve_sourced(CosineSeries(L, [0.0]), back.v_bar.values[:, 0], 1.0,
                             midpoint_grid)
        lam, rate = build_lambda(free, params)
        assert np.max(np.abs(rate.values)) == 0.0


class TestAssembleState:
    def test_pure_branches(self, midpoint_setup, params, midpoint_grid):
        _, sol = midpoint_setup
        zeros = Field2D(midpoint_grid, np.zeros_like(sol.v.values))
        ones = Field2D(midpoint_grid, np.ones_like(sol.v.values))
        u0 = assemble_state(sol.v, zeros, params)
        u1 = assemble_state(sol.v, ones, params)
        assert np.allclose(u0.values, beta0_extended(params, sol.v.values), atol=1e-14)
        assert np.allclose(u1.values, beta2_extended(params, sol.v.values), atol=1e-14)

    def test_unit_source_state_equals_backward_state(self, midpoint_setup, params):
        # the time shift moves (v, lambda) but not u
        back, sol = midpoint_setup
        lam, _ = build_lambda(sol, params)
        u = assemble_state(sol.v, lam, params)
        assert np.max(np.abs(u.values - back.u_bar.values)) < 1e-8

    def test_integrated_evolution_identity(self, midpoint_setup, params, midpoint_grid):
        back, sol = midpoint_setup
        lam, _ = build_lambda(sol, params)
        u = assemble_state(sol.v, lam, params)
        modes = analyze_columns(sol.v.values, midpoint_grid.L, midpoint_grid.n_modes)
        vxx = synthesize_columns(-(midpoint_grid.mu()[:, None] * modes),
                                 midpoint_grid.L, midpoint_grid.x)
        cum = cumulative_simpson(vxx, x=midpoint_grid.t, axis=1, initial=0.0)
        expect = beta0_extended(params, sol.v.values[:, [0]]) + cum
        assert np.max(np.abs(u.values - expect)) < 1e-6

    def test_weight_bounds_enforced(self, midpoint_setup, params, midpoint_grid):
        _, sol = midpoint_setup
        bad = Field2D(midpoint_grid, np.full_like(sol.v.values, 1.5))
        with pytest.raises(DomainViolationError):
            assemble_state(sol.v, bad, params)


class TestCertifyHorizon:
    def test_unit_source_reaches_past_080(self, family):
        # grid sweep oracle pinned this at 231/255
        t_bar = family[1].t_bar
        assert t_bar == pytest.approx(231 / 255, abs=1e-12)
        assert t_bar >= 0.8

    def test_baseline_certified_to_horizon(self, family, grid):
        assert family[0].t_bar == pytest.approx(grid.T_end)

    @staticmethod
    def sourced_triple(f0, back, params, grid):
        sol = solve_sourced(CosineSeries(L, [f0]), back.v_bar.values[:, 0], 1.0, grid)
        lam, rate = build_lambda(sol, params)
        return SolutionTriple(assemble_state(sol.v, lam, params), sol.v, lam, 0.0,
                              f"sourced(f=[{f0}])", lam_t=rate, source=sol.source)

    def test_source_below_margin_fails_rate_margin(self, midpoint_setup, params,
                                                   midpoint_grid):
        back, _ = midpoint_setup
        triple = self.sourced_triple(0.01, back, params, midpoint_grid)
        t_bar, binding = certify_horizon(triple, params, 0.05)
        assert t_bar == 0.0
        assert "excess rate" in binding

    def test_zero_source_is_certified_as_weight_zero(self, midpoint_setup, params,
                                                     midpoint_grid):
        # f = 0 gives lambda = 0 on the whole window: a classical solution,
        # whose condition (ii) is waived as for the baseline
        back, _ = midpoint_setup
        triple = self.sourced_triple(0.0, back, params, midpoint_grid)
        assert not triple.lam.values.any()
        t_bar, binding = certify_horizon(triple, params, 0.05)
        assert t_bar > 0.0
        assert "excess rate" not in binding

    def test_margin_above_source_maximum_gives_zero(self, family, params):
        assert certify_horizon(family[1], params, delta=2.0)[0] == 0.0

    @pytest.mark.parametrize("delta", [0.0, -0.05, np.nan, np.inf])
    def test_margin_must_be_finite_and_positive(self, delta, family, final_datum,
                                                default_sources, params, grid):
        # the rule of ScenarioConfig.delta: a NaN margin fails every comparison, and
        # would otherwise certify each triple to t_bar = 0
        with pytest.raises(ConfigurationError, match="finite and positive"):
            certify_horizon(family[1], params, delta)
        with pytest.raises(ConfigurationError, match="finite and positive"):
            construct_family(final_datum, default_sources, params, grid, delta=delta)

    def test_binding_conditions(self, family, one_sample_past, midpoint_setup, params,
                                midpoint_grid):
        # the reference sources all stop where v leaves (A + delta, B], which is
        # perfbench's closed-form horizon; the baseline holds on the whole window
        assert [t.binding for t in family] == [""] + ["flux in (A+delta, B]"] * 3
        for triple in family:
            # a family triple holds its certified window, on which every margin holds
            assert certify_horizon(triple, params, 0.05) == (triple.t_bar, "")
        for triple, past in zip(family[1:], one_sample_past):
            assert certify_horizon(past, params, 0.05) == (triple.t_bar, triple.binding)
        back, _ = midpoint_setup
        low = self.sourced_triple(0.01, back, params, midpoint_grid)
        assert certify_horizon(low, params, 0.05) == (0.0, "excess rate m >= delta")

    def test_excess_rate_is_read_not_projected(self, family, one_sample_past, params,
                                               monkeypatch):
        # m = f exactly per mode, so condition (ii) reads the source profile: no
        # fbplab module projects v while certifying any reference triple, on its
        # certified window or one sample past it
        calls = []
        original = spectral.analyze_columns

        def spy(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("fbplab") and getattr(module, "analyze_columns", None) is original:
                monkeypatch.setattr(module, "analyze_columns", spy)
        for triple in family:
            assert certify_horizon(triple, params, 0.05) == (triple.t_bar, "")
        for triple, past in zip(family[1:], one_sample_past):
            assert certify_horizon(past, params, 0.05) == (triple.t_bar, triple.binding)
        assert calls == []

    def test_excess_rate_keeps_no_projection(self, final_datum, default_sources, params,
                                             grid):
        # certification reads the source profile, so no triple of a fresh
        # family carries a cached Field2D.modes
        family = construct_family(final_datum, default_sources, params, grid)
        assert all("modes" not in vars(t.v) for t in family)

    def test_certified_region_respects_margins(self, family, params):
        delta = 0.05
        for triple in family[1:]:
            gap = branch_gap_extended(params, triple.v.values)
            assert gap.min() >= delta
            assert triple.lam.values.min() >= 0.0
            assert triple.lam.values.max() <= 1.0 - delta
            assert triple.v.values.min() > params.A + delta
            assert triple.v.values.max() <= params.B
            assert triple.lam_t.values.min() >= -1e-8


class TestSolutionTriple:
    def test_weight_rate_required_on_the_shared_grid(self, family):
        base = family[0]
        with pytest.raises(TypeError):
            SolutionTriple(base.u, base.v, base.lam, 0.5, "no rate")
        with pytest.raises(GridMismatchError):
            SolutionTriple(base.u, base.v, base.lam, 0.5, "short rate",
                           lam_t=base.lam_t.restrict(2), source=base.source)

    def test_source_profile_required_on_the_x_grid(self, family, grid):
        base = family[0]
        with pytest.raises(TypeError):
            SolutionTriple(base.u, base.v, base.lam, 0.5, "no source", lam_t=base.lam_t)
        with pytest.raises(GridMismatchError, match="source profile"):
            SolutionTriple(base.u, base.v, base.lam, 0.5, "short source",
                           lam_t=base.lam_t, source=np.zeros(grid.n_x - 1))

    def test_sourced_triples_hold_the_source_their_weight_divides(
            self, final_datum, default_sources, params, grid, backward, monkeypatch):
        # f is synthesized once per sourced solve; the triple holds that array
        solves = []

        def recording(*args):
            solves.append(solve_sourced(*args))
            return solves[-1]

        monkeypatch.setattr("fbplab.counterexample.solve_sourced", recording)
        family = construct_family(final_datum, default_sources, params, grid)
        for triple, f, sol in zip(family[1:], default_sources, solves, strict=True):
            assert triple.source is sol.source
            fresh = solve_sourced(f, backward.v_bar.values[:, 0], params.sigma_abs, grid)
            assert triple.source.tobytes() == fresh.source.tobytes()
            numer = triple.grid.t[None, :] * fresh.source[:, None]
            weight = numer / branch_gap_extended(params, triple.v.values)
            assert triple.lam.values.tobytes() == weight.tobytes()

    def test_source_profile_is_read_only(self, family, grid):
        # the sourced triples carry the synthesized f(x); the baseline carries zeros
        assert not family[0].source.any()
        assert family[1].source == pytest.approx(np.ones(grid.n_x), abs=1e-14)
        with pytest.raises(ValueError):
            family[1].source[0] = 0.0


class TestConstructFamily:
    def test_family_size_and_provenance(self, family):
        assert len(family) == 4
        assert family[0].provenance == "baseline"
        assert all(t.provenance.startswith("sourced(") for t in family[1:])

    def test_shared_initial_datum(self, family, backward):
        for triple in family:
            assert np.max(np.abs(triple.u.values[:, 0] - backward.u0)) <= 1e-10

    def test_frozen_horizons(self, family):
        # grid-sweep oracle values on the 256-sample grid
        expect = [1.0, 231 / 255, 190 / 255, 124 / 255]
        for triple, want in zip(family, expect):
            assert triple.t_bar == pytest.approx(want, abs=1e-12)

    def test_window_end_binds_a_horizon_that_holds_on_all_of_it(self, cut_window_case):
        # every margin holds on the three kept samples, so the horizon is the end
        # of the construction window, which names what stopped it
        family, grid = cut_window_case
        cut = family[2]
        assert cut.v.grid.n_t == 3 and cut.t_bar == grid.t[2] < grid.T_end
        assert cut.binding == "flux above A; branch gap >= build floor; weight at most 1"

    @pytest.mark.parametrize("case", ["reference", "cut window"])
    def test_binding_empty_exactly_on_the_whole_grid(self, case, family, grid,
                                                      cut_window_case):
        triples, on = (family, grid) if case == "reference" else cut_window_case
        for triple in triples:
            assert (triple.binding == "") == (triple.t_bar == on.T_end), triple.provenance

    def test_empty_sources_gives_baseline_only(self, final_datum, params, grid):
        fam = construct_family(final_datum, [], params, grid)
        assert len(fam) == 1
        assert fam[0].provenance == "baseline"

    def test_nonpositive_source_rejected_with_index(self, final_datum, params, grid):
        bad = CosineSeries(L, [0.5, 0.6])  # dips to -0.1 at x = pi
        with pytest.raises(DomainViolationError, match="source 1"):
            construct_family(final_datum, [CosineSeries(L, [1.0]), bad], params, grid)

    def test_construction_identity_on_certified_region(self, family, params):
        # lambda gap(v) + beta0(v) - beta0(v(.,0)) - int v_xx = 0
        for triple in family[1:]:
            g = triple.grid
            modes = analyze_columns(triple.v.values, g.L, g.n_modes)
            vxx = synthesize_columns(-(g.mu()[:, None] * modes), g.L, g.x)
            cum = cumulative_simpson(vxx, x=g.t, axis=1, initial=0.0)
            lhs = (triple.lam.values * branch_gap_extended(params, triple.v.values)
                   + beta0_extended(params, triple.v.values)
                   - beta0_extended(params, triple.v.values[:, [0]]) - cum)
            assert np.max(np.abs(lhs)) < 1e-6

    def test_state_gap_is_its_closed_form(self, family, default_sources, params):
        # u - ubar = sigma (v - vbar) + t f, and |sigma| w_t + w_xx = f from w = 0 gives
        # mode k >= 1 of it as f_k t (1 - (e^z - 1)/z), z = mu_k t/|sigma|, and mode 0 as 0
        worst = 0.0
        for triple, f in zip(family[1:], default_sources):
            g = triple.grid
            gap = analyze_columns(triple.u.values - family[0].u.values[:, :g.n_t], g.L,
                                  g.n_modes)
            fk = f.padded(g.n_modes).coeffs
            on = fk != 0                   # e^z overflows on the high modes, where f_k = 0
            z = np.outer(g.mu()[on], g.t) / params.sigma_abs
            # (e^z - 1)/z -> 1 as z -> 0: mode 0 and t = 0
            ratio = np.divide(np.expm1(z), z, out=np.ones_like(z), where=z > 0)
            want = np.zeros_like(gap)
            want[on] = fk[on, None] * g.t * (1.0 - ratio)
            assert np.max(np.abs(gap - want)) <= 1e-13
            worst = max(worst, np.max(np.abs(gap)))
        assert worst > 0.25        # 0.30 at most on the certified windows

    def test_unit_source_witness(self, family):
        # same u, v shifted by exactly t, weight strictly positive for t > 0, on
        # the unit triple's certified window
        base, unit = family[0], family[1]
        n = unit.grid.n_t
        assert np.max(np.abs(base.u.values[:, :n] - unit.u.values)) < 1e-8
        shift = unit.v.values - base.v.values[:, :n]
        assert np.max(np.abs(shift - unit.grid.t[None, :])) < 1e-10
        assert np.all(unit.lam.values[:, 1:] > 0)

    def test_nonconstant_sources_differ_in_state(self, family, grid):
        j = grid.time_index(grid.t[60])
        d = family[2].u.values[:, j] - family[3].u.values[:, j]
        assert np.sqrt(np.trapezoid(d * d, grid.x)) > 1e-3

    def test_triples_own_their_certified_window(self, final_datum, default_sources, params,
                                                grid, monkeypatch):
        # every triple keeps round(t_bar/dt) + 1 samples, at least two, of what the
        # construction formed, read-only, and shares memory with a formed array
        # only where it keeps all of that array's samples
        formed = []

        def recording(step):
            def run(*args):
                formed.append(step(*args))
                return formed[-1]
            return run

        for name in ("solve_unstable_backward", "solve_sourced", "build_lambda",
                     "assemble_state"):
            monkeypatch.setattr(counterexample, name,
                                recording(getattr(counterexample, name)))
        family = construct_family(final_datum, default_sources, params, grid)
        back, per_source = formed[0], [formed[i:i + 3] for i in range(1, len(formed), 3)]
        parents = [(back.u_bar, back.v_bar)] + [
            (u, sol.v, lam, lam_t) for sol, (lam, lam_t), u in per_source]
        for triple, made in zip(family, parents, strict=True):
            n_t = max(2, int(round(triple.t_bar / grid.dt)) + 1)
            assert triple.grid.n_t == n_t
            for name, parent in zip(("u", "v", "lam", "lam_t"), made):
                held = getattr(triple, name).values
                assert np.shares_memory(held, parent.values) == (n_t == parent.grid.n_t)
                assert not held.flags.writeable
                assert held.tobytes() == parent.values[:, :n_t].tobytes()
        assert all(t.grid.n_t < grid.n_t for t in family[1:])

    def test_window_grids_are_the_first_samples(self, family, grid):
        for triple in family:
            n_t = int(round(triple.t_bar / grid.dt)) + 1
            assert triple.grid.n_t == n_t
            assert triple.grid.T_end == triple.t_bar
            assert triple.grid.dt == grid.dt
            assert triple.grid.t.tobytes() == grid.t[:n_t].tobytes()

    @pytest.mark.parametrize("case", ["reference", "cut window"])
    def test_family_retains_no_uncertified_sample(self, case, family, grid,
                                                  cut_window_case):
        # the array owning each field's memory holds exactly that triple's window,
        # or the one float64 of a one-value field
        triples, on = (family, grid) if case == "reference" else cut_window_case
        for triple in triples:
            window = on.n_x * max(2, int(round(triple.t_bar / on.dt)) + 1) * 8
            for name in ("u", "v", "lam", "lam_t"):
                owner = getattr(triple, name).values
                while owner.base is not None:
                    owner = owner.base
                assert owner.nbytes in (window, 8), (triple.provenance, name)
