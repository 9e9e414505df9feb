"""Flux branches, inverses, and the entropy certificate.

Derived expectations are frozen from hand evaluation of the affine branch
maps with the default diagram (phi0(u) = -u, beta0(v) = -v, beta2(v) = v + 2);
the entropy primitives are additionally cross-checked against adaptive
quadrature of g(phi(s)).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fbplab.errors import DomainViolationError
from fbplab.phase_model import (EntropyFlux, PhaseParams, beta0_extended,
                                beta2_extended, branch_gap_extended,
                                branch_image_primitives, entropy_primitive, eval_phi)
from fbplab.verifier import default_flux_battery
from oracles import branch_gap, certificate_integrand, eval_beta

FLUXES = [EntropyFlux.identity(), EntropyFlux.clamp(-0.4, 0.7),
          EntropyFlux.saturating(0.5), EntropyFlux.clamp(2.0, 2.0)]


def quad_primitive(params, flux, u):
    """Adaptive-quadrature oracle for G(u), splitting at the breakpoints."""
    pts = sorted(p for p in (params.b, params.c) if min(0.0, u) < p < max(0.0, u))
    val, _ = quad(lambda s: flux.value(eval_phi(params, s)), 0.0, u,
                  points=pts or None, limit=200)
    return val


class TestPhaseParams:
    def test_default_satisfies_diagram_constraints(self, params):
        assert params.b < params.c
        assert params.A < params.B
        assert params.sigma == pytest.approx((params.c - params.b) / (params.A - params.B))
        assert params.sigma < 0
        assert params.sigma == -1.0

    def test_ordering_enforced(self):
        with pytest.raises(DomainViolationError):
            PhaseParams(1.0, -1.0, -1.0, 1.0)
        with pytest.raises(DomainViolationError):
            PhaseParams(-1.0, 1.0, 1.0, -1.0)


class TestFlux:
    def test_breakpoint_values(self, params):
        # phi1(b) = B and phi2(c) = A by definition
        assert eval_phi(params, params.b) == pytest.approx(params.B)
        assert eval_phi(params, params.c) == pytest.approx(params.A)

    def test_default_spot_values(self, params):
        # hand evaluation: phi0(u) = -u, phi2(u) = u - 2
        assert eval_phi(params, 0.0) == 0.0
        assert eval_phi(params, 2.0) == 0.0

    def test_nonfinite_rejected(self, params):
        with pytest.raises(DomainViolationError):
            eval_phi(params, np.nan)

    @pytest.mark.parametrize("u_break", [-1.0, 1.0])
    def test_continuity_at_breakpoints(self, params, u_break):
        left = eval_phi(params, u_break - 1e-13)
        right = eval_phi(params, u_break + 1e-13)
        assert abs(left - right) < 1e-12


class TestBranchInverses:
    def test_derived_spot_values(self, params):
        assert eval_beta(params, 2, 0.0) == pytest.approx(2.0)
        # both inverses meet at u = c where v = A
        assert eval_beta(params, 0, params.A) == pytest.approx(params.c)
        assert eval_beta(params, 2, params.A) == pytest.approx(params.c)

    def test_domain_errors_name_branch(self, params):
        with pytest.raises(DomainViolationError, match="branch 0"):
            eval_beta(params, 0, params.B + 0.1)
        with pytest.raises(DomainViolationError, match="branch 1"):
            eval_beta(params, 1, params.B + 0.1)
        with pytest.raises(DomainViolationError, match="branch 2"):
            eval_beta(params, 2, params.A - 0.1)

    @given(st.floats(-0.999, 0.999))
    def test_middle_branch_round_trip(self, v):
        params = PhaseParams.default()
        u = eval_beta(params, 0, v)
        assert eval_phi(params, u) == pytest.approx(v, abs=1e-12)

    @settings(max_examples=200)
    @given(st.integers(0, 2), st.data())
    def test_inverse_round_trip_all_branches(self, branch, data):
        params = PhaseParams.default()
        domains = {0: (params.b, params.c), 1: (-4.0, params.b), 2: (params.c, 4.0)}
        lo, hi = domains[branch]
        u = data.draw(st.floats(lo + 1e-9, hi - 1e-9))
        v = eval_phi(params, u)
        back = eval_beta(params, branch, v)
        assert abs(back - u) <= 1e-12 * max(1.0, abs(u))

    def test_bulk_round_trip_ten_thousand_per_branch(self, params):
        rng = np.random.default_rng(0)
        domains = {0: (params.b, params.c), 1: (-6.0, params.b), 2: (params.c, 6.0)}
        for branch, (lo, hi) in domains.items():
            u = rng.uniform(lo + 1e-9, hi - 1e-9, 10_000)
            back = eval_beta(params, branch, eval_phi(params, u))
            assert np.all(np.abs(back - u) <= 1e-12 * np.maximum(1.0, np.abs(u)))

    @settings(max_examples=50)
    @given(st.floats(-3, 1), st.floats(0.05, 3), st.floats(-2, 2), st.floats(0.05, 3),
           st.floats(0.1, 4), st.floats(0.1, 4))
    def test_random_diagrams_round_trip(self, b, width, A, gap, a1, a2):
        params = PhaseParams(b, b + width, A, A + gap, a1, a2)
        for u in np.linspace(params.b + 1e-6, params.c - 1e-6, 7):
            assert eval_beta(params, 0, eval_phi(params, u)) == pytest.approx(u, abs=1e-9)


class TestBranchGap:
    def test_examples(self, params):
        assert branch_gap(params, params.A) == pytest.approx(0.0)
        assert branch_gap(params, 0.0) == pytest.approx(2.0)
        assert branch_gap(params, 0.1) == pytest.approx(2.2)

    def test_domain_guard(self, params):
        with pytest.raises(DomainViolationError):
            branch_gap(params, params.B + 1e-6)

    @given(st.floats(-1.0, 0.999), st.floats(1e-6, 1e-3))
    def test_strictly_increasing(self, v, dv):
        params = PhaseParams.default()
        hi = min(v + dv, 1.0)
        assert branch_gap(params, hi) > branch_gap(params, v) or hi == v

    def test_extended_matches_on_domain(self, params):
        v = np.linspace(params.A, params.B, 33)
        assert np.allclose(branch_gap(params, v), branch_gap_extended(params, v),
                           rtol=0, atol=1e-14)


class TestEntropyPrimitive:
    def test_zero_at_origin(self, params):
        for flux in FLUXES:
            assert entropy_primitive(params, flux, 0.0) == 0.0

    def test_identity_derived_value(self, params):
        # int_0^1 (-s) ds = -1/2
        assert entropy_primitive(params, EntropyFlux.identity(), 1.0) == pytest.approx(-0.5)

    def test_constant_flux_is_linear(self, params):
        kappa = 2.0
        flux = EntropyFlux.clamp(kappa, kappa)
        for u in (-3.0, -0.4, 0.7, 2.5):
            assert entropy_primitive(params, flux, u) == pytest.approx(kappa * u)

    @pytest.mark.parametrize("flux", FLUXES, ids=lambda f: f.label())
    def test_matches_quadrature_oracle(self, params, flux):
        for u in np.linspace(-2.5, 3.0, 12):
            expect = quad_primitive(params, flux, u)
            got = entropy_primitive(params, flux, u)
            assert got == pytest.approx(expect, rel=1e-10, abs=1e-12)

    def test_quadrature_oracle_on_nonunit_diagram(self):
        params = PhaseParams(-0.5, 2.0, -2.0, 1.0, 0.7, 1.8)
        for flux in FLUXES:
            for u in (-1.5, 0.3, 2.4):
                assert entropy_primitive(params, flux, u) == pytest.approx(
                    quad_primitive(params, flux, u), rel=1e-10, abs=1e-12)


class TestBranchTable:
    """One affine table and one index rule behind every three-branch dispatch."""

    NONUNIT = PhaseParams(-0.5, 2.0, -2.0, 1.0, 0.7, 1.8)

    def test_index_rule_sends_breakpoints_to_outer_branches(self):
        p = self.NONUNIT
        u = np.array([-3.0, p.b, 0.3, p.c, 4.0])
        assert p.branch_index(u).tolist() == [1, 1, 0, 2, 2]

    def test_phi_is_the_written_affine_pieces(self):
        # the table reproduces each piece's own expression bit for bit
        p = self.NONUNIT
        u = np.linspace(-3.0, 4.0, 1001)
        m0 = p.phi0_slope
        expect = np.where(u <= p.b, p.alpha1 * u + p.gamma1,
                          np.where(u >= p.c, p.alpha2 * u + p.gamma2,
                                   m0 * u + (p.B - m0 * p.b)))
        assert np.array_equal(eval_phi(p, u), expect)
        assert not p.branches.slope.flags.writeable

    def test_single_branch_test_uses_closed_intervals(self):
        p = self.NONUNIT
        assert p.branch_holding(p.b, p.c) == 0
        assert p.branch_holding(p.b, p.b) == 1
        assert p.branch_holding(-5.0, p.b) == 1
        assert p.branch_holding(p.c, 9.0) == 2
        assert p.branch_holding(p.b - 0.1, p.b + 0.1) is None
        assert p.branch_holding(p.b, p.c + 1e-12) is None

    def test_gap_slope_is_the_rate_of_the_branch_gap(self):
        p = self.NONUNIT
        v = np.linspace(p.A, p.B, 7)
        assert np.allclose(branch_gap_extended(p, v + 1.0) - branch_gap_extended(p, v),
                           p.gap_slope, rtol=0, atol=1e-13)
        assert p.gap_slope > 0

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-3, 1), st.floats(0.05, 3), st.floats(-2, 2), st.floats(0.05, 3),
           st.floats(0.1, 4), st.floats(0.1, 4))
    @example(-0.5, 2.5, -2.0, 3.0, 0.7, 1.8)  # NONUNIT
    def test_primitive_continuous_at_breakpoints(self, b, width, A, gap, a1, a2):
        # any six numbers with b < c, A < B and positive slopes are a diagram.
        # |phi(u +- h) - phi(u)| <= h max|phi'| and |G(u +- h) - G(u)| <=
        # h max|g(phi)| with max|g| <= max(1, |A|, |B|) + h max|phi'| near the
        # breakpoints; a wrong intercept, gluing constant or breakpoint
        # convention opens an O(1) jump
        p, h = PhaseParams(b, b + width, A, A + gap, a1, a2), 1e-9
        steepest = float(np.max(np.abs(p.branches.slope)))
        g_max = max(1.0, abs(p.A), abs(p.B)) + h * steepest
        for u, v in ((p.b, p.B), (p.c, p.A)):
            nearby = np.array([u, u - h, u + h])
            assert np.all(np.abs(eval_phi(p, nearby) - v) <= 1.01 * h * steepest + 1e-12)
            for flux in default_flux_battery():
                at, left, right = entropy_primitive(p, flux, nearby)
                assert abs(left - at) <= 1.01 * h * g_max + 1e-12, flux.label()
                assert abs(right - at) <= 1.01 * h * g_max + 1e-12, flux.label()

    def test_primitive_evaluates_one_branch_per_sample(self, params, monkeypatch):
        seen = []
        original = EntropyFlux.antiderivative

        def counting(self, v):
            seen.append(np.size(v))
            return original(self, v)

        monkeypatch.setattr(EntropyFlux, "antiderivative", counting)
        u = np.linspace(-3.0, 3.0, 1000)
        for flux in FLUXES:
            seen.clear()
            entropy_primitive(params, flux, u)
            # the samples, W(0) and the three gluing knots
            assert u.size < sum(seen) <= u.size + 4, flux.label()
            # both branch images of the critical interval from one Gamma(v)
            seen.clear()
            branch_image_primitives(params, flux, np.linspace(params.A, params.B, u.size))
            assert sum(seen) == u.size + 4, flux.label()


DIAGRAMS = [PhaseParams.default(),
            PhaseParams(-0.5, 2.0, -2.0, 1.0, 0.7, 1.8)]
DIAGRAM_IDS = ["unit", "nonunit"]


@pytest.mark.parametrize("p", DIAGRAMS, ids=DIAGRAM_IDS)
class TestPrimitiveShapes:
    """0-d inputs give floats and empty fields keep their shape."""

    def test_zero_dimensional_and_empty_inputs(self, p):
        for flux in FLUXES:
            for u in (p.b - 1.0, 0.5 * (p.b + p.c), p.c + 1.0):
                row = entropy_primitive(p, flux, np.array([u]))
                for scalar in (u, np.float64(u), np.array(u)):
                    got = entropy_primitive(p, flux, scalar)
                    assert isinstance(got, float) and got == row[0]
            assert entropy_primitive(p, flux, np.array([])).shape == (0,)
            assert entropy_primitive(p, flux, np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("p", DIAGRAMS, ids=DIAGRAM_IDS)
class TestBranchImagePrimitives:
    """G(beta0(v)) and G(beta2(v)) from one Gamma(v) on the critical interval."""

    def test_matches_the_general_path(self, p):
        v = np.concatenate([[p.A, p.B], np.linspace(p.A, p.B, 1001)])
        for flux in default_flux_battery():
            g0, g2 = branch_image_primitives(p, flux, v)
            # G(beta0(v)) passes through G(0) = 0, where a relative bound
            # alone means nothing; 1e-14 is a few ulps of the O(1) values
            np.testing.assert_allclose(g0, entropy_primitive(p, flux, beta0_extended(p, v)),
                                       rtol=1e-13, atol=1e-14, err_msg=flux.label())
            np.testing.assert_allclose(g2, entropy_primitive(p, flux, beta2_extended(p, v)),
                                       rtol=1e-13, atol=1e-14, err_msg=flux.label())

    def test_outside_the_interval_falls_back_bitwise(self, p):
        inside = np.linspace(p.A, p.B, 64)
        for stray in (p.A - 0.25, p.B + 0.25):
            v = np.append(inside, stray)
            for flux in default_flux_battery():
                g0, g2 = branch_image_primitives(p, flux, v)
                assert np.array_equal(g0, entropy_primitive(p, flux, beta0_extended(p, v)))
                assert np.array_equal(g2, entropy_primitive(p, flux, beta2_extended(p, v)))

    def test_nonfinite_field_rejected(self, p):
        with pytest.raises(DomainViolationError):
            branch_image_primitives(p, EntropyFlux.identity(),
                                    np.array([p.A, np.nan, p.B]))

    def test_zero_dimensional_and_empty_inputs(self, p):
        flux = EntropyFlux.saturating(0.5)
        for v in (p.A, 0.5 * (p.A + p.B), p.B, p.B + 1.0):
            rows = branch_image_primitives(p, flux, np.array([v]))
            for scalar in (v, np.array(v)):
                got = branch_image_primitives(p, flux, scalar)
                assert all(isinstance(g, float) for g in got)
                assert got == (rows[0][0], rows[1][0])
        for empty in (np.array([]), np.empty((3, 0))):
            assert [g.shape for g in branch_image_primitives(p, flux, empty)] == [empty.shape] * 2


class TestCertificate:
    def test_zero_at_lower_critical(self, params):
        from fbplab.verifier import default_flux_battery
        for flux in FLUXES + default_flux_battery():
            assert certificate_integrand(params, flux, params.A) == pytest.approx(0.0, abs=1e-12)

    def test_identity_derived_value(self, params):
        # int_0^2 (0 - phi(s)) ds = 1/2 + 1/2, oracle: adaptive quadrature below
        assert certificate_integrand(params, EntropyFlux.identity(), 0.0) == pytest.approx(1.0)
        val, _ = quad(lambda s: 0.0 - eval_phi(params, s), 0.0, 2.0, points=[1.0])
        assert val == pytest.approx(1.0)

    def test_constant_flux_vanishes(self, params):
        flux = EntropyFlux.clamp(0.7, 0.7)
        for v in np.linspace(params.A, params.B, 9):
            assert certificate_integrand(params, flux, v) == pytest.approx(0.0, abs=1e-12)

    def test_domain_guard(self, params):
        with pytest.raises(DomainViolationError):
            certificate_integrand(params, EntropyFlux.identity(), params.B + 0.2)

    @settings(max_examples=120)
    @given(st.floats(-1.0, 1.0), st.sampled_from(FLUXES))
    def test_nonnegative_on_critical_interval(self, v, flux):
        params = PhaseParams.default()
        assert certificate_integrand(params, flux, v) >= -1e-12

    @settings(max_examples=60)
    @given(st.floats(-1.0, 1.0), st.floats(0.1, 5))
    def test_nonnegative_for_saturating_family(self, v, s):
        params = PhaseParams.default()
        assert certificate_integrand(params, EntropyFlux.saturating(s), v) >= -1e-12

    def test_matches_quadrature_of_defining_integral(self, params):
        # certificate(v) = int_{beta0(v)}^{beta2(v)} [g(v) - g(phi(s))] ds
        flux = EntropyFlux.saturating(0.8)
        for v in (-0.6, 0.0, 0.5, 0.95):
            lo = eval_beta(params, 0, v)
            hi = eval_beta(params, 2, v)
            expect, _ = quad(lambda s: flux.value(v) - flux.value(eval_phi(params, s)),
                             lo, hi, points=[params.c])
            assert certificate_integrand(params, flux, v) == pytest.approx(expect, abs=1e-10)


class TestFluxFamily:
    @pytest.mark.parametrize("flux", FLUXES, ids=lambda f: f.label())
    def test_nondecreasing(self, flux):
        v = np.linspace(-6, 6, 501)
        assert np.all(np.diff(flux.value(v)) >= -1e-15)
        assert np.all(flux.derivative(v) >= 0)

    def test_antiderivative_consistency(self):
        # finite differences of the antiderivative recover g; first order only
        # at the clamp corners, second order elsewhere
        for flux in FLUXES:
            v = np.linspace(-4, 4, 2001)
            fd = np.gradient(flux.antiderivative(v), v)
            assert np.max(np.abs(fd[2:-2] - flux.value(v[2:-2]))) < 5e-3

    def test_constant_flux_has_zero_derivative(self):
        flux = EntropyFlux.clamp(0.3, 0.3)
        assert flux.derivative(0.3) == 0.0
        assert np.all(flux.derivative(np.array([-1.0, 0.3, 2.0])) == 0.0)
        assert EntropyFlux.clamp(-0.4, 0.7).derivative(0.7) == 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DomainViolationError):
            EntropyFlux.clamp(1.0, 0.0)
        with pytest.raises(DomainViolationError):
            EntropyFlux.saturating(0.0)
