"""Independent admissibility checks for constructed solutions.

Everything here works from sampled fields only: flux derivatives are
recomputed by cosine projection of the stored values, time derivatives by
finite differences (or the analytic weight rate when a triple carries one).
The battery covers the superposition/weak-form structure, the monotone-flux
entropy inequality against a finite family of fluxes and test functions, the
pointwise sign certificate and its defining identity, weight monotonicity with
bounded variation, and pairwise distinctness of solutions.

The battery makes one entropy pass per flux: G(beta0(v)) and G(beta2(v)) are
affine images of one primitive Gamma(v) of g on a certified field (the closed
form of ``branch_image_primitives``) and feed the entropy, certificate and
identity checks, which share the product lambda_t * certificate; each entropy
integral contracts the fields with separable test factors X(x) T(t).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .counterexample import SolutionTriple, assemble_state, construct_family
from .errors import ConfigurationError, DomainViolationError, GridMismatchError
from .phase_model import (EntropyFlux, PhaseParams,
                          beta0_extended, beta2_extended,
                          branch_image_primitives, certificate_from_primitives,
                          entropy_primitive, eval_phi)
from .solvers import (EpsSolution, solve_pseudoparabolic,
                      solve_unstable_backward)
from .spectral import (CosineSeries, Field2D, Grid, _trapezoid_weights,
                       analyze_columns, constant_field, x_derivative_columns,
                       x_second_derivative)

# the verdict tolerances, fixed for every run; quadrature-based residuals halve
# appropriately under grid doubling, algebraic identities sit at round-off
WEAK_TOL = 1e-6
ENTROPY_TOL = 1e-6
CERTIFICATE_TOL = 1e-8
#: centered differencing of (G*)_t is second order for C1 fluxes but only first
#: order on cells crossed by a clamp corner, which sets the scale here
IDENTITY_TOL = 2e-2
ALGEBRAIC_TOL = 1e-10
MONOTONE_TOL = 1e-8


# ---------------------------------------------------------------------------
# test functions


def _bump(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
    return out


def _bump_prime(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    one = 1.0 - si * si
    out[inside] = np.exp(1.0 - 1.0 / one) * (-2.0 * si / (one * one))
    return out


class _SeparableTest:
    """A test function X(x) T(t); subclasses define ``factors(grid) -> (X, X', T, T')``."""

    def psi(self, grid: Grid) -> np.ndarray:
        xpart, _, tpart, _ = self.factors(grid)
        return np.outer(xpart, tpart)

    def psi_t(self, grid: Grid) -> np.ndarray:
        xpart, _, _, tslope = self.factors(grid)
        return np.outer(xpart, tslope)

    def psi_x(self, grid: Grid) -> np.ndarray:
        _, xslope, tpart, _ = self.factors(grid)
        return np.outer(xslope, tpart)


@dataclass(frozen=True)
class BumpTest(_SeparableTest):
    """Nonnegative C-infinity bump compactly supported inside the rectangle."""

    x0: float
    t0: float
    rx: float
    rt: float

    def __post_init__(self):
        if self.rx <= 0 or self.rt <= 0:
            raise ConfigurationError("bump radii must be positive")
        if self.x0 - self.rx < 0 or self.t0 - self.rt < 0:
            raise ConfigurationError("bump support must stay inside the rectangle")

    def label(self) -> str:
        return f"bump(x0={self.x0:.3g},t0={self.t0:.3g})"

    def factors(self, grid: Grid):
        sx = (grid.x - self.x0) / self.rx
        st = (grid.t - self.t0) / self.rt
        return (_bump(sx), _bump_prime(sx) / self.rx,
                _bump(st), _bump_prime(st) / self.rt)


@dataclass(frozen=True)
class ModeProductTest(_SeparableTest):
    """(1 + cos(j pi x / L)) times a compactly supported smooth time window.

    Nonnegative; spans the full interval in x, which is admissible here because
    the verified fields carry zero flux derivative at both endpoints.
    """

    j: int
    t0: float
    t1: float

    def __post_init__(self):
        if self.j < 1:
            raise ConfigurationError("mode-product tests need a positive mode index")
        if not self.t0 < self.t1:
            raise ConfigurationError("empty time window")

    def label(self) -> str:
        return f"mode-product(j={self.j},[{self.t0:.3g},{self.t1:.3g}])"

    def factors(self, grid: Grid):
        arg = self.j * np.pi * grid.x / grid.L
        tau = (2.0 * grid.t - self.t0 - self.t1) / (self.t1 - self.t0)
        return (1.0 + np.cos(arg), -(self.j * np.pi / grid.L) * np.sin(arg),
                _bump(tau), _bump_prime(tau) * 2.0 / (self.t1 - self.t0))


@dataclass(frozen=True)
class FinalZeroTest(_SeparableTest):
    """cos(j pi x/L) (1 - t/T)^deg: smooth on the closed rectangle, zero at t = T.

    Used for the weak form of the evolution (not sign-constrained).  The j = 0,
    deg = 1 member is the mass probe that catches non-conservative fields.
    """

    j: int
    deg: int

    def __post_init__(self):
        if self.j < 0 or self.deg < 1:
            raise ConfigurationError("need j >= 0 and deg >= 1")

    def label(self) -> str:
        return f"final-zero(j={self.j},deg={self.deg})"

    def factors(self, grid: Grid):
        arg = self.j * np.pi * grid.x / grid.L
        return (np.cos(arg), -(self.j * np.pi / grid.L) * np.sin(arg),
                (1.0 - grid.t / grid.T_end) ** self.deg,
                -self.deg / grid.T_end * (1.0 - grid.t / grid.T_end) ** (self.deg - 1))


def default_flux_battery() -> list[EntropyFlux]:
    """Twelve nondecreasing fluxes spanning the three built-in families."""
    return [
        EntropyFlux.identity(),
        EntropyFlux.clamp(-0.5, 0.5),
        EntropyFlux.clamp(-0.25, 0.75),
        EntropyFlux.clamp(0.0, 1.0),
        EntropyFlux.clamp(-1.0, 1.0),
        EntropyFlux.clamp(-0.75, 0.25),
        EntropyFlux.saturating(0.25),
        EntropyFlux.saturating(0.5),
        EntropyFlux.saturating(1.0),
        EntropyFlux.saturating(2.0),
        EntropyFlux.saturating(4.0),
        EntropyFlux.saturating(8.0),
    ]


def default_entropy_tests(L: float, T: float) -> list:
    """Four bumps tiling the rectangle plus two mode-products."""
    rx, rt = 0.24 * L, 0.24 * T
    return [
        BumpTest(0.25 * L, 0.30 * T, rx, rt),
        BumpTest(0.75 * L, 0.30 * T, rx, rt),
        BumpTest(0.25 * L, 0.70 * T, rx, rt),
        BumpTest(0.75 * L, 0.70 * T, rx, rt),
        ModeProductTest(1, 0.05 * T, 0.95 * T),
        ModeProductTest(2, 0.10 * T, 0.90 * T),
    ]


def default_weak_tests() -> list[FinalZeroTest]:
    return [FinalZeroTest(0, 1), FinalZeroTest(1, 2), FinalZeroTest(2, 1)]


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    x: float
    t: float
    note: str = ""


@dataclass
class VerificationReport:
    """Per-condition outcomes with worst residuals and their grid locations."""

    checks: list[CheckResult]
    grid_summary: str

    def __post_init__(self):
        names = [c.name for c in self.checks]
        if len(names) != len(set(names)):
            raise ConfigurationError("duplicate check names in a report")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def entry(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def worst(self) -> CheckResult:
        return max(self.checks, key=lambda c: abs(c.residual))

    def to_text(self) -> str:
        lines = [f"verification on {self.grid_summary}"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"  [{status}] {c.name}: residual {c.residual:.3e} "
                f"at (x={c.x:.4g}, t={c.t:.4g})" + (f"  {c.note}" if c.note else ""))
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        with p.open("w") as fh:
            fh.write("check\tstatus\tresidual\tx\tt\n")
            for c in self.checks:
                fh.write(f"{c.name}\t{'pass' if c.passed else 'fail'}\t"
                         f"{format(c.residual, '.17g')}\t{format(c.x, '.17g')}\t"
                         f"{format(c.t, '.17g')}\n")


def _argworst(values: np.ndarray, grid: Grid, take_min: bool):
    flat = int(np.argmin(values) if take_min else np.argmax(np.abs(values)))
    i, j = np.unravel_index(flat, values.shape)
    picked = values[i, j]
    return float(picked), float(grid.x[i]), float(grid.t[j])


# ---------------------------------------------------------------------------
# helpers: spectral derivatives, quadrature and the per-flux entropy pass


def _v_x(field: Field2D) -> np.ndarray:
    g = field.grid
    return x_derivative_columns(analyze_columns(field.values, g.L, g.n_modes), g.L, g.x)


def running_simpson(y: np.ndarray, dt: float) -> np.ndarray:
    """Running composite Simpson integral of y along its last axis, step dt.

    Even interval i: dt/12 (5 y_i + 8 y_(i+1) - y_(i+2)); odd ones and always
    the last: dt/12 (-y_(i-1) + 8 y_i + 5 y_(i+1)); two samples: the trapezoid.
    So entry j is scipy's cumulative_simpson(initial=0), the last its simpson.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[-1] < 3:
        parts = 0.5 * dt * (y[..., :-1] + y[..., 1:])
    else:
        ahead = 5.0 * y[..., :-2] + 8.0 * y[..., 1:-1] - y[..., 2:]
        behind = -y[..., :-2] + 8.0 * y[..., 1:-1] + 5.0 * y[..., 2:]
        parts = np.concatenate([ahead[..., :1], behind], axis=-1)  # odd and last
        parts[..., :-1:2] = ahead[..., ::2]                         # other even ones
        parts *= dt / 12.0
    return np.concatenate([np.zeros_like(y[..., :1]), np.cumsum(parts, axis=-1)], axis=-1)


def _required_weight_rate(triple: SolutionTriple) -> np.ndarray:
    if triple.lam_t is None:
        raise ConfigurationError("pointwise certificate needs the weight-rate field")
    return triple.lam_t.values


def _flux_pass(triple: SolutionTriple, params: PhaseParams, flux: EntropyFlux):
    """g(v), G* = (1-lam) G(beta0(v)) + lam G(beta2(v)) and the sign certificate."""
    v = triple.v.values
    lam = triple.lam.values
    g0, g2 = branch_image_primitives(params, flux, v)
    gv = flux.value(v)
    return gv, (1.0 - lam) * g0 + lam * g2, certificate_from_primitives(params, v, g0, g2, gv)


def _weighted_factors(tests, grid: Grid) -> list[tuple]:
    """Each test's factors (X, X', T, T') with the trapezoid weights folded in."""
    wx = _trapezoid_weights(grid.n_x, grid.L)
    wt = _trapezoid_weights(grid.n_t, grid.T_end)
    return [(wx * xp, wx * xs, wt * tp, wt * ts)
            for xp, xs, tp, ts in (test.factors(grid) for test in tests)]


def _entropy_integrals(flux: EntropyFlux, v: np.ndarray, vx: np.ndarray, gv: np.ndarray,
                       big_g: np.ndarray, weighted) -> list[float]:
    """Double-trapezoid values of G psi_t - g(v) v_x psi_x - g'(v) v_x^2 psi, one per test.

    psi = X(x) T(t), so each is a contraction with the weighted factors; one
    matrix-vector product per test keeps its value bitwise the same in any batch.
    """
    gvx = gv * vx
    dgvx2 = flux.derivative(v) * vx * vx
    return [float(xp @ (big_g @ ts) - xs @ (gvx @ tp) - xp @ (dgvx2 @ tp))
            for xp, xs, tp, ts in weighted]


def _identity_defect(grid: Grid, vxx: np.ndarray, gv: np.ndarray, gstar: np.ndarray,
                     rate_cert: np.ndarray) -> float:
    """max |g(v) v_xx - (G*)_t - rate_cert| over interior time samples, where
    rate_cert is the product lambda_t * certificate."""
    gstar_t = (gstar[:, 2:] - gstar[:, :-2]) / (2.0 * grid.dt)
    lhs = gv[:, 1:-1] * vxx[:, 1:-1] - gstar_t
    return float(np.max(np.abs(lhs - rate_cert[:, 1:-1])))


# ---------------------------------------------------------------------------
# individual checks


def weak_residual(triple: SolutionTriple, u0: np.ndarray) -> float:
    """Worst |weak-form defect| of u_t = v_xx over the final-zero test family.

    Uses the standard pairing of flux gradient with test gradient; the time
    quadrature is composite Simpson (``running_simpson``), fourth order because
    the final-zero tests do not vanish at t = 0.  psi = X(x) T(t), so the x
    integral is T'(t) (w X) @ u - T(t) (w X') @ v_x with trapezoid weights w.
    """
    grid = triple.grid
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (grid.n_x,):
        raise GridMismatchError("initial datum does not match the triple's grid")
    vx = _v_x(triple.v)
    wx = _trapezoid_weights(grid.n_x, grid.L)
    worst = 0.0
    for test in default_weak_tests():
        xpart, xslope, tpart, tslope = test.factors(grid)
        inner = tslope * ((wx * xpart) @ triple.u.values) - tpart * ((wx * xslope) @ vx)
        bulk = float(running_simpson(inner, grid.dt)[-1])
        initial = float(tpart[0] * ((wx * xpart) @ u0))
        worst = max(worst, abs(bulk + initial))
    return worst


def entropy_inequality_residual(triple: SolutionTriple, flux: EntropyFlux,
                                test, params: PhaseParams) -> float:
    """Quadrature value of the admissibility integral; >= -tol when admissible."""
    gv, gstar, _ = _flux_pass(triple, params, flux)
    return _entropy_integrals(flux, triple.v.values, _v_x(triple.v), gv, gstar,
                              _weighted_factors([test], triple.grid))[0]


def pointwise_certificate(triple: SolutionTriple, flux: EntropyFlux,
                          params: PhaseParams) -> float:
    """min over the grid of lambda_t times the sign certificate.

    Nonnegative whenever the weight is nondecreasing; this covers arbitrary
    nondecreasing fluxes on the constructed class, so the quadrature checks
    only guard the implementation.
    """
    lam_t = _required_weight_rate(triple)
    return float(np.min(lam_t * _flux_pass(triple, params, flux)[2]))


def certificate_identity_error(triple: SolutionTriple, flux: EntropyFlux,
                               params: PhaseParams) -> float:
    """Pointwise defect of g(v) v_xx - (G*)_t = lambda_t * certificate(v).

    (G*)_t is centered-differenced, so the defect decays at second order under
    time refinement for C1 fluxes (first order on cells crossing a clamp
    corner); interior time samples only.
    """
    grid = triple.grid
    if grid.n_t < 3:
        raise ConfigurationError("identity check needs at least three time samples")
    gv, gstar, certificate = _flux_pass(triple, params, flux)
    return _identity_defect(grid, x_second_derivative(triple.v), gv, gstar,
                            triple.weight_rate() * certificate)


def monotonicity_report(triple: SolutionTriple, params: PhaseParams,
                        tol: float = MONOTONE_TOL) -> VerificationReport:
    """Stable-phase weights must not decrease while the flux avoids the critical values.

    For each grid x, the upper weight lambda2 = lambda is checked on maximal
    time intervals where v > A, and the lower weight (identically zero in this
    construction) on intervals where v < B.  Discrete total variation along
    time is reported, not asserted.
    """
    grid = triple.grid
    v = triple.v.values
    lam = triple.lam.values
    dlam = np.diff(lam, axis=1)

    interior2 = (v[:, 1:] > params.A) & (v[:, :-1] > params.A)
    viol2 = np.where(interior2, dlam, 0.0)
    worst2, x2, t2 = _argworst(np.pad(viol2, ((0, 0), (1, 0))), grid, take_min=True)
    lam2_ok = worst2 >= -tol

    tv = np.abs(dlam).sum(axis=1)
    i_tv = int(np.argmax(tv))
    checks = [
        CheckResult("lambda2-monotone", bool(lam2_ok), worst2, x2, t2,
                    note="min increment on v > A intervals"),
        # lambda1 is hard-wired to zero: its monotonicity clause is the
        # statement that the embedded lower weight never moves
        CheckResult("lambda1-monotone", True, 0.0, 0.0, 0.0,
                    note="lower weight identically zero"),
        CheckResult("lambda2-total-variation", True, float(tv[i_tv]),
                    float(grid.x[i_tv]), float(grid.T_end),
                    note="reported bound, not asserted"),
    ]
    return VerificationReport(checks, _grid_summary(grid))


def structural_check(triple: SolutionTriple, u0: np.ndarray,
                     params: PhaseParams) -> VerificationReport:
    """Defining clauses of the superposed-solution class, checked on the grid; the
    state-evolution identity integrates v_xx in time with ``running_simpson``."""
    grid = triple.grid
    u, v, lam = triple.u.values, triple.v.values, triple.lam.values
    u0 = np.asarray(u0, dtype=float)
    checks = []

    r = np.abs(u[:, 0] - u0)
    i = int(np.argmax(r))
    checks.append(CheckResult("initial-trace", bool(r[i] <= 1e-10),
                              float(r[i]), float(grid.x[i]), 0.0))

    vx = _v_x(triple.v)
    edge = np.abs(vx[[0, -1], :])
    worst = float(edge.max())
    j = int(np.argmax(edge.max(axis=0)))
    checks.append(CheckResult("boundary-flux", worst <= 1e-8, worst,
                              float(grid.x[0] if edge[0, j] >= edge[1, j] else grid.x[-1]),
                              float(grid.t[j]),
                              note="|v_x| at the endpoints (spectral trace)"))

    low = params.A - v
    val, xw, tw = _argworst(-low, grid, take_min=True)  # min of (v - A)
    checks.append(CheckResult("flux-above-lower-critical", bool(-val <= MONOTONE_TOL),
                              float(np.max(low)), xw, tw))

    bad_upper = (v > params.B + 1e-12) & (lam < 1.0 - 1e-6)
    if np.any(bad_upper):
        val, xw, tw = _argworst(np.where(bad_upper, 1.0 - lam, 0.0), grid, take_min=False)
        checks.append(CheckResult("upper-jump-clause", False, val, xw, tw,
                                  note="v > B with upper weight below one"))
    else:
        checks.append(CheckResult("upper-jump-clause", True, 0.0, 0.0, 0.0,
                                  note="vacuous or satisfied"))

    bad_lower = v < params.A - 1e-12  # the embedded lower weight is identically zero
    if np.any(bad_lower):
        val, xw, tw = _argworst(np.where(bad_lower, params.A - v, 0.0), grid, False)
        checks.append(CheckResult("lower-jump-clause", False, val, xw, tw,
                                  note="v < A where the lower weight must be one"))
    else:
        checks.append(CheckResult("lower-jump-clause", True, 0.0, 0.0, 0.0,
                                  note="vacuous"))

    sup = u - ((1.0 - lam) * beta0_extended(params, v) + lam * beta2_extended(params, v))
    val, xw, tw = _argworst(sup, grid, take_min=False)
    checks.append(CheckResult("superposition-identity",
                              bool(np.max(np.abs(sup)) <= ALGEBRAIC_TOL),
                              float(np.max(np.abs(sup))), xw, tw))

    vxx = x_second_derivative(triple.v)
    evo = u - u[:, [0]] - running_simpson(vxx, grid.dt)
    val, xw, tw = _argworst(evo, grid, take_min=False)
    checks.append(CheckResult("state-evolution-identity",
                              bool(np.max(np.abs(evo)) <= WEAK_TOL),
                              float(np.max(np.abs(evo))), xw, tw,
                              note="u - u(.,0) - time integral of v_xx"))

    lam_bad = np.maximum(-lam, lam - 1.0)
    val, xw, tw = _argworst(lam_bad, grid, take_min=False)
    checks.append(CheckResult("weight-bounds", bool(np.max(lam_bad) <= 1e-9),
                              float(np.max(lam_bad)), xw, tw))

    lam_t = triple.weight_rate()
    val, xw, tw = _argworst(lam_t, grid, take_min=True)
    checks.append(CheckResult("weight-rate-sign", bool(val >= -MONOTONE_TOL), val, xw, tw))
    return VerificationReport(checks, _grid_summary(grid))


def viscous_entropy_audit(eps_sol: EpsSolution, params: PhaseParams,
                          fluxes: list[EntropyFlux] | None = None, tests=None) -> float:
    """Worst admissibility integral of the relaxed dynamics over fluxes x tests.

    >= -tol for true solutions.  One pass per flux: G(u), g(v) and g'(v) are
    evaluated once, and v_x once for the solution.
    """
    grid = eps_sol.grid
    if fluxes is None:
        fluxes = default_flux_battery()
    if tests is None:
        tests = default_entropy_tests(grid.L, grid.T_end)
    u, v = eps_sol.u_eps.values, eps_sol.v_eps.values
    vx = _v_x(eps_sol.v_eps)
    weighted = _weighted_factors(tests, grid)
    return min(min(_entropy_integrals(flux, v, vx, flux.value(v),
                                      entropy_primitive(params, flux, u), weighted))
               for flux in fluxes)


def viscous_entropy_residual(eps_sol: EpsSolution, flux: EntropyFlux,
                             test, params: PhaseParams) -> float:
    """Admissibility integral of the relaxed dynamics for one flux and test."""
    return viscous_entropy_audit(eps_sol, params, [flux], [test])


def distinctness(triple_a: SolutionTriple, triple_b: SolutionTriple,
                 t_probe: float) -> tuple[float, float, float]:
    """Spatial L2 distances of (u, v, lambda) at one certified time."""
    ga, gb = triple_a.grid, triple_b.grid
    if abs(ga.L - gb.L) > 1e-12 or ga.n_x != gb.n_x or abs(ga.dt - gb.dt) > 1e-15:
        raise GridMismatchError("triples live on incompatible grids")
    if t_probe > min(triple_a.t_bar, triple_b.t_bar) + 1e-12:
        raise DomainViolationError(
            f"probe time {t_probe:g} exceeds a certified horizon "
            f"({triple_a.t_bar:g}, {triple_b.t_bar:g})")
    j = ga.time_index(t_probe)
    if j >= gb.n_t:
        raise GridMismatchError("probe index beyond the second triple's window")

    def dist(fa: Field2D, fb: Field2D) -> float:
        d = fa.values[:, j] - fb.values[:, j]
        return float(np.sqrt(np.trapezoid(d * d, ga.x)))

    return (dist(triple_a.u, triple_b.u),
            dist(triple_a.v, triple_b.v),
            dist(triple_a.lam, triple_b.lam))


def _grid_summary(grid: Grid) -> str:
    return (f"grid L={grid.L:.6g} T={grid.T_end:.6g} "
            f"n_x={grid.n_x} n_t={grid.n_t} n_modes={grid.n_modes}")


# ---------------------------------------------------------------------------
# the full battery


def run_triple_battery(triple: SolutionTriple, u0: np.ndarray,
                       params: PhaseParams) -> VerificationReport:
    """All admissibility checks for one triple, on the grid it carries, against
    the default fluxes and test functions and the module's fixed tolerances.

    Callers verifying a certified construction should pass the restricted
    triple; sweeps past the horizon are expected to flag the range clauses.
    """
    grid = triple.grid
    fluxes = default_flux_battery()
    entropy_tests = default_entropy_tests(grid.L, grid.T_end)

    checks = list(structural_check(triple, u0, params).checks)
    checks.extend(monotonicity_report(triple, params).checks)

    wr = weak_residual(triple, u0)
    checks.append(CheckResult("weak-form", wr <= WEAK_TOL, wr, np.nan, np.nan,
                              note=f"max over {len(default_weak_tests())} final-zero tests"))

    v = triple.v.values
    vx = _v_x(triple.v)
    vxx = x_second_derivative(triple.v)
    lam_t = _required_weight_rate(triple)
    weighted = _weighted_factors(entropy_tests, grid)
    # the centered difference of G* needs an interior time sample; a shorter
    # window keeps the NaN, which fails the identity check
    has_identity = grid.n_t >= 3
    worst_entropy, worst_cert = np.inf, np.inf
    worst_ident = 0.0 if has_identity else np.nan
    for flux in fluxes:
        gv, gstar, certificate = _flux_pass(triple, params, flux)
        worst_entropy = min(worst_entropy,
                            *_entropy_integrals(flux, v, vx, gv, gstar, weighted))
        rate_cert = lam_t * certificate
        worst_cert = min(worst_cert, float(np.min(rate_cert)))
        if has_identity:
            worst_ident = max(worst_ident, _identity_defect(grid, vxx, gv, gstar, rate_cert))
    checks.append(CheckResult("entropy-inequality", worst_entropy >= -ENTROPY_TOL,
                              float(worst_entropy), np.nan, np.nan,
                              note=f"min over {len(fluxes)} fluxes x "
                                   f"{len(entropy_tests)} tests"))
    checks.append(CheckResult("pointwise-certificate", worst_cert >= -CERTIFICATE_TOL,
                              float(worst_cert), np.nan, np.nan))
    checks.append(CheckResult("certificate-identity", worst_ident <= IDENTITY_TOL,
                              float(worst_ident), np.nan, np.nan,
                              note="centered-difference identity defect" if has_identity
                              else f"needs three time samples, window has {grid.n_t}"))
    return VerificationReport(checks, _grid_summary(grid))


# ---------------------------------------------------------------------------
# negative controls: every check must reject its manufactured violator


def negative_controls(params: PhaseParams | None = None) -> list[tuple[str, bool, str]]:
    """Build one violator per check and report whether it was rejected.

    Returns (control name, rejected, detail) entries; a control counts as
    rejected only when its *target* check flags it.
    """
    params = params or PhaseParams.default()
    grid = Grid(np.pi, 1.0, 64, 97, 16)
    final = CosineSeries(np.pi, [0.0, 0.1])
    back = solve_unstable_backward(final, params, grid)
    v_base = back.v_bar
    u0 = back.u0
    results = []

    # 1. a weight that decreases while the flux stays above the lower critical value
    lam_vals = np.maximum(0.0, 0.2 - grid.t)[None, :] * np.ones((grid.n_x, 1))
    lam_t_vals = np.where(grid.t < 0.2, -1.0, 0.0)[None, :] * np.ones((grid.n_x, 1))
    lam_dec = Field2D(grid, lam_vals, "control weight")
    decreasing = SolutionTriple(
        assemble_state(v_base, lam_dec, params), v_base, lam_dec, grid.T_end, "control",
        lam_t=Field2D(grid, lam_t_vals, "control weight rate"))
    mono = monotonicity_report(decreasing, params)
    cert = pointwise_certificate(decreasing, EntropyFlux.identity(), params)
    rejected = (not mono.entry("lambda2-monotone").passed) and cert < -CERTIFICATE_TOL
    results.append(("decreasing-weight", rejected,
                    f"monotone residual {mono.entry('lambda2-monotone').residual:.2e}, "
                    f"certificate min {cert:.2e}"))

    # 2. broken superposition identity
    zero = constant_field(grid, 0.0)
    broken = SolutionTriple(
        Field2D(grid, back.u_bar.values + 1e-3, "control state"), v_base, zero,
        grid.T_end, "control", lam_t=zero)
    rep = structural_check(broken, u0, params)
    results.append(("broken-superposition",
                    not rep.entry("superposition-identity").passed,
                    f"residual {rep.entry('superposition-identity').residual:.2e}"))

    # 3. flux dipping below the lower critical value
    v_dip = v_base.values.copy()
    v_dip[:, grid.n_t // 2:] -= (params.B - params.A)
    dipped = SolutionTriple(
        Field2D(grid, beta0_extended(params, v_dip), "control state"),
        Field2D(grid, v_dip, "control flux"), zero, grid.T_end, "control", lam_t=zero)
    rep = structural_check(dipped, u0, params)
    results.append(("flux-below-lower-critical",
                    not rep.entry("flux-above-lower-critical").passed,
                    f"worst defect {rep.entry('flux-above-lower-critical').residual:.2e}"))

    # 4. non-conservative state (mass grows linearly)
    u_nc = u0[:, None] + 0.1 * grid.t[None, :]
    nonconservative = SolutionTriple(
        Field2D(grid, u_nc, "control state"),
        Field2D(grid, eval_phi(params, u_nc), "control flux"),
        zero, grid.T_end, "control", lam_t=zero)
    wr = weak_residual(nonconservative, u0)
    results.append(("non-conservative-state", wr > WEAK_TOL,
                    f"weak residual {wr:.2e}"))

    # 5. flux above the upper critical value with upper weight below one
    v_hi = constant_field(grid, params.B + 0.1, "control flux")
    lam_mid = constant_field(grid, 0.3, "control weight")
    u_hi = assemble_state(v_hi, lam_mid, params)
    jump = SolutionTriple(u_hi, v_hi, lam_mid, grid.T_end, "control", lam_t=zero)
    rep = structural_check(jump, u_hi.values[:, 0], params)
    results.append(("upper-jump-violation",
                    not rep.entry("upper-jump-clause").passed,
                    f"weight deficit {rep.entry('upper-jump-clause').residual:.2e}"))

    # 6. time-reversed relaxation flow (anti-diffusive in a stable branch)
    u0_stable = 2.5 + 0.25 * np.cos(grid.x)
    eps_sol = solve_pseudoparabolic(u0_stable, 0.05, params, grid)
    reversed_sol = EpsSolution(
        eps_sol.eps,
        Field2D(grid, eps_sol.u_eps.values[:, ::-1], "control state"),
        Field2D(grid, eps_sol.v_eps.values[:, ::-1], "control flux"),
        eps_sol.u_modes[:, ::-1], eps_sol.v_modes[:, ::-1])
    worst = viscous_entropy_audit(reversed_sol, params, [EntropyFlux.identity()])
    results.append(("reversed-relaxation-flow", worst < -ENTROPY_TOL,
                    f"viscous residual {worst:.2e}"))

    # 7. time-reversed baseline: forward diffusion in the unstable branch
    reversed_base = SolutionTriple(
        Field2D(grid, back.u_bar.values[:, ::-1], "control state"),
        Field2D(grid, v_base.values[:, ::-1], "control flux"),
        zero, grid.T_end, "control", lam_t=zero)
    rep = run_triple_battery(reversed_base, reversed_base.u.values[:, 0], params)
    results.append(("reversed-baseline", not rep.entry("entropy-inequality").passed,
                    f"entropy residual {rep.entry('entropy-inequality').residual:.2e}"))

    # 8. a certified sourced triple whose weight rate is doubled
    sourced = construct_family(final, [CosineSeries(np.pi, [1.0])], params, grid)[1].restricted()
    doubled = replace(sourced, lam_t=Field2D(sourced.grid, 2.0 * sourced.lam_t.values,
                                             "control weight rate"))
    rep = run_triple_battery(doubled, u0, params)
    results.append(("doubled-weight-rate", not rep.entry("certificate-identity").passed,
                    f"identity defect {rep.entry('certificate-identity').residual:.2e}"))

    return results
