"""Independent admissibility checks for constructed solutions.

Everything here works from sampled fields only: flux derivatives come from
the one cosine projection each field keeps of its stored values
(``Field2D.modes``; endpoint slopes by one-sided differences of what that
projection misses), time derivatives from finite differences, apart from the
analytic weight rate that every triple carries.
The battery covers the superposition/weak-form structure, the monotone-flux
entropy inequality against a finite family of fluxes and test functions, the
pointwise sign certificate and its defining identity, weight monotonicity (its
total variation is reported, not asserted), and pairwise distinctness of
solutions.  Every report row carries its admissible interval, and one rule
decides it: a row passes when lower <= residual <= upper (``CheckResult``).
A relaxed solution gets its own report (``relaxation_report``), and each
negative control is decided by the target rows of one of these reports.

One sweep over blocks of x-rows (``_flux_pass``) serves every flux of the
battery and the single checks, each block while it stays in cache:
G(beta0(v)) and G(beta2(v)) are affine images of one primitive Gamma(v) of g on
a certified field (``branch_image_primitives``) and give the entropy integrals,
min lambda_t * certificate and the identity defect; each entropy integral
contracts the fields with separable test factors X(x) T(t).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .counterexample import SolutionTriple, assemble_state, construct_family
from .errors import ConfigurationError, DomainViolationError, GridMismatchError
from .phase_model import (EntropyFlux, PhaseParams,
                          beta0_extended, beta2_extended, branch_gap_extended,
                          branch_image_primitives, certificate_from_primitives,
                          entropy_primitive, eval_phi)
from .solvers import EpsSolution, solve_pseudoparabolic, solve_unstable_backward
from .spectral import (BOUNDARY_SLOPE_TOL, CosineSeries, Field2D, Grid,
                       boundary_slopes, constant_field, trapezoid_weights,
                       x_derivative_columns, x_second_derivative)

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
INITIAL_TRACE_TOL = 1e-10
WEIGHT_BOUND_TOL = 1e-9
#: how far v may cross a critical value before its jump clause applies
JUMP_TOL = 1e-12
#: how far below one the upper weight may sit where v > B
WEIGHT_DEFICIT_TOL = 1e-6
#: drift of the integral of u that the relaxation audit allows
MASS_DRIFT_TOL = 1e-8
#: cells in one row block of the flux pass: its fields stay in L2 cache
_BLOCK_CELLS = 32768


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


@dataclass(frozen=True)
class BumpTest:
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
class ModeProductTest:
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
class FinalZeroTest:
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


def _room(gap: float, bound: float) -> float:
    return gap / (abs(bound) or 1.0) if np.isfinite(bound) else np.inf


@dataclass(frozen=True)
class CheckResult:
    """One report row: a residual, where it was found, and the closed interval
    [lower, upper] it must lie in.  A NaN residual fails any row; a row with
    no finite bound fails on nothing else, so it only reports."""

    name: str
    residual: float
    x: float = np.nan
    t: float = np.nan
    lower: float = -np.inf
    upper: float = np.inf
    note: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.lower <= self.residual <= self.upper)

    @property
    def headroom(self) -> float:
        """Distance from the residual to its nearer bound in units of that bound
        (1 for a zero residual, negative outside); -inf for a NaN residual."""
        if np.isnan(self.residual):
            return -np.inf
        return min(_room(self.residual - self.lower, self.lower),
                   _room(self.upper - self.residual, self.upper))


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
        """The row with the least headroom against its own bound."""
        return min(self.checks, key=lambda c: c.headroom)

    def to_text(self) -> str:
        lines = [f"verification on {self.grid_summary}"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}: residual {c.residual:.3e} in "
                         f"[{c.lower:.3g}, {c.upper:.3g}] at (x={c.x:.4g}, t={c.t:.4g})"
                         + (f"  {c.note}" if c.note else ""))
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


def _extreme(values: np.ndarray, grid: Grid, pick=np.argmax):
    """(value, x, t) of the sample that ``pick`` (np.argmax or np.argmin) selects."""
    i, j = np.unravel_index(int(pick(values)), values.shape)
    return float(values[i, j]), float(grid.x[i]), float(grid.t[j])


# ---------------------------------------------------------------------------
# helpers: spectral derivatives, quadrature and the per-flux entropy pass


def _v_x(field: Field2D) -> np.ndarray:
    return x_derivative_columns(field.modes, field.grid.L, field.grid.x)


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


def _weighted_factors(tests, grid: Grid) -> list[tuple]:
    """Each test's factors (X, X', T, T') with the trapezoid weights folded in."""
    wx = trapezoid_weights(grid.n_x, grid.L)
    wt = trapezoid_weights(grid.n_t, grid.T_end)
    return [(wx * xp, wx * xs, wt * tp, wt * ts)
            for xp, xs, tp, ts in (test.factors(grid) for test in tests)]


def _row_blocks(params: PhaseParams, v: np.ndarray) -> list[slice]:
    """Blocks of about ``_BLOCK_CELLS`` cells, 8k x-rows each but the last: BLAS
    groups a matrix-vector product's rows by four, so every row sums bitwise as
    on the whole field.  A field with a sample outside [A, B] (or not finite) is
    one block, so ``branch_image_primitives`` decides its path once."""
    n_x, n_t = v.shape
    if not (v.size and params.A <= np.min(v) and np.max(v) <= params.B):
        return [slice(0, n_x)]
    rows = max(8, _BLOCK_CELLS // n_t // 8 * 8)
    return [slice(i, i + rows) for i in range(0, n_x, rows)]


def _row_contractions(acc: np.ndarray, rows: slice, big_g: np.ndarray, gv: np.ndarray,
                      dgv: np.ndarray, vx: np.ndarray, weighted) -> None:
    """acc[k, :, rows] = G @ T', (g(v) v_x) @ T, (g'(v) v_x^2) @ T for each test k."""
    gvx = gv * vx
    dgvx2 = dgv * vx * vx
    for out, (_, _, tp, ts) in zip(acc, weighted):
        out[0, rows], out[1, rows], out[2, rows] = big_g @ ts, gvx @ tp, dgvx2 @ tp


def _entropy_integrals(acc: np.ndarray, weighted) -> list[float]:
    """Double-trapezoid values of G psi_t - g(v) v_x psi_x - g'(v) v_x^2 psi, one per
    test: psi = X(x) T(t), so the x factors contract the rows of ``_row_contractions``,
    one matrix-vector product per term, bitwise the same in any batch."""
    return [float(xp @ out[0] - xs @ out[1] - xp @ out[2])
            for out, (xp, xs, _, _) in zip(acc, weighted)]


def _identity_defect(grid: Grid, vxx: np.ndarray, gv: np.ndarray, gstar: np.ndarray,
                     rate_cert: np.ndarray) -> float:
    """max |g(v) v_xx - (G*)_t - rate_cert| over interior time samples, where
    rate_cert is the product lambda_t * certificate; NaN without one."""
    if grid.n_t < 3:
        return np.nan
    defect = gv[:, 1:-1] * vxx[:, 1:-1]        # formed in place: one array per block
    defect -= (gstar[:, 2:] - gstar[:, :-2]) / (2.0 * grid.dt)
    defect -= rate_cert[:, 1:-1]
    return float(np.max(np.abs(defect, out=defect)))


def _flux_pass(triple: SolutionTriple, params: PhaseParams, fluxes: list[EntropyFlux],
               tests) -> list[tuple[list[float], float, float]]:
    """Per flux: the entropy integrals over ``tests``, min lambda_t * certificate
    and the identity defect.  Each row block (``_row_blocks``) reads v, v_x,
    v_xx, lambda, lambda_t and the gap once for all fluxes, which form Gamma(v),
    g, g', G*, the certificate and the defect on its rows only.  The running min
    and max are exact (a zero minimum's sign follows numpy's reduction order)."""
    grid, v, lam, rate = triple.grid, triple.v.values, triple.lam.values, triple.lam_t.values
    vx, vxx = _v_x(triple.v), x_second_derivative(triple.v)
    weighted = _weighted_factors(tests, grid)
    acc = np.empty((len(fluxes), len(tests), 3, grid.n_x))
    certs, defects = np.full(len(fluxes), np.inf), np.full(len(fluxes), -np.inf)
    for rows in _row_blocks(params, v):
        vb, lb, rest = v[rows], lam[rows], 1.0 - lam[rows]
        gap = branch_gap_extended(params, vb)
        for i, flux in enumerate(fluxes):
            g0, g2 = branch_image_primitives(params, flux, vb)
            gv = flux.value(vb)
            gstar = rest * g0 + lb * g2
            rate_cert = rate[rows] * certificate_from_primitives(gap, g0, g2, gv)
            _row_contractions(acc[i], rows, gstar, gv, flux.derivative(vb, gv), vx[rows],
                              weighted)
            certs[i] = np.minimum(certs[i], np.min(rate_cert))
            defects[i] = np.maximum(defects[i],
                                    _identity_defect(grid, vxx[rows], gv, gstar, rate_cert))
    return [(_entropy_integrals(a, weighted), float(c), float(d))
            for a, c, d in zip(acc, certs, defects)]


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
    wx = trapezoid_weights(grid.n_x, grid.L)
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
    return _flux_pass(triple, params, [flux], [test])[0][0][0]


def pointwise_certificate(triple: SolutionTriple, flux: EntropyFlux,
                          params: PhaseParams) -> float:
    """min over the grid of lambda_t times the sign certificate.

    Nonnegative whenever the weight is nondecreasing; this covers arbitrary
    nondecreasing fluxes on the constructed class, so the quadrature checks
    only guard the implementation.
    """
    return _flux_pass(triple, params, [flux], [])[0][1]


def certificate_identity_error(triple: SolutionTriple, flux: EntropyFlux,
                               params: PhaseParams) -> float:
    """Pointwise defect of g(v) v_xx - (G*)_t = lambda_t * certificate(v).

    (G*)_t is centered-differenced, so the defect decays at second order under
    time refinement for C1 fluxes (first order on cells crossing a clamp
    corner); interior time samples only.
    """
    if triple.grid.n_t < 3:
        raise ConfigurationError("identity check needs at least three time samples")
    return _flux_pass(triple, params, [flux], [])[0][2]


def monotonicity_report(triple: SolutionTriple, params: PhaseParams,
                        tol: float = MONOTONE_TOL) -> VerificationReport:
    """Stable-phase weights must not decrease while the flux avoids the critical values.

    For each grid x, the upper weight lambda2 = lambda is checked on maximal
    time intervals where v > A.  The lower weight is identically zero in this
    construction, so its clause cannot fail and has no row.  Discrete total
    variation along time is reported, not asserted.
    """
    grid = triple.grid
    v = triple.v.values
    lam = triple.lam.values
    dlam = np.diff(lam, axis=1)

    interior2 = (v[:, 1:] > params.A) & (v[:, :-1] > params.A)
    viol2 = np.pad(np.where(interior2, dlam, 0.0), ((0, 0), (1, 0)))

    tv = np.abs(dlam).sum(axis=1)
    i_tv = int(np.argmax(tv))
    checks = [
        CheckResult("lambda2-monotone", *_extreme(viol2, grid, np.argmin), lower=-tol,
                    note="min increment on v > A intervals"),
        CheckResult("lambda2-total-variation", float(tv[i_tv]),
                    float(grid.x[i_tv]), float(grid.T_end),
                    note="reported bound, not asserted"),
    ]
    return VerificationReport(checks, grid_summary(grid))


def structural_check(triple: SolutionTriple, u0: np.ndarray,
                     params: PhaseParams) -> VerificationReport:
    """Defining clauses of the superposed-solution class, checked on the grid; the
    state-evolution identity integrates v_xx in time with ``running_simpson``."""
    grid = triple.grid
    u, v, lam = triple.u.values, triple.v.values, triple.lam.values
    u0 = np.asarray(u0, dtype=float)
    # the endpoint slope of what the cosine projection misses, held to the
    # backward solve's bound on its final datum
    edge = boundary_slopes(v, triple.v.modes, grid.L)
    j = int(np.argmax(edge.max(axis=0)))
    sup = u - ((1.0 - lam) * beta0_extended(params, v) + lam * beta2_extended(params, v))
    evo = u - u[:, [0]] - running_simpson(x_second_derivative(triple.v), grid.dt)
    checks = [
        CheckResult("initial-trace", *_extreme(np.abs(u[:, :1] - u0[:, None]), grid),
                    upper=INITIAL_TRACE_TOL),
        CheckResult("boundary-flux", float(edge.max()),
                    float(grid.x[0] if edge[0, j] >= edge[1, j] else grid.x[-1]),
                    float(grid.t[j]),
                    upper=BOUNDARY_SLOPE_TOL * max(1.0, float(np.max(np.abs(v)))),
                    note="|v_x| at the endpoints (one-sided difference past the projection)"),
        # the embedded lower weight is identically zero, so v < A is the lower jump
        CheckResult("flux-above-lower-critical", *_extreme(params.A - v, grid),
                    upper=JUMP_TOL, note="max(A - v); the lower weight is zero"),
        CheckResult("upper-jump-clause",
                    *_extreme(np.where(v > params.B + JUMP_TOL, 1.0 - lam, 0.0), grid),
                    upper=WEIGHT_DEFICIT_TOL, note="1 - lambda where v > B"),
        CheckResult("superposition-identity", *_extreme(np.abs(sup), grid),
                    upper=ALGEBRAIC_TOL),
        CheckResult("state-evolution-identity", *_extreme(np.abs(evo), grid),
                    upper=WEAK_TOL, note="u - u(.,0) - time integral of v_xx"),
        CheckResult("weight-bounds", *_extreme(np.maximum(-lam, lam - 1.0), grid),
                    upper=WEIGHT_BOUND_TOL),
        CheckResult("weight-rate-sign", *_extreme(triple.lam_t.values, grid, np.argmin),
                    lower=-MONOTONE_TOL),
    ]
    return VerificationReport(checks, grid_summary(grid))


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
    acc = np.empty((len(fluxes), len(tests), 3, grid.n_x))
    for a, flux in zip(acc, fluxes):
        gv = flux.value(v)
        _row_contractions(a, slice(None), entropy_primitive(params, flux, u), gv,
                          flux.derivative(v, gv), vx, weighted)
    return min(min(_entropy_integrals(a, weighted)) for a in acc)


def viscous_entropy_residual(eps_sol: EpsSolution, flux: EntropyFlux,
                             test, params: PhaseParams) -> float:
    """Admissibility integral of the relaxed dynamics for one flux and test."""
    return viscous_entropy_audit(eps_sol, params, [flux], [test])


def relaxation_report(eps_sol: EpsSolution, params: PhaseParams) -> VerificationReport:
    """Conservation and viscous admissibility of one relaxed solution."""
    grid = eps_sol.grid
    mass = np.trapezoid(eps_sol.u_eps.values, grid.x, axis=0)
    drift = np.abs(mass - mass[0])
    j = int(np.argmax(drift))
    return VerificationReport([
        CheckResult("mass-drift", float(drift[j]), t=float(grid.t[j]), upper=MASS_DRIFT_TOL,
                    note="max |integral of u - its initial value|"),
        CheckResult("viscous-entropy", viscous_entropy_audit(eps_sol, params),
                    lower=-ENTROPY_TOL, note="min over the default fluxes x tests"),
    ], grid_summary(grid))


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


def grid_summary(grid: Grid) -> str:
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

    checks.append(CheckResult("weak-form", weak_residual(triple, u0), upper=WEAK_TOL,
                              note=f"max over {len(default_weak_tests())} final-zero tests"))

    integrals, certs, defects = zip(*_flux_pass(triple, params, fluxes, entropy_tests))
    # the first (flux, test) pair that attains the minimum
    i, k = np.unravel_index(int(np.argmin(integrals)), (len(fluxes), len(entropy_tests)))
    worst = f"{fluxes[i].label()} x {entropy_tests[k].label()}"
    checks.append(CheckResult("entropy-inequality", integrals[i][k], lower=-ENTROPY_TOL,
                              note=f"min over {len(fluxes)} fluxes x "
                                   f"{len(entropy_tests)} tests; worst {worst}"))
    checks.append(CheckResult("pointwise-certificate", min(certs), lower=-CERTIFICATE_TOL))
    # a window without an interior time sample has NaN defects, which fail the row
    checks.append(CheckResult("certificate-identity", max(defects), upper=IDENTITY_TOL,
                              note="centered-difference identity defect" if grid.n_t >= 3
                              else f"needs three time samples, window has {grid.n_t}"))
    return VerificationReport(checks, grid_summary(grid))


# ---------------------------------------------------------------------------
# negative controls: every bounded row must reject its manufactured violator


def control_table(params: PhaseParams | None = None) -> list[tuple[str, tuple, object]]:
    """(control name, target rows, violator) for every row with a finite bound.

    A violator is a (triple, u0) pair, checked by ``run_triple_battery``, or a
    relaxed solution, checked by ``relaxation_report``.
    """
    params = params or PhaseParams.default()
    grid = Grid(np.pi, 1.0, 64, 97, 16)
    final = CosineSeries(np.pi, [0.0, 0.1])
    back = solve_unstable_backward(final, params, grid)
    u0, t = back.u0, grid.t[None, :]
    zero = constant_field(grid, 0.0)
    base = SolutionTriple(back.u_bar, back.v_bar, zero, grid.T_end, "control", lam_t=zero,
                          source=np.zeros(grid.n_x))

    def field(values) -> Field2D:
        return Field2D(grid, np.broadcast_to(values, (grid.n_x, grid.n_t)).copy(), "control")

    def on_branch0(v) -> tuple[SolutionTriple, np.ndarray]:
        """The weight-zero triple with flux v on the decreasing branch, and its u(.,0)."""
        triple = replace(base, u=field(beta0_extended(params, v)), v=field(v))
        return triple, triple.u.values[:, 0]

    # a weight that decreases while the flux stays above the lower critical value
    lam_dec = field(np.maximum(0.0, 0.2 - t))
    decreasing = replace(base, u=assemble_state(base.v, lam_dec, params), lam=lam_dec,
                         lam_t=field(np.where(t < 0.2, -1.0, 0.0)))
    # a flux that dips below the lower critical value, and a flux ramp, whose
    # sides carry a nonzero flux
    v_dip = back.v_bar.values.copy()
    v_dip[:, grid.n_t // 2:] -= params.B - params.A
    v_ramp = (0.5 * grid.x / grid.L - 0.25)[:, None]
    # a non-conservative state (mass grows linearly)
    u_nc = u0[:, None] + 0.1 * t
    # a flux above the upper critical value with upper weight below one
    v_hi, lam_mid = field(params.B + 0.1), field(0.3)
    jump = replace(base, u=assemble_state(v_hi, lam_mid, params), v=v_hi, lam=lam_mid)
    # forward diffusion in the unstable branch: the baseline reversed in time
    reversed_base = replace(base, u=field(back.u_bar.values[:, ::-1]),
                            v=field(back.v_bar.values[:, ::-1]))
    # a certified sourced triple, and a relaxed solution in a stable branch
    sourced = construct_family(final, [CosineSeries(np.pi, [1.0])], params, grid)[1].restricted()
    lam_over, rate_under = sourced.lam.values.copy(), sourced.lam_t.values.copy()
    lam_over[17, 5], rate_under[17, 5] = 1.0 + 1e-3, -1e-3
    relaxed = solve_pseudoparabolic(2.5 + 0.25 * np.cos(grid.x), 0.05, params, grid)
    return [
        ("decreasing-weight", ("lambda2-monotone", "pointwise-certificate"),
         (decreasing, u0)),
        ("broken-superposition", ("superposition-identity",),
         (replace(base, u=field(back.u_bar.values + 1e-3)), u0)),
        ("flux-below-lower-critical", ("flux-above-lower-critical",), on_branch0(v_dip)),
        ("non-conservative-state", ("weak-form",),
         (replace(base, u=field(u_nc), v=field(eval_phi(params, u_nc))), u0)),
        ("upper-jump-violation", ("upper-jump-clause",), (jump, jump.u.values[:, 0])),
        ("reversed-relaxation-flow", ("viscous-entropy",),
         EpsSolution(relaxed.eps, field(relaxed.u_eps.values[:, ::-1]),
                     field(relaxed.v_eps.values[:, ::-1]),
                     relaxed.u_modes[:, ::-1], relaxed.v_modes[:, ::-1])),
        ("reversed-baseline", ("entropy-inequality",),
         (reversed_base, reversed_base.u.values[:, 0])),
        ("doubled-weight-rate", ("certificate-identity",),
         (replace(sourced, lam_t=Field2D(sourced.grid, 2.0 * sourced.lam_t.values)), u0)),
        ("sloped-boundary-flux", ("boundary-flux",), on_branch0(v_ramp)),
        ("shifted-initial-datum", ("initial-trace",), (sourced, u0 + 1e-6)),
        ("drifting-state", ("state-evolution-identity",),
         (replace(base, u=field(back.u_bar.values + 1e-3 * t * np.cos(grid.x)[:, None])),
          u0)),
        ("weight-above-one", ("weight-bounds",),
         (replace(sourced, lam=Field2D(sourced.grid, lam_over)), u0)),
        ("negative-weight-rate", ("weight-rate-sign",),
         (replace(sourced, lam_t=Field2D(sourced.grid, rate_under)), u0)),
        ("growing-relaxed-mass", ("mass-drift",),
         replace(relaxed, u_eps=field(relaxed.u_eps.values * (1.0 + 0.1 * t)),
                 u_modes=relaxed.u_modes * (1.0 + 0.1 * t))),
    ]


def negative_controls(params: PhaseParams | None = None) -> list[tuple[str, bool, str]]:
    """Check every violator of ``control_table`` with the report that carries its
    target rows.

    Returns (control name, rejected, detail) entries; a control counts as
    rejected only when every one of its target rows fails, and the detail
    gives each target row's residual.
    """
    params = params or PhaseParams.default()
    results = []
    for name, rows, violator in control_table(params):
        report = (relaxation_report(violator, params) if isinstance(violator, EpsSolution)
                  else run_triple_battery(*violator, params))
        entries = [report.entry(row) for row in rows]
        results.append((name, not any(e.passed for e in entries),
                        ", ".join(f"{e.name} {e.residual:.2e}" for e in entries)))
    return results
