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

The judge imports only ``errors``, ``phase_model`` and ``spectral``, never the
construction code, and owns the records it judges, ``SolutionTriple`` and
``EpsSolution`` (``tests/test_imports.py`` checks the layer order).

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

from .errors import ConfigurationError, DomainViolationError, GridMismatchError
from .phase_model import (EntropyFlux, PhaseParams,
                          beta0_extended, beta2_extended, branch_gap_extended,
                          branch_image_primitives, certificate_from_primitives,
                          entropy_primitive)
from .spectral import (BOUNDARY_SLOPE_TOL, Field2D, Grid, boundary_slopes, read_only,
                       trapezoid_weights, x_derivative_columns)

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


@dataclass(frozen=True)
class SolutionTriple:
    """State u, flux v and stable-phase weight lambda of one candidate solution.

    The embedded three-phase weights are (1 - lam, 0, lam); ``t_bar`` is the
    certified horizon, ``binding`` the condition that ends it, a margin or the end
    of the construction window ("" when it is the whole grid), and ``lam_t`` the
    analytic weight rate.  All four fields live on one grid, [0, t_bar] for a triple
    of ``construct_family``, and own its samples.  ``source`` is the (n_x,) profile
    f(x) driving v (zeros for a weight-zero triple), held or copied read-only like a
    field's samples: the excess rate m = v_xx + |sigma| v_t equals it exactly.
    """

    u: Field2D
    v: Field2D
    lam: Field2D
    t_bar: float
    provenance: str
    lam_t: Field2D
    source: np.ndarray
    binding: str = ""

    def __post_init__(self):
        if any(f.grid != self.u.grid for f in (self.v, self.lam, self.lam_t)):
            raise GridMismatchError("u, v, lambda and lambda_t must share one grid")
        source = read_only(self.source)
        if source.shape != (self.grid.n_x,):
            raise GridMismatchError(
                f"source profile: expected {self.grid.n_x} samples, got shape {source.shape}")
        object.__setattr__(self, "source", source)

    @property
    def grid(self) -> Grid:
        return self.u.grid


@dataclass(frozen=True)
class EpsSolution:
    """State/flux pair of the relaxation system at one eps."""

    eps: float
    u_eps: Field2D
    v_eps: Field2D
    u_modes: np.ndarray
    v_modes: np.ndarray

    @property
    def grid(self) -> Grid:
        return self.u_eps.grid


# ---------------------------------------------------------------------------
# test functions


def _bump(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bump exp(1 - 1/(1 - s^2)) on |s| < 1, zero outside, and its slope."""
    out, slope = np.zeros_like(s), np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    one = 1.0 - si * si
    e = np.exp(1.0 - 1.0 / one)
    out[inside], slope[inside] = e, e * (-2.0 * si / (one * one))
    return out, slope


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
        bx, bx_s = _bump((grid.x - self.x0) / self.rx)
        bt, bt_s = _bump((grid.t - self.t0) / self.rt)
        return bx, bx_s / self.rx, bt, bt_s / self.rt


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
        bt, bt_s = _bump((2.0 * grid.t - self.t0 - self.t1) / (self.t1 - self.t0))
        return (1.0 + np.cos(arg), -(self.j * np.pi / grid.L) * np.sin(arg),
                bt, bt_s * 2.0 / (self.t1 - self.t0))


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

    def factors(self, grid: Grid):
        arg = self.j * np.pi * grid.x / grid.L
        return (np.cos(arg), -(self.j * np.pi / grid.L) * np.sin(arg),
                (1.0 - grid.t / grid.T_end) ** self.deg,
                -self.deg / grid.T_end * (1.0 - grid.t / grid.T_end) ** (self.deg - 1))


def default_flux_battery() -> list[EntropyFlux]:
    """Twelve nondecreasing fluxes from the two built-in families: five clamps
    plus the unbounded clamp (the identity), and six tanh ramps."""
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


def _initial_datum(triple: SolutionTriple, u0) -> np.ndarray:
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (triple.grid.n_x,):
        raise GridMismatchError("initial datum does not match the triple's grid")
    return u0


def running_simpson(y: np.ndarray, dt: float) -> np.ndarray:
    """Running composite Simpson integral of y along its last axis, step dt.

    Even interval i: dt/12 (5 y_i + 8 y_(i+1) - y_(i+2)); odd ones and always
    the last: dt/12 (-y_(i-1) + 8 y_i + 5 y_(i+1)); two samples: the trapezoid.
    So entry j is scipy's cumulative_simpson(initial=0), the last its simpson.
    The interval sums are formed in the result, with one scratch array.
    """
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape)
    parts = out[..., 1:]                       # interval i, from y_i to y_(i+1)
    if y.shape[-1] < 3:
        np.add(y[..., :-1], y[..., 1:], out=parts)
        parts *= 0.5 * dt
    else:
        scratch = np.empty(y.shape[:-1] + (y.shape[-1] - 2,))
        behind = parts[..., 1:]                # every interval but the first
        np.multiply(y[..., 1:-1], 8.0, out=behind)
        behind -= y[..., :-2]
        behind += np.multiply(y[..., 2:], 5.0, out=scratch)
        ahead = parts[..., :-1:2]              # the even ones but the last
        np.multiply(y[..., :-2:2], 5.0, out=ahead)
        ahead += np.multiply(y[..., 1:-1:2], 8.0, out=scratch[..., :ahead.shape[-1]])
        ahead -= y[..., 2::2]
        parts *= dt / 12.0
    np.cumsum(parts, axis=-1, out=parts)
    return out


def _weighted_factors(tests, grid: Grid) -> list[tuple]:
    """Each test's factors (X, X', T, T') with the trapezoid weights folded in."""
    wx = trapezoid_weights(grid.n_x, grid.L)
    wt = trapezoid_weights(grid.n_t, grid.T_end)
    return [(wx * xp, wx * xs, wt * tp, wt * ts)
            for xp, xs, tp, ts in (test.factors(grid) for test in tests)]


def _row_blocks(params: PhaseParams, v: np.ndarray) -> list[slice]:
    """Blocks of about ``_BLOCK_CELLS`` cells, 8k x-rows each but the last: BLAS
    groups a matrix-vector product's rows by four, so every row sums bitwise as
    on the whole field.  A field outside ``PhaseParams.in_flux_range`` is one
    block, so ``branch_image_primitives`` decides its path once."""
    n_x, n_t = v.shape
    if not params.in_flux_range(v):
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
    g, g', G*, the certificate and the defect on its rows only, reading the rows
    of v, lambda and lambda_t in place (a field holds C-contiguous or broadcast
    samples).  The running min and max are exact (a zero minimum's sign follows
    numpy's reduction order)."""
    grid, v, lam, rate = triple.grid, triple.v.values, triple.lam.values, triple.lam_t.values
    vx, vxx = _v_x(triple.v), triple.v.xx
    weighted = _weighted_factors(tests, grid)
    acc = np.empty((len(fluxes), len(tests), 3, grid.n_x))
    certs, defects = np.full(len(fluxes), np.inf), np.full(len(fluxes), -np.inf)
    for rows in _row_blocks(params, v):
        vb, lb, rb = v[rows], lam[rows], rate[rows]
        rest = 1.0 - lb
        gap = branch_gap_extended(params, vb)
        for i, flux in enumerate(fluxes):
            g0, g2 = branch_image_primitives(params, flux, vb)
            gv = flux.value(vb)
            gstar = rest * g0 + lb * g2
            rate_cert = rb * certificate_from_primitives(gap, g0, g2, gv)
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
    u0 = _initial_datum(triple, u0)
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
    corner) over interior time samples; NaN without one, as in the battery.
    """
    return _flux_pass(triple, params, [flux], [])[0][2]


def monotonicity_report(triple: SolutionTriple, params: PhaseParams) -> VerificationReport:
    """Stable-phase weights must not decrease while the flux avoids the critical values.

    For each grid x, the upper weight lambda2 = lambda is checked on maximal
    time intervals where v > A.  The lower weight is identically zero in this
    construction, so its clause cannot fail and has no row.  Discrete total
    variation along time is reported, not asserted.
    """
    grid, v = triple.grid, triple.v.values
    dlam = np.diff(triple.lam.values, axis=1)
    # steps with v > A at both ends; the least increment on them is reported
    # where it first occurs, and a window with no decrease reports 0.0 at the
    # first sample (x_0, t_0)
    on = v[:, 1:] > params.A
    on &= v[:, :-1] > params.A
    least = float(np.min(dlam, where=on, initial=0.0))
    if least < 0.0:
        i, j = np.unravel_index(int(np.argmax(on & (dlam == least))), dlam.shape)
        at = (float(grid.x[i]), float(grid.t[j + 1]))
    else:
        least, at = 0.0, (float(grid.x[0]), float(grid.t[0]))
    tv = np.abs(dlam, out=dlam).sum(axis=1)
    i_tv = int(np.argmax(tv))
    checks = [
        CheckResult("lambda2-monotone", least, *at, lower=-MONOTONE_TOL,
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
    u0 = _initial_datum(triple, u0)
    # the endpoint slope of what the cosine projection misses, held to the
    # backward solve's bound on its final datum
    edge = boundary_slopes(v, triple.v.modes, grid.L)
    j = int(np.argmax(edge.max(axis=0)))
    # each row's field is formed, reduced to its extreme and dropped in turn
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
        CheckResult("superposition-identity",
                    *_extreme(_superposition_defect(u, v, lam, params), grid),
                    upper=ALGEBRAIC_TOL),
        CheckResult("state-evolution-identity", *_extreme(_evolution_defect(triple), grid),
                    upper=WEAK_TOL, note="u - u(.,0) - time integral of v_xx"),
        CheckResult("weight-bounds", *_extreme(np.maximum(-lam, lam - 1.0), grid),
                    upper=WEIGHT_BOUND_TOL),
        CheckResult("weight-rate-sign", *_extreme(triple.lam_t.values, grid, np.argmin),
                    lower=-MONOTONE_TOL),
    ]
    return VerificationReport(checks, grid_summary(grid))


def _superposition_defect(u: np.ndarray, v: np.ndarray, lam: np.ndarray,
                          params: PhaseParams) -> np.ndarray:
    """|u - ((1 - lambda) beta0(v) + lambda beta2(v))|, formed in place."""
    defect = beta0_extended(params, v)
    defect *= 1.0 - lam
    upper = beta2_extended(params, v)
    upper *= lam
    defect += upper
    np.subtract(u, defect, out=defect)
    return np.abs(defect, out=defect)


def _evolution_defect(triple: SolutionTriple) -> np.ndarray:
    """|u - u(.,0) - running_simpson(v_xx)|, formed in place."""
    integral = running_simpson(triple.v.xx, triple.grid.dt)
    u = triple.u.values
    defect = u - u[:, :1]
    defect -= integral
    return np.abs(defect, out=defect)


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
    if ga.L != gb.L or ga.n_x != gb.n_x or ga.dt != gb.dt:
        raise GridMismatchError("triples live on incompatible grids")
    if t_probe > min(triple_a.t_bar, triple_b.t_bar):
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
    the default fluxes and test functions and the module's fixed tolerances; a
    triple carried past its certified horizon is expected to fail the range clauses.
    The checks read v through a ``Field2D`` of their own over its samples, so the
    projection and v_xx they form are freed on return, not cached on the triple.
    """
    triple = replace(triple, v=Field2D(triple.grid, triple.v.values, triple.v.label))
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
