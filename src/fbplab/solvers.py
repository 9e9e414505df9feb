"""The three PDE solves behind the multi-solution construction.

* ``solve_unstable_backward``: the well-posed final-time problem for data in
  the decreasing branch, advanced by exact mode propagation after time
  reversal (the branch is affine, so the equation is linear and the kernel
  exact).
* ``solve_sourced`` / ``inverse_source_from_endpoints``: the sourced problem
  ``|sigma| v_t + v_xx = f(x)`` solved exactly per mode, and the closed-form
  recovery of a time-independent source from initial and final profiles.
  Because modes grow like exp(mu_k t / |sigma|), the endpoint/source relation
  is exponentially ill-conditioned; the coefficient algebra therefore runs in
  extended precision (mpmath) whenever the growth factors would eat double
  precision, and the inverse constructor always returns extended-precision
  coefficients.
* ``solve_pseudoparabolic``: the relaxation system u_t = v_xx,
  (I - eps * d_xx) v = phi(u), advanced in mode space one sample interval at a
  time: by the closed-form per-mode exponential when the state provably keeps
  one affine branch over the interval, else by classic RK4 with steps bounded
  by eps/4.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from pathlib import Path

import mpmath as mp
import numpy as np

from .errors import (BoundaryConditionError, ConfigurationError,
                     DomainViolationError, InstabilityError)
from .phase_model import PhaseParams, eval_phi
from .spectral import (OVERFLOW_EXPONENT, CosineSeries, Field2D, Grid,
                       analysis_matrix, cosine_analyze, cosine_basis,
                       cosine_eigenvalues, field_from_modes)

#: growth exponent above which the float64 fast path is abandoned for mpmath
_MP_EXPONENT_THRESHOLD = 16.0
#: sample residual of a band-limited profile and endpoint slope of a zero-flux
#: datum, both relative to the profile, and the RK4 budget of one relaxation
_BAND_LIMIT_TOL, _BOUNDARY_SLOPE_TOL, _MAX_RK4_STEPS = 1e-8, 1e-3, 2_000_000


def _profile_to_series(profile, grid: Grid, what: str) -> CosineSeries:
    """Coerce a spatial profile (samples or series) to grid-sized coefficients."""
    if isinstance(profile, CosineSeries):
        if abs(profile.L - grid.L) > 1e-12 * grid.L:
            raise ConfigurationError(f"{what}: series length does not match the grid")
        if profile.n_modes > grid.n_modes:
            raise ConfigurationError(f"{what}: more modes than the grid resolves")
        return profile.padded(grid.n_modes)
    vals = np.asarray(profile, dtype=float)
    if vals.shape != (grid.n_x,):
        raise ConfigurationError(f"{what}: expected {grid.n_x} samples, got {vals.shape}")
    series = cosine_analyze(vals, grid.L, grid.n_modes)
    # coefficients at analysis round-off are indistinguishable from zero and
    # must not be fed to the growth factors
    coeffs = series.as_float()
    coeffs[np.abs(coeffs) <= 1e-13 * max(1.0, np.max(np.abs(vals)))] = 0.0
    series = CosineSeries(grid.L, coeffs)
    resid = np.max(np.abs(series.synthesize(grid.x) - vals))
    if resid > _BAND_LIMIT_TOL * max(1.0, np.max(np.abs(vals))):
        raise ConfigurationError(
            f"{what}: samples are not band-limited on this grid (residual {resid:.2e})")
    return series


def _endpoint_slope(vals: np.ndarray, dx: float, left: bool) -> float:
    # second-order one-sided difference
    if left:
        return (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * dx)
    return (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * dx)


# ---------------------------------------------------------------------------
# backward problem on the decreasing branch


@dataclass(frozen=True)
class BackwardBranchSolution:
    """State and flux of the final-time problem, plus its recovered initial datum."""

    u_bar: Field2D
    v_bar: Field2D
    u0: np.ndarray
    final_data: np.ndarray
    params: PhaseParams

    @property
    def grid(self) -> Grid:
        return self.u_bar.grid


def solve_unstable_backward(g, params: PhaseParams, grid: Grid) -> BackwardBranchSolution:
    """Solve u_t = phi0' u_xx with zero-flux sides and final data g.

    With data in the decreasing branch this is well posed: after time reversal
    it is the ordinary heat flow with diffusivity |phi0'|, applied to g for the
    remaining time.  Modes of g are damped by exp(-|phi0'| mu_k (T - t)), so
    the solution obeys the maximum principle and stays inside the range of g.
    """
    if isinstance(g, CosineSeries):
        g_vals = g.synthesize(grid.x)
    else:
        g_vals = np.asarray(g, dtype=float)
        if g_vals.shape != (grid.n_x,):
            raise ConfigurationError(
                f"final datum: expected {grid.n_x} samples, got {g_vals.shape}")
        sl = max(abs(_endpoint_slope(g_vals, grid.dx, True)),
                 abs(_endpoint_slope(g_vals, grid.dx, False)))
        if sl > _BOUNDARY_SLOPE_TOL * max(1.0, np.max(np.abs(g_vals))):
            raise BoundaryConditionError(
                f"final datum has slope {sl:.2e} at an endpoint; zero-flux data required")
    if np.any(params.branch_index(g_vals)):
        raise DomainViolationError(
            "final datum must take values strictly inside the decreasing branch (b, c)")
    series = _profile_to_series(g, grid, "final datum")

    # u_k(t) = g_k exp(-|phi0'| mu_k (T - t)): exact, decaying toward t = 0
    decay = np.exp(-abs(params.phi0_slope) * np.outer(grid.mu(), grid.T_end - grid.t))
    u_modes = series.as_float()[:, None] * decay
    u_field = field_from_modes(grid, u_modes, "backward-branch state")
    v_field = Field2D(grid, eval_phi(params, u_field.values), "backward-branch flux")
    return BackwardBranchSolution(u_field, v_field, u_field.values[:, 0].copy(),
                                  g_vals.copy(), params)


# ---------------------------------------------------------------------------
# sourced problem |sigma| v_t + v_xx = f(x)


@dataclass(frozen=True)
class SourcedSolution:
    """Exact mode solution of the sourced flow, with analytic time derivative."""

    v: Field2D
    f: CosineSeries
    sigma_abs: float
    v_modes: np.ndarray
    vt_modes: np.ndarray

    @property
    def grid(self) -> Grid:
        return self.v.grid

    def source_values(self) -> np.ndarray:
        return self.f.synthesize(self.grid.x)

    def vt_field(self) -> Field2D:
        return field_from_modes(self.grid, self.vt_modes, "sourced flux rate")

    def vxx_field(self) -> Field2D:
        return field_from_modes(self.grid, -self.grid.mu()[:, None] * self.v_modes,
                                "sourced flux curvature")


def _guard_exponents(mu: np.ndarray, active: np.ndarray, T: float, sigma_abs: float,
                     context: str) -> float:
    expo = mu * T / sigma_abs
    bad = active & (expo > OVERFLOW_EXPONENT)
    if np.any(bad):
        mode = int(np.argmax(bad))
        raise InstabilityError(
            f"{context}: mode {mode} growth exponent {expo[mode]:.1f} exceeds the "
            "overflow guard; the expansion needs stronger coefficient decay "
            "(summability) before this horizon is reachable")
    return float(np.max(np.where(active, expo, 0.0), initial=0.0))


def _mp_precision(max_exponent: float) -> int:
    # enough bits to absorb the e^{max_exponent} cancellation plus a margin
    return max(113, int(max_exponent * log2(np.e)) + 80)


def _to_mpf(x) -> "mp.mpf":
    return x if isinstance(x, mp.mpf) else mp.mpf(float(x))


def solve_sourced(f: CosineSeries, v0, sigma_abs: float, grid: Grid) -> SourcedSolution:
    """Exact per-mode solution of |sigma| v_t + v_xx = f(x) from the profile v0.

    Mode k >= 1 evolves as v_k(t) = (v_k(0) + f_k/mu_k) e^{mu_k t/|sigma|} - f_k/mu_k
    and mode 0 as v_0(0) + f_0 t / |sigma|.  Coefficient algebra switches to
    extended precision when the growth exponents are large enough to make the
    float64 evaluation lose the endpoint (this is what keeps the inverse-source
    round trip exact); sampled fields are float64 either way.
    """
    if sigma_abs <= 0:
        raise ConfigurationError("sigma_abs must be positive")
    if f.n_modes > grid.n_modes:
        raise ConfigurationError("source has more modes than the grid resolves")
    fs = f.padded(grid.n_modes)
    a = _profile_to_series(v0, grid, "initial flux profile")
    a_coeffs = a.coeffs
    f_coeffs = fs.coeffs

    mu = grid.mu()
    active = np.asarray([(ak != 0) or (fk != 0) for ak, fk in zip(a_coeffs, f_coeffs)])
    max_exp = _guard_exponents(mu, active, grid.T_end, sigma_abs, "sourced solve")

    use_mp = (max_exp > _MP_EXPONENT_THRESHOLD
              or a_coeffs.dtype == object or f_coeffs.dtype == object)
    K, n_t = grid.n_modes, grid.n_t
    ff = fs.as_float()
    v_modes = np.zeros((K + 1, n_t))
    if use_mp:
        with mp.workprec(_mp_precision(max_exp)):
            tgrid = [mp.mpf(tj) for tj in grid.t]
            for k in range(K + 1):
                if not active[k]:
                    continue
                ak = _to_mpf(a_coeffs[k])
                fk = _to_mpf(f_coeffs[k])
                if k == 0:
                    row = [ak + fk * tj / sigma_abs for tj in tgrid]
                else:
                    muk = mp.mpf(mu[k])
                    Fk = fk / muk
                    row = [(ak + Fk) * mp.e**(muk * tj / sigma_abs) - Fk for tj in tgrid]
                v_modes[k] = [float(r) for r in row]
    else:
        af = a.as_float()
        v_modes[0] = af[0] + ff[0] * grid.t / sigma_abs
        for k in range(1, K + 1):
            if not active[k]:
                continue
            Fk = ff[k] / mu[k]
            v_modes[k] = (af[k] + Fk) * np.exp(mu[k] * grid.t / sigma_abs) - Fk

    # |sigma| v_t = f + mu v element-wise: computing vt from the rounded modes
    # keeps the identity v_xx + |sigma| v_t = f exact at the sample level
    vt_modes = (ff[:, None] + mu[:, None] * v_modes) / sigma_abs
    v_field = field_from_modes(grid, v_modes, "sourced flux")
    return SourcedSolution(v_field, fs, float(sigma_abs), v_modes, vt_modes)


def inverse_source_from_endpoints(a: CosineSeries, b_series: CosineSeries,
                                  T_end: float, sigma_abs: float) -> CosineSeries:
    """Recover the time-independent source driving profile a to profile b in time T.

    Closed forms per mode: f_0 = (b_0 - a_0) |sigma| / T and, for k >= 1 with
    E_k = exp(pi^2 T k^2 / (L^2 |sigma|)),

        f_k = pi^2 k^2 (b_k - a_k E_k) / (L^2 (E_k - 1)).

    The returned coefficients are extended-precision reals: the forward solve
    multiplies f_k/mu_k back by E_k - 1, so any double-precision rounding of
    f_k would be amplified by the full growth factor.
    """
    if T_end <= 0 or sigma_abs <= 0:
        raise ConfigurationError("T_end and sigma_abs must be positive")
    if abs(a.L - b_series.L) > 1e-12 * a.L:
        raise ConfigurationError("endpoint profiles live on different intervals")
    if len(a.coeffs) != len(b_series.coeffs):
        raise ConfigurationError("endpoint profiles must carry the same mode count")
    mu = cosine_eigenvalues(len(a.coeffs) - 1, a.L)
    active = np.asarray([(ak != 0) or (bk != 0)
                         for ak, bk in zip(a.coeffs, b_series.coeffs)])
    max_exp = _guard_exponents(mu, active, T_end, sigma_abs, "inverse source")

    out = np.empty(len(mu), dtype=object)
    with mp.workprec(_mp_precision(max_exp)):
        out[0] = (_to_mpf(b_series.coeffs[0]) - _to_mpf(a.coeffs[0])) * sigma_abs / T_end
        for kk in range(1, len(mu)):
            ak = _to_mpf(a.coeffs[kk])
            bk = _to_mpf(b_series.coeffs[kk])
            muk = mp.mpf(mu[kk])
            E = mp.e**(muk * T_end / sigma_abs)
            out[kk] = muk * (bk - ak * E) / (E - 1)
    return CosineSeries(a.L, out)


# ---------------------------------------------------------------------------
# pseudoparabolic relaxation


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


def _flux_modes(u_hat: np.ndarray, params: PhaseParams,
                basis: np.ndarray, analysis: np.ndarray) -> np.ndarray:
    """Cosine modes of phi(u) for mode-vector state u_hat.

    When the sampled state stays inside one affine branch the flux modes are an
    exact affine image of the state modes, which keeps inactive modes exactly
    zero (no round-off seeding of the violently growing high modes).  Mixed
    ranges fall back to pointwise evaluation plus projection.
    """
    vals = basis @ u_hat
    if not np.all(np.isfinite(vals)) or np.max(np.abs(vals)) > 1e100:
        raise InstabilityError("relaxation state overflowed")
    k = params.branch_holding(vals.min(), vals.max())
    if k is None:
        return analysis @ eval_phi(params, vals)
    out = params.branches.slope[k] * u_hat
    out[0] += params.branches.intercept[k]
    return out


def _exact_factors(modes: np.ndarray, exponents: np.ndarray) -> np.ndarray | None:
    """exp(exponents) on the nonzero modes and 1 on the zero ones (which so stay
    exactly zero); None when an active exponent passes the overflow guard."""
    active = modes != 0
    if np.any(active & (exponents > OVERFLOW_EXPONENT)):
        return None
    return np.exp(np.where(active, exponents, 0.0))


def _certified_branch(state: np.ndarray, params: PhaseParams, basis: np.ndarray,
                      exponents: np.ndarray) -> int | None:
    """The branch that every node provably keeps over the next sample interval, or None.

    On branch i the system is linear and diagonal: over one interval mode k is
    multiplied by exp(-mu_k slope_i dt/(1 + eps mu_k)) = exp(exponents[i, k]).
    Each mode moves monotonically and |cos| <= 1, so no node drifts by more
    than D = sum_k |a_k| |e^{r_k dt} - 1|; the interval is certified when
    [min - D, max + D] of the nodes still lies in the branch holding them.
    """
    vals = basis @ state
    lo, hi = vals.min(), vals.max()
    i = params.branch_holding(lo, hi)
    factors = None if i is None else _exact_factors(state, exponents[i])
    if factors is None:
        return None
    drift = np.abs(state) @ np.abs(factors - 1.0)
    return i if params.branch_holding(lo - drift, hi + drift) == i else None


def solve_pseudoparabolic(u0, eps: float, params: PhaseParams, grid: Grid) -> EpsSolution:
    """Integrate u_t = v_xx with (I - eps d_xx) v = phi(u), zero-flux sides.

    The elliptic solve is diagonal in mode space (v_k = [phi(u)]_k/(1 + eps mu_k)),
    so the system is a stiff ODE with rates bounded by max|phi'|/eps.  A sample
    interval over which the nodes provably keep one affine branch is advanced
    by the exact per-mode exponential (``_certified_branch``); any other
    interval by classic RK4 with steps of at most eps/4, which keeps every mode
    well inside the stability region for unit-slope branches.  Both RK4 guards
    act at the first interval that needs RK4, so a run of exact steps is never
    refused: a branch too steep for the step, and a budget that RK4 on that
    interval and on every later one would exceed.
    """
    if eps <= 0:
        raise ConfigurationError("eps must be positive")
    series = _profile_to_series(u0, grid, "initial state")
    u_hat = series.as_float()

    mu = grid.mu()
    slope_max = np.max(np.abs(params.branches.slope))
    n_sub = max(1, ceil(grid.dt / (eps / 4.0)))
    h = grid.dt / n_sub
    resolvent = 1.0 / (1.0 + eps * mu)
    # a row-major (n_x, K+1) copy: synthesis is one dot product per sample
    basis = np.ascontiguousarray(cosine_basis(grid.n_modes, grid.L, grid.x).T)
    analysis = analysis_matrix(grid.n_modes, grid.L, grid.n_x)

    def rhs(state: np.ndarray) -> np.ndarray:
        return -mu * resolvent * _flux_modes(state, params, basis, analysis)

    # row i: exponent of each mode over one sample interval on branch i
    exponents = -np.outer(params.branches.slope, mu * resolvent) * grid.dt
    u_modes = np.zeros((grid.n_modes + 1, grid.n_t))
    u_modes[:, 0] = u_hat
    state = u_hat.copy()
    start, run = 0, None  # first sample and branch of the current run of exact steps
    for j in range(1, grid.n_t):
        i = _certified_branch(state, params, basis, exponents)
        if i is not None and i != run:
            start, run = j - 1, i
        # the closed form from the run's first sample: rounding does not compound
        factors = (None if i is None
                   else _exact_factors(u_modes[:, start], (j - start) * exponents[i]))
        if factors is not None:
            state = u_modes[:, start] * factors
        else:
            run, total = None, n_sub * (grid.n_t - j)
            # RK4 real-axis stability reaches |z| ~ 2.78; refuse a steep branch
            # that pushes the fastest mode past it
            if h * slope_max * mu[-1] / (1.0 + eps * mu[-1]) > 2.5:
                raise ConfigurationError(
                    f"branch slope {slope_max:g} too steep for the RK4 step {h:g} <= eps/4 "
                    f"from t = {grid.t[j - 1]:.6g}: the fastest mode is unstable")
            if total > _MAX_RK4_STEPS:
                raise ConfigurationError(
                    f"{total} RK4 steps needed from t = {grid.t[j - 1]:.6g}; "
                    "increase eps, shorten T_end, or coarsen n_t")
            for _ in range(n_sub):
                k1 = rhs(state)
                k2 = rhs(state + 0.5 * h * k1)
                k3 = rhs(state + 0.5 * h * k2)
                k4 = rhs(state + h * k3)
                state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u_modes[:, j] = state

    v_modes = np.empty_like(u_modes)
    for j in range(grid.n_t):
        v_modes[:, j] = resolvent * _flux_modes(u_modes[:, j], params, basis, analysis)
    u_field = field_from_modes(grid, u_modes, f"relaxed state eps={eps:g}")
    v_field = field_from_modes(grid, v_modes, f"relaxed flux eps={eps:g}")
    return EpsSolution(float(eps), u_field, v_field, u_modes, v_modes)


def write_solver_metadata(path, label: str, equation: str, params: dict) -> None:
    """Sidecar provenance for a dumped field: which flow produced it, with what constants."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"field: {label}", f"equation: {equation}"]
    lines += [f"{key}: {value}" for key, value in params.items()]
    p.write_text("\n".join(lines) + "\n")
