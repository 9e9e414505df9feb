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
* ``solve_pseudoparabolic``: the relaxation system u_t = v_xx, (I - eps d_xx) v =
  phi(u), advanced exactly in mode space and split at located branch crossings.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2
from pathlib import Path

import mpmath as mp
import numpy as np

from .errors import (BoundaryConditionError, ConfigurationError,
                     DomainViolationError, InstabilityError)
from .phase_model import PhaseParams, eval_phi
from .spectral import (BOUNDARY_SLOPE_TOL, CosineSeries, Field2D, Grid,
                       analysis_matrix, analyze_columns, boundary_slopes,
                       cosine_analyze, cosine_basis, cosine_eigenvalues,
                       field_from_modes, mode_exponential)

#: growth exponent above which the float64 fast path is abandoned for mpmath
_MP_EXPONENT_THRESHOLD = 16.0
#: sample residual of a band-limited profile, relative to the profile
_BAND_LIMIT_TOL = 1e-8
#: how far past its breakpoint, relative to max(1, |b|, |c|), a node has crossed
_CROSSING_TOL = 1e-13


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


# ---------------------------------------------------------------------------
# backward problem on the decreasing branch


@dataclass(frozen=True)
class BackwardBranchSolution:
    """State and flux of the final-time problem, plus its recovered initial datum."""

    u_bar: Field2D
    v_bar: Field2D
    u0: np.ndarray
    final_data: np.ndarray


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
        modes = analyze_columns(g_vals[:, None], grid.L, grid.n_modes)
        sl = float(np.max(boundary_slopes(g_vals[:, None], modes, grid.L)))
        if sl > BOUNDARY_SLOPE_TOL * max(1.0, np.max(np.abs(g_vals))):
            raise BoundaryConditionError(
                f"final datum has slope {sl:.2e} at an endpoint; zero-flux data required")
    if np.any(params.branch_index(g_vals)):
        raise DomainViolationError(
            "final datum must take values strictly inside the decreasing branch (b, c)")
    series = _profile_to_series(g, grid, "final datum")

    # u_k(t) = g_k exp(-|phi0'| mu_k (T - t)): exact, decaying toward t = 0
    decay = mode_exponential(-abs(params.phi0_slope) * np.outer(grid.mu(), grid.T_end - grid.t),
                             series.active, "backward solve")
    u_modes = series.as_float()[:, None] * decay
    u_field = field_from_modes(grid, u_modes, "backward-branch state")
    v_field = Field2D(grid, eval_phi(params, u_field.values), "backward-branch flux")
    return BackwardBranchSolution(u_field, v_field, u_field.values[:, 0].copy(),
                                  g_vals.copy())


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
    active = a.active | fs.active
    expo = np.outer(mu, grid.t) / sigma_abs
    growth = mode_exponential(expo, active, "sourced solve")
    max_exp = float(np.max(expo[:, -1], where=active, initial=0.0))

    use_mp = (max_exp > _MP_EXPONENT_THRESHOLD
              or a_coeffs.dtype == object or f_coeffs.dtype == object)
    ff = fs.as_float()
    if use_mp:
        v_modes = np.zeros((grid.n_modes + 1, grid.n_t))
        with mp.workprec(_mp_precision(max_exp)):
            tgrid = [mp.mpf(tj) for tj in grid.t]
            for k in np.flatnonzero(active):
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
        F = np.divide(ff, mu, out=np.zeros_like(ff), where=mu > 0)
        v_modes = (af + F)[:, None] * growth - F[:, None]
        v_modes[0] = af[0] + ff[0] * grid.t / sigma_abs

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
    active, expo = a.active | b_series.active, mu * T_end / sigma_abs
    mode_exponential(expo, active, "inverse source")  # the guard; mpmath forms E_k
    max_exp = float(np.max(expo, where=active, initial=0.0))

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
    """Cosine modes of phi(u) for mode-vector state u_hat: on one affine branch an
    exact affine image of the state modes, so inactive modes stay exactly zero and
    no round-off seeds the growing high modes; else phi at the nodes, projected."""
    vals = basis @ u_hat
    if not np.all(np.isfinite(vals)) or np.max(np.abs(vals)) > 1e100:
        raise InstabilityError("relaxation state overflowed")
    k = params.branch_holding(vals.min(), vals.max())
    if k is None:
        return analysis @ eval_phi(params, vals)
    out = params.branches.slope[k] * u_hat
    out[0] += params.branches.intercept[k]
    return out


def _certified_branch(state: np.ndarray, params: PhaseParams, basis: np.ndarray,
                      exponents: np.ndarray) -> int | None:
    """The branch that every node provably keeps over the next sample interval, or None.

    On branch i, over one interval, mode k is multiplied by exp(exponents[i, k])
    and moves monotonically, so no node drifts by more than sum_k |a_k| |e^{r_k dt} - 1|.
    """
    vals = basis @ state
    lo, hi = vals.min(), vals.max()
    i = params.branch_holding(lo, hi)
    if i is None:
        return None
    factors = mode_exponential(exponents[i], state != 0, "relaxation step")
    drift = np.abs(state) @ np.abs(factors - 1.0)
    return i if params.branch_holding(lo - drift, hi + drift) == i else None


class _FrozenPattern:
    """The exact flow of the modes while node j keeps the branch ``pattern[j]``: mode 0
    stays put (mu_0 = 0), modes 1..K obey u' = -P S u + e with P = diag(mu r d) > 0
    and S = B1^T W diag(m) B1 symmetric (node slopes m), so ``eigh`` of P^1/2 S P^1/2
    gives real rates lam, and from an anchor node j moves by sum_k c_jk F_k(t), with
    F_k(t) = (1 - e^{-lam_k t})/lam_k growing in t."""

    def __init__(self, pattern, mean, params: PhaseParams, basis, analysis, rate, dt):
        self.pattern, self.args = pattern, (mean, params, basis, analysis, rate, dt)
        table, root, slope = params.branches, np.sqrt(rate[1:]), params.branches.slope[pattern]
        self.lam, vecs = np.linalg.eigh(
            root[:, None] * (analysis[1:] @ (slope[:, None] * basis[:, 1:])) * root)
        mode_exponential(-self.lam * dt, np.ones(self.lam.size, bool), "relaxation step")
        self.to_modes, self.from_modes = root[:, None] * vecs, vecs.T / root
        self.basis, self.nodes = basis, basis[:, 1:] @ self.to_modes
        self.forcing = self.from_modes @ (
            -rate[1:] * (analysis[1:] @ (slope * mean + table.intercept[pattern])))
        self.lo, self.hi = np.array(table.closed)[pattern].T[:, :, None]
        self.tol = _CROSSING_TOL * max(1.0, abs(params.b), abs(params.c))

    def _F(self, taus) -> np.ndarray:
        taus, lam = np.asarray(taus, dtype=float), self.lam[:, None]
        return np.divide(-np.expm1(-lam * taus), lam, out=taus + 0.0 * lam, where=lam != 0)

    def _past(self, nodes, rates, taus, tol: float, rows=slice(None)):
        vals = nodes[rows, None] + self.nodes[rows] @ (rates[:, None] * self._F(taus))
        return (vals < self.lo[rows] - tol) | (vals > self.hi[rows] + tol), vals

    def _certified(self, nodes, rates, taus) -> np.ndarray:
        """Per step tau, whether every node provably keeps its branch over [0, tau]: node j
        falls by at most sum_k max(0, -c_jk) F_k(tau), and by at most max(0, R_j(tau) -
        tau v_j) with v_j = sum_k c_jk and the convex R_j(t) = sum_k |c_jk| |F_k(t) - t|,
        which certifies a node that just crossed; it rises likewise."""
        c, F = self.nodes * rates, self._F(taus)
        rise, fall = np.maximum(c, 0.0), np.maximum(-c, 0.0)
        bend, slope = (rise + fall) @ np.abs(F - taus), c.sum(axis=1)[:, None] * taus
        low = nodes[:, None] - np.minimum(fall @ F, np.maximum(0.0, bend - slope))
        high = nodes[:, None] + np.minimum(rise @ F, np.maximum(0.0, bend + slope))
        return np.all((low >= self.lo - self.tol) & (high <= self.hi + self.tol), axis=0)

    def step(self, state: np.ndarray, left: float):
        """Advance ``state`` exactly by ``left``; returns it and the pattern it ends in:
        of the steps 1, 1/2, ..., 2^-24, 0 of what is left (0 is certified for a finite
        state) the longest certified one is taken, unless the next longer one has nodes
        past their breakpoints; then their first crossing is located to round-off, 16
        sections a round, and the nodes past there flip, each to the branch it entered."""
        flow = self
        while left > 0.0:
            nodes = flow.basis @ state
            rates = flow.forcing - flow.lam * (flow.from_modes @ state[1:])
            ok = flow._certified(nodes, rates, taus := left * np.r_[2.0 ** -np.arange(25), 0.0])
            k = int(np.argmax(ok))
            lo, hi = taus[k], taus[max(k - 1, 0)]
            rows = np.flatnonzero(flow._past(nodes, rates, [hi], flow.tol)[0])
            hi = hi if len(rows) else lo or hi  # no crossing yet, or too short to certify
            while len(rows) and hi - lo > 1e-15 * left:
                ts = np.linspace(lo, hi, 17)[1:]
                i = int(np.argmax(flow._past(nodes, rates, ts, flow.tol, rows)[0].any(0)))
                lo, hi = np.r_[lo, ts][i], ts[i]
            state = state + np.r_[0.0, flow.to_modes @ (rates * flow._F([hi])[:, 0])]
            if len(rows):  # flip at tol 0, so that partners a round-off behind flip too
                crossed, vals = flow._past(nodes, rates, [hi], 0.0)
                pattern = np.where(crossed, flow.args[1].branch_index(vals), flow.pattern[:, None])
                flow = _FrozenPattern(pattern[:, 0], *flow.args)
            left -= hi
        return state, flow


def solve_pseudoparabolic(u0, eps: float, params: PhaseParams, grid: Grid) -> EpsSolution:
    """Integrate u_t = v_xx with (I - eps d_xx) v = phi(u), zero-flux sides.

    The elliptic solve is diagonal in mode space (v_k = [phi(u)]_k/(1 + eps mu_k))
    and phi is affine per branch, so each sample interval is advanced exactly: by
    the per-mode exponential from the first sample of its run when the nodes keep
    one branch (``_certified_branch``), which keeps zero modes zero, else under a
    node-branch pattern carried from crossing to crossing (``_FrozenPattern``).
    """
    if eps <= 0:
        raise ConfigurationError("eps must be positive")
    u_hat = _profile_to_series(u0, grid, "initial state").as_float()

    mu = grid.mu()
    resolvent = 1.0 / (1.0 + eps * mu)
    # a row-major (n_x, K+1) copy: synthesis is one dot product per sample
    basis = np.ascontiguousarray(cosine_basis(grid.n_modes, grid.L, grid.x).T)
    analysis = analysis_matrix(grid.n_modes, grid.L, grid.n_x)

    # row i: exponent of each mode over one sample interval on branch i
    exponents = -np.outer(params.branches.slope, mu * resolvent) * grid.dt
    u_modes, state = np.repeat(u_hat[:, None], grid.n_t, axis=1), u_hat
    start, run, flow = 0, None, None  # single-branch run: first sample, branch; else pattern
    for j in range(1, grid.n_t):
        i = _certified_branch(state, params, basis, exponents)
        if i is None:
            flow = flow or _FrozenPattern(params.branch_index(basis @ state), state[0], params,
                                          basis, analysis, mu * resolvent, grid.dt)
            run, (state, flow) = None, flow.step(state, grid.dt)
        else:
            start, run = (j - 1, i) if i != run else (start, run)
            # the closed form from the run's first sample: rounding does not compound
            state, flow = u_modes[:, start] * mode_exponential(
                (j - start) * exponents[i], u_modes[:, start] != 0, "relaxation step"), None
        u_modes[:, j] = state

    v_modes = np.stack([resolvent * _flux_modes(u, params, basis, analysis)
                        for u in u_modes.T], axis=1)
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
