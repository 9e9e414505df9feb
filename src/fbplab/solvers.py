"""The three PDE solves behind the multi-solution construction.

* ``solve_unstable_backward``: the well-posed final-time problem for data in
  the decreasing branch, advanced by exact mode propagation after time
  reversal (the branch is affine, so the equation is linear and the kernel
  exact).
* ``solve_sourced`` / ``inverse_source_from_endpoints``: the sourced problem
  ``|sigma| v_t + v_xx = f(x)`` solved exactly per mode, and the closed-form
  recovery of a time-independent source from initial and final profiles.
  Because modes grow like exp(mu_k t / |sigma|), the endpoint/source relation
  is exponentially ill-conditioned in its source form; the inverse therefore
  returns, beside f, the start s_k = (b_k - a_k)/expm1(mu_k T/|sigma|) of each
  mode, which no sum cancels in, and the forward solve grows that start.
* ``solve_pseudoparabolic``: the relaxation system u_t = v_xx, (I - eps d_xx) v =
  phi(u), advanced exactly in mode space and split at located branch crossings;
  v is the projection of phi(u_eps) at every sample, divided by 1 + eps mu_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DomainViolationError
from .phase_model import PhaseParams, eval_phi
from .spectral import (OVERFLOW_EXPONENT, CosineSeries, Field2D, Grid, analysis_matrix,
                       analyze_columns, cosine_basis, cosine_eigenvalues, field_from_modes,
                       mode_exponential)
from .verifier import EpsSolution

#: sample residual of a band-limited profile, relative to the profile
_BAND_LIMIT_TOL = 1e-8
#: how far past its breakpoint, relative to max(1, |b|, |c|), a node has crossed
_CROSSING_TOL = 1e-13
#: the sub-steps a frozen pattern tries, as fractions of what is left of its interval
_SUB_STEPS = np.r_[2.0 ** -np.arange(25), 0.0]
#: the points 1..16 of a round that locates a crossing, in sixteenths of its bracket
_SECTIONS = np.arange(1.0, 17.0)


def _profile_to_series(profile, grid: Grid, what: str) -> CosineSeries:
    """Coerce a spatial profile to grid-sized coefficients: a series is padded, and
    (n_x,) samples are analysed once and must be band-limited on the grid."""
    if isinstance(profile, CosineSeries):
        if abs(profile.L - grid.L) > 1e-12 * grid.L:
            raise ConfigurationError(f"{what}: series length does not match the grid")
        if profile.n_modes > grid.n_modes:
            raise ConfigurationError(f"{what}: more modes than the grid resolves")
        return profile.padded(grid.n_modes)
    vals = np.asarray(profile, dtype=float)
    if vals.shape != (grid.n_x,):
        raise ConfigurationError(f"{what}: expected {grid.n_x} samples, got {vals.shape}")
    coeffs = analyze_columns(vals[:, None], grid.L, grid.n_modes)[:, 0]
    # coefficients at analysis round-off are indistinguishable from zero and
    # must not be fed to the growth factors
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


def solve_unstable_backward(g, params: PhaseParams, grid: Grid) -> BackwardBranchSolution:
    """Solve u_t = phi0' u_xx with zero-flux sides and the final datum g, a cosine
    series on the grid's interval with at most its modes; samples are refused.

    With data in the decreasing branch this is well posed: after time reversal
    it is the ordinary heat flow with diffusivity |phi0'|, applied to g for the
    remaining time.  Modes of g are damped by exp(-|phi0'| mu_k (T - t)), so
    the solution obeys the maximum principle and stays inside the range of g.
    """
    if not isinstance(g, CosineSeries):
        raise ConfigurationError("final datum must be a CosineSeries")
    if np.any(params.branch_index(g.synthesize(grid.x))):
        raise DomainViolationError(
            "final datum must take values strictly inside the decreasing branch (b, c)")
    series = _profile_to_series(g, grid, "final datum")

    # u_k(t) = g_k exp(-|phi0'| mu_k (T - t)): exact, decaying toward t = 0
    decay = mode_exponential(-abs(params.phi0_slope) * np.outer(grid.mu(), grid.T_end - grid.t),
                             series.active, "backward solve")
    u_modes = series.coeffs[:, None] * decay
    u_field = field_from_modes(grid, u_modes, "backward-branch state")
    v_bar = eval_phi(params, u_field.values)
    v_bar.flags.writeable = False
    v_field = Field2D(grid, v_bar, "backward-branch flux")
    return BackwardBranchSolution(u_field, v_field, u_field.values[:, 0].copy())


# ---------------------------------------------------------------------------
# sourced problem |sigma| v_t + v_xx = f(x)


@dataclass(frozen=True)
class SourcedSolution:
    """Exact mode solution of the sourced flow, with analytic time derivative;
    ``source`` is the read-only profile f on the grid's nodes, synthesized once
    from the padded series, which the solve does not keep."""

    v: Field2D
    v_modes: np.ndarray
    vt_modes: np.ndarray
    source: np.ndarray

    @property
    def grid(self) -> Grid:
        return self.v.grid


@dataclass(frozen=True)
class InverseSource(CosineSeries):
    """A source from ``inverse_source_from_endpoints`` with the float64 start s_k of
    each mode k >= 1 (s_0 = 0): from the profile a it drives mode k as
    a_k + s_k expm1(mu_k t/|sigma|)."""

    start: np.ndarray


def solve_sourced(f: CosineSeries, v0, sigma_abs: float, grid: Grid) -> SourcedSolution:
    """Exact per-mode solution of |sigma| v_t + v_xx = f(x) from the profile v0.

    Mode k >= 1 evolves as v_k(t) = start_k e^{mu_k t/|sigma|} - f_k/mu_k and mode 0
    as v_0(0) + f_0 t / |sigma|, all in float64.  The start is v_k(0) + f_k/mu_k, or,
    for an ``InverseSource`` that drives v0 = a to b in time T, its own
    s_k = (b_k - a_k)/expm1(mu_k T/|sigma|): the sum would cancel to that, and the
    growth factor would amplify its rounding.  Both terms then stay
    O(|a| + |b|) for t <= T and lose only ulps.  An ``InverseSource`` refuses
    any other v0.
    """
    if sigma_abs <= 0:
        raise ConfigurationError("sigma_abs must be positive")
    fs = _profile_to_series(f, grid, "source")
    a = _profile_to_series(v0, grid, "initial flux profile")

    mu = grid.mu()
    active = a.active | fs.active
    expo = np.outer(mu, grid.t) / sigma_abs
    growth = mode_exponential(expo, active, "sourced solve")

    F = np.divide(fs.coeffs, mu, out=np.zeros_like(fs.coeffs), where=mu > 0)
    start = a.coeffs + F
    if isinstance(f, InverseSource):
        # s_k holds from the profile f was formed from, the one where the sum
        # a_k + f_k/mu_k cancels to s_k up to its own rounding
        s = np.pad(f.start, (0, len(start) - len(f.start)))
        if np.any((np.abs(s - start) > 1e-12 * (np.abs(a.coeffs) + np.abs(F)))[1:]):
            raise ConfigurationError("an InverseSource drives only the profile it was formed from")
        start[1:] = s[1:]
    v_modes = start[:, None] * growth - F[:, None]
    v_modes[0] = a.coeffs[0] + fs.coeffs[0] * grid.t / sigma_abs

    # |sigma| v_t = f + mu v element-wise: computing vt from the rounded modes
    # keeps the identity v_xx + |sigma| v_t = f exact at the sample level
    vt_modes = (fs.coeffs[:, None] + mu[:, None] * v_modes) / sigma_abs
    source = fs.synthesize(grid.x)
    source.flags.writeable = False
    return SourcedSolution(field_from_modes(grid, v_modes, "sourced flux"), v_modes, vt_modes,
                           source)


def inverse_source_from_endpoints(a: CosineSeries, b_series: CosineSeries,
                                  T_end: float, sigma_abs: float) -> InverseSource:
    """Recover the time-independent source driving profile a to profile b in time T.

    Closed forms per mode: f_0 = (b_0 - a_0) |sigma| / T and, for k >= 1 with
    z_k = mu_k T/|sigma|, the start s_k = (b_k - a_k)/expm1(z_k) and

        f_k = mu_k (s_k - a_k),

    all in float64: no sum cancels, so f_k and s_k are accurate to ulps however
    large e^{z_k} is.  ``solve_sourced`` grows s_k itself, since its own start
    a_k + f_k/mu_k would cancel to s_k and lose it to rounding.
    """
    if T_end <= 0 or sigma_abs <= 0:
        raise ConfigurationError("T_end and sigma_abs must be positive")
    if abs(a.L - b_series.L) > 1e-12 * a.L:
        raise ConfigurationError("endpoint profiles live on different intervals")
    if len(a.coeffs) != len(b_series.coeffs):
        raise ConfigurationError("endpoint profiles must carry the same mode count")
    mu = cosine_eigenvalues(len(a.coeffs) - 1, a.L)
    active, expo = a.active | b_series.active, mu * T_end / sigma_abs
    mode_exponential(expo, active, "inverse source")  # the guard; expm1 forms E_k - 1
    moving, rise = active & (mu > 0), b_series.coeffs - a.coeffs
    start = np.divide(rise, np.expm1(np.where(moving, expo, 0.0)), out=np.zeros_like(rise),
                      where=moving)
    start.flags.writeable = False
    f = mu * (start - a.coeffs)
    f[0] = rise[0] * sigma_abs / T_end
    return InverseSource(a.L, f, start)


# ---------------------------------------------------------------------------
# pseudoparabolic relaxation


def _certified_branch(states: np.ndarray, params: PhaseParams, basis: np.ndarray,
                      exponents: np.ndarray):
    """The branch that holds the first column of ``states`` (-1 if none does) and, per
    column, whether every node provably keeps it over the next sample interval.  A
    window's first column is certified to keep its run's branch; another holds it only
    if it is constant on a breakpoint, where every branch gives mode 0 the factor 1.

    On branch i, over one interval, mode k is multiplied by exp(exponents[i, k])
    and moves monotonically, so no node drifts by more than sum_k |a_k| |e^{r_k dt} - 1|.
    The columns are one closed-form run: they share the nonzero modes of the first.
    """
    vals = basis @ states
    lo, hi = vals.min(axis=0), vals.max(axis=0)
    i = int(params.branch_holding(lo[0], hi[0]))
    if i < 0:
        return i, np.zeros(states.shape[1], dtype=bool)
    factors = mode_exponential(exponents[i], states[:, 0] != 0, "relaxation step")
    drift = np.abs(factors - 1.0) @ np.abs(states)
    return i, params.branch_holding(lo - drift, hi + drift) == i


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
        lam = self.lam[:, None]
        return np.divide(-np.expm1(-lam * taus), lam, out=taus + 0.0 * lam, where=lam != 0)

    def _past(self, nodes, rates, F, tol: float, rows=slice(None)):
        vals = nodes[rows, None] + self.nodes[rows] @ (rates[:, None] * F)
        return (vals < self.lo[rows] - tol) | (vals > self.hi[rows] + tol), vals

    def _certified(self, nodes, rates, taus, F) -> np.ndarray:
        """Per step tau, with F its column of ``_F``, whether every node provably keeps its
        branch over [0, tau]: node j falls by at most sum_k max(0, -c_jk) F_k(tau), and by
        at most max(0, R_j(tau) - tau v_j) with v_j = sum_k c_jk and the convex R_j(t) =
        sum_k |c_jk| |F_k(t) - t|, which certifies a node that just crossed; it rises likewise."""
        c = self.nodes * rates
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
        sections a round, and the nodes past there flip, each to the branch it entered.
        Each anchor and each round forms ``_F`` once; the step taken reads its column."""
        flow = self
        while left > 0.0:
            nodes = flow.basis @ state
            rates = flow.forcing - flow.lam * (flow.from_modes @ state[1:])
            F = flow._F(taus := left * _SUB_STEPS)
            k = int(np.argmax(flow._certified(nodes, rates, taus, F)))
            rows = np.flatnonzero(flow._past(nodes, rates, F[:, [max(k - 1, 0)]], flow.tol)[0])
            up = max(k - 1, 0) if len(rows) or not taus[k] else k  # no crossing: step k, if not 0
            lo, hi, F = taus[k], taus[up], F[:, [up]]
            while len(rows) and hi - lo > 1e-15 * left:
                ts = _SECTIONS * ((hi - lo) / 16) + lo  # np.linspace(lo, hi, 17)[1:]
                ts[-1] = hi
                Fs = flow._F(ts)
                i = int(np.argmax(flow._past(nodes, rates, Fs, flow.tol, rows)[0].any(0)))
                lo, hi, F = ts[i - 1] if i else lo, ts[i], Fs[:, [i]]
            state = state + np.r_[0.0, flow.to_modes @ (rates * F[:, 0])]
            if len(rows):  # flip at tol 0, so that partners a round-off behind flip too
                crossed, vals = flow._past(nodes, rates, F, 0.0)
                pattern = np.where(crossed, flow.args[1].branch_index(vals), flow.pattern[:, None])
                flow = _FrozenPattern(pattern[:, 0], *flow.args)
            left -= hi
        return state, flow


def solve_pseudoparabolic(u0, eps: float, params: PhaseParams, grid: Grid) -> EpsSolution:
    """Integrate u_t = v_xx with (I - eps d_xx) v = phi(u), zero-flux sides.

    The elliptic solve is diagonal in mode space (v_k = [phi(u)]_k/(1 + eps mu_k))
    and phi is affine per branch, so each sample interval is advanced exactly.  While
    the nodes provably keep one branch (``_certified_branch``), a run of samples takes
    the per-mode exponential from its first sample, which keeps zero modes zero; the
    run is formed and certified a window of 8, 16, 32, ... samples at a time, and
    ends at its first sample that is not certified.  Any other interval is stepped
    under a node-branch pattern carried from crossing to crossing (``_FrozenPattern``).
    The flux is not stepped: once u is known, v is phi(u) projected at every sample.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ConfigurationError("eps must be finite and positive")
    u_hat = _profile_to_series(u0, grid, "initial state").coeffs

    mu = grid.mu()
    resolvent = 1.0 / (1.0 + eps * mu)
    # a row-major (n_x, K+1) copy: synthesis is one dot product per sample
    basis = np.ascontiguousarray(cosine_basis(grid.n_modes, grid.L, grid.x).T)
    analysis = analysis_matrix(grid.n_modes, grid.L, grid.n_x)

    # row i: exponent of each mode over one sample interval on branch i
    exponents = -np.outer(params.branches.slope, mu * resolvent) * grid.dt
    u_modes, state = np.repeat(u_hat[:, None], grid.n_t, axis=1), u_hat
    # a run: the samples from ``start`` on, each certified to keep the branch ``run``
    # over its next interval (-1: none); ``held`` is whether sample j - 1 is one of them
    j, start, run, held, flow = 1, 0, -1, False, None
    while j < grid.n_t:
        if not held:
            i, (held,) = _certified_branch(state[:, None], params, basis, exponents)
            if not held:
                flow = flow or _FrozenPattern(params.branch_index(basis @ state), state[0],
                                              params, basis, analysis, mu * resolvent, grid.dt)
                run, (state, flow) = -1, flow.step(state, grid.dt)
                u_modes[:, j], j = state, j + 1
                continue
            if i != run:
                start, run, width = j - 1, i, 8
            flow = None
        # a window of samples j, j+1, ... by the closed form from the run's first sample,
        # so that rounding does not compound; it ends before the first sample whose
        # exponential overflows, unless that is sample j, which then raises
        active = u_modes[:, start] != 0
        expo = np.outer(exponents[run], np.arange(j, min(j + width, grid.n_t)) - start)
        over = np.flatnonzero(np.any(expo[active] > OVERFLOW_EXPONENT, axis=0))
        expo = expo[:, :max(over[0], 1)] if over.size else expo
        window = u_modes[:, start, None] * mode_exponential(expo, active, "relaxation step")
        # each sample of the window that keeps the run's branch admits the next one
        _, keeps = _certified_branch(window, params, basis, exponents)
        n = keeps.size if keeps.all() else int(np.argmin(keeps)) + 1
        u_modes[:, j:j + n], state = window[:, :n], window[:, n - 1].copy()
        j, held, width = j + n, bool(keeps[n - 1]), 2 * width

    u_field = field_from_modes(grid, u_modes, f"relaxed state eps={eps:g}")
    v_modes = resolvent[:, None] * (analysis @ eval_phi(params, u_field.values))
    v_field = field_from_modes(grid, v_modes, f"relaxed flux eps={eps:g}")
    return EpsSolution(float(eps), u_field, v_field, u_modes, v_modes)


def write_solver_metadata(path, label: str, equation: str, params: dict) -> None:
    """Sidecar provenance for a dumped field: which flow produced it, with what constants."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"field: {label}", f"equation: {equation}"]
    lines += [f"{key}: {value}" for key, value in params.items()]
    p.write_text("\n".join(lines) + "\n")
