"""Assembly of phase-superposition solutions sharing one initial datum.

Starting from the backward-branch solve (state ``ubar``, flux ``vbar``,
initial datum ``u0``), every strictly positive source f drives a sourced flux
field v with excess rate m := v_xx + |sigma| v_t = f.  Splitting the state
across the decreasing and upper branches with weight

    lambda(x,t) = (integral_0^t m ds) / (beta2(v) - beta0(v))
                = t f(x) / gap(v)            (time-independent f)

yields a candidate triple (u, v, lambda) with u = (1-lambda) beta0(v)
+ lambda beta2(v), which satisfies u_t = v_xx and u(.,0) = u0 by construction.
``certify_horizon`` turns the sufficient margin conditions (gap bounded below,
source bounded below, weight strictly inside [0,1), weight nondecreasing,
flux between the critical values) into the largest grid time where all hold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConfigurationError, DomainViolationError,
                     GridMismatchError, NearSingularError)
from .phase_model import (PhaseParams, beta0_extended, beta2_extended,
                          branch_gap_extended)
from .solvers import SourcedSolution, solve_sourced, solve_unstable_backward
from .spectral import (CosineSeries, Field2D, Grid, constant_field,
                       x_second_derivative)

GAP_FLOOR = 1e-9          # below this the weight formula is declared singular
BUILD_GAP_FLOOR = 1e-6    # construction truncates before the gap collapses
RATE_TOL = 1e-8           # certification admits a weight rate down to -RATE_TOL


@dataclass(frozen=True)
class SolutionTriple:
    """State u, flux v and stable-phase weight lambda of one candidate solution.

    The embedded three-phase weights are (1 - lam, 0, lam); ``t_bar`` is the
    certified horizon and ``lam_t`` the analytic time derivative of the weight.
    All four fields live on one grid.
    """

    u: Field2D
    v: Field2D
    lam: Field2D
    t_bar: float
    provenance: str
    lam_t: Field2D

    def __post_init__(self):
        if any(f.grid != self.u.grid for f in (self.v, self.lam, self.lam_t)):
            raise GridMismatchError("u, v, lambda and lambda_t must share one grid")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def restricted(self) -> "SolutionTriple":
        """The triple truncated to its certified horizon."""
        n_keep = int(round(self.t_bar / self.grid.dt)) + 1
        n_keep = max(2, min(n_keep, self.grid.n_t))
        return SolutionTriple(
            self.u.restrict(n_keep), self.v.restrict(n_keep), self.lam.restrict(n_keep),
            self.t_bar, self.provenance, self.lam_t.restrict(n_keep))


def build_lambda(sol: SourcedSolution, params: PhaseParams) -> tuple[Field2D, Field2D]:
    """Stable-phase weight of a sourced flux field and its analytic time rate.

    Requires v > A strictly; values above B use the affine continuation of the
    decreasing branch (the structural checks flag any region where that
    matters).  The time integral of m = f is t*f(x) exactly for the
    time-independent sources handled here, and lambda(.,0) = 0 exactly.  The
    rate comes from the mode representation of v:
    lambda_t = m/gap - gap_t * (t f) / gap^2 with gap_t = (1/alpha2 - sigma) v_t.
    """
    v = sol.v.values
    if np.min(v) <= params.A:
        raise DomainViolationError("flux field touches or crosses the lower critical value")
    gap = branch_gap_extended(params, v)
    if np.min(gap) < GAP_FLOOR:
        raise NearSingularError(
            f"branch gap {np.min(gap):.2e} below {GAP_FLOOR:g}; weight formula degenerates")
    fx = sol.source_values()
    numer = sol.grid.t[None, :] * fx[:, None]
    gap_t = params.gap_slope * sol.vt_field().values
    return (Field2D(sol.grid, numer / gap, "stable-phase weight"),
            Field2D(sol.grid, fx[:, None] / gap - gap_t * numer / gap**2,
                    "stable-phase weight rate"))


def assemble_state(v: Field2D, lam: Field2D, params: PhaseParams) -> Field2D:
    """u = (1 - lambda) beta0(v) + lambda beta2(v).

    On the certified region lambda lies in [0,1] and v in (A, B]; the affine
    continuation of beta0 extends the formula harmlessly wherever a long
    construction window runs past B.
    """
    if v.grid != lam.grid:
        raise ConfigurationError("state assembly needs v and lambda on one grid")
    lv = lam.values
    if np.min(lv) < -1e-12 or np.max(lv) > 1.0 + 1e-9:
        raise DomainViolationError("weight outside [0, 1]")
    if np.min(v.values) <= params.A:
        raise DomainViolationError("flux field touches or crosses the lower critical value")
    u = (1.0 - lv) * beta0_extended(params, v.values) \
        + lv * beta2_extended(params, v.values)
    return Field2D(v.grid, u, "assembled state")


def certify_horizon(triple: SolutionTriple, params: PhaseParams, delta: float,
                    require_source_margin: bool = True) -> float:
    """Largest grid time through which all margin conditions hold.

    Conditions on the prefix rectangle: (i) gap(v) >= delta, (ii) m >= delta,
    (iii) lambda in [0, 1-delta], (iv) lambda_t >= -RATE_TOL, (v) A + delta < v <= B
    (a sample where v touches A + delta exactly is excluded).  Condition (ii)
    certifies growth of the weight and is waived for classical weight-zero
    solutions (``require_source_margin=False``), whose monotonicity clause
    holds identically.  Returns 0.0 when no positive time qualifies.
    """
    t_bar, _ = certify_horizon_report(triple, params, delta,
                                      require_source_margin=require_source_margin)
    return t_bar


def certify_horizon_report(triple: SolutionTriple, params: PhaseParams, delta: float,
                           require_source_margin: bool = True):
    """As ``certify_horizon`` but also returns a per-condition diagnostic dict."""
    if delta <= 0:
        raise ConfigurationError("certification margin delta must be positive")
    grid = triple.grid
    v = triple.v.values
    lam = triple.lam.values
    gap = branch_gap_extended(params, v)
    lam_t = triple.lam_t.values
    rate_ok = np.ones_like(gap, dtype=bool)
    if require_source_margin:
        # excess rate m = v_xx + |sigma| v_t from the sampled flux alone
        v_t = np.gradient(v, grid.t, axis=1, edge_order=2)
        rate_ok = x_second_derivative(triple.v) + params.sigma_abs * v_t >= delta

    conds = {
        "branch gap >= delta": gap >= delta,
        "excess rate m >= delta": rate_ok,
        "weight in [0, 1-delta]": (lam >= 0.0) & (lam <= 1.0 - delta),
        "weight nondecreasing": lam_t >= -RATE_TOL,
        "flux in (A+delta, B]": (v > params.A + delta) & (v <= params.B),
    }
    ok = np.ones(grid.n_t, dtype=bool)
    for mask in conds.values():
        ok &= mask.all(axis=0)
    j = 0
    while j + 1 < grid.n_t and ok[j + 1]:
        j += 1
    diagnostics = {}
    if j == 0:
        for name, mask in conds.items():
            col = mask[:, 1] if grid.n_t > 1 else mask[:, 0]
            if not col.all():
                diagnostics[name] = "fails at the first positive time sample"
        if not ok[0]:
            diagnostics["initial sample"] = "conditions already fail at t = 0"
        return 0.0, diagnostics
    for name, mask in conds.items():
        per_t = mask.all(axis=0)
        if not per_t.all():
            first_bad = int(np.argmin(per_t))
            diagnostics[name] = f"first fails at t = {grid.t[first_bad]:.6g}"
    return float(grid.t[j]), diagnostics


def _build_window(sol: SourcedSolution, params: PhaseParams) -> int:
    """Largest prefix (in samples) on which the weight formula stays usable.

    Keeps v > A with gap above the build floor and the weight at most 1; the
    certified horizon is always strictly inside this window.
    """
    grid = sol.grid
    v = sol.v.values
    gap = branch_gap_extended(params, v)
    fx = sol.source_values()
    lam = grid.t[None, :] * fx[:, None] / np.where(gap > 0, gap, np.inf)
    ok = ((v > params.A) & (gap >= BUILD_GAP_FLOOR) & (lam <= 1.0)).all(axis=0)
    j = 0
    while j + 1 < grid.n_t and ok[j + 1]:
        j += 1
    return j + 1


def construct_family(g_final, sources: list[CosineSeries], params: PhaseParams,
                     grid: Grid, delta: float = 0.05) -> list[SolutionTriple]:
    """Baseline plus one sourced triple per source, all sharing u(.,0).

    Sources must synthesize to values >= delta (the certification margin c2);
    a violating source aborts the construction naming its index.  Each sourced
    triple is built on the largest usable prefix of the grid and carries its
    own certified horizon.
    """
    back = solve_unstable_backward(g_final, params, grid)
    zero = constant_field(grid, 0.0, "stable-phase weight")
    baseline = SolutionTriple(back.u_bar, back.v_bar, zero, 0.0, "baseline",
                              lam_t=constant_field(grid, 0.0, "stable-phase weight rate"))
    t_bar = certify_horizon(baseline, params, delta, require_source_margin=False)
    triples = [replace(baseline, t_bar=t_bar)]

    v0 = back.v_bar.values[:, 0]
    for idx, f in enumerate(sources):
        fx = f.synthesize(grid.x)
        if np.min(fx) < delta:
            raise DomainViolationError(
                f"source {idx} dips to {np.min(fx):.4g}, below the positivity margin "
                f"c2 = {delta:g}")
        sol = solve_sourced(f, v0, params.sigma_abs, grid)
        n_build = _build_window(sol, params)
        if n_build < grid.n_t:
            sol = replace(sol, v=sol.v.restrict(n_build), v_modes=sol.v_modes[:, :n_build],
                          vt_modes=sol.vt_modes[:, :n_build])
        lam, lam_t = build_lambda(sol, params)
        u = assemble_state(sol.v, lam, params)
        coeffs = ", ".join(format(c, "g") for c in f.as_float())
        triple = SolutionTriple(u, sol.v, lam, 0.0, f"sourced(f=[{coeffs}])", lam_t=lam_t)
        t_bar = certify_horizon(triple, params, delta)
        triples.append(replace(triple, t_bar=t_bar))
    return triples
