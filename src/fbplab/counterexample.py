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
flux between the critical values) into the largest grid time where all hold,
and names the condition that ends it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConfigurationError, DomainViolationError,
                     GridMismatchError, NearSingularError)
from .phase_model import (PhaseParams, beta0_extended, beta2_extended,
                          branch_gap_extended)
from .solvers import SourcedSolution, solve_sourced, solve_unstable_backward
from .spectral import CosineSeries, Field2D, Grid, constant_field

GAP_FLOOR = 1e-9          # below this the weight formula is declared singular
BUILD_GAP_FLOOR = 1e-6    # construction truncates before the gap collapses
RATE_TOL = 1e-8           # certification admits a weight rate down to -RATE_TOL
DELTA = 0.05              # the certification margin c2 when none is configured


@dataclass(frozen=True)
class SolutionTriple:
    """State u, flux v and stable-phase weight lambda of one candidate solution.

    The embedded three-phase weights are (1 - lam, 0, lam); ``t_bar`` is the
    certified horizon, ``binding`` the margin condition that ends it ("" when it
    is the whole window) and ``lam_t`` the analytic time derivative of the
    weight.  All four fields live on one grid.  ``source`` is the read-only
    (n_x,) profile f(x) that drives v (zeros for a weight-zero triple): the
    excess rate m = v_xx + |sigma| v_t equals it exactly, mode by mode.
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
        source = np.array(self.source, dtype=float)
        if source.shape != (self.grid.n_x,):
            raise GridMismatchError(
                f"source profile: expected {self.grid.n_x} samples, got shape {source.shape}")
        source.flags.writeable = False
        object.__setattr__(self, "source", source)

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def restricted(self) -> "SolutionTriple":
        """The triple truncated to its certified horizon."""
        n_keep = int(round(self.t_bar / self.grid.dt)) + 1
        n_keep = max(2, min(n_keep, self.grid.n_t))
        return replace(self, u=self.u.restrict(n_keep), v=self.v.restrict(n_keep),
                       lam=self.lam.restrict(n_keep), lam_t=self.lam_t.restrict(n_keep))


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


def _prefix_scan(conds: dict[str, np.ndarray]) -> tuple[int, str]:
    """The last sample j such that every (n_x, n_t) mask holds on samples 1..j
    (sample 0 is not scanned), and the names of the masks that fail at j + 1."""
    held = {name: mask.all(axis=0) for name, mask in conds.items()}
    ok = np.logical_and.reduce(list(held.values()))
    j = int(np.logical_and.accumulate(ok[1:]).sum())
    if j + 1 == ok.size:
        return j, ""
    return j, "; ".join(name for name, per_t in held.items() if not per_t[j + 1])


def certify_horizon(triple: SolutionTriple, params: PhaseParams,
                    delta: float) -> tuple[float, str]:
    """Largest grid time through which all margin conditions hold, and the
    condition or conditions that end it ("" when the whole window holds).

    Conditions on the prefix rectangle: (i) gap(v) >= delta, (ii) m >= delta,
    (iii) lambda in [0, 1-delta], (iv) lambda_t >= -RATE_TOL, (v) A + delta < v <= B
    (a sample where v touches A + delta exactly is excluded).  Condition (ii)
    reads the triple's source profile, since m = f holds exactly per mode; it
    certifies growth of the weight and is waived exactly when lambda = 0 on the
    whole window: a classical weight-zero solution, whose monotonicity clause
    holds identically.  The horizon is 0.0 when no positive time qualifies.
    """
    if delta <= 0:
        raise ConfigurationError("certification margin delta must be positive")
    v = triple.v.values
    lam = triple.lam.values
    rate_ok = np.broadcast_to((triple.source[:, None] >= delta) | (not lam.any()), v.shape)
    j, binding = _prefix_scan({
        "branch gap >= delta": branch_gap_extended(params, v) >= delta,
        "excess rate m >= delta": rate_ok,
        "weight in [0, 1-delta]": (lam >= 0.0) & (lam <= 1.0 - delta),
        "weight nondecreasing": triple.lam_t.values >= -RATE_TOL,
        "flux in (A+delta, B]": (v > params.A + delta) & (v <= params.B),
    })
    return float(triple.grid.t[j]), binding


def _build_window(sol: SourcedSolution, params: PhaseParams) -> int:
    """Largest prefix (in samples) on which the weight formula stays usable.

    Keeps v > A with gap above the build floor and the weight at most 1; the
    certified horizon is always strictly inside this window.
    """
    v = sol.v.values
    gap = branch_gap_extended(params, v)
    lam = sol.grid.t[None, :] * sol.source_values()[:, None] / np.where(gap > 0, gap, np.inf)
    j, _ = _prefix_scan({"flux above A": v > params.A,
                         "branch gap >= build floor": gap >= BUILD_GAP_FLOOR,
                         "weight at most 1": lam <= 1.0})
    return j + 1


def construct_family(g_final, sources: list[CosineSeries], params: PhaseParams,
                     grid: Grid, delta: float = DELTA) -> list[SolutionTriple]:
    """Baseline plus one sourced triple per source, all sharing u(.,0).

    Sources must synthesize to values >= delta (the certification margin c2);
    a violating source aborts the construction naming its index.  Each sourced
    triple is built on the largest usable prefix of the grid and carries its
    own certified horizon.
    """
    back = solve_unstable_backward(g_final, params, grid)
    zero = constant_field(grid, 0.0, "stable-phase weight")
    baseline = SolutionTriple(back.u_bar, back.v_bar, zero, 0.0, "baseline",
                              lam_t=constant_field(grid, 0.0, "stable-phase weight rate"),
                              source=np.zeros(grid.n_x))
    t_bar, binding = certify_horizon(baseline, params, delta)
    triples = [replace(baseline, t_bar=t_bar, binding=binding)]

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
        triple = SolutionTriple(u, sol.v, lam, 0.0, f"sourced(f=[{coeffs}])", lam_t=lam_t,
                                source=fx)
        t_bar, binding = certify_horizon(triple, params, delta)
        triples.append(replace(triple, t_bar=t_bar, binding=binding))
    return triples
