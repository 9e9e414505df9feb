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

from dataclasses import replace

import numpy as np

from .errors import ConfigurationError, DomainViolationError, NearSingularError
from .phase_model import (PhaseParams, beta0_extended, beta2_extended,
                          branch_gap_extended)
from .solvers import SourcedSolution, solve_sourced, solve_unstable_backward
from .spectral import CosineSeries, Field2D, Grid, constant_field, synthesize_columns
from .verifier import SolutionTriple

GAP_FLOOR = 1e-9          # below this the weight formula is declared singular
BUILD_GAP_FLOOR = 1e-6    # construction truncates before the gap collapses
RATE_TOL = 1e-8           # certification admits a weight rate down to -RATE_TOL
DELTA = 0.05              # the certification margin c2 when none is configured


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
    grid, fx = sol.grid, sol.source[:, None]
    numer = grid.t[None, :] * fx
    gap_t = params.gap_slope * synthesize_columns(sol.vt_modes, grid.L, grid.x)
    lam, lam_t = numer / gap, fx / gap - gap_t * numer / gap**2
    lam.flags.writeable = lam_t.flags.writeable = False
    return (Field2D(grid, lam, "stable-phase weight"),
            Field2D(grid, lam_t, "stable-phase weight rate"))


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
    u.flags.writeable = False
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
    if not (np.isfinite(delta) and delta > 0):
        raise ConfigurationError("certification margin delta must be finite and positive")
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


def _certified(triple: SolutionTriple, params: PhaseParams, delta: float) -> SolutionTriple:
    """The triple certified and cut to its first round(t_bar/dt) + 1 samples, at least
    two; a margin that ends the horizon replaces the binding it was built with."""
    t_bar, binding = certify_horizon(triple, params, delta)
    n_keep = max(2, int(round(t_bar / triple.grid.dt)) + 1)
    return replace(triple, t_bar=t_bar, binding=binding or triple.binding,
                   **{name: getattr(triple, name).restrict(n_keep)
                      for name in ("u", "v", "lam", "lam_t")})


def _build_window(sol: SourcedSolution, params: PhaseParams) -> tuple[int, str]:
    """Largest prefix (in samples) on which the weight formula stays usable, and
    the condition or conditions that end it ("" when it is the whole grid).

    Keeps v > A, the gap at least the build floor (> 0) and the weight t f / gap
    at most 1, tested as t f <= gap; the certified horizon never passes this window.
    """
    v = sol.v.values
    gap = branch_gap_extended(params, v)
    tf = sol.grid.t[None, :] * sol.source[:, None]
    j, binding = _prefix_scan({"flux above A": v > params.A,
                               "branch gap >= build floor": gap >= BUILD_GAP_FLOOR,
                               "weight at most 1": tf <= gap})
    return j + 1, binding


def sourced_triple(idx: int, f: CosineSeries, v0: np.ndarray, params: PhaseParams,
                   grid: Grid, delta: float) -> SolutionTriple:
    """The certified triple of source ``idx`` from the flux datum ``v0``, built on its
    construction window, whose end binds the horizon where no margin does."""
    sol = solve_sourced(f, v0, params.sigma_abs, grid)
    if np.min(sol.source) < delta:
        raise DomainViolationError(
            f"source {idx} dips to {np.min(sol.source):.4g}, below the positivity "
            f"margin c2 = {delta:g}")
    n_build, window_end = _build_window(sol, params)
    sol = replace(sol, v=sol.v.restrict(n_build), v_modes=sol.v_modes[:, :n_build],
                  vt_modes=sol.vt_modes[:, :n_build])
    lam, lam_t = build_lambda(sol, params)
    coeffs = ", ".join(format(c, "g") for c in f.coeffs)
    return _certified(SolutionTriple(assemble_state(sol.v, lam, params), sol.v, lam, 0.0,
                                     f"sourced(f=[{coeffs}])", lam_t=lam_t,
                                     source=sol.source, binding=window_end), params, delta)


def construct_family(g_final: CosineSeries, sources: list[CosineSeries], params: PhaseParams,
                     grid: Grid, delta: float = DELTA) -> list[SolutionTriple]:
    """Baseline plus one sourced triple per source, all sharing u(.,0), from the final
    datum ``g_final``, a cosine series (``solve_unstable_backward`` refuses samples).

    Sources must synthesize to values >= delta (the certification margin c2);
    a violating source aborts the construction naming its index.  Each sourced
    triple is built on the largest usable prefix of the grid.  Each triple is cut to
    its certified window [0, t_bar], its first round(t_bar/dt) + 1 samples (at least
    two), before the next is built, so the family holds no sample past any t_bar.
    """
    back = solve_unstable_backward(g_final, params, grid)
    zero = constant_field(grid, 0.0, "stable-phase weight")
    baseline = SolutionTriple(back.u_bar, back.v_bar, zero, 0.0, "baseline",
                              lam_t=constant_field(grid, 0.0, "stable-phase weight rate"),
                              source=np.zeros(grid.n_x))
    v0 = back.v_bar.values[:, 0]
    return [_certified(baseline, params, delta)] + [
        sourced_triple(idx, f, v0, params, grid, delta) for idx, f in enumerate(sources)]
