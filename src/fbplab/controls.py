"""Negative controls: every bounded row of the battery and of the relaxation
report must reject its manufactured violator.

The violators are built with the construction code (``counterexample``,
``solvers``) and judged by ``verifier``, which imports neither.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .counterexample import DELTA, assemble_state, sourced_triple
from .phase_model import PhaseParams, beta0_extended, eval_phi
from .solvers import solve_pseudoparabolic, solve_unstable_backward
from .spectral import CosineSeries, Field2D, Grid, constant_field
from .verifier import (EpsSolution, SolutionTriple, relaxation_report,
                       run_triple_battery)


def control_table(params: PhaseParams | None = None) -> list[tuple[str, tuple, object]]:
    """(control name, target rows, violator) for every row with a finite bound.

    A violator is a (triple, u0) pair, checked by ``run_triple_battery``, or a
    relaxed solution, checked by ``relaxation_report``.
    """
    params = params or PhaseParams.default()
    grid, b, c = Grid(np.pi, 1.0, 64, 97, 16), params.b, params.c
    # the datum centred in the decreasing branch (b, c), scaled to its width
    final = CosineSeries(np.pi, [(b + c) / 2, 0.05 * (c - b)])
    # the classical solution on the whole grid, with zero lambda, lambda_t and source
    back, zero = solve_unstable_backward(final, params, grid), constant_field(grid, 0.0)
    base = SolutionTriple(back.u_bar, back.v_bar, zero, grid.T_end, "control", lam_t=zero,
                          source=np.zeros(grid.n_x))
    u0, t = back.u0, grid.t[None, :]

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
    v_dip = base.v.values.copy()
    v_dip[:, grid.n_t // 2:] -= params.B - params.A
    v_ramp = (0.5 * grid.x / grid.L - 0.25)[:, None]
    # a non-conservative state (mass grows linearly)
    u_nc = u0[:, None] + 0.1 * t
    # a flux above the upper critical value with upper weight below one
    v_hi, lam_mid = field(params.B + 0.1), field(0.3)
    jump = replace(base, u=assemble_state(v_hi, lam_mid, params), v=v_hi, lam=lam_mid)
    # forward diffusion in the unstable branch: the baseline reversed in time
    reversed_base = replace(base, u=field(base.u.values[:, ::-1]),
                            v=field(base.v.values[:, ::-1]))
    # a certified sourced triple, violated at its middle sample, and a relaxed
    # solution in a stable branch
    sourced = sourced_triple(0, CosineSeries(np.pi, [1.0]), back.v_bar.values[:, 0], params,
                             grid, DELTA)
    lam_over, rate_under = sourced.lam.values.copy(), sourced.lam_t.values.copy()
    mid = (17, sourced.grid.n_t // 2)
    lam_over[mid], rate_under[mid] = 1.0 + 1e-3, -1e-3
    relaxed = solve_pseudoparabolic(c + 0.75 * (c - b) + 0.125 * (c - b) * np.cos(grid.x),
                                    0.05, params, grid)
    return [
        ("decreasing-weight", ("lambda2-monotone", "pointwise-certificate"),
         (decreasing, u0)),
        ("broken-superposition", ("superposition-identity",),
         (replace(base, u=field(base.u.values + 1e-3)), u0)),
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
         (replace(base, u=field(base.u.values + 1e-3 * t * np.cos(grid.x)[:, None])),
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
