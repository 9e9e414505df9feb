"""Reference formulas that only the tests use as oracles.

The package never calls these: the construction and the verifier read the
affine continuations and the separable factors directly.  Each helper states
a definition in its textbook form, with the domain guard or the dense outer
product that the package leaves out, so the tests can hold the package's
fast paths to it.  The random phase diagrams that several test modules run
on are drawn here too, and a sourced triple is assembled past the certified
window that ``construct_family`` cuts it to.
"""

from dataclasses import replace

import numpy as np

from fbplab.counterexample import assemble_state, build_lambda
from fbplab.errors import ConfigurationError, DomainViolationError, InstabilityError
from fbplab.phase_model import (EntropyFlux, PhaseParams, beta0_extended, beta2_extended,
                                branch_gap_extended, certificate_integrand_extended, eval_phi)
from fbplab.solvers import solve_sourced
from fbplab.spectral import (CosineSeries, Field2D, analysis_matrix, cosine_basis,
                             cosine_eigenvalues, field_from_modes, mode_exponential)
from fbplab.verifier import SolutionTriple


# ---------------------------------------------------------------------------
# random diagrams and the identity flux as its own formula


def random_diagrams(n: int, seed: int = 1) -> list[PhaseParams]:
    """ROADMAP item 17's diagrams: b ~ U(-2, 1), c = b + U(0.2, 3), A ~ U(-2, 1),
    B = A + U(0.2, 3) and alpha1, alpha2 log-uniform in [1/4, 4], in that order."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        b = rng.uniform(-2.0, 1.0)
        c = b + rng.uniform(0.2, 3.0)
        A = rng.uniform(-2.0, 1.0)
        B = A + rng.uniform(0.2, 3.0)
        alpha1, alpha2 = np.exp(rng.uniform(np.log(0.25), np.log(4.0), 2))
        out.append(PhaseParams(b, c, A, B, alpha1, alpha2))
    return out


class IdentityFormulas:
    """g(v) = v written out, g' = 1 and the primitive v^2/2: the formulas that
    the unbounded clamp must reproduce bit for bit."""

    def value(self, v):
        return np.asarray(v, dtype=float)

    def derivative(self, v):
        return np.ones_like(np.asarray(v, dtype=float))

    def antiderivative(self, v):
        arr = np.asarray(v, dtype=float)
        return 0.5 * arr * arr


# ---------------------------------------------------------------------------
# branch inverses and the certificate on their domains


def _guard_domain(params: PhaseParams, v, what: str,
                 lower: bool = True, upper: bool = True) -> np.ndarray:
    """Finite ``v`` with A <= v (if ``lower``) and v <= B (if ``upper``), else raise."""
    arr = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainViolationError(f"{what} argument must be finite")
    if (lower and np.any(arr < params.A)) or (upper and np.any(arr > params.B)):
        rule = " <= ".join(["A"] * lower + ["v"] + ["B"] * upper)
        raise DomainViolationError(f"{what} requires {rule}")
    return arr


def eval_beta(params: PhaseParams, branch: int, v):
    """The inverse of one monotone branch of the flux.

    Branch 0 (decreasing) lives on A <= v <= B, branch 1 on v <= B and
    branch 2 on v >= A; closed endpoints are admitted by continuity.
    Values outside the branch domain raise ``DomainViolationError``.
    """
    if branch not in (0, 1, 2):
        raise DomainViolationError(f"branch must be 0, 1 or 2, got {branch!r}")
    arr = _guard_domain(params, v, f"branch {branch} inverse",
                       lower=branch != 1, upper=branch != 2)
    if branch == 1:
        out = (arr - params.gamma1) / params.alpha1
        return float(out) if np.ndim(v) == 0 else out
    return (beta0_extended if branch == 0 else beta2_extended)(params, arr)


def branch_gap(params: PhaseParams, v):
    """beta2(v) - beta0(v) on A <= v <= B."""
    return branch_gap_extended(params, _guard_domain(params, v, "branch gap"))


def certificate_integrand(params: PhaseParams, flux: EntropyFlux, v):
    """G(beta0(v)) - G(beta2(v)) + (beta2(v) - beta0(v)) * g(v) on A <= v <= B."""
    return certificate_integrand_extended(params, flux,
                                          _guard_domain(params, v, "certificate integrand"))


# ---------------------------------------------------------------------------
# exact per-mode flows


def propagate_heat(s: CosineSeries, kappa: float, dt: float) -> CosineSeries:
    """Exact per-mode solution of w_t = kappa * w_xx over a step dt >= 0.

    Negative ``kappa`` (backward flow) is allowed; growth is guarded by
    ``mode_exponential``, and decay of any size is not refused.
    """
    if dt < 0:
        raise ConfigurationError("propagation step must be nonnegative")
    expo = -kappa * cosine_eigenvalues(s.n_modes, s.L) * dt
    return CosineSeries(s.L, s.coeffs * mode_exponential(expo, s.active, "heat propagation"))


def _flux_modes(u_hat: np.ndarray, params: PhaseParams,
                basis: np.ndarray, analysis: np.ndarray) -> np.ndarray:
    """Cosine modes of phi(u) for mode-vector state u_hat, the right-hand side of
    the RK4 relaxation oracle: on one affine branch an exact affine image of the
    state modes, so inactive modes stay exactly zero and no round-off seeds the
    growing high modes; else phi at the nodes, projected."""
    vals = basis @ u_hat
    if not np.all(np.isfinite(vals)) or np.max(np.abs(vals)) > 1e100:
        raise InstabilityError("relaxation state overflowed")
    k = params.branch_holding(vals.min(), vals.max())
    if k < 0:
        return analysis @ eval_phi(params, vals)
    out = params.branches.slope[k] * u_hat
    out[0] += params.branches.intercept[k]
    return out


def sequential_relaxation_oracle(u0, eps: float, params: PhaseParams, grid) -> np.ndarray:
    """Mode history of the relaxation stepper that certifies and forms one sample
    at a time: each interval's start is certified alone, a certified one takes the
    closed form from its run's first sample and any other one a frozen-pattern step."""
    from fbplab.solvers import _certified_branch, _FrozenPattern, _profile_to_series

    mu = grid.mu()
    rate = mu * (1.0 / (1.0 + eps * mu))
    basis = np.ascontiguousarray(cosine_basis(grid.n_modes, grid.L, grid.x).T)
    analysis = analysis_matrix(grid.n_modes, grid.L, grid.n_x)
    exponents = -np.outer(params.branches.slope, rate) * grid.dt
    u_hat = _profile_to_series(u0, grid, "initial state").coeffs
    u_modes, state = np.repeat(u_hat[:, None], grid.n_t, axis=1), u_hat
    start, run, flow = 0, None, None
    for j in range(1, grid.n_t):
        i, (held,) = _certified_branch(state[:, None], params, basis, exponents)
        if not held:
            flow = flow or _FrozenPattern(params.branch_index(basis @ state), state[0], params,
                                          basis, analysis, rate, grid.dt)
            run, (state, flow) = None, flow.step(state, grid.dt)
        else:
            start, run = (j - 1, i) if i != run else (start, run)
            state, flow = u_modes[:, start] * mode_exponential(
                (j - start) * exponents[i], u_modes[:, start] != 0, "relaxation step"), None
        u_modes[:, j] = state
    return u_modes


def uncut_sourced_triple(f: CosineSeries, v0: np.ndarray, params: PhaseParams, grid,
                         n_t: int | None = None) -> SolutionTriple:
    """The sourced triple of ``f`` from the flux datum ``v0`` on the first ``n_t``
    samples of ``grid`` (all of them by default), assembled from the public pieces
    of ``construct_family`` but neither certified (t_bar stays 0) nor cut to its
    certified window, so it can run past the horizon that the family records."""
    sol = solve_sourced(f, v0, params.sigma_abs, grid)
    if n_t is not None:
        sol = replace(sol, v=sol.v.restrict(n_t), v_modes=sol.v_modes[:, :n_t],
                      vt_modes=sol.vt_modes[:, :n_t])
    lam, lam_t = build_lambda(sol, params)
    return SolutionTriple(assemble_state(sol.v, lam, params), sol.v, lam, 0.0, "uncut",
                          lam_t=lam_t, source=sol.source)


def vxx_field(sol) -> Field2D:
    """v_xx of a sourced solution from its exact modes."""
    return field_from_modes(sol.grid, -sol.grid.mu()[:, None] * sol.v_modes,
                            "sourced flux curvature")


def vt_field(sol) -> Field2D:
    """v_t of a sourced solution from its exact rate modes."""
    return field_from_modes(sol.grid, sol.vt_modes, "sourced flux rate")


def running_simpson_oracle(y: np.ndarray, dt: float) -> np.ndarray:
    """``verifier.running_simpson`` as it was written before it formed its
    interval sums in place: each stencil as a whole array, then concatenated."""
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


# ---------------------------------------------------------------------------
# dense test functions from separable factors (X, X', T, T')


def psi(factors) -> np.ndarray:
    xpart, _, tpart, _ = factors
    return np.outer(xpart, tpart)


def psi_t(factors) -> np.ndarray:
    xpart, _, _, tslope = factors
    return np.outer(xpart, tslope)


def psi_x(factors) -> np.ndarray:
    _, xslope, tpart, _ = factors
    return np.outer(xslope, tpart)
