"""Reference formulas that only the tests use as oracles.

The package never calls these: the construction and the verifier read the
affine continuations and the separable factors directly.  Each helper states
a definition in its textbook form, with the domain guard or the dense outer
product that the package leaves out, so the tests can hold the package's
fast paths to it.
"""

import numpy as np

from fbplab.errors import ConfigurationError, DomainViolationError
from fbplab.phase_model import (EntropyFlux, PhaseParams, beta0_extended, beta2_extended,
                                branch_gap_extended, certificate_integrand_extended)
from fbplab.spectral import (CosineSeries, Field2D, cosine_eigenvalues, field_from_modes,
                             mode_exponential)


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


def vxx_field(sol) -> Field2D:
    """v_xx of a sourced solution from its exact modes."""
    return field_from_modes(sol.grid, -sol.grid.mu()[:, None] * sol.v_modes,
                            "sourced flux curvature")


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
