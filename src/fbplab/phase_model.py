"""Bistable piecewise-linear flux, branch inverses, and entropy primitives.

The flux has three affine pieces: increasing outer branches
``phi1(u) = alpha1*u + gamma1`` on ``u <= b`` and ``phi2(u) = alpha2*u + gamma2``
on ``u >= c``, joined by the decreasing middle branch
``phi0(u) = (A*(u - b) - B*(u - c)) / (c - b)`` on ``b < u < c``.
The critical values ``A = phi2(c) < phi1(b) = B`` are where the branches meet
(so they fix gamma1 and gamma2), and ``sigma = (c - b)/(A - B) < 0`` is the
inverse slope of the middle branch.

Each branch has an affine inverse: ``beta1`` on v <= B, ``beta2`` on v >= A,
and the decreasing ``beta0`` on A <= v <= B.  The entropy machinery pairs a
nondecreasing ``g`` with its primitive ``G(u) = int_0^u g(phi(s)) ds``; the
pointwise admissibility certificate is the nonnegative quantity
``G(beta0(v)) - G(beta2(v)) + (beta2(v) - beta0(v)) * g(v)``.

Every three-branch dispatch reads one affine table, ``PhaseParams.branches``, and
one index rule, ``PhaseParams.branch_index``; phi and G evaluate only each sample's branch.
On A <= v <= B the branch images need no dispatch: phi maps beta0(v) and
beta2(v) back to v, so ``branch_image_primitives`` forms both G values as
affine images of one primitive Gamma(v) of g.

All functions are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainViolationError


def _check_finite(values, what: str):
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainViolationError(f"{what} must be finite")
    return arr


def _scalar_like(template, arr: np.ndarray):
    return float(arr) if np.ndim(template) == 0 else arr


@dataclass(frozen=True)
class BranchTable:
    """phi(u) = slope[i]*u + intercept[i] on the closed interval ``closed[i]``.

    The entropy primitives' gluing constants are ``glue[i]`` times a primitive
    of g at ``knot[i]``, where branch i meets the middle one (c1, c2, and 0).
    """

    slope: np.ndarray
    intercept: np.ndarray
    closed: tuple[tuple[float, float], ...]
    knot: np.ndarray
    glue: np.ndarray


@dataclass(frozen=True)
class PhaseParams:
    """Scalar constants of the phase diagram.

    ``b < c`` are the breakpoints in state (u) space, ``A < B`` the critical
    values in flux (v) space and ``alpha1, alpha2 > 0`` the outer-branch
    slopes.  These six numbers fix the flux: continuity at the breakpoints
    forces the intercepts ``gamma1 = B - alpha1*b`` and ``gamma2 = A - alpha2*c``.
    """

    b: float
    c: float
    A: float
    B: float
    alpha1: float = 1.0
    alpha2: float = 1.0

    def __post_init__(self):
        for name in ("b", "c", "A", "B", "alpha1", "alpha2"):
            if not np.isfinite(getattr(self, name)):
                raise DomainViolationError(f"PhaseParams.{name} must be finite")
        if not self.b < self.c:
            raise DomainViolationError("require b < c")
        if not self.A < self.B:
            raise DomainViolationError("require A < B")
        if self.alpha1 <= 0 or self.alpha2 <= 0:
            raise DomainViolationError("outer-branch slopes must be positive")

    @classmethod
    def default(cls) -> "PhaseParams":
        """Unit-coefficient diagram: b=-1, c=1, A=-1, B=1, so phi0(u) = -u."""
        return cls(-1.0, 1.0, -1.0, 1.0)

    @property
    def gamma1(self) -> float:  # continuity: phi1(b) = B
        return self.B - self.alpha1 * self.b

    @property
    def gamma2(self) -> float:  # continuity: phi2(c) = A
        return self.A - self.alpha2 * self.c

    @property
    def sigma(self) -> float:
        """Inverse slope of the middle branch, (c-b)/(A-B) < 0."""
        return (self.c - self.b) / (self.A - self.B)

    @property
    def sigma_abs(self) -> float:
        return abs(self.sigma)

    @property
    def phi0_slope(self) -> float:
        return (self.A - self.B) / (self.c - self.b)

    @property
    def gap_slope(self) -> float:
        """d(beta2 - beta0)/dv = 1/alpha2 - sigma > 0."""
        return 1.0 / self.alpha2 - self.sigma

    @cached_property
    def branches(self) -> BranchTable:
        """The affine table of phi, built once per diagram."""
        m0 = self.phi0_slope
        table = BranchTable(
            slope=np.array([m0, self.alpha1, self.alpha2]),
            intercept=np.array([self.B - m0 * self.b, self.gamma1, self.gamma2]),
            closed=((self.b, self.c), (-np.inf, self.b), (self.c, np.inf)),
            knot=np.array([0.0, self.B, self.A]),
            glue=np.array([0.0, 1.0 / m0 - 1.0 / self.alpha1, 1.0 / m0 - 1.0 / self.alpha2]))
        for arr in (table.slope, table.intercept, table.knot, table.glue):
            arr.flags.writeable = False
        return table

    def branch_index(self, u):
        """Branch of each sample: 1 where u <= b, 2 where u >= c, else 0."""
        return (u <= self.b) + 2 * (u >= self.c)

    def branch_holding(self, lo: float, hi: float) -> int | None:
        """A branch whose closed interval holds [lo, hi], outer branches first."""
        for i in (1, 2, 0):
            left, right = self.branches.closed[i]
            if left <= lo and hi <= right:
                return i
        return None


def eval_phi(params: PhaseParams, u):
    """Evaluate the piecewise-linear flux at ``u`` (scalar or array)."""
    arr = _check_finite(u, "flux argument")
    table, i = params.branches, params.branch_index(arr)
    return _scalar_like(u, table.slope[i] * arr + table.intercept[i])


def beta0_extended(params: PhaseParams, v):
    """Affine continuation of the middle-branch inverse, no domain check.

    Coincides with beta0 on [A, B]; outside it is the analytic continuation
    used when assembling fields past the certified region.
    """
    arr = np.asarray(v, dtype=float)
    return _scalar_like(v, params.b + params.sigma * (arr - params.B))


def beta2_extended(params: PhaseParams, v):
    """Affine inverse of the upper stable branch, no domain check."""
    arr = np.asarray(v, dtype=float)
    return _scalar_like(v, (arr - params.gamma2) / params.alpha2)


def branch_gap_extended(params: PhaseParams, v):
    """Width beta2(v) - beta0(v) of the phase superposition via the affine
    continuations, no domain check.  Zero exactly at v = A (where the branches
    meet at u = c) and strictly increasing in v."""
    return beta2_extended(params, v) - beta0_extended(params, v)


# ---------------------------------------------------------------------------
# monotone entropy fluxes


def _log_cosh(z: np.ndarray) -> np.ndarray:
    # log(cosh z) = |z| + log1p(exp(-2|z|)) - log 2, stable for large |z|
    az = np.abs(z)
    return az + np.log1p(np.exp(-2.0 * az)) - np.log(2.0)


@dataclass(frozen=True)
class EntropyFlux:
    """One member of the built-in family of nondecreasing fluxes.

    Kinds: ``identity`` (g(v) = v), ``clamp`` (g(v) = min(max(v, p), q)) and
    ``tanh`` (g(v) = tanh(v/s), an odd saturating ramp of scale s > 0).
    A constant flux is the degenerate clamp with p = q.
    """

    kind: str
    p: float = 0.0
    q: float = 0.0
    s: float = 1.0

    def __post_init__(self):
        if self.kind not in ("identity", "clamp", "tanh"):
            raise DomainViolationError(f"unknown flux kind {self.kind!r}")
        if self.kind == "clamp" and self.p > self.q:
            raise DomainViolationError("clamp flux requires p <= q")
        if self.kind == "tanh" and self.s <= 0:
            raise DomainViolationError("tanh flux requires positive scale")

    @classmethod
    def identity(cls) -> "EntropyFlux":
        return cls("identity")

    @classmethod
    def clamp(cls, p: float, q: float) -> "EntropyFlux":
        return cls("clamp", p=p, q=q)

    @classmethod
    def saturating(cls, s: float) -> "EntropyFlux":
        return cls("tanh", s=s)

    def label(self) -> str:
        if self.kind == "identity":
            return "identity"
        if self.kind == "clamp":
            return f"clamp[{self.p:g},{self.q:g}]"
        return f"tanh[s={self.s:g}]"

    def value(self, v):
        arr = np.asarray(v, dtype=float)
        if self.kind == "identity":
            out = arr
        elif self.kind == "clamp":
            out = np.clip(arr, self.p, self.q)
        else:
            out = np.tanh(arr / self.s)
        return _scalar_like(v, np.asarray(out))

    def derivative(self, v, value=None):
        """g'(v); a tanh flux takes (1 - g^2)/s from ``value`` = g(v) when given."""
        arr = np.asarray(v, dtype=float)
        if self.kind == "identity":
            out = np.ones_like(arr)
        elif self.kind == "clamp":
            # a constant flux (p = q) has zero slope even at v = p
            out = ((arr >= self.p) & (arr <= self.q) & (self.p < self.q)).astype(float)
        else:
            t = np.tanh(arr / self.s) if value is None else np.asarray(value, dtype=float)
            out = (1.0 - t * t) / self.s
        return _scalar_like(v, out)

    def antiderivative(self, v):
        """A primitive of g, used to integrate g(phi(s)) in closed form."""
        arr = np.asarray(v, dtype=float)
        if self.kind == "identity":
            out = 0.5 * arr * arr
        elif self.kind == "clamp":
            out = np.where(
                arr <= self.p,
                self.p * arr - 0.5 * self.p * self.p,
                np.where(arr >= self.q,
                         self.q * arr - 0.5 * self.q * self.q,
                         0.5 * arr * arr),
            )
        else:
            out = self.s * _log_cosh(arr / self.s)
        return _scalar_like(v, out)


def _branch_piece(params: PhaseParams, flux: EntropyFlux, glue: np.ndarray, i, s):
    """Branch i's antiderivative of g(phi(.)): Gamma(phi_i(s))/slope[i] + glue[i]."""
    table = params.branches
    m = table.slope[i]
    return flux.antiderivative(m * s + table.intercept[i]) / m + glue[i]


def _gluing(params: PhaseParams, flux: EntropyFlux):
    """Each branch's gluing constant glue[i]*Gamma(knot[i]), and W(0), which G subtracts."""
    table = params.branches
    glue = flux.antiderivative(table.knot) * table.glue
    return glue, _branch_piece(params, flux, glue, params.branch_index(0.0), 0.0)


def _branch_primitive(params: PhaseParams, flux: EntropyFlux, u: np.ndarray) -> np.ndarray:
    """W(u) - W(0), with W an antiderivative of g(phi(.)) continuous across the breakpoints.

    On each affine piece phi(s) = m*s + q an antiderivative of g(phi(s)) is
    Gamma(phi(s))/m plus the piece's gluing constant, with Gamma a primitive
    of g; only the branch of each sample is evaluated.
    """
    glue, w0 = _gluing(params, flux)
    return _branch_piece(params, flux, glue, params.branch_index(u), u) - w0


def entropy_primitive(params: PhaseParams, flux: EntropyFlux, u):
    """G(u) = int_0^u g(phi(s)) ds, in closed form (additive constant fixed to 0)."""
    arr = _check_finite(u, "entropy-primitive argument")
    return _scalar_like(u, _branch_primitive(params, flux, arr))


def branch_image_primitives(params: PhaseParams, flux: EntropyFlux, v):
    """(G(beta0(v)), G(beta2(v))) from one Gamma(v) when A <= v <= B.

    phi maps both branch images back to v, so G(beta_i(v)) is
    Gamma(v)/slope[i] + (glue[i] Gamma(knot[i]) - W(0)) for i = 0 and 2.  At
    v = B, beta0 lands on b, which the index rule gives to branch 1; the
    gluing constant makes the two forms agree there, as at v = A.  A field
    with any sample outside [A, B] (or not finite) goes whole through
    ``entropy_primitive`` on the affine continuations.
    """
    arr = np.asarray(v, dtype=float)
    if arr.size and not (params.A <= np.min(arr) and np.max(arr) <= params.B):
        return (entropy_primitive(params, flux, beta0_extended(params, arr)),
                entropy_primitive(params, flux, beta2_extended(params, arr)))
    glue, w0 = _gluing(params, flux)
    gamma = flux.antiderivative(arr)
    slope = params.branches.slope
    return tuple(_scalar_like(v, gamma / slope[i] + (glue[i] - w0)) for i in (0, 2))


def certificate_integrand_extended(params: PhaseParams, flux: EntropyFlux, v):
    """G(beta0(v)) - G(beta2(v)) + (beta2(v) - beta0(v)) * g(v) through the
    affine continuations, no domain check.

    On A <= v <= B it equals int_{beta0(v)}^{beta2(v)} [g(v) - g(phi(s))] ds,
    hence >= 0 for every nondecreasing g, with equality at v = A.
    """
    arr = np.asarray(v, dtype=float)
    g0, g2 = branch_image_primitives(params, flux, arr)
    out = certificate_from_primitives(branch_gap_extended(params, arr), g0, g2,
                                      flux.value(arr))
    return _scalar_like(v, np.asarray(out))


def certificate_from_primitives(gap, g0, g2, gv):
    """The certificate from the branch gap, G(beta0(v)), G(beta2(v)) and g(v)."""
    return g0 - g2 + gap * gv
