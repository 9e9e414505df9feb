"""Cosine eigenbasis machinery on (0, L) with zero-flux endpoints.

This module owns the cosine operator; no other module builds a basis, an
eigenvalue or an analysis matrix.  Expansions use cos(k*pi*x/L), k = 0..N,
whose members all have zero slope at x = 0 and x = L.  Collocation is uniform
including both endpoints; analysis uses the trapezoid inner product, which is
an exact projection for inputs band-limited to N <= (n_x - 1)/2 modes.
Propagation of the heat kernel is exact per mode, which is the only way the
backward (negative-diffusivity) flows in this package are ever advanced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DomainViolationError, InstabilityError

#: |exponent| above which a per-mode exponential is refused.
OVERFLOW_EXPONENT = 700.0


@dataclass(frozen=True)
class Grid:
    """Uniform space-time sampling of the rectangle (0,L) x (0,T_end)."""

    L: float
    T_end: float
    n_x: int = 128
    n_t: int = 256
    n_modes: int = 32

    def __post_init__(self):
        if not (np.isfinite(self.L) and self.L > 0):
            raise ConfigurationError("grid length L must be positive and finite")
        if not (np.isfinite(self.T_end) and self.T_end > 0):
            raise ConfigurationError("grid horizon T_end must be positive and finite")
        if self.n_t < 2:
            raise ConfigurationError("need at least two time samples")
        if self.n_x < 3:  # the one-sided endpoint slope is a three-point stencil
            raise ConfigurationError("need at least three space samples")
        if self.n_modes < 1:
            raise ConfigurationError("need at least one cosine mode")
        if self.n_x < 2 * self.n_modes:
            raise ConfigurationError(
                f"anti-aliasing margin violated: n_x={self.n_x} < 2*n_modes={2 * self.n_modes}")

    @cached_property
    def x(self) -> np.ndarray:
        x = np.linspace(0.0, self.L, self.n_x)
        x.flags.writeable = False
        return x

    @cached_property
    def t(self) -> np.ndarray:
        t = np.linspace(0.0, self.T_end, self.n_t)
        t.flags.writeable = False
        return t

    @property
    def dx(self) -> float:
        return self.L / (self.n_x - 1)

    @property
    def dt(self) -> float:
        return self.T_end / (self.n_t - 1)

    def mu(self) -> np.ndarray:
        """Eigenvalues (k*pi/L)^2 of -d^2/dx^2 for k = 0..n_modes."""
        return cosine_eigenvalues(self.n_modes, self.L)

    def time_index(self, t_probe: float) -> int:
        j = int(round(t_probe / self.dt))
        if j < 0 or j >= self.n_t or abs(self.t[j] - t_probe) > 1e-9 * max(1.0, self.T_end):
            raise ConfigurationError(f"t={t_probe} is not a grid time sample")
        return j

    def with_time(self, n_keep: int) -> "Grid":
        """Grid truncated to the first ``n_keep`` time samples (same spacing)."""
        if n_keep < 2 or n_keep > self.n_t:
            raise ConfigurationError("truncated grid needs 2 <= n_keep <= n_t")
        return Grid(self.L, float(self.t[n_keep - 1]), self.n_x, n_keep, self.n_modes)


def cosine_eigenvalues(n_modes: int, L: float) -> np.ndarray:
    """Eigenvalues (k*pi/L)^2 of -d^2/dx^2 with zero-flux sides, k = 0..n_modes."""
    k = np.arange(n_modes + 1)
    return (k * np.pi / L) ** 2


def cosine_basis(n_modes: int, L: float, x) -> np.ndarray:
    """The (n_modes + 1, len(x)) matrix of cos(k*pi*x/L), k = 0..n_modes."""
    k = np.arange(n_modes + 1)
    return np.cos(np.outer(k, x) * (np.pi / L))


def _trapezoid_weights(n: int, length: float) -> np.ndarray:
    """Trapezoid weights of ``n`` uniform endpoint-inclusive nodes over ``length``."""
    w = np.full(n, length / (n - 1))
    w[[0, -1]] *= 0.5
    return w


def analysis_matrix(n_modes: int, L: float, n_x: int) -> np.ndarray:
    """(n_modes + 1, n_x) trapezoid projection of endpoint-inclusive samples."""
    scale = np.where(np.arange(n_modes + 1) == 0, 1.0, 2.0) / L
    return scale[:, None] * (cosine_basis(n_modes, L, np.linspace(0.0, L, n_x))
                             * _trapezoid_weights(n_x, L))


def _coerce_coeffs(coeffs) -> np.ndarray:
    arr = np.asarray(coeffs)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigurationError("cosine coefficients must form a nonempty 1-d sequence")
    if arr.dtype != object:
        arr = arr.astype(float)
        if not np.all(np.isfinite(arr)):
            raise DomainViolationError("cosine coefficients must be finite")
    out = arr.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class CosineSeries:
    """Coefficients (a_0, ..., a_N) of sum_k a_k cos(k*pi*x/L) on (0, L).

    Coefficients are usually float64; the inverse-source constructor returns
    extended-precision values (mpmath) because the growth factors e^{mu_k T}
    make the source/endpoint relation ill-conditioned in double precision.
    """

    L: float
    coeffs: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.L) and self.L > 0):
            raise ConfigurationError("series length L must be positive and finite")
        object.__setattr__(self, "coeffs", _coerce_coeffs(self.coeffs))

    @property
    def n_modes(self) -> int:
        return len(self.coeffs) - 1

    def as_float(self) -> np.ndarray:
        return np.asarray([float(c) for c in self.coeffs], dtype=float)

    def synthesize(self, x) -> np.ndarray:
        """Evaluate the expansion at the points ``x`` (float64)."""
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        vals = self.as_float() @ cosine_basis(self.n_modes, self.L, xa)
        return vals if np.ndim(x) else float(vals[0])

    def padded(self, n_modes: int) -> "CosineSeries":
        if n_modes + 1 < len(self.coeffs):
            raise ConfigurationError("cannot pad a series to fewer modes than it has")
        out = np.zeros(n_modes + 1, dtype=self.coeffs.dtype)
        out[: len(self.coeffs)] = self.coeffs
        return CosineSeries(self.L, out)


def cosine_analyze(samples, L: float, n_modes: int) -> CosineSeries:
    """Project uniform endpoint-inclusive samples onto the cosine basis.

    Exact (to round-off) for inputs band-limited to ``n_modes`` when the
    sampling satisfies the 2x anti-aliasing margin.
    """
    vals = np.asarray(samples, dtype=float)
    if vals.ndim != 1:
        raise ConfigurationError("samples must be one-dimensional")
    if vals.size < 2 * n_modes:
        raise ConfigurationError(
            f"too few samples ({vals.size}) to resolve {n_modes} modes")
    return CosineSeries(L, analyze_columns(vals[:, None], L, n_modes)[:, 0])


def analyze_columns(values: np.ndarray, L: float, n_modes: int) -> np.ndarray:
    """Column-wise cosine analysis of an (n_x, n_cols) array."""
    return analysis_matrix(n_modes, L, values.shape[0]) @ values   # (K+1, n_cols)


def synthesize_columns(modes: np.ndarray, L: float, x: np.ndarray) -> np.ndarray:
    """Evaluate column-wise mode data (K+1, n_cols) on the nodes ``x``."""
    return cosine_basis(modes.shape[0] - 1, L, x).T @ modes   # (n_x, n_cols)


def x_derivative_columns(modes: np.ndarray, L: float, x: np.ndarray) -> np.ndarray:
    """First x-derivative of column-wise mode data, evaluated on ``x``."""
    k = np.arange(modes.shape[0])
    freq = k * np.pi / L
    basis = -freq[:, None] * np.sin(np.outer(k, x) * (np.pi / L))
    return basis.T @ modes


def propagate_heat(s: CosineSeries, kappa: float, dt: float) -> CosineSeries:
    """Exact per-mode solution of w_t = kappa * w_xx over a step dt >= 0.

    Negative ``kappa`` (backward flow) is allowed; growth is guarded by the
    overflow exponent on modes with nonzero coefficients (zero modes stay
    exactly zero and never trip the guard).
    """
    if dt < 0:
        raise ConfigurationError("propagation step must be nonnegative")
    expo = -kappa * cosine_eigenvalues(s.n_modes, s.L) * dt
    active = np.asarray([c != 0 for c in s.coeffs])
    bad = active & (np.abs(expo) > OVERFLOW_EXPONENT)
    if np.any(bad):
        mode = int(np.argmax(bad))
        raise InstabilityError(
            f"mode {mode} exponent {expo[mode]:.1f} exceeds the overflow guard")
    factors = np.where(active, np.exp(np.where(active, expo, 0.0)), 1.0)
    return CosineSeries(s.L, s.coeffs * factors)


@dataclass(frozen=True)
class Field2D:
    """A scalar function sampled on a grid, with provenance in ``label``."""

    grid: Grid
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_x, self.grid.n_t):
            raise ConfigurationError(
                f"field shape {vals.shape} does not match grid "
                f"{(self.grid.n_x, self.grid.n_t)}")
        if not np.all(np.isfinite(vals)):
            raise DomainViolationError(f"field {self.label!r} contains non-finite values")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def restrict(self, n_keep: int) -> "Field2D":
        return Field2D(self.grid.with_time(n_keep), self.values[:, :n_keep], self.label)


def field_from_modes(grid: Grid, modes: np.ndarray, label: str = "") -> Field2D:
    if modes.shape != (grid.n_modes + 1, grid.n_t):
        raise ConfigurationError("mode array shape does not match grid")
    return Field2D(grid, synthesize_columns(modes, grid.L, grid.x), label)


def x_second_derivative(f: Field2D) -> np.ndarray:
    """v_xx of a sampled field: cosine projection, then a_k -> -(k*pi/L)^2 a_k."""
    g = f.grid
    modes = analyze_columns(f.values, g.L, g.n_modes)
    return synthesize_columns(-(g.mu()[:, None] * modes), g.L, g.x)


def constant_field(grid: Grid, value: float, label: str = "") -> Field2D:
    return Field2D(grid, np.full((grid.n_x, grid.n_t), float(value)), label)


def write_field_csv(f: Field2D, path) -> None:
    """Tab-separated dump: header row of x nodes, then one row per time sample."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # one '%.17g' template per row writes the same bytes as format(v, '.17g')
    cells = "\t".join(["%.17g"] * f.grid.n_x) + "\n"
    row = "%.17g\t" + cells
    with path.open("w") as fh:
        fh.write("x\t" + cells % tuple(f.grid.x.tolist()))
        for tj, vals in zip(f.grid.t.tolist(), f.values.T):
            fh.write(row % (tj, *vals.tolist()))


def write_series_csv(s: CosineSeries, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("k\tcoefficient\n")
        for k, ck in enumerate(s.as_float()):
            fh.write(f"{k}\t{format(ck, '.17g')}\n")
