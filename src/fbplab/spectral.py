"""Cosine eigenbasis machinery on (0, L) with zero-flux endpoints.

This module owns the cosine operator; no other module builds a basis, an
eigenvalue or an analysis matrix.  Expansions use cos(k*pi*x/L), k = 0..N,
whose members all have zero slope at x = 0 and x = L.  Collocation is uniform
including both endpoints; analysis uses the trapezoid inner product, which is
an exact projection for inputs band-limited to N <= (n_x - 1)/2 modes.
Backward (negative-diffusivity) flows are only ever advanced exactly per mode.
Every exact per-mode flow of the package passes the one overflow guard,
``mode_exponential``; the backward and sourced solves and the relaxation's
single-branch steps take their factors from it too, while the inverse source
and the frozen-pattern steps (both ``expm1``) only pass its guard.  A
sampled field is projected once (``Field2D.modes``) and keeps its second
derivative beside that projection (``Field2D.xx``); its space derivatives, the
zero-flux test ``boundary_slopes`` among them, read the projection.  Samples
are held read-only, as given when C-contiguous or broadcast and else copied
(``read_only``), so a producer hands its fresh array over read-only.

Field files hold Python's ``'%.17g'`` text of every sample, formatted in numpy
by ``format_rows`` and byte-identical to ``format(v, '.17g')``.  For
1e-6 < |x| < 1e17 the 17 significant digits are the integer nearest to
|x| * 10**p, p = 16 - floor(log10|x|) in [0, 22].  10**p is an exact double for
p <= 22 (5**22 < 2**53), so Dekker's two-product gives |x| * 10**p exactly as
hi + lo; hi >= 10**16 > 2**53 is an even integer, so hi + rint(lo) is the
round-half-even that Python's correctly rounded '%.17g' applies.  Zeros are
formatted there too; any other value (|x| <= 1e-6 with subnormals, |x| >= 1e17)
goes through Python's own '%.17g', one format string per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DomainViolationError, InstabilityError

#: exponent above which a per-mode exponential of an active mode is refused
OVERFLOW_EXPONENT = 700.0
#: endpoint slope of a zero-flux profile relative to the profile
BOUNDARY_SLOPE_TOL = 1e-3


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
        t = np.append(np.arange(self.n_t - 1) * self.dt, self.T_end)   # as np.linspace
        t.flags.writeable = False
        return t

    @cached_property
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
        """Grid on the first ``n_keep`` time samples, bitwise (it keeps ``dt``)."""
        if n_keep < 2 or n_keep > self.n_t:
            raise ConfigurationError("truncated grid needs 2 <= n_keep <= n_t")
        grid = Grid(self.L, float(self.t[n_keep - 1]), self.n_x, n_keep, self.n_modes)
        object.__setattr__(grid, "dt", self.dt)     # t[-1] / (n_keep - 1) may differ
        return grid


def cosine_eigenvalues(n_modes: int, L: float) -> np.ndarray:
    """Eigenvalues (k*pi/L)^2 of -d^2/dx^2 with zero-flux sides, k = 0..n_modes."""
    k = np.arange(n_modes + 1)
    return (k * np.pi / L) ** 2


def cosine_basis(n_modes: int, L: float, x) -> np.ndarray:
    """The (n_modes + 1, len(x)) matrix of cos(k*pi*x/L), k = 0..n_modes."""
    k = np.arange(n_modes + 1)
    return np.cos(np.outer(k, x) * (np.pi / L))


def trapezoid_weights(n: int, length: float) -> np.ndarray:
    """Trapezoid weights of ``n`` uniform endpoint-inclusive nodes over ``length``."""
    w = np.full(n, length / (n - 1))
    w[[0, -1]] *= 0.5
    return w


def analysis_matrix(n_modes: int, L: float, n_x: int) -> np.ndarray:
    """(n_modes + 1, n_x) trapezoid projection of endpoint-inclusive samples."""
    scale = np.where(np.arange(n_modes + 1) == 0, 1.0, 2.0) / L
    return scale[:, None] * (cosine_basis(n_modes, L, np.linspace(0.0, L, n_x))
                             * trapezoid_weights(n_x, L))


def _coerce_coeffs(coeffs) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigurationError("cosine coefficients must form a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise DomainViolationError("cosine coefficients must be finite")
    out = arr.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class CosineSeries:
    """Coefficients (a_0, ..., a_N) of sum_k a_k cos(k*pi*x/L) on (0, L), held as a
    read-only float64 array."""

    L: float
    coeffs: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.L) and self.L > 0):
            raise ConfigurationError("series length L must be positive and finite")
        object.__setattr__(self, "coeffs", _coerce_coeffs(self.coeffs))

    @property
    def n_modes(self) -> int:
        return len(self.coeffs) - 1

    @property
    def active(self) -> np.ndarray:
        """Which coefficients are nonzero (the modes an exact flow must move)."""
        return self.coeffs != 0

    def synthesize(self, x) -> np.ndarray:
        """Evaluate the expansion at the points ``x`` (float64)."""
        return self.coeffs @ cosine_basis(self.n_modes, self.L, x)

    def padded(self, n_modes: int) -> "CosineSeries":
        if n_modes + 1 < len(self.coeffs):
            raise ConfigurationError("cannot pad a series to fewer modes than it has")
        return CosineSeries(self.L, np.pad(self.coeffs, (0, n_modes + 1 - len(self.coeffs))))


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


def mode_exponential(exponents, active, what: str) -> np.ndarray:
    """exp(exponents) on the active modes and exactly 1 on the others, which so
    stay exactly zero; ``exponents`` has one value or one row per mode.  An
    active exponent above ``OVERFLOW_EXPONENT`` raises ``InstabilityError``."""
    expo = np.asarray(exponents, dtype=float)
    act = np.asarray(active, dtype=bool).reshape((-1,) + (1,) * (expo.ndim - 1))
    peak = expo.reshape(expo.shape[0], -1).max(axis=1)
    bad = act.ravel() & (peak > OVERFLOW_EXPONENT)
    if np.any(bad):
        mode = int(np.argmax(bad))
        raise InstabilityError(
            f"{what}: mode {mode} exponent {peak[mode]:.1f} exceeds the overflow guard; "
            "the expansion needs stronger coefficient decay (summability) to get this far")
    return np.exp(np.where(act, expo, 0.0))


def boundary_slopes(values: np.ndarray, modes: np.ndarray, L: float) -> np.ndarray:
    """|slope| at x = 0 (row 0) and x = L (row 1) of each column of the
    (n_x, n_cols) ``values``, given ``modes``, their ``analyze_columns``.

    The second-order one-sided stencil reads the samples minus their cosine
    projection: every mode has zero slope at both ends, so the stencil's own
    truncation error on band-limited data is not read as flux.
    """
    ends = [0, 1, 2, -3, -2, -1]    # the stencil's rows, read off one synthesis
    rest = values[ends] - synthesize_columns(modes, L, np.linspace(0.0, L, len(values)))[ends]
    left = -3.0 * rest[0] + 4.0 * rest[1] - rest[2]
    right = 3.0 * rest[-1] - 4.0 * rest[-2] + rest[-3]
    return np.abs([left, right]) / (2.0 * L / (len(values) - 1))


def read_only(values) -> np.ndarray:
    """float64 ``values``: a read-only C-contiguous or broadcast array as given, else a copy."""
    vals = np.asarray(values, dtype=float)
    if vals.flags.writeable or not (vals.flags.c_contiguous or 0 in vals.strides):
        vals = vals.copy()
        vals.flags.writeable = False
    return vals


@dataclass(frozen=True)
class Field2D:
    """A scalar function sampled on a grid, with provenance in ``label``; its
    cosine projection ``modes`` and second x-derivative ``xx`` are formed on
    first use and kept.

    ``values`` is read-only and finite.  A read-only array is held as given when
    C-contiguous (a producer's fresh samples) or broadcast (``constant_field``'s
    one float64); any other, such as the window ``restrict`` cuts, is copied once
    (``read_only``).  Finiteness is checked on the distinct samples: a broadcast
    axis is read at its first index, so a one-value field checks its one value.
    """

    grid: Grid
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        vals = read_only(self.values)
        if vals.shape != (self.grid.n_x, self.grid.n_t):
            raise ConfigurationError(
                f"field shape {vals.shape} does not match grid "
                f"{(self.grid.n_x, self.grid.n_t)}")
        distinct = vals[tuple(slice(None) if step else slice(1) for step in vals.strides)]
        if not np.all(np.isfinite(distinct)):
            raise DomainViolationError(f"field {self.label!r} contains non-finite values")
        object.__setattr__(self, "values", vals)

    @cached_property
    def modes(self) -> np.ndarray:
        """The cosine projection of the samples, one column per time sample."""
        # BLAS reads no broadcast: it projects as its contiguous copy
        modes = analyze_columns(np.ascontiguousarray(self.values), self.grid.L,
                                self.grid.n_modes)
        modes.flags.writeable = False
        return modes

    @cached_property
    def xx(self) -> np.ndarray:
        """The second x-derivative of the samples from ``modes``: a_k -> -(k*pi/L)^2 a_k."""
        xx = synthesize_columns(-(self.grid.mu()[:, None] * self.modes), self.grid.L,
                                self.grid.x)
        xx.flags.writeable = False
        return xx

    def restrict(self, n_keep: int) -> "Field2D":
        """The field on its first ``n_keep`` time samples, holding no others."""
        return Field2D(self.grid.with_time(n_keep), self.values[:, :n_keep], self.label)


def field_from_modes(grid: Grid, modes: np.ndarray, label: str = "") -> Field2D:
    if modes.shape != (grid.n_modes + 1, grid.n_t):
        raise ConfigurationError("mode array shape does not match grid")
    values = synthesize_columns(modes, grid.L, grid.x)
    values.flags.writeable = False
    return Field2D(grid, values, label)


def constant_field(grid: Grid, value: float, label: str = "") -> Field2D:
    """The field equal to ``value`` everywhere, held as one float64."""
    return Field2D(grid, np.broadcast_to(float(value), (grid.n_x, grid.n_t)), label)


def write_field_csv(f: Field2D, path) -> None:
    """Tab-separated dump: header row of x nodes, then one row per time sample."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    g = f.grid
    step = max(1, _CSV_CHUNK_CELLS // (g.n_x + 1))
    rows = np.empty((min(step, g.n_t), g.n_x + 1))
    with path.open("wb") as fh:
        fh.write(b"x\t" + format_rows(g.x[None, :]))
        if not any(f.values.strides):    # one value: one row body after each time cell
            body = b"\t" + format_rows(f.values[:, :1].T)
            fh.writelines(t + body for t in format_rows(g.t[:, None]).splitlines())
            return
        for j in range(0, g.n_t, step):
            block = rows[:min(step, g.n_t - j)]
            block[:, 0] = g.t[j:j + step]
            block[:, 1:] = f.values[:, j:j + step].T
            fh.write(format_rows(block))


def write_series_csv(s: CosineSeries, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("k\tcoefficient\n")
        for k, ck in enumerate(s.coeffs):
            fh.write(f"{k}\t{format(ck, '.17g')}\n")


# ---------------------------------------------------------------------------
# '%.17g' text of float arrays, formatted in numpy
#
# A cell of |x| in [_EXACT_LO, _EXACT_HI], or x = 0, has its decimal exponent
# X in [-6, 16] and is formatted here; any other cell goes through Python's own
# '%.17g'.  The 17 significant digits are D = round-half-even(|x| * 10**p),
# p = 16 - X, read off the exact sum hi + lo of Dekker's product (see
# ``_scaled``).
#
# Before compaction a cell is 32 bytes, four little-endian words: byte 0 the
# sign, bytes 5..21 the digits d0..d16 in five groups (3, 4, 4, 4 and 2 digits,
# one 32-bit word each), bytes 24..27 the 'e-05' or 'e-06' suffix, byte 28
# the separator.  The layout of a cell is fixed by its exponent class X and
# the position of its last nonzero digit: digits past the last one kept are
# cleared, the digits from the decimal point's slot on move up one byte, and
# the class's constant bytes are or-ed in (the '0.' and zero pads of
# 1e-4 <= |x| < 1, the point, the suffix, the tab).  Zero bytes are deleted.

_CSV_CHUNK_CELLS = 8192              # cells per format_rows call in write_field_csv
_EXACT_LO = np.nextafter(1e-6, 1.0)  # above 10**-6, so X >= -6
_EXACT_HI = np.nextafter(1e17, 0.0)  # below 10**17, so X <= 16
_POW10 = 10.0 ** np.arange(23)       # exact: 5**22 < 2**53
_SPLITTER = 134217729.0              # 2**27 + 1, Veltkamp's constant
_TAB = np.uint64(ord("\t")) << np.uint64(32)                  # byte 28 of a cell
_TAB_TO_NEWLINE = np.uint64(ord("\t") ^ ord("\n")) << np.uint64(32)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split x = hi + lo, each part with at most 26 significant bits."""
    t = x * _SPLITTER
    hi = t - (t - x)
    return hi, x - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _digit_group(n_digits: int, byte: int, first: int):
    """For each group value g < 10**n_digits: its zero-padded digits as a
    32-bit word with the first digit at ``byte``, and the index in d0..d16 of
    its last nonzero digit when the group starts at d_first (-1 for g = 0)."""
    g = np.arange(10 ** n_digits)
    chars = np.zeros((g.size, 4), np.uint8)
    last = np.full(g.size, -1, np.int8)
    for i in range(n_digits):
        digit = g // 10 ** (n_digits - 1 - i) % 10
        chars[:, byte + i] = 48 + digit
        last[digit != 0] = first + i
    return chars.view("<u4").ravel(), last


#: (divisor, words, last) of the digit groups d0-d2, d3-d6, d7-d10, d11-d14, d15-d16
_GROUPS = tuple((10 ** (17 - first - n), *_digit_group(n, byte, first))
                for n, byte, first in ((3, 1, 0), (4, 0, 3), (4, 0, 7), (4, 0, 11), (2, 0, 15)))
_N_LAST = 18                          # last nonzero digit: -1 (x = 0) .. 16


def _layout_tables():
    """Words of the kept-and-still, kept-and-moved and constant bytes for
    each layout index (X + 6) * 18 + last + 1."""
    X, last = (t.ravel() for t in np.meshgrid(np.arange(-6, 17), np.arange(-1, 17),
                                              indexing="ij"))
    small = (X < 0) & (X >= -4)      # fixed notation 0.000ddd
    int_end = np.where(X >= 0, X, np.where(small, -1, 0))
    keep_end = 5 + np.maximum(last, int_end)
    point = np.where(small, 5, 6 + np.maximum(X, 0))   # first byte that moves up
    b = np.arange(32)
    kept = b <= keep_end[:, None]
    still = np.where(kept & (b < point[:, None]), 255, 0).astype(np.uint8)
    moved = np.where(kept & (b >= point[:, None]), 255, 0).astype(np.uint8)
    const = np.zeros((X.size, 32), np.uint8)
    dot = last > int_end
    const[dot, np.where(small, 2, point)[dot]] = ord(".")
    const[small, 1] = ord("0")
    for pad in range(3):             # 0.0ddd, 0.00ddd, 0.000ddd
        const[small & (X <= -2 - pad), 3 + pad] = ord("0")
    for x in (-5, -6):
        const[X == x, 24:28] = np.frombuffer(f"e{x:03d}".encode(), np.uint8)
    words = tuple(t.view("<u8") for t in (still, moved, const))
    words[2][:, 3] |= _TAB
    return words


_STILL, _MOVED, _CONST = _layout_tables()


def format_rows(values: np.ndarray) -> bytes:
    """The bytes of ``'%.17g'`` applied to each cell of a 2-D float array,
    cells tab-separated and each row ended by a newline."""
    n_rows, n_cols = values.shape
    v = np.ravel(values)
    a = np.abs(v)
    clipped = np.clip(a, _EXACT_LO, _EXACT_HI)
    exact = (clipped == a) | (a == 0.0)
    rest = np.flatnonzero(~exact)
    if rest.size:
        cells = np.empty((v.size, 4), "<u8")
        fast = np.flatnonzero(exact)
        cells[fast] = _exact_cells(v[fast], clipped[fast])
        # Python's own '%.17g', space-padded to the same 32-byte cells
        text = ("%-28.17g\t   " * rest.size) % tuple(v[rest].tolist())
        cells.view("V32")[rest, 0] = np.frombuffer(text.encode("ascii"), "V32")
    else:
        cells = _exact_cells(v, clipped)
    cells.reshape(n_rows, n_cols, 4)[:, -1, 3] ^= _TAB_TO_NEWLINE
    return cells.tobytes().translate(None, b"\0 ")


def _scaled(a: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - X) as the exact sum hi + lo (Dekker's two-product; the
    power of ten is an exact double, split once at import)."""
    p = 16 - X
    bh, bl = np.take(_POW10_HI, p), np.take(_POW10_LO, p)
    ah, al = _split(a)
    hi = a * np.take(_POW10, p)
    lo = ah * bh
    lo -= hi
    lo += ah * bl
    lo += al * bh
    lo += al * bl
    return hi, lo


def _exact_cells(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The 32-byte cells of the values ``v``, |v| clipped into range as ``a``."""
    X = np.floor(np.log10(a)).astype(np.intp)      # off by at most one
    np.clip(X, -6, 16, out=X)
    hi, lo = _scaled(a, X)
    off = np.flatnonzero((hi < 1e16) | ((hi == 1e16) & (lo < 0))
                         | (hi > 1e17) | ((hi == 1e17) & (lo >= 0)))
    if off.size:                                   # hi + lo outside [1e16, 1e17)
        X[off] += np.where(hi[off] < 1e17, -1, 1)
        hi[off], lo[off] = _scaled(a[off], X[off])
    # hi >= 1e16 > 2**53 is an even integer, so rint (half-even) of lo rounds
    # hi + lo half-even.  D never rounds up to 1e17: a double below 10**(X+1)
    # is below it by at least 1.1e-16 of it, the half unit of D is 5e-18 of it.
    D = hi.astype(np.int64)
    D += np.rint(lo).astype(np.int64)
    zero = v == 0.0
    D[zero] = 0
    X[zero] = 0
    cells = np.zeros((v.size, 4), "<u8")
    slots = cells.view("<u4")
    slots[:, 0] = np.signbit(v) * np.uint32(ord("-"))
    last = np.full(v.size, -1, np.int8)
    for slot, (divisor, words, last_digit) in enumerate(_GROUPS, start=1):
        group = D // divisor
        D -= group * divisor
        slots[:, slot] = np.take(words, group)
        np.maximum(last, np.take(last_digit, group), out=last)
    layout = (X + 6) * _N_LAST + 1
    layout += last
    z = cells.ravel()
    moved = z & np.take(_MOVED, layout, axis=0).ravel()
    z &= np.take(_STILL, layout, axis=0).ravel()
    z |= moved << 8
    z[1:] |= moved[:-1] >> 56                      # into the next word of the cell
    z |= np.take(_CONST, layout, axis=0).ravel()
    return cells
