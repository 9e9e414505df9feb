"""Output checks for the benchmark workloads.

Every expected value here comes from a closed form of the reference scenario
or from a property the method must have; none is copied from an earlier run.
Each check raises ``CheckFailed`` naming the file and the defect.

The reference scenario is the one the project README documents: unit phase
diagram (b = -1, c = 1, A = -1, B = 1, unit slopes, so phi0(u) = -u),
L = pi, T = 1, final datum 0.1 cos x, sources |sigma| {1, 1 + 0.3 cos x,
1 + 0.3 cos 2x}.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

# phase diagram of the reference scenario
B_BREAK, C_BREAK = -1.0, 1.0          # b, c: breakpoints in u
A_CRIT, B_CRIT = -1.0, 1.0            # A, B: critical values in v
ALPHA1 = ALPHA2 = 1.0
GAMMA1 = B_CRIT - ALPHA1 * B_BREAK
GAMMA2 = A_CRIT - ALPHA2 * C_BREAK
PHI0_SLOPE = (A_CRIT - B_CRIT) / (C_BREAK - B_BREAK)
PHI0_INTERCEPT = B_CRIT - PHI0_SLOPE * B_BREAK
SIGMA_ABS = abs((C_BREAK - B_BREAK) / (A_CRIT - B_CRIT))
LENGTH, T_END = math.pi, 1.0
MU1 = (math.pi / LENGTH) ** 2
#: mode 1 of u(., 0): the backward solve damps g = 0.1 cos x by e^{-|phi0'| mu_1 T}
U0_MODE1 = 0.1 * math.exp(-abs(PHI0_SLOPE) * MU1 * T_END)
#: sources as cosine coefficients, in the order of triple01..triple03
SOURCES = ((SIGMA_ABS,), (SIGMA_ABS, 0.3 * SIGMA_ABS), (SIGMA_ABS, 0.0, 0.3 * SIGMA_ABS))

# Tolerances.  Fields are written with 17 significant digits, so a CSV read
# back is bit-exact and every tolerance below only has to absorb the
# program's own arithmetic on values of order one.
#: u(., 0) is synthesized from 33 modes and passed through affine branch maps
INIT_TOL = 1e-13
#: trapezoid sums of 128..512 samples of order one
MASS_TOL = 1e-12
#: RK4 with steps h <= 1/255 on rates <= 1: global error T (h)^4 / 120 ~ 2e-12
#: relative, plus round-off; the state is of order 0.1
RELAX_TOL = 1e-11
#: the crossing energy drops by at least 4e-5 per sample on every datum drawn
ENERGY_TOL = 1e-10
#: inverse round trip: extended-precision algebra, float64 samples of order one
ROUND_TRIP_TOL = 1e-10
#: closed-form source coefficients against the written ones, relative
SOURCE_REL_TOL = 1e-12


class CheckFailed(AssertionError):
    """An output of the program contradicts a closed form or a property."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# reading the program's files


def read_field_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x nodes, t samples, values with one row per t) of a field CSV."""
    text = Path(path).read_text()
    head, _, body = text.partition("\n")
    cells = head.split("\t")
    _require(cells[0] == "x", f"{path}: header does not start with 'x'")
    x = np.array(cells[1:], dtype=float)
    table = np.array(body.split(), dtype=float)
    _require(table.size % (x.size + 1) == 0, f"{path}: ragged rows")
    table = table.reshape(-1, x.size + 1)
    return x, table[:, 0], table[:, 1:]


def read_first_row(path) -> tuple[np.ndarray, float, np.ndarray]:
    """(x nodes, first t, first row) without reading the whole file."""
    with Path(path).open() as fh:
        head, first = fh.readline(), fh.readline()
    x = np.array(head.split("\t")[1:], dtype=float)
    row = np.array(first.split(), dtype=float)
    return x, float(row[0]), row[1:]


def read_horizon(meta_path) -> float:
    match = re.search(r"^certified_horizon: (\S+)$", Path(meta_path).read_text(), re.M)
    _require(match is not None, f"{meta_path}: no certified_horizon line")
    return float(match.group(1))


# ---------------------------------------------------------------------------
# closed forms


def initial_datum(x: np.ndarray) -> np.ndarray:
    """u(., 0) of the backward solve, 0.1 e^{-1} cos x."""
    return U0_MODE1 * np.cos(math.pi * x / LENGTH)


def sourced_flux(source, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Closed-form per-mode solution of |sigma| v_t + v_xx = f from v(., 0) = phi0(u0).

    v_0(t) = a_0 + f_0 t/|sigma| and v_k(t) = (a_k + f_k/mu_k) e^{mu_k t/|sigma|} - f_k/mu_k;
    returns an array of shape (len(t), len(x)).
    """
    u0_modes = np.zeros(max(len(source), 2))
    u0_modes[1] = U0_MODE1
    a = PHI0_SLOPE * u0_modes
    a[0] += PHI0_INTERCEPT
    f = np.zeros_like(a)
    f[:len(source)] = source
    out = np.zeros((t.size, x.size))
    for k in range(a.size):
        if k == 0:
            vk = a[0] + f[0] * t / SIGMA_ABS
        else:
            mu = (k * math.pi / LENGTH) ** 2
            vk = (a[k] + f[k] / mu) * np.exp(mu * t / SIGMA_ABS) - f[k] / mu
        out += np.outer(vk, np.cos(k * math.pi * x / LENGTH))
    return out


def first_time_flux_reaches_b(source, x: np.ndarray, t_end: float = T_END) -> float:
    """First t at which max over the nodes x of the closed-form flux reaches B (inf if never)."""
    def excess(t):
        return np.max(sourced_flux(source, x, np.atleast_1d(t)), axis=1) - B_CRIT

    scan = np.linspace(0.0, t_end, 4097)
    above = np.nonzero(excess(scan) >= 0.0)[0]
    if above.size == 0:
        return math.inf
    hi = scan[above[0]]
    lo = scan[max(above[0] - 1, 0)]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if excess(mid)[0] >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def relaxed_backward_state(x: np.ndarray, t: np.ndarray, eps: float) -> np.ndarray:
    """Exact relaxation of the single-branch datum u0: u_1(0) exp(-phi0' mu_1 t / (1 + eps mu_1))."""
    u1 = U0_MODE1 * np.exp(-PHI0_SLOPE * MU1 * t / (1.0 + eps * MU1))
    return np.outer(u1, np.cos(math.pi * x / LENGTH))


def flux_potential(u: np.ndarray) -> np.ndarray:
    """Phi(u) = int_0^u phi(s) ds, with Phi' = phi, for the reference diagram."""
    def middle(s):
        return 0.5 * PHI0_SLOPE * s * s + PHI0_INTERCEPT * s

    upper = middle(C_BREAK) + 0.5 * ALPHA2 * (u * u - C_BREAK ** 2) + GAMMA2 * (u - C_BREAK)
    lower = middle(B_BREAK) + 0.5 * ALPHA1 * (u * u - B_BREAK ** 2) + GAMMA1 * (u - B_BREAK)
    return np.where(u >= C_BREAK, upper, np.where(u <= B_BREAK, lower, middle(u)))


def inverse_source(a, b, t_end: float) -> np.ndarray:
    """f_0 = (b_0 - a_0)|sigma|/T and f_k = mu_k (b_k - a_k E_k)/(E_k - 1), E_k = e^{mu_k T/|sigma|}."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    f = np.empty(a.size)
    f[0] = (b[0] - a[0]) * SIGMA_ABS / t_end
    for k in range(1, a.size):
        mu = (k * math.pi / LENGTH) ** 2
        e = math.exp(mu * t_end / SIGMA_ABS)
        f[k] = mu * (b[k] - a[k] * e) / (e - 1.0)
    return f


# ---------------------------------------------------------------------------
# checks, one per command


def check_counterexample(out: Path, rc: int) -> None:
    """Exit 0, SUCCESS with 4/4 triples, shared closed-form initial row,
    lambda(., 0) = 0, conserved mass, and horizons bounded by the flux reaching B."""
    out = Path(out)
    _require(rc == 0, f"counterexample exited {rc}")
    summary = (out / "summary.txt").read_text()
    _require(summary.endswith("\nSUCCESS\n"), "summary does not end SUCCESS")
    _require("4/4 triples pass the battery" in summary, "summary does not report 4/4 triples")

    fields = out / "fields"
    u_files = sorted(fields.glob("triple*_u.csv"))
    _require(len(u_files) == 1 + len(SOURCES), f"expected {1 + len(SOURCES)} state files, "
             f"found {len(u_files)}")
    nodes_and_step = {}
    first_row = None
    for path in u_files:
        x, t, u = read_field_csv(path)
        _require(t[0] == 0.0, f"{path.name}: first row is not t = 0")
        nodes_and_step[path.name] = (x, t[1] - t[0])
        if first_row is None:
            first_row = u[0]
        _require(u[0].shape == first_row.shape
                 and float(np.max(np.abs(u[0] - first_row))) <= INIT_TOL,
                 f"{path.name}: t = 0 row differs from {u_files[0].name}")
        init_err = float(np.max(np.abs(u[0] - initial_datum(x))))
        _require(init_err <= INIT_TOL,
                 f"{path.name}: t = 0 row differs from 0.1 e^-1 cos x by {init_err:.2e}")
        mass = np.trapezoid(u, x, axis=1)
        drift = float(np.max(np.abs(mass - mass[0])))
        _require(drift <= MASS_TOL, f"{path.name}: integral of u drifts by {drift:.2e}")

    for path in sorted(fields.glob("triple*_lam.csv")):
        _, t0, row = read_first_row(path)
        _require(t0 == 0.0 and np.all(row == 0.0), f"{path.name}: lambda is not 0 at t = 0")

    for index, source in enumerate(SOURCES, start=1):
        (u_path,) = fields.glob(f"triple{index:02d}_*_u.csv")
        x, dt = nodes_and_step[u_path.name]
        t_bar = read_horizon(u_path.with_suffix(".meta.txt"))
        t_star = first_time_flux_reaches_b(source, x)
        _require(t_star - dt <= t_bar <= t_star,
                 f"{u_path.name}: horizon {t_bar:.6g} is not within one step "
                 f"({dt:.3g}) below the flux reaching B at {t_star:.6g}")


def check_regularize(out: Path, rc: int, eps_list) -> None:
    """Exit 0 with PASS, and the backward-solve datum relaxes exactly per mode."""
    out = Path(out)
    _require(rc == 0, f"regularize exited {rc}")
    _require((out / "regularize_summary.txt").read_text().endswith("\nPASS\n"),
             "regularize summary does not end PASS")
    for eps in eps_list:
        path = out / "fields" / (f"eps{eps:g}".replace(".", "p") + "_u.csv")
        x, t, u = read_field_csv(path)
        err = float(np.max(np.abs(u - relaxed_backward_state(x, t, eps))))
        _require(err <= RELAX_TOL,
                 f"{path.name}: relaxed state differs from the exact mode solution by {err:.2e}")


def check_crossing(x: np.ndarray, u: np.ndarray) -> None:
    """Relaxation from a crossing datum: u leaves [b, c], mass is conserved and
    the energy int Phi(u) dx does not increase between time samples.

    ``u`` has one column per time sample, as the program stores it.
    """
    _require(np.max(u) > C_BREAK or np.min(u) < B_BREAK,
             "crossing datum never leaves [b, c]")
    mass = np.trapezoid(u, x, axis=0)
    drift = float(np.max(np.abs(mass - mass[0])))
    _require(drift <= MASS_TOL, f"crossing datum: integral of u drifts by {drift:.2e}")
    energy = np.trapezoid(flux_potential(u), x, axis=0)
    rise = float(np.max(np.diff(energy)))
    _require(rise <= ENERGY_TOL, f"crossing datum: int Phi(u) dx increases by {rise:.2e}")


def check_inverse(out: Path, rc: int, a, b, t_end: float) -> None:
    """Exit 0, a small round-trip error, and the closed-form source coefficients."""
    out = Path(out)
    _require(rc == 0, f"inverse exited {rc}")
    summary = (out / "inverse_summary.txt").read_text()
    match = re.search(r"round-trip max-norm error at T: (\S+)", summary)
    _require(match is not None, "inverse summary has no round-trip line")
    round_trip = float(match.group(1))
    scale = max(1.0, float(np.max(np.abs(b))))
    _require(round_trip <= ROUND_TRIP_TOL * scale,
             f"inverse round-trip error {round_trip:.2e}")
    rows = (out / "inverse_source.csv").read_text().split("\n")[1:]
    f = np.array([float(r.split("\t")[1]) for r in rows if r])
    expected = inverse_source(a, b, t_end)
    _require(f.size == expected.size, f"inverse wrote {f.size} coefficients, "
             f"expected {expected.size}")
    err = np.abs(f - expected) / np.maximum(np.abs(expected), 1.0)
    _require(float(np.max(err)) <= SOURCE_REL_TOL,
             f"source coefficient {int(np.argmax(err))} differs from its closed form "
             f"by {float(np.max(err)):.2e} (relative)")
