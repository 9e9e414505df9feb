"""Each output check accepts the program's real output and rejects a
manufactured bad one.  Run with ``python3 -m pytest perfbench/tests``."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks
from perfbench.checks import CheckFailed

EPS = (0.1, 0.01, 0.001)


def _write_field(path: Path, x, t, values) -> None:
    lines = ["x\t" + "\t".join(format(v, ".17g") for v in x)]
    for tj, row in zip(t, values):
        lines.append(format(tj, ".17g") + "\t" + "\t".join(format(v, ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n")


def _edit_field(path: Path, edit) -> None:
    x, t, values = checks.read_field_csv(path)
    _write_field(path, x, t, edit(x, t, values.copy()))


def _edit_text(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))


# ---------------------------------------------------------------------------
# counterexample


def test_counterexample_accepts_real_output(outputs):
    checks.check_counterexample(outputs["dir"] / "cx", 0)


def test_counterexample_rejects_nonzero_exit(outputs):
    with pytest.raises(CheckFailed, match="exited 1"):
        checks.check_counterexample(outputs["dir"] / "cx", 1)


def test_counterexample_rejects_failure_summary(outputs):
    _edit_text(outputs["dir"] / "cx" / "summary.txt", "SUCCESS", "FAILURE")
    with pytest.raises(CheckFailed, match="SUCCESS"):
        checks.check_counterexample(outputs["dir"] / "cx", 0)


def test_counterexample_rejects_three_of_four(outputs):
    _edit_text(outputs["dir"] / "cx" / "summary.txt", "4/4 triples", "3/4 triples")
    with pytest.raises(CheckFailed, match="4/4"):
        checks.check_counterexample(outputs["dir"] / "cx", 0)


def test_counterexample_rejects_missing_triple(outputs):
    (outputs["dir"] / "cx" / "fields" / "triple02_sourced_u.csv").unlink()
    with pytest.raises(CheckFailed, match="state files"):
        checks.check_counterexample(outputs["dir"] / "cx", 0)


def test_counterexample_rejects_perturbed_initial_row(outputs):
    def bump(x, t, u):
        u[0, 5] += 1e-9
        return u

    _edit_field(outputs["dir"] / "cx" / "fields" / "triple02_sourced_u.csv", bump)
    with pytest.raises(CheckFailed, match="t = 0 row"):
        checks.check_counterexample(outputs["dir"] / "cx", 0)


def test_counterexample_rejects_shared_but_wrong_initial_row(outputs):
    def scale(x, t, u):
        u[0] *= 1.0 + 1e-9
        return u

    for path in (outputs["dir"] / "cx" / "fields").glob("triple*_u.csv"):
        _edit_field(path, scale)
    with pytest.raises(CheckFailed, match="cos x"):
        checks.check_counterexample(outputs["dir"] / "cx", 0)


def test_counterexample_rejects_nonzero_initial_weight(outputs):
    def lift(x, t, lam):
        lam[0, 3] = 1e-300
        return lam

    _edit_field(outputs["dir"] / "cx" / "fields" / "triple03_sourced_lam.csv", lift)
    with pytest.raises(CheckFailed, match="lambda is not 0"):
        checks.check_counterexample(outputs["dir"] / "cx", 0)


def test_counterexample_rejects_nonconserved_mass(outputs):
    def leak(x, t, u):
        return u + 1e-10 * t[:, None]

    _edit_field(outputs["dir"] / "cx" / "fields" / "triple01_sourced_u.csv", leak)
    with pytest.raises(CheckFailed, match="drifts"):
        checks.check_counterexample(outputs["dir"] / "cx", 0)


@pytest.mark.parametrize("shift_steps", [-1.5, 1.0])
def test_counterexample_rejects_horizon_off_the_flux_crossing(outputs, shift_steps):
    meta = outputs["dir"] / "cx" / "fields" / "triple02_sourced_u.meta.txt"
    t_bar = checks.read_horizon(meta)
    moved = t_bar + shift_steps / 255.0
    _edit_text(meta, f"certified_horizon: {t_bar!r}", f"certified_horizon: {moved!r}")
    with pytest.raises(CheckFailed, match="horizon"):
        checks.check_counterexample(outputs["dir"] / "cx", 0)


def test_flux_crossing_times_match_the_documented_horizons():
    x = np.linspace(0.0, math.pi, 128)
    # the README quotes 0.745 and 0.486 as the two non-constant horizons
    assert checks.first_time_flux_reaches_b(checks.SOURCES[1], x) == pytest.approx(0.745, abs=2e-3)
    assert checks.first_time_flux_reaches_b(checks.SOURCES[2], x) == pytest.approx(0.486, abs=4e-3)


# ---------------------------------------------------------------------------
# regularize


def test_regularize_accepts_real_output(outputs):
    checks.check_regularize(outputs["dir"] / "reg", 0, EPS)


def test_regularize_rejects_fail_summary(outputs):
    _edit_text(outputs["dir"] / "reg" / "regularize_summary.txt", "PASS", "FAIL")
    with pytest.raises(CheckFailed, match="PASS"):
        checks.check_regularize(outputs["dir"] / "reg", 0, EPS)


def test_regularize_rejects_nonzero_exit(outputs):
    with pytest.raises(CheckFailed, match="exited"):
        checks.check_regularize(outputs["dir"] / "reg", 3, EPS)


def test_regularize_rejects_wrong_growth_rate(outputs):
    def drift(x, t, u):
        return u * (1.0 + 1e-9 * t[:, None])

    _edit_field(outputs["dir"] / "reg" / "fields" / "eps0p01_u.csv", drift)
    with pytest.raises(CheckFailed, match="exact mode solution"):
        checks.check_regularize(outputs["dir"] / "reg", 0, EPS)


# ---------------------------------------------------------------------------
# the crossing relaxation


@pytest.fixture(scope="module")
def crossing():
    from fbplab.config import ScenarioConfig
    from fbplab.solvers import solve_pseudoparabolic

    config = ScenarioConfig.default()
    grid = config.grid
    sol = solve_pseudoparabolic(0.9 * np.cos(grid.x), 1e-3, config.phase, grid)
    return np.asarray(grid.x), sol.u_eps.values


def test_crossing_accepts_real_solution(crossing):
    checks.check_crossing(*crossing)


def test_crossing_rejects_datum_that_never_crosses(crossing):
    x, _ = crossing
    t = np.linspace(0.0, 1.0, 256)
    # the single-branch relaxation of 0.1 cos x stays inside [b, c]
    u = checks.relaxed_backward_state(x, t, 1e-3).T
    with pytest.raises(CheckFailed, match="never leaves"):
        checks.check_crossing(x, u)


def test_crossing_rejects_nonconserved_mass(crossing):
    x, u = crossing
    with pytest.raises(CheckFailed, match="drifts"):
        checks.check_crossing(x, u + 1e-9 * np.arange(u.shape[1])[None, :])


def test_crossing_rejects_rising_energy(crossing):
    x, u = crossing
    with pytest.raises(CheckFailed, match="increases"):
        checks.check_crossing(x, u[:, ::-1])


# ---------------------------------------------------------------------------
# inverse


def test_inverse_accepts_real_output(outputs):
    checks.check_inverse(outputs["dir"] / "inv", 0, outputs["a"], outputs["b"], 1.0)


def test_inverse_rejects_nonzero_exit(outputs):
    with pytest.raises(CheckFailed, match="exited"):
        checks.check_inverse(outputs["dir"] / "inv", 2, outputs["a"], outputs["b"], 1.0)


def test_inverse_rejects_large_round_trip(outputs):
    path = outputs["dir"] / "inv" / "inverse_summary.txt"
    path.write_text(re.sub(r"(round-trip max-norm error at T: )\S+", r"\g<1>3.000e-06",
                           path.read_text()))
    with pytest.raises(CheckFailed, match="round-trip"):
        checks.check_inverse(outputs["dir"] / "inv", 0, outputs["a"], outputs["b"], 1.0)


@pytest.mark.parametrize("k", [0, 1])
def test_inverse_rejects_wrong_source_coefficient(outputs, k):
    path = outputs["dir"] / "inv" / "inverse_source.csv"
    lines = path.read_text().split("\n")
    index, value = lines[k + 1].split("\t")
    lines[k + 1] = f"{index}\t{float(value) * (1.0 + 1e-6) + 1e-9!r}"
    path.write_text("\n".join(lines))
    with pytest.raises(CheckFailed, match=f"coefficient {k} "):
        checks.check_inverse(outputs["dir"] / "inv", 0, outputs["a"], outputs["b"], 1.0)
