"""The tracer, the metric list in BENCHMARK.json, and the refusal to run
without the program's sources."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.spans import Tracer, metric_units
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def test_tracer_restores_the_original_functions():
    from fbplab import cli, spectral, verifier

    originals = (cli.write_field_csv, verifier.x_derivative_columns, spectral.analyze_columns)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.write_field_csv is not originals[0]
        assert verifier.x_derivative_columns is not originals[1]
    finally:
        tracer.uninstall()
    assert (cli.write_field_csv, verifier.x_derivative_columns,
            spectral.analyze_columns) == originals
    assert tracer.missing == []


def test_tracer_times_a_command_and_its_callees(tmp_path):
    from fbplab import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(["inverse", "--a=0,0.1", "--b=0.2,0.1", "--T", "1",
                         "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    got = tracer.summary()
    assert got["cli.cmd_inverse.calls"] == 1
    assert got["solvers.inverse_source_from_endpoints.calls"] == 1
    assert got["solvers.solve_sourced.calls"] == 1
    assert got["spectral.synthesize_columns.calls"] >= 1     # reached through field_from_modes
    assert got["trace.top_level_s"] == got["cli.cmd_inverse.s"] > 0
    assert got["solvers.solve_sourced.s"] < got["cli.cmd_inverse.s"]


def test_tracer_counts_flux_evaluations_only_inside_the_relaxation():
    from fbplab import solvers
    from fbplab.phase_model import PhaseParams
    from fbplab.spectral import CosineSeries, Grid

    params = PhaseParams.default()
    grid = Grid(math.pi, 0.05, 32, 9, 8)
    tracer = Tracer()
    tracer.install()
    try:
        solvers.solve_unstable_backward(CosineSeries(math.pi, [0.0, 0.1]), params, grid)
        assert tracer.summary()["solvers.solve_pseudoparabolic.pointwise_flux_calls"] == 0
        solvers.solve_pseudoparabolic(1.5 * np.cos(grid.x), 0.1, params, grid)
    finally:
        tracer.uninstall()
    assert tracer.summary()["solvers.solve_pseudoparabolic.pointwise_flux_calls"] > 0


def test_self_time_subtracts_direct_children_and_nesting_counts_once():
    tracer = Tracer()
    # battery [0, 10] with children [1, 4] and [5, 6]; a nested analyze inside the first
    tracer.spans.extend([
        ["verifier.run_triple_battery", 0.0, 10.0, -1, False],
        ["spectral.analyze_columns", 1.0, 4.0, 0, False],
        ["spectral.analyze_columns", 2.0, 3.0, 1, True],
        ["verifier.weak_residual", 5.0, 6.0, 0, False],
    ])
    got = tracer.summary()
    assert got["verifier.run_triple_battery.self_s"] == pytest.approx(6.0)
    assert got["spectral.analyze_columns.s"] == pytest.approx(3.0)
    assert got["spectral.analyze_columns.calls"] == 2
    assert got["trace.top_level_s"] == pytest.approx(10.0)


def test_runner_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "reference",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_sampler_probes_inside_a_pass_and_restores_the_alarm_handler():
    import signal
    import time

    from perfbench.calibration import INTERVAL, Sampler, probe, scale

    previous = signal.getsignal(signal.SIGALRM)
    sampler = Sampler()
    with sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 5 * INTERVAL:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.units) >= 3
    assert 0 < sampler.busy < 5 * INTERVAL
    assert sampler.mean == pytest.approx(sampler.busy / len(sampler.units))
    assert scale(probe(2)) > 0
