"""Scenario file round trips, CLI exit codes, and output reproducibility."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fbplab
from fbplab.cli import main
from fbplab.config import FinalDatum, Margins, ScenarioConfig
from fbplab.errors import ConfigurationError
from fbplab.spectral import Grid


@pytest.fixture()
def small_config(tmp_path):
    base = ScenarioConfig.default()
    cfg = dataclasses.replace(
        base,
        grid=Grid(L=np.pi, T_end=1.0, n_x=64, n_t=128, n_modes=16),
        sources=((1.0,), (1.0, 0.3)),
        eps_list=(0.1,),
        output_dir=tmp_path / "out")
    path = tmp_path / "scenario.ini"
    cfg.to_file(path)
    return cfg, path


class TestScenarioConfig:
    def test_default_is_valid(self):
        cfg = ScenarioConfig.default()
        assert cfg.phase.sigma == -1.0
        assert cfg.grid.n_x == 128
        assert len(cfg.sources) == 3
        assert cfg.eps_list == (0.1, 0.01, 0.001)

    def test_file_round_trip(self, small_config):
        cfg, path = small_config
        back = ScenarioConfig.from_file(path)
        assert back.phase == cfg.phase
        assert back.grid == cfg.grid
        assert back.final_datum == cfg.final_datum
        assert back.sources == cfg.sources
        assert back.eps_list == cfg.eps_list
        assert back.margins == cfg.margins

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_file(tmp_path / "absent.ini")

    def test_broken_section(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[phase]\nb = -1\n")
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_file(path)

    @pytest.mark.parametrize("section, key, value, why", [
        pytest.param("grid", "n_mode", "64", "", id="grid-n_mode-64"),
        pytest.param("output", "directory", "elsewhere", "", id="output-directory-elsewhere"),
        # keys an older to_file wrote: the refusal says why they are gone
        pytest.param("phase", "gamma1", "2", "continuity", id="phase-gamma1-2"),
        pytest.param("phase", "gamma2", "-2", "continuity", id="phase-gamma2--2"),
        pytest.param("margins", "tol", "1e-08", "rate tolerance", id="margins-tol-1e-08")])
    def test_unknown_key_refused(self, small_config, capsys, section, key, value, why):
        # a misspelt key would otherwise be ignored and a different scenario run
        cfg, path = small_config
        assert ScenarioConfig.from_file(path).grid == cfg.grid
        text = path.read_text()
        assert text.count(f"[{section}]\n") == 1
        path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
        with pytest.raises(ConfigurationError, match=rf"\[{section}\].*\b{key}\b.*{why}"):
            ScenarioConfig.from_file(path)
        assert main(["counterexample", "--config", str(path)]) == 2
        assert f"[{section}]" in capsys.readouterr().err
        assert not Path(cfg.output_dir).exists()

    @pytest.mark.parametrize("text", ["[grid]\nn_x = 64\nn_x = 32\n", "n_x = 64\n[grid]\n"],
                             ids=["duplicate-key", "no-section"])
    def test_malformed_file_refused(self, tmp_path, text):
        # a parse error is a configuration error (exit 2), not a traceback
        path = tmp_path / "malformed.ini"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match="bad scenario file"):
            ScenarioConfig.from_file(path)
        assert main(["counterexample", "--config", str(path)]) == 2

    def test_invalid_margins(self):
        with pytest.raises(ConfigurationError):
            Margins(delta=0.0)

    @pytest.mark.parametrize("bad", [{"delta": float("nan")}, {"delta": float("inf")}])
    def test_nonfinite_margins(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            Margins(**bad)

    def test_margins_hold_only_construction_values(self):
        assert [f.name for f in dataclasses.fields(Margins)] == ["delta"]

    def test_final_datum_series(self):
        datum = FinalDatum(0.1, (1, 3))
        coeffs = datum.series(np.pi).coeffs
        assert coeffs[1] == coeffs[3] == 0.1
        assert coeffs[0] == coeffs[2] == 0.0
        with pytest.raises(ConfigurationError):
            FinalDatum(0.1, ())


class TestCounterexampleCommand:
    def test_success_and_outputs(self, small_config):
        cfg, path = small_config
        code = main(["counterexample", "--config", str(path)])
        assert code == 0
        out = Path(cfg.output_dir)
        summary = (out / "summary.txt").read_text()
        assert "SUCCESS" in summary
        assert (out / "fields" / "triple00_baseline_u.csv").exists()
        assert (out / "fields" / "triple01_sourced_lam.csv").exists()
        assert (out / "fields" / "triple01_sourced_u.meta.txt").exists()
        assert (out / "reports" / "triple01_sourced_checks.csv").exists()

    def test_empty_sources_reports_family_of_one(self, small_config, tmp_path):
        cfg, _ = small_config
        cfg = dataclasses.replace(cfg, sources=(), output_dir=tmp_path / "solo")
        path = tmp_path / "solo.ini"
        cfg.to_file(path)
        assert main(["counterexample", "--config", str(path)]) == 0
        summary = (tmp_path / "solo" / "summary.txt").read_text()
        assert "no non-uniqueness demonstrated (family size 1)" in summary

    def test_nonpositive_source_aborts_with_config_exit(self, small_config, tmp_path):
        cfg, _ = small_config
        cfg = dataclasses.replace(cfg, sources=((1.0,), (0.2, 0.5)),
                                  output_dir=tmp_path / "bad")
        path = tmp_path / "bad.ini"
        cfg.to_file(path)
        assert main(["counterexample", "--config", str(path)]) == 2

    def test_failed_battery_exits_1(self, small_config, tmp_path):
        # a source of 300 leaves its triple no certified time after t = 0, so
        # only the baseline passes: one passing triple is no demonstration
        cfg, _ = small_config
        cfg = dataclasses.replace(cfg, sources=((300.0,),),
                                  output_dir=tmp_path / "strict")
        path = tmp_path / "strict.ini"
        cfg.to_file(path)
        assert main(["counterexample", "--config", str(path)]) == 1
        assert "FAILURE" in (tmp_path / "strict" / "summary.txt").read_text()

    @pytest.fixture()
    def coarse_reference(self, tmp_path):
        cfg = dataclasses.replace(ScenarioConfig.default(),
                                  grid=Grid(L=np.pi, T_end=1.0, n_x=32, n_t=16, n_modes=8),
                                  output_dir=tmp_path / "coarse")
        path = tmp_path / "coarse.ini"
        cfg.to_file(path)
        return path

    def test_coarse_reference_fails(self, coarse_reference, tmp_path):
        assert main(["counterexample", "--config", str(coarse_reference)]) == 1
        assert (tmp_path / "coarse" / "summary.txt").read_text().endswith("FAILURE\n")

    def test_verdict_tolerances_not_settable(self, coarse_reference, tmp_path, capsys):
        # the same coarse run, with every retired tolerance set to inf: the
        # file is refused instead of turning FAILURE into SUCCESS
        retired = ("weak_tol", "entropy_tol", "certificate_tol", "identity_tol")
        text = coarse_reference.read_text()
        assert text.count("[margins]\n") == 1
        coarse_reference.write_text(text.replace(
            "[margins]\n", "[margins]\n" + "".join(f"{k} = inf\n" for k in retired)))
        assert main(["counterexample", "--config", str(coarse_reference)]) == 2
        err = capsys.readouterr().err
        assert all(k in err for k in retired)
        assert not (tmp_path / "coarse").exists()

    @pytest.mark.parametrize("key, value", [("delta", "nan")])
    def test_nonfinite_margin_exits_2(self, small_config, tmp_path, key, value):
        cfg, path = small_config
        lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
                 for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        assert main(["counterexample", "--config", str(path)]) == 2
        assert not Path(cfg.output_dir).exists()

    def test_zero_horizon_triple_fails_closed(self, small_config, tmp_path):
        # a source of 300 drives the weight to one within two time samples:
        # that triple has no certified time after t = 0, the others still count
        cfg, _ = small_config
        cfg = dataclasses.replace(cfg, sources=cfg.sources + ((300.0,),),
                                  output_dir=tmp_path / "steep")
        path = tmp_path / "steep.ini"
        cfg.to_file(path)
        assert main(["counterexample", "--config", str(path)]) == 0
        summary = (tmp_path / "steep" / "summary.txt").read_text()
        assert "certified horizon T_bar = 0\n" in summary
        assert "certificate-identity: FAIL nan" in summary
        assert "(0,3): no common certified time after t=0 -> skipped" in summary
        assert "3/4 triples pass the battery; pairwise distinct: True" in summary
        assert summary.endswith("SUCCESS\n")

    def test_deterministic_outputs(self, small_config, tmp_path):
        _, path = small_config
        assert main(["counterexample", "--config", str(path),
                     "--out", str(tmp_path / "run1")]) == 0
        assert main(["counterexample", "--config", str(path),
                     "--out", str(tmp_path / "run2")]) == 0
        files1 = sorted((tmp_path / "run1").rglob("*.csv"))
        assert files1
        for f1 in files1:
            f2 = tmp_path / "run2" / f1.relative_to(tmp_path / "run1")
            assert f1.read_bytes() == f2.read_bytes()


class TestRegularizeCommand:
    def test_pass(self, small_config):
        cfg, path = small_config
        code = main(["regularize", "--config", str(path)])
        assert code == 0
        text = (Path(cfg.output_dir) / "regularize_summary.txt").read_text()
        assert "PASS" in text

    def test_empty_eps_list_is_config_error(self, small_config, tmp_path):
        cfg, _ = small_config
        cfg = dataclasses.replace(cfg, eps_list=(), output_dir=tmp_path / "noeps")
        path = tmp_path / "noeps.ini"
        cfg.to_file(path)
        # an empty eps key round-trips to an empty tuple
        assert main(["regularize", "--config", str(path)]) == 2


class TestInverseCommand:
    def test_mean_shift(self, tmp_path):
        code = main(["inverse", "--a", "0", "--b", "1", "--T", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "inverse_summary.txt").read_text()
        assert "round-trip max-norm error" in text
        err = float(text.rsplit(":", 1)[1])
        assert err <= 1e-10
        assert (tmp_path / "inverse_source.csv").exists()

    def test_high_mode_overflow_exits_3(self, tmp_path):
        a = ",".join(["0"] * 39 + ["1"])
        b = ",".join(["1"] * 40)
        assert main(["inverse", "--a", a, "--b", b, "--T", "1",
                     "--out", str(tmp_path)]) == 3

    def test_unequal_lengths_exit_2(self, tmp_path):
        assert main(["inverse", "--a", "0,1", "--b", "1",
                     "--out", str(tmp_path)]) == 2

    def test_leading_minus_needs_equals_form(self, tmp_path):
        # argparse reads "-0.1,0.2" after a space as an option
        with pytest.raises(SystemExit) as exc:
            main(["inverse", "--a", "-0.1,0.2", "--b", "0.1,0.1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert main(["inverse", "--a=-0.1,0.2", "--b=-0.05,0.1", "--T", "0.5",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "inverse_source.csv").exists()


class TestTopLevel:
    def test_seed_check(self, capsys):
        assert main(["--seed-check"]) == 0
        assert "all controls rejected" in capsys.readouterr().out

    def test_no_command_is_config_error(self):
        assert main([]) == 2

    def test_out_flag_position_before_subcommand(self, small_config, tmp_path):
        _, path = small_config
        code = main(["--config", str(path), "--out", str(tmp_path / "pre"),
                     "regularize"])
        assert code == 0
        assert (tmp_path / "pre" / "regularize_summary.txt").exists()


class TestImportCost:
    def test_cli_import_leaves_out_scipy_integrate(self):
        # scipy.integrate would cost most of the CLI's start-up; the runtime
        # does its time quadrature in numpy and never loads it
        src = str(Path(fbplab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, fbplab.cli; print('scipy.integrate' in sys.modules)"],
            capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False"

    def test_commands_load_no_scipy(self, tmp_path):
        src = str(Path(fbplab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        code = ("import sys\n"
                "from fbplab.cli import main\n"
                f"codes = main(['counterexample', '--out', {str(tmp_path)!r}]), "
                "main(['--seed-check'])\n"
                "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.splitlines()[-1] == "(0, 0) []"
