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
from fbplab.config import SECTION_KEYS, ScenarioConfig
from fbplab.errors import ConfigurationError
from fbplab.phase_model import PhaseParams
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


def set_key(path, key: str, raw: str) -> None:
    """Rewrite the one line of ``key`` in the scenario file ``path`` to ``key = raw``."""
    text = path.read_text()
    lines = [line for line in text.splitlines() if line.startswith(f"{key} = ")]
    assert len(lines) == 1, lines
    path.write_text(text.replace(lines[0], f"{key} = {raw}"))


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
        assert back.delta == cfg.delta

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
        pytest.param("margins", "tol", "1e-08", "rate tolerance", id="margins-tol-1e-08"),
        pytest.param("final_datum", "amplitude", "0.1", "cosine coefficients",
                     id="final_datum-amplitude-0.1")])
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

    @pytest.mark.parametrize("section, key, value", [
        pytest.param("margin", "delta", "0.2", id="margin-delta"),
        pytest.param("outputs", "dir", "elsewhere", id="outputs-dir")])
    def test_unknown_section_refused(self, small_config, capsys, section, key, value):
        # a misspelt section would otherwise be ignored: delta 0.05, output in out
        cfg, path = small_config
        path.write_text(path.read_text() + f"\n[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigurationError, match=rf"unknown section.*\[{section}\]"):
            ScenarioConfig.from_file(path)
        assert main(["counterexample", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert all(f"[{known}]" in err for known in
                   ("phase", "grid", "final_datum", "sources", "margins",
                    "regularization", "output"))
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
        for bad in (0.0, -0.05):
            with pytest.raises(ConfigurationError, match="finite and positive"):
                dataclasses.replace(ScenarioConfig.default(), delta=bad)

    @pytest.mark.parametrize("bad", [{"delta": float("nan")}, {"delta": float("inf")}])
    def test_nonfinite_margins(self, bad):
        with pytest.raises(ConfigurationError, match="finite and positive"):
            dataclasses.replace(ScenarioConfig.default(), **bad)

    def test_margins_hold_only_construction_values(self):
        # [margins] is read into the one float ScenarioConfig.delta
        assert SECTION_KEYS["margins"] == ("delta",)
        assert type(ScenarioConfig.default().delta) is float

    def test_nan_margin_in_file_exits_2(self, small_config):
        cfg, path = small_config
        line = "delta = " + format(cfg.delta, ".17g")
        assert path.read_text().count(line) == 1
        path.write_text(path.read_text().replace(line, "delta = nan"))
        with pytest.raises(ConfigurationError, match="finite and positive"):
            ScenarioConfig.from_file(path)
        assert main(["counterexample", "--config", str(path)]) == 2
        assert not Path(cfg.output_dir).exists()

    @pytest.mark.parametrize("section, key, raw", [
        pytest.param("regularization", "eps", "0.1, nan", id="eps-nan"),
        pytest.param("regularization", "eps", "0.1, inf", id="eps-inf"),
        pytest.param("regularization", "eps", "0.1, -1", id="eps-negative"),
        pytest.param("sources", "f1", "1, nan", id="source-nan"),
        pytest.param("final_datum", "coefficients", "0, nan", id="coefficients-nan"),
        pytest.param("final_datum", "coefficients", "inf, 0.1", id="coefficients-inf")])
    def test_bad_value_refused_before_any_file(self, tmp_path, capsys, section, key, raw):
        # every value is checked when the scenario is read, before either command
        # writes a file; a NaN eps would otherwise reach the solver's eigh
        out = tmp_path / "out"
        cfg = dataclasses.replace(ScenarioConfig.default(), output_dir=out,
                                  grid=Grid(L=np.pi, T_end=1.0, n_x=32, n_t=33, n_modes=8))
        path = tmp_path / "bad.ini"
        cfg.to_file(path)
        set_key(path, key, raw)
        out.mkdir()
        for command in ("counterexample", "regularize"):
            assert main([command, "--config", str(path)]) == 2
            assert f"[{section}] {key}" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_source_built_in_code_is_named_by_position(self):
        with pytest.raises(ConfigurationError, match=r"\[sources\] source 1 coefficients"):
            dataclasses.replace(ScenarioConfig.default(), sources=((1.0,), (1.0, float("nan"))))

    def test_one_sample_build_window_refused_before_any_file(self, tmp_path, capsys):
        # at n_t = 2 the third reference source fails its weight bound at t = 1,
        # so its construction window would hold t = 0 alone
        out = tmp_path / "out"
        cfg = dataclasses.replace(ScenarioConfig.default(), output_dir=out,
                                  grid=Grid(L=np.pi, T_end=1.0, n_x=32, n_t=2, n_modes=8))
        path = tmp_path / "two.ini"
        cfg.to_file(path)
        out.mkdir()
        assert main(["counterexample", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "source 2" in err and "[grid] n_t = 2" in err, err
        assert not any(out.iterdir())

    def test_source_too_large_for_the_weight_formula_refused_before_any_file(
            self, tmp_path, capsys):
        # f = 1e300 drives a gap near 1e300, whose square the weight rate would form
        out = tmp_path / "out"
        cfg = dataclasses.replace(ScenarioConfig.default(), output_dir=out, sources=((1e300,),),
                                  grid=Grid(L=np.pi, T_end=1.0, n_x=32, n_t=33, n_modes=8))
        path = tmp_path / "huge.ini"
        cfg.to_file(path)
        out.mkdir()
        assert main(["counterexample", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "source 0" in err and "[sources]" in err, err
        assert len(err.splitlines()) == 1, err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", [
        "counterexample",
        pytest.param("regularize", marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 19: the viscous-entropy row is not invariant under the u-shift; "
            "at eps 0.1 it reads -1.046e-05 shifted, 0 unshifted (64x128x16)")))])
    def test_u_shift_keeps_verdicts_and_horizons(self, tmp_path, command):
        # u -> u + 1 with b and c shifted by 1 maps each triple to one with the
        # same v, lambda and horizons; the shifted datum 1 + 0.1 cos x, whose mean
        # is not 0, is written and read back as its coefficients 1, 0.1
        p = PhaseParams.default()
        shifted = PhaseParams(b=p.b + 1, c=p.c + 1, A=p.A, B=p.B,
                              alpha1=p.alpha1, alpha2=p.alpha2)
        grid = Grid(L=np.pi, T_end=1.0, n_x=64, n_t=128, n_modes=16)
        runs = {}
        for name, phase, datum in (("reference", p, (0.0, 0.1)),
                                   ("shifted", shifted, (1.0, 0.1))):
            cfg = dataclasses.replace(ScenarioConfig.default(), phase=phase, grid=grid,
                                      final_datum=datum, output_dir=tmp_path / name)
            path = tmp_path / f"{name}.ini"
            cfg.to_file(path)
            assert ScenarioConfig.from_file(path).final_datum == datum
            code = main([command, "--config", str(path)])
            summary = next((tmp_path / name).glob("*summary.txt")).read_text()
            runs[name] = code, [line for line in summary.splitlines()
                                if "certified horizon" in line]
        assert runs["reference"][0] == 0
        assert runs["shifted"] == runs["reference"]


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

    def test_binding_condition_written(self, small_config):
        cfg, path = small_config
        assert main(["counterexample", "--config", str(path)]) == 0
        out = Path(cfg.output_dir)
        summary = (out / "summary.txt").read_text().splitlines()
        horizons = [line for line in summary if "certified horizon" in line]
        assert horizons[0] == "  certified horizon T_bar = 1 (whole window)"
        assert horizons[1].endswith(" (binding: flux in (A+delta, B])")
        for tag, binding in (("triple00_baseline", "whole window"),
                             ("triple01_sourced", "flux in (A+delta, B]")):
            for name in ("u", "v", "lam"):
                meta = (out / "fields" / f"{tag}_{name}.meta.txt").read_text().splitlines()
                at = [line.split(":")[0] for line in meta].index("certified_horizon")
                assert meta[at + 1] == f"binding_condition: {binding}"

    def test_fields_hold_exactly_the_judged_samples(self, small_config, monkeypatch):
        # each field file, read back with float(), is the triple the battery
        # checked, bit for bit, and ends at the certified horizon of its meta file
        judged, battery = [], fbplab.verifier.run_triple_battery

        def recording(triple, *args):
            judged.append(triple)
            return battery(triple, *args)

        monkeypatch.setattr(fbplab.verifier, "run_triple_battery", recording)
        cfg, path = small_config
        assert main(["counterexample", "--config", str(path)]) == 0
        fields = Path(cfg.output_dir) / "fields"
        assert len(judged) == 3
        for i, triple in enumerate(judged):
            kind = "baseline" if i == 0 else "sourced"
            for name in ("u", "v", "lam"):
                stem = fields / f"triple{i:02d}_{kind}_{name}"
                lines = stem.with_suffix(".csv").read_text().splitlines()[1:]
                rows = np.array([[float(cell) for cell in line.split("\t")]
                                 for line in lines])
                assert rows[:, 0].tobytes() == triple.grid.t.tobytes(), stem.name
                want = np.ascontiguousarray(getattr(triple, name).values.T)
                assert rows[:, 1:].tobytes() == want.tobytes(), stem.name
                meta = dict(line.split(": ", 1) for line in
                            stem.with_suffix(".meta.txt").read_text().splitlines())
                assert rows[-1, 0] == float(meta["certified_horizon"]) == triple.t_bar

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
        # v = vbar + 300 t passes B = 1 at the first time sample
        assert "certified horizon T_bar = 0 (binding: flux in (A+delta, B])\n" in summary
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

    def test_empty_eps_list_is_config_error(self, small_config, capsys):
        cfg, path = small_config
        # an empty eps key reads as an empty tuple, which the scenario refuses
        set_key(path, "eps", "")
        assert main(["regularize", "--config", str(path)]) == 2
        assert "[regularization] eps" in capsys.readouterr().err
        assert not Path(cfg.output_dir).exists()

    def test_eps_values_sharing_a_tag_are_config_error(self, small_config, monkeypatch,
                                                       capsys):
        # both are eps0p001 in file names and 0.001 in the summary: the second run
        # would overwrite the first's files; the sweep is refused before any solve
        cfg, path = small_config
        set_key(path, "eps", "0.001, 0.0010000001")

        def no_solve(*args):
            raise AssertionError("a solve ran before the eps tags were checked")

        monkeypatch.setattr("fbplab.cli.solve_unstable_backward", no_solve)
        assert main(["regularize", "--config", str(path)]) == 2
        assert "[regularization] eps" in capsys.readouterr().err
        assert not Path(cfg.output_dir).exists()


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

    @pytest.mark.parametrize("option", ["--T=nan", "--T=inf", "--T=0", "--T=-1",
                                        "--a=nan,0.1", "--a=", "--a=0.1,x"])
    def test_bad_value_refused_before_any_file(self, tmp_path, capsys, option):
        # the last --a wins; a --T of inf would otherwise reach the solver's
        # overflow guard and exit 3
        assert main(["inverse", "--a", "0,0.1", "--b", "1,0.1", "--T", "1", option,
                     "--out", str(tmp_path)]) == 2
        assert option.split("=")[0] in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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


class TestMemoryRelease:
    def test_commands_unmap_large_arrays_when_freed(self):
        # fresh interpreters allocate and free a 16 MiB array twice; without a
        # command run first the C heap keeps the freed block resident, after
        # one it is unmapped at once, so repeated commands do not grow the process
        if not Path("/proc/self/statm").is_file():
            pytest.skip("needs /proc/self/statm")
        src = str(Path(fbplab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        code = ("import os, sys\n"
                "import numpy as np\n"
                "from fbplab.cli import main\n"
                "def resident():\n"
                "    with open('/proc/self/statm') as f:\n"
                "        return int(f.read().split()[1]) * os.sysconf('SC_PAGE_SIZE') / 2**20\n"
                "if sys.argv[1] == 'main':\n"
                "    main([])\n"
                "base = resident()\n"
                "for _ in range(2):\n"
                "    block = np.ones(2**21)\n"
                "    del block\n"
                "print(resident() - base)")
        kept = {}
        for first in ("nothing", "main"):
            out = subprocess.run([sys.executable, "-c", code, first], capture_output=True,
                                 text=True, env=env, check=True)
            kept[first] = float(out.stdout)
        if kept["nothing"] < 8.0:
            pytest.skip(f"this C library unmaps freed blocks by itself "
                        f"({kept['nothing']:.1f} MiB kept)")
        assert kept["main"] < 1.0
