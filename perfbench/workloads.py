"""The benchmark's workloads: inputs drawn from the seed, one pass of operations
and the output check of each operation.

An operation is a callable returning a CLI exit code or, for the direct
relaxation solve, the solution itself.  It fails when it raises or exits
non-zero; the outputs of every operation that did not fail are checked.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
from pathlib import Path

import numpy as np
from fbplab import cli, solvers
from fbplab.config import ScenarioConfig
from fbplab.spectral import Grid

from . import checks

REFINED_GRID = dict(n_x=512, n_t=2048, n_modes=128)


def _coefficients(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.out = Path(work) / self.name

    def setup_statements(self) -> str:
        """Python statements a fresh interpreter runs after importing fbplab.cli
        to build this workload's scenario; ``setup_s`` times them."""
        return "from fbplab.config import ScenarioConfig\nScenarioConfig.default()"

    def operations(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def warm_up_operations(self) -> list[tuple[str, object]]:
        return self.operations()

    def clear(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def check(self, operation: str, result) -> None:
        raise NotImplementedError

    def _cli(self, *argv: str):
        return lambda: cli.main(list(argv))


class Reference(Workload):
    """The built-in scenario as the README runs it, plus one inverse whose
    8-coefficient endpoint pair the seed draws."""

    name = "reference"
    EPS = (0.1, 0.01, 0.001)

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        rng = np.random.default_rng(seed)
        scale = 0.5 / (1.0 + np.arange(8))
        self.a = rng.uniform(-1.0, 1.0, 8) * scale
        self.b = rng.uniform(-1.0, 1.0, 8) * scale

    def operations(self):
        return [
            ("counterexample", self._cli("counterexample", "--out", str(self.out / "cx"))),
            ("regularize", self._cli("regularize", "--out", str(self.out / "reg"))),
            # "--a=" keeps argparse from reading a leading minus as an option
            ("inverse", self._cli("inverse", "--a=" + _coefficients(self.a),
                                  "--b=" + _coefficients(self.b), "--T", "1",
                                  "--out", str(self.out / "inv"))),
        ]

    def check(self, operation, result):
        if operation == "counterexample":
            checks.check_counterexample(self.out / "cx", result)
        elif operation == "regularize":
            checks.check_regularize(self.out / "reg", result, self.EPS)
        else:
            checks.check_inverse(self.out / "inv", result, self.a, self.b, 1.0)


class ConfiguredWorkload(Workload):
    """A workload whose scenario is the built-in one with some fields
    replaced, handed to the CLI as a scenario file."""

    def __init__(self, seed: int, work: Path, **changes):
        super().__init__(seed, work)
        self.config = dataclasses.replace(ScenarioConfig.default(), **changes)
        self.ini = Path(work) / f"{self.name}.ini"
        self.config.to_file(self.ini)

    def setup_statements(self) -> str:
        return ("from fbplab.config import ScenarioConfig\n"
                f"ScenarioConfig.from_file({str(self.ini)!r})")


class Refined(ConfiguredWorkload):
    """``counterexample`` on the built-in scenario at 512 x 2048 with 128 modes.

    The seed draws nothing: the scenario is fixed.  A full-size warm-up pass
    would double the run, so the warm-up is ``counterexample`` at the
    reference grid, which loads the same code.
    """

    name = "refined"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work, grid=Grid(math.pi, 1.0, **REFINED_GRID))

    def operations(self):
        return [("counterexample", self._cli("counterexample", "--config", str(self.ini),
                                             "--out", str(self.out / "cx")))]

    def warm_up_operations(self):
        return [("counterexample", self._cli("counterexample", "--out", str(self.out / "cx")))]

    def check(self, operation, result):
        checks.check_counterexample(self.out / "cx", result)


class VanishingEps(ConfiguredWorkload):
    """``regularize`` at eps 1e-3/3e-4/1e-4, then one relaxation solve at
    eps 1e-3 from the crossing datum a cos x with a drawn from [0.85, 0.95].

    The warm-up is ``regularize`` on the built-in scenario and the crossing
    solve, which load the same code in a sixth of the time of a pass.
    """

    name = "vanishing-eps"
    EPS = (1e-3, 3e-4, 1e-4)
    CROSSING_EPS = 1e-3

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work, eps_list=self.EPS)
        self.amplitude = float(np.random.default_rng(seed).uniform(0.85, 0.95))
        grid = self.config.grid
        self.u0 = self.amplitude * np.cos(math.pi * grid.x / grid.L)

    def operations(self):
        return [
            ("regularize", self._cli("regularize", "--config", str(self.ini),
                                     "--out", str(self.out / "reg"))),
            ("crossing", lambda: solvers.solve_pseudoparabolic(
                self.u0, self.CROSSING_EPS, self.config.phase, self.config.grid)),
        ]

    def warm_up_operations(self):
        return [("warm-up regularize", self._cli("regularize", "--out", str(self.out / "reg"))),
                self.operations()[1]]

    def check(self, operation, result):
        if operation == "regularize":
            checks.check_regularize(self.out / "reg", result, self.EPS)
        elif operation == "warm-up regularize":
            checks.check_regularize(self.out / "reg", result, Reference.EPS)
        else:
            checks.check_crossing(result.grid.x, result.u_eps.values)


WORKLOADS = {cls.name: cls for cls in (Reference, Refined, VanishingEps)}
