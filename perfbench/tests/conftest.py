import os
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))


def _run_cli(*argv) -> int:
    from fbplab import cli
    return cli.main(list(argv))


@pytest.fixture(scope="session")
def pristine(tmp_path_factory):
    """Outputs of the reference counterexample, regularize and one inverse."""
    base = tmp_path_factory.mktemp("pristine")
    a, b = [0.1, -0.2, 0.05, 0.0, 0.01, 0.0, 0.0, 0.002], [0.3, 0.1, 0.0, -0.04, 0.0, 0.0, 0.0, 0.0]
    codes = {
        "cx": _run_cli("counterexample", "--out", str(base / "cx")),
        "reg": _run_cli("regularize", "--out", str(base / "reg")),
        "inv": _run_cli("inverse", "--a=" + ",".join(map(repr, a)),
                        "--b=" + ",".join(map(repr, b)), "--T", "1", "--out", str(base / "inv")),
    }
    assert codes == {"cx": 0, "reg": 0, "inv": 0}
    return {"dir": base, "a": a, "b": b}


@pytest.fixture
def outputs(pristine, tmp_path):
    """A private copy of the pristine outputs that a test may corrupt."""
    shutil.copytree(pristine["dir"], tmp_path / "out")
    return dict(pristine, dir=tmp_path / "out")
