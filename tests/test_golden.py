"""Byte-identity of the reference commands against a committed manifest.

``tests/golden/reference.sha256`` lists the relative path, size and SHA-256 of
every file that the built-in ``counterexample``, ``regularize`` and
``inverse`` write, and of the ``--seed-check`` stdout, together with the
Python, numpy and mpmath versions that wrote it.  A change that alters an
output on purpose regenerates the manifest in the same commit:

    PYTHONPATH=src python tests/test_golden.py

which prints each path whose size or SHA-256 changed, that was added, or that
went missing.  The reference commands relax on one branch only, so the
SHA-256 of one branch-crossing relaxation, which takes the frozen-pattern
steps, is pinned here as well; a change that alters it on purpose edits
``CROSSING``.
"""

import contextlib
import hashlib
import io
import os
import platform
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np

from fbplab import cli
from fbplab.phase_model import PhaseParams
from fbplab.solvers import solve_pseudoparabolic
from fbplab.spectral import Grid

MANIFEST = Path(__file__).parent / "golden" / "reference.sha256"
COMMANDS = {
    "counterexample": ["counterexample"],
    "regularize": ["regularize"],
    "inverse": ["inverse", "--a=0.5,0.1,-0.05,0.02", "--b=0.6,0.05,0.01,-0.01",
                "--T", "0.5"],
}
SEED_CHECK = "seed-check.stdout"
#: SHA-256 of u_modes and v_modes of 0.9 cos x relaxed at eps 1e-3 on 128x256x32
CROSSING = {"u_modes": "63f4f75086dc59afc41654ab31362ff197908afa07dd1fb41d5a65a3b4953f18",
            "v_modes": "8de85ded5b84e02fd9899597ee2f71206e4512775290e484e053a02de4cfacf2"}


def versions() -> str:
    return (f"python {platform.python_version()} numpy {np.__version__} "
            f"mpmath {mpmath.__version__}")


def run_reference(out: Path) -> None:
    """Run the four reference commands, each into its own directory under ``out``."""
    for name, argv in COMMANDS.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--out", str(out / name)]) == 0, name
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["--seed-check"]) == 0
    (out / SEED_CHECK).write_text(stdout.getvalue())


def digest(out: Path) -> dict[str, tuple[int, str]]:
    """{relative path: (size, sha256)} of every file under ``out``."""
    return {p.relative_to(out).as_posix(): (p.stat().st_size,
                                            hashlib.sha256(p.read_bytes()).hexdigest())
            for p in sorted(out.rglob("*")) if p.is_file()}


def read_manifest() -> tuple[str, dict[str, tuple[int, str]]]:
    lines = MANIFEST.read_text().splitlines()
    entries = {}
    for line in lines[1:]:
        sha, size, path = line.split(maxsplit=2)
        entries[path] = (int(size), sha)
    return lines[0].removeprefix("# "), entries


def write_manifest(entries: dict[str, tuple[int, str]]) -> None:
    MANIFEST.parent.mkdir(exist_ok=True)
    rows = [f"{sha}  {size}  {path}" for path, (size, sha) in entries.items()]
    MANIFEST.write_text("\n".join([f"# {versions()}"] + rows) + "\n")


def compare(want: dict, written: dict) -> tuple[list[str], list[str], list[str]]:
    """(changed, missing, added) paths of ``written`` against ``want``."""
    return (sorted(p for p in want.keys() & written.keys() if want[p] != written[p]),
            sorted(want.keys() - written.keys()), sorted(written.keys() - want.keys()))


def test_reference_outputs_match_manifest(tmp_path):
    run_reference(tmp_path)
    written, (wrote_with, want) = digest(tmp_path), read_manifest()
    differ, missing, extra = compare(want, written)
    assert not (differ or missing or extra), (
        f"differ: {differ}; missing: {missing}; not in the manifest: {extra} "
        f"(manifest written with {wrote_with}, this run {versions()})")


def test_crossing_relaxation_keeps_its_bits():
    grid = Grid(L=np.pi, T_end=1.0, n_x=128, n_t=256, n_modes=32)
    sol = solve_pseudoparabolic(0.9 * np.cos(grid.x), 1e-3, PhaseParams.default(), grid)
    got = {name: hashlib.sha256(getattr(sol, name).tobytes()).hexdigest() for name in CROSSING}
    assert got == CROSSING, f"this run {versions()}"


def test_outputs_keep_their_bits_on_one_blas_thread():
    # the checks above, rerun in a fresh interpreter whose OpenBLAS is pinned to
    # one thread before numpy loads; -k keeps this test out of that run
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "not one_blas_thread"],
        env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0 and "2 passed, 1 deselected" in run.stdout, run.stdout + run.stderr


if __name__ == "__main__":
    import tempfile

    if len(sys.argv) > 1:  # it takes no options: refuse before the manifest is touched
        sys.stderr.write(f"usage: PYTHONPATH=src python {sys.argv[0]}\n"
                         "  rewrites the manifest from a fresh run of the reference "
                         "commands; takes no arguments\n")
        sys.exit(2)
    before = read_manifest()[1] if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        run_reference(Path(tmp))
        after = digest(Path(tmp))
    write_manifest(after)
    for label, paths in zip(("changed", "missing", "added"), compare(before, after)):
        sys.stdout.writelines(f"{label}: {path}\n" for path in paths)
    sys.stdout.write(f"wrote {MANIFEST}\n")
