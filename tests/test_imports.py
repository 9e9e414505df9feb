"""Every module of the package reads each name it imports, imports only modules
of lower layers, no package code is reached only from the tests, every function
and method of the package runs in some command, every dataclass field is read,
no module imports mpmath, which only the tests use, and importing the verifier
loads no construction code.

No linter is a dependency of the project, so the checks walk each module's
syntax tree with the standard library's ``ast``.  The import check leaves
``__init__.py`` out: it imports names to re-export them.  The reach check counts
those re-exports, which are the public interface, and the benchmark's sources
under ``perfbench/``, which time package functions by name.  It goes by name
only, so the call check (``sys.setprofile``) holds each method to its own class.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fbplab"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names that an import statement binds and no other line of ``source`` reads;
    a string annotation counts as read."""
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                read.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [name for name in bound if name not in read]


def test_the_check_flags_an_unused_name():
    source = ("from __future__ import annotations\nimport numpy as np\nimport os.path\n"
              "from x import a, b\n\ndef f(y: np.ndarray) -> 'os.PathLike':\n    return b(y)\n")
    assert unused_imports(source) == ["a"]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


#: the package's layers, lowest first: construction code depends on the judge
#: (``verifier``), never the reverse
LAYERS = ("errors", "spectral", "phase_model", "verifier", "solvers", "counterexample",
          "controls", "config", "cli")


def relative_imports(source: str) -> list[str]:
    """Package modules that ``source`` imports anywhere, as ``from .module import
    name`` or ``from . import module``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return sorted(found)


def test_the_check_finds_relative_imports():
    source = ("from . import a, b\nfrom .c import d\nimport e\nfrom f import g\n\n"
              "def h():\n    from .i import j\n")
    assert relative_imports(source) == ["a", "b", "c", "i"]


def test_every_module_has_a_layer():
    assert sorted(f"{m}.py" for m in LAYERS) == MODULES


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_only_lower_layers(module):
    lower = LAYERS[:LAYERS.index(module)]
    found = relative_imports((PACKAGE / f"{module}.py").read_text())
    assert [m for m in found if m not in lower] == []


def test_the_verifier_loads_no_construction_code():
    # a bare package object: fbplab/__init__.py would import every module
    code = ("import sys, types\n"
            f"package = types.ModuleType('fbplab')\npackage.__path__ = [{str(PACKAGE)!r}]\n"
            "sys.modules['fbplab'] = package\nimport fbplab.verifier\n"
            "print(*sorted(n for n in sys.modules if n.startswith('fbplab.')))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["fbplab.errors", "fbplab.phase_model", "fbplab.spectral",
                                   "fbplab.verifier"]


def _named(tree: ast.AST) -> Counter:
    """How often each name is read, looked up as an attribute or imported in ``tree``."""
    named = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named[node.id] += 1
        elif isinstance(node, ast.Attribute):
            named[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            named.update(alias.name for alias in node.names)
    return named


def unreached(sources: dict[str, str], elsewhere: str) -> list[str]:
    """``module.name`` of each function and class of ``sources`` ({file name: source})
    that no line of ``sources`` outside its own definition names, nor any word of
    ``elsewhere``; dunder methods are called implicitly and are left out."""
    trees = {name.removesuffix(".py"): ast.parse(text) for name, text in sources.items()}
    named, words = sum(map(_named, trees.values()), Counter()), set(re.findall(r"\w+", elsewhere))
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("__") and node.name not in words
            and named[node.name] == _named(node)[node.name]]


def test_the_check_flags_code_only_tests_reach():
    sources = {"a.py": "def used():\n    return 1\n\ndef planted():\n    return used()\n\n"
                       "def recursive(n):\n    return recursive(n - 1) if n else 0\n",
               "b.py": "from .a import used\n\nclass Timed:\n    def method(self):\n"
                       "        return 2\n\n    def __len__(self):\n        return 0\n"}
    assert unreached(sources, "SPANS = [('b', 'Timed'), ('b', 'method')]") == [
        "a.planted", "a.recursive"]


def test_package_code_is_reached_outside_the_tests():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    assert unreached(sources, bench) == []


def defined_functions(source: str) -> list[str]:
    """Qualified name of every function and method that ``source`` defines, as its
    code object names it: ``Class.method``, ``outer.<locals>.inner``."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef)
                      else prefix)

    visit(ast.parse(source), "")
    return found


#: argv: package, record, workdir, code.  Runs ``code`` with ``workdir`` bound to a
#: Path under a profile hook and writes to ``record`` the ``module.qualname`` of every
#: code object that it enters, imports included, in a module of ``package``
PROFILED_RUN = """
import sys
from pathlib import Path

package, record, workdir, code = sys.argv[1:]
entered = set()
sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code) if event == "call" else None)
exec(code, {"__name__": "__main__", "workdir": Path(workdir)})
sys.setprofile(None)
package = Path(package).resolve()
Path(record).write_text("".join(sorted(f"{Path(c.co_filename).stem}.{c.co_qualname}\\n"
                                       for c in entered
                                       if Path(c.co_filename).resolve().parent == package)))
"""


def uncalled(package: Path, code: str, workdir: Path, path: list[Path]) -> list[str]:
    """``module.qualname`` of each function and method defined in a module of
    ``package`` that ``code`` never enters, run in a fresh interpreter with
    ``path`` as its PYTHONPATH and ``workdir`` bound to the name ``workdir``."""
    record = workdir / "called.txt"
    done = subprocess.run([sys.executable, "-c", PROFILED_RUN, str(package), str(record),
                           str(workdir), code], capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(map(str, path))})
    assert done.returncode == 0, done.stderr
    called = set(record.read_text().splitlines())
    return [f"{p.stem}.{name}" for p in sorted(package.glob("*.py"))
            for name in defined_functions(p.read_text()) if f"{p.stem}.{name}" not in called]


PLANTED = ("class Live:\n    def label(self):\n        return 'live'\n\n"
           "class Dead:\n    def label(self):\n        return 'dead'\n\n"
           "    def _nested(self):\n        def inner():\n            return 0\n"
           "        return inner()\n\n"
           "def run():\n    return Live().label(), Dead()._nested()\n")


def test_the_call_check_holds_each_method_to_its_class(tmp_path):
    # Dead.label shares its name with the live Live.label, which the name-based
    # reach check cannot tell apart
    (tmp_path / "planted.py").write_text(PLANTED)
    assert unreached({"planted.py": PLANTED}, "run") == []
    assert uncalled(tmp_path, "import planted\nplanted.run()\n", tmp_path, [tmp_path]) == [
        "planted.Dead.label"]


#: package functions that no command calls, kept for their other readers; a name
#: leaves this list once a command calls it
NEVER_CALLED = [
    # perfbench's span list times these four single-check views by name
    "phase_model.certificate_integrand_extended",
    "verifier.certificate_identity_error",
    "verifier.pointwise_certificate",
    "verifier.viscous_entropy_residual",
    # public, and imported by the tests
    "verifier.entropy_inequality_residual",
]

#: the reference commands and the seed check, a scenario file written by
#: ``ScenarioConfig.to_file`` and read back by ``--config``, and the branch-crossing
#: relaxation that the reference commands leave out
EVERY_COMMAND = """
import numpy as np

from fbplab import cli
from fbplab.config import ScenarioConfig
from fbplab.phase_model import PhaseParams
from fbplab.solvers import solve_pseudoparabolic
from fbplab.spectral import Grid
from test_golden import COMMANDS, run_reference

run_reference(workdir)
ScenarioConfig.default().to_file(workdir / "scenario.ini")
assert cli.main(["--config", str(workdir / "scenario.ini"), "--out", str(workdir / "from_file"),
                 *COMMANDS["inverse"]]) == 0
grid = Grid(L=np.pi, T_end=1.0, n_x=128, n_t=256, n_modes=32)
solve_pseudoparabolic(0.9 * np.cos(grid.x), 1e-3, PhaseParams.default(), grid)
"""


def test_every_package_function_runs_in_a_command(tmp_path):
    found = uncalled(PACKAGE, EVERY_COMMAND, tmp_path, [ROOT / "src", ROOT / "tests"])
    assert sorted(found) == sorted(NEVER_CALLED)


def unread_fields(sources: dict[str, str], elsewhere: str) -> list[str]:
    """``module.Class.field`` of each annotated field of a dataclass in ``sources``
    that no attribute read of ``sources`` or of the Python source ``elsewhere`` names."""
    trees = {name.removesuffix(".py"): ast.parse(text) for name, text in sources.items()}
    read = {node.attr for tree in [*trees.values(), ast.parse(elsewhere)]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{module}.{cls.name}.{field.target.id}"
            for module, tree in trees.items() for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
            for field in cls.body
            if isinstance(field, ast.AnnAssign) and field.target.id not in read]


def test_the_check_flags_an_unread_field():
    sources = {"a.py": "@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int = 0\n\n"
                       "class Q:\n    z: int\n\ndef f(p):\n    p.w = 1\n    return p.x\n"}
    assert unread_fields(sources, "def g(p):\n    return p.w\n") == ["a.P.y"]


def test_dataclass_fields_are_read():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    assert unread_fields(sources, bench) == []


def imported_modules(source: str) -> list[str]:
    """Top-level names of the modules that ``source`` imports anywhere, function
    bodies included; relative imports are left out."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module.split(".")[0])
    return sorted(found)


def test_the_check_finds_import_time_imports():
    source = ("import numpy as np\nfrom os import path\nfrom .spectral import Grid\n"
              "if np:\n    import json\n\nclass C:\n    import re\n\n"
              "def f():\n    import mpmath as mp\n    return mp\n")
    assert imported_modules(source) == ["json", "mpmath", "numpy", "os", "re"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_mpmath_at_import_time(module):
    # nor later: mpmath is a test dependency, so no function body imports it either
    assert "mpmath" not in imported_modules((PACKAGE / module).read_text())


def test_float_runs_never_load_mpmath(tmp_path):
    # a fresh interpreter: this test process has imported mpmath already
    code = ("import sys\nfrom fbplab.cli import main\n"
            f"out = {str(tmp_path)!r}\n"
            "codes = [main(['counterexample', '--out', out + '/c']),\n"
            "         main(['regularize', '--out', out + '/r']),\n"
            "         main(['inverse', '--a=0.5,0.1', '--b=0.6,0.05', '--out', out + '/i'])]\n"
            "print(codes, 'mpmath' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] False"
