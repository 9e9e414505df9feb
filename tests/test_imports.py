"""Every module of the package reads each name it imports, no package code is
reached only from the tests, every dataclass field is read, and mpmath is
loaded only by the steps that run in extended precision.

No linter is a dependency of the project, so the checks walk each module's
syntax tree with the standard library's ``ast``.  The import check leaves
``__init__.py`` out: it imports names to re-export them.  The reach check counts
those re-exports, which are the public interface, and the benchmark's sources
under ``perfbench/``, which time package functions by name.
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


def import_time_modules(source: str) -> list[str]:
    """Top-level names of the modules that ``source`` imports when it is itself
    imported: every import outside a function body."""
    found, pending = [], list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module.split(".")[0])
        pending.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_the_check_finds_import_time_imports():
    source = ("import numpy as np\nfrom os import path\nfrom .spectral import Grid\n"
              "if np:\n    import json\n\nclass C:\n    import re\n\n"
              "def f():\n    import mpmath as mp\n    return mp\n")
    assert import_time_modules(source) == ["json", "numpy", "os", "re"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_mpmath_at_import_time(module):
    assert "mpmath" not in import_time_modules((PACKAGE / module).read_text())


def test_float_runs_never_load_mpmath(tmp_path):
    # a fresh interpreter: this test process has imported mpmath already
    code = ("import sys\nimport fbplab.cli\n"
            f"status = fbplab.cli.main(['counterexample', '--out', {str(tmp_path)!r}])\n"
            "print(status, 'mpmath' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"
