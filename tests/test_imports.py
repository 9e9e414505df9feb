"""Every module of the package reads each name it imports.

No linter is a dependency of the project, so the check walks each module's
syntax tree with the standard library's ``ast``.  ``__init__.py`` is left out:
it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fbplab"
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
