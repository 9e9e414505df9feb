"""No bare small threshold in the package: a float literal below 1e-3 inside a
function or class is a tolerance or a size whose scale nobody stated.  Each
one either becomes a named module constant (its comment gives the scale) or
stands in ``ALLOWED`` with its reason and the ROADMAP item that owns it.

Literals are keyed by file, enclosing function and value, not by line, so
an edit elsewhere in a file does not move them.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fbplab"

#: (file, qualified name of the enclosing function, value): why it may stay
ALLOWED = {
    ("controls.py", "control_table", 1e-6):
        "the size of the shifted-initial-datum control, not a tolerance (item 22)",
    ("counterexample.py", "assemble_state", 1e-12):
        "lower weight bound, absolute and distinct from WEIGHT_BOUND_TOL (item 27)",
    ("counterexample.py", "assemble_state", 1e-9):
        "upper weight bound, absolute and distinct from WEIGHT_BOUND_TOL (item 27)",
    ("solvers.py", "_profile_to_series", 1e-12):
        "relative match of a profile's interval length with the grid's (item 27)",
    ("solvers.py", "_profile_to_series", 1e-13):
        "the coefficient filter, which decides what regularize reports (items 8, 27)",
    ("solvers.py", "solve_sourced", 1e-12):
        "relative match of an InverseSource's start with its coefficients (item 27)",
    ("solvers.py", "inverse_source_from_endpoints", 1e-12):
        "relative match of the two endpoint profiles' interval lengths (item 27)",
    ("solvers.py", "_FrozenPattern.step", 1e-15):
        "the floor of the crossing bracket, relative to the step left (item 27)",
    ("spectral.py", "Grid.time_index", 1e-9):
        "how far a probe time may sit from its sample, relative to T (item 27)",
}


def small_literals(source: str, name: str) -> Counter:
    """(``name``, enclosing function, value) of each float literal of ``source``
    in (0, 1e-3) outside a module-level assignment, counted."""
    found = Counter()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            elif (isinstance(child, ast.Constant) and isinstance(child.value, float)
                  and 0.0 < child.value < 1e-3):
                found[(name, scope, child.value)] += 1
            elif not (node is tree and isinstance(child, (ast.Assign, ast.AnnAssign))):
                visit(child, scope)

    tree = ast.parse(source)
    visit(tree, "")
    return found


def test_the_scan_flags_a_literal_in_a_function():
    source = ("TOL = 1e-9\nSIZES: tuple = (1e-12,)\n\n"
              "class Flow:\n    def step(self, x):\n        return x > 1e-15 and x < 0.5\n\n"
              "def f(x, tol=1e-6):\n    y = 1e-4 * x\n    return -1e-4 * y, 2e3, 0.0\n")
    assert small_literals(source, "m.py") == Counter({
        ("m.py", "Flow.step", 1e-15): 1, ("m.py", "f", 1e-6): 1, ("m.py", "f", 1e-4): 2})


def test_every_small_literal_is_allowed_and_explained():
    found = sum((small_literals(p.read_text(), p.name) for p in sorted(PACKAGE.glob("*.py"))),
                Counter())
    assert found == Counter(ALLOWED.keys())
