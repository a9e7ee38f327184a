"""Every numeric threshold of the package lives in ``qudisc.tolerances``.

A standard-library ``ast`` scan, like ``test_imports``: a float literal
below 1e-4 in magnitude is a tolerance, and only the table may spell one.
"""

import ast
import textwrap
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qudisc"
TABLE = PACKAGE / "tolerances.py"
# Below this magnitude a float literal is taken for a tolerance.
SMALL = 1e-4


def small_literals(source: str) -> list[tuple[int, float]]:
    """(line, value) of every float literal with 0 < |value| < SMALL."""
    return sorted((node.lineno, node.value) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0.0 < abs(node.value) < SMALL)


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {TABLE}),
                         ids=lambda p: p.name)
def test_no_tolerance_outside_the_table(path):
    assert small_literals(path.read_text()) == []


def test_the_table_is_a_leaf_module():
    tree = ast.parse(TABLE.read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert small_literals(TABLE.read_text())


def test_the_scan_flags_what_it_should():
    source = textwrap.dedent('''
        TOL = 1e-9
        NEG = -5e-7
        STEP = 1e-4
        ZERO = 0.0
        N = 3

        def f(x, tol=2.5e-12):
            return x > 1e-300 and "1e-9"
    ''')
    assert small_literals(source) == [(2, 1e-9), (3, 5e-7), (8, 2.5e-12), (9, 1e-300)]
