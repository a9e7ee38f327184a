"""Every import in the package and its tests is used, and so is every public name.

A standard-library ``ast`` scan, so it needs no linter. An import inside a
function must be used inside that function; a module-level one anywhere in
the file. Names listed in ``__all__`` count as used (re-exports), and so do
names a module imports only so that ``perfbench/tracing.py`` can wrap them
where that module looks them up.

A name in ``qudisc.__all__`` must be read by the package or the benchmark,
not by tests alone: somewhere in a ``src/qudisc`` module other than
``__init__.py``, or in a ``perfbench/*.py`` file, outside its own definition.
"""

import ast
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qudisc").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
# Files whose reads keep a public name alive: the package's modules and the benchmark.
READERS = [path for path in sorted((ROOT / "src" / "qudisc").glob("*.py"))
           if path.name != "__init__.py"] + sorted((ROOT / "perfbench").glob("*.py"))


def _traced_names() -> set[tuple[str, str]]:
    """(module, name) pairs the benchmark's tracer replaces, read from its WRAPPED table."""
    tracing = ROOT / "perfbench" / "tracing.py"
    if not tracing.exists():
        return set()
    for node in ast.parse(tracing.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WRAPPED":
            table = ast.literal_eval(node.value)
            return {(module, path.split(".")[0]) for module, path, _ in table}
    return set()


def unused_imports(source: str, exempt: frozenset[str] = frozenset()) -> list[tuple[int, str]]:
    """(line, name) of every imported name its scope never reads."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def scope_of(node):
        while node in parents:
            node = parents[node]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node
        return tree

    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        scope = scope_of(node)
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and name not in exported and name not in exempt:
                found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts) \
        if path.is_relative_to(ROOT / "src") else None
    exempt = frozenset(name for mod, name in _traced_names() if mod == module)
    assert unused_imports(path.read_text(), exempt) == []


def test_the_scan_flags_what_it_should():
    source = textwrap.dedent('''
        import os
        import numpy as np
        from json import dumps, loads
        from .errors import ShapeError

        __all__ = ["ShapeError"]

        def f():
            from math import pi, tau
            return pi, np.zeros(1), loads

        def g():
            return tau
    ''')
    # tau is read in g, not in f, which imports it; os and dumps are never read
    assert unused_imports(source) == [(2, "os"), (4, "dumps"), (10, "tau")]
    assert unused_imports(source, frozenset({"os"})) == [(4, "dumps"), (10, "tau")]


def exported(source: str) -> list[str]:
    """The names a module's ``__all__`` lists."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def names_read(source: str) -> set[str]:
    """Every name a module reads, bare or as an attribute, outside the definition of itself.

    A top-level function or class that reads its own name (a recursive call,
    say) does not keep that name alive.
    """
    found = set()
    for stmt in ast.parse(source).body:
        read = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(stmt)
                if isinstance(node, ast.Attribute)
                or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found |= read - {getattr(stmt, "name", None)}
    return found


def test_every_public_name_has_a_reader():
    read = set().union(*(names_read(path.read_text()) for path in READERS))
    public = exported((ROOT / "src" / "qudisc" / "__init__.py").read_text())
    assert [name for name in public if name not in read] == []


def test_the_reader_scan_flags_what_it_should():
    source = textwrap.dedent('''
        import numpy as np

        def lonely(n):
            return lonely(n - 1) if n else np.pi

        def helper():
            return 1

        class Kept:
            size = helper()

        def show(obj):
            return obj.attribute, Kept, later()

        def later():
            return 2
    ''')
    # lonely reads only itself; helper, Kept and later are read by name, attribute as one
    read = names_read(source)
    assert {"helper", "Kept", "later", "attribute", "np", "pi"} <= read
    assert "lonely" not in read and "show" not in read
