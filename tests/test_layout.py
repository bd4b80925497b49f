"""Source rules that hold only by review otherwise.

Self-checks in the package must run under ``python -O``, so they raise
exceptions instead of using ``assert``; and no module reaches into another
package module's private names.
"""

import ast
from pathlib import Path

import coblemukai

SRC = Path(coblemukai.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))
PACKAGE_MODULES = {p.stem for p in MODULES}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _module_aliases(tree: ast.Module, own: str) -> dict[str, str]:
    """Local names bound to other package modules, e.g. ``from . import exact``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            for a in node.names:
                if a.name in PACKAGE_MODULES and a.name != own:
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "coblemukai" and len(parts) == 2 and parts[1] != own:
                    aliases[a.asname or a.name] = parts[1]
    return aliases


def _violations(text: str, filename: str) -> list[str]:
    tree = ast.parse(text, filename=filename)
    aliases = _module_aliases(tree, Path(filename).stem)
    found = []
    for node in ast.walk(tree):
        where = f"{filename}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Assert):
            found.append(f"{where}: assert statement")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and _private(node.attr)):
            found.append(f"{where}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            found += [f"{where}: from .{node.module} import {a.name}"
                      for a in node.names if _private(a.name)]
    return found


def test_modules_found():
    assert {"exact", "lattice", "rootgraph", "catalog", "cli"} <= PACKAGE_MODULES


def test_no_assert_and_no_private_cross_module_access():
    found = [v for p in MODULES for v in _violations(p.read_text(encoding="utf-8"), p.name)]
    assert found == []


def test_guard_sees_both_rules():
    bad = (
        "from . import exact, lattice as lat\n"
        "from .rootgraph import _classify_shape\n"
        "assert lat.det(x)\n"
        "g = lat._basis_gram(x, b, 1)\n"
        "r = exact.snf(g).__class__\n"
        "self._own = 1\n"
    )
    assert _violations(bad, "catalog.py") == [
        "catalog.py:2: from .rootgraph import _classify_shape",
        "catalog.py:3: assert statement",
        "catalog.py:4: lat._basis_gram",
    ]
    # a module may use its own private names
    assert _violations("from . import lattice\nlattice._rows(l, v)\n", "lattice.py") == []
