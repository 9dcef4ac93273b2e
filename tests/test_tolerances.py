import ast
from pathlib import Path

import pedallab

PACKAGE = Path(pedallab.__file__).parent


def tolerance_names():
    """The upper-case constants that tolerances.py assigns."""
    tree = ast.parse((PACKAGE / "tolerances.py").read_text())
    return {target.id for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.isupper()}


def imported_tolerances(path):
    """The names a module imports from the package's tolerances module."""
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            and node.module in ("tolerances", "pedallab.tolerances")
            for alias in node.names}


def test_every_tolerance_is_read():
    # a constant no module imports decides nothing: it outlived its reader
    names = tolerance_names()
    assert names
    read = set().union(*(imported_tolerances(p) for p in PACKAGE.glob("*.py")
                         if p.name != "tolerances.py"))
    assert names - read == set()
