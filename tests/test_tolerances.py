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


def unread_imports(path):
    """The names a module imports and never reads: bound by an import (the
    first part of a dotted one), yet never loaded as a name."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    bound = {(alias.asname or alias.name).split(".")[0] for node in nodes
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    read = {node.id for node in nodes
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_every_import_is_read():
    # an import no line reads outlived its reader; __init__ imports to export
    unread = {p.name: unread_imports(p) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    assert {name: names for name, names in unread.items() if names} == {}
