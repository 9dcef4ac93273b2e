import ast
import dataclasses
from pathlib import Path

import pedallab

PACKAGE = Path(pedallab.__file__).parent
REPO = Path(__file__).resolve().parents[1]


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


# exported names that no program line needs to read, each with its reason;
# the classes __init__ imports from the errors module are kept beside them,
# as what a caller of the package catches
ENTRY_POINTS = {
    "area_rule": "the documented area of a SampledCurve, and the bitwise "
                 "reference for doubling_rule's fine area",
    "find_cusps": "the cusp detector, documented beside self_intersections",
    "ConjectureReport": "what conjecture_check_contrapedal returns",
    "IdentityCheck": "what identity_suite returns a list of",
    "InvarianceReport": "what scan returns",
    "Crossing": "what self_intersections returns a list of",
}


def exported_names():
    """Each name pedallab/__init__.py imports, with the package module it
    imports it from (the package has no __all__)."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def loaded_names(path):
    """The names a file reads, as a name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_export_has_a_caller():
    # a public name that only tests call is test code in the package: it
    # moves into tests/ or goes, unless it is an entry point listed above
    exported = exported_names()
    program = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    program += [p for folder in ("scripts", "bench") for p in (REPO / folder).glob("*.py")]
    reads = {p: loaded_names(p) for p in program}
    uncalled = {name for name, module in exported.items()
                if not any(name in names for p, names in reads.items()
                           if p != PACKAGE / f"{module}.py")}
    errors = {name for name, module in exported.items() if module == "errors"}
    assert uncalled - errors - ENTRY_POINTS.keys() == set()
    assert ENTRY_POINTS.keys() - exported.keys() == set()


def attribute_reads(path):
    """Each attribute name a file loads, with the names of the classes whose
    bodies the load sits in."""
    reads = []

    def visit(node, classes):
        if isinstance(node, ast.ClassDef):
            classes = classes | {node.name}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append((node.attr, classes))
        for child in ast.iter_child_nodes(node):
            visit(child, classes)

    visit(ast.parse(path.read_text()), frozenset())
    return reads


def test_every_dataclass_field_is_read():
    # a field no program line reads is a setting no caller needs: it goes,
    # or moves into tests/ with its reader; the result types on
    # ENTRY_POINTS are exempt, as their fields are their output. A read in
    # the class's own body (its __post_init__, say) does not count. Reads
    # are matched by name, not by type: a load of .x on any object counts
    # for every field called x, so the guard sees only a field whose name
    # no other read shares
    program = list(PACKAGE.glob("*.py"))
    program += [p for folder in ("scripts", "bench") for p in (REPO / folder).glob("*.py")]
    reads = [read for p in program for read in attribute_reads(p)]
    types = [getattr(pedallab, name) for name in exported_names() if name not in ENTRY_POINTS]
    fields = [(cls.__name__, f.name) for cls in types
              if isinstance(cls, type) and dataclasses.is_dataclass(cls)
              for f in dataclasses.fields(cls)]
    assert fields
    unread = {f"{cls}.{name}" for cls, name in fields
              if not any(attr == name and cls not in classes for attr, classes in reads)}
    assert unread == set()
