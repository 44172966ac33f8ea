"""Every name the package exports, and every public method of its series
type, is reached by the program itself."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "e8umbral"


def _used_names(path: Path) -> set:
    """Names and attributes read in the file, not counting those inside
    the body of the function or class that defines the same name."""
    used = set()

    def walk(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and name not in enclosing:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    walk(ast.parse(path.read_text()), frozenset())
    return used


def _program_names() -> set:
    """Names read by the package modules and the demos."""
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py"))
    return set().union(*(_used_names(p) for p in sources))


def test_every_export_is_used_by_the_program():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = sorted(exported - _program_names() - {"__version__"})
    assert exported and not unused, f"exported but never used: {unused}"


def test_every_public_qseries_method_is_used_by_the_program():
    # the series type's public surface earns its place the same way: a
    # method that only the tests call belongs in the tests
    tree = ast.parse((PACKAGE / "qseries.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "QSeries")
    methods = {node.name for node in cls.body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")}
    unused = sorted(methods - _program_names())
    assert methods and not unused, f"QSeries methods never used: {unused}"
