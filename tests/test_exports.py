"""Every name the package exports is reached by the program itself."""

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


def test_every_export_is_used_by_the_program():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py"))
    used = set().union(*(_used_names(p) for p in sources))
    unused = sorted(exported - used - {"__version__"})
    assert exported and not unused, f"exported but never used: {unused}"
