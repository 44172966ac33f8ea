"""Every name the package exports, and every public method of its
classes, is reached by the program itself."""

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


def test_every_public_method_is_used_by_the_program():
    # a class's public surface earns its place the same way: a method
    # that only the tests call belongs in the tests
    methods = {f"{cls.name}.{node.name}": node.name
               for path in sorted(PACKAGE.glob("*.py"))
               for cls in ast.parse(path.read_text()).body
               if isinstance(cls, ast.ClassDef)
               for node in cls.body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")}
    assert {"QSeries", "IndefThetaData", "GroupClass", "IdentityReport"} \
        <= {qualified.split(".")[0] for qualified in methods}
    used = _program_names()
    unused = sorted(q for q, name in methods.items() if name not in used)
    assert not unused, f"public methods never used: {unused}"
