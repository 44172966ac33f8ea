"""The package root is the user API: it exports exactly the names that the
demos and the README's library sketch import from `e8umbral`, and every
other public name is imported from the module that owns it.  Every public
method of the package's classes, and every public function and class of
its modules, is reached by the program itself, and importing the CLI loads
every module that the benchmark traces."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "e8umbral"


def _used_names(source: str) -> set:
    """Names and attributes read in the source, not counting those inside
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

    walk(ast.parse(source), frozenset())
    return used


def _program_names() -> set:
    """Names read by the package modules and the demos."""
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py"))
    return set().union(*(_used_names(p.read_text()) for p in sources))


def _root_imports(source: str) -> set:
    """Names that the source imports from the package root."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module == "e8umbral" for alias in node.names}


def sketch_blocks() -> list:
    """The python blocks of README's library sketch."""
    sketch = re.search(r"^## Library sketch\n(.*?)^## ",
                       (ROOT / "README.md").read_text(), re.M | re.S)
    blocks = re.findall(r"^```python\n(.*?)^```", sketch.group(1),
                        re.M | re.S)
    assert blocks, "README's library sketch has no python block"
    return blocks


def _user_imports() -> set:
    """Names that the demos and the README's library sketch import from
    the package root."""
    sources = sketch_blocks() + [
        p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    return set().union(*map(_root_imports, sources))


def test_root_exports_exactly_the_user_api():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = _user_imports()
    unused = sorted(exported - used)
    assert not unused, f"exported but no demo or sketch imports: {unused}"
    missing = sorted(used - exported)
    assert not missing, f"imported from e8umbral but not exported: {missing}"


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


def test_every_public_function_and_class_is_used_by_the_program():
    # the method rule at module level: a function or class (a namedtuple
    # class included) that only the tests call belongs in the tests.  It
    # is read by a package module outside its own body, a demo or the
    # library sketch
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Call) and \
                    getattr(node.value.func, "id", None) == "namedtuple":
                names = [target.id for target in node.targets]
            else:
                continue
            defined |= {f"{path.stem}.{name}": name for name in names
                        if not name.startswith("_")}
    assert {"characters.Family", "characters.closed_series",
            "qseries.QSeries"} <= set(defined)
    used = _program_names().union(*map(_used_names, sketch_blocks()))
    unused = sorted(q for q, name in defined.items() if name not in used)
    assert not unused, f"public functions and classes never used: {unused}"


def test_cli_import_loads_every_traced_module():
    # bench/run.py --trace 1 imports e8umbral and e8umbral.cli and then
    # looks up each module of tracer.LAYERS in sys.modules; LAYERS is read
    # from the source so that the test imports nothing from bench
    tracer = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tracer.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(target, "id", None) == "LAYERS"
                          for target in node.targets))
    assert "cli" in layers and "theta" in layers
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys\n"
            "import e8umbral, e8umbral.cli\n"
            "print(*sorted(sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    missing = [m for m in layers if f"e8umbral.{m}" not in loaded]
    assert not missing, f"import e8umbral.cli does not load {missing}"
