"""The public surface holds only what the program uses: every public
top-level name in src/contrastlab is referenced from the package itself or
from the benchmark's driver (perfbench/run.py, worker.py, workloads.py), or
is a function the benchmark traces (perfbench/layers.py). Tests do not count
as users."""

import ast
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "contrastlab")
DRIVER = [os.path.join(ROOT, "perfbench", name) for name in ("run.py", "worker.py", "workloads.py")]


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _public_names(tree):
    """Names a module binds at top level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _references(tree):
    """Every name read, attribute read or import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _traced_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(ROOT, "perfbench", "layers.py"))
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return set(layers.traced_targets())


def test_every_public_name_has_a_user():
    modules = {name[:-3]: _parse(os.path.join(PACKAGE, name))
               for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")}
    used = set()
    for tree in [*modules.values(), *map(_parse, DRIVER)]:
        used.update(_references(tree))
    traced = _traced_targets()
    unused = [f"{module}.{name}" for module, tree in modules.items()
              for name in _public_names(tree) if name not in used and (module, name) not in traced]
    assert unused == []
