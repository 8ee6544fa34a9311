"""The public surface holds only what the program uses: every public
top-level name in src/contrastlab is referenced from the package itself or
from the benchmark's driver (perfbench/run.py, worker.py, workloads.py), or
is a function the benchmark traces (perfbench/layers.py). Tests do not count
as users. And only `encoder.embed` drops the trace of an `encode` call."""

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


def _is_encode_call(node):
    """`encode(...)` or `encoder.encode(...)`; not `str.encode`."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "encode") or (
        isinstance(func, ast.Attribute) and func.attr == "encode"
        and isinstance(func.value, ast.Name) and func.value.id == "encoder")


def _discarded_traces(tree):
    """Lines that take the output of an `encode(...)` call and drop its trace:
    `encode(...)[i]`, or an unpack that binds the trace to `_`. The body of
    `encoder.embed`, the one place that may, is skipped by the caller."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_encode_call(node.value):
            yield node.lineno
        elif (isinstance(node, ast.Assign) and _is_encode_call(node.value)
              and any(isinstance(t, ast.Tuple) and len(t.elts) == 2
                      and isinstance(t.elts[1], ast.Name) and t.elts[1].id == "_"
                      for t in node.targets)):
            yield node.lineno


def test_the_check_finds_every_form_of_a_discarded_trace():
    assert sorted(_discarded_traces(ast.parse(
        "a = encode(p, x)[0]\n"
        "b, _ = encoder.encode(p, x)\n"
        "c = encode(p, x)[1].output\n"
        "d, trace = encode(p, x)\n"
        "_, trace = encode(p, x)\n"
        "e = 'text'.encode()[0]\n"))) == [1, 2, 3]


def test_callers_that_discard_the_trace_call_embed():
    """Only `encoder.embed` runs `encode` for its output alone; every other
    caller either keeps the trace for a backward pass or calls `embed`, which
    never holds the trace of all N rows at once."""
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        tree = _parse(os.path.join(PACKAGE, name))
        if name == "encoder.py":
            tree.body = [node for node in tree.body
                         if not (isinstance(node, ast.FunctionDef) and node.name == "embed")]
        found += [f"{name}:{line}" for line in _discarded_traces(tree)]
    assert found == []
