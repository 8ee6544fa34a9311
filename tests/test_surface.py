"""The public surface holds only what the program uses: every public
top-level name in src/contrastlab is referenced from the package itself or
from the benchmark's driver (perfbench/run.py, worker.py, workloads.py), or
is a function the benchmark traces (perfbench/layers.py). Tests do not count
as users. Only `encoder.embed` drops the trace of an `encode` call. And
`encoder` and `moco` raise no ConfigurationError: `RunConfig` and the file
loaders check what they are built from; nor does `data.Dataset` raise, and
the generators raise only for overflow, since `DataGenConfig` and the loaders
check what a dataset is built from. Outside `numerics`, only `contrastive`'s
checked losses convert operands with `as_matrix`: the probe and the cluster
indices take `embed`'s rows and `Dataset`'s labels as they are. No module
imports a name it never uses."""

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


def _configuration_errors(tree):
    """Lines that import ConfigurationError or raise it, by name or as an
    attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Raise) and node.exc is not None:
            names = [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.exc)
                     if isinstance(n, (ast.Name, ast.Attribute))]
        else:
            continue
        if "ConfigurationError" in names:
            yield node.lineno


def test_the_check_finds_every_form_of_a_configuration_error():
    assert sorted(_configuration_errors(ast.parse(
        "from .errors import ConfigurationError, FormatError\n"
        "raise ConfigurationError('x')\n"
        "raise errors.ConfigurationError('x') from None\n"
        "raise FormatError('x', 0)\n"
        "from .errors import FormatError\n"))) == [1, 2, 3]


def test_encoder_and_moco_leave_config_checks_to_the_boundaries():
    """A value `RunConfig` or a loader has checked is not checked again
    where the encoder or the moco state is built."""
    found = [f"{name}:{line}" for name in ("encoder.py", "moco.py")
             for line in _configuration_errors(_parse(os.path.join(PACKAGE, name)))]
    assert found == []


def _raises(node):
    """The source of every `raise` statement under `node`."""
    return [ast.unparse(n) for n in ast.walk(node) if isinstance(n, ast.Raise)]


def test_dataset_and_the_generators_leave_checks_to_the_boundaries():
    """`Dataset` raises nothing, and each generator raises only its
    `overflow` error, for features that leave float64."""
    tree = _parse(os.path.join(PACKAGE, "data.py"))
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert _raises(defs["Dataset"]) == []
    for name in ("generate_gaussian_clusters", "generate_spoke_clusters"):
        raised = _raises(defs[name])
        assert raised and set(raised) <= {"raise overflow", "raise overflow from None"}


def _as_matrix_calls(tree):
    """(top-level def or class, line) of each `as_matrix(...)` call, by name
    or as an attribute; the def is None for a call outside any."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and "as_matrix" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                yield owner, node.lineno


def test_the_check_finds_every_as_matrix_call():
    assert list(_as_matrix_calls(ast.parse(
        "x = as_matrix(a)\n"
        "def f(a):\n"
        "    return numerics.as_matrix(a, 'a')\n"
        "def g(a):\n"
        "    return as_f64(a), as_matrix\n"
        "class C:\n"
        "    def m(self):\n"
        "        return [as_matrix(b) for b in self]\n"))) == [(None, 1), ("f", 3), ("C", 8)]


# the functions outside `numerics` that may call `as_matrix`: the losses that
# check an outside caller's operands
AS_MATRIX_CALLERS = {"contrastive.py": {"infonce_loss", "mixed_query_loss", "_queue_operand"}}


def test_only_numerics_and_the_checked_losses_call_as_matrix():
    """`embed`'s rows and `Dataset`'s labels are float64 and int64 already;
    converting them again is a second check of a fact checked once."""
    found = [f"{name}:{line}" for name in sorted(os.listdir(PACKAGE))
             if name.endswith(".py") and name != "numerics.py"
             for owner, line in _as_matrix_calls(_parse(os.path.join(PACKAGE, name)))
             if owner not in AS_MATRIX_CALLERS.get(name, set())]
    assert found == []


def _read_names(tree):
    """Every name a module reads, in its code or in a quoted annotation."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    quoted = [ast.parse(n.value, mode="eval") for a in annotations if a is not None
              for n in ast.walk(a) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    for root in (tree, *quoted):
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id


def _unused_imports(tree):
    """`name:line` for each name an import binds that the module never reads."""
    read = set(_read_names(tree))
    return [f"{bound}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            for bound in [alias.asname or alias.name.split(".")[0]] if bound not in read]


def test_the_check_finds_every_unused_import():
    assert _unused_imports(ast.parse(
        "import os\n"
        "import numpy as np\n"
        "from .a import b, c as d\n"
        "import json\n"
        "import xml.dom\n"
        "def f(x: 'np.ndarray') -> d:\n"
        "    return json.dumps(x, default=xml.dom)\n")) == ["os:1", "b:3"]


def test_no_module_imports_a_name_it_never_uses():
    """`__init__.py` is exempt: its imports are the package's re-exports."""
    found = [f"{name}:{entry}" for name in sorted(os.listdir(PACKAGE))
             if name.endswith(".py") and name != "__init__.py"
             for entry in _unused_imports(_parse(os.path.join(PACKAGE, name)))]
    assert found == []
