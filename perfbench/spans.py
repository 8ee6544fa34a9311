"""Span tracing of contrastlab from outside the package.

`Tracer.install` replaces each traced function wherever a contrastlab module
has it bound (the defining module and every module that imported it), so the
spans come from the same code paths users run. `Tracer.uninstall` puts the
original objects back. Spans stay in memory until `write` is called.
"""

import json
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """Records (name, start, end, parent, root, minor faults) per call."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent, root, minflt]
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self.missing = []

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else index
        self.spans.append([name, 0, 0, parent, root, 0])
        self._stack.append(index)
        self.spans[index][5] = _minflt()
        self.spans[index][1] = time.perf_counter_ns()
        return index

    def _close(self, index):
        end = time.perf_counter_ns()
        span = self.spans[index]
        span[2] = end
        span[5] = _minflt() - span[5]
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name, name_from_args=None):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name_from_args(args) if name_from_args else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, package, targets):
        """Wrap every (module_name, function_name) in `targets`.

        Targets absent from the package are listed in `missing` and skipped,
        so the benchmark keeps running against a version that renamed them.
        If `cli` is loaded, `cli.main` is wrapped too and its span is named
        after the subcommand, e.g. `cli.linear-eval`.
        """
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        wrappers = {}
        for module_name, fn_name in targets:
            module = sys.modules.get(f"{package.__name__}.{module_name}")
            fn = getattr(module, fn_name, None) if module is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{fn_name}")
                continue
            wrappers.setdefault(id(fn), (fn, self._wrap(fn, f"{module_name}.{fn_name}")))
        cli = sys.modules.get(f"{package.__name__}.cli")
        if cli is not None:
            main = cli.main
            wrappers[id(main)] = (main, self._wrap(
                main, "cli.main", lambda args: "cli." + (args[0][0] if args and args[0] else "main")))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self, package, targets):
        self.install(package, targets)
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, root, flt in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "root": root, "minflt": flt}) + "\n")


def read_spans(path):
    with open(path) as fh:
        return [[d["name"], d["start_ns"], d["end_ns"], d["parent"], d["root"], d["minflt"]]
                for d in map(json.loads, fh)]


def self_totals(spans, totals=None):
    """Add to `totals`, keyed by (root span name, span name), the list
    [self_ns, calls, self_minflt].

    A span's self time is its duration minus that of its direct children;
    the same holds for its minor faults.
    """
    if totals is None:
        totals = defaultdict(lambda: [0, 0, 0])
    child_ns = [0] * len(spans)
    child_flt = [0] * len(spans)
    for name, start, end, parent, root, flt in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            child_flt[parent] += flt
    for i, (name, start, end, parent, root, flt) in enumerate(spans):
        entry = totals[(spans[root][0], name)]
        entry[0] += end - start - child_ns[i]
        entry[1] += 1
        entry[2] += flt - child_flt[i]
    return totals
