"""Checks of the benchmark's own code; run with `python3 -m pytest perfbench`."""

import json
import os
import sys
import time
import types

from layers import per_layer_metrics, traced_targets
from run import END_TO_END_UNITS
from spans import Tracer, self_totals
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_metrics()


def test_every_traced_target_exists():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import contrastlab.cli  # noqa: F401  (loads every module the targets name)

    for module, fn in traced_targets():
        assert callable(getattr(sys.modules[f"contrastlab.{module}"], fn)), (module, fn)


def _fake_package():
    package = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")
    exec("import time\n"
         "def leaf():\n    time.sleep(0.02)\n"
         "def parent():\n    time.sleep(0.01)\n    leaf()\n",
         inner.__dict__)
    outer.leaf = inner.leaf  # bound by import, as `from .inner import leaf` would
    sys.modules.update({"fakepkg": package, "fakepkg.inner": inner, "fakepkg.outer": outer})
    return package, inner, outer


def test_tracer_wraps_every_binding_and_restores_it():
    package, inner, outer = _fake_package()
    originals = inner.leaf, inner.parent
    tracer = Tracer()
    try:
        with tracer.installed(package, [("inner", "leaf"), ("inner", "parent"),
                                        ("inner", "absent")]):
            assert outer.leaf is inner.leaf and outer.leaf is not originals[0]
            with tracer.span("root"):
                inner.parent()
                outer.leaf()
        assert (inner.leaf, inner.parent) == originals and outer.leaf is originals[0]
        assert tracer.missing == ["inner.absent"]
    finally:
        for name in ("fakepkg", "fakepkg.inner", "fakepkg.outer"):
            sys.modules.pop(name)

    names = [span[0] for span in tracer.spans]
    assert names == ["root", "inner.parent", "inner.leaf", "inner.leaf"]
    totals = self_totals(tracer.spans)
    root_span = tracer.spans[0]
    # self times partition the root span's duration
    assert sum(v[0] for v in totals.values()) == root_span[2] - root_span[1]
    assert totals[("root", "inner.leaf")][1] == 2
    parent_self_s = totals[("root", "inner.parent")][0] / 1e9
    assert 0.009 <= parent_self_s < 0.02 + time.get_clock_info("perf_counter").resolution
