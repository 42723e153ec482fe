"""The benchmark tracer binds library functions by name; keep those names alive."""

import importlib.util
import sys
from pathlib import Path

import hyperbetti
from hyperbetti.hypergraph import edge_ideal
from hyperbetti.verify import ComputeCache, run_checks

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hyperbetti_bindings():
    # the callables only: those are what the tracer rebinds, while module
    # state such as the memo's byte count moves as the checks run
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "hyperbetti" or name.startswith("hyperbetti.")
            for attr, value in vars(mod).items() if callable(value)}


def test_tracer_wraps_and_restores_the_library(path5):
    tracer_module = load_tracer()
    before = hyperbetti_bindings()
    table_for = ComputeCache.table_for
    tracer = tracer_module.Tracer()
    try:
        tracer.install(hyperbetti)
        assert ComputeCache.table_for is not table_for
        reports = run_checks(path5, t_max=2, cache=ComputeCache(), label="path5")
    finally:
        tracer.uninstall()
    assert reports and not any(r.failed for r in reports)
    self_times = tracer.self_times()
    names = ["betti.graded_betti", "complexes.faridi"]
    names += ["verify." + name for name in tracer_module.CHECKS]
    for name in names:
        assert self_times.get(name, 0) > 0, name
    assert hyperbetti_bindings() == before
    assert ComputeCache.table_for is table_for


def test_tracer_sees_every_complex_the_cache_builds(path5):
    # the cache's table reads each builder by name, so the tracer's rebinding is seen
    tracer = load_tracer().Tracer()
    try:
        tracer.install(hyperbetti)
        for kind in ("faridi", "taylor"):
            ComputeCache().complex_for(edge_ideal(path5), 1, kind)
    finally:
        tracer.uninstall()
    self_times = tracer.self_times()
    for name in ("complexes.faridi", "complexes.taylor"):
        assert self_times.get(name, 0) > 0, name
