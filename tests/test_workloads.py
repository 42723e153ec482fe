"""The benchmark calls the library through these files; keep what they call alive."""

import functools
import importlib.util
import re
from pathlib import Path

import pytest

import hyperbetti

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["corpus-verify", "betti-char0", "betti-charp"])
def test_workload_runs_and_checks(name):
    workload = load_workloads().WORKLOADS[name]
    items = workload.setup(hyperbetti, seed=1, seconds=1)
    for item in items[:3]:
        assert workload.check(hyperbetti, item, workload.run(hyperbetti, item)) is None


def test_record_names_exist():
    # record.py reads the package as `hb`, down to module attributes
    text = (PERFBENCH / "record.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\bhb\.(\w+(?:\.\w+)*)", text))
    assert {"Hypergraph", "edge_ideal", "verify.random_hypergraph"} <= names
    for name in names:
        functools.reduce(getattr, name.split("."), hyperbetti)
