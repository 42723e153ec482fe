from pathlib import Path

import pytest

from hyperbetti import Hypergraph, betti, complexes

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture
def path5():
    return Hypergraph(5, [[1, 2, 3], [3, 4, 5]], labels=list("abcde"))


@pytest.fixture
def example39():
    return Hypergraph(9, [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 4, 7]])


@pytest.fixture
def four_cycle():
    return Hypergraph(4, [[1, 2], [2, 3], [3, 4], [1, 4]])


@pytest.fixture
def data_dir():
    return DATA_DIR


@pytest.fixture
def kernel_runs(monkeypatch):
    """The complexes that graded_betti hands to the kernel, in order."""
    runs = []
    real = betti._pairs
    monkeypatch.setattr(betti, "_pairs", lambda cx, char: runs.append(cx) or real(cx, char))
    return runs


@pytest.fixture
def empty_memo(monkeypatch):
    """A fresh, empty memo for one test: no skeleton, Lyubeznik complex or
    shape, and with them no memoized pairing, and nothing held against the
    byte bound.  Each first build of a skeleton, Lyubeznik key or shape
    misses, and graded_betti runs the kernel on the first query of each
    labelled skeleton."""
    monkeypatch.setattr(complexes, "_skeletons", {})
    monkeypatch.setattr(complexes, "_shapes", {})
    monkeypatch.setattr(complexes, "_held", 0)
    return complexes._skeletons
