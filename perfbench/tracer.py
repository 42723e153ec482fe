"""Outside-in tracer: wraps public hyperbetti functions with timing spans.

Nothing under src/ changes.  `install` rebinds each wrapped function in
every loaded hyperbetti module that holds it by name (verify imports its
layers with `from ... import ...`), so calls between modules are seen too.
Spans (name, start, end, parent) are kept in flat arrays until the run
ends; a span's self time is its duration minus the durations of its
direct children.  Counts are computed from the arguments and the returned
objects, outside the spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from math import comb
from time import perf_counter

CHECKS = (
    "check_first_power_simplex",
    "check_taylor_agreement",
    "check_lower_bounds",
    "check_survivor_sandwich",
    "check_reg_upper",
    "check_second_power",
    "check_min_gens",
    "check_vanishing",
)


def subsets_walked(m, cap, last=None):
    """Subsets `families` visits: all of sizes 1..cap, or up to and including `last`.

    families() walks sizes in increasing order and each size
    lexicographically, so an early stop after yielding `last` has visited
    every subset before it in that order.
    """
    if last is None:
        return sum(comb(m, s) for s in range(1, cap + 1))
    k = len(last)
    walked = sum(comb(m, s) for s in range(1, k))
    lo = 0
    for pos, v in enumerate(last):
        for skipped in range(lo, v):
            walked += comb(m - 1 - skipped, k - 1 - pos)
        lo = v + 1
    return walked + 1


class Tracer:
    def __init__(self):
        self.span_names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self._stack = []
        self.counts = Counter()
        self.maxima = Counter()
        self._patches = []

    # --- spans -----------------------------------------------------------
    def _nid(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(nid)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)

    def self_times(self):
        """Self seconds per span name, from the recorded nesting."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = dict.fromkeys(self.span_names, 0.0)
        for i in range(n):
            out[self.span_names[self.name_id[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    # --- wrappers --------------------------------------------------------
    def _wrap(self, fn, name, before=None, after=None, on_error=None):
        nid = self._nid(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                before(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if on_error:
                    on_error(exc)
                raise
            self._close(idx)
            if after:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def _wrap_families(self, fn, name):
        """families() is a generator: time each resume, not its creation."""
        nid = self._nid(name)

        @functools.wraps(fn)
        def wrapper(hypergraph, kind=None, size_cap=None):
            gen = fn(hypergraph, kind=kind, size_cap=size_cap)
            m = hypergraph.num_edges
            cap = m if size_cap is None else min(size_cap, m)
            last = None
            done = False
            try:
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        done = True
                        return
                    finally:
                        self._close(idx)
                    last = item[0]
                    yield item
            finally:
                gen.close()
                if done or last is not None:
                    self.counts["matchings.families_enumerated"] += subsets_walked(
                        m, cap, None if done else last)
        return wrapper

    def _patch(self, original, replacement):
        """Rebind `original` to `replacement` in every loaded hyperbetti module."""
        for modname, mod in list(sys.modules.items()):
            if modname != "hyperbetti" and not modname.startswith("hyperbetti."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def install(self, hb):
        """Wrap the public layer functions of the imported package `hb`."""
        betti, complexes, matchings, monomials, verify = (
            hb.betti, hb.complexes, hb.matchings, hb.monomials, hb.verify)
        c, mx = self.counts, self.maxima

        def rank_before(rows, char=0):
            nr = len(rows)
            nc = len(rows[0]) if nr else 0
            c["betti.rank.calls"] += 1
            c["betti.rank.nonempty"] += bool(nr and nc)
            mx["betti.rank.max_cells"] = max(mx["betti.rank.max_cells"], nr * nc)

        def boundary_after(bm, cx, i, j):
            c["betti.boundary.cells"] += len(bm.rows) * len(bm.cols)
            c["betti.boundary.nonzeros"] += sum(len(r) - r.count(0) for r in bm.entries)
            c["betti.boundary.label_blocks"] += len({cx.label_exps(f) for f in bm.cols})

        def complex_after(cx, *args, **kwargs):
            c["complexes.faces"] += cx.face_count
            mx["complexes.max_faces"] = max(mx["complexes.max_faces"], cx.face_count)

        def complex_error(exc):
            if isinstance(exc, hb.ResourceCapError):
                c["complexes.cap_hits"] += 1

        def graded_betti_before(*args, **kwargs):
            c["betti.graded_betti.calls"] += 1

        def generators_after(gens, *args, **kwargs):
            c["monomials.generators"] += len(gens)

        def count_families_before(hypergraph, kind, size, union_size=None):
            c["matchings.families_enumerated"] += comb(hypergraph.num_edges, size)

        wraps = [
            (betti.integer_rank, "betti.rank", rank_before, None, None),
            (betti.reduced_boundary, "betti.boundary", None, boundary_after, None),
            (betti.graded_betti, "betti.graded_betti", graded_betti_before, None, None),
            (betti.survivor_face_sets, "betti.survivor", None, None, None),
            (betti.bound_applicability, "betti.survivor", None, None, None),
            (complexes.faridi_complex, "complexes.faridi", None, complex_after, complex_error),
            (complexes.taylor_complex, "complexes.taylor", None, complex_after, complex_error),
            (monomials.power_generators, "monomials.power_generators", None,
             generators_after, None),
            (matchings.count_families, "matchings", count_families_before, None, None),
            (matchings.invariants, "matchings", None, None, None),
        ]
        wraps += [(getattr(verify, name), "verify." + name, None, None, None)
                  for name in CHECKS]
        for fn, name, before, after, on_error in wraps:
            self._patch(fn, self._wrap(fn, name, before, after, on_error))
        self._patch(matchings.families, self._wrap_families(matchings.families, "matchings"))

        table_for = verify.ComputeCache.table_for

        @functools.wraps(table_for)
        def counted_table_for(cache, ideal, t):
            before = c["betti.graded_betti.calls"]
            c["verify.cache.table_for_calls"] += 1
            table = table_for(cache, ideal, t)
            c["verify.cache.table_hits"] += c["betti.graded_betti.calls"] == before
            return table

        verify.ComputeCache.table_for = counted_table_for
        self._patches.append((verify.ComputeCache, "table_for", table_for))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
