"""Instance-level checks of every bound the computed tables must satisfy.

Each check evaluates its hypotheses on a concrete hypergraph, computes
both sides of the promised inequality or equality exactly, and records
the numbers it compared.  A failed check whose hypotheses hold marks a
defect; the harness exits nonzero on any such report.
"""

from __future__ import annotations

import functools
import json
import operator
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations, combinations_with_replacement
from math import comb

from .betti import bound_applicability, graded_betti, survivor_face_sets
from .complexes import faridi_complex, lyubeznik_power_complex, taylor_complex
from .errors import DomainError, ResourceCapError, check_budget, format_count
from .hypergraph import Hypergraph, edge_ideal
from .matchings import families
from .monomials import power_generators

CORPUS_MAX_FACES = 1 << 14

# Supporting complexes of I^t by name, built as build(cache, ideal, t); each
# lambda reads its builder's module global at call time, so a rebinding is seen.
COMPLEXES = {
    "taylor": lambda cache, ideal, t: taylor_complex(cache.generators_for(ideal, t),
                                                     cache.max_faces),
    "faridi": lambda cache, ideal, t: faridi_complex(ideal, t, max_faces=cache.max_faces),
    "lyubeznik": lambda cache, ideal, t: lyubeznik_power_complex(
        ideal, t, functools.partial(cache.generators_for, ideal, t), cache.max_faces),
}


@dataclass
class CheckReport:
    check: str
    instance: str
    hypothesis_satisfied: bool
    conclusion_holds: bool | None
    witness: dict = field(default_factory=dict)

    @property
    def failed(self):
        return self.hypothesis_satisfied and self.conclusion_holds is False

    @property
    def gated(self):
        return not self.hypothesis_satisfied

    def to_json(self):
        return json.dumps({
            "check": self.check,
            "instance": self.instance,
            "hypothesis_satisfied": self.hypothesis_satisfied,
            "conclusion_holds": self.conclusion_holds,
            "witness": self.witness,
        }, sort_keys=True, separators=(",", ":"))


def describe(hypergraph):
    return f"n={hypergraph.n} edges={[list(e) for e in hypergraph.edge_sets()]}"


class ComputeCache:
    """One memo of the edge ideal and family facts per hypergraph, of each
    complex in COMPLEXES and the Betti table per (ideal, power), and of
    subideals; the generators of a power are read off its support complex.
    A build over a resource cap is kept as its message, and each lookup
    raises a fresh ResourceCapError with it: a kept exception would hold
    the traceback of its build and, through it, the cache.  Labels decide
    boundary terms; degrees grade them."""

    def __init__(self, char=0, max_faces=CORPUS_MAX_FACES):
        self.char = char
        self.max_faces = max_faces
        self._memo = {}
        self._capped = {}  # key -> message of the build's ResourceCapError

    def _get(self, key, build):
        value = self._memo.get(key)  # no memoized build is None
        if value is None:
            message = self._capped.get(key)
            if message is None:
                try:
                    value = self._memo[key] = build()
                except ResourceCapError as e:
                    message = self._capped[key] = str(e)
            if message is not None:
                raise ResourceCapError(message)
        return value

    def ideal_for(self, hypergraph):
        return self._get(("ideal", hypergraph), lambda: edge_ideal(hypergraph))

    def complex_for(self, ideal, t, kind="faridi"):
        return self._get(("complex", ideal, t, kind), lambda: COMPLEXES[kind](self, ideal, t))

    def generators_for(self, ideal, t):
        """The minimal generators of the t-th power: the vertices of the
        memoized support complex, walked afresh only when there is none."""
        cx = self._memo.get(("complex", ideal, t, "faridi"))
        return power_generators(ideal, t) if cx is None else cx.vertices

    def table_for(self, ideal, t):
        return self._get(("table", ideal, t), lambda: graded_betti(
            self.complex_for(ideal, t), char=self.char, power=t))

    def ideal_regularity(self, ideal, t):
        """Regularity of the t-th power in the ideal convention; power 0 is R itself."""
        if t == 0:
            return 0
        return self.table_for(ideal, t).regularity() + 1

    def family_facts(self, hypergraph):
        """(types, matchings, induced), folded from one walk of the self
        matchings: the self-semi-induced families by type (size, union size),
        each list in walk order; the number of matchings of each size; and the
        induced matching number, all over self matchings.  No other family is
        read: a matching's vertices are all private, and a self-semi-induced or
        induced family is by definition a self matching or a matching.  No list
        of the families is kept."""
        def fold():
            types, matchings, induced = {}, Counter(), 0
            for idx, cls in families(hypergraph, kind="self_matching"):
                if cls.is_self_semi_induced:
                    types.setdefault(cls.family_type, []).append(idx)
                matchings[len(idx)] += cls.is_matching
                if cls.is_induced:
                    induced = len(idx)  # the walk goes by size
            return types, matchings, induced
        return self._get(("families", hypergraph), fold)


class _Unmet(Exception):
    """Raised by a check body whose hypotheses fail, with a dict of witness
    fields as its argument."""


def _defaults(hypergraph, cache, label):
    return cache or ComputeCache(), label or describe(hypergraph)


def _check(name, needs):
    """Turn a check body into a check that returns a CheckReport.

    The check is called as check(hypergraph, *args, cache=None, label=None)
    and gates on `needs` first: "edges" (at least one edge) or "uniform"
    (all edges of one size).  The body is called as body(hypergraph, ideal,
    cache, *args) and returns (holds, witness).  A ResourceCapError or a
    _Unmet from the body becomes a gated report.
    """
    def decorate(body):
        def check(hypergraph, *args, cache=None, label=None):
            cache, label = _defaults(hypergraph, cache, label)
            satisfied, holds = False, None
            if needs == "edges" and hypergraph.num_edges == 0:
                witness = {"reason": "no edges"}
            elif needs == "uniform" and hypergraph.uniform_size() is None:
                witness = {"reason": "not uniform"}
            else:
                try:
                    holds, witness = body(hypergraph, cache.ideal_for(hypergraph), cache, *args)
                    satisfied = True
                except ResourceCapError as e:
                    witness = {"reason": f"resource cap: {e}"}
                except _Unmet as e:
                    witness = {"reason": "hypotheses not satisfied", **e.args[0]}
            return CheckReport(name, label, satisfied, holds, witness)
        # not functools.wraps: its __wrapped__ would show the body's signature
        check.__name__ = check.__qualname__ = body.__name__
        check.__doc__ = body.__doc__
        return check
    return decorate


def _survivor_case(table, i, j, bounds):
    """The Betti number at (i, j) against the survivor counts, "ok" where `bounds` apply."""
    beta = table.betti(i, j)
    return {"i": i, "j": j, "beta": beta, "certain": bounds.certain, "possible": bounds.possible,
            "upper_applies": bounds.upper, "lower_applies": bounds.lower,
            "ok": ((not bounds.upper or beta <= bounds.possible)
                   and (not bounds.lower or beta >= bounds.certain))}


@_check("second_power_sandwich", needs="uniform")
def check_second_power(hypergraph, ideal, cache):
    """Both-sided survivor bounds at degree 2di for the square of the ideal,
    and the matching-count test: fewer than 2^i size-i matchings forces the
    (i, 2di) Betti number of the square to vanish."""
    d = hypergraph.uniform_size()
    cx = cache.complex_for(ideal, 2)
    table = cache.table_for(ideal, 2)
    _, matchings, _ = cache.family_facts(hypergraph)
    cases = []
    for i in range(2, cx.dim + 2):
        bounds = bound_applicability(cx, i, 2 * d * i)
        case = _survivor_case(table, i, 2 * d * i, bounds)
        n_matchings = matchings[i]
        ok = bounds.upper and bounds.lower and case["ok"]
        if n_matchings < 2 ** i:
            ok = ok and case["beta"] == 0
        case.update(matchings=n_matchings, ok=ok)
        cases.append(case)
    return all(case["ok"] for case in cases), {"d": d, "cases": cases}


@_check("power_betti_lower_bounds", needs="edges")
def check_lower_bounds(hypergraph, ideal, cache, t):
    """Lower bounds on Betti numbers of the t-th power from self-semi-induced
    families: per-family nonvanishing, per-type counting bounds, and the
    regularity chain for uniform hypergraphs."""
    d = hypergraph.uniform_size()
    table = cache.table_for(ideal, t)
    types, _, induced = cache.family_facts(hypergraph)
    cases = []
    targets = dict.fromkeys((i, size * (t - 1) + j)
                            for (i, j), fams in sorted(types.items()) for fam in fams
                            for size in sorted({hypergraph.edge_size(k) for k in fam}))
    for i, j in targets:
        beta = table.betti(i, j)
        cases.append({"kind": "nonvanishing", "i": i, "j": j, "beta": beta, "ok": beta > 0})
    for (i, j), fams in sorted(types.items()):
        if t == 1 or d is not None:
            degree, bound = (j, len(fams)) if t == 1 else (d * (t - 1) + j, len(fams) * i)
            beta = table.betti(i, degree)
            cases.append({"kind": "count", "i": i, "j": degree, "beta": beta,
                          "bound": bound, "ok": beta >= bound})
    if d is not None:
        reg = table.regularity()
        low_induced = (d - 1) * induced
        low_excess = max(j - i for i, j in types)  # each edge is a family of type (1, |e|)
        ok = low_induced <= low_excess and d * (t - 1) + low_excess <= reg
        cases.append({"kind": "regularity", "reg": reg,
                      "induced_bound": d * (t - 1) + low_induced,
                      "excess_bound": d * (t - 1) + low_excess, "ok": ok})
    return all(case["ok"] for case in cases), {"t": t, "cases": cases}


@_check("ssim_products_are_minimal_generators", needs="edges")
def check_min_gens(hypergraph, ideal, cache, k):
    """Every product of k edges from a self-semi-induced family must appear
    among the minimal generators of the k-th power."""
    if k < 1:
        raise DomainError(f"power must be >= 1, got {k}")
    generators = {mono for _, mono in cache.generators_for(ideal, k)}
    edge_monos = list(ideal.generators)
    types, _, _ = cache.family_facts(hypergraph)
    is_generator = {}  # combo -> whether its product is a generator, one product each
    checked = 0
    missing = []
    for idx in chain.from_iterable(types.values()):
        for combo in combinations_with_replacement(idx, k):
            if combo not in is_generator:
                is_generator[combo] = functools.reduce(
                    operator.mul, (edge_monos[e] for e in combo)) in generators
            checked += 1
            if not is_generator[combo]:
                missing.append({"family": list(idx), "combo": list(combo)})
    return not missing, {"k": k, "products_checked": checked, "missing": missing}


@_check("regularity_upper_bounds", needs="uniform")
def check_reg_upper(hypergraph, ideal, cache, t):
    """Upper bounds on the regularity of the t-th power: the edge-count bound
    and the two splitting-off inequalities through subideals."""
    d = hypergraph.uniform_size()
    m = hypergraph.num_edges
    reg_quotient = cache.table_for(ideal, t).regularity()
    cases = []
    edge_bound = d * (t - 1) + m * (d - 1)
    ok = reg_quotient <= edge_bound
    cases.append({"kind": "edge_count", "reg": reg_quotient,
                  "bound": edge_bound, "ok": ok})
    reg_ideal = reg_quotient + 1

    def truncation(k):
        return cache._get(("truncate", ideal, k), lambda: ideal.truncate(k))

    if m >= 2:
        split = max(cache.ideal_regularity(truncation(m - 1), t) + d - 1,
                    cache.ideal_regularity(ideal, t - 1) + d)
        ok = reg_ideal <= split
        cases.append({"kind": "one_step_split", "reg_ideal": reg_ideal,
                      "bound": split, "ok": ok})
    parts = [cache.ideal_regularity(truncation(k), 1) + (m - k) * (d - 1)
             for k in range(1, m + 1)]
    first_power_bound = d * (t - 1) + max(parts)
    ok = reg_ideal <= first_power_bound
    cases.append({"kind": "first_power_reduction", "reg_ideal": reg_ideal,
                  "bound": first_power_bound, "ok": ok})
    return all(case["ok"] for case in cases), {"t": t, "cases": cases}


@_check("betti_vanishing_window", needs="uniform")
def check_vanishing(hypergraph, ideal, cache, t, r, s):
    """When no face of dimension s-1 or s+1 has degree r and a self-semi-induced
    family of type (s+1, r - d(t-1)) exists, the ideal-convention Betti numbers
    vanish at s-1 and s+1 in degree r and are nonzero at s."""
    d = hypergraph.uniform_size()
    cx = cache.complex_for(ideal, t)
    table = cache.table_for(ideal, t)
    window_clear = survivor_face_sets(cx).keys().isdisjoint(((s, r), (s + 2, r)))  # (size, degree)
    family_exists = (s + 1, r - d * (t - 1)) in cache.family_facts(hypergraph)[0]
    if not (window_clear and family_exists):
        raise _Unmet({"t": t, "r": r, "s": s, "window_clear": window_clear,
                      "family_exists": family_exists})
    below = table.ideal_betti(s - 1, r)
    mid = table.ideal_betti(s, r)
    above = table.ideal_betti(s + 1, r)
    holds = below == 0 and above == 0 and mid != 0
    return holds, {"t": t, "r": r, "s": s,
                   "beta_below": below, "beta_mid": mid, "beta_above": above}


@_check("taylor_faridi_agreement", needs="edges")
def check_taylor_agreement(hypergraph, ideal, cache, t):
    """The Betti tables supported on the full simplex and on the support
    complex must coincide.

    The simplex's table is computed on Lyubeznik's subcomplex of it, in
    the support complex's vertex order.  An acyclic matching on the
    simplex collapses it onto that subcomplex and keeps every label
    (Batzies-Welker 2002), so the two have the same label-keeping
    homology, the simplex's table, over every field.  The simplex's own
    cap still gates the check.  Its r vertices are counted as the support
    complex's one-vertex faces, without building their monomials: every
    generator of I^t lies in a spread or concentrated facet.
    """
    table = cache.table_for(ideal, t)
    r = len(cache.complex_for(ideal, t)._size(1))
    if r >= cache.max_faces.bit_length():
        raise ResourceCapError(
            f"simplex on {r} vertices has {format_count(1 << r)} faces, "
            f"over the cap of {cache.max_faces}")
    taylor_table = graded_betti(cache.complex_for(ideal, t, "lyubeznik"),
                                char=cache.char, power=t)
    holds = taylor_table.entries == table.entries
    witness = {"t": t, "faces_taylor": 1 << r}
    if not holds:
        witness["taylor"] = [[i, j, b] for (i, j), b in taylor_table.items_sorted()]
        witness["faridi"] = [[i, j, b] for (i, j), b in table.items_sorted()]
    return holds, witness


@_check("first_power_complex_is_simplex", needs="edges")
def check_first_power_simplex(hypergraph, ideal, cache):
    """At power one the support complex is the Taylor simplex itself: on the r
    generators of the ideal, all 2^r faces, within the face cap since it was built."""
    cx = cache.complex_for(ideal, 1)
    return cx.face_count == 1 << len(ideal.generators), {"faces": cx.face_count}


@_check("survivor_bound_sandwich", needs="edges")
def check_survivor_sandwich(hypergraph, ideal, cache, t):
    """Wherever the survivor bounds apply, the Betti number must sit between
    the certain and possible survivor counts."""
    cx = cache.complex_for(ideal, t)
    table = cache.table_for(ideal, t)
    cases = []  # every failing case is kept, so the verdict reads them alone
    for (i, j), bounds in survivor_face_sets(cx).items():
        if i and (bounds.upper or bounds.lower):  # i = 0 is the empty face
            case = _survivor_case(table, i, j, bounds)
            if not case["ok"] or case["beta"]:
                cases.append(case)
    return all(case["ok"] for case in cases), {"t": t, "cases": cases}


def _subset_of_rank(n, d, rank):
    """The d-subset of 1..n at 0-based position `rank` in combinations() order,
    each element by binary search: with k elements left to pick, C(n - w + 1, k)
    subsets have their next element at w or above."""
    out, left = [], comb(n, d) - rank  # subsets from the wanted one on
    for k in range(d, 0, -1):
        lo, hi = (out[-1] if out else 0) + 1, n - k + 1
        while lo < hi:  # the largest next element w with C(n - w + 1, k) >= left
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if comb(n - mid + 1, k) >= left else (lo, mid - 1)
        left -= comb(n - lo, k)  # the subsets whose next element is above lo
        out.append(lo)
    return tuple(out)


def random_hypergraph(n, m, d, seed):
    """Deterministic uniform sample of m distinct d-edges on vertices 1..n.

    Sampling positions among the C(n, d) subsets draws what sampling their
    list would, without building it.
    """
    if n < 1:
        raise DomainError(f"need at least one vertex, got n={n}")
    if m < 1:
        raise DomainError(f"need at least one edge, got m={m}")
    if d < 2 or d > n:
        raise DomainError(f"edge size {d} not in 2..{n}")
    pool = comb(n, d)
    if m > pool:
        raise DomainError(f"cannot pick {m} distinct {d}-subsets of {n} vertices")
    if pool > sys.maxsize:
        raise ResourceCapError(
            f"{d}-subsets of {n} vertices number more than {sys.maxsize}, too many to sample")
    check_budget(m, "edges to sample")  # each costs the constructor a containment test
    rng = random.Random(seed)
    return Hypergraph(n, sorted(_subset_of_rank(n, d, r) for r in rng.sample(range(pool), m)))


def enumerate_hypergraphs(n, d, m):
    """All m-subsets of d-subsets of 1..n whose union covers every vertex.

    The covering condition makes every edge list appear at exactly one n, so
    the corpus grid below contains no duplicates.
    """
    full = (1 << n) - 1
    pool = list(combinations(range(1, n + 1), d))
    for combo in combinations(pool, m):
        mask = 0
        for e in combo:
            for v in e:
                mask |= 1 << (v - 1)
        if mask == full:
            yield Hypergraph(n, combo)


_NAMED = (
    ("two-triples-sharing-one", 5, ((1, 2, 3), (3, 4, 5))),
    ("three-triples-plus-transversal", 9, ((1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 4, 7))),
    ("single-edge-2", 2, ((1, 2),)),
    ("single-edge-3", 3, ((1, 2, 3),)),
    ("single-edge-4", 4, ((1, 2, 3, 4),)),
    ("two-disjoint-2", 4, ((1, 2), (3, 4))),
    ("two-disjoint-3", 6, ((1, 2, 3), (4, 5, 6))),
    ("three-disjoint-2", 6, ((1, 2), (3, 4), (5, 6))),
    ("triangle", 3, ((1, 2), (2, 3), (1, 3))),
    ("path-graph-4", 4, ((1, 2), (2, 3), (3, 4))),
    ("four-cycle", 4, ((1, 2), (2, 3), (3, 4), (1, 4))),
    ("star-3", 4, ((1, 2), (1, 3), (1, 4))),
    ("two-triples-sharing-two", 4, ((1, 2, 3), (2, 3, 4))),
    ("mixed-sizes-chain", 5, ((1, 2), (2, 3, 4), (4, 5))),
    ("mixed-sizes-disjoint", 5, ((1, 2), (3, 4, 5))),
)

_GRID = (
    (2, 2, 1), (3, 2, 2), (3, 2, 3),
    (4, 2, 2), (4, 2, 3), (4, 2, 4),
    (5, 2, 3), (6, 2, 3),
    (3, 3, 1), (4, 3, 2), (4, 3, 3),
    (5, 3, 2), (5, 3, 3), (6, 3, 2),
)

_RANDOM_CONFIGS = (
    (5, 2, 4), (6, 2, 4), (7, 2, 4),
    (6, 3, 3), (6, 3, 4), (7, 3, 3), (7, 3, 4),
)
_RANDOM_PER_CONFIG = 3
_MASTER_SEED = 1187


def random_entries(n, d, m, seeds):
    """(name, hypergraph) pairs of seeded random samples, one per seed."""
    return [(f"random-n{n}-d{d}-m{m}-s{seed}", random_hypergraph(n, m, d, seed))
            for seed in seeds]


def builtin_corpus():
    """Named instances, an exhaustive small grid, and seeded random samples."""
    out = [(name, Hypergraph(n, edges)) for name, n, edges in _NAMED]
    for n, d, m in _GRID:
        for idx, h in enumerate(enumerate_hypergraphs(n, d, m)):
            out.append((f"grid-n{n}-d{d}-m{m}-{idx:04d}", h))
    for n, d, m in _RANDOM_CONFIGS:
        out += random_entries(n, d, m, (_MASTER_SEED + 97 * k for k in range(_RANDOM_PER_CONFIG)))
    return out


def run_checks(hypergraph, t_max=3, cache=None, label=None, min_gen_powers=(2, 3)):
    """All checks for one instance, in a fixed order.

    The vanishing windows are keyed by the self-semi-induced family types.
    When the family walk is over its budget those keys cannot be known, so
    no vanishing report is made; the other checks that read the walk report
    the cap as their gate.
    """
    cache, label = _defaults(hypergraph, cache, label)
    reports = [check_first_power_simplex(hypergraph, cache=cache, label=label)]
    for t in range(1, t_max + 1):
        reports.append(check_taylor_agreement(hypergraph, t, cache=cache, label=label))
        reports.append(check_lower_bounds(hypergraph, t, cache=cache, label=label))
        reports.append(check_survivor_sandwich(hypergraph, t, cache=cache, label=label))
        reports.append(check_reg_upper(hypergraph, t, cache=cache, label=label))
    reports.append(check_second_power(hypergraph, cache=cache, label=label))
    for k in min_gen_powers:
        reports.append(check_min_gens(hypergraph, k, cache=cache, label=label))
    d = hypergraph.uniform_size()
    if d is not None:
        try:
            types, _, _ = cache.family_facts(hypergraph)
        except ResourceCapError:
            types = {}
        for i, j in types:  # in first-occurrence order
            for t in range(1, t_max + 1):
                reports.append(check_vanishing(hypergraph, t, d * (t - 1) + j, i - 1,
                                               cache=cache, label=label))
    return reports


def summarize(reports):
    return {
        "passed": sum(1 for r in reports if r.hypothesis_satisfied and r.conclusion_holds),
        "gated": sum(1 for r in reports if r.gated),
        "failed": sum(1 for r in reports if r.failed),
    }


def run_corpus(entries, t_max=3, char=0, max_faces=CORPUS_MAX_FACES):
    """Run all checks over (name, hypergraph) pairs; returns (reports, summary)."""
    reports = []
    for name, hypergraph in entries:
        cache = ComputeCache(char=char, max_faces=max_faces)
        reports.extend(run_checks(hypergraph, t_max=t_max, cache=cache, label=name))
    return reports, summarize(reports)
