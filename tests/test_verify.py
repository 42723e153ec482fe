import functools
import gc
import json
import operator
import random
import time
import tracemalloc
import weakref
from itertools import combinations
from math import comb

import pytest

import hyperbetti.complexes as complexes
import hyperbetti.matchings as matchings
import hyperbetti.verify as verify
from hyperbetti.betti import BettiTable
from hyperbetti.errors import DomainError, ResourceCapError
from hyperbetti.hypergraph import Hypergraph
from hyperbetti.monomials import Monomial, MonomialIdeal, power_generators
from hyperbetti.verify import (CheckReport, ComputeCache, builtin_corpus,
                               check_first_power_simplex, check_lower_bounds,
                               check_min_gens, check_reg_upper, check_second_power,
                               check_survivor_sandwich, check_taylor_agreement,
                               check_vanishing, enumerate_hypergraphs,
                               random_hypergraph, run_checks, run_corpus, summarize)


class TestRandomHypergraph:
    def test_deterministic(self):
        a = random_hypergraph(6, 3, 2, seed=1)
        b = random_hypergraph(6, 3, 2, seed=1)
        assert a == b

    def test_seed_changes_output(self):
        results = {random_hypergraph(7, 3, 2, seed=s) for s in range(8)}
        assert len(results) > 1

    def test_forced_complete_graph(self):
        h = random_hypergraph(5, 10, 2, seed=0)
        assert h.num_edges == 10

    def test_matches_sampling_the_listed_subsets(self):
        # sampling positions draws what sampling the list of all d-subsets drew
        for n in range(2, 10):
            for d in range(2, n + 1):
                pool = list(combinations(range(1, n + 1), d))
                for m in range(1, min(12, len(pool)) + 1):
                    for seed in range(30):
                        expected = sorted(random.Random(seed).sample(pool, m))
                        assert random_hypergraph(n, m, d, seed).edge_sets() == tuple(expected)

    def test_infeasible(self):
        with pytest.raises(DomainError):
            random_hypergraph(4, 7, 2, seed=0)
        with pytest.raises(DomainError):
            random_hypergraph(3, 1, 4, seed=0)

    def test_unranks_every_position(self):
        for n in range(2, 10):
            for d in range(2, n + 1):
                listed = list(combinations(range(1, n + 1), d))
                assert [verify._subset_of_rank(n, d, r) for r in range(len(listed))] == listed

    def test_unranks_as_the_value_by_value_walk(self):
        def walk(n, d, rank):  # the reference: one comb per value of 1..n
            out = []
            for v in range(1, n + 1):
                if len(out) == d:
                    break
                taking_v = comb(n - v, d - len(out) - 1)  # subsets that take v next
                if rank < taking_v:
                    out.append(v)
                else:
                    rank -= taking_v
            return tuple(out)

        rng = random.Random(3)
        for _ in range(2000):
            n = rng.randint(2, 300)
            d = rng.randint(2, min(n, 12))
            rank = rng.choice((0, comb(n, d) - 1, rng.randrange(comb(n, d))))
            assert verify._subset_of_rank(n, d, rank) == walk(n, d, rank), (n, d, rank)

    def test_many_edges_refused_in_bounded_time(self):
        # 50,000 edges unrank at once and then fail the containment budget;
        # over 2^20 edges are refused before any is sampled
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match="edge containment tests"):
            random_hypergraph(2000, 50000, 2, 0)
        with pytest.raises(ResourceCapError, match="3000000 edges to sample"):
            random_hypergraph(3000, 3000000, 2, 0)
        assert time.perf_counter() - start < 2


class TestEnumeration:
    def test_union_covers_all_vertices(self):
        for h in enumerate_hypergraphs(4, 2, 3):
            assert functools.reduce(operator.or_, h.edges) == (1 << 4) - 1

    def test_disjoint_pair_count(self):
        assert sum(1 for _ in enumerate_hypergraphs(4, 2, 2)) == 3
        assert sum(1 for _ in enumerate_hypergraphs(6, 3, 2)) == 10


class TestIndividualChecks:
    def test_lower_bounds_path5_cube_equality(self, path5):
        report = check_lower_bounds(path5, 3)
        assert report.hypothesis_satisfied and report.conclusion_holds
        reg_case = [c for c in report.witness["cases"] if c["kind"] == "regularity"][0]
        assert reg_case["excess_bound"] == 9 and reg_case["reg"] == 9

    def test_lower_bounds_nonuniform(self):
        h = Hypergraph(5, [[1, 2], [2, 3, 4], [4, 5]])
        for t in (1, 2):
            report = check_lower_bounds(h, t)
            assert report.hypothesis_satisfied and report.conclusion_holds

    def test_reg_upper_path5(self, path5):
        r3 = check_reg_upper(path5, 3)
        assert r3.conclusion_holds
        edge_case = [c for c in r3.witness["cases"] if c["kind"] == "edge_count"][0]
        assert edge_case["reg"] == 9 and edge_case["bound"] == 10
        r1 = check_reg_upper(path5, 1)
        edge_case = [c for c in r1.witness["cases"] if c["kind"] == "edge_count"][0]
        assert edge_case["reg"] == 3 and edge_case["bound"] == 4

    def test_reg_upper_single_edge_equality(self):
        h = Hypergraph(3, [[1, 2, 3]])
        for t in (1, 2, 3):
            report = check_reg_upper(h, t)
            assert report.conclusion_holds
            case = report.witness["cases"][0]
            assert case["reg"] == case["bound"] == 3 * t - 1

    def test_reg_upper_gated_on_mixed_sizes(self):
        report = check_reg_upper(Hypergraph(4, [[1, 2], [2, 3, 4]]), 2)
        assert report.gated

    def test_min_gens_path5(self, path5):
        report = check_min_gens(path5, 3)
        assert report.conclusion_holds
        assert report.witness["products_checked"] >= 4
        assert report.witness["missing"] == []

    def test_min_gens_multiplies_each_combo_once(self, monkeypatch):
        # the same multiset of edges recurs across families; its product is
        # formed once, while every (family, multiset) pair is still counted
        calls = []
        mul = Monomial.__mul__
        monkeypatch.setattr(Monomial, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        m, k = 10, 3
        report = check_min_gens(random_hypergraph(40, m, 2, 0), k)
        assert report.conclusion_holds and report.witness["products_checked"] == 43520
        assert len(calls) <= (k - 1) * comb(m + k - 1, k)

    def test_family_facts_keep_no_walk(self):
        # 16,383 families of 14 edges; under Python 3.11 the traced peak was
        # 5.4 MB with a list of every family kept, 0.9 MB with the fold
        h = random_hypergraph(40, 14, 2, 0)
        tracemalloc.start()
        try:
            check_min_gens(h, 1, cache=ComputeCache())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_second_power_two_disjoint(self):
        report = check_second_power(Hypergraph(4, [[1, 2], [3, 4]]))
        assert report.hypothesis_satisfied and report.conclusion_holds
        case = [c for c in report.witness["cases"] if c["i"] == 2][0]
        assert case["matchings"] == 1 and case["beta"] == 0

    def test_second_power_gated_on_mixed_sizes(self):
        report = check_second_power(Hypergraph(4, [[1, 2], [2, 3, 4]]))
        assert report.gated

    def test_vanishing_window_path5(self, path5):
        report = check_vanishing(path5, 3, 9, 0)
        assert report.hypothesis_satisfied
        assert report.conclusion_holds
        assert report.witness["beta_mid"] == 4

    def test_vanishing_gate_rejects_busy_window(self, path5):
        # degree 11 occurs among the dimension-1 faces, so the window is dirty
        report = check_vanishing(path5, 3, 11, 0)
        assert report.gated
        assert report.witness["window_clear"] is False

    def test_taylor_agreement_path5(self, path5):
        for t in (1, 2, 3):
            report = check_taylor_agreement(path5, t)
            assert report.hypothesis_satisfied and report.conclusion_holds

    def test_taylor_agreement_builds_through_the_cache(self, monkeypatch):
        # the Lyubeznik complex is memoized with the support complex, on its vertices
        h = dict(builtin_corpus())["two-triples-sharing-one"]
        calls = []
        build = verify.lyubeznik_complex
        monkeypatch.setattr(verify, "lyubeznik_complex",
                            lambda *args: calls.append(args) or build(*args))
        cache = ComputeCache()
        first, again = (check_taylor_agreement(h, 2, cache=cache) for _ in range(2))
        assert first.conclusion_holds and first == again and len(calls) == 1
        ideal = cache.ideal_for(h)
        assert (cache.complex_for(ideal, 2, "lyubeznik").vertices
                == cache.complex_for(ideal, 2).vertices)

    def test_taylor_agreement_gated_by_cap(self, path5, monkeypatch):
        cache = ComputeCache(max_faces=8)
        report = check_taylor_agreement(path5, 3, cache=cache)
        assert report.gated
        assert "resource cap" in report.witness["reason"]
        # at 4 faces the support complex itself is over the cap; a second
        # check on the same cache gates on the memoized error, built once
        cache = ComputeCache(max_faces=4)
        report = check_taylor_agreement(path5, 3, cache=cache)
        assert report.witness["reason"] == "resource cap: complex exceeds the cap of 4 faces"
        monkeypatch.setattr(verify, "faridi_complex", None)
        again = check_taylor_agreement(path5, 3, cache=cache)
        assert again.gated
        assert again.witness["reason"] == report.witness["reason"]

    def test_capped_cache_is_freed_without_gc(self, example39):
        # the memoized cap keeps only its message, so no traceback ties the
        # cache to itself and dropping the last reference frees it
        cache = ComputeCache(max_faces=8)
        ideal = cache.ideal_for(example39)
        messages = []
        for _ in range(2):
            try:
                cache.complex_for(ideal, 2)
            except ResourceCapError as e:
                messages.append(str(e))
        assert messages == ["facet with 6 vertices yields 64 faces, over the cap of 8"] * 2
        ref = weakref.ref(cache)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del cache
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_first_power_simplex(self, four_cycle):
        report = check_first_power_simplex(four_cycle)
        assert report.conclusion_holds

    def test_first_power_without_its_top_face(self, four_cycle):
        # a power-one complex on r vertices short of one of its 2^r faces is no simplex
        cache = ComputeCache()
        ideal = cache.ideal_for(four_cycle)
        gens = power_generators(ideal, 1)
        boundary = list(combinations(range(len(gens)), len(gens) - 1))
        cache._memo[("complex", ideal, 1, "faridi")] = complexes.LabelledComplex(gens, boundary)
        report = check_first_power_simplex(four_cycle, cache=cache)
        assert report.hypothesis_satisfied and not report.conclusion_holds
        assert report.witness == {"faces": (1 << len(gens)) - 1}

    def test_survivor_sandwich(self, example39):
        for t in (1, 2):
            report = check_survivor_sandwich(example39, t)
            assert report.hypothesis_satisfied and report.conclusion_holds

    def test_family_walk_over_budget_is_gated(self):
        # 21 edges have 2^21 - 1 nonempty families, over the 2^20 walk budget
        path = Hypergraph(22, [[k, k + 1] for k in range(1, 22)])
        report = check_min_gens(path, 1)
        assert report.gated
        assert report.witness["reason"].startswith("resource cap:")
        assert "edge families" in report.witness["reason"]
        # the vanishing windows are keyed by the family types, so run_checks
        # cannot enumerate them; it returns the other reports instead of raising
        reports = run_checks(path, t_max=1, min_gen_powers=(2,))
        assert [r.check for r in reports] == [
            "first_power_complex_is_simplex", "taylor_faridi_agreement",
            "power_betti_lower_bounds", "survivor_bound_sandwich",
            "regularity_upper_bounds", "second_power_sandwich",
            "ssim_products_are_minimal_generators"]
        assert all(r.gated and r.witness["reason"].startswith("resource cap:")
                   for r in reports)


class TestHarness:
    def test_run_checks_clean(self, path5):
        reports = run_checks(path5, t_max=3)
        assert all(not r.failed for r in reports)
        names = {r.check for r in reports}
        assert "taylor_faridi_agreement" in names
        assert "betti_vanishing_window" in names

    def test_one_family_walk_per_instance(self, example39, path5, monkeypatch):
        classified, folded = [], []
        classify_indices = matchings._classify_indices
        invariants_of = verify.invariants_of

        def counted(hypergraph, idx, starting):
            classified.append(idx)
            return classify_indices(hypergraph, idx, starting)

        def fold(walk, exhaustive):
            folded.append(exhaustive)
            return invariants_of(walk, exhaustive)

        monkeypatch.setattr(matchings, "_classify_indices", counted)
        monkeypatch.setattr(verify, "invariants_of", fold)
        # each nonempty edge subset is classified once per instance, and the
        # invariants are folded from that one walk
        for h in (example39, path5):
            classified.clear()
            folded.clear()
            run_checks(h, t_max=3)
            assert len(classified) == 2 ** h.num_edges - 1
            assert folded == [True]

    def test_one_edge_ideal_per_instance(self, example39, path5, monkeypatch):
        built = []
        edge_ideal = verify.edge_ideal

        def counted(hypergraph):
            built.append(hypergraph)
            return edge_ideal(hypergraph)

        monkeypatch.setattr(verify, "edge_ideal", counted)
        for h in (example39, path5):
            built.clear()
            run_checks(h, t_max=3)
            assert built == [h]

    def test_one_generator_walk_per_power(self, example39, path5, monkeypatch):
        walked = []
        power_generators = complexes.power_generators

        def counted(ideal, t):
            walked.append((ideal, t))
            return power_generators(ideal, t)

        monkeypatch.setattr(complexes, "power_generators", counted)
        monkeypatch.setattr(verify, "power_generators", counted)
        # check_min_gens reads the generators off the memoized support
        # complex, so each (ideal, t) whose complex is built is walked once
        for h in (example39, path5):
            walked.clear()
            cache = ComputeCache()
            run_checks(h, t_max=3, cache=cache)
            built = {(key[1], key[2]) for key in cache._memo if key[0] == "complex"}
            counts = {key: walked.count(key) for key in walked}
            assert built and all(counts[key] == 1 for key in built)

    def test_one_truncation_per_subideal(self, example39, path5, four_cycle, monkeypatch):
        kept = []
        truncate = MonomialIdeal.truncate

        def counted(ideal, k):
            kept.append(k)
            return truncate(ideal, k)

        monkeypatch.setattr(MonomialIdeal, "truncate", counted)
        # the regularity bounds read the subideals of the first k edges,
        # k = 1..m, at every power; each is built once per instance
        for h in (example39, path5, four_cycle):
            kept.clear()
            run_checks(h, t_max=3)
            assert sorted(kept) == list(range(1, h.num_edges + 1))

    def test_summary_counts(self, path5):
        reports = run_checks(path5, t_max=2)
        summary = summarize(reports)
        assert summary["failed"] == 0
        assert summary["passed"] + summary["gated"] == len(reports)

    def test_corrupted_betti_is_caught(self, path5, monkeypatch):
        real = verify.graded_betti

        def corrupted(cx, char=0, power=None):
            table = real(cx, char=char, power=power)
            shifted = {(i, j + (1 if i else 0)): b for (i, j), b in table.entries.items()}
            return BettiTable(shifted, power=power, char=char)

        monkeypatch.setattr(verify, "graded_betti", corrupted)
        reports = run_checks(path5, t_max=2)
        assert summarize(reports)["failed"] > 0

    def test_report_json_is_deterministic(self, path5):
        a = [r.to_json() for r in run_checks(path5, t_max=2)]
        b = [r.to_json() for r in run_checks(path5, t_max=2)]
        assert a == b
        parsed = json.loads(a[0])
        assert set(parsed) == {"check", "instance", "hypothesis_satisfied",
                               "conclusion_holds", "witness"}

    def test_gated_report_shape(self):
        report = CheckReport("x", "y", False, None, {"reason": "nope"})
        assert report.gated and not report.failed

    def test_run_corpus_named_slice(self):
        entries = [(name, h) for name, h in builtin_corpus()
                   if not name.startswith(("grid", "random"))]
        reports, summary = run_corpus(entries, t_max=2)
        assert summary["failed"] == 0
        assert summary["passed"] > 0

    def test_builtin_corpus_names_unique(self):
        names = [name for name, _ in builtin_corpus()]
        assert len(names) == len(set(names))
