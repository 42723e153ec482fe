import random
import time

import pytest

from hyperbetti.errors import DomainError, ResourceCapError
from hyperbetti.hypergraph import Hypergraph
from hyperbetti.matchings import count_families, families, invariants
from hyperbetti.verify import random_hypergraph

from helpers import classify_oracle, semi_induced_by_lowest_vertex


def classify(hypergraph, idx):
    """The classification of the family `idx` as the family walk yields it."""
    return dict(families(hypergraph))[idx]


class TestClassify:
    def test_path5_both_edges(self, path5):
        cls = classify(path5, (0, 1))
        assert not cls.is_matching          # they share a vertex
        assert cls.is_self_matching
        assert cls.is_semi_induced
        assert cls.is_self_semi_induced
        assert not cls.is_induced
        assert cls.family_type == (2, 5)

    def test_example39_three_matching_not_semi(self, example39):
        cls = classify(example39, (0, 1, 2))
        assert cls.is_matching
        assert not cls.is_semi_induced      # the transversal edge sits in the union
        assert cls.family_type == (3, 9)

    def test_singleton_has_all_flags(self, path5, example39, four_cycle):
        for h in (path5, example39, four_cycle):
            for k in range(h.num_edges):
                cls = classify(h, (k,))
                assert cls.is_matching and cls.is_self_matching
                assert cls.is_semi_induced and cls.is_self_semi_induced
                assert cls.is_induced
                assert cls.family_type == (1, h.edge_size(k))

    def test_edge_family_type(self, example39):
        assert classify(example39, (0, 3)).family_type == (2, 5)


class TestInvariants:
    def test_path5(self, path5):
        inv = invariants(path5)
        assert inv.matching_number == 1
        assert inv.induced_matching_number == 1
        assert inv.self_semi_induced_excess == 3
        assert inv.semi_induced_excess == 3
        assert inv.exhaustive

    def test_example39(self, example39):
        inv = invariants(example39)
        assert inv.self_semi_induced_excess == 4
        assert inv.semi_induced_excess == 5
        assert inv.matching_number == 3
        assert inv.induced_matching_number == 2

    def test_single_edge(self):
        for d in (2, 3, 4):
            inv = invariants(Hypergraph(d, [list(range(1, d + 1))]))
            assert inv.matching_number == 1
            assert inv.induced_matching_number == 1
            assert inv.self_semi_induced_number == 1
            assert inv.induced_matching_excess == d - 1
            assert inv.self_semi_induced_excess == d - 1
            assert inv.semi_induced_excess == d - 1

    def test_no_edges_undefined(self):
        inv = invariants(Hypergraph(3, []))
        assert inv.matching_number is None
        assert inv.semi_induced_excess is None

    def test_size_cap_flags_lower_bound(self, example39):
        inv = invariants(example39, size_cap=1)
        assert not inv.exhaustive
        assert inv.matching_number == 1


class TestCounts:
    def test_path5_ssim_type(self, path5):
        assert count_families(path5, "self_semi_induced", 2, union_size=5) == 1

    def test_example39_matchings_of_size_3(self, example39):
        assert count_families(example39, "matching", 3) == 1

    def test_singletons_count_edges(self, path5, example39, four_cycle):
        for h in (path5, example39, four_cycle):
            assert count_families(h, "matching", 1) == h.num_edges

    def test_bad_size(self, path5):
        with pytest.raises(DomainError):
            count_families(path5, "matching", 0)

    def test_bad_kind(self, path5):
        with pytest.raises(DomainError):
            count_families(path5, "perfect", 1)

    def test_walk_over_budget_refused(self):
        def path(m):
            return Hypergraph(m + 1, [[k, k + 1] for k in range(1, m + 1)])

        # 2^21 - 1 families of 21 edges and C(40, 6) six-edge families of 40
        # edges are both over the 2^20 budget; the 780 two-edge families are
        # not, and 39 of them share a vertex
        with pytest.raises(ResourceCapError, match="^2097151 edge families to classify, "
                                                   "over the cap of 1048576$"):
            next(families(path(21)))
        with pytest.raises(ResourceCapError):
            count_families(path(40), "matching", 6)
        assert count_families(path(40), "matching", 2) == 780 - 39


class TestProperties:
    def test_flag_lattice_on_random_instances(self):
        rng = random.Random(3)
        for seed in range(30):
            n = rng.randint(3, 7)
            d = rng.randint(2, 3)
            m = rng.randint(1, min(4, n))
            try:
                h = random_hypergraph(n, m, d, seed)
            except DomainError:
                continue
            for _, cls in families(h):
                if cls.is_induced:
                    assert cls.is_matching and cls.is_semi_induced
                assert cls.is_self_semi_induced == (cls.is_self_matching and cls.is_semi_induced)
                if cls.is_matching:
                    assert cls.is_self_matching

    def test_flags_match_the_full_scan(self):
        # mixed edge sizes, so a family's union can hold a smaller outside edge
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(3, 9)
            edges = []
            for _ in range(rng.randint(1, 7)):
                edge = set(rng.sample(range(1, n + 1), rng.randint(2, min(4, n))))
                if not any(edge <= e or e <= edge for e in edges):
                    edges.append(edge)
            h = Hypergraph(n, edges)
            walked = dict(families(h))
            assert len(walked) == 2 ** h.num_edges - 1
            for idx, cls in walked.items():
                assert cls == classify_oracle(h, idx), (edges, idx)
                assert cls.is_semi_induced == semi_induced_by_lowest_vertex(h, idx), (edges, idx)


    def test_invariants_consistent_with_counts(self, example39):
        inv = invariants(example39)
        sizes = [i for i in range(1, example39.num_edges + 1)
                 if count_families(example39, "matching", i) > 0]
        assert inv.matching_number == max(sizes)

    def test_excess_consistent_with_typed_counts(self, example39):
        inv = invariants(example39)
        m, n = example39.num_edges, example39.n
        excesses = [j - i
                    for i in range(1, m + 1) for j in range(1, n + 1)
                    if count_families(example39, "self_semi_induced", i, union_size=j) > 0]
        assert inv.self_semi_induced_excess == max(excesses)

    def test_invariant_inequality_chain(self):
        rng = random.Random(11)
        for seed in range(20):
            h = random_hypergraph(rng.randint(4, 7), rng.randint(2, 4), rng.choice((2, 3)), seed)
            inv = invariants(h)
            assert inv.induced_matching_number <= min(inv.matching_number,
                                                      inv.self_semi_induced_number)
            assert (inv.induced_matching_excess <= inv.self_semi_induced_excess
                    <= inv.semi_induced_excess)
            d = h.uniform_size()
            assert (d - 1) * inv.induced_matching_number == inv.induced_matching_excess

    def test_matching_number_monotone_under_edges(self):
        rng = random.Random(5)
        for seed in range(15):
            h = random_hypergraph(7, rng.randint(2, 4), rng.choice((2, 3)), seed)
            smaller = Hypergraph(h.n, h.edge_sets()[:-1])
            inv_small = invariants(smaller)
            inv_full = invariants(h)
            if inv_small.matching_number is not None:
                assert inv_small.matching_number <= inv_full.matching_number


class TestBoundedCost:
    # each edge is indexed at its least-used vertex, so a star's edges do not
    # all meet at the centre, and edge masks are built in one pass, so a wide
    # edge costs time linear in its size
    @staticmethod
    def build_and_walk(n, edges):
        start = time.perf_counter()
        h = Hypergraph(n, edges)
        walked = sum(1 for _ in families(h, size_cap=1))
        return walked, time.perf_counter() - start

    def test_star(self):
        m = 20000
        walked, seconds = self.build_and_walk(m + 1, [[1, k] for k in range(2, m + 2)])
        assert walked == m and seconds < 1.0

    @pytest.mark.parametrize("count", [1, 4])
    def test_wide_edges(self, count):
        w = 1 << 16
        walked, seconds = self.build_and_walk(
            count * w, [list(range(k * w + 1, (k + 1) * w + 1)) for k in range(count)])
        assert walked == count and seconds < 1.0
