import json
import random

import pytest

from hyperbetti.errors import ResourceCapError, ValidationError
from hyperbetti.hypergraph import Hypergraph, _edges_by_least_used_vertex, edge_ideal
from hyperbetti.monomials import Monomial

from helpers import edge_conflict_oracle, nested_pair_by_lowest_vertex


class TestValidation:
    def test_valid(self, path5):
        assert path5.n == 5
        assert path5.edge_sets() == ((1, 2, 3), (3, 4, 5))

    def test_containment_rejected(self):
        with pytest.raises(ValidationError, match="contained"):
            Hypergraph(3, [[1, 2], [1, 2, 3]])
        with pytest.raises(ValidationError, match="contained"):
            Hypergraph(3, [[1, 2, 3], [1, 2]])

    def test_first_offending_pair_is_reported(self):
        # edges 0 and 3 are duplicates, but the pair (0, 2) comes first
        with pytest.raises(ValidationError, match=r"^edge \[2, 3\] contained in \[1, 2, 3\]$"):
            Hypergraph(5, [[1, 2, 3], [4, 5], [2, 3], [3, 2, 1]])

    def test_nested_edges_found_as_by_every_pair(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(2, 7)
            edges = [rng.sample(range(1, n + 1), rng.randint(2, n))
                     for _ in range(rng.randint(1, 6))]
            expected = edge_conflict_oracle(edges)
            if expected is None:
                assert Hypergraph(n, edges).edge_sets() == tuple(tuple(sorted(e)) for e in edges)
            else:
                with pytest.raises(ValidationError) as caught:
                    Hypergraph(n, edges)
                assert str(caught.value) == expected

    def test_least_used_index_finds_the_lowest_vertex_pair(self):
        # every nested pair is a candidate of the least-used-vertex index, and
        # the first one is the pair the lowest-vertex scan reports
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(2, 8)
            edges = [rng.sample(range(1, n + 1), rng.randint(2, min(n, 4)))
                     for _ in range(rng.randint(1, 8))]
            sets = [set(edge) for edge in edges]
            index = _edges_by_least_used_vertex(edges)
            near = [[i for v in edge for i in index.get(v, ())] for edge in edges]
            nested = [(i, k) for k in range(len(edges)) for i in range(len(edges))
                      if i != k and sets[i] <= sets[k]]
            assert all(i in near[k] for i, k in nested), edges
            first = min(((min(i, k), max(i, k)) for i, k in nested), default=None)
            assert first == nested_pair_by_lowest_vertex(edges), edges

    def test_containment_tests_over_budget_refused(self):
        # K_n with every edge indexed at its first vertex: vertex v indexes the
        # n - v edges {v, w > v} and lies in n - 1 edges
        def complete(n):
            return [[v, w] for v in range(1, n + 1) for w in range(v + 1, n + 1)]

        # 99 * 4950 tests build; 129 * 8385 are over the budget
        assert Hypergraph(100, complete(100)).num_edges == 4950
        with pytest.raises(ResourceCapError,
                           match="^1081665 edge containment tests, over the cap"):
            Hypergraph(130, complete(130))

    def test_small_edge_rejected(self):
        with pytest.raises(ValidationError, match="fewer than two"):
            Hypergraph(2, [[1]])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match="duplicate edge"):
            Hypergraph(3, [[1, 2], [2, 1]])

    def test_vertex_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            Hypergraph(3, [[1, 4]])
        with pytest.raises(ValidationError, match="out of range"):
            Hypergraph(3, [[0, 1]])

    def test_booleans_rejected(self):
        # JSON true/false parse to bool, which Python counts as an int
        with pytest.raises(ValidationError, match="not an integer"):
            Hypergraph(2, [[True, 2]])
        with pytest.raises(ValidationError, match="nonnegative integer"):
            Hypergraph(True, [])

    def test_duplicate_vertex_in_edge(self):
        with pytest.raises(ValidationError, match="duplicate vertex"):
            Hypergraph(3, [[1, 1, 2]])

    def test_label_length(self):
        with pytest.raises(ValidationError, match="labels"):
            Hypergraph(3, [[1, 2]], labels=["a"])

    def test_no_edges_allowed(self):
        h = Hypergraph(3, [])
        assert h.num_edges == 0


class TestUniform:
    def test_uniform_3(self, path5):
        assert path5.uniform_size() == 3

    def test_mixed(self):
        assert Hypergraph(4, [[1, 2], [2, 3, 4]]).uniform_size() is None

    def test_graph(self, four_cycle):
        assert four_cycle.uniform_size() == 2

    def test_kept_with_the_hash_as_first_computed(self):
        # both are kept on the immutable hypergraph: the size of a random
        # edge list's edges, none without edges, and the hash of its fields,
        # equal for equal hypergraphs
        rng = random.Random(7)
        assert Hypergraph(3, []).uniform_size() is None
        for _ in range(100):
            n = rng.randint(4, 7)
            edges = {tuple(sorted(rng.sample(range(1, n + 1), rng.randint(2, 3))))
                     for _ in range(rng.randint(1, 5))}
            edges = [e for e in edges if not any(set(e) < set(f) for f in edges)]
            h, again = Hypergraph(n, edges), Hypergraph(n, list(edges))
            sizes = {len(e) for e in edges}
            assert h.uniform_size() == (sizes.pop() if len(sizes) == 1 else None)
            assert hash(h) == hash(again) == hash((n, h.edges, None)) == h._hash


class TestEdgeIdeal:
    def test_path5(self, path5):
        ideal = edge_ideal(path5)
        assert ideal.generators == (Monomial((1, 1, 1, 0, 0)), Monomial((0, 0, 1, 1, 1)))

    def test_single_edge(self):
        ideal = edge_ideal(Hypergraph(2, [[1, 2]]))
        assert ideal.generators == (Monomial((1, 1)),)

    def test_four_cycle(self, four_cycle):
        ideal = edge_ideal(four_cycle)
        assert [str(g) for g in ideal.generators] == ["x1*x2", "x2*x3", "x3*x4", "x1*x4"]

    def test_generators_squarefree_antichain(self, example39):
        ideal = edge_ideal(example39)
        for g in ideal.generators:
            assert set(g.exps) <= {0, 1}
        for a in ideal.generators:
            for b in ideal.generators:
                assert a is b or not a.divides(b)

    def test_masks_past_one_machine_word(self):
        ideal = edge_ideal(Hypergraph(100, [[1, 100], [2, 99]]))
        assert [[v for v, e in enumerate(g.exps) if e] for g in ideal.generators] == [
            [0, 99], [1, 98]]

    def test_exponent_entries_over_budget_refused(self):
        # n * m = 2^20 entries are built; one more edge's worth is refused
        assert len(edge_ideal(Hypergraph(1 << 19, [[1, 2], [3, 4]])).generators) == 2
        with pytest.raises(ResourceCapError, match="^1572864 exponent entries for the edge "
                                                   "ideal in 524288 variables, over the cap"):
            edge_ideal(Hypergraph(1 << 19, [[1, 2], [3, 4], [5, 6]]))


class TestJson:
    def test_round_trip(self, path5, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"n": 5, "edges": [[1, 2, 3], [3, 4, 5]],
                                    "labels": list("abcde")}))
        assert Hypergraph.load(path) == path5

    def test_load_golden(self, data_dir):
        h = Hypergraph.load(data_dir / "path5.json")
        assert h.labels == ("a", "b", "c", "d", "e")
        assert h.edge_sets() == ((1, 2, 3), (3, 4, 5))

    def test_edges_order_insensitive(self):
        a = Hypergraph(4, [[2, 1], [4, 3]])
        b = Hypergraph(4, [[1, 2], [3, 4]])
        assert a == b

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="invalid JSON"):
            Hypergraph.load(path)

    def test_missing_keys(self):
        with pytest.raises(ValidationError, match="needs"):
            Hypergraph.from_dict({"n": 3})

    @pytest.mark.parametrize("data, key", [({"n": 3, "edges": 5}, "edges"),
                                           ({"n": 3, "edges": [5]}, "edges"),
                                           ({"n": 3, "edges": [[1, 2]], "labels": 5}, "labels")])
    def test_malformed_shape(self, data, key):
        with pytest.raises(ValidationError, match=f'"{key}" must be an array'):
            Hypergraph.from_dict(data)

    def test_null_labels_allowed(self):
        h = Hypergraph.from_dict({"n": 3, "edges": [[1, 2]], "labels": None})
        assert h.labels is None
