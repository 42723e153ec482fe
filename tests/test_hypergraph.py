import json

import pytest

from hyperbetti.errors import ResourceCapError, ValidationError
from hyperbetti.hypergraph import Hypergraph, edge_ideal
from hyperbetti.monomials import Monomial


class TestValidation:
    def test_valid(self, path5):
        assert path5.n == 5
        assert path5.edge_sets() == ((1, 2, 3), (3, 4, 5))

    def test_containment_rejected(self):
        with pytest.raises(ValidationError, match="contained"):
            Hypergraph(3, [[1, 2], [1, 2, 3]])
        with pytest.raises(ValidationError, match="contained"):
            Hypergraph(3, [[1, 2, 3], [1, 2]])

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
