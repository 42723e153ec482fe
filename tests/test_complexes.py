import random
from math import comb

import pytest

from hyperbetti.complexes import _support_facets, faridi_complex, taylor_complex
from hyperbetti.errors import DomainError, ResourceCapError
from hyperbetti.hypergraph import Hypergraph, edge_ideal
from hyperbetti.monomials import Monomial, power_generators
from hyperbetti.verify import random_hypergraph
from helpers import (MatrixNN, brute_minimal_power_generators, disjoint_ideal,
                     generator_matrix, incidence_matrix, max_vector, multiply_tuple,
                     support_facets_oracle, tuple_matrix)


class TestMatrices:
    def test_incidence_path5(self, path5):
        A = incidence_matrix(path5)
        assert A.column(0) == (1, 1, 1, 0, 0)
        assert A.column(1) == (0, 0, 1, 1, 1)
        assert A.column_sums() == (3, 3)

    def test_incidence_single_edge(self):
        A = incidence_matrix(Hypergraph(2, [[1, 2]]))
        assert A.entries == ((1,), (1,))

    def test_incidence_four_cycle(self, four_cycle):
        A = incidence_matrix(four_cycle)
        assert A.column_sums() == (2, 2, 2, 2)
        assert all(sum(row) == 2 for row in A.entries)

    def test_generator_matrix_matches_incidence(self, path5):
        assert generator_matrix(edge_ideal(path5)) == incidence_matrix(path5)

    def test_max_vector_single_column(self, path5):
        A = incidence_matrix(path5)
        assert max_vector(A, [0]) == (1, 1, 1, 0, 0)

    def test_max_vector_path5_both_columns(self, path5):
        # at power one the product matrix is the incidence matrix itself
        A = incidence_matrix(path5)
        assert max_vector(A, [0, 1]) == (1, 1, 1, 1, 1)
        assert sum(max_vector(A, [0, 1])) == 5

    def test_max_vector_duplicate_columns(self, path5):
        A = incidence_matrix(path5)
        assert max_vector(A, [0, 0]) == max_vector(A, [0])

    def test_max_vector_empty(self, path5):
        with pytest.raises(DomainError):
            max_vector(incidence_matrix(path5), [])

    def test_mul(self):
        a = MatrixNN([[1, 0], [1, 1]])
        b = MatrixNN([[2, 1], [0, 3]])
        assert a.mul(b).entries == ((2, 1), (2, 4))


class TestTaylor:
    def test_two_generators(self, path5):
        cx = taylor_complex(power_generators(edge_ideal(path5), 1))
        assert [len(cx.faces[d]) for d in (-1, 0, 1)] == [1, 2, 1]
        edge = cx.faces[1][0]
        assert cx.label_exps(edge) == (1, 1, 1, 1, 1)
        assert cx.degree(edge) == 5

    def test_simplex_counts(self, example39):
        cx = taylor_complex(power_generators(edge_ideal(example39), 1))
        for k in range(5):
            assert len(cx.faces[k - 1]) == comb(4, k)

    def test_vertex_labels_match_tuples(self, four_cycle):
        ideal = edge_ideal(four_cycle)
        cx = taylor_complex(power_generators(ideal, 2))
        for b, mono in cx.vertices:
            assert multiply_tuple(ideal.generators, b) == mono

    def test_cap(self, example39):
        gens = power_generators(edge_ideal(example39), 1)
        with pytest.raises(ResourceCapError):
            taylor_complex(gens, max_faces=8)
        assert taylor_complex(gens, max_faces=16).face_count == 16

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            taylor_complex([])

    def test_cap_message_past_printable_decimals(self):
        # 2^14284 has 4300 decimal digits, the most Python prints by default
        gens = [((k,), Monomial((k,))) for k in range(1, 14286)]
        with pytest.raises(ResourceCapError, match=f"yields {1 << 14284} faces"):
            taylor_complex(gens[:-1])
        with pytest.raises(ResourceCapError, match=r"yields 2\^14285 faces"):
            taylor_complex(gens)


def tuple_complex(m, t):
    """The support complex on every length-m tuple summing to t.

    On m disjoint edges no two products of t edges collide or divide each
    other, so every tuple is a vertex of the power's support complex.
    """
    edges = [[2 * k + 1, 2 * k + 2] for k in range(m)]
    return faridi_complex(edge_ideal(Hypergraph(2 * m, edges)), t)


class TestTupleComplex:
    def test_support_facets_match_oracle(self):
        rng = random.Random(3)
        for m in range(1, 7):
            for t in range(1, 6):
                pool = [b for b, _ in power_generators(disjoint_ideal(m), t)]
                for _ in range(10):
                    tuples = sorted(rng.sample(pool, rng.randint(1, len(pool))))
                    assert _support_facets(tuples, t) == support_facets_oracle(tuples, t)

    def test_m2_t2_is_path_on_three(self):
        tc = tuple_complex(2, 2)
        assert [b for b, _ in tc.vertices] == [(2, 0), (1, 1), (0, 2)]
        assert tc.faces[0] == ((0,), (1,), (2,))
        assert tc.faces[1] == ((0, 1), (1, 2))
        assert 2 not in tc.faces

    def test_m2_t3_is_path_on_four(self):
        tc = tuple_complex(2, 3)
        assert tc.faces[1] == ((0, 1), (1, 2), (2, 3))
        assert 2 not in tc.faces

    def test_t1_is_full_simplex(self):
        for m in (2, 3, 4):
            tc = tuple_complex(m, 1)
            for k in range(m + 1):
                assert len(tc.faces.get(k - 1, ())) == comb(m, k)

    def test_facets_closed_under_subsets(self):
        rng = random.Random(1)
        for m, t in ((3, 2), (3, 3), (4, 2)):
            tc = tuple_complex(m, t)
            all_faces = {f for fs in tc.faces.values() for f in fs}
            big = [f for f in all_faces if len(f) >= 2]
            for _ in range(50):
                face = rng.choice(big)
                k = rng.randrange(len(face))
                sub = tuple(v for idx, v in enumerate(face) if idx != k)
                assert sub in all_faces


class TestFaridi:
    def test_path5_cubed_is_path_on_four(self, path5):
        cx = faridi_complex(edge_ideal(path5), 3)
        assert len(cx.vertices) == 4
        assert [cx.degree((v,)) for v in range(4)] == [9, 9, 9, 9]
        assert cx.faces[1] == ((0, 1), (1, 2), (2, 3))
        assert [cx.degree(f) for f in cx.faces[1]] == [11, 11, 11]
        assert cx.dim == 1

    def test_coprime_t1_equals_taylor(self):
        ideal = edge_ideal(Hypergraph(6, [[1, 2], [3, 4], [5, 6]]))
        assert faridi_complex(ideal, 1) == taylor_complex(power_generators(ideal, 1))

    def test_t1_equals_taylor_random(self):
        for seed in range(10):
            h = random_hypergraph(6, 3, random.Random(seed).choice((2, 3)), seed)
            ideal = edge_ideal(h)
            assert faridi_complex(ideal, 1) == taylor_complex(power_generators(ideal, 1))

    def test_four_cycle_squared_vertices(self, four_cycle):
        cx = faridi_complex(edge_ideal(four_cycle), 2)
        assert len(cx.vertices) == 9
        tuples = {b for b, _ in cx.vertices}
        assert (1, 0, 1, 0) in tuples and (0, 1, 0, 1) not in tuples

    def test_vertices_are_minimal_generators(self):
        rng = random.Random(9)
        for seed in range(8):
            h = random_hypergraph(rng.randint(4, 6), rng.randint(2, 3), rng.choice((2, 3)), seed)
            ideal = edge_ideal(h)
            for t in (2, 3):
                cx = faridi_complex(ideal, t)
                labels = {mono for _, mono in cx.vertices}
                assert labels == brute_minimal_power_generators(ideal, t)

    def test_downward_closed(self, path5):
        cx = faridi_complex(edge_ideal(path5), 2)
        all_faces = {f for fs in cx.faces.values() for f in fs}
        for d, fs in cx.faces.items():
            if d < 0:
                continue
            for face in fs:
                for k in range(len(face)):
                    assert face[:k] + face[k + 1:] in all_faces

    def test_degree_matches_matrix_route(self):
        # face degree from lcm labels == column-max route through the product matrix
        rng = random.Random(4)
        for seed in range(6):
            h = random_hypergraph(6, 3, rng.choice((2, 3)), seed)
            ideal = edge_ideal(h)
            for t in (1, 2, 3):
                cx = faridi_complex(ideal, t)
                AB = generator_matrix(ideal).mul(tuple_matrix([b for b, _ in cx.vertices]))
                for fs in cx.faces.values():
                    for face in fs:
                        if not face:
                            continue
                        assert cx.degree(face) == sum(max_vector(AB, list(face)))
                        assert cx.label_exps(face) == max_vector(AB, list(face))

    def test_cap_on_power_complex(self, four_cycle):
        with pytest.raises(ResourceCapError):
            faridi_complex(edge_ideal(four_cycle), 2, max_faces=16)


class TestLabelledComplex:
    def test_label_monomial(self, path5):
        cx = faridi_complex(edge_ideal(path5), 1)
        edge = cx.faces[1][0]
        assert Monomial(cx.label_exps(edge)) == Monomial((1, 1, 1, 1, 1))

    def test_empty_face_present(self, path5):
        cx = faridi_complex(edge_ideal(path5), 2)
        assert cx.faces[-1] == ((),)
        assert cx.degree(()) == 0
