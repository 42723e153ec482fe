import json
import random
import sys
import threading
from array import array
from functools import partial
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hyperbetti import betti, complexes
from hyperbetti.betti import (BettiTable, bound_applicability, graded_betti,
                              integer_rank, reduced_boundary, survivor_face_sets,
                              validate_characteristic)
from hyperbetti.complexes import (DEFAULT_MAX_FACES, LabelledComplex, _support_facets,
                                  _vertices_of, faridi_complex, lyubeznik_complex,
                                  taylor_complex)
from hyperbetti.errors import DomainError, ResourceCapError
from hyperbetti.hypergraph import Hypergraph, edge_ideal
from hyperbetti.matchings import invariants
from hyperbetti.monomials import Monomial, MonomialIdeal, power_generators
from hyperbetti.verify import (CORPUS_MAX_FACES, ComputeCache, builtin_corpus,
                               check_taylor_agreement, random_hypergraph)
from helpers import (canonical_edges, fraction_rank, gf_rank, hochster_betti, survivor_oracle,
                     unread)


def dense_table(cx, char):
    """The table from the ranks of the dense per-degree reduced_boundary matrices."""
    table = {(0, 0): 1}
    for i in range(1, cx.dim + 2):
        for j, masks in cx._degree_groups(i - 1).items():
            value = len(masks) - sum(integer_rank(reduced_boundary(cx, k, j).entries, char)
                                     for k in (i, i + 1))
            if value:
                table[i, j] = value
    return table


def reordered(cx, order):
    """The same complex with its vertex order[k] moved to place k, so other masks."""
    place = {v: k for k, v in enumerate(order)}
    masks = {mask for faces in cx._index for mask in faces}
    facets = [mask for mask in masks
              if not any(mask | 1 << v in masks for v in range(len(order)) if not mask >> v & 1)]
    return LabelledComplex([cx.vertices[v] for v in order],
                           [[place[v] for v in _vertices_of(mask)] for mask in facets])


def random_sign_matrix(rng, rows, cols):
    return [[rng.choice((-1, 0, 0, 1)) for _ in range(cols)] for _ in range(rows)]


class TestIntegerRank:
    def test_against_fraction_elimination(self):
        rng = random.Random(12)
        for _ in range(60):
            m = random_sign_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
            assert integer_rank(m) == fraction_rank(m)

    def test_against_sympy_mod_p(self):
        rng = random.Random(13)
        for p in (2, 3, 5):
            for _ in range(15):
                m = random_sign_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
                assert integer_rank(m, p) == gf_rank(m, p)

    def test_char_can_drop_rank(self):
        # all-ones 2x2 plus identity-ish rows: det 2, invertible over Q only
        m = [[1, 1], [1, -1]]
        assert integer_rank(m) == 2
        assert integer_rank(m, 2) == 1

    def test_empty(self):
        assert integer_rank([]) == 0
        assert integer_rank([[]]) == 0

    def test_bad_characteristic(self):
        with pytest.raises(DomainError):
            integer_rank([[1]], 4)

    @pytest.mark.parametrize("values", [range(-3, 4), (-3, -2, 0, 0, 2, 3)])
    def test_non_unit_entries_over_q(self, values):
        # the second pool has no unit entries at all, so every pivot is a
        # non-unit and the reduction runs on Fractions
        rng = random.Random(14)
        for _ in range(80):
            m = [[rng.choice(values) for _ in range(rng.randint(1, 9))]]
            m += [[rng.choice(values) for _ in m[0]] for _ in range(rng.randint(0, 8))]
            assert integer_rank(m) == fraction_rank(m)

    @pytest.mark.parametrize("p", [2, 3, 5, 32003])
    @pytest.mark.parametrize("values", [range(-3, 4), (-3, -2, 0, 0, 2, 3)])
    def test_non_unit_entries_mod_p(self, p, values):
        rng = random.Random(15 + p)
        for _ in range(25):
            m = [[rng.choice(values) for _ in range(rng.randint(1, 8))]]
            m += [[rng.choice(values) for _ in m[0]] for _ in range(rng.randint(0, 7))]
            assert integer_rank(m, p) == gf_rank(m, p)

    @pytest.mark.parametrize("p, rank", [(0, 2), (3, 2), (32003, 2), (2, 1)])
    def test_unbuilt_non_unit_pivot(self, p, rank):
        # the first column pivots at row 1 on the non-unit 2; the second and
        # third reduce against it there, so its inverse is taken then
        assert integer_rank([[0, 1, 0], [2, 2, 4]], p) == rank

    def test_wrong_inverse_fails_fast(self):
        # a pivot entry -1 kept with the inverse +1 doubles the entry it should
        # clear; the step raises instead of reducing the same row forever
        with pytest.raises(ArithmeticError, match="row 1"):
            betti._reduce({1: 1, 0: 1}, "v", {1: "p"}, {1: ({1: -1}, 1)}, None, 0)


class TestCharacteristic:
    @pytest.mark.parametrize("p", [2, 3, 5, 41, 43, 32003, (1 << 31) - 1, (1 << 61) - 1])
    def test_primes_accepted(self, p):
        validate_characteristic(p)

    @pytest.mark.parametrize("n", [-7, 1, 4, 6, 32001, 561, 3215031751,
                                   ((1 << 31) - 1) * ((1 << 61) - 1)])
    def test_composites_rejected(self, n):
        # 561 is a Carmichael number; 3215031751 is a strong pseudoprime
        # to bases 2, 3, 5 and 7
        with pytest.raises(DomainError):
            validate_characteristic(n)


class TestReducedBoundary:
    def test_vertices_never_hit_empty_face(self, path5):
        cx = faridi_complex(edge_ideal(path5), 1)
        for j in (3, 5):
            mat = reduced_boundary(cx, 1, j)
            assert mat.rows == () or all(all(x == 0 for x in row) for row in mat.entries)

    def test_path5_taylor_edge_boundary_vanishes(self, path5):
        # the single edge has lcm degree 5, both vertices degree 3
        cx = taylor_complex(power_generators(edge_ideal(path5), 1))
        mat = reduced_boundary(cx, 2, 5)
        assert mat.cols == ((0, 1),)
        assert mat.rows == ()

    def test_surviving_term_sign(self, example39):
        # in the simplex on these four generators the full face keeps its label
        # exactly when the fourth vertex is removed: sign (-1)^4 = +1
        cx = taylor_complex(power_generators(edge_ideal(example39), 1))
        mat = reduced_boundary(cx, 4, 9)
        assert mat.cols == ((0, 1, 2, 3),)
        assert mat.rows == ((0, 1, 2),)
        assert mat.entries == ((1,),)

    def test_boundary_composes_to_zero(self):
        rng = random.Random(21)
        for seed in range(8):
            h = random_hypergraph(rng.randint(4, 6), rng.randint(2, 4),
                                  rng.choice((2, 3)), seed)
            ideal = edge_ideal(h)
            for t in (1, 2):
                cx = faridi_complex(ideal, t)
                for i in range(2, cx.dim + 2):
                    degrees = set(cx._degree_groups(i - 1)) | set(cx._degree_groups(i))
                    for j in degrees:
                        outer = reduced_boundary(cx, i, j)
                        inner = reduced_boundary(cx, i + 1, j)
                        assert outer.cols == inner.rows
                        for r in range(len(outer.rows)):
                            for c in range(len(inner.cols)):
                                acc = sum(outer.entries[r][k] * inner.entries[k][c]
                                          for k in range(len(outer.cols)))
                                assert acc == 0


class TestGradedBetti:
    def test_path5_first_power(self, path5):
        table = graded_betti(faridi_complex(edge_ideal(path5), 1), power=1)
        assert table.entries == {(0, 0): 1, (1, 3): 2, (2, 5): 1}
        assert table.regularity() == 3

    def test_path5_cube(self, path5):
        table = graded_betti(faridi_complex(edge_ideal(path5), 3), power=3)
        assert table.entries == {(0, 0): 1, (1, 9): 4, (2, 11): 3}
        assert table.regularity() == 9

    def test_principal_ideal(self):
        ideal = edge_ideal(Hypergraph(2, [[1, 2]]))
        for t in (1, 2, 3, 4):
            table = graded_betti(faridi_complex(ideal, t))
            assert table.entries == {(0, 0): 1, (1, 2 * t): 1}

    def test_disjoint_edges_are_koszul(self):
        for m in (2, 3):
            h = Hypergraph(2 * m, [[2 * k + 1, 2 * k + 2] for k in range(m)])
            table = graded_betti(faridi_complex(edge_ideal(h), 1))
            assert table.entries == {(0, 0): 1,
                                     **{(i, 2 * i): comb(m, i) for i in range(1, m + 1)}}

    def test_four_cycle_linear_resolution(self, four_cycle):
        table = graded_betti(faridi_complex(edge_ideal(four_cycle), 1))
        assert table.entries == {(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1}
        assert table.regularity() == 1

    def test_example39_first_power(self, example39):
        # pinned from two independent routes: this reduced complex and Hochster's
        # formula (test_hochster_oracle_first_power); identical in char 0, 2, 3, 5
        table = graded_betti(faridi_complex(edge_ideal(example39), 1))
        assert table.entries == {(0, 0): 1, (1, 3): 4, (2, 5): 3, (2, 6): 3, (3, 7): 3}
        assert table.regularity() == 4

    def test_row_one_counts_generators(self):
        rng = random.Random(31)
        for seed in range(6):
            h = random_hypergraph(6, 3, rng.choice((2, 3)), seed)
            ideal = edge_ideal(h)
            for t in (1, 2):
                table = graded_betti(faridi_complex(ideal, t))
                total = sum(b for (i, _), b in table.entries.items() if i == 1)
                assert total == len(power_generators(ideal, t))

    def test_taylor_and_faridi_agree(self):
        rng = random.Random(41)
        for seed in range(8):
            h = random_hypergraph(rng.randint(4, 6), rng.randint(2, 4),
                                  rng.choice((2, 3)), seed)
            ideal = edge_ideal(h)
            for t in (1, 2):
                ours = graded_betti(faridi_complex(ideal, t))
                taylor = graded_betti(taylor_complex(power_generators(ideal, t)))
                assert ours == taylor

    def test_invariant_under_generator_order(self, path5):
        shuffled = Hypergraph(5, [[3, 4, 5], [1, 2, 3]])
        for t in (1, 2, 3):
            a = graded_betti(faridi_complex(edge_ideal(path5), t))
            b = graded_betti(faridi_complex(edge_ideal(shuffled), t))
            assert a == b

    def test_char_independent_instance(self, path5):
        ideal = edge_ideal(path5)
        for t in (1, 2):
            cx = faridi_complex(ideal, t)
            assert graded_betti(cx, char=2).entries == graded_betti(cx).entries
            assert graded_betti(cx, char=3).entries == graded_betti(cx).entries

    @pytest.mark.parametrize("char", [0, 2, 3, 32003])
    def test_blocks_match_dense_boundaries(self, char):
        # the blocked table against one rebuilt from the dense per-degree
        # reduced_boundary matrices, on support complexes and Taylor simplices
        rng = random.Random(51)
        for seed in range(6):
            h = random_hypergraph(rng.randint(4, 6), rng.randint(2, 4),
                                  rng.choice((2, 3)), seed)
            ideal = edge_ideal(h)
            for t in (1, 2):
                for cx in (faridi_complex(ideal, t),
                           taylor_complex(power_generators(ideal, t))):
                    assert graded_betti(cx, char=char).entries == dense_table(cx, char)

    @pytest.mark.parametrize("char", [0, 3])
    def test_pairing_invariants(self, char):
        # each pass pairs a pivot column with a pivot row of its own label one
        # dimension down, never takes a column cleared by the pass above, and
        # pairs as many faces as the dense boundary's rank
        seen = 0
        for name, h in builtin_corpus():
            ideal = edge_ideal(h)
            for t in (1, 2):
                for cx in (faridi_complex(ideal, t),
                           taylor_complex(power_generators(ideal, t))):
                    above = {}
                    for d, pairs, _ in betti._pairs(cx, char):
                        seen += 1
                        rows = set(cx._index[d].values())
                        for row, key in pairs.items():
                            number = cx._index[d + 1][key]
                            assert row in rows and key.bit_count() == d + 1, name
                            assert cx._lids[row] == cx._lids[number], name
                            assert number not in above, name
                        assert len(pairs) == sum(
                            integer_rank(reduced_boundary(cx, d + 1, j).entries, char)
                            for j in cx._degree_groups(d)), name
                        above = pairs
        assert seen

    @pytest.mark.parametrize("kind", ["faridi", "taylor"])
    def test_one_reduction_per_dimension(self, example39, kind):
        ideal = edge_ideal(example39)
        cx = (faridi_complex(ideal, 2) if kind == "faridi"
              else taylor_complex(power_generators(ideal, 2)))
        dims = [d for d, _, _ in betti._pairs(cx, 0)]
        assert dims == list(range(cx.dim, -1, -1))

    @pytest.mark.parametrize("kind", ["faridi", "taylor"])
    def test_columns_built_only_to_reduce(self, monkeypatch, empty_memo, example39, kind):
        # a column whose largest row is not yet a pivot row is never built
        ideal = edge_ideal(example39)
        cx = (faridi_complex(ideal, 2) if kind == "faridi"
              else taylor_complex(power_generators(ideal, 2)))
        calls = []
        real = betti._boundary_column
        monkeypatch.setattr(betti, "_boundary_column",
                            lambda cx, face: calls.append(face) or real(cx, face))
        graded_betti(cx)
        assert len(calls) < cx.face_count / 16

    @pytest.mark.parametrize("char, torsion", [(0, {}), (3, {}),
                                               (2, {(2, 1): 1, (3, 1): 1})])
    def test_projective_plane_torsion(self, char, torsion):
        # the 6-vertex RP^2 with every vertex labelled x1: the one label block
        # is its unreduced chain complex, with H_1 = Z/2 and H_2 = 0, so only
        # GF(2) sees rows 2 and 3; over Q one pivot entry is -2, an exact Fraction
        triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                     (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]
        cx = LabelledComplex([((v,), Monomial((1,))) for v in range(6)], triangles)
        assert graded_betti(cx, char=char).entries == {(0, 0): 1, (1, 1): 1, **torsion}

    @pytest.mark.parametrize("char", [0, 2, 3, 5])
    @pytest.mark.parametrize("name", ["example39", "path5", "four_cycle"])
    def test_hochster_oracle_first_power(self, request, name, char):
        h = request.getfixturevalue(name)
        rank = fraction_rank if char == 0 else partial(gf_rank, p=char)
        expected = hochster_betti(h, rank)
        ideal = edge_ideal(h)
        assert graded_betti(faridi_complex(ideal, 1), char=char).entries == expected
        assert graded_betti(taylor_complex(power_generators(ideal, 1)),
                            char=char).entries == expected

    def test_hochster_oracle_on_corpus(self):
        # every corpus instance but example39 (n = 9, covered above) over Q
        corpus = builtin_corpus()
        small = [(name, h) for name, h in corpus if h.n <= 7]
        assert len(small) == len(corpus) - 1
        for name, h in small:
            table = graded_betti(faridi_complex(edge_ideal(h), 1))
            assert table.entries == hochster_betti(h), name


class TestFieldDependentTable:
    # data/rp2-6.json: the 10 triples of {1..6} that are not triangles of the
    # 6-vertex RP^2 of TestPairingMemo, so its edge ideal is the Stanley-Reisner
    # ideal of RP^2, whose H_1 = Z/2 shows in the table over GF(2) only
    first = {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6}

    @pytest.mark.parametrize("char, torsion, reg", [
        (0, {}, 2), (3, {}, 2), (2, {(3, 6): 1, (4, 6): 1}, 3)])
    def test_first_power(self, data_dir, char, torsion, reg):
        ideal = edge_ideal(Hypergraph.load(data_dir / "rp2-6.json"))
        for cx in (faridi_complex(ideal, 1), lyubeznik_complex(power_generators(ideal, 1))):
            table = graded_betti(cx, char=char, power=1)
            assert table.entries == {**self.first, **torsion} and table.regularity() == reg

    @pytest.mark.parametrize("char", [0, 2, 3])
    def test_second_power_is_the_same_in_every_field(self, data_dir, char):
        ideal = edge_ideal(Hypergraph.load(data_dir / "rp2-6.json"))
        with pytest.raises(ResourceCapError, match="facet with 45 vertices"):
            faridi_complex(ideal, 2)
        table = graded_betti(lyubeznik_complex(power_generators(ideal, 2)), char=char)
        assert table.entries == {(0, 0): 1, (1, 6): 55, (2, 7): 144, (3, 8): 150,
                                 (4, 9): 80, (5, 10): 21, (6, 12): 1}


class TestBoundarySigns:
    # the square of this 5-edge graph is a support-complex table that changes
    # when every boundary sign is +1 (it gains (2, 7) and loses one at (4, 7));
    # no builtin corpus instance has more than 4 edges, and none sees signs
    graph = Hypergraph(5, [[1, 4], [2, 4], [2, 5], [3, 5], [4, 5]])

    @pytest.mark.parametrize("char", [0, 3])
    def test_faridi_table_at_second_power(self, char):
        cx = faridi_complex(edge_ideal(self.graph), 2)
        assert cx.face_count == 1104
        assert graded_betti(cx, char=char, power=2).entries == {
            (0, 0): 1, (1, 4): 15, (2, 5): 28, (3, 6): 19, (4, 7): 6, (5, 8): 1}

    def test_taylor_agreement_at_second_power(self):
        # the Taylor simplex has 2^15 faces, over the corpus cap
        report = check_taylor_agreement(self.graph, 2,
                                        cache=ComputeCache(max_faces=DEFAULT_MAX_FACES))
        assert report.witness == {"t": 2, "faces_taylor": 32768}
        assert report.hypothesis_satisfied and report.conclusion_holds


class TestRareReduction:
    # one label on every vertex makes each boundary the whole simplicial one,
    # so columns reduce against reduced pivots whose entries can leave +-1,
    # which no workload or corpus instance reaches
    def test_single_label_complexes_match_dense(self, monkeypatch, empty_memo):
        used = []  # the pivot columns a reduction has used, in the last table
        real = betti._reduce

        def spy(v, key, pivots, built, build, char):
            try:
                return real(v, key, pivots, built, build, char)
            finally:
                used.extend(col for col, inv in built.values() if inv is not None)

        monkeypatch.setattr(betti, "_reduce", spy)
        non_unit = 0
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(7, 10)
            facets = [f for k in (3, 4) for f in combinations(range(n), k) if rng.random() < 0.5]
            cx = LabelledComplex([((v,), Monomial((1,))) for v in range(n)], facets)
            for char in (0, 2, 3):
                used.clear()
                table = graded_betti(cx, char=char).entries
                non_unit += char == 0 and any(x not in (1, -1) for col in used
                                              for x in col.values())
                assert table == dense_table(cx, char), (seed, char)
        assert non_unit


class TestVertexOrder:
    # a new vertex order renumbers the face masks, so the pairing meets the
    # columns in another order and reduces them differently; the table of a
    # complex must not change with it
    graph = TestBoundarySigns.graph

    @pytest.mark.parametrize("char", [0, 3])
    @pytest.mark.parametrize("kind", ["faridi", "taylor"])
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_sign_sensitive_graph(self, char, kind, data):
        ideal = edge_ideal(self.graph)
        cx = (faridi_complex(ideal, 2) if kind == "faridi"
              else taylor_complex(power_generators(ideal, 2)))
        order = data.draw(st.permutations(range(len(cx.vertices))))
        assert (graded_betti(reordered(cx, order), char=char).entries
                == graded_betti(cx, char=char).entries)

    # six more graphs, found by a seeded search over graphs with 5 and 6
    # edges, whose support table at t = 2 changes when every sign is +1;
    # pairwise non-isomorphic, and none isomorphic to the graph above
    more_graphs = [
        (Hypergraph(7, [[1, 3], [2, 5], [2, 6], [2, 7], [4, 7]]),
         {(0, 0): 1, (1, 4): 15, (2, 5): 19, (2, 6): 14, (3, 6): 8, (3, 7): 19, (4, 7): 1,
          (4, 8): 8, (5, 9): 1}),
        (Hypergraph(6, [[1, 6], [2, 4], [3, 4], [3, 6], [4, 5]]),
         {(0, 0): 1, (1, 4): 15, (2, 5): 24, (2, 6): 5, (3, 6): 12, (3, 7): 8, (4, 7): 2,
          (4, 8): 3}),
        (Hypergraph(5, [[1, 5], [2, 5], [3, 4], [3, 5], [4, 5]]),
         {(0, 0): 1, (1, 4): 15, (2, 5): 31, (3, 6): 25, (4, 7): 9, (5, 8): 1}),
        (Hypergraph(7, [[1, 2], [1, 5], [1, 6], [1, 7], [3, 4]]),
         {(0, 0): 1, (1, 4): 15, (2, 5): 26, (2, 6): 14, (3, 6): 19, (3, 7): 26, (4, 7): 5,
          (4, 8): 19, (5, 9): 5}),
        (Hypergraph(5, [[1, 2], [2, 3], [2, 5], [3, 4], [4, 5]]),
         {(0, 0): 1, (1, 4): 14, (2, 5): 24, (3, 6): 13, (4, 7): 2}),
        (Hypergraph(5, [[1, 2], [1, 3], [1, 5], [2, 4], [3, 4], [4, 5]]),
         {(0, 0): 1, (1, 4): 18, (2, 5): 36, (3, 6): 25, (4, 7): 6}),
    ]

    def test_more_graphs_are_distinct(self):
        classes = {canonical_edges(h) for h, _ in self.more_graphs}
        assert len(classes | {canonical_edges(self.graph)}) == 7

    @pytest.mark.parametrize("char", [0, 3])
    @pytest.mark.parametrize("index", range(6))
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_more_sign_sensitive_graphs(self, char, index, data):
        graph, table = self.more_graphs[index]
        cx = faridi_complex(edge_ideal(graph), 2)
        assert graded_betti(cx, char=char).entries == table
        order = data.draw(st.permutations(range(len(cx.vertices))))
        assert graded_betti(reordered(cx, order), char=char).entries == table

    @pytest.mark.parametrize("char", [0, 3])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), data=st.data())
    def test_random_graphs(self, char, seed, data):
        rng = random.Random(seed)
        ideal = edge_ideal(random_hypergraph(rng.randint(4, 6), rng.randint(2, 4), 2, seed))
        t = rng.choice((1, 2, 3))
        for cx in (faridi_complex(ideal, t), taylor_complex(power_generators(ideal, min(t, 2)))):
            order = data.draw(st.permutations(range(len(cx.vertices))))
            assert (graded_betti(reordered(cx, order), char=char).entries
                    == graded_betti(cx, char=char).entries)


class TestIsomorphismClasses:
    # the builtin corpus lists several labellings of each hypergraph; the
    # support tables of one isomorphism class must all agree
    def test_one_table_per_class(self):
        classes = {}
        for name, h in builtin_corpus():
            if h.n <= 7:
                classes.setdefault(canonical_edges(h), []).append((name, edge_ideal(h)))
        assert len(classes) == 33 and sum(map(len, classes.values())) == 255
        for members in classes.values():
            for t in (1, 2):
                for char in (0, 3):
                    tables = {name: graded_betti(faridi_complex(ideal, t), char=char).entries
                              for name, ideal in members}
                    first = next(iter(tables.values()))
                    assert all(table == first for table in tables.values()), (t, char, tables)


class TestRecordedPools:
    # the benchmark's query pools, read as recorded: 2400 tables over Q and
    # GF(32003) at t = 2..4.  The builtin corpus stream does not see boundary
    # signs; all-+1 signs change 90 of these tables.  Many queries repeat a
    # labelled skeleton, so the tables check memo hits as well as reductions
    @pytest.mark.parametrize("pool", ["queries-char0.json", "queries-charp.json"])
    def test_every_recorded_table(self, empty_memo, kernel_runs, pool):
        path = Path(__file__).resolve().parent.parent / "perfbench" / "data" / pool
        recorded = json.loads(path.read_text(encoding="utf-8"))
        char, max_faces = recorded["char"], recorded["max_faces"]
        for q in recorded["queries"]:
            ideal = edge_ideal(Hypergraph(q["n"], q["edges"]))
            if q["complex"] == "taylor":
                cx = taylor_complex(power_generators(ideal, q["t"]), max_faces=max_faces)
            else:
                cx = faridi_complex(ideal, q["t"], max_faces=max_faces)
            table = graded_betti(cx, char=char, power=q["t"])
            assert [[i, j, b] for (i, j), b in table.items_sorted()] == q["table"], q
        assert 0 < len(kernel_runs) < len(recorded["queries"])


def kept_pairings(memo):
    """Every (labelling, char, counts) that the skeletons of a memo keep."""
    return [(labelling, char, counts) for skeleton in memo.values()
            for (labelling, char), counts in skeleton[3].items()]


def bytes_held(memo):
    return sum(len(labelling) + counts.itemsize * len(counts)
               for labelling, _, counts in kept_pairings(memo))


PLANE = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
         (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]  # the projective plane


def plane(rng, top):
    """The projective plane with random vertex labels, exponents 0..top in 3 variables."""
    exps = [tuple(rng.randint(0, top) for _ in range(3)) for _ in range(6)]
    return LabelledComplex([((v,), Monomial(e)) for v, e in enumerate(exps)], PLANE)


@pytest.mark.usefixtures("empty_memo")  # a full skeleton memo would leave complexes unkeyed
class TestPairingMemo:
    # graded_betti memoizes the unpaired counts of each (labelling, char) on
    # the complex's skeleton and grades them by the querying complex's own degrees

    def test_each_field_its_own_table(self, empty_memo):
        # the projective plane of TestGradedBetti: only GF(2) sees its torsion
        vertices = [((v,), Monomial((1,))) for v in range(6)]
        tables = {0: {(0, 0): 1, (1, 1): 1}, 2: {(0, 0): 1, (1, 1): 1, (2, 1): 1, (3, 1): 1}}
        for char in (0, 2, 0, 2):
            cx = LabelledComplex(vertices, PLANE)
            assert graded_betti(cx, char=char).entries == tables[char], char
        assert sorted(char for _, char, _ in kept_pairings(empty_memo)) == [0, 2]

    @pytest.mark.parametrize("char", [0, 3])
    def test_degrees_grade_each_hit(self, kernel_runs, four_cycle, char):
        # the square of the 4-cycle's edge ideal, and the same ideal with every
        # exponent doubled: one skeleton, one labelling, degrees twice as large
        gens = power_generators(edge_ideal(four_cycle), 2)
        doubled = [(b, Monomial(tuple(2 * e for e in mono.exps))) for b, mono in gens]
        facets = _support_facets([b for b, _ in gens], 2)
        plain, double = LabelledComplex(gens, facets), LabelledComplex(doubled, facets)
        assert plain._memo[0] is double._memo[0] and plain._memo[1] == double._memo[1]
        table = graded_betti(plain, char=char).entries
        assert graded_betti(double, char=char).entries == {
            (i, 2 * j): b for (i, j), b in table.items()} != table
        assert kernel_runs == [plain]
        assert table == dense_table(plain, char)

    def test_labelling_replays_the_label_ids(self, empty_memo, example39):
        # the labelling is each block's joined ids, as 16-bit bytes, in the
        # order its step takes the distinct parent ids, so replaying it on the
        # skeleton gives back every face's label id
        rng = random.Random(3)
        ideal = edge_ideal(example39)
        cxs = [faridi_complex(ideal, 2), taylor_complex(power_generators(ideal, 2))]
        for cx in cxs + [plane(rng, 2) for _ in range(20)]:
            pairings, labelling = cx._memo
            _, blocks, _, _ = next(kept for kept in empty_memo.values() if kept[3] is pairings)
            lids, joins = [0], iter(array("H", labelling))
            for _, parents in blocks:
                parent_ids = parents(lids)
                step = {lid: next(joins) for lid in set(parent_ids)}
                lids += map(step.__getitem__, parent_ids)
            assert next(joins, None) is None
            assert lids == cx._lids

    @pytest.mark.parametrize("char", [0, 2])
    def test_other_labellings_of_one_skeleton(self, empty_memo, char):
        # the projective plane under random labellings: one skeleton, and two
        # complexes share a labelling exactly when they share every label id
        rng = random.Random(11)
        labellings = {}
        for _ in range(40):
            cx = plane(rng, 1)
            assert graded_betti(cx, char=char).entries == dense_table(cx, char)
            ids = cx._lids
            assert labellings.setdefault(cx._memo[1], ids) == ids
        assert len(empty_memo) == 1 < len(labellings)
        assert len({tuple(ids) for ids in labellings.values()}) == len(labellings)
        assert sorted(labelling for labelling, _, _ in kept_pairings(empty_memo)) == sorted(
            labellings)

    def test_bound(self, monkeypatch, empty_memo):
        # past _MEMO_BYTES new tables are computed and not kept, and stay right
        assert complexes._MEMO_BYTES == 1 << 19
        bound = 600
        monkeypatch.setattr(complexes, "_MEMO_BYTES", bound)
        computed = {}
        for seed in range(12):
            cx = plane(random.Random(seed), 2)
            for char in (0, 2):
                held = complexes._held
                table = graded_betti(cx, char=char).entries
                assert table == dense_table(cx, char), (seed, char)
                kept = cx._pairing(char)
                computed[cx._memo[1], char] = kept is not None
                if kept is None:
                    assert complexes._held == held
                assert complexes._held == bytes_held(empty_memo)
                assert complexes._held <= bound
        assert any(computed.values()) and not all(computed.values())

    def test_threads_keep_the_bound(self, monkeypatch, empty_memo):
        # threads that miss at once count each kept entry once, within the bound
        cxs = [plane(random.Random(seed), 2) for seed in range(30)]
        queries = [(cx, char, dense_table(cx, char)) for cx in cxs for char in (0, 2)]
        pairings = cxs[0]._memo[0]
        assert all(cx._memo[0] is pairings for cx in cxs)
        bound = 2000
        monkeypatch.setattr(complexes, "_MEMO_BYTES", bound)
        wrong = []

        def query(seed):
            for cx, char, table in random.Random(seed).sample(queries, len(queries)):
                if graded_betti(cx, char=char).entries != table:
                    wrong.append((cx, char))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                pairings.clear()
                complexes._held = 0
                workers = [threading.Thread(target=query, args=(seed,)) for seed in range(4)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                assert not any(worker.is_alive() for worker in workers)
                assert not wrong
                assert complexes._held == bytes_held(empty_memo)
                assert bound // 2 < complexes._held <= bound
        finally:
            sys.setswitchinterval(interval)

    def test_threads_that_miss_together_keep_one_skeleton(self, monkeypatch, empty_memo):
        # two threads build the same skeleton at once: the second to lock finds
        # the first's in the memo, so the complexes share one index and every
        # kept pairing stays reachable from the memo
        meet = threading.Barrier(2)
        build = complexes._skeleton

        def build_together(facets, max_faces):
            skeleton = build(facets, max_faces)
            meet.wait(timeout=30)
            return skeleton

        monkeypatch.setattr(complexes, "_skeleton", build_together)
        cxs = [None, None]

        def construct(k):
            cxs[k] = plane(random.Random(5), 2)

        workers = [threading.Thread(target=construct, args=(k,)) for k in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert None not in cxs
        assert cxs[0]._index is cxs[1]._index and len(empty_memo) == 1
        for cx in cxs:
            assert graded_betti(cx).entries == dense_table(cx, 0)
        assert complexes._held == bytes_held(empty_memo) > 0

    def test_complexes_without_a_key(self, monkeypatch, empty_memo, kernel_runs, four_cycle):
        # a skeleton or a Lyubeznik complex over the memo's bound is reduced
        # every time; a kept Lyubeznik complex is memoized, and so is a complex
        # on a kept skeleton whatever its label count, here 512 labels, ids
        # past one byte
        gens = power_generators(edge_ideal(four_cycle), 2)
        free = [((v,), Monomial(tuple(int(k == v) for k in range(9)))) for v in range(9)]
        monkeypatch.setattr(complexes, "_MEMO_FACES", 8)
        unkept = [LabelledComplex(gens, _support_facets([b for b, _ in gens], 2)),
                  lyubeznik_complex(gens)]
        monkeypatch.setattr(complexes, "_MEMO_FACES", 1 << 16)
        for cx in unkept:
            assert cx._memo is None
            assert graded_betti(cx).entries == graded_betti(cx).entries
        assert len(kernel_runs) == 4 and not empty_memo
        kept = lyubeznik_complex(gens)
        assert kept._memo is not None and kept._lids == unkept[1]._lids
        table = graded_betti(kept).entries
        assert graded_betti(lyubeznik_complex(gens)).entries == table  # an equal key
        assert kernel_runs[4:] == [kept] and len(kept_pairings(empty_memo)) == 1
        simplex = LabelledComplex(free, [range(9)])
        assert len(simplex._degrees) == 512 and simplex._memo is not None
        assert graded_betti(simplex).entries == graded_betti(simplex).entries
        assert kernel_runs[5:] == [simplex] and len(kept_pairings(empty_memo)) == 2

    def test_unkept_label_ids_past_16_bits(self, empty_memo, kernel_runs):
        # only a kept skeleton's pairings are packed in 16 bits: the unkept
        # 2^17-face simplex on 17 free generators has 2^17 label ids, and its
        # table is the Koszul complex's, beta_{i,i} = C(17, i)
        free = [((v,), Monomial(tuple(int(k == v) for k in range(17)))) for v in range(17)]
        simplex = LabelledComplex(free, [range(17)])
        assert simplex._memo is None and len(simplex._degrees) == 1 << 17
        assert graded_betti(simplex).entries == {(i, i): comb(17, i) for i in range(18)}
        assert kernel_runs == [simplex] and not kept_pairings(empty_memo)

    def test_no_pairing_outlives_its_skeleton(self, empty_memo, kernel_runs, four_cycle):
        # the pairings sit on the skeleton's memo entry: once the skeleton
        # memo is emptied, a rebuilt complex with the same facets and labels
        # runs the kernel again
        ideal = edge_ideal(four_cycle)
        first = faridi_complex(ideal, 2)
        table = graded_betti(first).entries
        assert graded_betti(faridi_complex(ideal, 2)).entries == table
        assert kernel_runs == [first]
        empty_memo.clear()
        again = faridi_complex(ideal, 2)
        assert again._memo[0] is not first._memo[0]
        assert graded_betti(again).entries == table
        assert kernel_runs == [first, again]


class TestBettiTable:
    def test_regularity_examples(self):
        assert BettiTable({(0, 0): 1, (1, 3): 2, (2, 5): 1}).regularity() == 3
        assert BettiTable({(0, 0): 1, (1, 9): 4, (2, 11): 3}).regularity() == 9
        assert BettiTable({(0, 0): 1}).regularity() == 0

    def test_empty_table_rejected(self):
        with pytest.raises(DomainError):
            BettiTable({}).regularity()

    def test_zero_entry_rejected(self):
        with pytest.raises(DomainError):
            BettiTable({(1, 2): 0})

    def test_ideal_convention_shift(self, path5):
        table = graded_betti(faridi_complex(edge_ideal(path5), 3))
        assert table.ideal_betti(0, 9) == table.betti(1, 9) == 4
        assert table.ideal_betti(-1, 9) == 0

    def test_json_dict(self, path5):
        table = graded_betti(faridi_complex(edge_ideal(path5), 3), power=3)
        data = table.to_json_dict()
        assert data["convention"] == "R/I^t"
        assert data["t"] == 3 and data["reg"] == 9 and data["char"] == 0
        assert {"i": 1, "j": 9, "beta": 4} in data["entries"]


class TestSurvivorBounds:
    def test_path5_top_face(self, path5):
        cx = faridi_complex(edge_ideal(path5), 1)
        bounds = survivor_face_sets(cx)[2, 5]
        assert bounds.certain == bounds.possible == 1
        assert cx._degree_groups(1)[5] == [0b11]  # the one survivor is the face (0, 1)

    def test_empty_degree(self, path5):
        cx = faridi_complex(edge_ideal(path5), 1)
        assert (2, 4) not in survivor_face_sets(cx)
        assert bound_applicability(cx, 2, 4) == (True, True, 0, 0)

    def test_disjoint_edges_top_face_is_certain(self):
        # every removal drops variables and there is nothing to extend into
        for m, d in ((2, 2), (3, 2), (2, 3)):
            h = Hypergraph(m * d, [[d * k + v for v in range(1, d + 1)] for k in range(m)])
            cx = faridi_complex(edge_ideal(h), 1)
            bounds = survivor_face_sets(cx)[m, d * m]
            assert cx._degree_groups(m - 1) == {d * m: [(1 << m) - 1]}  # the top face alone
            assert bounds.certain == 1
            assert bounds.certain <= bounds.possible

    def test_path5_square_sandwich(self, path5):
        cx = faridi_complex(edge_ideal(path5), 2)
        table = graded_betti(cx)
        bounds = bound_applicability(cx, 2, 8)
        assert bounds == survivor_face_sets(cx)[2, 8]
        assert bounds.upper and bounds.lower
        assert bounds.certain <= table.betti(2, 8) <= bounds.possible
        assert bounds.certain == 2

    def test_sandwich_wherever_applicable(self):
        rng = random.Random(17)
        for seed in range(8):
            h = random_hypergraph(rng.randint(4, 6), rng.randint(2, 4),
                                  rng.choice((2, 3)), seed)
            ideal = edge_ideal(h)
            for t in (1, 2):
                cx = faridi_complex(ideal, t)
                table = graded_betti(cx)
                bounds = survivor_face_sets(cx)
                assert list(bounds) == sorted(
                    (i, j) for i in range(cx.dim + 2) for j in cx._degree_groups(i - 1))
                for (i, j), bound in bounds.items():
                    assert bound.certain <= bound.possible
                    if bound.upper:
                        assert table.betti(i, j) <= bound.possible
                    if bound.lower:
                        assert table.betti(i, j) >= bound.certain

    def test_matches_extension_search(self, empty_memo):
        # on the support complex, its Lyubeznik complex and a shape hit of the
        # support complex, which has built no label ids before its pass
        rng = random.Random(29)
        cases = 0
        for seed in range(40):
            d = rng.choice((2, 3))
            h = random_hypergraph(rng.randint(4, 6), rng.randint(2, 4), d, seed)
            ideal = edge_ideal(h)
            for t in (1, 2, 3):
                # the extension search scans every vertex per face; keep it small
                build = partial(faridi_complex, ideal, t, max_faces=1 << 12)
                try:
                    cx = build()
                except ResourceCapError:
                    continue
                hit = build()
                assert isinstance(hit, complexes._Replayed) and unread(hit, "_lids")
                assert survivor_face_sets(hit) == survivor_face_sets(cx)
                try:
                    lyubeznik = [lyubeznik_complex(cx.vertices, max_faces=1 << 12)]
                except ResourceCapError:
                    lyubeznik = []
                for complex_ in [cx, hit, *lyubeznik]:
                    for i in range(complex_.dim + 2):
                        degrees = (set(complex_._degree_groups(i - 1))
                                   | set(complex_._degree_groups(i)))
                        if t == 2:
                            degrees.add(2 * d * i)  # the second-power check's degree
                        for j in degrees:
                            certain, possible, upper, lower = survivor_oracle(complex_, i, j)
                            assert bound_applicability(complex_, i, j) == (
                                upper, lower, len(certain), len(possible))
                            cases += 1
        assert cases > 3000

    @pytest.fixture
    def passes(self, monkeypatch):
        """The complexes whose survivor records are computed, not read from the memo."""
        runs = []
        records = betti._survivor_records
        monkeypatch.setattr(betti, "_survivor_records", lambda cx: runs.append(cx) or records(cx))
        return runs

    def test_kept_records_equal_a_fresh_pass(self, empty_memo, monkeypatch):
        # every uncapped builtin support complex at t <= 3, queried again as a
        # shape hit that grades the records kept by the first query or by an
        # earlier labelling, against a pass with the memo emptied and kept empty
        queries = dict.fromkeys((edge_ideal(h), t) for _, h in builtin_corpus() for t in (1, 2, 3))
        warm, kept = {}, 0
        for ideal, t in queries:
            build = partial(faridi_complex, ideal, t, CORPUS_MAX_FACES)
            try:
                survivor_face_sets(build())
            except ResourceCapError:
                continue
            hit = build()
            kept += isinstance(hit, complexes._Replayed) and hit._pairing("survivors") is not None
            warm[ideal, t] = survivor_face_sets(hit)
        assert kept == len(warm) > 500
        for name, value in (("_skeletons", {}), ("_shapes", {}), ("_held", 0),
                            ("_MEMO_BYTES", 0)):
            monkeypatch.setattr(complexes, name, value)
        for (ideal, t), bounds in warm.items():
            assert survivor_face_sets(faridi_complex(ideal, t, CORPUS_MAX_FACES)) == bounds
        assert not any(skeleton[3] for skeleton in complexes._skeletons.values())

    def test_kept_records_graded_by_own_degrees(self, empty_memo, passes, four_cycle):
        # the square of the 4-cycle's edge ideal and the same ideal with every
        # exponent doubled: one skeleton and labelling, other degrees, so the
        # second query grades the first's records by its own degrees
        ideal = edge_ideal(four_cycle)
        doubled = MonomialIdeal(ideal.n, [Monomial(tuple(2 * e for e in g.exps))
                                          for g in ideal.generators])
        plain, double = faridi_complex(ideal, 2), faridi_complex(doubled, 2)
        assert plain._memo[0] is double._memo[0] and plain._memo[1] == double._memo[1]
        assert plain._degrees != double._degrees
        bounds = survivor_face_sets(plain)
        assert survivor_face_sets(double) == {
            (i, 2 * j): b for (i, j), b in bounds.items()} != bounds
        assert passes == [plain]
        fresh = faridi_complex(doubled, 2)
        fresh._lids, fresh._memo = double._lids, None
        assert survivor_face_sets(fresh) == survivor_face_sets(double)
        assert passes == [plain, fresh]

    def test_full_hit_builds_no_label_ids(self, empty_memo, passes, example39):
        # a shape hit whose pairing and survivor records are both kept reads
        # its degrees alone
        ideal = edge_ideal(example39)
        for t in (1, 2):
            cx = faridi_complex(ideal, t)
            table, bounds = graded_betti(cx), survivor_face_sets(cx)
            hit = faridi_complex(ideal, t)
            assert isinstance(hit, complexes._Replayed)
            assert graded_betti(hit) == table and survivor_face_sets(hit) == bounds
            assert unread(hit, "_lids") and unread(hit, "vertices")
        assert len(passes) == 2

    def test_no_memo_keeps_nothing(self, empty_memo, monkeypatch, passes, four_cycle):
        # a support complex and a Lyubeznik complex over the memo's face bound
        # have no _memo: their records are computed on every pass, never kept
        gens = power_generators(edge_ideal(four_cycle), 2)
        facets = _support_facets([b for b, _ in gens], 2)
        monkeypatch.setattr(complexes, "_MEMO_FACES", 8)
        cxs = [build() for _ in range(2) for build in (partial(LabelledComplex, gens, facets),
                                                       partial(lyubeznik_complex, gens))]
        assert all(cx._memo is None for cx in cxs)
        bounds = [survivor_face_sets(cx) for cx in cxs]
        assert bounds[:2] == bounds[2:] and passes == cxs
        assert not empty_memo and complexes._held == 0

    def test_bound(self, empty_memo, monkeypatch, passes):
        # past _MEMO_BYTES new records are computed and not kept, and stay right
        bound = 600
        monkeypatch.setattr(complexes, "_MEMO_BYTES", bound)
        kept = []
        for seed in range(12):
            cx, fresh = plane(random.Random(seed), 2), plane(random.Random(seed), 2)
            held = complexes._held
            graded_betti(cx)
            bounds = survivor_face_sets(cx)
            fresh._memo = None
            assert bounds == survivor_face_sets(fresh)
            kept.append(cx._pairing("survivors") is not None)
            if not kept[-1]:
                assert complexes._held == held or cx._pairing(0) is not None
            assert complexes._held == bytes_held(empty_memo) <= bound
        assert any(kept) and not all(kept)


@st.composite
def relabelled_pair(draw):
    """A small uniform hypergraph and a copy with vertices renamed and edges shuffled."""
    d = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(d, 6))
    pool = list(combinations(range(1, n + 1), d))
    edges = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    rename = draw(st.permutations(range(1, n + 1)))
    order = draw(st.permutations(range(len(edges))))
    moved = [[rename[v - 1] for v in edges[k]] for k in order]
    return Hypergraph(n, edges), Hypergraph(n, moved)


class TestRelabelling:
    @settings(max_examples=200, deadline=None)
    @given(relabelled_pair())
    def test_tables_and_invariants_unchanged(self, pair):
        h, moved = pair
        for t in (1, 2):
            assert (graded_betti(faridi_complex(edge_ideal(h), t))
                    == graded_betti(faridi_complex(edge_ideal(moved), t)))
        assert invariants(h) == invariants(moved)
