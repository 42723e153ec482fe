import random
from functools import partial
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from hyperbetti import betti
from hyperbetti.betti import (BettiTable, bound_applicability, graded_betti,
                              integer_rank, reduced_boundary, survivor_face_sets,
                              validate_characteristic)
from hyperbetti.complexes import (DEFAULT_MAX_FACES, LabelledComplex, faridi_complex,
                                  taylor_complex)
from hyperbetti.errors import DomainError, InvariantError, ResourceCapError
from hyperbetti.hypergraph import Hypergraph, edge_ideal
from hyperbetti.matchings import invariants
from hyperbetti.monomials import Monomial, power_generators
from hyperbetti.verify import (ComputeCache, builtin_corpus, check_taylor_agreement,
                               random_hypergraph)
from helpers import fraction_rank, gf_rank, hochster_betti, survivor_oracle


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
        # the first column pivots unbuilt at row 1 on the non-unit 2; the
        # second and third reduce against it there, so it is built then
        assert integer_rank([[0, 1, 0], [2, 2, 4]], p) == rank


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
                    degrees = set(cx.degree_slices(i - 1)) | set(cx.degree_slices(i))
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
                    dense = {(0, 0): 1}
                    for i in range(1, cx.dim + 2):
                        for j, faces in cx.degree_slices(i - 1).items():
                            ranks = [integer_rank(reduced_boundary(cx, k, j).entries, char)
                                     for k in (i, i + 1)]
                            value = len(faces) - sum(ranks)
                            if value:
                                dense[i, j] = value
                    assert graded_betti(cx, char=char).entries == dense

    def test_negative_betti_number_is_an_error(self, monkeypatch, example39):
        # a phantom pivot row, the empty face of degree 0, over-reports a rank
        real = betti._pivot_rows
        monkeypatch.setattr(betti, "_pivot_rows",
                            lambda columns, build, char: real(columns, build, char) | {0})
        cx = faridi_complex(edge_ideal(example39), 1)
        with pytest.raises(InvariantError, match=r"beta\[\d+, \d+\] = -\d+"):
            graded_betti(cx)

    @pytest.mark.parametrize("kind", ["faridi", "taylor"])
    def test_one_reduction_per_dimension(self, monkeypatch, example39, kind):
        ideal = edge_ideal(example39)
        cx = (faridi_complex(ideal, 2) if kind == "faridi"
              else taylor_complex(power_generators(ideal, 2)))
        calls = []
        real = betti._pivot_rows
        monkeypatch.setattr(betti, "_pivot_rows", lambda columns, build, char:
                            calls.append(1) or real(columns, build, char))
        graded_betti(cx)
        assert len(calls) == cx.dim + 1

    @pytest.mark.parametrize("kind", ["faridi", "taylor"])
    def test_columns_built_only_to_reduce(self, monkeypatch, example39, kind):
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
        certain, possible = survivor_face_sets(cx, 2, 5)
        assert certain == possible == {(0, 1)}

    def test_empty_degree(self, path5):
        cx = faridi_complex(edge_ideal(path5), 1)
        assert survivor_face_sets(cx, 2, 4) == (set(), set())

    def test_disjoint_edges_top_face_is_certain(self):
        # every removal drops variables and there is nothing to extend into
        for m, d in ((2, 2), (3, 2), (2, 3)):
            h = Hypergraph(m * d, [[d * k + v for v in range(1, d + 1)] for k in range(m)])
            cx = faridi_complex(edge_ideal(h), 1)
            certain, possible = survivor_face_sets(cx, m, d * m)
            assert tuple(range(m)) in certain
            assert certain <= possible

    def test_path5_square_sandwich(self, path5):
        cx = faridi_complex(edge_ideal(path5), 2)
        table = graded_betti(cx)
        certain, possible = survivor_face_sets(cx, 2, 8)
        applies = bound_applicability(cx, 2, 8)
        assert applies.upper and applies.lower
        assert len(certain) <= table.betti(2, 8) <= len(possible)
        assert len(certain) == 2

    def test_sandwich_wherever_applicable(self):
        rng = random.Random(17)
        for seed in range(8):
            h = random_hypergraph(rng.randint(4, 6), rng.randint(2, 4),
                                  rng.choice((2, 3)), seed)
            ideal = edge_ideal(h)
            for t in (1, 2):
                cx = faridi_complex(ideal, t)
                table = graded_betti(cx)
                for i in range(1, cx.dim + 2):
                    for j in cx.degree_slices(i - 1):
                        applies = bound_applicability(cx, i, j)
                        certain, possible = survivor_face_sets(cx, i, j)
                        assert len(certain) <= len(possible)
                        if applies.upper:
                            assert table.betti(i, j) <= len(possible)
                        if applies.lower:
                            assert table.betti(i, j) >= len(certain)

    def test_matches_extension_search(self):
        rng = random.Random(29)
        cases = 0
        for seed in range(40):
            h = random_hypergraph(rng.randint(4, 6), rng.randint(2, 4),
                                  rng.choice((2, 3)), seed)
            ideal = edge_ideal(h)
            for t in (1, 2, 3):
                try:
                    # the extension search scans every vertex per face; keep it small
                    cx = faridi_complex(ideal, t, max_faces=1 << 12)
                except ResourceCapError:
                    continue
                for i in range(cx.dim + 2):
                    for j in set(cx.degree_slices(i - 1)) | set(cx.degree_slices(i)):
                        assert survivor_face_sets(cx, i, j) == survivor_oracle(cx, i, j)
                        cases += 1
        assert cases > 1000


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
