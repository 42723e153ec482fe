"""The K-polynomial oracle `hilbert_numerator` against the library's tables:
the alternating sum of each degree's Betti numbers is that degree's
coefficient, over every field and for every complex that supports I^t."""

import pytest

from hyperbetti.betti import graded_betti
from hyperbetti.complexes import faridi_complex, lyubeznik_complex
from hyperbetti.errors import ResourceCapError
from hyperbetti.hypergraph import Hypergraph, edge_ideal
from hyperbetti.monomials import power_generators
from hyperbetti.verify import CORPUS_MAX_FACES, builtin_corpus
from helpers import alternating_sums, hilbert_numerator, hochster_betti


class TestHilbertNumerator:
    def test_principal_and_complete_intersection(self):
        edge = Hypergraph(3, [[1, 2, 3]])
        assert hilbert_numerator(edge, 1) == {0: 1, 3: -1}
        assert hilbert_numerator(edge, 4) == {0: 1, 12: -1}
        # two disjoint edges: (1 - z^2)^2
        assert hilbert_numerator(Hypergraph(4, [[1, 2], [3, 4]]), 1) == {0: 1, 2: -2, 4: 1}

    @pytest.mark.parametrize("name", ["path5", "four_cycle"])
    def test_hochster_at_the_first_power(self, request, name):
        h = request.getfixturevalue(name)
        assert hilbert_numerator(h, 1) == alternating_sums(hochster_betti(h))

    def test_corpus_tables(self):
        # every builtin (instance, t <= 3) pair whose support complex is within
        # the corpus cap, and the Lyubeznik table of each pair with fewer than
        # 15 generators
        support = lyubeznik = 0
        for name, h in builtin_corpus():
            ideal = edge_ideal(h)
            for t in (1, 2, 3):
                expected = hilbert_numerator(h, t)
                try:
                    cx = faridi_complex(ideal, t, max_faces=CORPUS_MAX_FACES)
                except ResourceCapError:
                    pass
                else:
                    assert alternating_sums(graded_betti(cx).entries) == expected, (name, t)
                    support += 1
                gens = power_generators(ideal, t)
                if len(gens) < 15:
                    table = graded_betti(lyubeznik_complex(gens)).entries
                    assert alternating_sums(table) == expected, (name, t)
                    lyubeznik += 1
        assert (support, lyubeznik) == (740, 736)

    @pytest.mark.parametrize("t", [1, 2])
    def test_torsion_cancels_in_its_degree(self, data_dir, t):
        # a blind spot: GF(2) adds beta_{3,6} = beta_{4,6} = 1 to the RP^2
        # ideal's first power, and their signs cancel
        h = Hypergraph.load(data_dir / "rp2-6.json")
        cx = lyubeznik_complex(power_generators(edge_ideal(h), t))
        tables = [graded_betti(cx, char=char).entries for char in (0, 2, 3)]
        assert {frozenset(alternating_sums(table).items()) for table in tables} == {
            frozenset(hilbert_numerator(h, t).items())}
        assert (tables[0] != tables[1]) == (t == 1)
