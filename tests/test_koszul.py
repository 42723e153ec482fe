"""The upper-Koszul oracle `koszul_betti` against the library's tables at
t = 1..3: it sees ranks and signs, which the K-polynomial oracle does not,
and it works on I^t directly, where the Hochster oracle stops at t = 1."""

from functools import partial

import pytest

from hyperbetti.betti import graded_betti
from hyperbetti.complexes import faridi_complex, lyubeznik_complex
from hyperbetti.errors import ResourceCapError
from hyperbetti.hypergraph import Hypergraph, edge_ideal
from hyperbetti.monomials import power_generators
from hyperbetti.verify import CORPUS_MAX_FACES, builtin_corpus
from helpers import canonical_edges, fraction_rank, gf_rank, koszul_betti
import test_betti


class TestKoszulBetti:
    def test_one_instance_per_class(self):
        # example39 (n = 9) is a class of its own; canonical_edges would
        # try all 9! relabellings of it
        classes = {}
        for name, h in builtin_corpus():
            classes.setdefault(canonical_edges(h) if h.n <= 7 else name, h)
        compared = at_three = 0
        for h in classes.values():
            ideal = edge_ideal(h)
            for t in (1, 2, 3):
                try:
                    expected = koszul_betti(h, t)
                except ResourceCapError:
                    continue
                table = graded_betti(lyubeznik_complex(power_generators(ideal, t))).entries
                assert table == expected, (h, t)
                try:
                    cx = faridi_complex(ideal, t, max_faces=CORPUS_MAX_FACES)
                except ResourceCapError:
                    pass
                else:
                    assert graded_betti(cx).entries == expected, (h, t)
                compared += 1
                at_three += t == 3
        assert (len(classes), compared, at_three) == (34, 96, 29)

    @pytest.mark.parametrize("char", [0, 3])
    def test_sign_sensitive_graphs(self, char):
        # the squares of these graphs have support tables that change when
        # every boundary sign is +1, which no corpus instance sees; five of
        # the seven are within the oracle's cap
        graphs = [test_betti.TestBoundarySigns.graph]
        graphs += [h for h, _ in test_betti.TestVertexOrder.more_graphs]
        rank = fraction_rank if char == 0 else partial(gf_rank, p=char)
        compared = 0
        for h in graphs:
            try:
                expected = koszul_betti(h, 2, rank)
            except ResourceCapError:
                continue
            assert graded_betti(faridi_complex(edge_ideal(h), 2), char=char).entries == expected
            compared += 1
        assert compared == 5

    @pytest.mark.parametrize("char", [0, 2])
    def test_torsion_over_gf2(self, data_dir, char):
        # the 6-vertex RP^2 ideal: GF(2) adds beta_{3,6} = beta_{4,6} = 1
        h = Hypergraph.load(data_dir / "rp2-6.json")
        expected = koszul_betti(h, 1, fraction_rank if char == 0 else partial(gf_rank, p=char))
        assert ((3, 6) in expected) == (char == 2)
        for cx in (faridi_complex(edge_ideal(h), 1),
                   lyubeznik_complex(power_generators(edge_ideal(h), 1))):
            assert graded_betti(cx, char=char).entries == expected
