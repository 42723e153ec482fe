"""LabelledComplex keeps faces as vertex bitmasks with interned label ids;
these tests pin its build against a per-face oracle, its public tuple view,
its equality and its face cap, and check that the Betti kernel never asks
for tuple faces."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hyperbetti import betti, complexes
from hyperbetti.betti import graded_betti
from hyperbetti.complexes import (LabelledComplex, _support_facets, faridi_complex,
                                  lyubeznik_complex, taylor_complex)
from hyperbetti.errors import ResourceCapError
from hyperbetti.hypergraph import Hypergraph, edge_ideal
from hyperbetti.monomials import Monomial, power_generators
from hyperbetti.verify import builtin_corpus, random_hypergraph

from helpers import assert_numbering, labelled_complex_oracle


def support_inputs(hypergraph, t):
    gens = power_generators(edge_ideal(hypergraph), t)
    return gens, [f for f in _support_facets([b for b, _ in gens], t) if f]


def closure(facets):
    """Every face of the given facets as sorted vertex tuples, by dimension."""
    faces = {()}
    for facet in facets:
        vs = sorted(set(facet))
        faces.update(c for k in range(1, len(vs) + 1) for c in combinations(vs, k))
    by_dim = {}
    for face in faces:
        by_dim.setdefault(len(face) - 1, []).append(face)
    return {d: tuple(sorted(fs)) for d, fs in sorted(by_dim.items())}


@st.composite
def labelled_inputs(draw):
    """Vertex labels with exponents 0..5 in up to 70 variables, facets with
    repeated vertices, repeated and empty facets, and a face cap."""
    nvars = draw(st.integers(1, 70))
    labels = draw(st.lists(st.lists(st.integers(0, 5), min_size=nvars, max_size=nvars),
                           max_size=7))
    vertices = [((k,), Monomial(exps)) for k, exps in enumerate(labels)]
    facet = st.lists(st.integers(0, len(vertices) - 1), max_size=9) if vertices else st.just([])
    facets = draw(st.lists(facet, max_size=5).flatmap(
        lambda fs: st.permutations(fs + fs[:1])))
    return vertices, facets, draw(st.integers(1, 200))


def check_against_oracle(vertices, facets, max_faces):
    """Build the complex and compare it with the per-face oracle, cap included."""
    try:
        expected = labelled_complex_oracle(vertices, facets, max_faces)
    except ResourceCapError as exc:
        with pytest.raises(ResourceCapError) as caught:
            LabelledComplex(vertices, facets, max_faces)
        assert str(caught.value) == str(exc)
        return None
    label_id, labels, degrees, masks = expected
    cx = LabelledComplex(vertices, facets, max_faces)
    # one index dict per face size, its masks in increasing order, numbering
    # every face once; the label ids are read by face number
    assert {k - 1: list(faces) for k, faces in enumerate(cx._index)} == {
        d: sorted(ms) for d, ms in masks.items()}
    assert all(mask.bit_count() == k for k, faces in enumerate(cx._index) for mask in faces)
    assert_numbering(cx)
    store = {mask: cx._lids[number] for faces in cx._index for mask, number in faces.items()}
    assert store.keys() == label_id.keys()
    assert sum(map(len, cx._index)) == cx.face_count == len(label_id)
    # the same partition of the faces by label: ids correspond one to one
    pairs = {(store[mask], lid) for mask, lid in label_id.items()}
    assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})
    for mask, lid in label_id.items():
        face = complexes._vertices_of(mask)
        assert cx.label_exps(face) == labels[lid]
        assert cx.degree(face) == degrees[lid]
    return cx


class TestBuildMatchesTheSubmaskWalk:
    @settings(max_examples=300, deadline=None)
    @given(labelled_inputs())
    def test_masks_labels_degrees_and_cap(self, inputs):
        check_against_oracle(*inputs)


def labelled(*label_rows):
    return [((k,), Monomial(exps)) for k, exps in enumerate(label_rows)]


class TestSkeletonMemo:
    # the faces of a complex come from a skeleton memoized by its sorted facet
    # masks; each query labels it afresh
    def test_other_labels_on_the_same_facets(self, empty_memo):
        facets = [(0, 1, 2), (1, 3), (2, 3, 4)]
        first = labelled((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1))
        second = labelled((2, 0, 1), (0, 1, 0), (2, 0, 1), (0, 0, 3), (1, 1, 1))
        a = check_against_oracle(first, facets, 100)
        assert len(empty_memo) == 1
        b = check_against_oracle(second, facets, 100)  # a memo hit
        assert len(empty_memo) == 1
        assert a._index is b._index
        assert a.label_exps((2, 3, 4)) == (1, 1, 1) and b.label_exps((2, 3, 4)) == (2, 1, 3)
        assert check_against_oracle(first, facets, 100) == a

    def test_same_counts_other_facets(self, empty_memo):
        # as many vertices and facets, and faces, but other facets
        vertices = labelled((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        for facets in ([(0, 1), (1, 2), (2, 3)], [(0, 1), (0, 2), (0, 3)],
                       [(0, 3), (1, 3), (2, 3)], [(0, 1, 2)], [(1, 2, 3)]):
            check_against_oracle(vertices, facets, 100)
        assert len(empty_memo) == 5

    def test_facet_order_and_repeats_share_a_skeleton(self, empty_memo, four_cycle):
        gens, facets = support_inputs(four_cycle, 2)
        base = LabelledComplex(gens, facets)
        rng = random.Random(5)
        for _ in range(10):
            variant = facets + rng.sample(facets, rng.randint(0, len(facets)))
            rng.shuffle(variant)
            cx = LabelledComplex(gens, variant)
            assert cx == base
            assert cx._index is base._index and cx._lids == base._lids
        assert len(empty_memo) == 1

    def test_cap_message_on_a_hit_and_a_miss(self, empty_memo, four_cycle):
        gens, facets = support_inputs(four_cycle, 2)
        messages, kept = [], []
        for max_faces in (55, 56, 55):  # a miss at the cap, then a build, then a hit
            try:
                LabelledComplex(gens, facets, max_faces)
            except ResourceCapError as exc:
                messages.append(str(exc))
            kept.append(len(empty_memo))
        assert messages == ["complex exceeds the cap of 55 faces"] * 2
        assert kept == [0, 1, 1]

    def test_memo_bound(self, empty_memo):
        bound = complexes._MEMO_FACES
        assert bound == 1 << 16
        vertices = labelled(*[[int(i == k) for i in range(17)] for k in range(17)])
        # 2^17 faces: built, not kept
        assert LabelledComplex(vertices, [range(17)]).face_count == 2 * bound
        assert not empty_memo
        # a skeleton is kept only while the memo stays within the bound
        for size in (15, 14, 15, 16, 13, 14, 3, 13):
            LabelledComplex(vertices, [range(size)])
            held = [skeleton[0] for skeleton in empty_memo.values()]
            assert sum(held) <= bound
        assert sorted(held) == [1 << 3, 1 << 13, 1 << 14, 1 << 15]


class TestFaceNumbering:
    # within each size, face numbers increase with the mask in every
    # construction: the support complex and the Taylor simplex, numbered by
    # the skeleton, and Lyubeznik's complex, numbered as its front extension
    # adds faces; generator orders are shuffled so the masks move
    def test_corpus_complexes(self):
        rng = random.Random(8)
        for _, h in builtin_corpus():
            ideal = edge_ideal(h)
            for t in (1, 2):
                gens = power_generators(ideal, t)
                facets = [f for f in _support_facets([b for b, _ in gens], t) if f]
                order = rng.sample(range(len(gens)), len(gens))
                place = {v: k for k, v in enumerate(order)}
                shuffled = [gens[v] for v in order]
                for cx in (faridi_complex(ideal, t),
                           LabelledComplex(shuffled, [[place[v] for v in f] for f in facets]),
                           taylor_complex(gens), taylor_complex(shuffled),
                           lyubeznik_complex(gens), lyubeznik_complex(shuffled)):
                    assert_numbering(cx)

    @pytest.mark.parametrize("seed", range(6))
    def test_shuffled_lyubeznik_orders(self, seed):
        # powers of random hypergraphs, up to 10 generators, each in 5 orders
        rng = random.Random(seed)
        h = random_hypergraph(rng.randint(4, 7), rng.randint(2, 4), rng.choice((2, 3)), seed)
        gens = power_generators(edge_ideal(h), rng.choice((2, 3)))[:10]
        for _ in range(5):
            rng.shuffle(gens)
            cx = lyubeznik_complex(gens)
            assert_numbering(cx)
            assert cx.face_count > len(gens)


class TestFaceCap:
    def test_exact_cap_on_a_support_complex(self, four_cycle):
        # five facets of at most 5 vertices and 56 faces with the empty one, so
        # a cap of 55 (bit length 6) passes the facet-size pre-check
        gens, facets = support_inputs(four_cycle, 2)
        assert len(set(facets)) > 1 and max(map(len, facets)) == 5
        cx = LabelledComplex(gens, facets, max_faces=56)
        assert cx.face_count == 56 == sum(map(len, closure(facets).values()))
        with pytest.raises(ResourceCapError) as caught:
            LabelledComplex(gens, facets, max_faces=55)
        assert str(caught.value) == "complex exceeds the cap of 55 faces"


    def test_label_codes_within_the_budget(self):
        # three variables at exponent e take 3e bits; past 2^26 bits (2^20
        # words) the build is refused before any code is made
        def square(e):
            return LabelledComplex([((0,), Monomial((e, e, 0))), ((1,), Monomial((0, e, e)))],
                                   [(0, 1)])

        e = (1 << 26) // 3  # 3e bits round up to 2^20 words
        assert square(1000).label_exps((0, 1)) == (1000, 1000, 1000)
        with pytest.raises(ResourceCapError) as caught:
            square(e + 1)
        assert str(caught.value) == ("1048577 64-bit words per label code, "
                                     "over the cap of 1048576")


class TestTupleView:
    # == between complexes whose facet lists differ compares the face masks
    def test_facet_order_redundancy_and_repeats(self, four_cycle):
        gens, facets = support_inputs(four_cycle, 2)
        base = LabelledComplex(gens, facets)
        variants = [
            facets[::-1],
            facets + [facets[0][:2]],  # a redundant sub-facet
            [tuple(f) + f[:1] for f in facets],  # a repeated vertex in each facet
            [tuple(reversed(f)) for f in facets],
        ]
        for variant in variants:
            cx = LabelledComplex(gens, variant)
            assert cx == base
            assert cx.faces == base.faces == closure(facets)
            assert list(cx.faces) == list(range(-1, cx.dim + 1))
            for faces in cx.faces.values():
                assert list(faces) == sorted(faces)

    def test_missing_face_compares_unequal(self, four_cycle):
        gens, facets = support_inputs(four_cycle, 2)
        top = max(facets, key=len)
        rest = [f for f in facets if f != top]
        full = LabelledComplex(gens, facets)
        # the boundary of the largest facet in its place: exactly that face is gone
        hollow = LabelledComplex(gens, rest + list(combinations(top, len(top) - 1)))
        assert hollow.face_count == full.face_count - 1
        assert hollow != full
        assert top not in hollow.faces.get(len(top) - 1, ())


class TestKernelStaysOnMasks:
    # the 5-edge graph of test_betti.TestBoundarySigns: a 1104-face support
    # complex at t = 2; example39's square has a 10-vertex Taylor simplex
    graph = Hypergraph(5, [[1, 4], [2, 4], [2, 5], [3, 5], [4, 5]])
    example39 = Hypergraph(9, [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 4, 7]])
    support_table = {(0, 0): 1, (1, 4): 15, (2, 5): 28, (3, 6): 19, (4, 7): 6, (5, 8): 1}
    taylor_table = {(0, 0): 1, (1, 6): 10, (2, 8): 12, (2, 9): 8, (3, 10): 12, (4, 12): 1}

    @pytest.mark.parametrize("char", [0, 3])
    def test_graded_betti_builds_no_tuple_faces(self, monkeypatch, empty_memo, char):
        support = faridi_complex(edge_ideal(self.graph), 2)
        simplex = taylor_complex(power_generators(edge_ideal(self.example39), 2))
        assert (support.face_count, simplex.face_count) == (1104, 1024)

        def refuse(*args, **kwargs):
            raise AssertionError("tuple faces built inside graded_betti")

        for name in ("label_exps", "degree"):
            monkeypatch.setattr(LabelledComplex, name, refuse)
        monkeypatch.setattr(LabelledComplex, "faces", property(refuse))
        monkeypatch.setattr(complexes, "_vertices_of", refuse)
        monkeypatch.setattr(betti, "_vertices_of", refuse)
        assert graded_betti(support, char=char).entries == self.support_table
        assert graded_betti(simplex, char=char).entries == self.taylor_table
