"""The shape memo of support, Taylor and Lyubeznik complexes.  A complex is
memoized under its kind, its generator count, t (complexes of a power), the
set of exponent columns of its generators less their minimum, nonzero,
whether a generator is 1, and its signature (which of those columns
repeat); a hit takes its label degrees from the entry, shifted by t times
the change in the columns' summed minima, and builds its vertices and label
ids only when read.  A refusal is kept without the signature, and so is
shared by every signature.  These tests pin every hit against a build from
an empty memo, its refusals against a fresh build's, the bytes counted
against the memo's bound, and the memo's emptying between tests."""

import json
import random
import sys
import threading
from pathlib import Path

import pytest

from hyperbetti import complexes, verify
from hyperbetti.betti import graded_betti
from hyperbetti.cli import main
from hyperbetti.complexes import (LabelledComplex, faridi_complex, lyubeznik_complex,
                                  lyubeznik_power_complex, taylor_complex)
from hyperbetti.errors import DEFAULT_MAX_FACES, DimensionError, ResourceCapError
from hyperbetti.hypergraph import Hypergraph, edge_ideal
from hyperbetti.monomials import Monomial, MonomialIdeal, power_generators
from hyperbetti.verify import (CORPUS_MAX_FACES, ComputeCache, builtin_corpus,
                               check_first_power_simplex, check_taylor_agreement)
from helpers import unread

POOLS = Path(__file__).resolve().parent.parent / "perfbench" / "data"
DATA = Path(__file__).resolve().parent.parent / "data"
EMPTY = (("_skeletons", dict), ("_shapes", dict), ("_held", int))


def cold(monkeypatch, build):
    """build()'s result from an empty memo; the memo in use is put back after."""
    kept = {name: getattr(complexes, name) for name, _ in EMPTY}
    for name, empty in EMPTY:
        monkeypatch.setattr(complexes, name, empty())
    try:
        return build()
    finally:
        for name, value in kept.items():
            monkeypatch.setattr(complexes, name, value)


def outcome(build):
    """The complex that build() returns, or its ResourceCapError message."""
    try:
        return build()
    except ResourceCapError as exc:
        return str(exc)


def label_faces(cx):
    """One face of each label id of cx, as a vertex tuple, in increasing id order."""
    faces = {}
    for size in cx._index:
        for mask, number in size.items():
            faces.setdefault(cx._lids[number], mask)
    return [complexes._vertices_of(mask) for _, mask in sorted(faces.items())]


def assert_as_cold(monkeypatch, build):
    """build() from the memo in use equals build() from an empty memo: the
    same vertices, faces and face numbers, label ids, degrees and labels,
    and the same tables over Q and GF(2), or the same refusal.  True when
    the warm build was a shape hit."""
    warm, fresh = outcome(build), cold(monkeypatch, lambda: outcome(build))
    if isinstance(fresh, str):
        assert warm == fresh
        return False
    assert warm.vertices == fresh.vertices and warm._index == fresh._index
    assert warm._lids == fresh._lids
    assert warm._degrees == fresh._degrees
    faces = label_faces(fresh)
    assert list(map(warm.label_exps, faces)) == list(map(fresh.label_exps, faces))
    for char in (0, 2):
        table = cold(monkeypatch, lambda: graded_betti(fresh, char=char))
        assert graded_betti(warm, char=char) == table
    return isinstance(warm, complexes._Replayed)


def builders(ideal, t, max_faces):
    """The support complex of I^t and, when it has at most 10 vertices, the
    Taylor simplex on the generators of I^t."""
    yield lambda: faridi_complex(ideal, t, max_faces)
    gens = power_generators(ideal, t)
    if len(gens) <= 10:
        yield lambda: taylor_complex(gens, max_faces)


def relabelled(ideal, change):
    """The ideal with change applied to each generator's exponent tuple."""
    return MonomialIdeal(len(change(ideal.generators[0].exps)),
                         [Monomial(change(g.exps)) for g in ideal.generators])


def rows(ideal):
    return [g.exps for g in ideal.generators]


def variants(ideal):
    """The ideal with its variables reversed, with an isolated vertex (a zero
    column), with a twin of its first vertex (a repeated column: same label
    ids, other degrees), with every exponent doubled (another key), as a cone
    (a new vertex in every edge: a constant column, so the same key), with a
    new vertex in its first edge alone (another key, unless that edge has a
    private vertex) and as that last ideal's cone (the new vertex in every
    edge, twice in the first: its column less its minimum is the last one's)."""
    first = ideal.generators[0].exps
    return [relabelled(ideal, lambda e: e[::-1]),
            relabelled(ideal, lambda e: e + (0,)),
            relabelled(ideal, lambda e: e[:1] + e),
            relabelled(ideal, lambda e: tuple(2 * x for x in e)),
            relabelled(ideal, lambda e: e + (1,)),
            relabelled(ideal, lambda e: e + (int(e == first),)),
            relabelled(ideal, lambda e: e + (1 + (e == first),))]


def test_a_build_after_the_fixture_misses(empty_memo, monkeypatch, four_cycle):
    # the fixture empties the skeletons, the Lyubeznik complexes and the
    # shapes, and resets the byte count: each first build walks and labels
    assert not complexes._shapes and complexes._held == 0
    walks = []
    walk = complexes.power_generators
    monkeypatch.setattr(complexes, "power_generators",
                        lambda ideal, t: walks.append(t) or walk(ideal, t))
    ideal = edge_ideal(four_cycle)
    first, again = faridi_complex(ideal, 2), faridi_complex(ideal, 2)
    assert walks == [2] and type(first) is complexes.LabelledComplex
    assert isinstance(again, complexes._Replayed) and again._index is first._index
    gens = power_generators(ideal, 2)
    assert type(taylor_complex(gens)) is complexes.LabelledComplex
    assert isinstance(taylor_complex(gens), complexes._Replayed)
    assert len(complexes._shapes) == 2 and complexes._held > 0


class TestExactness:
    # a warm-memo build equals a cold one; nearly every warm build is a hit
    def test_builtin_corpus(self, empty_memo, monkeypatch):
        queries = [(edge_ideal(h), t) for _, h in builtin_corpus() for t in (1, 2, 3)]
        for ideal, t in queries:
            for build in builders(ideal, t, CORPUS_MAX_FACES):
                outcome(build)
        hits = [assert_as_cold(monkeypatch, build)
                for ideal, t in queries for build in builders(ideal, t, CORPUS_MAX_FACES)]
        assert len(hits) > 1000 and sum(hits) > 0.9 * len(hits)

    @pytest.mark.parametrize("pool", ["queries-char0.json", "queries-charp.json"])
    def test_recorded_pools(self, empty_memo, monkeypatch, pool):
        # all 2400 queries, 400 and 2000, each built twice from one memo
        recorded = json.loads((POOLS / pool).read_text(encoding="utf-8"))
        builds = []
        for q in recorded["queries"]:
            ideal = edge_ideal(Hypergraph(q["n"], q["edges"]))
            if q["complex"] == "taylor":
                gens = power_generators(ideal, q["t"])
                builds.append(lambda gens=gens: taylor_complex(gens, recorded["max_faces"]))
            else:
                builds.append(lambda ideal=ideal, t=q["t"]: faridi_complex(
                    ideal, t, recorded["max_faces"]))
        for build in builds:
            build()
        hits = [assert_as_cold(monkeypatch, build) for build in builds]
        assert sum(hits) > 0.9 * len(hits)

    def test_variants_of_every_class(self, empty_memo, monkeypatch):
        # relabelled, isolated and cone vertices keep the key and signature
        # and hit; a twin vertex keeps the key but not the signature, and
        # doubled exponents and a pendant vertex change the key, and the
        # skeleton and labelling are reused; the bumped cone hits the
        # pendant's shape
        seen = set()
        for _, h in builtin_corpus():
            ideal = edge_ideal(h)
            if ideal.generators in seen:
                continue
            seen.add(ideal.generators)
            for t in (1, 2):
                for build in builders(ideal, t, CORPUS_MAX_FACES):
                    outcome(build)
                for k, other in enumerate(variants(ideal)):
                    for build in builders(other, t, CORPUS_MAX_FACES):
                        assert assert_as_cold(monkeypatch, build) or k in (2, 3, 5), (h, t, k)

    def test_generator_order_and_count_are_in_the_key(self, empty_memo, monkeypatch):
        # the paths x1x2, x2x3, x3x4 and x2x3, x1x2, x3x4 have the same
        # columns as value multisets; the next two ideals, and x1 x2^2 alone
        # and x1, x1^2, have the same columns joined, and other counts
        path = edge_ideal(Hypergraph(4, [[1, 2], [2, 3], [3, 4]]))
        swapped = MonomialIdeal(4, [path.generators[k] for k in (1, 0, 2)])
        four = MonomialIdeal(3, [Monomial(e) for e in ((0, 1, 1), (0, 0, 2), (2, 0, 0),
                                                       (0, 2, 0))])
        three = MonomialIdeal(4, [Monomial(e) for e in ((0, 0, 0, 2), (0, 1, 2, 0),
                                                        (2, 0, 1, 0))])
        assert complexes._shifted(rows(four))[0] == complexes._shifted(rows(three))[0]
        for t in (1, 2, 3):
            for ideal in (path, swapped, four, three):
                for build in builders(ideal, t, CORPUS_MAX_FACES):
                    assert_as_cold(monkeypatch, build)
        one, two = [((0,), Monomial((1, 2)))], [((0,), Monomial((1,))), ((1,), Monomial((2,)))]
        for gens in (one, two, one):
            assert_as_cold(monkeypatch, lambda gens=gens: taylor_complex(gens))

    def test_a_unit_generator_is_in_the_key(self, empty_memo, monkeypatch):
        # a generator equal to 1 is the one nonempty face whose label id is
        # the empty face's: x1 and 1, and the ideals (x1x2) and (1), have the
        # same columns less their minimum (none), and other label ids, for
        # Taylor, Lyubeznik and support complexes
        x1, one = Monomial((1, 0)), Monomial((0, 0))
        assert complexes._shifted([x1.exps])[0] != complexes._shifted([one.exps])[0]
        for gens in ([((0,), x1)], [((0,), one)]) * 2:
            for build in (taylor_complex, lyubeznik_complex):
                assert_as_cold(monkeypatch, lambda gens=gens, build=build: build(gens))
        assert taylor_complex([((0,), one)])._lids == [0, 0]
        for ideal in (MonomialIdeal(2, [Monomial((1, 1))]), MonomialIdeal(2, [one])) * 2:
            assert_as_cold(monkeypatch, lambda ideal=ideal: faridi_complex(ideal, 2))
        assert len(complexes._shapes) == 4
        # the same with an exponent over 255, whose key is a tuple: 1 and x1^300,
        # and x2 and x1^300 x2, have the same columns less their minimum
        x2, big = Monomial((0, 1)), Monomial((300, 1))
        units = [((0,), one), ((1,), Monomial((300, 0)))], [((0,), x2), ((1,), big)]
        assert (complexes._shifted([one.exps, (300, 0)])[0]
                != complexes._shifted([x2.exps, big.exps])[0])
        for gens in units * 2:
            for build in (taylor_complex, lyubeznik_complex):
                assert_as_cold(monkeypatch, lambda gens=gens, build=build: build(gens))
        assert len(complexes._shapes) == 6


    def test_an_exponent_over_255_keys_like_the_rest(self, empty_memo, monkeypatch,
                                                     four_cycle):
        # the 4-cycle at t = 2 times x5^255 and times x5^256: either column
        # less its minimum is zero, so both hit the 4-cycle's shape
        ideal = edge_ideal(four_cycle)
        faridi_complex(ideal, 2)
        for power in (255, 256, 255, 256):
            other = relabelled(ideal, lambda e, power=power: e + (power,))
            assert assert_as_cold(monkeypatch, lambda other=other: faridi_complex(other, 2))
        assert len(complexes._shapes) == 1

    def test_a_pairing_hit_builds_nothing(self, empty_memo, monkeypatch, example39):
        # a warm support complex and its table, on the ideal and on its twin,
        # cone and doubled variants, once their shapes are kept: no walk, no
        # products, no codes and no replayed labels; what is read afterwards
        # is built then, in either order, and equals a cold build
        calls = []
        for name in ("products", "power_generators", "_unary_codes", "_replay"):
            real = getattr(complexes, name)
            monkeypatch.setattr(complexes, name, lambda *args, name=name, real=real: (
                calls.append(name) or real(*args)))
        ideal = edge_ideal(example39)
        others = variants(ideal)
        for k, other in enumerate((ideal, others[2], others[4], others[3])):
            for _ in range(2):
                graded_betti(faridi_complex(other, 2), char=2)
            del calls[:]
            warm = faridi_complex(other, 2)
            graded_betti(warm, char=2)
            assert calls == [] and isinstance(warm, complexes._Replayed), (k, calls)
            fresh = cold(monkeypatch, lambda other=other: faridi_complex(other, 2))
            names = ("vertices", "_lids")[::1 - 2 * (k % 2)]
            assert [getattr(warm, name) for name in names] == [
                getattr(fresh, name) for name in names]
            assert warm._degrees == fresh._degrees

    def test_label_ids_are_the_labels(self, empty_memo, monkeypatch):
        # on cold builds of all three kinds, two faces share a label id exactly
        # when they have one lcm, and a face's degree is its lcm's: the
        # interning that the label codes decide, read through the vertices
        seen, labels = set(), 0
        for _, h in builtin_corpus():
            ideal = edge_ideal(h)
            if ideal.generators in seen:
                continue
            seen.add(ideal.generators)
            for t in (1, 2):
                gens = power_generators(ideal, t)
                for build in (*builders(ideal, t, CORPUS_MAX_FACES),
                              lambda: lyubeznik_complex(gens, CORPUS_MAX_FACES)):
                    cx = cold(monkeypatch, lambda: outcome(build))
                    if isinstance(cx, str):
                        continue
                    pairs = set()
                    for size in cx._index:
                        for mask, number in size.items():
                            face = complexes._vertices_of(mask)
                            exps = cx.label_exps(face)
                            assert cx.degree(face) == sum(exps), (h, t, face)
                            pairs.add((cx._lids[number], exps))
                    assert len(pairs) == len(dict(pairs)) == len({e for _, e in pairs}), (h, t)
                    labels += len(pairs)
        assert labels > 10000

    def test_one_key_pass_per_ideal(self, empty_memo, monkeypatch, example39):
        # the key pass does not depend on t: it runs on the first support
        # complex of an ideal, hit or miss, and each truncation runs its own
        calls = []
        real = complexes._shifted
        monkeypatch.setattr(complexes, "_shifted", lambda rows: calls.append(rows) or real(rows))
        full = edge_ideal(example39)
        for ideal in (full, full.truncate(3)):
            del calls[:]
            for _ in range(2):
                for t in (1, 2, 3):
                    graded_betti(faridi_complex(ideal, t))
            rows = [g.exps for g in ideal.generators]
            assert calls == [rows] and ideal._shifted == real(rows)


class TestRefusals:
    # a hit under a smaller cap, and a repeated refusal, raise the fresh
    # build's message, in the fresh build's order, with no generator walk
    def refusals(self, monkeypatch, build, caps):
        """build(cap)'s message for each cap, from the memo in use, after
        checking it against a fresh build's; and the number of walks."""
        walks = []
        walk = complexes.power_generators
        monkeypatch.setattr(complexes, "power_generators",
                            lambda ideal, t: walks.append(t) or walk(ideal, t))
        messages = []
        for cap in caps:
            before = len(walks)
            fresh = cold(monkeypatch, lambda: outcome(lambda: build(cap)))
            del walks[before:]  # the fresh build's walk
            messages.append(outcome(lambda: build(cap)))
            assert messages[-1] == fresh if isinstance(fresh, str) else messages[-1] == fresh
        return messages, len(walks)

    def test_face_count_and_facets_of_a_support_complex(self, empty_memo, monkeypatch,
                                                        four_cycle):
        ideal = edge_ideal(four_cycle)
        count = faridi_complex(ideal, 2).face_count
        assert count == 56
        complexes._shapes.clear()
        messages, walks = self.refusals(monkeypatch, lambda cap: faridi_complex(ideal, 2, cap),
                                        [55, 55, 40, 3, 3, 56, 55, 3])
        over = "complex exceeds the cap of {} faces"
        facet = messages[3]
        assert facet.startswith("facet with ") and facet.endswith(" faces, over the cap of 3")
        assert messages[:5] == [over.format(55)] * 2 + [over.format(40)] + [facet] * 2
        assert messages[6:] == [over.format(55), facet]
        assert walks == 2  # the refusal at 55, then the build at 56

    def test_facets_of_a_taylor_simplex(self, empty_memo, monkeypatch, four_cycle):
        gens = power_generators(edge_ideal(four_cycle), 2)
        assert len(gens) == 9
        messages, _ = self.refusals(monkeypatch, lambda cap: taylor_complex(gens, cap),
                                    [512, 100, 511, 511, 512])
        assert messages[1:4] == [f"facet with 9 vertices yields 512 faces, over the cap of {cap}"
                                 for cap in (100, 511, 511)]
        assert messages[0].face_count == messages[4].face_count == 512

    def test_a_refusal_is_shared_by_every_signature(self, empty_memo, monkeypatch,
                                                     four_cycle):
        # the 4-cycle and its twin variant have one key and two signatures:
        # once the square's support complex is refused, for its face count at
        # 55 and for a facet at 3, the twin's is refused with the fresh
        # build's message and no generator walk
        ideal = edge_ideal(four_cycle)
        twin = variants(ideal)[2]
        (key, signature, _), (twin_key, twin_signature, _) = map(complexes._shifted,
                                                                 (rows(ideal), rows(twin)))
        assert key == twin_key and signature != twin_signature
        walks = []
        walk = complexes.power_generators
        monkeypatch.setattr(complexes, "power_generators",
                            lambda ideal, t: walks.append(t) or walk(ideal, t))
        for cap in (55, 3):
            fresh = cold(monkeypatch, lambda: outcome(lambda: faridi_complex(twin, 2, cap)))
            assert outcome(lambda: faridi_complex(ideal, 2, cap)) == fresh
            del walks[:]
            assert outcome(lambda: faridi_complex(twin, 2, cap)) == fresh and walks == []
        assert fresh.startswith("facet with ") and len(complexes._shapes) == 1

    def test_label_code_budget_is_never_memoized(self, empty_memo, monkeypatch):
        # the 4-cycle with every exponent 2^16, so labels 2^17 bits wide per
        # variable at t = 2: in 4 variables the codes fit the budget; with
        # each variable repeated 129 times the key is the same, and the codes
        # of 516 variables are over it, both after the complex is kept and
        # after its shape is refused for its face count
        base = edge_ideal(Hypergraph(4, [[1, 2], [2, 3], [3, 4], [1, 4]]))
        base = relabelled(base, lambda e: tuple(x << 16 for x in e))
        twins = relabelled(base, lambda e: tuple(x for x in e for _ in range(129)))
        budget = "1056768 64-bit words per label code, over the cap of 1048576"
        for cap in (55, 56):
            messages = []
            for ideal in (base, twins, base, twins):
                messages.append(outcome(lambda ideal=ideal: faridi_complex(ideal, 2, cap)))
                fresh = cold(monkeypatch, lambda ideal=ideal: outcome(
                    lambda: faridi_complex(ideal, 2, cap)))
                assert messages[-1] == fresh if isinstance(fresh, str) else (
                    messages[-1].face_count == fresh.face_count)
            assert messages[1] == messages[3] == budget
            assert isinstance(messages[0], str) == (cap == 55)
            complexes._shapes.clear()

    def test_label_width_of_a_refusal_is_the_callers(self, empty_memo, monkeypatch):
        # the 4-cycle with x5^256 in every edge and with (x5 ... x520)^(2^16)
        # in every edge have one key; at t = 2 under a cap of 40 faces the
        # first is refused for its face count and the second, whose codes are
        # 2^17 bits wide in 520 variables, for the label-code budget, also
        # after the first's refusal: a refusal's width is not in its key
        cycle = edge_ideal(Hypergraph(4, [[1, 2], [2, 3], [3, 4], [1, 4]]))
        low = relabelled(cycle, lambda e: e + (256,))
        high = relabelled(cycle, lambda e: e + (1 << 16,) * 516)
        assert complexes._shifted(rows(low))[0] == complexes._shifted(rows(high))[0]
        messages = []
        for ideal in (low, high, low, high):
            messages.append(outcome(lambda: faridi_complex(ideal, 2, 40)))
            assert messages[-1] == cold(monkeypatch, lambda: outcome(
                lambda: faridi_complex(ideal, 2, 40)))
        assert messages == ["complex exceeds the cap of 40 faces",
                            "1064960 64-bit words per label code, over the cap of 1048576"] * 2


    def test_a_hit_refuses_mixed_rings(self, empty_memo):
        # x1, x2 in two variables, then x1 in two and x2 in three: the same
        # key, as the columns are cut at the shorter row, and the hit refuses
        # the rings as a fresh build does, before any code is built
        kept = [((0,), Monomial((1, 0))), ((1,), Monomial((0, 1)))]
        mixed = [((0,), Monomial((1, 0))), ((1,), Monomial((0, 1, 0)))]
        assert complexes._shifted(rows(MonomialIdeal(2, [m for _, m in kept])))[0] == (
            complexes._shifted([m.exps for _, m in mixed])[0])
        taylor_complex(kept)
        for _ in range(2):
            with pytest.raises(DimensionError, match="different rings"):
                taylor_complex(mixed)
        assert isinstance(taylor_complex(kept), complexes._Replayed)

    def test_a_hit_tests_the_label_code_budget_on_its_own_ring(self, empty_memo, monkeypatch,
                                                               four_cycle):
        # the 4-cycle with every exponent 2^16 fits the label-code budget at
        # t = 2; with 512 isolated variables more it has the same key and
        # signature, and its codes are over the budget: its hit refuses them
        base = relabelled(edge_ideal(four_cycle), lambda e: tuple(x << 16 for x in e))
        wide = relabelled(base, lambda e: e + (0,) * 512)
        assert complexes._shifted(rows(base)) == complexes._shifted(rows(wide))
        faridi_complex(base, 2)
        for ideal in (wide, base, wide):
            assert_as_cold(monkeypatch, lambda ideal=ideal: faridi_complex(ideal, 2))
        assert outcome(lambda: faridi_complex(wide, 2)) == (
            "1056768 64-bit words per label code, over the cap of 1048576")


def class_representatives():
    """The edge ideal of the first builtin instance of each isomorphism class that the
    benchmark's corpus records."""
    corpus = dict(builtin_corpus())
    recorded = json.loads((POOLS / "corpus.json").read_text(encoding="utf-8"))
    firsts = {}
    for entry in recorded["instances"]:
        firsts.setdefault(entry["class"], corpus[entry["name"]])
    return [edge_ideal(h) for h in firsts.values()]


def lyubeznik_as_cold(monkeypatch, ideal, t, flip, max_faces=CORPUS_MAX_FACES):
    """complex_for(ideal, t, "lyubeznik") on a new ComputeCache, from the memo in use, equals
    a cold lyubeznik_complex(power_generators(ideal, t)): the same tables over Q and GF(2),
    vertices, label ids, degrees, faces and label_exps, the tables read last with flip; or
    the same refusal.  True when the lookup was a shape hit."""
    warm = outcome(lambda: ComputeCache(max_faces=max_faces).complex_for(ideal, t, "lyubeznik"))
    fresh = cold(monkeypatch, lambda: outcome(
        lambda: lyubeznik_complex(power_generators(ideal, t), max_faces)))
    if isinstance(fresh, str):
        assert warm == fresh
        return False
    hit = isinstance(warm, complexes._Replayed)
    tables = [cold(monkeypatch, lambda char=char: graded_betti(fresh, char=char))
              for char in (0, 2)]
    names = ("vertices", "_lids", "_degrees")
    for step in (("tables", *names[::-1]) if flip else (*names, "tables")):
        if step == "tables":
            assert [graded_betti(warm, char=char) for char in (0, 2)] == tables
        else:
            assert getattr(warm, step) == getattr(fresh, step), step
    assert warm.faces == fresh.faces
    faces = [face for faces in fresh.faces.values() for face in faces]
    assert list(map(warm.label_exps, faces)) == list(map(fresh.label_exps, faces))
    return hit


class TestLyubeznikPowers:
    # the Lyubeznik complex of (I, t) through ComputeCache.complex_for is a
    # shape under ("lyubeznik", m, t, key of I): a warm lookup equals a cold
    # build on the generators of I^t, and a hit walks and builds nothing
    def test_every_class_and_its_variants(self, empty_memo, monkeypatch):
        # relabelled, isolated and cone vertices keep the key and signature
        # and hit; a twin vertex changes the signature, and doubled exponents
        # and a pendant vertex change the key
        for ideal in class_representatives():
            for t in (1, 2):
                outcome(lambda: ComputeCache().complex_for(ideal, t, "lyubeznik"))
                for k, other in enumerate([ideal, *variants(ideal)]):
                    hit = lyubeznik_as_cold(monkeypatch, other, t, k % 2)
                    assert hit or k in (3, 4, 6), (ideal, t, k)
                # the Taylor check counts the generators of I^t as these faces
                assert len(faridi_complex(ideal, t)._size(1)) == len(power_generators(ideal, t))

    def test_the_data_files(self, empty_memo, monkeypatch):
        # t = 1..3 up and then down under the default cap: the second round
        # hits, but for the refusal of rp2-6 at t = 3, which is not kept
        for path in sorted(DATA.glob("*.json")):
            ideal = edge_ideal(Hypergraph.load(path))
            hits = [lyubeznik_as_cold(monkeypatch, ideal, t, flip, DEFAULT_MAX_FACES)
                    for flip, t in enumerate((1, 2, 3, 3, 2, 1))]
            assert hits[3:] == [path.name != "rp2-6.json", True, True], path.name
        assert ("lyubeznik", 10, 3) not in {key[:3] for key in complexes._shapes}

    def test_a_refusal_is_the_cold_one(self, empty_memo, monkeypatch, capsys):
        # rp2-6 at t = 3 exits 3 with one message from an empty memo, from a
        # warm one, and again: the refusal is rebuilt, not kept
        args = ["complex", "--complex", "lyubeznik", "-t", "3", str(DATA / "rp2-6.json")]
        runs = [cold(monkeypatch, lambda: main(args))]
        for t in (1, 2):
            main(["complex", "--complex", "lyubeznik", "-t", str(t), str(DATA / "rp2-6.json")])
        capsys.readouterr()
        kept = dict(complexes._shapes)
        for _ in range(2):
            runs.append(main(args))
            assert complexes._shapes == kept
        assert runs == [3] * 3
        message = ("resource cap: 1923145 front-extension tests on 210 generators, "
                   "over the cap of 1048576\n")
        assert capsys.readouterr().err == message * 2

    def test_a_power_over_255_is_not_keyed(self, empty_memo, monkeypatch):
        # its tuples do not fit a byte: every lookup builds as it did unkeyed
        ideal = MonomialIdeal(3, [Monomial((1, 1, 0))])
        hits = [lyubeznik_as_cold(monkeypatch, ideal, t, t % 2) for t in (255, 256, 255, 256)]
        assert hits == [False, False, True, False]
        assert [key[2] for key in complexes._shapes] == [255]

    def test_a_refused_support_complex(self, empty_memo, monkeypatch, example39):
        # example39 at t = 3 has a 16-vertex facet, over the corpus cap; its
        # Lyubeznik complex of 2880 faces is built, kept and hit all the same
        ideal, cache = edge_ideal(example39), ComputeCache()
        with pytest.raises(ResourceCapError, match="facet with 16 vertices"):
            cache.complex_for(ideal, 3)
        assert cache.complex_for(ideal, 3, "lyubeznik").face_count == 2880
        assert lyubeznik_as_cold(monkeypatch, ideal, 3, False)

    def test_a_warm_lookup_builds_nothing(self, empty_memo, monkeypatch, example39):
        # a warm lookup and its table, on example39 and on its twin, cone and
        # doubled variants: no walk, no products, codes, key pass, recipe,
        # replay, generator test or face enumeration, and no vertex, code or
        # label id built
        calls = []
        for module, name in ((complexes, "products"), (complexes, "power_generators"),
                             (verify, "power_generators"), (complexes, "_unary_codes"),
                             (complexes, "_shifted"),
                             (complexes, "_replay_recipe"), (complexes, "_replay"),
                             (complexes, "_generators"), (complexes, "_admissible")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, name=name, real=real: (
                calls.append(name) or real(*args)))
        ideal = edge_ideal(example39)
        others = variants(ideal)
        for k, other in enumerate((ideal, others[2], others[4], others[3])):
            for t in (1, 2):
                for _ in range(2):
                    graded_betti(ComputeCache().complex_for(other, t, "lyubeznik"))
                del calls[:]
                warm = ComputeCache().complex_for(other, t, "lyubeznik")
                graded_betti(warm)
                assert calls == [] and isinstance(warm, complexes._Replayed), (k, t, calls)
                assert all(unread(warm, name) for name in ("vertices", "_lids"))
        # the Taylor check on a new cache, so on a new ideal: one key pass for
        # its support and Lyubeznik complexes, and the simplex gate counts the
        # support complex's vertices without building them, as the first-power
        # check counts the ideal's generators
        cone = Hypergraph(10, [edge + (10,) for edge in example39.edge_sets()])
        for h in (example39, cone):
            for check, args in ((check_taylor_agreement, (1,)), (check_taylor_agreement, (2,)),
                                (check_first_power_simplex, ())):
                check(h, *args)
                del calls[:]
                report = check(h, *args)
                assert report.conclusion_holds and calls == ["_shifted"], (h, args, calls)


def held_bytes():
    """The bytes that the kept shapes and pairings hold: each shape's facet
    sizes, and its signature's length, tuples, labelling and label degrees
    when complete; each pairing's counts, and its labelling unless that very
    object is a kept shape's."""
    shared = {id(entry[4]) for entry in complexes._shapes.values() if entry[2] is not None}
    held = 0
    for key, (_, sizes, facets, *rest) in complexes._shapes.items():
        held += sizes.itemsize * len(sizes)
        if facets is not None:
            tuples, labelling, degrees = rest
            held += len(key[-1]) + len(tuples) + len(labelling) + degrees.itemsize * len(degrees)
    for skeleton in complexes._skeletons.values():
        for (labelling, _), counts in skeleton[3].items():
            held += counts.itemsize * len(counts) + (id(labelling) not in shared) * len(labelling)
    return held


def test_each_labelling_is_counted_once(empty_memo):
    # support, Taylor, Lyubeznik (on a list and of a power) and plain
    # complexes, over Q and GF(2), some twice, some sharing a labelling, some
    # under a new signature: the byte count is what the shapes and pairings
    # hold, and pairings keep labellings of both kinds
    for _, h in builtin_corpus()[::3]:
        for ideal in (edge_ideal(h), relabelled(edge_ideal(h), lambda e: e + (1,)),
                      relabelled(edge_ideal(h), lambda e: e[:1] + e)):
            for t in (1, 2):
                gens = power_generators(ideal, t)
                cxs = [faridi_complex(ideal, t), lyubeznik_complex(gens),
                       lyubeznik_power_complex(ideal, t, lambda: gens)]
                if len(gens) <= 8:
                    cxs += [LabelledComplex(gens, [range(len(gens))]), taylor_complex(gens)]
                for cx in cxs:
                    for char in (0, 2):
                        graded_betti(cx, char=char)
    assert complexes._held == held_bytes()
    assert {key[0] for key in complexes._shapes} == {"faridi", "lyubeznik", "taylor"}
    shared = {id(entry[4]) for entry in complexes._shapes.values() if entry[2] is not None}
    kinds = {id(labelling) in shared for skeleton in complexes._skeletons.values()
             for labelling, _ in skeleton[3] if labelling}
    assert kinds == {False, True}


def test_threads_keep_the_shape_bytes(empty_memo, monkeypatch):
    # threads that build and refuse shapes at once count each kept shape and
    # pairing once, keep them within the byte bound, and build what a cold
    # build does; the cold tables are read before, so that no pairing is kept
    # on a cold memo's skeleton
    queries = list(dict.fromkeys((edge_ideal(h), t) for _, h in builtin_corpus()[::4]
                                 for t in (1, 2, 3)))

    def labelled(ideal, t):
        cx = outcome(lambda: faridi_complex(ideal, t, 1 << 10))
        return cx if isinstance(cx, str) else (cx.vertices, cx._lids, graded_betti(cx).entries)

    expected = {q: cold(monkeypatch, lambda q=q: labelled(*q)) for q in queries}
    bound = 6000
    monkeypatch.setattr(complexes, "_MEMO_BYTES", bound)
    wrong = []

    def build(seed):
        for ideal, t in random.Random(seed).sample(queries, len(queries)):
            if labelled(ideal, t) != expected[ideal, t]:
                wrong.append((ideal, t))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(seed,)) for seed in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong
    assert complexes._held == held_bytes() <= bound
    assert sum(entry[0] for entry in complexes._shapes.values()) > 0
    assert 0 < len(complexes._shapes) < len(queries)
    assert any(isinstance(want, str) for want in expected.values())
