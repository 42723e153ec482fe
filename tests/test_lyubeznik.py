"""Lyubeznik's subcomplex of the Taylor simplex: its faces against the
definition applied to every subset, its shape, its tables against the
recorded pool tables, its face cap and test budget, and its memo."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hyperbetti
from hyperbetti import complexes, verify
from hyperbetti.betti import graded_betti
from hyperbetti.complexes import lyubeznik_complex, taylor_complex
from hyperbetti.errors import DimensionError, DomainError, ResourceCapError
from hyperbetti.hypergraph import Hypergraph, edge_ideal
from hyperbetti.monomials import Monomial, power_generators
from hyperbetti.verify import builtin_corpus, random_hypergraph, run_corpus
from helpers import lyubeznik_oracle

POOLS = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def random_generators(seed):
    """Up to 10 seeded (tuple, monomial) generator pairs in a shuffled order:
    the powers of a random hypergraph's edge ideal, or distinct random
    monomials, which need not form an antichain."""
    rng = random.Random(seed)
    if seed % 2:
        n, d = rng.randint(4, 6), rng.randint(2, 3)
        ideal = edge_ideal(random_hypergraph(n, rng.randint(1, 4), d, seed))
        gens = [g for t in (1, 2, 3) if len(g := power_generators(ideal, t)) <= 10][-1]
    else:
        nvars = rng.randint(1, 4)
        exps = {tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(1, 10))}
        gens = [((k,), Monomial(e)) for k, e in enumerate(sorted(exps))]
    rng.shuffle(gens)
    return gens


def face_set(cx):
    return {face for faces in cx.faces.values() for face in faces}


class TestFaces:
    @pytest.mark.parametrize("seed", range(60))
    def test_admissible_sets_by_definition(self, seed):
        gens = random_generators(seed)
        cx = lyubeznik_complex(gens)
        assert face_set(cx) == lyubeznik_oracle([mono for _, mono in gens])

    @pytest.mark.parametrize("seed", range(0, 60, 3))
    def test_labelled_subcomplex_of_the_simplex(self, seed):
        gens = random_generators(seed)
        cx, simplex = lyubeznik_complex(gens), taylor_complex(gens)
        faces = face_set(cx)
        assert cx.vertices == simplex.vertices
        for face in faces:
            assert set(face) <= set(range(len(gens)))
            assert all(face[:k] + face[k + 1:] in faces for k in range(len(face)))
            if face:
                assert cx.label_exps(face) == simplex.label_exps(face)

    def test_first_generator_order_matters(self):
        # the path x1x2, x2x3, x3x4: with x2x3 first, {x1x2, x3x4} is not
        # admissible, since x2x3 divides their lcm; with it last, it is
        ideal = edge_ideal(Hypergraph(4, [[1, 2], [2, 3], [3, 4]]))
        gens = power_generators(ideal, 1)
        middle = next(k for k, (_, m) in enumerate(gens) if m.exps == (0, 1, 1, 0))
        first = [gens[middle]] + [g for k, g in enumerate(gens) if k != middle]
        last = [g for k, g in enumerate(gens) if k != middle] + [gens[middle]]
        assert (0, 1) in face_set(lyubeznik_complex(last))
        assert (1, 2) not in face_set(lyubeznik_complex(first))
        tables = {frozenset(graded_betti(lyubeznik_complex(order)).entries.items())
                  for order in (first, last)}
        assert len(tables) == 1

    @pytest.mark.parametrize("build", [lyubeznik_complex, taylor_complex])
    def test_no_or_repeated_generators_are_refused(self, build):
        # one check refuses an empty or repeated generator list on both builders
        with pytest.raises(DomainError, match="no generators"):
            build([])
        gen = ((1,), Monomial((1, 1)))
        with pytest.raises(DomainError, match="generators must be distinct"):
            build([gen, ((2,), gen[1])])


class TestRecordedPools:
    # every third query of the benchmark's pools: the Lyubeznik table is the
    # recorded one, over Q and over GF(32003)
    @pytest.mark.parametrize("pool", ["queries-char0.json", "queries-charp.json"])
    def test_every_third_recorded_table(self, pool):
        recorded = json.loads((POOLS / pool).read_text(encoding="utf-8"))
        char, max_faces = recorded["char"], recorded["max_faces"]
        for q in recorded["queries"][::3]:
            ideal = edge_ideal(Hypergraph(q["n"], q["edges"]))
            cx = lyubeznik_complex(power_generators(ideal, q["t"]), max_faces)
            table = graded_betti(cx, char=char, power=q["t"])
            assert [[i, j, b] for (i, j), b in table.items_sorted()] == q["table"], q


class TestCosts:
    def test_exact_face_cap(self):
        gens = power_generators(edge_ideal(Hypergraph(4, [[1, 2], [2, 3], [3, 4], [1, 4]])), 2)
        count = lyubeznik_complex(gens).face_count
        assert lyubeznik_complex(gens, max_faces=count).face_count == count
        with pytest.raises(ResourceCapError) as caught:
            lyubeznik_complex(gens, max_faces=count - 1)
        assert str(caught.value) == f"complex exceeds the cap of {count - 1} faces"

    def test_front_tests_over_budget_are_refused_before_they_run(self):
        # the antichain x^k y^(1500-k): every singleton is a face, and the
        # 1500 * 1499 / 2 tests of the pairs are refused before the first runs
        gens = [((k,), Monomial((k, 1500 - k))) for k in range(1500)]
        start = time.perf_counter()
        with pytest.raises(ResourceCapError) as caught:
            lyubeznik_complex(gens)
        assert time.perf_counter() - start < 2.0
        assert str(caught.value) == ("1125750 front-extension tests on 1500 generators, "
                                     "over the cap of 1048576")

    def test_star_square_exits_in_bounded_time(self, tmp_path):
        # the 20-edge star {1, k} has 210 generators at t = 2; the tests of
        # its pairs fit the budget, those of its triples do not
        star = tmp_path / "star.json"
        star.write_text(json.dumps({"n": 21, "edges": [[1, k] for k in range(2, 22)]}))
        src = str(Path(hyperbetti.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "hyperbetti.cli", "betti", "-t", "2",
                               "--complex", "lyubeznik", str(star)],
                              capture_output=True, env=env, timeout=60)
        assert time.perf_counter() - start < 5.0
        assert proc.returncode in (0, 3) and b"Traceback" not in proc.stderr
        assert proc.stderr == (b"resource cap: 12591757 front-extension tests on 210 "
                               b"generators, over the cap of 1048576\n")


def assert_fresh(monkeypatch, cx, gens, max_faces=complexes.DEFAULT_MAX_FACES):
    """cx equals a build of gens from an empty memo: the same faces, label
    ids and degrees, and the same tables over Q and GF(2)."""
    memo = complexes._skeletons
    monkeypatch.setattr(complexes, "_skeletons", {})
    fresh = lyubeznik_complex(gens, max_faces)
    monkeypatch.setattr(complexes, "_skeletons", memo)
    assert cx.faces == fresh.faces and cx._lids == fresh._lids and cx._degrees == fresh._degrees
    for char in (0, 2):
        assert graded_betti(cx, char=char).entries == graded_betti(fresh, char=char).entries


def variable_changes(gens, rng):
    """gens with its variables permuted, with one variable repeated, and with
    an all-zero variable added."""
    nvars = len(gens[0][1].exps)
    order, k = rng.sample(range(nvars), nvars), rng.randrange(nvars)
    changes = (lambda e: tuple(e[i] for i in order), lambda e: e + (e[k],),
               lambda e: e[:k] + (0,) + e[k:])
    return [[(b, Monomial(change(mono.exps))) for b, mono in gens] for change in changes]


@pytest.fixture
def builds(monkeypatch):
    """The vertex codes of each Lyubeznik complex built afresh, in order."""
    built = []
    real = complexes._admissible
    monkeypatch.setattr(complexes, "_admissible",
                        lambda codes, max_faces: built.append(codes) or real(codes, max_faces))
    return built


class TestMemo:
    # a Lyubeznik complex is memoized under r and its set of nonzero exponent
    # columns; a hit replays the label recipe with the complex's own codes
    def test_every_corpus_list_from_a_warm_memo(self, monkeypatch, empty_memo, builds):
        # the generators of every power whose Lyubeznik complex the Taylor check
        # builds over the builtin corpus at t <= 3 within the corpus cap: served
        # from the memo the corpus run left, with its GF(2) pairings kept too,
        # each equals a fresh build
        queries = []
        build = verify.lyubeznik_power_complex
        monkeypatch.setattr(verify, "lyubeznik_power_complex", lambda ideal, t, gens, cap: (
            queries.append((ideal, t, cap)) or build(ideal, t, gens, cap)))
        run_corpus(builtin_corpus(), t_max=3)
        lists = [(tuple(power_generators(ideal, t)), cap)
                 for ideal, t, cap in dict.fromkeys(queries)]
        assert len(lists) > 200 and len(builds) < len(lists)
        for gens, cap in lists:
            graded_betti(lyubeznik_complex(gens, cap), char=2)
        built, kept = len(builds), len(empty_memo)
        warm = [lyubeznik_complex(gens, cap) for gens, cap in lists]
        assert len(builds) == built and len(empty_memo) == kept
        for cx, (gens, cap) in zip(warm, lists):
            assert cx._memo is not None
            assert_fresh(monkeypatch, cx, gens, cap)

    @pytest.mark.parametrize("seed", range(0, 60, 3))
    def test_variable_changes_hit_one_entry(self, monkeypatch, empty_memo, kernel_runs, seed):
        gens = random_generators(seed)
        base = lyubeznik_complex(gens)
        for char in (0, 2):
            graded_betti(base, char=char)
        changed = [(other, lyubeznik_complex(other))
                   for other in variable_changes(gens, random.Random(seed))]
        for _, cx in changed:
            for char in (0, 2):
                graded_betti(cx, char=char)
        assert kernel_runs == [base, base] and len(empty_memo) == 1
        for other, cx in changed:
            assert_fresh(monkeypatch, cx, other)

    def test_swapping_two_generators_misses(self, monkeypatch, empty_memo, builds):
        # the path x1x2, x2x3, x3x4: with x2x3 first, {x1x2, x3x4} is not
        # admissible, so the swapped list is a complex of its own
        gens = power_generators(edge_ideal(Hypergraph(4, [[1, 2], [2, 3], [3, 4]])), 1)
        swapped = [gens[1], gens[0], gens[2]]
        assert swapped[0][1].exps == (0, 1, 1, 0)
        cxs = [lyubeznik_complex(gens), lyubeznik_complex(swapped)]
        assert len(builds) == len(empty_memo) == 2 and cxs[0].faces != cxs[1].faces
        for other, cx in zip((gens, swapped), cxs):
            assert_fresh(monkeypatch, cx, other)
        for seed in range(20):  # hit or miss, a swap gives the fresh build
            gens = random_generators(seed)
            i, j = random.Random(seed).sample(range(len(gens)), 2) if len(gens) > 1 else (0, 0)
            gens[i], gens[j] = gens[j], gens[i]
            assert_fresh(monkeypatch, lyubeznik_complex(gens), gens)

    def test_cap_and_refusals_on_a_hit(self, monkeypatch, empty_memo, builds, four_cycle):
        # memoized under the default cap, the complex is refused under a lower
        # one with a fresh build's message; bad lists are refused before the key
        gens = power_generators(edge_ideal(four_cycle), 2)
        count = lyubeznik_complex(gens).face_count
        monkeypatch.setattr(complexes, "_skeletons", {})
        messages = []
        for _ in range(2):  # from an empty memo, then from a warm one
            with pytest.raises(ResourceCapError) as caught:
                lyubeznik_complex(gens, max_faces=count - 1)
            messages.append(str(caught.value))
            monkeypatch.setattr(complexes, "_skeletons", empty_memo)
        assert messages == [f"complex exceeds the cap of {count - 1} faces"] * 2
        assert len(builds) == 2 and len(empty_memo) == 1
        with pytest.raises(DomainError, match="no generators"):
            lyubeznik_complex([])
        with pytest.raises(DomainError, match="generators must be distinct"):
            lyubeznik_complex([gens[0], gens[1], gens[0]])
        # a fifth variable on all but the first: cut short by zip, the key is the memoized one
        mixed = gens[:1] + [(b, Monomial(mono.exps + (0,))) for b, mono in gens[1:]]
        with pytest.raises(DimensionError):
            lyubeznik_complex(mixed)
        assert len(builds) == 2
