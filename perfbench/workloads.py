"""The benchmark workloads: inputs, one operation, and its output check.

Every setting the library would otherwise default is pinned here, so a
change of a library default does not silently change a workload.  Inputs
are drawn from the recorded pools in data/ (written by record.py from a
fixed master seed) by the run's --seed; the reference outputs recorded
with each pool are what every run is checked against.

Each run draws a stratified sample: the pool is sorted by the cost
recorded for each item, cut into as many consecutive strata as the run
has operations, and the seed picks one item per stratum.  Different seeds
therefore run different inputs of nearly the same total cost.  The corpus
is sampled the same way by isomorphism class.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

CORPUS_T_MAX = 3
CORPUS_CHAR = 0
CORPUS_MAX_FACES = 1 << 14
CORPUS_MIN_GEN_POWERS = (2, 3)
QUERY_MAX_FACES = 1 << 20
CHARP = 32003

MIN_OPS = 100
# Queries per second of --seconds: at these rates the recorded (fastest)
# costs of a run add up to 0.8 x --seconds on a 2-core Xeon under Python
# 3.11.  CORPUS_SHARE_PER_S is the share of each isomorphism class verified
# per second of --seconds.
CORPUS_SHARE_PER_S = 1 / 56
CHAR0_PER_S = 12
CHARP_PER_S = 55


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def load(name):
    with open(DATA / name, encoding="utf-8") as f:
        return json.load(f)


def pinned(recorded, **settings):
    """Refuse a reference recorded under other settings than this file pins."""
    for key, value in settings.items():
        if recorded[key] != value:
            raise ValueError(f"reference recorded with {key}={recorded[key]}, pinned {value}")


def stratified(pool, count, rng):
    """One item per stratum of the pool sorted by recorded cost."""
    ranked = sorted(pool, key=lambda item: item["cost_ms"])
    count = min(count, len(ranked))
    return [rng.choice(ranked[k * len(ranked) // count:(k + 1) * len(ranked) // count])
            for k in range(count)]


def table_rows(table):
    return [[i, j, b] for (i, j), b in table.items_sorted()]


# --- corpus-verify ------------------------------------------------------

class CorpusVerify:
    """run_checks over a class-stratified share of builtin_corpus()."""

    name = "corpus-verify"

    def setup(self, hb, seed, seconds):
        ref = load("corpus.json")
        pinned(ref, t_max=CORPUS_T_MAX, char=CORPUS_CHAR, max_faces=CORPUS_MAX_FACES,
               min_gen_powers=list(CORPUS_MIN_GEN_POWERS))
        corpus = dict(hb.verify.builtin_corpus())
        share = min(1.0, seconds * CORPUS_SHARE_PER_S)
        rng = random.Random(seed)
        classes = {}
        for entry in ref["instances"]:
            classes.setdefault(entry["class"], []).append(entry)
        items = []
        for members in classes.values():
            k = min(len(members), max(1, round(share * len(members))))
            items += [(e["name"], corpus[e["name"]], e) for e in rng.sample(members, k)]
        rng.shuffle(items)
        return items

    def run(self, hb, item):
        name, hypergraph, _ = item
        cache = hb.verify.ComputeCache(char=CORPUS_CHAR, max_faces=CORPUS_MAX_FACES)
        return hb.verify.run_checks(hypergraph, t_max=CORPUS_T_MAX, cache=cache, label=name,
                                    min_gen_powers=CORPUS_MIN_GEN_POWERS)

    def check(self, hb, item, reports):
        name, _, ref = item
        if any(r.failed for r in reports):
            return f"{name}: a check failed"
        if digest([r.to_json() for r in reports]) != ref["digest"]:
            return f"{name}: report lines differ from the recorded stream"
        return None


# --- betti-char0 / betti-charp -----------------------------------------

class BettiQueries:
    """A stream of distinct graded_betti queries from a recorded pool."""

    def __init__(self, name, char, pool, per_s):
        self.name, self.char, self.pool, self.per_s = name, char, pool, per_s

    def setup(self, hb, seed, seconds):
        pool = load(self.pool)
        pinned(pool, char=self.char, max_faces=QUERY_MAX_FACES)
        rng = random.Random(seed)
        picked = stratified(pool["queries"], max(MIN_OPS, round(self.per_s * seconds)), rng)
        rng.shuffle(picked)
        return [(hb.edge_ideal(hb.Hypergraph(q["n"], q["edges"])), q) for q in picked]

    def run(self, hb, item):
        ideal, q = item
        if q["complex"] == "taylor":
            cx = hb.complexes.taylor_complex(hb.monomials.power_generators(ideal, q["t"]),
                                             max_faces=QUERY_MAX_FACES)
        else:
            cx = hb.complexes.faridi_complex(ideal, q["t"], max_faces=QUERY_MAX_FACES)
        return hb.betti.graded_betti(cx, char=self.char, power=q["t"])

    def check(self, hb, item, table):
        ideal, q = item
        label = f"{q['complex']} t={q['t']} edges={q['edges']}"
        if table_rows(table) != q["table"]:
            return f"{label}: table differs from the recorded one"
        if table.betti(0, 0) != 1:
            return f"{label}: beta_00 != 1"
        degrees = Counter(mono.degree for _, mono in hb.monomials.power_generators(ideal, q["t"]))
        if {j: b for (i, j), b in table.entries.items() if i == 1} != dict(degrees):
            return f"{label}: row 1 is not the generator degree histogram"
        return None


WORKLOADS = {w.name: w for w in (
    CorpusVerify(),
    BettiQueries("betti-char0", 0, "queries-char0.json", CHAR0_PER_S),
    BettiQueries("betti-charp", CHARP, "queries-charp.json", CHARP_PER_S),
)}
