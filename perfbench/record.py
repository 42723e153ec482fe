"""Regenerate the reference data in data/ from the library as it stands.

    python3 perfbench/record.py {corpus,char0,charp} ...

Pools are drawn from fixed master seeds, so re-recording on an unchanged
library rewrites the same inputs and outputs; only cost_ms, the fastest
of three timings used to stratify the pools, changes.  Record on an
otherwise idle machine, one pool at a time.  `corpus` also runs
`hyperbetti verify --corpus builtin --t-max 3` and refuses to record
unless its report lines equal the stream the benchmark reproduces.
Re-record only on purpose: a reference recorded from a broken library
would make the benchmark accept its outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from itertools import permutations
from math import comb
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import hyperbetti as hb  # noqa: E402


def write(name, header, **pools):
    """JSON with one pool item per line, so a re-record diffs readably."""
    parts = [json.dumps(header, sort_keys=True)[1:-1]]
    for key, items in pools.items():
        body = ",\n".join(json.dumps(item, sort_keys=True, separators=(",", ":"))
                          for item in items)
        parts.append(f'"{key}": [\n{body}\n]')
    with open(wl.DATA / name, "w", encoding="utf-8") as f:
        f.write("{" + ", ".join(parts) + "}\n")


def timed(fn):
    """fn() and the fastest of three timings in ms."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, round(1000 * min(times), 3)


def canonical_form(hypergraph):
    edges = hypergraph.edge_sets()
    return min(tuple(sorted(tuple(sorted(p[v - 1] for v in e)) for e in edges))
               for p in permutations(range(1, hypergraph.n + 1)))


def record_corpus():
    settings = {"t_max": wl.CORPUS_T_MAX, "char": wl.CORPUS_CHAR,
                "max_faces": wl.CORPUS_MAX_FACES,
                "min_gen_powers": list(wl.CORPUS_MIN_GEN_POWERS)}
    workload = wl.CorpusVerify()
    classes = {}
    instances = []
    lines = []
    for name, hypergraph in hb.verify.builtin_corpus():
        reports = workload.run(hb, (name, hypergraph, None))
        report_lines = [r.to_json() for r in reports]
        lines += report_lines
        key = (hypergraph.n, canonical_form(hypergraph))
        instances.append({"name": name, "class": classes.setdefault(key, len(classes)),
                          "reports": len(report_lines), "digest": wl.digest(report_lines)})
    cli = subprocess.run(
        [sys.executable, "-m", "hyperbetti.cli", "verify", "--corpus", "builtin",
         "--t-max", str(wl.CORPUS_T_MAX), "--char", str(wl.CORPUS_CHAR),
         "--max-faces", str(wl.CORPUS_MAX_FACES)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    cli_lines = cli.stdout.splitlines()
    if cli_lines[:-1] != lines:
        sys.exit("corpus: report lines differ from `hyperbetti verify` stdout")
    summary = json.loads(cli_lines[-1])["summary"]
    write("corpus.json", {**settings, "stream_digest": wl.digest(lines), "summary": summary},
          instances=instances)
    print(f"corpus: {len(instances)} instances, {len(classes)} classes, {summary}")


def random_query(rng):
    kind = rng.choice(("faridi", "taylor"))
    t = rng.randint(2, 4) if kind == "faridi" else rng.randint(1, 2)
    n = rng.randint(4, 8)
    d = rng.randint(2, min(4, n - 1))
    m = rng.randint(2, min(6, comb(n, d)))
    h = hb.verify.random_hypergraph(n, m, d, rng.randrange(1 << 30))
    return {"n": n, "edges": [list(e) for e in h.edge_sets()], "complex": kind, "t": t}


def record_queries(name, char, size, master_seed):
    """Queries whose complex has 96..1104 faces under the pinned cap."""
    workload = wl.BettiQueries(name, char, None, None)
    rng = random.Random(master_seed)
    seen = set()
    queries = []
    while len(queries) < size:
        q = random_query(rng)
        key = json.dumps(q, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        ideal = hb.edge_ideal(hb.Hypergraph(q["n"], q["edges"]))
        if q["complex"] == "taylor":
            faces = 1 << len(hb.power_generators(ideal, q["t"]))
        else:
            try:
                faces = hb.faridi_complex(ideal, q["t"], max_faces=1104).face_count
            except hb.ResourceCapError:
                continue
        if not 96 <= faces <= 1104:
            continue
        table, cost = timed(lambda: workload.run(hb, (ideal, q)))
        queries.append({**q, "faces": faces, "cost_ms": cost, "table": wl.table_rows(table)})
        if workload.check(hb, (ideal, queries[-1]), table) is not None:
            sys.exit(f"{name}: recorded table fails its own invariants: {q}")
    write(f"queries-{name.split('-')[1]}.json",
          {"char": char, "max_faces": wl.QUERY_MAX_FACES, "master_seed": master_seed},
          queries=queries)
    print(f"{name}: {len(queries)} queries, {sum(q['cost_ms'] for q in queries) / 1000:.1f} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", nargs="+", choices=("corpus", "char0", "charp"))
    args = parser.parse_args()
    for what in args.what:
        if what == "corpus":
            record_corpus()
        elif what == "char0":
            record_queries("betti-char0", 0, 400, master_seed=20206)
        else:
            record_queries("betti-charp", wl.CHARP, 2000, master_seed=320030)


if __name__ == "__main__":
    main()
