"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they print.
The corpus-wide criteria share a single verification run over the builtin
corpus (module-scoped fixture), which also pins the whole `verify` stream.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hyperbetti
from hyperbetti import cli
from hyperbetti.betti import graded_betti
from hyperbetti.complexes import faridi_complex, taylor_complex
from hyperbetti.hypergraph import Hypergraph, edge_ideal
from hyperbetti.matchings import invariants
from hyperbetti.monomials import power_generators
from hyperbetti.verify import builtin_corpus, run_corpus
from helpers import hochster_betti

CORPUS_BUDGET_SECONDS = 600.0

# sha256 of `hyperbetti verify --corpus builtin --t-max 3` stdout.  Anything
# that changes a corpus report must re-record it; raising CORPUS_MAX_FACES
# does, because the cap-gated reports then run.
VERIFY_STREAM_SHA256 = "c55f393bf582d7a576b1f4938e3601a218b57ed7292c2db97f27921d6fdf90e5"

# sha256 of more `verify` streams that a change to the kernel or the face
# store must leave alone: the builtin corpus at t_max 3 under another field
# or face budget, and two random runs.  The second is of two 12-edge graphs,
# whose 850 self-semi-induced families among 8190 exercise the family facts.
# Over GF(2) the stream is the one over Q.  At t_max 10 most support
# complexes past t = 3 are refused, and most refusals repeat a shape; at
# t_max 20 thousands do, so it pins which refusals a shape key shares.
PINNED_STREAMS = {
    "--corpus builtin --t-max 10":
        "8deb452c7956314b067486f680552c7c86d3985b994f0fd44c3ee2fd5a5a13d0",
    "--corpus builtin --t-max 20":
        "c876ea2a496f6fa27aff801f98279cf1f33779558fbee9824245af783112f8cd",
    "--corpus builtin --t-max 3 --char 2": VERIFY_STREAM_SHA256,
    "--corpus builtin --t-max 3 --max-faces 4096":
        "ba756a3099e7b8af4ce97f8db9f4a0a3dc0c4839186757aa2dfae6e6dbe39588",
    "--corpus builtin --t-max 3 --max-faces 65536":
        "4b2bb29424f21e5b2250d663964370cfb65d264ca7d0bbf4bad9e7d702e6630c",
    "--random 20 --n 7 --m 5 --d 3 --seed 9":
        "2218353e7273177be6da78ec45dbecfe45e76599b3f62afc892c20fc9a5e69a0",
    "--random 2 --n 14 --m 12 --d 2 --t-max 2":
        "5e855cea2b8863986fac489170212cdfe5b8a17a67b00212e83cedab4dfebbfb",
}


def criterion(num, ok, detail):
    print(f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def corpus_run():
    start = time.perf_counter()
    reports, summary = run_corpus(builtin_corpus(), t_max=3)
    elapsed = time.perf_counter() - start
    return reports, summary, elapsed


def by_check(reports, name):
    return [r for r in reports if r.check == name]


def test_criterion_1_golden_two_triples(data_dir):
    start = time.perf_counter()
    h = Hypergraph.load(data_dir / "path5.json")
    ideal = edge_ideal(h)
    reg1 = graded_betti(faridi_complex(ideal, 1)).regularity()
    reg3 = graded_betti(faridi_complex(ideal, 3)).regularity()
    matching = invariants(h).matching_number
    elapsed = time.perf_counter() - start
    ok = reg1 == 3 and reg3 == 9 and matching == 1 and elapsed < 1.0
    assert criterion(1, ok,
                     f"reg(R/I)={reg1} reg(R/I^3)={reg3} matching={matching} "
                     f"time={elapsed:.3f}s")


def test_criterion_2_golden_three_triples_with_transversal(data_dir):
    start = time.perf_counter()
    h = Hypergraph.load(data_dir / "example39.json")
    inv = invariants(h)
    table = graded_betti(taylor_complex(power_generators(edge_ideal(h), 1)))
    reg_quotient = table.regularity()
    reg_ideal = max(j - (i - 1) for (i, j) in table.entries if i >= 1)
    elapsed = time.perf_counter() - start
    oracle_agrees = table.entries == hochster_betti(h)
    # 4 is reg(R/I), the quotient convention of regularity(); 5 is reg(I), the ideal convention
    ok = (inv.self_semi_induced_excess == 4
          and inv.semi_induced_excess == 5
          and reg_quotient == 4
          and reg_ideal == 5
          and oracle_agrees
          and elapsed < 5.0)
    assert criterion(2, ok,
                     f"ssim_excess={inv.self_semi_induced_excess} "
                     f"sim_excess={inv.semi_induced_excess} "
                     f"reg(R/I)={reg_quotient} reg(I)={reg_ideal} "
                     f"Hochster oracle agrees: {oracle_agrees} time={elapsed:.3f}s")


def stream_digest(reports, summary):
    """sha256 of the `verify` stdout that prints these reports and summary."""
    stream = "".join(r.to_json() + "\n" for r in reports)
    stream += json.dumps({"summary": summary}, sort_keys=True, separators=(",", ":")) + "\n"
    return hashlib.sha256(stream.encode()).hexdigest()


def test_verify_stream_is_pinned(corpus_run):
    reports, summary, _ = corpus_run
    assert stream_digest(reports, summary) == VERIFY_STREAM_SHA256


def test_verify_stream_from_an_empty_and_a_warm_memo(empty_memo):
    # the second run in one process finds every complex of the first memoized
    digests, kept = [], []
    for _ in range(2):
        digests.append(stream_digest(*run_corpus(builtin_corpus(), t_max=3)))
        kept.append(len(empty_memo))
    assert digests == [VERIFY_STREAM_SHA256] * 2
    assert kept[0] == kept[1] > 0


@pytest.mark.parametrize("args", PINNED_STREAMS)
def test_more_verify_streams_are_pinned(capsys, args):
    assert cli.main(["verify", *args.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINNED_STREAMS[args]


def test_criterion_3_taylor_faridi_agreement(corpus_run):
    reports, _, elapsed = corpus_run
    agreement = by_check(reports, "taylor_faridi_agreement")
    failures = [r for r in agreement if r.failed]
    compared = sum(1 for r in agreement if not r.gated)
    ok = not failures and compared > 0 and elapsed < CORPUS_BUDGET_SECONDS
    assert criterion(3, ok,
                     f"{compared} instance/power pairs compared, "
                     f"{len(failures)} mismatches, corpus time {elapsed:.1f}s")


def test_criterion_4_lower_bound_suite(corpus_run):
    reports, _, _ = corpus_run
    bounds = by_check(reports, "power_betti_lower_bounds")
    failures = [r for r in bounds if r.failed]
    checked = sum(1 for r in bounds if not r.gated)
    ok = not failures and checked > 0
    assert criterion(4, ok, f"{checked} instance/power reports, {len(failures)} violations")


def test_criterion_5_regularity_upper_suite(corpus_run):
    reports, _, _ = corpus_run
    upper = by_check(reports, "regularity_upper_bounds")
    failures = [r for r in upper if r.failed]
    checked = sum(1 for r in upper if not r.gated)
    ok = not failures and checked > 0
    assert criterion(5, ok, f"{checked} instance/power reports, {len(failures)} violations")


def test_criterion_6_survivor_sandwich_suite(corpus_run):
    reports, _, _ = corpus_run
    sandwich = by_check(reports, "survivor_bound_sandwich")
    square = by_check(reports, "second_power_sandwich")
    failures = [r for r in sandwich + square if r.failed]
    # the second-power reports must assert both hypotheses at every i > 1
    hypotheses_ok = all(case["upper_applies"] and case["lower_applies"]
                        for r in square if not r.gated
                        for case in r.witness["cases"])
    checked = sum(1 for r in sandwich + square if not r.gated)
    ok = not failures and hypotheses_ok and checked > 0
    assert criterion(6, ok, f"{checked} reports, {len(failures)} violations, "
                            f"second-power hypotheses hold: {hypotheses_ok}")


def test_criterion_7_second_power_contrapositive(corpus_run):
    reports, _, _ = corpus_run
    square = by_check(reports, "second_power_sandwich")
    violations = []
    cases = 0
    for r in square:
        if r.gated:
            continue
        for case in r.witness["cases"]:
            if case["matchings"] < 2 ** case["i"]:
                cases += 1
                if case["beta"] != 0:
                    violations.append((r.instance, case))
    ok = not violations and cases > 0
    assert criterion(7, ok, f"{cases} scarce-matching cases, {len(violations)} violations")


def test_criterion_8_triviality_anchors(corpus_run):
    reports, _, _ = corpus_run
    anchors_ok = True
    for d in (2, 3, 4):
        ideal = edge_ideal(Hypergraph(d, [list(range(1, d + 1))]))
        for t in (1, 2, 3, 4):
            reg = graded_betti(faridi_complex(ideal, t)).regularity()
            anchors_ok = anchors_ok and reg == d * t - 1
    simplex = by_check(reports, "first_power_complex_is_simplex")
    simplex_ok = all(not r.failed for r in simplex) and \
        sum(1 for r in simplex if not r.gated) == len(simplex)
    ok = anchors_ok and simplex_ok
    assert criterion(8, ok, f"single-edge anchors hold: {anchors_ok}, "
                            f"power-one complex is the simplex on all {len(simplex)} instances")


def test_criterion_9_verify_determinism():
    args = [sys.executable, "-m", "hyperbetti.cli", "verify", "--random", "50",
            "--seed", "7", "--n", "6", "--m", "3", "--d", "2"]
    # the subprocess imports the same package as this test, installed or not
    src = str(Path(hyperbetti.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path)
        proc = subprocess.run(args, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    identical = outputs[0] == outputs[1]
    summary = json.loads(outputs[0].decode().strip().splitlines()[-1])["summary"]
    ok = identical and summary["failed"] == 0
    assert criterion(9, ok, f"byte-identical: {identical}, failed checks: {summary['failed']}")
