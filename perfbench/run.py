"""hyperbetti benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up (a fresh import of hyperbetti from this checkout's src/, input
generation and reference loading) runs several times, before and after
the timed phase, and reports its median as setup_s.  The timed phase then
runs every operation in turn, each one starting when the previous one
returned.  Outputs are checked against the references in data/ after
timing.

--trace 0 reports the end-to-end metrics.  Their times are reference
times: each measured interval is scaled by the host speed that the
calibration kernel (calibrate.py) measured around it, so that a shared
host slowing down does not read as hyperbetti slowing down.  The raw
times are printed beside them.  --trace 1 runs each operation untraced
and then traced (see tracer.py), both without calibration, and reports
the per-layer metrics; trace.overhead_s is the difference of the two
wall times.  The last line of stdout is a JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import workloads as wl
from calibrate import REFERENCE_S, Speedometer
from tracer import CHECKS, Tracer

SRC = Path(__file__).resolve().parents[1] / "src"
SETUP_REPEATS = 8

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("op_p50_ref_ms", "ms"),
    ("op_p90_ref_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("betti.rank.self_s", "s"),
    ("betti.rank.calls", "count"),
    ("betti.rank.max_cells", "count"),
    ("betti.rank.nonempty_ratio", "ratio"),
    ("betti.boundary.self_s", "s"),
    ("betti.boundary.cells", "count"),
    ("betti.boundary.nonzeros", "count"),
    ("betti.boundary.label_blocks", "count"),
    ("betti.graded_betti.self_s", "s"),
    ("betti.survivor.self_s", "s"),
    ("complexes.faridi.self_s", "s"),
    ("complexes.taylor.self_s", "s"),
    ("complexes.faces", "count"),
    ("complexes.max_faces", "count"),
    ("complexes.cap_hits", "count"),
    ("monomials.power_generators.self_s", "s"),
    ("monomials.generators", "count"),
    ("matchings.self_s", "s"),
    ("matchings.families_enumerated", "count"),
    ("verify.checks.self_s", "s"),
    *((f"verify.{name}.self_s", "s") for name in CHECKS),
    ("verify.cache.table_hit_ratio", "ratio"),
    ("verify.reports", "count"),
    ("verify.gated.cap", "count"),
    ("verify.gated.hypothesis", "count"),
    ("verify.failed", "count"),
    ("bench.op.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def import_library():
    """A fresh import of hyperbetti, from this checkout's src/ and nowhere else."""
    for name in [n for n in sys.modules if n == "hyperbetti" or n.startswith("hyperbetti.")]:
        del sys.modules[name]
    hb = importlib.import_module("hyperbetti")
    if Path(hb.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"hyperbetti imported from {hb.__file__}, not from {SRC}")
    return hb


def setup(workload, seed, seconds, speed=None):
    """The imported package, the inputs, and the reference seconds of each repeat."""
    times = []
    for _ in range(SETUP_REPEATS if speed else 1):
        begin = speed.clock() if speed else None
        hb = import_library()
        items = workload.setup(hb, seed, seconds)
        if speed:
            times.append(speed.reference(begin, speed.clock())[1])
    return hb, items, times


def timed_pass(workload, hb, items, span, speed=None):
    """Run every operation in turn.

    Returns the outputs and, for each operation, its (own, reference)
    seconds; without a speedometer both are the measured seconds.
    """
    outputs, times = [], []
    for item in items:
        begin = speed.clock() if speed else time.perf_counter()
        try:
            with span("bench.op"):
                out = workload.run(hb, item)
        except Exception as exc:  # counted as a failed operation by check_outputs
            out = exc
        if speed:
            times.append(speed.reference(begin, speed.clock()))
        else:
            took = time.perf_counter() - begin
            times.append((took, took))
        outputs.append(out)
    return outputs, times


def check_outputs(workload, hb, items, outputs):
    """{operation index: problem} for every wrong output or exception."""
    problems = {}
    for k, (item, out) in enumerate(zip(items, outputs)):
        if isinstance(out, Exception):
            problems[k] = f"unexpected {type(out).__name__}: {out}"
        else:
            problem = workload.check(hb, item, out)
            if problem:
                problems[k] = problem
    return problems


def no_span(name):
    return nullcontext()


def layer_metrics(tracer, reports, traced_wall, untraced_wall):
    self_s = tracer.self_times()
    c, mx = tracer.counts, tracer.maxima
    values = {f"{name}.self_s": self_s.get(name, 0.0) for name in (
        "betti.rank", "betti.boundary", "betti.graded_betti", "betti.survivor",
        "complexes.faridi", "complexes.taylor",
        "monomials.power_generators", "matchings", "bench.op")}
    checks = {f"verify.{name}.self_s": self_s.get(f"verify.{name}", 0.0) for name in CHECKS}
    values.update(checks)
    values["verify.checks.self_s"] = sum(checks.values())
    for name in ("betti.rank.calls", "betti.boundary.cells", "betti.boundary.nonzeros",
                 "betti.boundary.label_blocks", "complexes.faces", "complexes.cap_hits",
                 "monomials.generators", "matchings.families_enumerated"):
        values[name] = c[name]
    for name in ("betti.rank.max_cells", "complexes.max_faces"):
        values[name] = mx[name]
    values["betti.rank.nonempty_ratio"] = c["betti.rank.nonempty"] / max(1, c["betti.rank.calls"])
    values["verify.cache.table_hit_ratio"] = (
        c["verify.cache.table_hits"] / max(1, c["verify.cache.table_for_calls"]))
    cap_gated = sum(1 for r in reports if r.gated
                    and r.witness.get("reason", "").startswith("resource cap:"))
    values["verify.reports"] = len(reports)
    values["verify.gated.cap"] = cap_gated
    values["verify.gated.hypothesis"] = sum(1 for r in reports if r.gated) - cap_gated
    values["verify.failed"] = sum(1 for r in reports if r.failed)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values


def end_to_end(workload, args):
    """Set-up and timed phase under the speedometer; (items, problems, values, note)."""
    speed = Speedometer()
    speed.start()
    try:
        hb, items, setup_times = setup(workload, args.seed, args.seconds, speed)
        outputs, times = timed_pass(workload, hb, items, no_span, speed)
        # Repeating set-up after the timed phase spreads its samples over the
        # run, so one slow moment of a shared machine does not decide setup_s.
        setup_times += setup(workload, args.seed, args.seconds, speed)[2]
    finally:
        speed.stop()
    problems = check_outputs(workload, hb, items, outputs)
    own = [t for t, _ in times]
    ref = [r for _, r in times]
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_ref_s": sum(ref),
        "op_p50_ref_ms": 1000 * statistics.median(ref),
        "op_p90_ref_ms": 1000 * statistics.quantiles(ref, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    kernel = speed.kernel_median()
    note = (f"# raw: wall_s={sum(own):.6g} op_p50_ms={1000 * statistics.median(own):.6g} "
            f"op_p90_ms={1000 * statistics.quantiles(own, n=10)[-1]:.6g}; "
            f"kernel median {1000 * kernel:.4g} ms over {len(speed.took)} samples, "
            f"host at {REFERENCE_S / kernel:.3g}x reference speed\n")
    return items, problems, values, note


def per_layer(workload, args):
    """Each operation untraced and then traced, without the speedometer.

    Running the two side by side, operation by operation, lets both walls
    see the same host speed, so their difference, trace.overhead_s, is the
    tracer's cost and not the host's drift.  Returns (items, problems,
    values, note).
    """
    hb, items, _ = setup(workload, args.seed, args.seconds)
    tracer = Tracer()
    plain_outputs, traced_outputs, untraced, traced = [], [], 0.0, 0.0
    for item in items:
        out, times = timed_pass(workload, hb, [item], no_span)
        plain_outputs += out
        untraced += times[0][0]
        tracer.install(hb)
        try:
            out, times = timed_pass(workload, hb, [item], tracer.span)
        finally:
            tracer.uninstall()
        traced_outputs += out
        traced += times[0][0]
    problems = check_outputs(workload, hb, items, plain_outputs)
    problems.update(check_outputs(workload, hb, items, traced_outputs))
    reports = ([r for out in traced_outputs if isinstance(out, list) for r in out]
               if isinstance(workload, wl.CorpusVerify) else [])
    values = layer_metrics(tracer, reports, traced, untraced)
    return items, problems, values, ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = wl.WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    wanted = PER_LAYER if args.trace else END_TO_END
    try:
        items, problems, values, note = (per_layer if args.trace else end_to_end)(workload, args)
    except ImportError as exc:
        print(f"cannot import hyperbetti from {SRC}: {exc}", file=sys.stderr)
        return 2

    failed = len(problems)
    for k in sorted(problems)[:20]:
        print(f"FAILED {problems[k]}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
          f"closed loop, 1 caller, ops={len(items)}\n{note}", end="")
    for name, unit in wanted:
        print(f"{name:<40} {values[name]:>14.6g} {unit}")
    print(f"{'error_rate':<40} {failed / len(items):>14.6g} ratio ({failed}/{len(items)} failed)")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(items),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
