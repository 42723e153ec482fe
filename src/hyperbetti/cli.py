"""Command-line front end: betti, matchings, complex, verify.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .betti import graded_betti, validate_characteristic
from .complexes import faridi_complex, lyubeznik_complex, taylor_complex
from .errors import (DEFAULT_MAX_FACES, DimensionError, DomainError, ResourceCapError,
                     ValidationError)
from .hypergraph import Hypergraph, edge_ideal
from .matchings import KINDS, families, invariants_of
from .monomials import power_generators
from .verify import CORPUS_MAX_FACES, builtin_corpus, random_entries, run_corpus


def _add_common(parser):
    parser.add_argument("-t", "--power", type=int, default=1,
                        help="power of the edge ideal (default 1)")
    parser.add_argument("--complex", dest="complex_kind",
                        choices=("taylor", "faridi", "lyubeznik"),
                        default="faridi", help="supporting complex (default faridi)")
    parser.add_argument("--max-faces", type=int, default=DEFAULT_MAX_FACES,
                        help=f"face budget for built complexes (default {DEFAULT_MAX_FACES})")


def _build_complex(args, ideal):
    if args.complex_kind == "faridi":
        return faridi_complex(ideal, args.power, max_faces=args.max_faces)
    build = taylor_complex if args.complex_kind == "taylor" else lyubeznik_complex
    return build(power_generators(ideal, args.power), max_faces=args.max_faces)


def _load(args):
    hypergraph = Hypergraph.load(args.file)
    if args.power < 1:
        raise DomainError(f"power must be >= 1, got {args.power}")
    return hypergraph


def _render_betti(table):
    degrees = sorted({j for (_, j) in table.entries})
    indices = range(max(i for (i, _) in table.entries) + 1)
    width = max(len(str(j)) for j in degrees) + 2
    width = max(width, 1 + max(len(str(b)) for b in table.entries.values()))
    head = "      " + "".join(f"{('j=' + str(j)):>{width + 2}}" for j in degrees)
    lines = [head]
    for i in indices:
        cells = "".join(f"{str(table.betti(i, j)) if table.betti(i, j) else '.':>{width + 2}}"
                        for j in degrees)
        lines.append(f"i={i:<4}" + cells)
    lines.append(f"regularity(R/I^t) = {table.regularity()}")
    return "\n".join(lines)


def cmd_betti(args):
    hypergraph = _load(args)
    validate_characteristic(args.char)
    ideal = edge_ideal(hypergraph)
    cx = _build_complex(args, ideal)
    table = graded_betti(cx, char=args.char, power=args.power)
    if args.json:
        print(json.dumps(table.to_json_dict(), sort_keys=True, separators=(",", ":")))
    else:
        print(f"graded Betti numbers of R/I^{args.power} "
              f"({args.complex_kind} complex, char {args.char})")
        print(_render_betti(table))
    return 0


def cmd_matchings(args):
    if args.list_kind is None and (args.size, args.union_size) != (None, None):
        raise DomainError("--size and --union-size need --list")
    if None not in (args.size, args.size_cap) and args.size > args.size_cap:
        raise DomainError(f"--size {args.size} is over --size-cap {args.size_cap}")
    hypergraph = Hypergraph.load(args.file)
    exhaustive = args.size_cap is None or args.size_cap >= hypergraph.num_edges
    listed = []

    def walk():
        # one walk: the invariants fold it and the listing filters it
        for idx, cls in families(hypergraph, size_cap=args.size_cap):
            if _family_selected(cls, args):
                listed.append((idx, cls))
            yield idx, cls

    report = invariants_of(walk(), exhaustive)
    if args.json:
        out = asdict(report)
        if args.list_kind:
            out["families"] = [{"edges": [k + 1 for k in idx], "type": list(cls.family_type)}
                               for idx, cls in listed]
        print(json.dumps(out, sort_keys=True, separators=(",", ":")))
        return 0
    for key, value in asdict(report).items():
        if key == "exhaustive":
            continue
        shown = "undefined" if value is None else value
        print(f"{key:<28} {shown}")
    if not report.exhaustive:
        print(f"(lower bounds only: enumeration capped at size {args.size_cap})")
    if args.list_kind:
        print(f"{args.list_kind} families (edges numbered from 1):")
        for idx, cls in listed:
            print(f"  {[k + 1 for k in idx]} type {cls.family_type}")
    return 0


def _family_selected(cls, args):
    i, j = cls.family_type
    return (args.list_kind is not None and cls.has_kind(args.list_kind)
            and args.size in (None, i) and args.union_size in (None, j))


def cmd_complex(args):
    hypergraph = _load(args)
    ideal = edge_ideal(hypergraph)
    cx = _build_complex(args, ideal)
    dump = {
        "complex": args.complex_kind,
        "t": args.power,
        "vertices": [{"tuple": list(b), "monomial": list(mono.exps),
                      "degree": mono.degree}
                     for b, mono in cx.vertices],
        "faces": {str(d): [{"vertices": list(f), "degree": cx.degree(f)} for f in faces]
                  for d, faces in cx.faces.items()},
    }
    print(json.dumps(dump, sort_keys=True, separators=(",", ":")))
    return 0


def cmd_verify(args):
    validate_characteristic(args.char)
    if args.random is None:
        if (args.n, args.m, args.d) != (None, None, None):
            raise DomainError("--n, --m and --d need --random")
        if args.seed is not None:
            raise DomainError("--seed needs --random")
        entries = builtin_corpus()
    elif None in (args.n, args.m, args.d) or args.corpus is not None:
        raise DomainError("--random needs --n, --m and --d, and excludes --corpus")
    else:
        seed = args.seed or 0
        entries = random_entries(args.n, args.d, args.m, range(seed, seed + args.random))
    reports, summary = run_corpus(entries, t_max=args.t_max, char=args.char,
                                  max_faces=args.max_faces)
    for report in reports:
        print(report.to_json())
    print(json.dumps({"summary": summary}, sort_keys=True, separators=(",", ":")))
    return 1 if summary["failed"] else 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperbetti",
        description="Exact graded Betti numbers and regularity of powers of "
                    "hypergraph edge ideals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_betti = sub.add_parser("betti", help="graded Betti table of R/I^t")
    p_betti.add_argument("file", help="hypergraph JSON file")
    _add_common(p_betti)
    p_betti.add_argument("--char", type=int, default=0,
                         help="field characteristic, 0 or a prime (default 0)")
    p_betti.add_argument("--json", action="store_true", help="machine-readable output")
    p_betti.set_defaults(func=cmd_betti)

    p_match = sub.add_parser("matchings", help="matching-type invariants")
    p_match.add_argument("file", help="hypergraph JSON file")
    p_match.add_argument("--size-cap", type=int, default=None,
                         help="cap on enumerated family size (default: all)")
    p_match.add_argument("--list", dest="list_kind", choices=KINDS, default=None,
                         help="also list families of this kind")
    p_match.add_argument("--size", type=int, default=None,
                         help="only list families of this size")
    p_match.add_argument("--union-size", type=int, default=None,
                         help="only list families with this union size")
    p_match.add_argument("--json", action="store_true", help="machine-readable output")
    p_match.set_defaults(func=cmd_matchings)

    p_cx = sub.add_parser("complex", help="dump the supporting complex as JSON")
    p_cx.add_argument("file", help="hypergraph JSON file")
    _add_common(p_cx)
    p_cx.set_defaults(func=cmd_complex)

    p_verify = sub.add_parser("verify", help="run the verification harness")
    p_verify.add_argument("--corpus", choices=("builtin",), default=None,
                          help="use the builtin corpus (default when --random absent)")
    p_verify.add_argument("--random", type=int, default=None, metavar="N",
                          help="check N seeded random hypergraphs instead")
    p_verify.add_argument("--n", type=int, default=None, help="vertex count for --random")
    p_verify.add_argument("--m", type=int, default=None, help="edge count for --random")
    p_verify.add_argument("--d", type=int, default=None, help="edge size for --random")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="base seed for --random (default 0)")
    p_verify.add_argument("--t-max", type=int, default=3,
                          help="largest power checked (default 3)")
    p_verify.add_argument("--char", type=int, default=0,
                          help="field characteristic, 0 or a prime (default 0)")
    p_verify.add_argument("--max-faces", type=int, default=CORPUS_MAX_FACES,
                          help=f"face budget per complex (default {CORPUS_MAX_FACES})")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("max_faces", "t_max", "random", "size_cap", "size", "union_size"):
            value = getattr(args, name, None)
            if value is not None and value < 1:
                raise DomainError(f"--{name.replace('_', '-')} must be >= 1, got {value}")
        return args.func(args)
    except ResourceCapError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return 3
    except (ValidationError, DomainError, DimensionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
