"""Command-line entry point.

Subcommands: check | signature | normalize | run | ni | preserve | suite.
Exit code 0 means success / secure / pass, 1 means insecure / fail, and 2 is
reserved for usage, parse and file errors and for an inconclusive check.
`--json` switches the report to a machine-readable form on stdout.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .diagnostics import InferError, LusetError, read_json, read_text
from .harness import (FAIL, INCONCLUSIVE, PASS, NIConfig, check_equational_soundness,
                      check_non_interference, check_semantics_preservation,
                      check_simple_security, check_type_preservation, gen_program,
                      generator_postcondition, sample_satisfying_assignment)
from .infer import (check_assignment_sections, check_program, display_constraint,
                    flatten_assignment, infer_program)
from .lang import elaborate
from .normalize import normalize_program
from .parser import parse_program, pretty_print
from .sectypes import Lattice
from .streams import read_trace, run_node, show_value


def _load_program(path: str):
    return parse_program(read_text(path), filename=path)


def _load_assignments(path: str) -> list[dict]:
    data = read_json(path)
    return data if isinstance(data, list) else [data]


def _checks_exit_code(reports) -> int:
    """1 if any check failed; else 2 if any is inconclusive; else 0."""
    verdicts = {r.verdict for r in reports}
    return 1 if FAIL in verdicts else 2 if INCONCLUSIVE in verdicts else 0


def cmd_check(args) -> int:
    prog = elaborate(_load_program(args.program))
    lat = Lattice.load(args.lattice)
    report = check_program(prog, lat, _load_assignments(args.assign))
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        for nr in report.nodes:
            verdict = "Secure" if nr.secure else "Insecure"
            print(f"{nr.node}: {verdict}")
            for c in nr.violated:
                print(f"  violated: {display_constraint(c)}")
            for call in nr.calls:
                status = "secure" if call.secure else "insecure"
                print(f"  call to {call.callee} (eq {call.eq_index}): {status}")
            if nr.solved:
                print(f"  solved by least solution: {', '.join(nr.solved)}")
    return 0 if report.secure else 1


def cmd_signature(args) -> int:
    prog = elaborate(_load_program(args.program))
    results = infer_program(prog)
    names = [args.node] if args.node else list(results)
    out = {}
    for name in names:
        if name not in results:
            raise LusetError(f"no node named {name}")
        sig = results[name].signature
        out[name] = sig.display(ascii_=args.ascii)
        if not args.json:
            print(out[name])
    if args.json:
        print(json.dumps({"signatures": out}, ensure_ascii=False, indent=2))
    return 0


def cmd_normalize(args) -> int:
    if args.emit not in (None, "nlustre"):
        raise LusetError(f"unknown --emit target {args.emit!r}")
    prog = elaborate(_load_program(args.program))
    nprog, _ = normalize_program(prog)
    sys.stdout.write(pretty_print(nprog))
    return 0


def cmd_run(args) -> int:
    prog = elaborate(_load_program(args.program))
    node = prog.node(args.node) if prog.has_node(args.node) else None
    if node is None:
        raise LusetError(f"no node named {args.node}")
    streams, bs = read_trace(args.inputs)
    declared = {d.name for d in node.inputs}
    streams = {x: vs for x, vs in streams.items() if x in declared}
    lengths = {len(vs) for vs in streams.values()}
    if bs is not None:
        lengths.add(len(bs))
    ticks = args.ticks if args.ticks is not None else min(lengths or {0})
    if bs is not None:
        ticks = min(ticks, len(bs))
    history, _ = run_node(prog, args.node, streams, ticks, bs=bs)
    rows = {d.name: history[d.name] for d in node.outputs}
    if args.locals:
        rows.update({d.name: history[d.name] for d in node.locals})
    if args.json:
        print(json.dumps({"node": args.node, "ticks": ticks,
                          "streams": {x: [show_value(v) for v in vs]
                                      for x, vs in rows.items()}}, indent=2))
    else:
        for x, vs in rows.items():
            print(",".join([x] + [show_value(v) for v in vs]))
    return 0


def cmd_ni(args) -> int:
    prog = _load_program(args.program)
    if not prog.has_node(args.node):
        raise LusetError(f"no node named {args.node}")
    lat = Lattice.load(args.lattice)
    raw = _load_assignments(args.assign)
    entries = [flatten_assignment(e) for e in raw]
    if not entries:
        raise LusetError(f"{args.assign}: no assignment entries")
    i = next((i for i, (name, _) in enumerate(entries) if name == args.node), None)
    if i is None:
        raise InferError("unknown-node", f"assignment has no entry for node {args.node}")
    check_assignment_sections(raw[i], prog.node(args.node))
    assignment = entries[i][1]
    if args.level:
        lat.leq(args.level, args.level)  # an unknown level is a LatticeError: exit 2
    levels = [args.level] if args.level else list(lat.elements)
    reports = []
    for level in levels:
        cfg = NIConfig(args.node, lat, assignment, level, trials=args.trials,
                       ticks=args.ticks, seed=args.seed, force=args.force)
        reports.append(check_non_interference(prog, cfg))
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for r in reports:
            print(f"{r.check} {args.node} at level {r.details['level']}: {r.verdict}"
                  f" ({r.trials} trials, seed {r.seed})")
            if r.counterexample:
                c = r.counterexample
                print(f"  witness: {c['variable']} differs at tick {c['tick']}")
                print(f"  run1: {' '.join(c['run1'])}")
                print(f"  run2: {' '.join(c['run2'])}")
            if r.reason:
                print(f"  reason: {r.reason}")
    return _checks_exit_code(reports)


def cmd_preserve(args) -> int:
    prog = _load_program(args.program)
    if args.node and not prog.has_node(args.node):
        raise LusetError(f"no node named {args.node}")
    names = [args.node] if args.node else [n.name for n in prog.nodes]
    reports = []
    for name in names:
        reports.append(check_semantics_preservation(prog, name, trials=args.trials,
                                                    ticks=args.ticks, seed=args.seed))
    reports.append(check_type_preservation(prog, args.node))
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for r in reports:
            who = f" {r.node}" if r.node else ""
            seed = "" if r.seed is None else f", seed {r.seed}"
            print(f"{r.check}{who}: {r.verdict} ({r.trials} trials{seed})")
            if r.reason:
                print(f"  reason: {r.reason}")
    return _checks_exit_code(reports)


def cmd_suite(args) -> int:
    reports = [
        generator_postcondition(samples=args.programs, seed=args.seed),
        check_equational_soundness(samples=args.samples, seed=args.seed),
        check_simple_security(samples=args.samples, seed=args.seed),
    ]
    rng = random.Random(args.seed)
    lat = Lattice.two_point()
    for i in range(args.programs):
        prog = gen_program(rng)
        eprog = elaborate(prog)
        results = infer_program(eprog)
        for node in eprog.nodes:
            reports.append(check_semantics_preservation(prog, node.name, trials=5,
                                                        ticks=args.ticks, seed=args.seed + i))
        reports.append(check_type_preservation(prog))
        node = eprog.nodes[-1]
        assignment = sample_satisfying_assignment(rng, results[node.name], lat)
        for level in lat.elements:
            cfg = NIConfig(node.name, lat, assignment, level, trials=args.trials,
                           ticks=args.ticks, seed=args.seed + i)
            reports.append(check_non_interference(eprog, cfg))
    code = _checks_exit_code(reports)
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for r in reports:
            who = f" {r.node}" if r.node else ""
            print(f"{r.check}{who}: {r.verdict} ({r.trials} trials)")
        print(f"suite: {(PASS, FAIL, INCONCLUSIVE)[code]} ({len(reports)} checks)")
    return code


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="luset",
                                 description="Security-typed Lustre analyzer and interpreter")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("program", help="path to a .lus program")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="check node security against a lattice")
    add_common(p)
    p.add_argument("--lattice", required=True, help="two-point | powerset:<n> | path to JSON")
    p.add_argument("--assign", required=True, help="path to an assignment JSON file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("signature", help="print inferred security signatures")
    add_common(p)
    p.add_argument("--node", help="restrict to one node")
    p.add_argument("--ascii", action="store_true", help="ASCII rendering (lub, <=)")
    p.set_defaults(fn=cmd_signature)

    p = sub.add_parser("normalize", help="print the normalised program")
    add_common(p)
    p.add_argument("--emit", default="nlustre", help="output form (only: nlustre)")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("run", help="execute a node over a CSV input trace")
    add_common(p)
    p.add_argument("--node", required=True)
    p.add_argument("--inputs", required=True, help="CSV trace (header row, `_` = absent)")
    p.add_argument("--ticks", type=_positive_int, default=None)
    p.add_argument("--locals", action="store_true", help="also print local streams")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("ni", help="non-interference trials for one node")
    add_common(p)
    p.add_argument("--node", required=True)
    p.add_argument("--lattice", required=True)
    p.add_argument("--assign", required=True)
    p.add_argument("--level", help="observation level (default: every lattice element)")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--ticks", type=_positive_int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true",
                   help="run even when the assignment violates the constraints")
    p.set_defaults(fn=cmd_ni)

    p = sub.add_parser("preserve", help="semantics/type preservation under normalisation")
    add_common(p)
    p.add_argument("--node")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--ticks", type=_positive_int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_preserve)

    p = sub.add_parser("suite", help="randomized property suite over generated programs")
    p.add_argument("--json", action="store_true")
    p.add_argument("--programs", type=_positive_int, default=10)
    p.add_argument("--samples", type=_positive_int, default=300)
    p.add_argument("--trials", type=_positive_int, default=25)
    p.add_argument("--ticks", type=_positive_int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_suite)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except LusetError as exc:  # every refusal, raised where its input is read
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
