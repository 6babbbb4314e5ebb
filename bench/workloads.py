"""The three workloads, each a set-up step plus an endless stream of rounds
of operations, and the README smoke run of the `cli` layer.

Each operation calls luset's public functions in the order the matching
`luset` subcommand calls them (see `luset.cli`), through a tracer so that a
traced run can attribute time to layers. Every operation's result is
checked against a known answer built by `corpus` or recorded in
`golden.json`; a failing operation is counted, never dropped.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator

import corpus

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())

# Ticks per simulate run, chosen so that one run takes a few tenths of a second.
SIM_TICKS = {"spdmtr": 2500, "retrig": 2500, "chain32": 600}


def load_luset(src: Path) -> SimpleNamespace:
    """Import luset afresh from `src` and return the functions the workloads
    call. Earlier imports are dropped first, so that timing this call times
    the import itself."""
    for name in [m for m in sys.modules if m == "luset" or m.startswith("luset.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    luset = importlib.import_module("luset")
    if Path(luset.__file__).resolve().parent != (src / "luset").resolve():
        raise ImportError(f"luset was imported from {luset.__file__}, not from {src}")
    mods = {m: importlib.import_module(f"luset.{m}") for m in
            ("cli", "harness", "infer", "lang", "normalize", "parser", "sectypes", "streams")}
    return SimpleNamespace(**mods)


@dataclass
class Op:
    kind: str  # the command or check it stands for
    label: str  # program (and form) it runs on
    work: int  # work units credited when it completes
    run: Callable  # run(tracer) -> result
    check: Callable  # check(result) -> None, or the reason it is wrong
    latency: bool = True  # counts towards its round's latency


class Workload:
    """Inputs built by `prepare` and an endless stream of rounds of ops; a
    round is one request, whose latency the percentiles describe."""

    name = ""
    unit = ""  # what one unit of work is
    rate_name = ""  # the workload's name for work_per_s
    min_rounds = 2  # latency percentiles need two rounds at least

    def __init__(self, root: Path, seed: int, lu: SimpleNamespace, out_dir: Path):
        self.root, self.seed, self.lu, self.out_dir = root, seed, lu, out_dir

    def prepare(self, tr) -> str:
        """Build the inputs; return a digest of them."""
        raise NotImplementedError

    def rounds(self) -> Iterator[list[Op]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# analyse: signature, check --json (all-L and one secret input), normalize
# ---------------------------------------------------------------------------

def _sig_shape_error(line: str) -> str | None:
    """A node with one output whose signature is `γ⊔α1⊔…⊔αm ⊑ β`."""
    head, _, body = line.partition(" {| ")
    try:
        name_ins, clock_out = head.split(") ⇒")
        ins = [v for v in name_ins.split("(", 1)[1].split(", ") if v]
        clock, out = clock_out.split(" ")
    except ValueError:
        return f"unreadable signature {line!r}"
    if not body.endswith(" |}"):
        return f"unreadable signature {line!r}"
    constraints = body[:-3].split(", ")
    if len(constraints) != 1:
        return f"expected one constraint in {line!r}"
    lhs, _, rhs = constraints[0].partition(" ⊑ ")
    if rhs != out or sorted(lhs.split("⊔")) != sorted(ins + [clock]):
        return f"expected {clock}⊔{'⊔'.join(ins)} ⊑ {out} in {line!r}"
    return None


class Analyse(Workload):
    name = "analyse"
    unit = "eq"
    rate_name = "eqs_per_s"

    def prepare(self, tr) -> str:
        self.programs = corpus.analyse_corpus(self.seed)
        rng = random.Random(f"{self.seed}:analyse")
        h = hashlib.sha256()
        for p in self.programs:
            p.text = p.source()
            p.top_node = p.name if isinstance(p, corpus.Chain) else p.top
            p.equations = p.k if isinstance(p, corpus.Chain) else 3 * p.depth + 1
            low = {a: "L" for a in p.inputs}
            p.secret = rng.choice(p.inputs)
            p.assign_low = [{"node": p.top_node, "base": "L", "inputs": low,
                             "outputs": {"y": "L"}}]
            p.assign_high = [{"node": p.top_node, "base": "L",
                              "inputs": {**low, p.secret: "H"}, "outputs": {"y": "L"}}]
            h.update(p.text.encode())
            h.update(json.dumps([p.assign_low, p.assign_high]).encode())
        return h.hexdigest()

    def _front(self, tr, p):
        lu = self.lu
        prog = tr.call("parser.parse_program", lu.parser.parse_program, p.text,
                       filename=f"{p.name}.lus")
        eprog = tr.call("lang.elaborate", lu.lang.elaborate, prog)
        if tr.enabled:
            tr.count("parser.bytes", len(p.text.encode()))
            tr.count("lang.equations", sum(len(n.equations) for n in eprog.nodes))
        return eprog

    def _signature(self, tr, p):
        eprog = self._front(tr, p)
        results = tr.call("infer.infer_program", self.lu.infer.infer_program, eprog)
        if tr.enabled:
            tr.count("infer.constraints", sum(len(r.full_constraints) for r in results.values()))
            tr.count("infer.sig_constraints",
                     sum(len(r.signature.constraints) for r in results.values()))
        return "\n".join(r.signature.display() for r in results.values())

    def _check(self, tr, p, assignments):
        eprog = self._front(tr, p)
        lat = self.lu.sectypes.Lattice.load("two-point")
        report = tr.call("infer.check_program", self.lu.infer.check_program, eprog, lat,
                         assignments)
        return json.dumps(report.to_json(), indent=2)

    def _normalize(self, tr, p):
        eprog = self._front(tr, p)
        nprog, _ = tr.call("normalize.normalize_program", self.lu.normalize.normalize_program,
                           eprog)
        text = tr.call("parser.pretty_print", self.lu.parser.pretty_print, nprog)
        if tr.enabled:
            tr.count("normalize.eqs_in", p.equations)
            tr.count("normalize.eqs_out", sum(len(n.equations) for n in nprog.nodes))
        return nprog, text

    # -- known answers -------------------------------------------------------
    def _check_signature(self, p, text):
        lines = text.split("\n")
        nodes = 1 if isinstance(p, corpus.Chain) else p.depth + 1
        if len(lines) != nodes:
            return f"{len(lines)} signatures, expected {nodes}"
        for line in lines:
            err = _sig_shape_error(line)
            if err:
                return err
        return None

    def _check_low(self, p, text):
        report = json.loads(text)
        if report["verdict"] != "secure":
            return f"all-L assignment judged {report['verdict']}"
        [node] = report["nodes"]
        calls = node["calls"]
        if isinstance(p, corpus.Tree) and len(calls) != 2:
            return f"expected 2 checked calls, got {len(calls)}"
        if node["violated"] or any(c["verdict"] != "secure" for c in calls):
            return "violations under the all-L assignment"
        return None

    def _check_high(self, p, text):
        report = json.loads(text)
        if report["verdict"] != "insecure":
            return f"secret {p.secret} flowing to a public output judged {report['verdict']}"
        [node] = report["nodes"]
        if len(node["violated"]) != 1:
            return f"expected one violated constraint, got {node['violated']}"
        lhs = node["violated"][0].split(" ⊑ ")[0]
        if len(lhs.split("⊔")) != len(p.inputs) + 1:
            return f"violated constraint {node['violated'][0]} does not join clock and inputs"
        return None

    def _check_normalized(self, p, result):
        nprog, text = result
        bad = self.lu.lang.nlustre_violations(nprog)
        if bad:
            return f"normalised output breaks the core form: {bad[0]}"
        got = corpus.digest(corpus.mask_literals(text, p.lits))
        want = GOLDEN["normalize_digest"][p.name]
        return None if got == want else f"normalised text digest {got}, recorded {want}"

    def rounds(self):
        ops = []
        for p in self.programs:
            ops += [
                Op("signature", p.name, 0, lambda tr, p=p: self._signature(tr, p),
                   lambda r, p=p: self._check_signature(p, r)),
                Op("check-low", p.name, 0, lambda tr, p=p: self._check(tr, p, p.assign_low),
                   lambda r, p=p: self._check_low(p, r)),
                Op("check-high", p.name, 0, lambda tr, p=p: self._check(tr, p, p.assign_high),
                   lambda r, p=p: self._check_high(p, r)),
                Op("normalize", p.name, p.equations, lambda tr, p=p: self._normalize(tr, p),
                   lambda r, p=p: self._check_normalized(p, r)),
            ]
        while True:
            yield ops


# ---------------------------------------------------------------------------
# simulate: read_trace + run_node over long traces, source and normalised
# ---------------------------------------------------------------------------

def _same(xs: list, ys: list) -> bool:
    return len(xs) == len(ys) and all(type(a) is type(b) and a == b for a, b in zip(xs, ys))


class Simulate(Workload):
    name = "simulate"
    unit = "tick"
    rate_name = "ticks_per_s"

    def prepare(self, tr) -> str:
        lu = self.lu
        rng = random.Random(f"{self.seed}:simulate")
        chain = corpus.Chain(32, self.seed)
        samples = self.root / "samples"
        sources = {"spdmtr": ("ctr.lus", (samples / "ctr.lus").read_text(), "SpdMtr"),
                   "retrig": ("retrig.lus", (samples / "retrig.lus").read_text(), "re_trig"),
                   "chain32": ("chain32.lus", chain.source(), chain.name)}
        inputs = {"spdmtr": corpus.spdmtr_inputs(rng, SIM_TICKS["spdmtr"]),
                  "retrig": corpus.retrig_inputs(rng, SIM_TICKS["retrig"]),
                  "chain32": corpus.chain_inputs(rng, chain, SIM_TICKS["chain32"])}
        spd, pos = corpus.spdmtr_reference(inputs["spdmtr"]["acc"])
        expected = {"spdmtr": {"spd": spd, "pos": pos},
                    "retrig": {"o": corpus.retrig_reference(inputs["retrig"]["i"],
                                                            inputs["retrig"]["n"])},
                    "chain32": {"y": chain.reference(inputs["chain32"],
                                                     SIM_TICKS["chain32"])}}
        h = hashlib.sha256()
        self.runs = []
        for key, (fname, text, node) in sources.items():
            prog = tr.call("parser.parse_program", lu.parser.parse_program, text,
                           filename=fname)
            eprog = tr.call("lang.elaborate", lu.lang.elaborate, prog)
            nprog, _ = tr.call("normalize.normalize_program",
                               lu.normalize.normalize_program, eprog)
            if tr.enabled:
                tr.count("parser.bytes", len(text.encode()))
                tr.count("lang.equations", sum(len(n.equations) for n in eprog.nodes))
                tr.count("normalize.eqs_in", sum(len(n.equations) for n in eprog.nodes))
                tr.count("normalize.eqs_out", sum(len(n.equations) for n in nprog.nodes))
            csv = corpus.csv_text(inputs[key])
            path = self.out_dir / f"{key}.csv"
            path.write_text(csv)
            h.update(text.encode())
            h.update(csv.encode())
            for form, p in (("src", eprog), ("norm", nprog)):
                self.runs.append((f"{key}.{form}", p, node, path, SIM_TICKS[key],
                                  expected[key]))
        return h.hexdigest()

    def _run(self, tr, prog, node, path, ticks):
        lu = self.lu
        streams, _ = tr.call("streams.read_trace", lu.streams.read_trace, path)
        history, _ = tr.call("streams.run_node", lu.streams.run_node, prog, node, streams,
                             ticks)
        if tr.enabled:
            tr.count("streams.ticks", ticks)
        return history

    @staticmethod
    def _check_run(history, expected):
        for x, want in expected.items():
            if not _same(history[x], want):
                t = next((t for t, (a, b) in enumerate(zip(history[x], want)) if a != b),
                         min(len(history[x]), len(want)))
                return f"{x} differs from the reference at tick {t}"
        return None

    def rounds(self):
        ops = [Op("run", label, ticks,
                  lambda tr, a=(prog, node, path, ticks): self._run(tr, *a),
                  lambda r, e=expected: self._check_run(r, e))
               for label, prog, node, path, ticks, expected in self.runs]
        while True:
            yield ops


# ---------------------------------------------------------------------------
# proptest: the `luset suite` check mix over generated programs
# ---------------------------------------------------------------------------

SUITE = {"programs": 10, "samples": 300, "trials": 25, "ticks": 24}  # cmd_suite defaults
# The programs (and their assignments) are those of `luset suite --seed 0`;
# the workload seed seeds the checks. Program cost varies widely, so a
# population drawn afresh for every seed would move the figures by more
# than a regression bound.
PROGRAM_SEED = 0
NI_DEFAULTS = {"trials": 100, "ticks": 64}  # cmd_ni defaults
PASSING = ("pass", "vacuously-skipped")


class Proptest(Workload):
    name = "proptest"
    unit = "prog"
    rate_name = "programs_per_s"
    min_rounds = 100  # programs, so that p90 has ten samples above it

    def prepare(self, tr) -> str:
        samples = self.root / "samples"
        self.leak_text = (samples / "leak.lus").read_text()
        self.leak_assign = json.loads((samples / "leak_assign.json").read_text())
        return hashlib.sha256((self.leak_text + json.dumps(self.leak_assign)).encode()).hexdigest()

    def _count(self, tr, reports):
        if tr.enabled:
            for r in reports:
                tr.count(f"harness.trials.{r.check}", r.trials)
                tr.count(f"harness.verdicts.{r.verdict}")

    def _fixed(self, tr, fn, name, **kw):
        report = tr.call(name, fn, seed=self.seed, **kw)
        self._count(tr, [report])
        return [report]

    def _leak_ni(self, tr, node):
        """`luset ni samples/leak.lus --node <node> --level L --force`."""
        lu = self.lu
        prog = tr.call("parser.parse_program", lu.parser.parse_program, self.leak_text,
                       filename="leak.lus")
        entry = next(e for e in self.leak_assign if e["node"] == node)
        assignment = {"base": entry["base"], **entry["inputs"], **entry["outputs"]}
        cfg = lu.harness.NIConfig(node, lu.sectypes.Lattice.two_point(), assignment, "L",
                                  seed=self.seed, force=True, **NI_DEFAULTS)
        report = tr.call("harness.check_non_interference", lu.harness.check_non_interference,
                         prog, cfg)
        if tr.enabled:
            tr.count("parser.bytes", len(self.leak_text.encode()))
        self._count(tr, [report])
        return [report]

    def _program(self, tr, rng, lat, i):
        """One generated program through `cmd_suite`'s per-program checks."""
        h, lang, infer = self.lu.harness, self.lu.lang, self.lu.infer
        seed = self.seed + i
        prog = tr.call("harness.gen_program", h.gen_program, rng)
        eprog = tr.call("lang.elaborate", lang.elaborate, prog)
        results = tr.call("infer.infer_program", infer.infer_program, eprog)
        reports = []
        for node in eprog.nodes:
            reports.append(tr.call("harness.check_semantics_preservation",
                                   h.check_semantics_preservation, prog, node.name, trials=5,
                                   ticks=SUITE["ticks"], seed=seed))
        reports.append(tr.call("harness.check_type_preservation", h.check_type_preservation,
                               prog, seed=seed, lattice_samples=2, instantiation_samples=5))
        node = eprog.nodes[-1]
        assignment = tr.call("harness.sample_satisfying_assignment",
                             h.sample_satisfying_assignment, rng, results[node.name], lat)
        for level in lat.elements:
            cfg = h.NIConfig(node.name, lat, assignment, level, trials=SUITE["trials"],
                             ticks=SUITE["ticks"], seed=seed)
            reports.append(tr.call("harness.check_non_interference",
                                   h.check_non_interference, eprog, cfg))
        if tr.enabled:
            tr.count("lang.equations", sum(len(n.equations) for n in eprog.nodes))
            tr.count("infer.constraints", sum(len(r.full_constraints) for r in results.values()))
            tr.count("infer.sig_constraints",
                     sum(len(r.signature.constraints) for r in results.values()))
        self._count(tr, reports)
        return reports

    @staticmethod
    def _verdicts(reports, want):
        bad = [f"{r.check} {r.node or ''}: {r.verdict}" for r in reports if r.verdict not in want]
        return "; ".join(bad) or None

    def rounds(self):
        h = self.lu.harness
        rng = random.Random(PROGRAM_SEED)
        lat = self.lu.sectypes.Lattice.two_point()
        passing = lambda r: self._verdicts(r, PASSING)  # noqa: E731
        failing = lambda r: self._verdicts(r, ("fail",))  # noqa: E731
        fixed = [
            Op("generator-postcondition", "-", 0,
               lambda tr: self._fixed(tr, h.generator_postcondition,
                                      "harness.generator_postcondition",
                                      samples=SUITE["programs"]), passing, latency=False),
            Op("equational-soundness", "-", 0,
               lambda tr: self._fixed(tr, h.check_equational_soundness,
                                      "harness.check_equational_soundness",
                                      samples=SUITE["samples"]), passing, latency=False),
            Op("simple-security", "-", 0,
               lambda tr: self._fixed(tr, h.check_simple_security,
                                      "harness.check_simple_security",
                                      samples=SUITE["samples"]), passing, latency=False),
            Op("ni-forced", "Leak", 0, lambda tr: self._leak_ni(tr, "Leak"), failing,
               latency=False),
            Op("ni-forced", "Leak2", 0, lambda tr: self._leak_ni(tr, "Leak2"), failing,
               latency=False),
        ]
        i = 0
        while True:
            op = Op("program", f"p{i}", 1, lambda tr, i=i: self._program(tr, rng, lat, i),
                    passing)
            yield (fixed + [op]) if i == 0 else [op]
            i += 1


WORKLOADS = {w.name: w for w in (Analyse, Simulate, Proptest)}


# ---------------------------------------------------------------------------
# README smoke run of the cli layer
# ---------------------------------------------------------------------------

README_EXIT = {"signature": 0, "run": 0, "check": 1}  # check: Leak is insecure


def readme_examples(readme: str) -> list[tuple[list[str], list[str]]]:
    """(argv, expected stdout lines) for each `luset …` line of a sh block
    that the README follows with `# ` output lines."""
    out, in_sh = [], False
    for line in readme.splitlines():
        if line.startswith("```"):
            in_sh = line.strip() == "```sh"
        elif in_sh and line.startswith("luset "):
            out.append((shlex.split(line)[1:], []))
        elif in_sh and line.startswith("# ") and out:
            out[-1][1].append(line[2:])
    return [ex for ex in out if ex[1]]


def readme_smoke(root: Path, lu: SimpleNamespace, tr) -> tuple[int, list[str]]:
    """Run the README's examples through `luset.cli.main`; return the
    number attempted and the reasons of those that failed."""
    examples = readme_examples((root / "README.md").read_text())
    failures = []
    if sorted(argv[0] for argv, _ in examples) != sorted(README_EXIT):
        failures.append(f"README examples are {[a[0] for a, _ in examples]}")
    for argv, want in examples:
        argv = [str(root / a) if (root / a).is_file() else a for a in argv]
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = tr.call("cli.main", lu.cli.main, argv)
        except Exception as exc:  # a crash is a failed op, not a crashed benchmark
            failures.append(f"luset {argv[0]} raised {exc!r}")
            continue
        got = buf.getvalue().splitlines()[:len(want)]
        if got != want or code != README_EXIT.get(argv[0]):
            failures.append(f"luset {argv[0]}: exit {code}, stdout {got} != README {want}")
    return max(len(examples), len(README_EXIT)), failures
