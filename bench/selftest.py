"""Self-tests of the benchmark itself: determinism of its inputs, the
hand-written references, span self times, and agreement of the printed
metric names with BENCHMARK.json.

    python3 bench/selftest.py
"""

from __future__ import annotations

import csv
import json
import random
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _sim_traces(seed: int) -> list[str]:
    rng = random.Random(f"{seed}:simulate")
    chain = corpus.Chain(32, seed)
    return [corpus.csv_text(corpus.spdmtr_inputs(rng, 50)),
            corpus.csv_text(corpus.retrig_inputs(rng, 50)),
            corpus.csv_text(corpus.chain_inputs(rng, chain, 50))]


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for seed in (0, 5):
            first = [p.source() for p in corpus.analyse_corpus(seed)]
            again = [p.source() for p in corpus.analyse_corpus(seed)]
            self.assertEqual(first, again)
            self.assertEqual(corpus.digest("".join(first)), corpus.digest("".join(again)))
            self.assertEqual(_sim_traces(seed), _sim_traces(seed))

    def test_seed_changes_literals_only(self):
        a, b = corpus.analyse_corpus(1), corpus.analyse_corpus(2)
        self.assertNotEqual([p.source() for p in a], [p.source() for p in b])
        for p, q in zip(a, b):
            self.assertEqual(corpus.mask_literals(p.source(), p.lits),
                             corpus.mask_literals(q.source(), q.lits))
            self.assertEqual(len(set(p.lits)), len(p.lits))


class References(unittest.TestCase):
    def test_ctr_table(self):
        with open(ROOT / "samples" / "ctr_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        n = corpus.ctr_reference([int(r["init"]) for r in rows], [int(r["incr"]) for r in rows],
                                 [r["rst"] == "true" for r in rows])
        self.assertEqual(",".join(["n"] + [str(v) for v in n]), "n,1,3,5,8,0,1,4")

    def test_spdmtr_is_two_counters(self):
        acc = [1, 2, 3, -4, 5, 6, 7]
        spd, pos = corpus.spdmtr_reference(acc)
        self.assertEqual(spd, [0, 2, 5, 1, 6, 12, 19])
        self.assertEqual(pos, [3, 5, 10, 11, 17, 29, 48])
        big = corpus.spdmtr_reference([1 << 62] * 4)[0]
        self.assertEqual(big, [0, 1 << 62, -(1 << 63), -(1 << 62)])

    def test_references_match_the_interpreter(self):
        """The references model the programs they stand for (checked on
        short traces; the benchmark compares its long runs with them)."""
        lu = workloads.load_luset(ROOT / "src")
        rng = random.Random(3)
        chain = corpus.Chain(16, 3)
        cases = [
            ((ROOT / "samples" / "ctr.lus").read_text(), "SpdMtr",
             corpus.spdmtr_inputs(rng, 300), lambda ins: dict(zip(
                 ("spd", "pos"), corpus.spdmtr_reference(ins["acc"])))),
            ((ROOT / "samples" / "retrig.lus").read_text(), "re_trig",
             corpus.retrig_inputs(rng, 300),
             lambda ins: {"o": corpus.retrig_reference(ins["i"], ins["n"])}),
            (chain.source(), chain.name, corpus.chain_inputs(rng, chain, 300),
             lambda ins: {"y": chain.reference(ins, 300)}),
        ]
        for text, node, ins, ref in cases:
            prog = lu.lang.elaborate(lu.parser.parse_program(text))
            history, _ = lu.streams.run_node(prog, node, ins, 300)
            for x, want in ref(ins).items():
                self.assertEqual(history[x], want, f"{node}.{x}")


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_covered_children(self):
        tr = tracing.Tracer()
        tr.spans = [tracing.Span("op", 0.0, 10.0, None, 0),
                    tracing.Span("a", 1.0, 4.0, 0, 0),
                    tracing.Span("b", 3.0, 6.0, 0, 0),
                    tracing.Span("c", 8.0, 12.0, 0, 0)]
        st = tr.self_times()
        self.assertAlmostEqual(st["op"], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(st["a"], 3.0)


class MetricNames(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_declared_names(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))

    def test_printed_names(self):
        for trace, spec in (("0", "end_to_end"), ("1", "per_layer")):
            proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                                   "simulate", "--seed", "4", "--seconds", "0", "--trace", trace],
                                  capture_output=True, text=True, check=True, cwd=ROOT)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertTrue(result["correct"])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                             {m["name"]: m["unit"] for m in self.spec[spec]})


if __name__ == "__main__":
    unittest.main()
