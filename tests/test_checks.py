"""What the harness checks rely on when they set a check up once per call:
runs are deterministic, drawn inputs run on an always-live base clock, and
non-interference runs the node once per trial when both runs must share
every input. Also pins the `luset ni --json` reports of the samples, on the
compiled code and with the normal form on the tree interpreter."""

import json
import random
from pathlib import Path

import pytest

from luset import codegen, harness
from luset.cli import main
from luset.diagnostics import EvalError
from luset.harness import NIConfig, check_non_interference, gen_inputs, gen_program
from luset.infer import flatten_assignment
from luset.lang import ClockOn, elaborate
from luset.parser import parse_program
from luset.sectypes import Lattice
from luset.streams import ABSENT, check_inputs, run_node

from conftest import CTR_SRC, interpreted_normal_form
from interpreter import NodeInstance, interpret_node

ROOT = Path(__file__).parent.parent
SAMPLES = ROOT / "samples"
TWO = Lattice.two_point()

# (golden, arguments of `luset ni`, exit code): failing forced checks whose
# witness is found at trial 1, Ctr's through its secret increment, a passing
# one whose every input is public, so that each trial runs the node once,
# and that one at its top level alone, decided without a run
NI_RUNS = [
    ("ni_Leak.json", ["samples/leak.lus", "--node", "Leak", "--assign", "samples/leak_assign.json",
                      "--level", "L", "--force"], 1),
    ("ni_Leak2.json", ["samples/leak.lus", "--node", "Leak2", "--assign",
                       "samples/leak_assign.json", "--level", "L", "--force"], 1),
    ("ni_Ctr_partial.json", ["samples/ctr.lus", "--node", "Ctr", "--assign",
                             "tests/data/ctr_partial_assign.json", "--level", "L", "--force"], 1),
    ("ni_Ctr.json", ["samples/ctr.lus", "--node", "Ctr", "--assign", "samples/ctr_assign.json"], 0),
    ("ni_Ctr_H.json", ["samples/ctr.lus", "--node", "Ctr", "--assign", "samples/ctr_assign.json",
                       "--level", "H"], 0),
]


def _typed(history):
    """A history with the type of every value, since `True == 1`."""
    return {x: [(type(v), v) for v in vs] for x, vs in history.items()}


def test_runs_are_deterministic():
    """Two runs on one draw give one history: `run_node` twice, and one
    reset interpreter instance twice with a run on another draw in
    between."""
    rng = random.Random(11)
    runs = 0
    for _ in range(300):
        prog = elaborate(gen_program(rng))
        for node in prog.nodes:
            n = rng.randint(1, 24)
            ins, other = gen_inputs(rng, node, n), gen_inputs(rng, node, n)
            first, _ = run_node(prog, node.name, ins, n)
            again, _ = run_node(prog, node.name, ins, n)
            assert _typed(first) == _typed(again)
            bs = [True] * n
            inst = NodeInstance(prog, node)
            ref = _typed(inst.run(ins, n, bs))
            assert ref == _typed(interpret_node(prog, node, ins, n, bs))
            inst.reset()
            inst.run(other, n, bs)
            inst.reset()
            assert _typed(inst.run(ins, n, bs)) == ref
            runs += 1
    assert runs > 500


def _stepped(inst, ins, n, bs):
    """The history of `n` ticks of `step` on `inst`, as `run` records it,
    or the error of the tick that raises."""
    declared, recorded = inst.inputs, [d.name for d in inst.node.outputs + inst.node.locals]
    ticks = []
    try:
        for t in range(n):
            outs = inst.step([ins[x][t] for x in declared], bs[t])
            assert outs == [inst.vals[x] for x in inst.outputs]
            ticks.append(inst.vals)
    except EvalError as exc:
        return (exc.kind, exc.tick, exc.var, str(exc))
    history = {x: ins[x][:n] for x in declared}
    history.update({x: [vals[x] for vals in ticks] for x in recorded})
    return _typed(history)


def test_step_and_run_share_one_tick_body():
    """Stepping a fresh instance tick by tick gives `run`'s history, or the
    error of the same tick. A third of the draws has one value put off its
    clock, which `run`'s check of the inputs refuses before the first tick;
    stepping makes no such check, and runs cleanly up to that tick."""
    rng = random.Random(13)
    runs = tick_errors = input_errors = 0
    for _ in range(300):
        prog = elaborate(gen_program(rng))
        for node in prog.nodes:
            n = rng.randint(1, 24)
            ins, bs = gen_inputs(rng, node, n), [True] * n
            off = None
            if ins and rng.random() < 0.3:
                off = x, t = rng.choice(sorted(ins)), rng.randrange(n)
                ins[x][t] = 1 if ins[x][t] is ABSENT else ABSENT
            try:
                ran = _typed(NodeInstance(prog, node).run(ins, n, bs))
            except EvalError as exc:
                ran = (exc.kind, exc.tick, exc.var, str(exc))
            stepped = _stepped(NodeInstance(prog, node), ins, n, bs)
            if off is None:
                assert stepped == ran
            else:
                assert ran[:3] == ("clocked-value-mismatch", t, x) and f"input {x} off " in ran[3]
                assert isinstance(stepped, dict) or stepped[1] >= t
                input_errors += 1
                tick_errors += isinstance(stepped, tuple)
            runs += 1
    assert runs > 500 and tick_errors > 20 and input_errors > 20


def test_drawn_inputs_run_on_an_always_live_base_clock():
    """The checks run every draw on `[True] * ticks`, which is the clock
    `check_inputs` builds and accepts the draw on when `run_node` is given
    none."""
    rng = random.Random(12)
    draws = sub_clocked = 0
    while draws < 500:
        for node in elaborate(gen_program(rng)).nodes:
            n = rng.randint(0, 30)
            ins = gen_inputs(rng, node, n)
            assert check_inputs(node, [ins[d.name] for d in node.inputs], None) == [True] * n
            draws += 1
            sub_clocked += any(isinstance(d.clock, ClockOn) for d in node.inputs)
    assert sub_clocked > 50


CTR_SECRET = {"base": "L", "init": "H", "incr": "H", "rst": "H", "n": "H"}
DIV_SRC = "node D(x, z: int) returns (y: int); let y = 10 div (x + z + 18); tel"
# a tuple equation joins the public output y with the secret input s
TUPLE_SRC = "node T(x, s: int) returns (y, z: int); let (y, z) = (x, s); tel"
TUPLE_SECRET = {"base": "L", "x": "L", "s": "H", "y": "L", "z": "H"}


@pytest.mark.parametrize("src, node, assignment, level, seed, verdict, trials, runs_per_trial", [
    (CTR_SRC, "Ctr", CTR_SECRET, "H", 3, "pass", 37, 0),
    (DIV_SRC, "D", {"base": "L", "x": "L", "z": "L", "y": "L"}, "H", 5, "inconclusive", 23, 1),
    (CTR_SRC, "Ctr", CTR_SECRET, "L", 3, "pass", 37, 0),
    (TUPLE_SRC, "T", TUPLE_SECRET, "L", 3, "pass", 37, 2),
], ids=["H-0", "H-1", "L-0", "L-2"])
def test_ni_runs_the_node_once_when_every_input_is_shared(monkeypatch, src, node, assignment,
                                                          level, seed, verdict, trials,
                                                          runs_per_trial):
    """At the top every input is observed, so both runs would share every
    input and the node would run once per trial. Only a raise could change
    the report then, so code that cannot raise runs no trial at all, and a
    node that divides runs once per trial until it raises. Below the top,
    with secret inputs, Ctr's one observed variable `fst` reads no input,
    so it too runs no trial; the node runs twice per trial only where an
    observed variable's equation also reads a secret input."""
    calls = []

    def counting(prog, name, ins, bs):
        calls.append(name)
        return run_compiled(prog, name, ins, bs)

    run_compiled = harness.run_compiled
    monkeypatch.setattr(harness, "run_compiled", counting)
    cfg = NIConfig(node, TWO, assignment, level=level, trials=37, ticks=16, seed=seed)
    report = check_non_interference(parse_program(src), cfg)
    assert report.verdict == verdict and report.trials == trials
    assert len(calls) == trials * runs_per_trial


def test_ni_runs_a_forced_violated_assignment_at_the_top(monkeypatch):
    """A forced check of an assignment its node violates keeps its trial
    loop at the top too: the node runs once per trial."""
    calls = []
    run_compiled = harness.run_compiled
    monkeypatch.setattr(harness, "run_compiled",
                        lambda *args: calls.append(args[1]) or run_compiled(*args))
    leaky = {"base": "L", "init": "H", "incr": "H", "rst": "H", "n": "L"}
    cfg = NIConfig("Ctr", TWO, leaky, level="H", trials=11, ticks=16, seed=3, force=True)
    report = check_non_interference(parse_program(CTR_SRC), cfg)
    assert report.verdict == "pass" and report.details["satisfied"] is False
    assert len(calls) == 11


@pytest.mark.parametrize("golden, args, code", NI_RUNS, ids=[g for g, _, _ in NI_RUNS])
def test_ni_report_of_sample_golden(golden, args, code, monkeypatch, capsys):
    """`luset ni … --lattice two-point --json`, byte for byte."""
    monkeypatch.chdir(ROOT)
    assert main(["ni", *args, "--lattice", "two-point", "--json"]) == code
    assert capsys.readouterr().out == (ROOT / "tests" / "data" / golden).read_text()


@pytest.mark.parametrize("node, sample, level, force", [
    ("Leak", "leak", "L", True), ("Leak2", "leak", "L", True),
    ("Ctr", "ctr", "L", False), ("Ctr", "ctr", "H", False)])
def test_ni_gives_the_same_report_on_the_interpreted_normal_form(monkeypatch, node, sample,
                                                                 level, force):
    """With the normal form run on the tree interpreter instead of its
    compiled code, a check gives the very report of its compiled runs."""
    prog = parse_program((SAMPLES / f"{sample}.lus").read_text())
    entries = json.loads((SAMPLES / f"{sample}_assign.json").read_text())
    assignment = next(flat for name, flat in map(flatten_assignment, entries
                                                  if isinstance(entries, list) else [entries])
                      if name == node)
    cfg = NIConfig(node, TWO, assignment, level, trials=30, ticks=24, seed=5, force=force)
    assert codegen.runner(elaborate(prog), node) is not None
    compiled = check_non_interference(prog, cfg).to_json()
    monkeypatch.setattr(harness, "run_compiled", interpreted_normal_form)
    assert check_non_interference(prog, cfg).to_json() == compiled
    assert compiled["verdict"] == ("fail" if force else "pass")


@pytest.mark.parametrize("argv, golden", [
    *[(["preserve", f"samples/{s}.lus", "--json"], f"preserve_{s}.json")
      for s in ("ctr", "leak", "retrig")],
    *[(["suite", "--seed", str(seed), "--json"], f"suite_seed{seed}.json") for seed in (0, 1)],
], ids=["preserve-ctr", "preserve-leak", "preserve-retrig", "suite-0", "suite-1"])
def test_semantics_check_gives_the_same_report_on_the_interpreted_normal_form(
        monkeypatch, capsys, argv, golden):
    """With the normal form run on the tree interpreter instead of its
    compiled code, every report is the one the compiled runs give."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(harness, "run_compiled", interpreted_normal_form)
    assert main(argv) == 0
    assert capsys.readouterr().out == (ROOT / "tests" / "data" / golden).read_text()
