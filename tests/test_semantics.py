"""The paper's stream semantics as a predicate over whole histories
(`semantics.sem_node`) and the earliest fault of a history
(`semantics.earliest_fault`), checked against the compiled code and the tree
interpreter of the tests, and the semantics-preservation check that is
decided by them.

The predicate must accept every history that `run_node`, `interpret_node`
and `run_compiled` produce, on generated programs and on their normal forms,
and must reject the wrong histories of a codegen mutant and of an
interpreter mutant. A history with one value changed has its earliest fault
there. Under two codegen mutants, every passing check is a pass of a trial
loop that runs the source on the tree interpreter and compares outputs, and
every failing check's source stream is the interpreter's."""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from luset import codegen, lang, streams
from luset.diagnostics import EvalError
from luset.harness import (_draw_inputs, _input_order, check_semantics_preservation, gen_inputs,
                           gen_program)
from luset.lang import (BASE_CLOCK, Binop, Const, Def, Node, Program, Ty, Var, VarDecl,
                        elaborate)
from luset.normalize import normalize_program
from luset.parser import parse_program
from luset.semantics import (Fault, base_of, earliest_fault, fby_lustre, ite_stream, lift_binop,
                             lift_unop, merge_stream, sem_node, when_stream)
from luset.streams import ABSENT, run_compiled, run_node, show_value

import interpreter
from interpreter import NodeInstance, apply_op, interpret_node
from conftest import ROOT
from test_codegen import DIVMOD_SRC
from test_interface import CALL_SRC, MD_SRC

A = ABSENT
DRAWS = 300
TICKS = 24


def _same_stream(xs, ys) -> bool:
    return xs == ys and list(map(type, xs)) == list(map(type, ys))


def _same(h1, h2) -> bool:
    return h1.keys() == h2.keys() and all(_same_stream(h1[x], h2[x]) for x in h1)


def _accepts(holds, history, bs) -> bool:
    try:
        return holds(history, bs)
    except EvalError:  # an operator stuck on the history: no derivation
        return False


def _population(seed: int):
    """Each node of `DRAWS` generated programs and of their normal forms,
    with one input draw on an always-live base clock and one on a base
    clock with idle ticks, where every input is absent."""
    rng = random.Random(seed)
    for _ in range(DRAWS):
        prog = elaborate(gen_program(rng))
        nprog, _ = normalize_program(prog)
        for p in (prog, nprog):
            for node in p.nodes:
                ins = gen_inputs(rng, node, TICKS)
                yield p, node, ins, [True] * TICKS
                bs = [rng.random() < 0.7 for _ in range(TICKS)]
                yield p, node, {x: [v if b else A for v, b in zip(vs, bs)]
                                for x, vs in ins.items()}, bs


def _compiled(prog, node, ins, bs):
    return run_compiled(prog, node.name, [ins[d.name] for d in node.inputs], bs)


def test_the_predicate_accepts_every_evaluator_history():
    runs = Counter()
    for prog, node, ins, bs in _population(1):
        holds = sem_node(prog, node.name)
        histories = {"run_node": run_node(prog, node.name, ins, TICKS, bs)[0],
                     "interpret_node": interpret_node(prog, node, ins, TICKS, bs),
                     "run_compiled": _compiled(prog, node, ins, bs)}
        for how, history in histories.items():
            if history is not None:
                assert holds(history, bs), (how, node.name)
                runs[how] += 1
    assert min(runs.values()) > 2 * 2 * DRAWS, runs


def _swap_le_lt(monkeypatch):
    """The codegen mutant: `<=` compiles to `<` and `<` to `<=`."""
    le, lt = lang.OPERATORS["<=", 2], lang.OPERATORS["<", 2]
    monkeypatch.setitem(lang.OPERATORS, ("<=", 2), replace(le, python=lt.python))
    monkeypatch.setitem(lang.OPERATORS, ("<", 2), replace(lt, python=le.python))


class _LateDelay1(interpreter._Delay):
    """The interpreter mutant: a delay of width 1 emits its operand two
    present ticks late, not one, and its head for the first two."""

    def update(self, t, vals, bs_t):
        super().update(t, vals, bs_t)
        if self.width == 1 and self._out[0] is not ABSENT:  # the operand was stored at this tick
            queue = self.__dict__.setdefault("queue", [])
            queue.append(self.saved[0])
            self.started[0] = len(queue) > 1
            self.saved[0] = queue[-2] if len(queue) > 1 else None

    def reset(self):
        super().reset()
        self.queue = []


def test_late_delay_mutant_delays_by_two(monkeypatch):
    prog = elaborate(parse_program("node D(x: int) returns (y: int); let y = 0 fby x; tel"))
    ins, bs = {"x": [1, A, 2, 3, 4]}, [True, False, True, True, True]
    assert interpret_node(prog, prog.node("D"), ins, 5, bs)["y"] == [0, A, 1, 2, 3]
    monkeypatch.setattr(interpreter, "_Delay", _LateDelay1)
    assert interpret_node(prog, prog.node("D"), ins, 5, bs)["y"] == [0, A, 0, 1, 2]


@pytest.mark.parametrize("mutant", ["codegen-le-lt", "interpreter-late-delay"])
def test_the_predicate_rejects_the_wrong_histories_of_a_mutant(monkeypatch, mutant):
    """A mutant history that differs from the sound one is never accepted,
    and some are rejected. The interpreter mutant leaves the witnesses of
    calls sound (they run as compiled code), so there the predicate accepts
    exactly the histories equal to the sound ones."""
    if mutant == "codegen-le-lt":
        _swap_le_lt(monkeypatch)
    else:
        monkeypatch.setattr(interpreter, "_Delay", _LateDelay1)
    seen = Counter()
    for prog, node, ins, bs in _population(2):
        interpreted = interpret_node(prog, node, ins, TICKS, bs)
        compiled = _compiled(prog, node, ins, bs)
        sound, wrong = ((interpreted, compiled) if mutant == "codegen-le-lt"
                        else (compiled, interpreted))
        if sound is None or wrong is None:
            continue
        equal = _same(sound, wrong)
        accepted = _accepts(sem_node(prog, node.name), wrong, bs)
        assert equal or not accepted, node.name
        if mutant == "interpreter-late-delay":
            assert accepted == equal, node.name
        seen[equal, accepted] += 1
    assert seen[False, False] > 50, seen
    assert seen[True, True] > 500, seen


def _zero_registers(monkeypatch):
    """The second codegen mutant: every `fby` register of the normal form
    starts at the zero of its type, 0 or false, not at its initial value."""
    setup = codegen._NodeCode._setup

    def zeroed(self):
        self.registers = ["False" if r in ("True", "False") else "0" for r in self.registers]
        return setup(self)
    monkeypatch.setattr(codegen._NodeCode, "_setup", zeroed)


def _same_outputs_loop(prog, node, trials, seed):
    """The semantics check as a trial loop that runs the source on the tree
    interpreter and the normal form as compiled code, on the check's draws,
    and compares the outputs: the verdict and the trial it ends at."""
    order, bs, rng = _input_order(node), [True] * TICKS, random.Random(seed)
    for trial in range(trials):
        ins = _draw_inputs(rng, order, TICKS)
        try:
            ref = interpret_node(prog, node, ins, TICKS, bs)
            outs = run_compiled(prog, node.name, [ins[d.name] for d in node.inputs], bs)
        except EvalError:
            return "inconclusive", trial + 1
        if not all(_same_stream(ref[d.name], outs[d.name]) for d in node.outputs):
            return "fail", trial + 1
    return "pass", trials


_WORDS = {"true": True, "false": False, "_": ABSENT}  # `show_value` read back


def _interpreted_streams(prog, node, ins, n):
    """The tree interpreter's stream of every variable of the node over n
    ticks, under its name, and of every variable of each call's instance,
    under its call path (`N0.s`): one stream per call."""
    inst = NodeInstance(prog, node)
    paths = []
    todo = [("", inst)]
    while todo:
        prefix, sub = todo.pop()
        paths.append((prefix, sub, []))
        todo += [(f"{prefix}{c.instance.node.name}.", c.instance) for c in sub.calls]
    for t in range(n):
        inst.step([ins[d.name][t] for d in node.inputs], True)
        for _, sub, ticks in paths:
            ticks.append(sub.vals)
    streams_ = {}
    for prefix, _, ticks in paths:
        for x in ticks[0]:
            streams_.setdefault(prefix + x, []).append([show_value(vals[x]) for vals in ticks])
    return streams_


@pytest.mark.parametrize("mutant", ["codegen-le-lt", "codegen-zero-registers"])
def test_reports_agree_with_the_interpreter_under_a_mutant(monkeypatch, mutant):
    """Over the pinned population: every `pass` is a pass of the trial loop
    that compares outputs with the tree interpreter's, and every `fail`'s
    `source` is the interpreter's stream of its variable (of a call's
    instance, for a call path) on the counterexample's inputs, from which
    `normalised` differs at the last tick only."""
    (_swap_le_lt if mutant == "codegen-le-lt" else _zero_registers)(monkeypatch)
    rng = random.Random(1)
    seen = Counter()
    for i in range(DRAWS):
        prog = elaborate(gen_program(rng))
        for node in prog.nodes:
            report = check_semantics_preservation(prog, node.name, trials=5, ticks=TICKS, seed=i)
            verdict, trials = _same_outputs_loop(prog, node, 5, i)
            seen[report.verdict, verdict] += 1
            if report.verdict == "pass":
                assert verdict == "pass", (i, node.name)
                continue
            assert report.verdict == "fail", report.to_json()
            cx = report.counterexample
            n = cx["tick"] + 1
            ins = {x: [_WORDS[v] if v in _WORDS else int(v) for v in vs]
                   for x, vs in cx["inputs"].items()}
            assert cx["source"] in _interpreted_streams(prog, node, ins, n)[cx["variable"]]
            assert len(cx["normalised"]) == len(cx["source"]) == n
            assert cx["normalised"][:-1] == cx["source"][:-1]
            assert cx["normalised"][-1] != cx["source"][-1]
            seen["call path"] += "." in cx["variable"]
            seen["same trial"] += verdict == "fail" and trials == report.trials
    # 46 and 256 reports fail on both sides (44 and 246 at the same trial);
    # 28 and 85 fail only here, at a wrong local or witness, the outputs being
    # right; 5 and 14 fails name a call path
    assert seen["fail", "fail"] > 40 and seen["fail", "pass"] > 20, seen
    assert seen["call path"] >= 5 and seen["same trial"] > 40, seen


def _changed(rng, v):
    """Another value of the type of v."""
    if isinstance(v, bool):
        return not v
    return v + rng.choice((-1, 1))


def test_a_changed_value_is_the_earliest_fault():
    """A run's history with one present value of an output or local changed
    at tick t has its earliest fault there: every equation before it in
    causal order reads none of it, and its own right-hand side gives the
    value the run computed."""
    rng = random.Random(5)
    changed = 0
    for prog, node, ins, bs in _population(3):
        history, _ = run_node(prog, node.name, ins, TICKS, bs)
        defined = [d.name for d in node.outputs + node.locals]
        cells = [(x, t) for x in defined for t, v in enumerate(history[x]) if v is not ABSENT]
        if not cells:
            continue
        x, t = rng.choice(cells)
        wrong = {y: list(vs) for y, vs in history.items()}
        wrong[x][t] = _changed(rng, wrong[x][t])
        found = earliest_fault(prog, node.name)(wrong, bs)
        assert found == Fault(x, t, history[x][:t + 1], wrong[x][:t + 1]), (node.name, x, t)
        changed += 1
    assert changed > 1500, changed


DIV_SRC = """
node f(x: int) returns (y: int);
var d: int;
let
  y = 10 div d;
  d = x + 1;
tel
"""


@pytest.mark.parametrize("d, want", [
    ([2, 3, 4], None),
    ([2, 3, 7], Fault("d", 2, [2, 3, 4], [2, 3, 7])),
    # y's division raises at tick 2 on the wrong d, whose own fault comes first there
    ([2, 3, 0], Fault("d", 2, [2, 3, 4], [2, 3, 0])),
    # y is stuck at tick 1 on the wrong d, whose fault is a tick earlier
    ([5, 0, 4], Fault("d", 0, [2], [5])),
], ids=["holds", "local", "stuck-after-the-fault", "stuck-a-tick-later"])
def test_the_earliest_fault_is_found_past_a_stuck_operator(d, want):
    """The equations run in causal order, `d` before `y`, whatever the
    source order; a division stuck on a wrong history does not hide the
    fault that made it so."""
    prog = elaborate(parse_program(DIV_SRC))
    x = [1, 2, 3]
    y = [10 // v if v else 0 for v in d]
    assert earliest_fault(prog, "f")({"x": x, "d": d, "y": y}, [True] * 3) == want


def test_a_stuck_source_raises():
    """Where the source itself is stuck, with every value it reads right,
    the fault search raises the operator's error."""
    prog = elaborate(parse_program(DIV_SRC))
    history = {"x": [1, -1, 2], "d": [2, 0, 3], "y": [5, 0, 3]}
    with pytest.raises(EvalError, match="div-by-zero at tick 1: division by zero"):
        earliest_fault(prog, "f")(history, [True] * 3)


CALLEE_SRC = """
node g(x: int) returns (y: bool);
var s: bool;
let s = x < 3; y = s; tel
node f(x: int) returns (y: bool);
let y = g(x); tel
"""


def test_a_fault_in_a_witness_is_named_by_its_call_path(monkeypatch):
    """Under the `<`/`<=` mutant the compiled callee computes `x <= 3`: its
    run, the witness of the call, breaks the callee's equation of `s` at the
    first 3, and the fault is named `g.s`."""
    prog = elaborate(parse_program(CALLEE_SRC))
    history = {"x": [1, 3, 5], "y": [True, False, False]}
    assert earliest_fault(prog, "f")(history, [True] * 3) is None
    _swap_le_lt(monkeypatch)
    mutant = elaborate(parse_program(CALLEE_SRC))  # a new program: a new build
    assert earliest_fault(mutant, "f")(history, [True] * 3) == \
        Fault("g.s", 1, [True, False], [True, True])


ORDER_SRC = """
node g(x: int) returns (y: bool);
var s: bool;
let s = x < 3; y = s; tel
node r(x: int) returns (y: int); let y = 5 fby x; tel
node q(x: int) returns (y: int); let y = 7 fby x; tel
"""

# Under both codegen mutants, `g`'s witness is wrong where its argument is 3,
# and `r`'s and `q`'s at their first present tick. Each case is the right-hand
# side of `f`'s one equation, f's input x and output y, and the fault or
# error recorded when a call checked its witness inside its caller's
# expression, at once: the least tick wins, and at one tick, what the
# expression meets first, a rejected witness or a stuck `div`.
WITNESS_ORDER = [
    ("g(x) and 10 div (x - 2) > 0", [1, 3, 2], [False, False, False],
     Fault("g.s", 1, [True, False], [True, True])),
    ("g(x) and 10 div (x - 2) > 0", [1, 2, 3], [False, False, False],
     "div-by-zero at tick 1: division by zero"),
    ("10 div (x - 2) > 0 and g(x)", [1, 3, 2], [False, False, False],
     Fault("g.s", 1, [True, False], [True, True])),
    ("g(x) and 10 div (x - 3) > 0", [1, 3], [False, False],
     Fault("g.s", 1, [True, False], [True, True])),
    ("10 div (x - 3) > 0 and g(x)", [1, 3], [False, False],
     "div-by-zero at tick 1: division by zero"),
    ("r(x) + 10 div x > 0", [0, 1], [True, True], Fault("r.y", 0, [5], [0])),
    ("10 div x + r(x) > 0", [0, 1], [True, True], "div-by-zero at tick 0: division by zero"),
    ("g(x) and g(x + 1)", [1, 2, 3], [True, False, False],
     Fault("g.s", 1, [True, False], [True, True])),
    ("g(x) and r(x) > 0", [1, 3], [True, False], Fault("r.y", 0, [5], [0])),
    ("r(x) > 0 and q(x) > 0", [1, 3], [True, True], Fault("r.y", 0, [5], [0])),
    ("q(x) > 0 and r(x) > 0", [1, 3], [True, True], Fault("q.y", 0, [7], [0])),
    ("g(x)", [1, 3], [False, False], Fault("y", 0, [True], [False])),
]


@pytest.mark.parametrize("rhs, x, y, want", WITNESS_ORDER, ids=[
    "rejected-before-stuck", "stuck-before-rejected",
    "rejected-earlier-stuck-first-in-the-expression",
    "rejected-first-at-one-tick", "stuck-first-at-one-tick", "register-first-at-one-tick",
    "stuck-first-before-a-register", "later-call-rejected-earlier", "two-mutants",
    "two-registers", "two-registers-swapped", "target-before-rejected"])
def test_rejected_witnesses_and_stuck_operators_keep_their_order(monkeypatch, rhs, x, y, want):
    _swap_le_lt(monkeypatch)
    _zero_registers(monkeypatch)
    src = f"{ORDER_SRC}node f(x: int) returns (y: bool); let y = {rhs}; tel\n"
    prog = elaborate(parse_program(src))
    try:
        got = earliest_fault(prog, "f")({"x": x, "y": y}, [True] * len(x))
    except EvalError as exc:
        got = str(exc)
    assert got == want


LENGTHS_SRC = """
node f(c: bool; x: int when c) returns (y: int);
let y = merge c x (0 when not c); tel
node late(x: int when c; c: bool) returns (y: int);
let y = merge c x (0 when not c); tel
node g(c: bool; d: bool when c; x: int when c when d) returns (y: int);
var s: int when c;
let s = merge d x (0 when not d); y = merge c s (0 when not c); tel
node h(x: int when c when d; d: bool when c; c: bool) returns (y: int);
var s: int when c;
let s = merge d x (0 when not d); y = merge c s (0 when not c); tel
node add(a: int; b: int) returns (s: int); let s = a + b; tel
node top(x: int; y: int) returns (o: int); var l: int; let l = x; o = add(y, l); tel
"""
_F = {"c": [True, False, True], "x": [1, A, 3], "y": [1, 0, 3]}
_G = {"c": [True, True, False], "d": [True, False, A], "x": [1, A, A], "y": [1, 0, 0],
      "s": [1, 0, A]}
_TOP = {"x": [1, 2, 3], "y": [4, 5, 6], "l": [1, 2, 3], "o": [5, 7, 9]}
_CUT = "arity-mismatch: clock variable {} and its clock differ in length"

# recorded when each clock of the predicate was its own closure over whole
# columns: a variable is checked against its clock's column in declaration
# order, so one declared before its clock variable meets a clock variable of
# another length first
UNEQUAL_LENGTHS = [
    ("f", _F, 3, True),
    ("f", {**_F, "c": [True, False]}, 3, False),
    ("f", {**_F, "x": [1, A]}, 3, False),
    ("f", _F, 2, False),
    ("f", _F, 4, False),
    ("late", _F, 3, True),
    ("late", {**_F, "c": [True, False]}, 3, _CUT.format("c")),
    ("late", {**_F, "c": [True, False, True, True]}, 3, _CUT.format("c")),
    ("late", {**_F, "c": [True, A]}, 3,
     "clocked-value-mismatch at tick 1 (c): clock variable c absent while its clock is live"),
    ("late", _F, 2, _CUT.format("c")),
    ("g", _G, 3, True),
    ("g", {**_G, "d": [True, False]}, 3, False),
    ("g", {**_G, "x": [1, A]}, 3, False),
    ("g", {**_G, "c": [True, True]}, 3, False),
    ("h", _G, 3, True),
    ("h", {**_G, "d": [True, False]}, 3, _CUT.format("d")),
    ("h", {**_G, "c": [True, True]}, 3, _CUT.format("c")),
    ("h", _G, 2, _CUT.format("c")),
    ("h", {**_G, "d": [A, False, A]}, 3,
     "clocked-value-mismatch at tick 0 (d): clock variable d absent while its clock is live"),
    # a call's arguments of unequal length: its witness runs on their common prefix
    ("top", _TOP, 3, True),
    ("top", {**_TOP, "l": [1, 2]}, 3, False),
    ("top", {**_TOP, "y": [4, 5]}, 3, False),
    ("top", {**_TOP, "l": [1, 2], "o": [5, 7]}, 3, False),
]


@pytest.mark.parametrize("name, history, ticks, want", UNEQUAL_LENGTHS)
def test_the_predicate_on_streams_of_unequal_length(name, history, ticks, want):
    """`sem_node` over a history whose streams and base clock differ in
    length: it accepts, rejects, or raises the pinned error."""
    holds = sem_node(elaborate(parse_program(LENGTHS_SRC)), name)
    try:
        got = holds(history, [True] * ticks)
    except EvalError as exc:
        got = str(exc)
    assert got == want


def test_a_call_argument_shorter_than_the_history_faults_where_it_ends():
    """The call's witness runs on the common prefix of its arguments, so the
    shorter argument's own equation is the earliest fault, at the tick
    where its stream ends."""
    fault = earliest_fault(elaborate(parse_program(LENGTHS_SRC)), "top")
    assert fault({**_TOP, "l": [1, 2]}, [True] * 3) == Fault("l", 2, [1, 2, 3], [1, 2])


# sha256 of `json.dumps(reports, sort_keys=True)`, where `reports` are the
# `to_json()` of `check_semantics_preservation(prog, node, trials=5,
# ticks=24, seed=i)` for every node of the i-th of 300
# `gen_program(random.Random(1))` draws, and the number of fails among them;
# "sound" recorded when the check ran the source on the tree interpreter in
# every trial. "codegen-le-lt" re-recorded when the check came to ask for
# the earliest fault of every variable, not only of the outputs: 28 reports
# moved from pass to fail (23 at a wrong local, 5 at a rejected witness of a
# call), none the other way, and the 46 fails name the earliest fault, cut
# after its tick
SEMANTICS_PRESERVATION_PINS = {
    "sound": ("2a6f7a678749dd4d35c714f242f3b99aa033ddd57a763cd492798ed5bf367533", 617, 0),
    "codegen-le-lt": ("22b01e83e9d57a7ebaf3ace783cc03253275089a116210935d609c83839a5af6", 617, 74),
}


@pytest.mark.parametrize("mutant", list(SEMANTICS_PRESERVATION_PINS))
def test_semantics_preservation_reports_pinned(monkeypatch, mutant):
    if mutant == "codegen-le-lt":
        _swap_le_lt(monkeypatch)
    rng = random.Random(1)
    reports = []
    for i in range(DRAWS):
        prog = gen_program(rng)
        for node in prog.nodes:
            reports.append(check_semantics_preservation(prog, node.name, trials=5, ticks=TICKS,
                                                        seed=i).to_json())
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert (digest, len(reports), sum(r["verdict"] == "fail" for r in reports)) == \
        SEMANTICS_PRESERVATION_PINS[mutant]


def _partial_node(op: str) -> Program:
    """A top node with a partial operator on its one input."""
    x, y = VarDecl("x", Ty.INT, BASE_CLOCK), VarDecl("y", Ty.INT, BASE_CLOCK)
    expr = Binop(op, Const(10), Binop("+", Var("x"), Const(9)))
    return Program((Node("P", (x,), (y,), (), (Def(("y",), None, (expr,)),)),))


# recorded when the check ran the source on the tree interpreter in every
# trial; the compiled code raises the same error at the same trial
PARTIAL_REPORTS = {
    "div": (3, "div-by-zero at tick 4: division by zero"),
    "mod": (3, "div-by-zero at tick 4: modulo by zero"),
}


@pytest.mark.parametrize("op", list(PARTIAL_REPORTS))
def test_a_stuck_operator_leaves_the_check_inconclusive(op):
    """The compiled code raises, and the check reports its diagnostic at
    the trial it reaches."""
    trials, reason = PARTIAL_REPORTS[op]
    report = check_semantics_preservation(_partial_node(op), "P", trials=10, ticks=8, seed=2)
    assert report.to_json() == {"check": "semantics-preservation", "verdict": "inconclusive",
                                "trials": trials, "node": "P", "seed": 2, "reason": reason}


# the reasons of `check_semantics_preservation(prog, node, seed=seed)` (100
# trials of 64 ticks) on the programs of `test_interface.py` whose faults can
# fall two or three at one tick, where the compiled code's schedule decides
# which one is named; the tree interpreter named the same fault at the same
# trial when it ran the source in every trial, here and for seeds up to 199
TWO_FAULT_REPORTS = [
    (MD_SRC, "md", 0, "div-by-zero at tick 6: modulo by zero"),
    (MD_SRC, "md", 1, "div-by-zero at tick 18: modulo by zero"),
    (MD_SRC, "md", 2, "div-by-zero at tick 10: modulo by zero"),
    (DIVMOD_SRC, "dm", 0, "div-by-zero at tick 20: division by zero"),
    (DIVMOD_SRC, "dm", 1, "div-by-zero at tick 16: division by zero"),
    (DIVMOD_SRC, "dm", 2, "div-by-zero at tick 0: division by zero"),
    (CALL_SRC, "inv", 0, "div-by-zero at tick 7: division by zero"),
    (CALL_SRC, "inv", 1, "div-by-zero at tick 41: division by zero"),
    (CALL_SRC, "inv", 2, "div-by-zero at tick 5: division by zero"),
    (CALL_SRC, "dc", 0, "div-by-zero at tick 6: modulo by zero"),
    (CALL_SRC, "dc", 1, "div-by-zero at tick 18: modulo by zero"),
    (CALL_SRC, "dc", 2, "div-by-zero at tick 5: division by zero"),
]


@pytest.mark.parametrize("src, name, seed, reason", TWO_FAULT_REPORTS,
                         ids=[f"{name}-{seed}" for _, name, seed, _ in TWO_FAULT_REPORTS])
def test_the_compiled_code_names_the_fault_of_an_inconclusive_check(src, name, seed, reason):
    report = check_semantics_preservation(parse_program(src), name, seed=seed)
    assert report.to_json() == {"check": "semantics-preservation", "verdict": "inconclusive",
                                "trials": 1, "node": name, "seed": seed, "reason": reason}


# ---------------------------------------------------------------------------
# the whole-prefix operators against their tick-by-tick definitions
# ---------------------------------------------------------------------------

def _present(v):
    return v is not ABSENT


def _ref_lift_unop(op, es):
    return [ABSENT if v is ABSENT else apply_op(op, (v,), t) for t, v in enumerate(es)]


def _ref_lift_binop(op, xs, ys):
    out = []
    for t, (a, b) in enumerate(zip(xs, ys)):
        if _present(a) != _present(b):
            raise EvalError("clocked-value-mismatch", f"operands of {op} disagree on presence", t)
        out.append(ABSENT if a is ABSENT else apply_op(op, (a, b), t))
    return out


def _ref_when_stream(k, xs, es):
    out = []
    for t, (x, e) in enumerate(zip(xs, es)):
        if _present(x) != _present(e):
            raise EvalError("clocked-value-mismatch", "when operands disagree on presence", t)
        out.append(ABSENT if x is ABSENT else (e if x == k else ABSENT))
    return out


def _ref_merge_stream(xs, ts, fs):
    out = []
    for t, (x, a, b) in enumerate(zip(xs, ts, fs)):
        if x is ABSENT:
            if _present(a) or _present(b):
                raise EvalError("clocked-value-mismatch",
                                "merge branch present while selector is absent", t)
            out.append(ABSENT)
        elif x is True:
            if not _present(a) or _present(b):
                raise EvalError("clocked-value-mismatch", "merge branches must be complementary", t)
            out.append(a)
        else:
            if _present(a) or not _present(b):
                raise EvalError("clocked-value-mismatch", "merge branches must be complementary", t)
            out.append(b)
    return out


def _ref_ite_stream(es, ts, fs):
    out = []
    for t, (c, a, b) in enumerate(zip(es, ts, fs)):
        if _present(c) != _present(a) or _present(c) != _present(b):
            raise EvalError("clocked-value-mismatch", "if operands disagree on presence", t)
        out.append(ABSENT if c is ABSENT else (a if c else b))
    return out


def _ref_fby_lustre(xs, ys):
    out, started, saved = [], False, None
    for t, (x, y) in enumerate(zip(xs, ys)):
        if _present(x) != _present(y):
            raise EvalError("clocked-value-mismatch", "fby operands disagree on presence", t)
        if x is ABSENT:
            out.append(ABSENT)
            continue
        out.append(saved if started else x)
        saved, started = y, True
    return out


def _ref_base_of(streams_):
    """The presence of the tuple over its common prefix, as the other
    operators cut theirs."""
    if not streams_:
        raise EvalError("arity-mismatch", "base clock of an empty stream tuple")
    out = []
    for t in range(min(map(len, streams_))):
        flags = {_present(s[t]) for s in streams_}
        if len(flags) > 1:
            raise EvalError("clocked-value-mismatch",
                            "stream tuple components disagree on presence", t)
        out.append(flags.pop())
    return out


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (EvalError, IndexError) as exc:
        return type(exc), getattr(exc, "kind", None), getattr(exc, "tick", None), str(exc)
    return [(type(v), v) for v in out]


def _stream(rng, live, values):
    return [rng.choice(values) if b else ABSENT for b in live]


OPERATORS = [
    ("lift_unop", lift_unop, _ref_lift_unop, 1),
    ("lift_binop", lift_binop, _ref_lift_binop, 2),
    ("when_stream", when_stream, _ref_when_stream, 2),
    ("merge_stream", merge_stream, _ref_merge_stream, 3),
    ("ite_stream", ite_stream, _ref_ite_stream, 3),
    ("fby_lustre", fby_lustre, _ref_fby_lustre, 2),
]
OPS = ["+", "-", "*", "div", "mod", "=", "<>", "<", "<=", ">", ">=", "and", "or", "not", "abs"]
INTS = [0, 1, -1, 7, -9, (1 << 63) - 1, -(1 << 63), (1 << 63), True, False]


@pytest.mark.parametrize("name, fast, ref, arity", OPERATORS, ids=[o[0] for o in OPERATORS])
def test_operator_matches_its_tick_by_tick_definition(name, fast, ref, arity):
    """Values and types, or the `EvalError` (kind, tick and message), over
    random operands that mostly agree on presence, sometimes do not, and
    sometimes differ in length."""
    rng = random.Random(name)
    for _ in range(3000):
        n = rng.randint(0, 6)
        live = [rng.random() < 0.7 for _ in range(n)]
        operands = []
        for _ in range(arity):
            mine = list(live)
            if rng.random() < 0.2 and n:
                mine[rng.randrange(n)] ^= True
            if rng.random() < 0.1:
                mine = mine[:rng.randint(0, n)]
            operands.append(_stream(rng, mine, INTS))
        if name == "merge_stream":  # a selector, and branches on its two sub-clocks
            sel = _stream(rng, live, [True, False, True, False, 1])
            on = [s is True for s in sel]
            off = [s is not ABSENT and s is not True for s in sel]
            if rng.random() < 0.8:
                operands = [sel, _stream(rng, on, INTS), _stream(rng, off, INTS)]
        args = operands
        if name in ("lift_unop", "lift_binop"):
            args = [rng.choice(OPS)] + operands
        elif name == "when_stream":
            args = [rng.random() < 0.5] + operands
        assert _outcome(fast, *args) == _outcome(ref, *args), (name, args)


def test_base_of_matches_its_tick_by_tick_definition():
    rng = random.Random(3)
    for _ in range(2000):
        n = rng.randint(0, 5)
        live = [rng.random() < 0.6 for _ in range(n)]
        tuple_ = []
        for _ in range(rng.randint(0, 3)):
            mine = list(live)
            if rng.random() < 0.2 and n:
                mine[rng.randrange(n)] ^= True
            if rng.random() < 0.1:
                mine = mine[:rng.randint(0, n)] if rng.random() < 0.5 else mine + [True]
            tuple_.append(_stream(rng, mine, [1, 2]))
        assert _outcome(base_of, tuple_) == _outcome(_ref_base_of, tuple_), tuple_


# ---------------------------------------------------------------------------
# the module is imported on first use
# ---------------------------------------------------------------------------

def test_import_luset_loads_neither_semantics_nor_codegen():
    """`import luset` in a fresh interpreter leaves `luset.semantics` and
    `luset.codegen` unloaded: each is imported by the first check that needs
    it, so a command that needs neither does not pay for their code. `luset
    run` needs the compiled code but never the predicate or its stream
    operators, so it leaves `luset.semantics` unloaded."""
    src = str(Path(streams.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    loaded_modules = "sorted(m for m in sys.modules if m.startswith('luset.'))"

    def fresh(code):
        return json.loads(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                         capture_output=True, text=True, check=True).stdout)

    path, loaded = fresh(f"import json, sys, luset; print(json.dumps([luset.__file__, "
                         f"{loaded_modules}]))")
    assert Path(path).parent == Path(streams.__file__).parent  # this checkout's luset
    assert "luset.semantics" not in loaded and "luset.codegen" not in loaded, loaded
    argv = ["run", "samples/ctr.lus", "--node", "Ctr", "--inputs", "samples/ctr_table.csv"]
    code, loaded = fresh("import contextlib, io, json, sys, luset.cli\n"
                         "with contextlib.redirect_stdout(io.StringIO()):\n"
                         f"    code = luset.cli.main({argv!r})\n"
                         f"print(json.dumps([code, {loaded_modules}]))")
    assert code == 0 and "luset.codegen" in loaded, loaded  # the run ran compiled code
    assert "luset.semantics" not in loaded, loaded
