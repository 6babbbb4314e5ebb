"""The paper's stream semantics as a predicate over whole histories
(`semantics.sem_node`), checked against every evaluator of the package, and
the semantics-preservation check that is decided by it.

The predicate must accept every history that `run_node`, `interpret_node`
and `run_compiled` produce, on generated programs and on their normal forms,
and must reject the wrong histories of a codegen mutant and of an
interpreter mutant. Where it accepts a check's draws, the trial loop that
runs the source on the tree interpreter (`harness._trial_loop`) passes, and
every report is the one that loop gives."""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from luset import codegen, streams
from luset.diagnostics import EvalError
from luset.harness import (PASS, _input_order, _normal_runs_satisfy_source, _trial_loop,
                           check_semantics_preservation, gen_inputs, gen_program)
from luset.lang import (BASE_CLOCK, Binop, Const, Def, Node, Program, Ty, Var, VarDecl,
                        elaborate)
from luset.normalize import normalize_program
from luset.parser import parse_program
from luset.semantics import sem_node
from luset.streams import (ABSENT, _apply_binop, _apply_unop, base_of, fby_lustre, ite_stream,
                           interpret_node, lift_binop, lift_unop, merge_stream, run_compiled,
                           run_node, when_stream)

A = ABSENT
DRAWS = 300
TICKS = 24


def _same(h1, h2) -> bool:
    return h1.keys() == h2.keys() and all(
        h1[x] == h2[x] and list(map(type, h1[x])) == list(map(type, h2[x])) for x in h1)


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
    positional = [ins[d.name] for d in node.inputs]
    hist = run_compiled(prog, node.name, positional, bs)
    names = [d.name for d in node.inputs + node.outputs + node.locals]
    return dict(zip(names, positional + hist))


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
    monkeypatch.setitem(codegen._INLINE, "<=", "<")
    monkeypatch.setitem(codegen._INLINE, "<", "<=")


class _LateDelay1(streams._Delay):
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
    monkeypatch.setattr(streams, "_Delay", _LateDelay1)
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
        monkeypatch.setattr(streams, "_Delay", _LateDelay1)
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


@pytest.mark.parametrize("mutant", [False, True], ids=["sound", "codegen-le-lt"])
def test_an_accepted_check_is_a_pass_of_the_trial_loop(monkeypatch, mutant):
    if mutant:
        _swap_le_lt(monkeypatch)
    rng = random.Random(7)
    accepted = Counter()
    for i in range(DRAWS):
        prog = elaborate(gen_program(rng))
        for node in prog.nodes:
            order, bs = _input_order(node), [True] * TICKS
            ok = _normal_runs_satisfy_source(prog, node, order, 5, TICKS, i, bs)
            loop = _trial_loop(prog, node, order, 5, TICKS, i, bs)
            assert not ok or loop.verdict == PASS
            report = check_semantics_preservation(prog, node.name, trials=5, ticks=TICKS, seed=i)
            assert report.to_json() == loop.to_json()
            accepted[ok, loop.verdict] += 1
    assert accepted[True, PASS] > 400, accepted
    assert (accepted[False, "fail"] > 20) == mutant, accepted


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
"""
_F = {"c": [True, False, True], "x": [1, A, 3], "y": [1, 0, 3]}
_G = {"c": [True, True, False], "d": [True, False, A], "x": [1, A, A], "y": [1, 0, 0],
      "s": [1, 0, A]}
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


# sha256 of `json.dumps(reports, sort_keys=True)`, where `reports` are the
# `to_json()` of `check_semantics_preservation(prog, node, trials=5,
# ticks=24, seed=i)` for every node of the i-th of 300
# `gen_program(random.Random(1))` draws, and the number of fails among them;
# recorded when the check ran the source on the tree interpreter in every
# trial
SEMANTICS_PRESERVATION_PINS = {
    "sound": ("2a6f7a678749dd4d35c714f242f3b99aa033ddd57a763cd492798ed5bf367533", 617, 0),
    "codegen-le-lt": ("0416529536449342c643ad5b44b00b183f4cada7c03fa2dffc9d7cf01eb80cfd", 617, 46),
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


# recorded when the check ran the source on the tree interpreter in every trial
PARTIAL_REPORTS = {
    "div": (3, "div-by-zero at tick 4: division by zero"),
    "mod": (3, "div-by-zero at tick 4: modulo by zero"),
}


@pytest.mark.parametrize("op", list(PARTIAL_REPORTS))
def test_a_stuck_operator_leaves_the_check_inconclusive(op):
    """The compiled code raises, so the trial loop runs and reports the
    interpreter's diagnostic at the trial it reaches."""
    trials, reason = PARTIAL_REPORTS[op]
    report = check_semantics_preservation(_partial_node(op), "P", trials=10, ticks=8, seed=2)
    assert report.to_json() == {"check": "semantics-preservation", "verdict": "inconclusive",
                                "trials": trials, "node": "P", "seed": 2, "reason": reason}


# ---------------------------------------------------------------------------
# the whole-prefix operators against their tick-by-tick definitions
# ---------------------------------------------------------------------------

def _present(v):
    return v is not ABSENT


def _ref_lift_unop(op, es):
    return [ABSENT if v is ABSENT else _apply_unop(op, v, t) for t, v in enumerate(es)]


def _ref_lift_binop(op, xs, ys):
    out = []
    for t, (a, b) in enumerate(zip(xs, ys)):
        if _present(a) != _present(b):
            raise EvalError("clocked-value-mismatch", f"operands of {op} disagree on presence", t)
        out.append(ABSENT if a is ABSENT else _apply_binop(op, a, b, t))
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
    if not streams_:
        raise EvalError("arity-mismatch", "base clock of an empty stream tuple")
    out = []
    for t in range(len(streams_[0])):
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
    it, so a command that needs neither does not pay for their code."""
    src = str(Path(streams.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import json, sys, luset; print(json.dumps([luset.__file__, "
            "sorted(m for m in sys.modules if m.startswith('luset.'))]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    path, loaded = json.loads(out)
    assert Path(path).parent == Path(streams.__file__).parent  # this checkout's luset
    assert "luset.semantics" not in loaded and "luset.codegen" not in loaded, loaded
