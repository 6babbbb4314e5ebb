"""Differential test of the compiled path of `run_node` against the tree
interpreter (`NodeInstance`, through `interpreter.interpret_node`).

Every case requires `run_node` to return the interpreter's history (every
declared variable, value and type) and base clock, or to raise the
interpreter's error (kind, tick and message). The compiled loop is also run
on its own, on the inputs `check_inputs` accepts: it must never succeed
where the interpreter fails, and on well-clocked inputs it must run and
agree.
"""

import random
import re
from pathlib import Path

import pytest

from luset import codegen
from luset.diagnostics import CausalityError, ElaborationError, EvalError, LusetError
from luset.harness import gen_inputs, gen_program
from luset.lang import elaborate
from luset.normalize import normalize_program
from luset.parser import parse_program
from luset.streams import ABSENT, check_inputs, run_compiled, run_node

from conftest import CNT_DN_SRC, CTR_SPDMTR_SRC, RE_TRIG_SRC
from interpreter import interpret_node

A = ABSENT
BIG = (1 << 63) - 1


def _typed(history):
    return [(x, [(type(v), v) for v in vs]) for x, vs in history.items()]


def _outcome(fn):
    try:
        history, bs = fn()
    except LusetError as exc:
        return ("error", type(exc), getattr(exc, "kind", None), getattr(exc, "tick", None),
                str(exc))
    return _typed(history), list(bs)


def _default_bs(node, inputs, n):
    if not node.inputs:
        return [True] * n
    return [any(inputs[d.name][t] is not ABSENT for d in node.inputs) for t in range(n)]


def check_run(prog, name, inputs, n, bs=None, well_clocked=True):
    """Compare run_node and the compiled loop (`run_compiled`) with the
    interpreter on one run; return whether the compiled loop completed it.
    The loop runs only inputs that `check_inputs` accepts; where it refuses
    them, the interpreter raises its error."""
    node = prog.node(name)
    ref_bs = _default_bs(node, inputs, n) if bs is None else list(bs[:n])
    want = _outcome(lambda: (interpret_node(prog, node, inputs, n, ref_bs), ref_bs))
    got = _outcome(lambda: run_node(prog, name, inputs, n, bs))
    assert got == want

    try:
        codegen.runner(prog, name)
    except LusetError:
        assert not well_clocked, f"{name} did not compile"
        return False
    ins = [list(inputs[d.name][:n]) for d in node.inputs]
    try:
        check_inputs(node, ins, ref_bs)
    except EvalError as exc:
        assert not well_clocked, "the interface check refused a good run"
        assert want == ("error", EvalError, exc.kind, exc.tick, str(exc))
        return False
    try:
        history = run_compiled(prog, name, ins, ref_bs)
    except EvalError:
        assert want[0] == "error" or not well_clocked, "compiled loop refused a good run"
        return False
    assert want[0] != "error", f"compiled loop ran where the interpreter fails: {want}"
    assert _typed(history) == want[0]
    return True


def _both_forms(prog):
    eprog = elaborate(prog)
    return [eprog, normalize_program(eprog)[0]]


def _holes(rng, node, inputs, n):
    """A base clock with idle ticks, the inputs made absent there."""
    bs = [rng.random() < 0.7 for _ in range(n)]
    return {x: [v if b else A for v, b in zip(vs, bs)] for x, vs in inputs.items()}, bs


# ---------------------------------------------------------------------------
# samples, source and normalised
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("src, name", [(CTR_SPDMTR_SRC, "SpdMtr"), (CTR_SPDMTR_SRC, "Ctr"),
                                       (RE_TRIG_SRC, "re_trig"), (CNT_DN_SRC, "cnt_dn")])
def test_samples_agree(src, name):
    rng = random.Random(7)
    for prog in _both_forms(parse_program(src)):
        node = prog.node(name)
        for _ in range(20):
            n = rng.randint(0, 40)
            ins = gen_inputs(rng, node, n)
            assert check_run(prog, name, ins, n)
            ins, bs = _holes(rng, node, ins, n)
            assert check_run(prog, name, ins, n, bs)


def test_wrapping_agrees():
    prog = elaborate(parse_program(CTR_SPDMTR_SRC))
    acc = [BIG, BIG, -BIG - 1, 1, -1, BIG]
    assert check_run(prog, "SpdMtr", {"acc": acc}, 6)


# ---------------------------------------------------------------------------
# generated programs
# ---------------------------------------------------------------------------

def test_generated_programs_agree():
    rng = random.Random(2024)
    compiled = runs = 0
    for i in range(500):
        prog = gen_program(rng)
        forms = _both_forms(prog) if i % 10 == 0 else [elaborate(prog)]
        for p in forms:
            for node in p.nodes:
                n = rng.randint(1, 16)
                ins = gen_inputs(rng, node, n)
                if rng.random() < 0.3:
                    ins, bs = _holes(rng, node, ins, n)
                else:
                    bs = None
                runs += 1
                compiled += check_run(p, node.name, ins, n, bs)
    assert compiled == runs


# ---------------------------------------------------------------------------
# hand-written programs
# ---------------------------------------------------------------------------

DIVMOD_SRC = """
node dm(c: bool; a, b: int) returns (q, r, s: int);
let
  q = if c then a else a div b;
  r = if c then a mod b else 0 - a;
  s = (a div 3) + (a mod (0 - 7)) + (-a) * 3;
tel
"""


def test_div_mod_agree():
    prog = elaborate(parse_program(DIVMOD_SRC))
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 12)
        ins = {"c": [rng.random() < 0.5 for _ in range(n)],
               "a": [rng.choice((rng.randint(-20, 20), BIG, -BIG - 1)) for _ in range(n)],
               "b": [rng.choice((rng.randint(-5, 5) or 1, -1)) for _ in range(n)]}
        assert check_run(prog, "dm", ins, n)


def test_zero_divisor_in_untaken_branch_raises():
    prog = elaborate(parse_program(DIVMOD_SRC))
    # at tick 1 c holds, so `a div b` is the untaken branch of q
    ins = {"c": [False, True, False], "a": [4, 5, 6], "b": [2, 0, 3]}
    assert not check_run(prog, "dm", ins, 3)
    with pytest.raises(EvalError) as err:
        run_node(prog, "dm", ins, 3)
    assert (err.value.kind, err.value.tick) == ("div-by-zero", 1)


WHEN2_SRC = """
node w2(a: bool; b: bool when a; x, d: int) returns (y, z: int);
var s: int when a; u: int when a when b; k: int when a when not b; v: int when a;
let
  s = (x when a) + 1;
  u = (s when b) * 2;
  k = 5 fby ((s when not b) - 1);
  v = (x div d) when a;
  z = merge a (merge b u k) (x when not a);
  y = merge a (v + s) (0 when not a);
tel
"""


def _when2_inputs(rng, n):
    a = [rng.random() < 0.6 for _ in range(n)]
    return {"a": a, "b": [(rng.random() < 0.5) if on else A for on in a],
            "x": [rng.randint(-9, 9) for _ in range(n)],
            "d": [rng.choice((1, 2, -3)) for _ in range(n)]}


def test_two_level_clocks_agree():
    rng = random.Random(11)
    for prog in _both_forms(parse_program(WHEN2_SRC)):
        for _ in range(30):
            n = rng.randint(1, 20)
            assert check_run(prog, "w2", _when2_inputs(rng, n), n)


def test_zero_divisor_under_idle_when_raises():
    # `x div d` is computed on the base clock even where `when a` drops it
    prog = elaborate(parse_program(WHEN2_SRC))
    ins = {"a": [True, False], "b": [True, A], "x": [1, 2], "d": [1, 0]}
    assert not check_run(prog, "w2", ins, 2)


CALLS_SRC = """
node swap(a, b: int) returns (c, d: int);
let
  c = b;
  d = a + 1;
tel

node acc(x: int) returns (s: int);
let
  s = x + (0 fby s);
tel

node cnt() returns (n: int);
let
  n = 0 fby (n + 1);
tel

node top(k: bool; x, y: int) returns (p, q, m, w: int);
var t: int when k; m1, m2: int;
let
  (p, q) = swap(swap(x, y));
  t = acc(x when k);
  m = merge k t (acc(y when not k));
  (m1, m2) = merge k (swap(x when k, y when k)) (swap(y when not k, x when not k));
  w = merge k (cnt() + (m1 when k)) (m2 when not k);
tel
"""


def test_tuple_calls_and_calls_under_merge_agree():
    rng = random.Random(13)
    for prog in _both_forms(parse_program(CALLS_SRC)):
        for _ in range(30):
            n = rng.randint(1, 20)
            ins = {"k": [rng.random() < 0.5 for _ in range(n)],
                   "x": [rng.randint(-9, 9) for _ in range(n)],
                   "y": [rng.randint(-9, 9) for _ in range(n)]}
            assert check_run(prog, "top", ins, n)
        assert check_run(prog, "cnt", {}, 5)


OFF_CLOCK_SRC = """
node f(c: bool; x: int when c; u: int when c) returns (y: int; e: bool);
let
  y = merge c (x + 1) (0 when not c);
  e = not c;
tel
"""


@pytest.mark.parametrize("inputs, bs", [
    ({"c": [True, False], "x": [1, 2], "u": [1, A]}, None),  # x present while c is false
    ({"c": [True, True], "x": [1, A], "u": [1, 2]}, None),  # x absent while c is true
    ({"c": [True, False], "x": [1, A], "u": [1, 3]}, None),  # unused u off its clock
    ({"c": [True, A], "x": [1, A], "u": [1, A]}, [True, True]),  # base input absent
    ({"c": [True, False], "x": [1, A], "u": [1, A]}, [True, False]),  # present while base idle
    ({"c": [True, 1], "x": [1, A], "u": [1, A]}, None),  # an int for a bool input
    ({"c": [True, False], "x": [1, A], "u": [1, A]}, [True, 1]),  # an int in the base clock
    ({"c": [True, False], "x": [True, A], "u": [1, A]}, None),  # a bool for an int input
])
def test_inputs_off_their_clocks_agree(inputs, bs):
    prog = elaborate(parse_program(OFF_CLOCK_SRC))
    check_run(prog, "f", inputs, 2, bs, well_clocked=False)


@pytest.mark.parametrize("src, elaborated", [
    ("node f(x: int) returns (y: int); let y = y + x; tel", True),
    # the source equation reads b while defining it; its normalised halves do not
    ("node f(x: int) returns (a, b: int); let (a, b) = (b, x); tel", True),
    ("node g(x: int) returns (y: int); let y = x; tel\n"
     "node f(x: int) returns (y: int); let y = x + g(y); tel", True),
    ("node f(x: int) returns (y: bool); let y = x; tel", False),
    # unelaborated: the interpreter puts the constant on the base clock
    ("node f(c: bool; x: int) returns (y: int); var k: int when c;\n"
     "let k = 3; y = merge c k (x when not c); tel", False),
    ("node f(c: bool; x: int) returns (y: int); var k: int when c; let k = 3; y = x; tel",
     False),
])
def test_programs_the_compiler_refuses_fall_back(src, elaborated):
    """`run_node` runs the elaborated program, so a program the compiler
    refuses raises the error that refused the build: for a causality cycle,
    the interpreter's. A program that is not elaborated yet runs as its
    elaboration does, or raises the elaboration's error."""
    prog = parse_program(src)
    if elaborated:
        prog = elaborate(prog)
    ins = {x: vs for x, vs in (("c", [True, False, True]), ("x", [1, 2, 3]))
           if x in [d.name for d in prog.node("f").inputs]}
    if elaborated:
        with pytest.raises(CausalityError) as err:
            codegen.runner(prog, "f")
        assert codegen.may_raise(prog, "f")
        check_run(prog, "f", ins, 3, well_clocked=False)
        with pytest.raises(CausalityError, match=re.escape(str(err.value))):
            run_node(prog, "f", ins, 3)
        return
    try:
        eprog = elaborate(prog)
    except ElaborationError as exc:
        for refused in (lambda: codegen.runner(prog, "f"), lambda: run_node(prog, "f", ins, 3)):
            with pytest.raises(ElaborationError, match=re.escape(str(exc))):
                refused()
        return
    assert eprog != prog
    assert _outcome(lambda: run_node(prog, "f", ins, 3)) == \
        _outcome(lambda: (interpret_node(eprog, eprog.node("f"), ins, 3, [True] * 3), [True] * 3))
    assert check_run(eprog, "f", ins, 3)


def test_runner_kept_per_program_object():
    prog = elaborate(parse_program(CTR_SPDMTR_SRC))
    run = codegen.runner(prog, "SpdMtr")
    assert codegen.runner(prog, "SpdMtr") is run
    copy = elaborate(parse_program(CTR_SPDMTR_SRC))
    assert copy == prog and codegen.runner(copy, "SpdMtr") is not run


def test_run_compiled_returns_the_history_and_the_error_tick():
    """`run_compiled` returns the node's whole history: its declarations in
    order (inputs, outputs, locals), each stream as long as the base clock.
    A division by zero gets the tick it was raised at, in the top loop and
    inside a callee's step, as the CLI rows `div-tick-0`, `div-tick-1` and
    `divcall-tick-2` of `run_faults/traces.txt` pin it."""
    path = Path(__file__).resolve().parent / "data" / "run_faults" / "nodes.lus"
    prog = parse_program(path.read_text())
    bs = [True] * 3
    for name in ("Div", "DivCall"):
        history = run_compiled(prog, name, [[4, -7, 9], [2, 3, -1]], bs)
        assert list(history) == [d.name for d in prog.node(name).declarations] == ["a", "b", "q"]
        assert [len(vs) for vs in history.values()] == [3, 3, 3]
        assert history["q"] == [2, -2, -9]
        for tick in range(3):
            divisors = [1, 1, 1]
            divisors[tick] = 0
            with pytest.raises(EvalError) as raised:
                run_compiled(prog, name, [[1, 2, 3], divisors], bs)
            assert (raised.value.kind, raised.value.tick) == ("div-by-zero", tick), name
