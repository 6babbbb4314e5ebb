"""A run's inputs are checked once, at the node's interface, before the first
tick (`streams.check_inputs`), and `run_node` runs compiled code only.

The check is compared with a brute-force tick-by-tick reference on generated
programs whose drawn inputs have faults put in, and `run_node` with the tree
interpreter on the same traces. The faults of `div` and `mod`, which only
the code can raise once the inputs pass the check, are pinned as the
interpreter reported them when `run_node` still fell back to it.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luset.diagnostics import EvalError, LusetError
from luset.harness import gen_inputs, gen_program
from luset.lang import BASE, ClockBase, Program, Ty, clock_vars, elaborate
from luset.parser import parse_program
from luset.streams import ABSENT, check_inputs, run_node, show_value

from conftest import presence_fold
from interpreter import interpret_node
from test_codegen import DIVMOD_SRC

A = ABSENT

MD_SRC = """
node md(a, b: int) returns (q, p: int);
let
  q = a mod b;
  p = a div b;
tel
"""

CALL_SRC = """
node inv(x: int) returns (y: int); let y = 100 div x; tel
node dc(a, b: int) returns (p, q, r: int);
let
  p = inv(a);
  q = a mod b;
  r = 0 fby (b div a);
tel
"""

# recorded with the tree interpreter; the rows marked "two" or "three" have
# that many faults at the tick of the line, and the compiled code's schedule
# names the same one
DIV_MOD_FAULTS = [
    (MD_SRC, "md", {"a": [1, 2], "b": [1, 0]},  # two: q's mod, then p's div
     "div-by-zero at tick 1: modulo by zero"),
    (DIVMOD_SRC, "dm", {"c": [False, True, False], "a": [4, 5, 6], "b": [2, 0, 3]},  # two
     "div-by-zero at tick 1: division by zero"),
    (DIVMOD_SRC, "dm", {"c": [True, False], "a": [4, 5], "b": [2, 0]},  # two
     "div-by-zero at tick 1: division by zero"),
    (DIVMOD_SRC, "dm", {"c": [True, True, True], "a": [1, 2, 3], "b": [1, 1, 0]},  # two
     "div-by-zero at tick 2: division by zero"),
    (CALL_SRC, "dc", {"a": [1, 0, 2], "b": [1, 1, 1]},  # two: in the callee and the delay
     "div-by-zero at tick 1: division by zero"),
    (CALL_SRC, "dc", {"a": [1, 2, 2], "b": [1, 0, 1]},
     "div-by-zero at tick 1: modulo by zero"),
    (CALL_SRC, "dc", {"a": [1, 0], "b": [1, 0]},  # three
     "div-by-zero at tick 1: division by zero"),
    (CALL_SRC, "dc", {"a": [3, 4], "b": [2, 1]},
     {"a": [3, 4], "b": [2, 1], "p": [33, 25], "q": [1, 0], "r": [0, 0]}),
]


def _outcome(run):
    """The typed history of a run, or its error's type, kind, tick, variable
    and message."""
    try:
        history = run()
    except LusetError as exc:
        return ("error", type(exc).__name__, getattr(exc, "kind", None),
                getattr(exc, "tick", None), getattr(exc, "var", None), str(exc))
    return {x: [(type(v), v) for v in vs] for x, vs in history.items()}


@pytest.mark.parametrize("src, name, ins, want", DIV_MOD_FAULTS)
def test_div_mod_faults_keep_the_interpreter_lines(src, name, ins, want):
    prog = elaborate(parse_program(src))
    n = len(ins["a"])
    if isinstance(want, str):
        kind, tick = "div-by-zero", int(want.split("tick ")[1].split(":")[0])
        want = ("error", "EvalError", kind, tick, None, want)
    else:
        want = {x: [(type(v), v) for v in vs] for x, vs in want.items()}
    assert _outcome(lambda: run_node(prog, name, ins, n)[0]) == want
    assert _outcome(lambda: interpret_node(prog, prog.node(name), ins, n, [True] * n)) == want


# ---------------------------------------------------------------------------
# the interface check against a tick-by-tick reference
# ---------------------------------------------------------------------------

_TYPES = {Ty.BOOL: bool, Ty.INT: int}


def _ref_check(node, ins, bs):
    """The interface check, one tick at a time: the error of the first tick
    where the base cell is not a bool, or where some input judged at that
    tick is off its clock or of the wrong type, the first such input in
    declaration order; or None. An input is judged at a tick when none of
    its clock variables is at fault there."""
    decls = {d.name: d for d in node.inputs}
    cols = dict(zip(decls, ins))
    for t, b in enumerate(bs):
        if type(b) is not bool:
            return EvalError("type-mismatch", f"the base clock holds {show_value(b)}, not a bool",
                             t, BASE)

        def live(ck):
            if isinstance(ck, ClockBase):
                return b
            return live(ck.base) and cols[ck.var][t] == ck.value

        def fault(x):
            d = decls[x]
            if any(fault(v) for v in clock_vars(d.clock)):
                return None  # not judged at this tick
            v, on = cols[x][t], live(d.clock)
            if (v is not ABSENT) != on:
                where = "the base clock" if isinstance(d.clock, ClockBase) else "its clock"
                return EvalError("clocked-value-mismatch", f"input {x} off {where}", t, x)
            if v is not ABSENT and type(v) is not _TYPES[d.ty]:
                return EvalError("type-mismatch",
                                 f"input {x} is declared {d.ty} but holds {show_value(v)}", t, x)
            return None

        for d in node.inputs:
            error = fault(d.name)
            if error is not None:
                return error
    return None


def _wrong(rng, v):
    """A value of the other type."""
    return rng.choice([0, 1, 2, -5]) if type(v) is bool else rng.random() < 0.5


@st.composite
def _faulty_runs(draw):
    """A node of a generated program and a draw of its inputs, on an
    always-live base clock or one with idle ticks (or the default one),
    with up to three faults put in: a value made absent or present, a value
    of the wrong type, a base cell that is not a bool, and a value made
    absent or present on a clock variable of another input. Half the draws
    look for a node with an input on a sub-clock, half of those declare the
    node's inputs in reverse, clock variables last, and half the faults of
    the first two kinds go to an input on a sub-clock."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    sub_clocked = draw(st.booleans())  # look for a node with an input on a sub-clock
    for _ in range(30):
        prog = elaborate(gen_program(rng))
        nodes = [node for node in prog.nodes
                 if any(not isinstance(d.clock, ClockBase) for d in node.inputs)]
        if nodes or not sub_clocked:
            break
    node = rng.choice(nodes if sub_clocked and nodes else prog.nodes)
    if node in nodes and draw(st.booleans()):
        # no node calls one with an input on a sub-clock: its inputs may be declared in reverse
        node = replace(node, inputs=node.inputs[::-1])
        prog = Program(tuple(node if other.name == node.name else other for other in prog.nodes))
    n = draw(st.integers(1, 12))
    ins = gen_inputs(rng, node, n)
    bs = draw(st.sampled_from(["live", "holes", "default"]))
    if bs == "holes":
        bs = [rng.random() < 0.7 for _ in range(n)]
        ins = {x: [v if on else A for v, on in zip(vs, bs)] for x, vs in ins.items()}
    elif bs == "live":
        bs = [True] * n
    else:
        bs = None
    drivers = sorted({v for d in node.inputs for v in clock_vars(d.clock)})
    sampled = sorted(d.name for d in node.inputs if not isinstance(d.clock, ClockBase))
    for kind in draw(st.lists(st.sampled_from(["absence", "type", "base", "driver"]),
                              max_size=3)):
        t = rng.randrange(n)
        if kind == "base" and bs is not None:
            bs[t] = rng.choice([1, 0, None])
        elif ins:
            pool = drivers if kind == "driver" else sampled if rng.random() < 0.5 else []
            x = rng.choice(pool or sorted(ins))
            v = ins[x][t]
            if kind == "type" and v is not A:
                ins[x][t] = _wrong(rng, v)
            else:
                ins[x][t] = A if v is not A else rng.choice([0, 3, True, False])
    return prog, node, ins, n, bs


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_faulty_runs())
def test_check_and_run_node_on_faulty_traces(case):
    """The check gives the reference's line, and returns the clock it judged:
    the one given, else the presence fold; `run_node` gives the tree
    interpreter's history or error (kind, tick, variable and message) and
    the same clock; and nothing but a `LusetError` leaves `run_node`."""
    prog, node, ins, n, bs = case
    ref_bs = presence_fold([ins[d.name] for d in node.inputs], n) if bs is None else bs
    want = _ref_check(node, [ins[d.name] for d in node.inputs], ref_bs)
    try:
        judged = check_inputs(node, [ins[d.name] for d in node.inputs], bs)
    except EvalError as exc:
        got = exc
    else:
        got = None
        assert judged == ref_bs
    assert (got and (got.kind, got.tick, got.var, str(got))) == \
        (want and (want.kind, want.tick, want.var, str(want)))

    def run():
        history, clock = run_node(prog, node.name, ins, n, bs)
        assert clock == ref_bs
        return history

    ran = _outcome(run)
    assert ran == _outcome(lambda: interpret_node(prog, node, ins, n, ref_bs))
    assert isinstance(ran, tuple) == (want is not None)
