"""Pins the results of the tree interpreter (`streams.interpret_node`), the
reference every faster path is checked against, so that a rewrite of its
internals is checked to give the very same histories and diagnostics."""

import hashlib
import random
from pathlib import Path

import pytest

from luset.cli import main
from luset.diagnostics import LusetError
from luset.harness import gen_inputs, gen_program
from luset.lang import elaborate
from luset.normalize import normalize_program
from luset.parser import parse_program
from luset.streams import ABSENT, interpret_node, show_value

from conftest import CNT_DN_SRC, CTR_SPDMTR_SRC, RE_TRIG_SRC
from test_codegen import CALLS_SRC, DIVMOD_SRC, OFF_CLOCK_SRC, WHEN2_SRC

ROOT = Path(__file__).parent.parent
SAMPLES = sorted((ROOT / "samples").glob("*.lus"))

# recorded with the object-tree interpreter, before its expressions became closures
INTERPRETER_DIGEST = "0b0e7f3f55bae09d2201b270ebea0abc8650b1563ab8d551f4fe6da4b9b32e42"

A = ABSENT
BIG = (1 << 63) - 1

OFF_CLOCK_INPUTS = [
    ({"c": [True, False], "x": [1, 2], "u": [1, A]}, None),
    ({"c": [True, True], "x": [1, A], "u": [1, 2]}, None),
    ({"c": [True, False], "x": [1, A], "u": [1, 3]}, None),
    ({"c": [True, A], "x": [1, A], "u": [1, A]}, [True, True]),
    ({"c": [True, False], "x": [1, A], "u": [1, A]}, [True, False]),
    ({"c": [True, 1], "x": [1, A], "u": [1, A]}, None),
    ({"c": [True, False], "x": [1, A], "u": [1, A]}, [True, 1]),
    ({"c": [True, False], "x": [True, A], "u": [1, A]}, None),
]

REFUSED_SRCS = [
    ("node f(x: int) returns (y: int); let y = y + x; tel", True),
    ("node f(x: int) returns (a, b: int); let (a, b) = (b, x); tel", True),
    ("node g(x: int) returns (y: int); let y = x; tel\n"
     "node f(x: int) returns (y: int); let y = x + g(y); tel", True),
    ("node f(x: int) returns (y: bool); let y = x; tel", False),
    ("node f(c: bool; x: int) returns (y: int); var k: int when c;\n"
     "let k = 3; y = merge c k (x when not c); tel", False),
    ("node f(c: bool; x: int) returns (y: int); var k: int when c; let k = 3; y = x; tel",
     False),
]


def _default_bs(node, inputs, n):
    if not node.inputs:
        return [True] * n
    return [any(inputs[d.name][t] is not ABSENT for d in node.inputs) for t in range(n)]


def _holes(rng, inputs, n):
    bs = [rng.random() < 0.7 for _ in range(n)]
    return {x: [v if b else A for v, b in zip(vs, bs)] for x, vs in inputs.items()}, bs


def _outcome(prog, name, inputs, n, bs=None):
    """The typed history of one interpreter run, or its error's type, kind,
    tick, variable and message."""
    node = prog.node(name)
    bs = _default_bs(node, inputs, n) if bs is None else bs
    try:
        history = interpret_node(prog, node, inputs, n, bs)
    except LusetError as exc:
        return ("error", type(exc).__name__, getattr(exc, "kind", None),
                getattr(exc, "tick", None), getattr(exc, "var", None), str(exc))
    return [(x, [(type(v).__name__, show_value(v)) for v in vs]) for x, vs in history.items()]


def _both_forms(prog):
    eprog = elaborate(prog)
    return [eprog, normalize_program(eprog)[0]]


def _cases():
    """(program, node, inputs, ticks, base clock) of every pinned run."""
    rng = random.Random(7)
    for prog in (p for src in (CTR_SPDMTR_SRC, RE_TRIG_SRC, CNT_DN_SRC)
                 for p in _both_forms(parse_program(src))):
        for node in prog.nodes:
            for _ in range(5):
                n = rng.randint(0, 30)
                ins = gen_inputs(rng, node, n)
                yield prog, node.name, ins, n, None
                holed, bs = _holes(rng, ins, n)
                yield prog, node.name, holed, n, bs
    yield elaborate(parse_program(CTR_SPDMTR_SRC)), "SpdMtr", \
        {"acc": [BIG, BIG, -BIG - 1, 1, -1, BIG]}, 6, None
    gen = random.Random(7)
    for _ in range(300):
        prog = gen_program(gen)
        for p in _both_forms(prog):
            for node in p.nodes:
                n = rng.randint(1, 24)
                ins = gen_inputs(rng, node, n)
                bs = None
                if rng.random() < 0.3:
                    ins, bs = _holes(rng, ins, n)
                if ins and rng.random() < 0.2:  # one value off its clock
                    x = rng.choice(sorted(ins))
                    t = rng.randrange(n)
                    ins[x][t] = 1 if ins[x][t] is A else A
                yield p, node.name, ins, n, bs
    dm = elaborate(parse_program(DIVMOD_SRC))
    yield dm, "dm", {"c": [False, True, False], "a": [4, 5, 6], "b": [2, 0, 3]}, 3, None
    yield dm, "dm", {"c": [True, False], "a": [BIG, -BIG - 1], "b": [-1, -1]}, 2, None
    delay = elaborate(parse_program(
        "node f(a: int; b: int) returns (y: int) let y = 0 fby a; tel"))
    for prog in (delay, normalize_program(delay)[0]):
        yield prog, "f", {"a": [1, A, 3], "b": [1, 2, 3]}, 3, [True] * 3
    for prog in _both_forms(parse_program(WHEN2_SRC)):
        yield prog, "w2", {"a": [True, False], "b": [True, A], "x": [1, 2], "d": [1, 0]}, 2, None
        yield prog, "w2", {"a": [True, False, True], "b": [False, A, True],
                           "x": [1, 2, 3], "d": [1, 2, -3]}, 3, None
    for prog in _both_forms(parse_program(CALLS_SRC)):
        yield prog, "top", {"k": [True, False, True], "x": [1, 2, 3], "y": [4, 5, 6]}, 3, None
        yield prog, "cnt", {}, 4, None
    off = elaborate(parse_program(OFF_CLOCK_SRC))
    for inputs, bs in OFF_CLOCK_INPUTS:
        yield off, "f", inputs, 2, bs
    for src, elaborated in REFUSED_SRCS:
        prog = parse_program(src)
        prog = elaborate(prog) if elaborated else prog
        ins = {x: vs for x, vs in (("c", [True, False, True]), ("x", [1, 2, 3]))
               if x in [d.name for d in prog.node("f").inputs]}
        yield prog, "f", ins, 3, None


def _interpreter_digest():
    h = hashlib.sha256()
    runs = errors = idle = 0
    for prog, name, inputs, n, bs in _cases():
        got = _outcome(prog, name, inputs, n, bs)
        h.update(repr((name, n, got)).encode())
        runs += 1
        errors += got[0] == "error"
        idle += bs is not None and not all(bs)
    return h.hexdigest(), runs, errors, idle


def test_interpreter_results_are_pinned():
    digest, runs, errors, idle = _interpreter_digest()
    assert runs > 1300 and errors > 100 and idle > 300
    assert digest == INTERPRETER_DIGEST


def test_long_flat_sum_preserves(tmp_path, capsys):
    """A flat sum near the elaboration cap runs on the interpreter's source
    side without a `RecursionError`: one frame per level of nesting."""
    src = tmp_path / "sum.lus"
    src.write_text("node f(x: int) returns (y: int); let y = " + " + ".join(["x"] * 480) + "; tel")
    assert main(["preserve", str(src), "--json", "--trials", "3"]) == 0
    assert '"verdict": "pass"' in capsys.readouterr().out


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda p: p.stem)
def test_preserve_report_of_sample_golden(sample, capsys):
    """`luset preserve <sample> --json`, byte for byte."""
    assert main(["preserve", str(sample), "--json"]) == 0
    golden = ROOT / "tests" / "data" / f"preserve_{sample.stem}.json"
    assert capsys.readouterr().out == golden.read_text()
