"""Every refusal is a `LusetError` raised where its input is read: a file
by its reader, nesting by the parser, a chain of calls by elaboration. So
`cli.main` catches nothing else, and the recursive walks after parsing fit
the default recursion limit on every input that is not refused."""

import ast
import json
from pathlib import Path

import pytest

from luset import codegen
from luset.cli import main
from luset.diagnostics import ElaborationError, ParseError
from luset.lang import CALL_FRAMES, CLOCK_FRAMES, MAX_NESTING, elaborate
from luset.parser import parse_program
from luset.streams import run_node

from conftest import LEAK_ITE_SRC

SRC = Path(__file__).resolve().parent.parent / "src" / "luset"

# ---------------------------------------------------------------------------
# Where the exceptions of the standard library may be caught
# ---------------------------------------------------------------------------

CAUGHT = {"RecursionError", "OSError", "UnicodeDecodeError", "JSONDecodeError"}


def _handlers(tree: ast.AST):
    """(function, exception name) of every `except` naming one of CAUGHT."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                    for t in types:
                        name = t.id if isinstance(t, ast.Name) else t.attr
                        if name in CAUGHT:
                            yield fn.name, name


def test_the_standard_exceptions_are_caught_only_where_an_input_is_read():
    """The parser's own descent and elaboration's per-equation walk turn a
    RecursionError into a positioned or per-equation diagnostic; the file
    readers turn what reading a file raises into a line naming it."""
    found = {(path.stem, fn, name) for path in SRC.glob("*.py")
             for fn, name in _handlers(ast.parse(path.read_text()))}
    assert found == {("parser", "parse_program", "RecursionError"),
                     ("lang", "_elaborate", "RecursionError"),
                     ("diagnostics", "read_text", "OSError"),
                     ("diagnostics", "read_text", "UnicodeDecodeError"),
                     ("diagnostics", "read_json", "JSONDecodeError"),
                     ("diagnostics", "read_json", "RecursionError")}


def test_main_catches_only_luset_error_after_parsing_its_arguments():
    tree = ast.parse((SRC / "cli.py").read_text())
    main_fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    tries = [n for n in ast.walk(main_fn) if isinstance(n, ast.Try)]
    after = [t for t in tries if "parse_args" not in ast.unparse(t.body)]
    assert [[ast.unparse(h.type) for h in t.handlers] for t in after] == [["LusetError"]]


# ---------------------------------------------------------------------------
# The faults of a catch-all: wrong file, wrong cause, a kept stack overflow
# ---------------------------------------------------------------------------

DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("which", ["lattice", "assign"])
def test_json_nested_past_the_stack_names_its_file(tmp_path, capsys, which):
    paths = {"program": tmp_path / "leak.lus", "lattice": tmp_path / "lattice.json",
             "assign": tmp_path / "assign.json"}
    paths["program"].write_text(LEAK_ITE_SRC)
    paths["lattice"].write_text(json.dumps(
        {"elements": ["L", "H"], "bottom": "L", "covers": [["L", "H"]]}))
    paths["assign"].write_text(json.dumps({"node": "Leak", "base": "L"}))
    paths[which].write_text(DEEP_JSON)
    assert main(["check", str(paths["program"]), "--lattice", str(paths["lattice"]),
                 "--assign", str(paths["assign"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{paths[which]}: bad JSON input: ") and err.count("\n") == 1


def test_bad_json_names_its_file(tmp_path, capsys):
    (tmp_path / "leak.lus").write_text(LEAK_ITE_SRC)
    (tmp_path / "a.json").write_text("{")
    assert main(["check", str(tmp_path / "leak.lus"), "--lattice", "two-point",
                 "--assign", str(tmp_path / "a.json")]) == 2
    assert capsys.readouterr().err == (f"{tmp_path / 'a.json'}: bad JSON input: Expecting "
                                       "property name enclosed in double quotes: line 1 column 2"
                                       " (char 1)\n")


def _at_depth(frames: int, fn):
    return fn() if frames == 0 else _at_depth(frames - 1, fn)


def test_a_build_that_ran_out_of_the_callers_stack_is_not_kept():
    """Built from 600 frames down, a program at the nesting bound runs out
    of stack; that says nothing of the program, so nothing is kept, and a
    run of the same program object from a shallow stack goes through."""
    prog = parse_program(_SHAPES["not"](MAX_NESTING)[0])
    with pytest.raises(RecursionError):
        _at_depth(600, lambda: codegen.runner(prog, "f"))
    history, _ = run_node(prog, "f", {"b": [True, False]}, 2)
    assert history["y"] == [True, False]


# ---------------------------------------------------------------------------
# The bounds: at each, every command runs; one past it, the input is refused
# ---------------------------------------------------------------------------

def _one(interface: str, level: str, leaf: str, inputs: dict):
    def source(n: int):
        rhs = leaf
        for _ in range(n):
            rhs = level.format(rhs)
        return f"node f({interface}); let y = {rhs}; tel\n", "f", inputs
    return source


def _sum(n: int):
    rhs = " + ".join(["x"] * (n + 1))  # n operators
    return f"node f(x: int) returns (y: int); let y = {rhs}; tel\n", "f", {"x": "int"}


def _when(n: int):
    """`x when c1 … when cn`, each ck on the clock that ck-1 samples: the
    output's clock is n deep."""
    decls = ["x: int"] + [f"c{k}: bool" + "".join(f" when c{j}" for j in range(1, k))
                          for k in range(1, n + 1)]
    suffix = "".join(f" when c{k}" for k in range(1, n + 1))
    src = f"node f({'; '.join(decls)}) returns (y: int{suffix}); let y = x{suffix}; tel\n"
    return src, "f", {"x": "int", **{f"c{k}": "bool" for k in range(1, n + 1)}}


def _clock(n: int):
    """`y = x` on a clock n deep."""
    src, _, inputs = _when(n)
    suffix = "".join(f" when c{k}" for k in range(1, n + 1))
    return src.replace("x: int;", f"x: int{suffix};").replace(f"y = x{suffix};", "y = x;"), \
        "f", inputs


def _chain(n: int):
    """n nodes, each calling the one before."""
    lines = ["node n1(x: int) returns (y: int); let y = x; tel"]
    lines += [f"node n{k}(x: int) returns (y: int); let y = n{k - 1}(x); tel"
              for k in range(2, n + 1)]
    return "\n".join(lines) + "\n", f"n{n}", {"x": "int"}


def _chain_over_sum(n: int):
    """100 nodes that each only call the one before, over a leaf node that
    sums n + 1 terms."""
    src, top, inputs = _chain(101)
    return src.replace("let y = x;", f"let y = {' + '.join(['x'] * (n + 1))};"), top, inputs


def _deep_call(n: int):
    """A call at the bottom of n additions, to a node of n additions."""
    sums = [" + ".join([head] + ["x"] * n) for head in ("x", "g(x)")]
    return "".join(f"node {f}(x: int) returns (y: int); let y = {rhs}; tel\n"
                   for f, rhs in zip("gf", sums)), "f", {"x": "int"}


_SHAPES = {  # shape: its source, top node and inputs at n levels
    "flat sum": _sum,
    "paren sum": _one("x: int) returns (y: int", "({} + x)", "x", {"x": "int"}),
    "not": _one("b: bool) returns (y: bool", "not {}", "b", {"b": "bool"}),
    "neg": _one("x: int) returns (y: int", "-({})", "x", {"x": "int"}),
    "fby": _one("x: int) returns (y: int", "0 fby {}", "x", {"x": "int"}),
    "when": _when,
    "clock": _clock,
    "if": _one("b: bool; x: int) returns (y: int", "if b then x else {}", "x",
               {"b": "bool", "x": "int"}),
    "merge": _one("c: bool; x: int) returns (y: int", "merge c ({} when c) (x when not c)", "x",
                  {"c": "bool", "x": "int"}),
    "calls": lambda n: (("node g(x: int) returns (y: int); let y = x; tel\n"
                         + _one("x: int) returns (y: int", "g({})", "x", {})(n)[0]),
                        "f", {"x": "int"}),
    "call chain": _chain,
    "chain over a deep leaf": _chain_over_sum,
    "deep call": _deep_call,
}

# The levels at each bound. The parser's own descent stops the shapes of
# None first, at a depth that depends on the caller's stack.
_BOUND = {
    "flat sum": MAX_NESTING, "not": MAX_NESTING, "fby": MAX_NESTING // 2,
    "when": MAX_NESTING // (2 + CLOCK_FRAMES), "clock": MAX_NESTING // CLOCK_FRAMES,
    "call chain": MAX_NESTING // (2 + CALL_FRAMES) + 1,
    "chain over a deep leaf": MAX_NESTING - 100 * (2 + CALL_FRAMES),
    "deep call": (MAX_NESTING - 2 - CALL_FRAMES) // 2,
    "paren sum": None, "neg": None, "if": None, "merge": None, "calls": None,
}
_WEIGHT = {"paren sum": 1, "neg": 1, "if": 2, "merge": 4, "calls": 2}


COMMANDS = ["signature", "normalize", "check", "run", "ni", "preserve"]


def _argv(command: str, tmp_path: Path, shape: str, n: int) -> list[str]:
    """The command on the shape at n levels, with a two-tick trace and the
    assignment that labels the whole interface `L`."""
    src, top, inputs = _SHAPES[shape](n)
    program, trace, assign = tmp_path / "p.lus", tmp_path / "t.csv", tmp_path / "a.json"
    program.write_text(src)
    cells = {"int": ["1", "2"], "bool": ["true", "true"]}
    trace.write_text("".join(",".join(row) + "\n" for row in [list(inputs)] + [
        [cells[ty][t] for ty in inputs.values()] for t in range(2)]))
    assign.write_text(json.dumps(
        {"node": top, "base": "L", "inputs": {x: "L" for x in inputs}, "outputs": {"y": "L"}}))
    lattice = ["--lattice", "two-point", "--assign", str(assign)]
    return [command, str(program)] + {
        "signature": [], "normalize": [], "check": lattice,
        "run": ["--node", top, "--inputs", str(trace)],
        "ni": ["--node", top, *lattice, "--trials", "2", "--ticks", "4"],
        "preserve": ["--node", top, "--trials", "2", "--ticks", "4"]}[command]


def _refused_by_the_parser(src: str):
    with pytest.raises(ParseError) as err:
        parse_program(src, filename="p.lus")
    [diag] = err.value.diagnostics
    assert diag.kind == "nesting-too-deep" and diag.span.file == "p.lus"
    return diag


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("shape", [s for s, n in _BOUND.items() if n is not None])
def test_every_command_runs_at_the_bound(tmp_path, capsys, shape, command):
    assert main(_argv(command, tmp_path, shape, _BOUND[shape])) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("shape", [s for s, n in _BOUND.items() if n is not None])
def test_one_past_the_bound_is_refused(shape):
    src, top, _ = _SHAPES[shape](_BOUND[shape] + 1)
    if shape in ("call chain", "chain over a deep leaf", "deep call"):
        with pytest.raises(ElaborationError) as err:
            elaborate(parse_program(src))
        assert [str(d) for d in err.value.diagnostics] == [
            f"{top}: nesting-too-deep: calls nested too deeply"]
    else:
        assert _refused_by_the_parser(src).span.line == 1


@pytest.mark.parametrize("shape", [s for s, n in _BOUND.items() if n is None])
def test_the_parsers_descent_stops_first(shape):
    """These shapes nest through the parser's own recursion, which refuses
    them, positioned, before their weight reaches the bound."""
    _refused_by_the_parser(_SHAPES[shape](MAX_NESTING // _WEIGHT[shape])[0])


@pytest.mark.parametrize("command, n", [("check", 1200), ("run", 1200), ("preserve", 1200)])
def test_a_long_chain_of_calls_is_refused_by_elaboration(tmp_path, capsys, command, n):
    """No expression is nested here: elaboration refuses the chain of calls,
    with the node at fault, for every command alike."""
    assert main(_argv(command, tmp_path, "call chain", n)) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"n{_BOUND['call chain'] + 1}: nesting-too-deep: calls nested too deeply\n")
