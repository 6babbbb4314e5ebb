"""The operator table `lang.OPERATORS`, checked against a specification that
shares no code with it, sent through every layer that reads it, and set
against the operators the program generator draws.

The specification: `ctypes.c_int64` for the wrapping arithmetic; for `div`
and `mod`, the truncation laws `q*b + r = a`, `|r| < |b|`, and `r = 0` or
`r` of the sign of `a`, with the one quotient out of range wrapped as
`ctypes` wraps it; the sign of an exact difference for the comparisons;
truth tables for the boolean operators. Two arithmetic mutants of the
table, floor division and `+` without its wrap, must break it."""

import ctypes
import random
from dataclasses import replace

import pytest

from luset import lang
from luset.diagnostics import EvalError
from luset.harness import gen_program
from luset.lang import OPERATORS, Binop, Ty, Unop, Var, _subexprs, elaborate
from luset.normalize import normalize_program
from luset.parser import parse_program
from luset.semantics import earliest_fault, sem_exp
from luset.streams import run_compiled

from interpreter import apply_op, interpret_node

MIN, MAX = -(1 << 63), (1 << 63) - 1
EDGES = [MIN, MIN + 1, -2, -1, 0, 1, 2, MAX - 1, MAX]
BOOLS = [False, True]


def _i64(v: int) -> int:
    return ctypes.c_int64(v).value


def _below(a, b) -> bool:
    """Whether the exact difference a - b is negative: its sign bit."""
    return (a - b) >> 128 != 0


_AND = {(False, False): False, (False, True): False, (True, False): False, (True, True): True}
_OR = {(False, False): False, (False, True): True, (True, False): True, (True, True): True}

# Each entry's value on present operands; `div` and `mod` are checked
# together, by the truncation laws (`_division_violations`).
SPEC = {
    ("not", 1): lambda a: not _OR[a, a],
    ("-", 1): lambda a: _i64(-a),
    ("or", 2): lambda a, b: _OR[a, b],
    ("and", 2): lambda a, b: _AND[a, b],
    ("=", 2): lambda a, b: not (a - b),
    ("<>", 2): lambda a, b: not not (a - b),
    ("<", 2): _below,
    ("<=", 2): lambda a, b: _below(a, b) or not (a - b),
    (">", 2): lambda a, b: not _below(a, b) and not not (a - b),
    (">=", 2): lambda a, b: not _below(a, b),
    ("+", 2): lambda a, b: _i64(a + b),
    ("-", 2): lambda a, b: _i64(a - b),
    ("*", 2): lambda a, b: _i64(a * b),
    ("div", 2): None,
    ("mod", 2): None,
}


def _draw(rng: random.Random, edge: bool) -> int:
    """A 64-bit integer within 2^16 of -2^63 or 2^63-1, or else small or
    anywhere in range."""
    if edge:
        return MIN + rng.randrange(1 << 16) if rng.random() < 0.5 else MAX - rng.randrange(1 << 16)
    return rng.randint(-64, 64) if rng.random() < 0.5 else rng.randint(MIN, MAX)


def _int_pairs(n: int = 4000, seed: int = 14) -> list[tuple[int, int]]:
    """n pairs: the first half with both operands near ±2^63, the rest with
    each operand near ±2^63, small, or anywhere; then every pair of `EDGES`."""
    rng = random.Random(seed)
    pairs = [(_draw(rng, i < n // 2), _draw(rng, i < n // 2 or rng.random() < 0.5))
             for i in range(n)]
    return pairs + [(a, b) for a in EDGES for b in EDGES]


def _value(op: str, args: tuple):
    """The table's value, or the kind of error it raises."""
    try:
        return apply_op(op, args, 0)
    except EvalError as exc:
        return ("raises", exc.kind)
    except ArithmeticError as exc:
        return ("raises", type(exc).__name__)


def _same(got, want) -> bool:
    return type(got) is type(want) and got == want


def _division_violations(pairs) -> list:
    out = []
    for a, b in pairs:
        q, r = _value("div", (a, b)), _value("mod", (a, b))
        if b == 0:
            ok = q == r == ("raises", "div-by-zero")
        elif (a, b) == (MIN, -1):  # the one quotient out of range wraps
            ok = _same(q, _i64(-a)) and _same(r, 0)
        else:
            ok = (type(q) is int and type(r) is int and MIN <= q <= MAX and q * b + r == a
                  and abs(r) < abs(b) and (r == 0 or (r < 0) == (a < 0)))
        if not ok:
            out.append(("div/mod", a, b, q, r))
    return out


def spec_violations(int_pairs) -> list:
    """(operator, operands…, value) of every operand tuple where an entry of
    the table breaks its specification: int operators on `int_pairs`, bool
    operators and `=`/`<>` on every pair of booleans too."""
    bool_pairs = [(a, b) for a in BOOLS for b in BOOLS]
    out = []
    for (op, arity), o in OPERATORS.items():
        spec = SPEC[op, arity]
        if spec is None:
            continue
        pairs = (int_pairs if o.operand is Ty.INT else bool_pairs if o.operand is Ty.BOOL
                 else int_pairs + bool_pairs)
        cases = sorted({p[:arity] for p in pairs})
        out += [(op, *args, got) for args in cases
                if not _same(got := _value(op, args), spec(*args))]
    return out + _division_violations(int_pairs + [(a, 0) for a in EDGES])


def test_every_entry_has_a_specification():
    assert SPEC.keys() == OPERATORS.keys()


def test_the_table_meets_its_specification():
    assert spec_violations(_int_pairs()) == []


def test_the_specification_pins_the_wrapping_division():
    assert apply_op("div", (MIN, -1), 0) == MIN
    assert apply_op("mod", (MIN, -1), 0) == 0
    assert (apply_op("div", (-7, 2), 0), apply_op("mod", (-7, 2), 0)) == (-3, -1)
    assert (apply_op("div", (7, -2), 0), apply_op("mod", (7, -2), 0)) == (-3, 1)


ARITHMETIC_MUTANTS = {
    "floor-division": (("div", 2), {"fn": lambda a, b: a // b}),
    "plus-without-wrap": (("+", 2), {"wraps": False}),
}


@pytest.mark.parametrize("name", ARITHMETIC_MUTANTS)
def test_the_specification_kills_the_arithmetic_mutants(name, monkeypatch):
    key, change = ARITHMETIC_MUTANTS[name]
    monkeypatch.setitem(lang.OPERATORS, key, replace(lang.OPERATORS[key], **change))
    violations = spec_violations(_int_pairs())
    assert violations
    assert {v[0] for v in violations} == {"div/mod" if key[0] == "div" else key[0]}


# ---------------------------------------------------------------------------
# every operator through every layer
# ---------------------------------------------------------------------------

def _operand_types(o) -> list[Ty]:
    return [o.operand] if o.operand else [Ty.INT, Ty.BOOL]


LAYER_CASES = [(op, arity, ty) for (op, arity), o in OPERATORS.items() for ty in _operand_types(o)]


@pytest.mark.parametrize("op, arity, ty", LAYER_CASES,
                         ids=[f"{op}/{arity}/{ty}" for op, arity, ty in LAYER_CASES])
def test_every_operator_goes_through_every_layer(op, arity, ty):
    """Parsed, elaborated and normalised (the delay of a non-constant head
    becomes a fresh local of the operator's result type), the node's
    compiled code, its normal form's compiled code, the stream semantics
    and the tree interpreter agree on values near 0 and near ±2^63, and
    the predicate accepts the compiled history."""
    o = OPERATORS[op, arity]
    ins = ["a", "b"][:arity]
    expr = f"{op} a" if arity == 1 else f"a {op} b"
    src = (f"node N({', '.join(ins)}: {ty}) returns (y, z: {o.result});\n"
           f"let\n  y = {expr};\n  z = ({expr}) fby ({expr});\ntel\n")
    prog = elaborate(parse_program(src))
    nprog, _ = normalize_program(prog)
    assert [d.ty for d in nprog.node("N").locals] == [Ty.BOOL, o.result]
    elaborate(nprog)  # the fresh local's type is the one the equations need

    values = EDGES if ty is Ty.INT else BOOLS
    rows = [(a, b) for a in values for b in values if not (o.fn is None and b == 0)]
    cols = [list(c) for c in zip(*rows)][:arity]
    bs = [True] * len(rows)
    history = run_compiled(prog, "N", cols, bs)
    normal = run_compiled(nprog, "N", cols, bs)
    interpreted = interpret_node(prog, prog.node("N"), dict(zip(ins, cols)), len(bs), bs)
    e = Unop(op, Var("a")) if arity == 1 else Binop(op, Var("a"), Var("b"))
    [denoted] = sem_exp(prog, history, bs, e)
    want = [apply_op(op, row[:arity], t) for t, row in enumerate(rows)]
    for ys in (history["y"], normal["y"], interpreted["y"], denoted):
        assert list(map(type, ys)) == list(map(type, want)) and ys == want
    assert history["z"] == want[:1] + want[:-1]
    assert {x: normal[x] for x in history} == history
    assert earliest_fault(prog, "N")(history, bs) is None


# ---------------------------------------------------------------------------
# the operators the program generator draws
# ---------------------------------------------------------------------------

def _drawn_operators(programs: int = 300) -> set:
    rng = random.Random(0)
    drawn = set()
    for _ in range(programs):
        for node in gen_program(rng).nodes:
            for eq in node.equations:
                stack = list(eq.exprs)
                while stack:
                    e = stack.pop()
                    if isinstance(e, Unop):
                        drawn.add((e.op, 1))
                    elif isinstance(e, Binop):
                        drawn.add((e.op, 2))
                    stack += _subexprs(e)
    return drawn


def test_the_generator_draws_table_operators_and_names_its_gap():
    """Every operator `harness._gen_expr` draws is an entry of the table,
    and the entries it never draws are exactly these four: a new operator
    fails here until the generator draws it or the gap names it."""
    drawn = _drawn_operators()
    assert drawn <= OPERATORS.keys()
    assert {op for op, _ in OPERATORS.keys() - drawn} == {"div", "mod", "<>", ">="}
