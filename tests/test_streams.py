import random

import pytest

from luset.diagnostics import CausalityError, EvalError
from luset.lang import (BASE_CLOCK, Binop, Call, ClockOn, Const, Fby, NCall, Unop,
                        Var, elaborate)
from luset.normalize import normalize_program
from luset.parser import parse_program
from luset.streams import (ABSENT, _csv_rows, _trace_by_rows, base_of, const_stream, eval_clock, eval_expr,
                           eval_node, fby_lustre, fby_nlustre, interpret_node, ite_stream,
                           lift_binop, lift_unop, merge_stream, read_trace, respects_clock,
                           run_node, show_value, when_stream)

from conftest import CTR_SRC, CTR_TABLE, RE_TRIG_SRC

A = ABSENT


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------

def test_const_stream():
    assert const_stream(5, [True, False, True]) == [5, A, 5]
    assert const_stream(7, [False, False]) == [A, A]
    assert const_stream(7, []) == []


def test_lift_ops():
    assert lift_binop("+", [1, A], [2, A]) == [3, A]
    assert lift_unop("not", [True]) == [False]
    with pytest.raises(EvalError):
        lift_binop("+", [1], [A])


def test_div_semantics():
    assert lift_binop("div", [7, -7], [2, 2]) == [3, -3]  # truncation toward zero
    with pytest.raises(EvalError) as err:
        lift_binop("div", [1], [0])
    assert err.value.kind == "div-by-zero"


def test_when_stream():
    assert when_stream(True, [True, False, True], [1, 2, 3]) == [1, A, 3]
    assert when_stream(True, [A, A], [A, A]) == [A, A]
    with pytest.raises(EvalError):
        when_stream(True, [True], [A])


def test_merge_stream():
    assert merge_stream([True, False, A], [1, A, A], [A, 2, A]) == [1, 2, A]
    assert merge_stream([A], [A], [A]) == [A]
    with pytest.raises(EvalError):
        merge_stream([True], [A], [A])


def test_ite_stream():
    assert ite_stream([True, False], [1, 2], [9, 8]) == [1, 8]
    assert ite_stream([A], [A], [A]) == [A]
    with pytest.raises(EvalError):
        ite_stream([True], [1], [A])


def test_fby_lustre():
    assert fby_lustre([1, 2, 1], [1, 2, 2]) == [1, 1, 2]
    assert fby_lustre([A, 1], [A, 5]) == [A, 1]
    assert fby_lustre([A, A], [A, A]) == [A, A]
    with pytest.raises(EvalError):
        fby_lustre([1], [A])


def test_fby_nlustre():
    assert fby_nlustre(0, [1, 3, 5, 8, 0, 1, 4]) == [0, 1, 3, 5, 8, 0, 1]
    assert fby_nlustre(True, [False, False]) == [True, False]
    assert fby_nlustre(9, [A, A, A]) == [A, A, A]
    # absences between values keep the saved state
    assert fby_nlustre(0, [1, A, 2, A, 3]) == [0, A, 1, A, 2]


def test_fby_variants_agree_on_constant_heads():
    # a constant-headed full-language delay equals the core-form delay
    # whenever the operand pulses on the head's clock
    rng = random.Random(14)
    for _ in range(200):
        n = rng.randint(0, 12)
        bs = [rng.random() < 0.6 for _ in range(n)]
        c = rng.randint(-5, 5)
        ys = [rng.randint(-9, 9) if b else A for b in bs]
        assert fby_lustre(const_stream(c, bs), ys) == fby_nlustre(c, ys)


def test_base_of():
    assert base_of([[1, A, 2]]) == [True, False, True]
    assert base_of([[A, A]]) == [False, False]
    assert base_of([[]]) == []
    assert base_of([[1, A], [2, A]]) == [True, False]
    with pytest.raises(EvalError):
        base_of([[1, A], [A, A]])
    with pytest.raises(EvalError):
        base_of([])


def test_respects_clock():
    assert respects_clock({"x": [1, A], "y": [2, A]}, [True, False])
    assert not respects_clock({"x": [A, 1]}, [True, False])
    assert respects_clock({}, [True, False])
    # weaker direction only: absence on a live tick is tolerated
    assert respects_clock({"x": [A, A]}, [True, True])


def test_eval_clock():
    H = {"x": [True, False, A]}
    assert eval_clock(H, [True, True, True], BASE_CLOCK) == [True, True, True]
    assert eval_clock(H, [True, True, False], ClockOn(BASE_CLOCK, "x", True)) == \
        [True, False, False]
    with pytest.raises(EvalError):
        eval_clock({"x": [A]}, [True], ClockOn(BASE_CLOCK, "x", True))
    # two levels: b is sampled on `a`, the clock is live where a and not b
    nested = ClockOn(ClockOn(BASE_CLOCK, "a", True), "b", False)
    H2 = {"a": [True, True, False, True, A], "b": [False, True, A, False, A]}
    assert eval_clock(H2, [True, True, True, True, False], nested) == \
        [True, False, False, True, False]
    with pytest.raises(EvalError, match="present while its clock is idle"):
        eval_clock({"a": [False], "b": [True]}, [True], nested)
    with pytest.raises(EvalError, match="unbound-var"):
        eval_clock({"a": [True]}, [True], nested)


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------

def test_eval_expr_var_and_ops():
    prog = parse_program("")
    H = {"x": [1, 2, 3]}
    bs = [True] * 3
    assert eval_expr(prog, H, bs, Var("x")) == [[1, 2, 3]]
    assert eval_expr(prog, H, bs, Binop("+", Var("x"), Const(1))) == [[2, 3, 4]]


def test_eval_expr_tuple_fby_componentwise():
    prog = parse_program("")
    H = {"a": [1, 2], "b": [7, 8], "c": [3, 4], "d": [9, 9]}
    bs = [True, True]
    fby = Fby((Var("a"), Var("b")), (Var("c"), Var("d")))
    out = eval_expr(prog, H, bs, fby)
    assert out == [fby_lustre(H["a"], H["c"]), fby_lustre(H["b"], H["d"])]


def test_eval_expr_node_call():
    # first tick takes the initial value, later ticks accumulate: same rule
    # as the counter's example run (tick 0 emits init itself)
    prog = parse_program(CTR_SRC)
    H = {"acc": [1, 2, 5]}
    bs = [True, True, True]
    out = eval_expr(prog, H, bs, Call("Ctr", (Const(0), Var("acc"), Const(False))))
    assert out == [[0, 2, 7]]


def _random_int_expr(rng, names, depth):
    if depth <= 0 or rng.random() < 0.3:
        return Var(rng.choice(names)) if rng.random() < 0.7 else Const(rng.randint(0, 9))
    match rng.randint(0, 2):
        case 0:
            return Unop("-", _random_int_expr(rng, names, depth - 1))
        case 1:
            return Binop(rng.choice(("+", "-", "*")),
                         _random_int_expr(rng, names, depth - 1),
                         _random_int_expr(rng, names, depth - 1))
        case 2:
            return Fby((_random_int_expr(rng, names, depth - 1),),
                       (_random_int_expr(rng, names, depth - 1),))


def test_eval_expr_relevant_variables():
    # histories agreeing on fv(e) produce identical results
    from luset.lang import free_vars
    prog = parse_program("")
    rng = random.Random(1)
    names = ["x", "y", "z", "w"]
    bs = [True] * 8
    for _ in range(100):
        e = _random_int_expr(rng, names, 3)
        H1 = {v: [rng.randint(0, 9) for _ in bs] for v in names}
        H2 = {v: (list(H1[v]) if v in free_vars(e)
                  else [rng.randint(10, 19) for _ in bs]) for v in names}
        assert eval_expr(prog, H1, bs, e) == eval_expr(prog, H2, bs, e)


# ---------------------------------------------------------------------------
# node evaluation
# ---------------------------------------------------------------------------

def test_ctr_example_run(ctr_prog):
    H, bs = run_node(ctr_prog, "Ctr",
                     {k: CTR_TABLE[k] for k in ("init", "incr", "rst")}, 7)
    assert H["n"] == CTR_TABLE["n"]
    assert H["fst"] == CTR_TABLE["fst"]
    assert H["pre_n"] == CTR_TABLE["pre_n"]
    assert bs == [True] * 7


def test_echo_node():
    prog = elaborate(parse_program("node id(x: int) returns (y: int); let y = x; tel"))
    assert eval_node(prog, "id", [[4, A, 6]], 3) == [[4, A, 6]]


def test_eval_node_deterministic(ctr_prog):
    ins = [CTR_TABLE["init"], CTR_TABLE["incr"], CTR_TABLE["rst"]]
    assert eval_node(ctr_prog, "Ctr", ins, 7) == eval_node(ctr_prog, "Ctr", ins, 7)


def test_causality_cycle_raises():
    prog = parse_program("node f(x: int) returns (y: int); let y = y + 1; tel")
    with pytest.raises(CausalityError):
        eval_node(prog, "f", [[1, 2]], 2)


def test_ncall_clock_consistency_checked():
    # an ncall equation whose annotated clock disagrees with its arguments
    src = """
node g(x: int) returns (y: int); let y = x; tel
node f(c: bool, x: int) returns (y: int);
var s: int when c;
let
  s = x when c;
  y = merge c s (0 when not c);
tel
"""
    prog = elaborate(parse_program(src))
    node = prog.node("f")
    (seq,) = [eq for eq in node.equations if eq.targets == ("s",)]
    # splice in a call equation annotated with the base clock but fed
    # sub-clocked arguments
    bad_eq = NCall(("s",), BASE_CLOCK, "g", (seq.exprs[0],))
    bad_node = node.__class__(node.name, node.inputs, node.outputs, node.locals,
                              tuple(bad_eq if eq is seq else eq for eq in node.equations))
    bad_prog = prog.__class__((prog.node("g"), bad_node))
    with pytest.raises(EvalError) as err:
        run_node(bad_prog, "f", {"c": [True, False], "x": [1, 2]}, 2)
    assert err.value.kind == "clocked-value-mismatch"


def test_subclocked_input_validated():
    src = """
node f(c: bool, x: int when c) returns (y: int);
let
  y = merge c x (0 when not c);
tel
"""
    prog = elaborate(parse_program(src))
    H, _ = run_node(prog, "f", {"c": [True, False, True], "x": [1, A, 3]}, 3)
    assert H["y"] == [1, 0, 3]
    with pytest.raises(EvalError):
        run_node(prog, "f", {"c": [True, False], "x": [1, 2]}, 2)


def test_clock_discipline_of_outputs():
    prog = elaborate(parse_program(RE_TRIG_SRC))
    i = [True, False, False, True, False]
    n = [2, 2, 2, 2, 2]
    H, bs = run_node(prog, "re_trig", {"i": i, "n": n}, 5)
    ck_stream = eval_clock(H, bs, ClockOn(BASE_CLOCK, "ck", True))
    # v6-analogue lives inside; here check output presence matches base
    assert all(v is not ABSENT for v in H["o"])
    assert len(ck_stream) == 5


def test_absent_base_ticks_freeze_node():
    # drive a node on a base clock with holes: state must persist
    prog = elaborate(parse_program(
        "node count(x: int) returns (n: int);\n"
        "var p: int;\nlet\n  n = p + x;\n  p = 0 fby n;\ntel"))
    xs = [1, A, 1, A, 1]
    bs = [True, False, True, False, True]
    H, _ = run_node(prog, "count", {"x": xs}, 5, bs=bs)
    assert H["n"] == [1, A, 2, A, 3]


def test_base_clock_length_checked(ctr_prog):
    ins = {k: CTR_TABLE[k] for k in ("init", "incr", "rst")}
    with pytest.raises(EvalError) as err:
        run_node(ctr_prog, "Ctr", ins, 3, bs=[True])
    assert err.value.kind == "arity-mismatch"
    H, bs = run_node(ctr_prog, "Ctr", ins, 3, bs=[True] * 7)
    assert bs == [True] * 3 and H["n"] == CTR_TABLE["n"][:3]


def test_delay_operand_off_clock_diagnostics():
    """Both delay forms run through one class; an equation-level delay of
    the normal form names its target, a source `fby` does not."""
    prog = elaborate(parse_program(
        "node f(a: int; b: int) returns (y: int) let y = 0 fby a; tel"))
    nprog, _ = normalize_program(prog)
    ins = {"a": [1, A, 3], "b": [1, 2, 3]}
    for p, msg, var in ((prog, "fby operands disagree on presence", None),
                        (nprog, "delayed operand of y off its clock", "y")):
        with pytest.raises(EvalError) as err:
            interpret_node(p, p.node("f"), ins, 3, [True] * 3)
        assert (err.value.kind, err.value.tick, err.value.var) == \
            ("clocked-value-mismatch", 1, var)
        assert msg in str(err.value)


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def test_interpreter_agrees_with_stream_operators():
    # dual route: the tick-major node machine vs direct composition of the
    # whole-prefix operators, over random streams
    rng = random.Random(23)
    src = """
node ops(c: bool; a, b: int) returns (s, d, w, m: int; g: bool);
let
  s = a + b;
  d = if c then a else b;
  w = merge c (a when c) (b when not c);
  m = 3 fby (a * b);
  g = not c;
tel
"""
    prog = elaborate(parse_program(src))
    for _ in range(30):
        n = rng.randint(1, 16)
        bs = [True] * n
        c = [rng.random() < 0.5 for _ in range(n)]
        a = [rng.randint(-9, 9) for _ in range(n)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        H, _ = run_node(prog, "ops", {"c": c, "a": a, "b": b}, n)
        assert H["s"] == lift_binop("+", a, b)
        assert H["d"] == ite_stream(c, a, b)
        assert H["w"] == merge_stream(c, when_stream(True, c, a),
                                      when_stream(False, c, b))
        assert H["m"] == fby_lustre(const_stream(3, bs), lift_binop("*", a, b))
        assert H["m"] == fby_nlustre(3, lift_binop("*", a, b))
        assert H["g"] == lift_unop("not", c)


def test_trace_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    H = {"a": [1, A, -3], "b": [True, False, A]}
    path.write_text("a,b\n" + "".join(f"{show_value(a)},{show_value(b)}\n"
                                       for a, b in zip(H["a"], H["b"])))
    back, bs = read_trace(path)
    assert back == H and bs is None


def test_trace_base_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("base,x\ntrue,1\nfalse,_\ntrue,3\n")
    streams, bs = read_trace(path)
    assert bs == [True, False, True]
    assert streams == {"x": [1, A, 3]}


def test_trace_bad_cell(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x\noops\n")
    with pytest.raises(EvalError):
        read_trace(path)


TRACE_NAMES = ["a", "b", "base", " c", "a "]
TRACE_CELLS = [" 1", "2 ", "-3", "0", "_", " _ ", "true", "false", " true", str(-(1 << 63)),
               str((1 << 63) - 1), "9223372036854775808", "-9223372036854775809", "1_000", "+4",
               "٣", "\x1c5", "True", "junk", "", " "]
COLUMN_KINDS = {"int": ["-7", "0", "12", " 3"], "bool": ["true", "false"],
                "mixed": ["_", "1", " 2", "true"], "pool": TRACE_CELLS}


def _trace_outcome(read):
    try:
        streams, bs = read()
    except EvalError as exc:
        return "error", exc.kind, str(exc)
    typed = {x: [(type(v), v) for v in vs] for x, vs in streams.items()}
    return "ok", list(streams), typed, bs and [(type(v), v) for v in bs]


def test_read_trace_matches_row_major_reader(tmp_path):
    """The columnar decoder against the row-major reference on random traces:
    same values and value types, or the same diagnostic."""
    rng = random.Random(8)
    path = tmp_path / "t.csv"
    seen = {"ok": 0, "error": 0}
    for _ in range(3000):
        header = [rng.choice(TRACE_NAMES) for _ in range(rng.randint(0, 4))]
        kinds = [rng.choice(list(COLUMN_KINDS)) for _ in header]
        lines = [",".join(header)]
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.08:
                lines.append(rng.choice(["", " ", ",", " , "]))
                continue
            row = [rng.choice(COLUMN_KINDS[k]) for k in kinds]
            if rng.random() < 0.05:
                row = row + ["1"] if rng.random() < 0.5 else row[:-1]
            lines.append(",".join(row))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = _trace_outcome(lambda: read_trace(path))
        assert got == _trace_outcome(lambda: _trace_by_rows(_csv_rows(path))), lines
        seen[got[0]] += 1
    assert min(seen.values()) > 500, seen
