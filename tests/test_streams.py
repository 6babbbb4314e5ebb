import csv
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luset import streams
from luset.diagnostics import CausalityError, ElaborationError, EvalError
from luset.lang import (BASE_CLOCK, Binop, Call, ClockBase, ClockOn, Const, Fby, NCall, Unop,
                        Var, clock_vars, elaborate)
from luset.normalize import normalize_program
from luset.parser import parse_program
from luset.semantics import (base_of, const_stream, fby_lustre, fby_nlustre, ite_stream,
                             lift_binop, lift_unop, merge_stream, sem_exp, when_stream)
from luset.streams import (ABSENT, _csv_rows, _trace_by_rows, eval_clock, read_trace, run_node,
                           show_value)

from conftest import CTR_SRC, CTR_TABLE, RE_TRIG_SRC, presence_fold
from interpreter import NodeInstance, interpret_node

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


def _ref_tick_clock(ck, vals, bs_t, t):
    """The recursive per-tick clock evaluator that compiled clocks replaced."""
    match ck:
        case ClockBase():
            return bs_t
        case ClockOn(base, x, k):
            b = _ref_tick_clock(base, vals, bs_t, t)
            v = vals[x]
            if b and v is A:
                raise EvalError("clocked-value-mismatch",
                                f"clock variable {x} absent while its clock is live", t, x)
            if not b and v is not A:
                raise EvalError("clocked-value-mismatch",
                                f"clock variable {x} present while its clock is idle", t, x)
            return bool(b and v == k)
    raise TypeError(f"unsupported {ck!r}")


def _ref_eval_clock(history, bs, ck):
    names = clock_vars(ck)
    for x in names:
        if x not in history:
            raise EvalError("unbound-var", f"clock variable {x} has no stream")
    n = min([len(bs)] + [len(history[x]) for x in names])
    return [_ref_tick_clock(ck, {x: history[x][t] for x in names}, bs[t], t) for t in range(n)]


def _clock_outcome(evaluate, history, bs, ck):
    try:
        return [(type(b), b) for b in evaluate(history, bs, ck)]
    except EvalError as exc:
        return (exc.kind, exc.tick, exc.var, str(exc))


def _rarely():
    return st.sampled_from([False] * 11 + [True])


@st.composite
def _clocked_histories(draw):
    """A nested clock, a base clock and a history of the clock's variables:
    each value is present where the clock it is sampled on is live, except
    where a draw puts it off that clock; now and then a variable is missing."""
    n = draw(st.integers(0, 6))
    bs = draw(st.lists(st.booleans(), min_size=n, max_size=n + 2))
    ck, live, history = BASE_CLOCK, bs[:n], {}
    for _ in range(draw(st.integers(0, 4))):
        ck = ClockOn(ck, draw(st.sampled_from("abcd")), draw(st.booleans()))
        if ck.var not in history:
            history[ck.var] = [draw(st.sampled_from([True, False, 0, 1, 2]))
                               if b != draw(_rarely()) else A for b in live]
        live = [b and v is not A and v == ck.value for b, v in zip(live, history[ck.var])]
    if history and draw(_rarely()):
        del history[draw(st.sampled_from(sorted(history)))]
    return history, bs, ck


@settings(derandomize=True, max_examples=400)
@given(_clocked_histories())
def test_compiled_clocks_match_the_recursive_evaluator(case):
    """`eval_clock` runs each clock compiled once; it gives the recursive
    evaluator's list, or its error with the same kind, tick, variable and
    message."""
    history, bs, ck = case
    assert _clock_outcome(eval_clock, history, bs, ck) == \
        _clock_outcome(_ref_eval_clock, history, bs, ck)


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------

def test_sem_exp_var_and_ops():
    prog = parse_program("")
    H = {"x": [1, 2, 3]}
    bs = [True] * 3
    assert sem_exp(prog, H, bs, Var("x")) == [[1, 2, 3]]
    assert sem_exp(prog, H, bs, Binop("+", Var("x"), Const(1))) == [[2, 3, 4]]


def test_sem_exp_tuple_fby_componentwise():
    prog = parse_program("")
    H = {"a": [1, 2], "b": [7, 8], "c": [3, 4], "d": [9, 9]}
    bs = [True, True]
    fby = Fby((Var("a"), Var("b")), (Var("c"), Var("d")))
    out = sem_exp(prog, H, bs, fby)
    assert out == [fby_lustre(H["a"], H["c"]), fby_lustre(H["b"], H["d"])]


def test_sem_exp_node_call():
    # first tick takes the initial value, later ticks accumulate: same rule
    # as the counter's example run (tick 0 emits init itself)
    prog = parse_program(CTR_SRC)
    H = {"acc": [1, 2, 5]}
    bs = [True, True, True]
    out = sem_exp(prog, H, bs, Call("Ctr", (Const(0), Var("acc"), Const(False))))
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


def test_sem_exp_relevant_variables():
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
        assert sem_exp(prog, H1, bs, e) == sem_exp(prog, H2, bs, e)


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
    assert run_node(prog, "id", {"x": [4, A, 6]}, 3)[0]["y"] == [4, A, 6]


def test_run_node_copies_its_inputs(ctr_prog):
    """`run_node` leaves its `inputs` argument as it was, and the input
    streams of the history it returns are its own lists."""
    ins = {k: list(CTR_TABLE[k]) for k in ("init", "incr", "rst")}
    before = {x: list(vs) for x, vs in ins.items()}
    for n in (7, 4):
        H, _ = run_node(ctr_prog, "Ctr", ins, n)
        assert ins == before
        assert all(H[x] is not ins[x] and H[x] == before[x][:n] for x in ins)
        H["init"][0] = 99
        assert ins == before


def _run_outcome(prog, name, ins, n, bs=None):
    """The typed history and base clock of a run, or its error's kind,
    tick, variable and message."""
    try:
        history, bs = run_node(prog, name, ins, n, bs)
    except EvalError as exc:
        return (exc.kind, exc.tick, exc.var, str(exc))
    return {x: [(type(v), v) for v in vs] for x, vs in history.items()}, bs


def test_default_base_clock_matches_the_zip_fold():
    """The clock a run given none is judged on (`check_inputs` builds it, with
    the early `[True] * n_ticks` of an input present throughout) is the
    presence fold: a run on it ends as a run on the fold, and one that
    passes returns the fold, on inputs at least `n_ticks` long."""
    progs = {(k, ty): parse_program(f"node f({', '.join(f'x{i}: {ty}' for i in range(k))}) "
                                    "returns (y: int); let y = 1; tel")
             for k in range(5) for ty in ("int", "bool")}
    rng = random.Random(3)
    seen = {"no inputs": 0, "no ticks": 0, "all absent somewhere": 0, "mixed": 0, "ran": 0}
    for _ in range(3000):
        n = rng.randint(0, 8)
        k, ty = rng.randint(0, 4), rng.choice(["int", "bool"])
        prog = progs[k, ty]
        ins = []
        for _ in range(k):
            p_absent = rng.choice([0.0, 0.3, 0.9, 1.0])
            ins.append([A if rng.random() < p_absent else
                        rng.choice([0, 5] if ty == "int" else [True, False])
                        for _ in range(n + rng.randint(0, 2))])
        streams = {f"x{i}": vs for i, vs in enumerate(ins)}
        fold = presence_fold(ins, n)
        got = _run_outcome(prog, "f", streams, n)
        assert got == _run_outcome(prog, "f", streams, n, fold), ins
        if isinstance(got[0], dict):
            assert got[1] == fold and all(type(b) is bool for b in got[1]), ins
            seen["ran"] += 1
        present = [A not in vs for vs in ins]
        seen["no inputs"] += not ins
        seen["no ticks"] += n == 0
        seen["all absent somewhere"] += bool(ins) and not any(present)
        seen["mixed"] += any(present) and not all(present)
    assert min(seen.values()) > 100, seen


def test_eval_node_deterministic(ctr_prog):
    ins = {k: CTR_TABLE[k] for k in ("init", "incr", "rst")}
    assert run_node(ctr_prog, "Ctr", ins, 7)[0]["n"] == run_node(ctr_prog, "Ctr", ins, 7)[0]["n"]


def test_causality_cycle_raises():
    prog = parse_program("node f(x: int) returns (y: int); let y = y + 1; tel")
    with pytest.raises(CausalityError):
        run_node(prog, "f", {"x": [1, 2]}, 2)


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
    ins = {"c": [True, False], "x": [1, 2]}
    with pytest.raises(EvalError) as err:
        interpret_node(bad_prog, bad_node, ins, 2, [True, True])
    assert err.value.kind == "clocked-value-mismatch"
    # run_node runs the elaborated program, and elaboration refuses this one
    with pytest.raises(ElaborationError, match="clock-mismatch"):
        run_node(bad_prog, "f", ins, 2)


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


def _stepped(inst, ins, n):
    """`n` ticks of `inst.step` on the base clock: unlike `run`, it checks no
    input, so an input off its clock reaches the checks inside the tick."""
    for t in range(n):
        inst.step([ins[x][t] for x in inst.inputs], True)


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
            _stepped(NodeInstance(p, p.node("f")), ins, 3)
        assert (err.value.kind, err.value.tick, err.value.var) == \
            ("clocked-value-mismatch", 1, var)
        assert msg in str(err.value)


@pytest.mark.parametrize("src, elaborated, ins, width, diagnostic", [
    ("node f(a: int; b: int) returns (y, z: int) let (y, z) = (0, 0) fby (a, b); tel", True,
     {"a": [1, A, 3], "b": [1, 2, 3]}, 2,
     ("clocked-value-mismatch", 1, None, "fby operands disagree on presence")),
    ("node f(a: int; b: int) returns (y, z: int) let (y, z) = (0, 0) fby a; tel", False,
     {"a": [1, 2, 3], "b": [1, 2, 3]}, 2,
     ("arity-mismatch", 0, None, "fby arguments have different widths")),
    ("node f(a: int; b: int) returns (y: int) let y = 0 fby (a, b); tel", False,
     {"a": [1, 2, 3], "b": [1, 2, 3]}, 1,
     ("arity-mismatch", 0, None, "fby arguments have different widths")),
])
def test_delay_diagnostics_of_both_widths(src, elaborated, ins, width, diagnostic):
    """A `fby` of width 2 runs through the general delay and one of width 1
    through its own, with the same diagnostics."""
    prog = parse_program(src)
    prog = elaborate(prog) if elaborated else prog
    inst = NodeInstance(prog, prog.node("f"))
    assert [d.width for d in inst.updaters] == [width]
    with pytest.raises(EvalError) as err:
        _stepped(inst, ins, 3)
    kind, tick, var, msg = diagnostic
    assert (err.value.kind, err.value.tick, err.value.var) == (kind, tick, var)
    assert str(err.value).endswith(msg)


@pytest.mark.parametrize("src, ins, msg", [
    ("node f(c: bool; x: int) returns (o: int) let o = x; tel",
     {"c": [True, True], "x": [1, A]}, "o is absent while its clock is live"),
    ("node f(c: bool; x: int when c) returns (o: int when c) let o = x; tel",
     {"c": [True, False], "x": [1, 5]}, "o is present while its clock is idle"),
    ("node f(c: bool; x: int when c) returns (o, p: int when c) let (o, p) = (x, x); tel",
     {"c": [True, True], "x": [1, A]}, "o is absent while its clock is live"),
], ids=["base-clock", "sub-clock", "tuple"])
def test_equation_targets_checked_against_their_clock(src, ins, msg):
    """Each form of equation closure checks its targets against the
    equation's clock during the tick."""
    prog = elaborate(parse_program(src))
    with pytest.raises(EvalError) as err:
        _stepped(NodeInstance(prog, prog.node("f")), ins, 2)
    assert (err.value.kind, err.value.tick, err.value.var) == ("clocked-value-mismatch", 1, "o")
    assert str(err.value).endswith(msg)


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("run", [
    lambda prog, ins, n: run_node(prog, "ops", ins, n)[0],
    lambda prog, ins, n: interpret_node(prog, prog.node("ops"), ins, n, [True] * n),
], ids=["run_node", "interpret_node"])
def test_interpreter_agrees_with_stream_operators(run):
    # dual route: the tick-major node machine vs direct composition of the
    # whole-prefix operators, over random streams; `run_node` runs the
    # compiled code of `ops`, `interpret_node` the tree interpreter
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
        H = run(prog, {"c": c, "a": a, "b": b}, n)
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


def _irregular_trace(rng):
    """Text of a random trace with one irregularity, and whether it must
    leave the plain path: one that `csv` reads its own way or that is not
    plain, or an edge of the plain form (no final newline, blank rows at
    the end, no rows)."""
    header = [rng.choice(TRACE_NAMES) for _ in range(rng.randint(1, 3))]
    kinds = [rng.choice(list(COLUMN_KINDS)) for _ in header]
    rows = [header] + [[rng.choice(COLUMN_KINDS[k]) for k in kinds]
                       for _ in range(rng.randint(0, 5))]
    kind = rng.choice(["crlf", "cr", "quoted", "nul", "ragged", "no-final-newline",
                       "blank-tail", "header-only", "newline-only", "empty", "oversize"])
    if kind == "quoted":
        row = rng.choice(rows)
        j = rng.randrange(len(row))
        inner = rng.choice([row[j], row[j], "1,2", "tr\nue", "4\n", ",", '""'])
        row[j] = f'"{inner}"'
    if kind == "nul":
        row = rng.choice(rows)
        row[rng.randrange(len(row))] += "\0"
    if kind == "ragged":
        wide = rng.choice(rows) + [rng.choice(["1", "_", ""])]
        for row in [wide, wide[:-2]] if len(header) > 1 and rng.random() < 0.5 else [wide]:
            rows.insert(rng.randint(1, len(rows)), row)  # two rows can keep the cell count
    if kind == "oversize":
        rows[-1][rng.randrange(len(header))] = " " * (csv.field_size_limit() + 1) + "1"
    text = "".join(",".join(row) + "\n" for row in rows)
    if kind in ("crlf", "cr"):
        lines = text.split("\n")
        text = "".join(line + (rng.choice(["\r\n", "\n"]) if kind == "crlf" else
                               rng.choice(["\r", "\n", "\n"])) for line in lines[:-1])
        if "\r" not in text:
            text = text[:-1] + "\r\n"
    elif kind == "no-final-newline":
        text = text[:-1]
    elif kind == "blank-tail":
        text += rng.choice(["\n", "\n\n", " \n", ",\n", "\n \n"])
    elif kind == "header-only":
        text = ",".join(header) + rng.choice(["", "\n"])
    elif kind in ("newline-only", "empty"):
        text = "\n" if kind == "newline-only" else ""
    must_leave = kind in ("crlf", "cr", "quoted", "nul", "ragged", "newline-only", "empty",
                          "oversize")
    return text, must_leave


def test_read_trace_matches_row_major_reader_off_the_plain_path(tmp_path):
    """Files with CR or CRLF line ends, quoted cells, NUL, a ragged row, an
    oversize cell, no final newline, blank rows at the end, no rows or no
    text: the same values and value types as the row-major reference, or
    its diagnostic. Those that are not plain never take the plain path."""
    rng = random.Random(9)
    path = tmp_path / "t.csv"
    seen = {"ok": 0, "error": 0}
    for _ in range(2000):
        text, must_leave = _irregular_trace(rng)
        path.write_bytes(text.encode("utf-8"))
        if must_leave:
            assert streams._plain_columns(path) is None, repr(text[:200])
        got = _trace_outcome(lambda: read_trace(path))
        assert got == _trace_outcome(lambda: _trace_by_rows(_csv_rows(path))), repr(text[:200])
        seen[got[0]] += 1
    assert min(seen.values()) > 500, seen


def test_plain_trace_never_reaches_csv(tmp_path, monkeypatch):
    """A plain multi-column trace is read without `csv`."""
    def refuse(path):
        raise AssertionError("the plain trace went to the row-major reader")

    monkeypatch.setattr(streams, "_csv_rows", refuse)
    path = tmp_path / "t.csv"
    path.write_text("base, x ,b,y\ntrue,1,true,_\nfalse,_,_,_\ntrue, -2 ,false, 7\n")
    got = _trace_outcome(lambda: read_trace(path))
    assert got == ("ok", ["x", "b", "y"],
                   {"x": [(int, 1), (type(A), A), (int, -2)],
                    "b": [(bool, True), (type(A), A), (bool, False)],
                    "y": [(type(A), A), (type(A), A), (int, 7)]},
                   [(bool, True), (bool, False), (bool, True)])
