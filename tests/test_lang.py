import pytest

from luset.cli import main
from luset.diagnostics import ElaborationError
from luset.infer import infer_program
from luset.lang import (BASE_CLOCK, Binop, Call, ClockOn, Const, Def, Fby, Ite,
                        Merge, NCall, NDef, NFby, Ty, Unop, Var, VarDecl, When,
                        causality, defined_vars, elaborate,
                        free_vars, node_order, well_formed)
from luset.parser import parse_program

from conftest import CTR_SPDMTR_SRC


def decl(name, ty=Ty.INT, ck=BASE_CLOCK):
    return VarDecl(name, ty, ck)


# ---------------------------------------------------------------------------
# free/defined variables, rule by rule
# ---------------------------------------------------------------------------

def test_fv_const_is_empty():
    assert free_vars(Const(5)) == set()


def test_fv_var():
    assert free_vars(Var("x")) == {"x"}


def test_fv_unop_binop():
    assert free_vars(Unop("-", Var("x"))) == {"x"}
    assert free_vars(Binop("+", Var("x"), Var("y"))) == {"x", "y"}


def test_fv_when_includes_sampler():
    assert free_vars(When((Var("y"),), "x", True)) == {"y", "x"}


def test_fv_merge_ite():
    assert free_vars(Merge("x", (Var("a"),), (Var("b"),))) == {"x", "a", "b"}
    assert free_vars(Ite(Var("c"), (Var("a"),), (Var("b"),))) == {"c", "a", "b"}


def test_fv_fby_and_call():
    assert free_vars(Fby((Var("a"),), (Var("b"),))) == {"a", "b"}
    assert free_vars(Call("f", (Var("a"), Const(1)))) == {"a"}


def test_fv_clsocks_include_base():
    assert free_vars(BASE_CLOCK) == {"base"}
    assert free_vars(ClockOn(BASE_CLOCK, "x", True)) == {"base", "x"}


def test_fv_equation_subtracts_defined():
    # pre_n = 0 fby n
    eq = Def(("pre_n",), None, (Fby((Const(0),), (Var("n"),)),))
    assert free_vars(eq) == {"n"}
    assert defined_vars(eq) == {"pre_n"}


def test_fv_normalised_equations_include_clock():
    eq = NFby("pre_n", BASE_CLOCK, Const(0), Var("n"))
    assert free_vars(eq) == {"n", "base"}
    eq2 = NDef("x", ClockOn(BASE_CLOCK, "c", True), Var("y"))
    assert free_vars(eq2) == {"base", "c", "y"}
    eq3 = NCall(("a", "b"), BASE_CLOCK, "f", (Var("e"),))
    assert free_vars(eq3) == {"base", "e"}
    assert defined_vars(eq3) == {"a", "b"}


def test_defined_vars_examples():
    assert defined_vars(Def(("spd",), None, (Call("Ctr", ()),))) == {"spd"}
    assert defined_vars(Def(("a", "b"), None, (Call("f", (Var("e"),)),))) == {"a", "b"}


def test_equations_free_vars_of_node_body(ctr_prog):
    node = ctr_prog.node("Ctr")
    fv, dv = set(), set()
    for eq in node.equations:
        fv |= free_vars(eq)
        dv |= defined_vars(eq)
    assert fv - dv == {"init", "incr", "rst"}
    assert dv == {"n", "fst", "pre_n"}


# ---------------------------------------------------------------------------
# well-formedness diagnostics
# ---------------------------------------------------------------------------

def test_well_formed_accepts_paper_programs():
    assert well_formed(parse_program(CTR_SPDMTR_SRC)) == []


def test_duplicate_definition_reported():
    prog = parse_program("""
node f(x: int) returns (n: int);
let
  n = x;
  n = x + 1;
tel
""")
    kinds = [d.kind for d in well_formed(prog)]
    assert "duplicate-definition" in kinds


def test_recursive_calls_reported():
    prog = parse_program("""
node f(x: int) returns (y: int); let y = g(x); tel
node g(x: int) returns (y: int); let y = f(x); tel
""")
    kinds = [d.kind for d in well_formed(prog)]
    assert "recursive-call" in kinds


def test_missing_definition_and_free_variable():
    prog = parse_program("""
node f(x: int) returns (y: int);
var z: int;
let
  y = w + 1;
tel
""")
    kinds = {d.kind for d in well_formed(prog)}
    assert {"missing-definition", "free-variable"} <= kinds


def test_input_defined_reported():
    prog = parse_program("node f(x: int) returns (y: int); let x = 1; y = 2; tel")
    kinds = {d.kind for d in well_formed(prog)}
    assert "input-defined" in kinds


def test_unknown_node_reported():
    prog = parse_program("node f(x: int) returns (y: int); let y = nope(x); tel")
    assert "unknown-node" in {d.kind for d in well_formed(prog)}


# ---------------------------------------------------------------------------
# clock elaboration
# ---------------------------------------------------------------------------

def test_all_base_program_gets_base_clocks(ctr_prog):
    for eq in ctr_prog.node("Ctr").equations:
        assert eq.clock == BASE_CLOCK


def test_sampled_call_equation_gets_derived_clock(re_trig_prog):
    node = re_trig_prog.node("re_trig")
    (veq,) = [eq for eq in node.equations if "v" in eq.targets]
    # v = merge ck ... sits on base; its true branch call runs on base on ck
    assert veq.clock == BASE_CLOCK


def test_binop_across_clocks_rejected():
    src = """
node f(x: int, c: bool) returns (y: int);
let
  y = x + (x when c);
tel
"""
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_program(src))
    assert any(d.kind == "clock-mismatch" for d in err.value.diagnostics)


def test_merge_requires_complementary_branches():
    src = """
node f(x: int, c: bool) returns (y: int);
let
  y = merge c (x when c) x;
tel
"""
    with pytest.raises(ElaborationError):
        elaborate(parse_program(src))


def test_arity_mismatch_detected():
    src = """
node two(x: int) returns (a, b: int);
let
  a = x; b = x;
tel
node f(x: int) returns (y: int);
let
  y = two(x);
tel
"""
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_program(src))
    assert any(d.kind == "arity-mismatch" for d in err.value.diagnostics)


def test_type_mismatch_detected():
    with pytest.raises(ElaborationError):
        elaborate(parse_program("node f(x: int) returns (y: bool); let y = x + 1; tel"))


def test_declared_local_clock_used(re_trig_prog):
    # clock annotations land on declarations after parsing `when`
    src = """
node f(c: bool, x: int) returns (y: int);
var s: int when c;
let
  s = x when c;
  y = merge c s (0 when not c);
tel
"""
    prog = elaborate(parse_program(src))
    node = prog.node("f")
    assert node.decl("s").clock == ClockOn(BASE_CLOCK, "c", True)
    (seq,) = [eq for eq in node.equations if eq.targets == ("s",)]
    assert seq.clock == ClockOn(BASE_CLOCK, "c", True)


# ---------------------------------------------------------------------------
# causality
# ---------------------------------------------------------------------------

def test_fby_breaks_cycle(ctr_prog):
    res = causality(ctr_prog.node("Ctr"))
    assert res.ok
    order = [ctr_prog.node("Ctr").equations[i].targets[0] for i in res.order]
    # fst and pre_n are readable before n; n reads both instantaneously
    assert order.index("n") > order.index("fst")
    assert order.index("n") > order.index("pre_n")


def test_self_cycle_detected():
    prog = parse_program("node f(x: int) returns (y: int); let y = y + 1; tel")
    res = causality(prog.node("f"))
    assert not res.ok
    assert res.cycle == ("y",)


def test_two_variable_cycle_detected():
    prog = parse_program("""
node f(x: int) returns (a: int);
var b: int;
let
  a = b;
  b = a;
tel
""")
    res = causality(prog.node("f"))
    assert not res.ok
    assert set(res.cycle) == {"a", "b"}


def test_order_reads_only_earlier_or_delayed(ctr_prog):
    node = ctr_prog.node("Ctr")
    res = causality(node)
    seen = set()
    from luset.lang import eq_instantaneous_deps, eq_targets
    inputs = {d.name for d in node.inputs}
    for i in res.order:
        eq = node.equations[i]
        deps = eq_instantaneous_deps(eq) - inputs - {"base"}
        assert deps <= seen
        seen |= set(eq_targets(eq))


# ---------------------------------------------------------------------------
# schedules, cycles and recursion budget pinned to exact values
# ---------------------------------------------------------------------------

def test_node_order_and_signature_numbering():
    prog = elaborate(parse_program("""
node A(x: int) returns (y: int); let y = B(x); tel
node B(x: int) returns (y: int); let y = C(x) + 1; tel
node C(x: int) returns (y: int); let y = x; tel
node D(a, b: int) returns (y: int); let y = a + b; tel
"""))
    # each pass schedules every ready node in program order
    assert node_order(prog) == ["C", "D", "B", "A"]
    sigs = {name: res.signature.display() for name, res in infer_program(prog).items()}
    assert sigs["A"] == "A(α4) ⇒γ3 β3 {| γ3⊔α4 ⊑ β3 |}"
    assert sigs["D"] == "D(α1, α2) ⇒γ1 β1 {| γ1⊔α1⊔α2 ⊑ β1 |}"


def test_causality_order_is_pass_by_pass():
    prog = parse_program("""
node f(a: int) returns (y: int);
var x1, x2, z: int;
let
  y = x2 + 1;
  x2 = x1 + 1;
  x1 = a;
  z = a;
tel
""")
    assert causality(prog.node("f")).order == (2, 3, 1, 0)


def test_causality_cycle_found_from_smallest_name():
    prog = parse_program("""
node f(x: int) returns (y: int);
var a, b, c, d: int;
let
  d = a;
  a = b;
  b = c;
  c = a + x;
  y = d;
tel
""")
    # d and y wait on the cycle but are not part of it
    assert causality(prog.node("f")).cycle == ("a", "b", "c")


def test_call_cycle_message_closes_the_cycle():
    prog = parse_program("""
node f(x: int) returns (y: int); let y = g(x); tel
node g(x: int) returns (y: int); let y = h(x); tel
node h(x: int) returns (y: int); let y = g(x); tel
""")
    assert [str(d) for d in well_formed(prog)] == ["recursive-call: node call cycle: g -> h -> g"]


@pytest.mark.parametrize("command, terms", [("signature", 300), ("normalize", 400), ("run", 400),
                                            ("signature", 800), ("normalize", 800), ("run", 800)])
def test_long_flat_sum_within_recursion_budget(tmp_path, capsys, command, terms):
    src = tmp_path / "sum.lus"
    src.write_text("node f(x: int) returns (y: int); let y = " + " + ".join(["x"] * terms) + "; tel")
    (tmp_path / "x.csv").write_text("x\n1\n2\n")
    run = ["--node", "f", "--inputs", str(tmp_path / "x.csv")] if command == "run" else []
    assert main([command, str(src)] + run) == 0
    if command == "run":
        assert capsys.readouterr().out == f"y,{terms},{2 * terms}\n"
