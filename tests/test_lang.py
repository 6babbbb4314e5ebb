import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from luset.cli import main
from luset.diagnostics import CausalityError, Diagnostic, ElaborationError
from luset.harness import gen_program
from luset.infer import infer_program
from luset.lang import (BASE, BASE_CLOCK, Binop, Call, ClockBase, ClockOn, Const, Def, Fby, Ite,
                        Merge, NCall, NDef, NFby, Node, Program, Ty, Unop, Var, VarDecl, When,
                        _find_cycle, _read_table, _reads_and_calls, _schedule, _subexprs,
                        causal_order, clock_vars, elaborate, eq_targets, free_vars,
                        input_dependences, nlustre_violations, node_order, well_formed)
from luset.normalize import normalize_program
from luset.parser import parse_program
from luset.sectypes import cs, ct, not_entailed

from conftest import CTR_SPDMTR_SRC, defined_vars

DATA = Path(__file__).resolve().parent / "data"
SAMPLES = DATA.parent.parent / "samples"


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


def test_unknown_nodes_reported_in_reading_order():
    prog = parse_program("node f(x: int) returns (y: int); let y = zap(x) + nope(zap(x), x); tel")
    assert [str(d) for d in well_formed(prog)] == [
        "f#eq0: unknown-node: call to undefined node zap",
        "f#eq0: unknown-node: call to undefined node nope"]


def test_duplicate_declaration_names_the_first_declared_of_the_repeated():
    # b is the first name met again, but a, repeated too, is declared first
    prog = parse_program("""
node f(a, b: int) returns (y: int);
var b, a: int;
let
  y = a;
tel
""")
    assert [str(d) for d in well_formed(prog) if d.kind == "duplicate-declaration"] == [
        "f: duplicate-declaration: variable a declared twice"]


def test_node_defined_three_times_says_so_once():
    prog = parse_program("node f(x: int) returns (y: int); let y = x; tel\n" * 3 +
                         "node g(x: int) returns (y: int); let y = x; tel\n" * 2)
    assert [str(d) for d in well_formed(prog)] == ["f: duplicate-node: node f defined 3 times",
                                                   "g: duplicate-node: node g defined twice"]


def test_input_declared_again_as_a_local_needs_no_definition():
    # defining x would be input-defined, so leaving it undefined is no fault
    prog = parse_program("node f(x: int) returns (y: int); var x: int; let y = x; tel")
    assert [str(d) for d in well_formed(prog)] == [
        "f: duplicate-declaration: variable x declared twice"]


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
    order = [ctr_prog.node("Ctr").equations[i].targets[0] for i in causal_order(ctr_prog, "Ctr")]
    # fst and pre_n are readable before n; n reads both instantaneously
    assert order.index("n") > order.index("fst")
    assert order.index("n") > order.index("pre_n")


def test_self_cycle_detected():
    prog = parse_program("node f(x: int) returns (y: int); let y = y + 1; tel")
    with pytest.raises(CausalityError) as exc:
        causal_order(prog, "f")
    assert exc.value.cycle == ["y"]


def test_two_variable_cycle_detected():
    prog = parse_program("""
node f(x: int) returns (a: int);
var b: int;
let
  a = b;
  b = a;
tel
""")
    with pytest.raises(CausalityError) as exc:
        causal_order(prog, "f")
    assert set(exc.value.cycle) == {"a", "b"}


def test_order_reads_only_earlier_or_delayed(ctr_prog):
    node = ctr_prog.node("Ctr")
    table = _read_table(node)
    seen = set()
    inputs = {d.name for d in node.inputs}
    for i in causal_order(ctr_prog, "Ctr"):
        targets, now, _ = table[i]
        assert now - inputs - {"base"} <= seen
        seen |= set(targets)


def test_input_dependences_hold_every_flow_the_signature_forces():
    """Inference as an oracle for the read table's reads-at-all column:
    when a node's signature forces an input's type α below an output's β,
    the output can read that input. Source and normal form of 500 draws."""
    rng = random.Random(0)
    forced = 0
    for _ in range(500):
        eprog = elaborate(gen_program(rng))
        for prog in (eprog, normalize_program(eprog)[0]):
            for name, res in infer_program(prog).items():
                node, sig = prog.node(name), res.signature
                names = dict(zip(sig.inputs + sig.outputs,
                                 [d.name for d in node.inputs + node.outputs]))
                flows = cs(*((ct(a), ct(b)) for a in sig.inputs for b in sig.outputs))
                free = {c for c, _ in not_entailed(sig.constraints, flows)}
                for c in flows:
                    if c not in free:
                        (a,), (b,) = c.lhs.vars, c.rhs.vars
                        assert names[a] in input_dependences(node, [names[b]]), (name, a, b)
                        forced += 1
    assert forced > 2500


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
    assert causal_order(prog, "f") == (2, 3, 1, 0)


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
    with pytest.raises(CausalityError) as exc:
        causal_order(prog, "f")
    assert exc.value.cycle == ["a", "b", "c"]


def test_call_cycle_message_closes_the_cycle():
    prog = parse_program("""
node f(x: int) returns (y: int); let y = g(x); tel
node g(x: int) returns (y: int); let y = h(x); tel
node h(x: int) returns (y: int); let y = g(x); tel
""")
    assert [str(d) for d in well_formed(prog)] == ["recursive-call: node call cycle: g -> h -> g"]


def test_call_graph_diagnostics_in_order():
    # an unknown callee is left out of the call graph; the calls of a node
    # defined twice join under its one name
    prog = parse_program("""
node a(x: int) returns (y: int); let y = b(x); tel
node b(x: int) returns (y: int); let y = c(x) + q(x); tel
node c(x: int) returns (y: int); let y = x; tel
node c(x: int) returns (y: int); let y = b(x) + a(x); tel
""")
    assert [str(d) for d in well_formed(prog)] == [
        "c: duplicate-node: node c defined twice",
        "b#eq0: unknown-node: call to undefined node q",
        "recursive-call: node call cycle: a -> b -> c -> a"]


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


# ---------------------------------------------------------------------------
# the structural walks, against the recursive definitions they replaced
# ---------------------------------------------------------------------------

# The recursive walks `free_vars`, `instantaneous_deps` and
# `nlustre_violations` were written as, one call per sub-expression.

def _free_vars_oracle(item) -> set[str]:
    match item:
        case Var(name):
            return {name}
        case When(_, x, _) | Merge(x, _, _):
            out = {x}
        case ClockBase():
            return {BASE}
        case ClockOn(ck, x, _):
            return _free_vars_oracle(ck) | {x}
        case Def(targets, _, exprs):
            return set().union(*map(_free_vars_oracle, exprs)) - set(targets)
        case NDef(x, ck, e) | NFby(x, ck, _, e):
            return (_free_vars_oracle(ck) | _free_vars_oracle(e)) - {x}
        case NCall(xs, ck, _, args):
            return (_free_vars_oracle(ck) | set().union(*map(_free_vars_oracle, args))) - set(xs)
        case _:
            out = set()
    for sub in _subexprs(item):
        out |= _free_vars_oracle(sub)
    return out


def _instantaneous_deps_oracle(expr) -> set[str]:
    match expr:
        case Var(x):
            return {x}
        case When(_, x, _) | Merge(x, _, _):
            out = {x}
        case _:
            out = set()
    for sub in expr.init if isinstance(expr, Fby) else _subexprs(expr):
        out |= _instantaneous_deps_oracle(sub)
    return out


def _eq_instantaneous_deps_oracle(eq) -> set[str]:
    match eq:
        case Def(_, ck, exprs) | NCall(_, ck, _, exprs):
            return set().union(*map(_instantaneous_deps_oracle, exprs)) | clock_vars(ck)
        case NDef(_, ck, e):
            return _instantaneous_deps_oracle(e) | clock_vars(ck)
        case NFby(_, ck, _, _):
            return clock_vars(ck)


def _nlustre_violations_oracle(prog) -> list[str]:
    diags = []

    def bad(msg, node, i):
        diags.append(str(Diagnostic("nlustre-shape", msg, node=node, eq_index=i)))

    def simple(e, node, i):
        match e:
            case Unop(_, a):
                simple(a, node, i)
            case Binop(_, a, b):
                simple(a, node, i)
                simple(b, node, i)
            case When(args, _, _):
                if len(args) != 1:
                    bad("when over a tuple", node, i)
                for a in args:
                    simple(a, node, i)
            case Merge() | Ite():
                bad("nested control expression", node, i)
            case Fby():
                bad("fby inside an expression", node, i)
            case Call():
                bad("node call inside an expression", node, i)

    def control(e, node, i):
        match e:
            case Merge(_, ts, fs):
                for b in ts + fs:
                    simple(b, node, i)
                if len(ts) != 1 or len(fs) != 1:
                    bad("merge over a tuple", node, i)
            case Ite(c, ts, fs):
                simple(c, node, i)
                for b in ts + fs:
                    simple(b, node, i)
                if len(ts) != 1 or len(fs) != 1:
                    bad("if over a tuple", node, i)
            case _:
                simple(e, node, i)

    for node in prog.nodes:
        for i, eq in enumerate(node.equations):
            match eq:
                case NDef(_, _, e):
                    control(e, node.name, i)
                case NFby(_, _, _, e):
                    simple(e, node.name, i)
                case NCall(_, _, _, args):
                    for a in args:
                        simple(a, node.name, i)
                case Def():
                    bad("unnormalised equation", node.name, i)
    return diags


def _reads_and_calls_oracle(eq) -> tuple[set[str], list[str]]:
    """Variables read, the clock's included, and the nodes called in the
    order a left-to-right walk meets them, the callee of an NCall first."""
    match eq:
        case Def(_, _, exprs):
            reads, calls = set(), []
        case NDef(_, ck, e) | NFby(_, ck, _, e):
            exprs, reads, calls = (e,), clock_vars(ck), []
        case NCall(_, ck, f, exprs):
            reads, calls = clock_vars(ck), [f]

    def walk(e):
        if isinstance(e, Call):
            calls.append(e.node)
        for sub in _subexprs(e):
            walk(sub)

    for e in exprs:
        reads |= _free_vars_oracle(e)
        walk(e)
    return reads, list(dict.fromkeys(calls))


def _recast(eq: Def, ck, sampler: str, callee: str) -> list:
    """A single-target equation in six shapes of or near the core form:
    its expression as an NDef, an NFby body, both arguments of a call, a
    merge, an `if` and a `when`, each of the last three over a pair."""
    (x,), (e,) = eq.targets, eq.exprs
    return [NDef(x, ck, e), NFby(x, ck, Const(0), e), NCall((x,), ck, callee, (e, e)),
            NDef(x, ck, Merge(sampler, (e, e), (e,))), NDef(x, ck, Ite(e, (e,), (e, e))),
            NDef(x, ck, When((e, e), sampler, False))]


def _eq_exprs(eq):
    match eq:
        case Def(_, _, exprs) | NCall(_, _, _, exprs):
            return exprs
        case NDef(_, _, e) | NFby(_, _, _, e):
            return (e,)


def test_structural_walks_match_the_recursive_definitions():
    """Diagnostics in order, free variables, instantaneous dependencies,
    reads and call order of the source, elaborated and normalised
    equations of generated programs, each single-target equation also
    recast into the core shapes and out of them."""
    rng = random.Random(20)
    for _ in range(300):
        prog = gen_program(rng)
        eprog = elaborate(prog)
        nprog, _ = normalize_program(eprog)
        nodes = []
        for src, elab, norm in zip(prog.nodes, eprog.nodes, nprog.nodes):
            sampler = next((d.name for d in src.declarations if d.ty is Ty.BOOL), "c")
            recast = [r for eq in elab.equations if len(eq.targets) == 1 == len(eq.exprs)
                      for r in _recast(eq, ClockOn(eq.clock, sampler, True), sampler, src.name)]
            eqs = src.equations + elab.equations + norm.equations + tuple(recast)
            nodes.append(replace(src, equations=eqs))
        mixed = Program(tuple(nodes))
        assert [str(d) for d in nlustre_violations(mixed)] == _nlustre_violations_oracle(mixed)
        assert nlustre_violations(nprog) == []
        for node in mixed.nodes:
            for eq, (targets, now, ever) in zip(node.equations, _read_table(node), strict=True):
                assert free_vars(eq) == _free_vars_oracle(eq), eq
                assert free_vars(eq.clock or BASE_CLOCK) == _free_vars_oracle(eq.clock or BASE_CLOCK)
                assert now == _eq_instantaneous_deps_oracle(eq), eq
                reads, calls = _reads_and_calls(eq)
                assert (reads, list(calls)) == _reads_and_calls_oracle(eq), eq
                assert (targets, ever) == (eq_targets(eq), reads | clock_vars(eq.clock)), eq
                for e in _eq_exprs(eq):
                    assert free_vars(e) == _free_vars_oracle(e), e


@pytest.mark.parametrize("eq, msgs", [
    (Def(("y",), None, (Var("x"),)), ["unnormalised equation"]),
    (NDef("y", BASE_CLOCK, Binop("+", Var("x"), Ite(Var("b"), (Var("x"),), (Const(0),)))),
     ["nested control expression"]),
    (NDef("y", BASE_CLOCK, Merge("b", (Merge("b", (Var("x"),), (Var("x"),)),), (Var("x"),))),
     ["nested control expression"]),
    (NFby("y", BASE_CLOCK, Const(0), Unop("-", Fby((Const(0),), (Var("x"),)))),
     ["fby inside an expression"]),
    (NCall(("y",), BASE_CLOCK, "g", (Binop("*", Call("g", (Var("x"),)), Var("x")),)),
     ["node call inside an expression"]),
    (NDef("y", BASE_CLOCK, When((Var("x"), Var("x")), "b", True)), ["when over a tuple"]),
    (NDef("y", BASE_CLOCK, Merge("b", (Var("x"), Var("x")), (Var("x"),))), ["merge over a tuple"]),
    (NDef("y", BASE_CLOCK, Ite(Var("b"), (Var("x"),), (Var("x"), Var("x")))), ["if over a tuple"]),
    # branch faults come in reading order, before the width of the control expression
    (NDef("y", BASE_CLOCK, Ite(Call("g", ()), (When((Var("x"), Fby((), ())), "b", False),),
                               (Var("x"), Merge("b", (), ())))),
     ["node call inside an expression", "when over a tuple", "fby inside an expression",
      "nested control expression", "if over a tuple"]),
], ids=["unnormalised", "nested-if", "nested-merge", "fby-inside", "call-inside",
        "when-over-tuple", "merge-over-tuple", "if-over-tuple", "reading-order"])
def test_nlustre_shape_messages(eq, msgs):
    ok = NDef("z", BASE_CLOCK, Ite(Var("b"), (Var("x"),), (Const(1),)))
    prog = Program((Node("f", (), (), (), (ok, eq, ok)),))
    assert [str(d) for d in nlustre_violations(prog)] == [f"f#eq1: nlustre-shape: {m}" for m in msgs]


def test_structural_walks_do_not_recurse():
    deep = Var("x")
    for _ in range(10_000):
        deep = Unop("not", deep)
    node = Node("f", (decl("x", Ty.BOOL),), (decl("y", Ty.BOOL),), (),
                (Def(("y",), None, (deep,)),))
    assert free_vars(deep) == {"x"}
    assert causal_order(Program((node,)), "f") == (0,)
    assert well_formed(Program((node,))) == []
    with pytest.raises(ElaborationError) as err:  # the typing walk does recurse
        elaborate(Program((node,)))
    assert [d.kind for d in err.value.diagnostics] == ["nesting-too-deep"]


# ---------------------------------------------------------------------------
# the one elaboration pass, against the two walks it replaced
# ---------------------------------------------------------------------------

# Elaboration was written as a structural walk of every equation (`_well_formed`,
# which `well_formed` returned and `node_order` scheduled) followed, when it found
# nothing, by a typing walk that matched each expression on its class.

def _well_formed_oracle(prog):
    diags = []
    counts = Counter(node.name for node in prog.nodes)
    seen = set()
    for node in prog.nodes:
        if node.name in seen and node.name in counts:
            n = counts.pop(node.name)
            times = "twice" if n == 2 else f"{n} times"
            diags.append(Diagnostic("duplicate-node", f"node {node.name} defined {times}", node=node.name))
        seen.add(node.name)

    deps = {n.name: set() for n in prog.nodes}
    for node in prog.nodes:
        decl_names = [d.name for d in node.declarations]
        declared = set(decl_names)
        if len(declared) < len(decl_names):
            counts = Counter(decl_names)
            name = next(x for x in decl_names if counts[x] > 1)
            diags.append(Diagnostic("duplicate-declaration", f"variable {name} declared twice", node=node.name))
        input_names = {d.name for d in node.inputs}
        must_define = ({d.name for d in node.outputs} | {d.name for d in node.locals}) - input_names
        defined = {}
        for i, eq in enumerate(node.equations):
            targets = eq_targets(eq)
            for x in targets:
                if x in defined:
                    diags.append(Diagnostic("duplicate-definition", f"{x} defined more than once",
                                            node=node.name, eq_index=i))
                defined[x] = i
                if x in input_names:
                    diags.append(Diagnostic("input-defined", f"input {x} must not be defined",
                                            node=node.name, eq_index=i))
                elif x not in must_define:
                    diags.append(Diagnostic("undeclared-definition", f"{x} is not an output or local",
                                            node=node.name, eq_index=i))
            reads, calls = _reads_and_calls(eq)
            stray = reads.difference(declared, targets, (BASE,))
            if stray:
                diags.append(Diagnostic("free-variable", f"undeclared variable(s) {', '.join(sorted(stray))}",
                                        node=node.name, eq_index=i))
            for f in calls:
                if f in deps:
                    deps[node.name].add(f)
                else:
                    diags.append(Diagnostic("unknown-node", f"call to undefined node {f}",
                                            node=node.name, eq_index=i))
        missing = must_define - set(defined)
        if missing:
            diags.append(Diagnostic("missing-definition",
                                    f"no equation defines {', '.join(sorted(missing))}", node=node.name))

    cycle = _find_cycle(deps, deps)
    if cycle:
        diags.append(Diagnostic("recursive-call", f"node call cycle: {' -> '.join(cycle + cycle[:1])}"))
    return diags, deps


# The typing walk's own operator sets, so that it does not read the table
# `lang.OPERATORS` it checks elaboration against.
ARITH_OPS = {"+", "-", "*", "div", "mod"}
CMP_OPS = {"<", "<=", ">", ">="}
EQ_OPS = {"=", "<>"}
BOOL_OPS = {"and", "or"}


class _NodeEnvOracle:
    def __init__(self, prog, node, diags):
        self.prog = prog
        self.node = node
        self.decls = {d.name: d for d in node.declarations}
        self.diags = diags
        self.i = None

    def clock_of(self, name):
        return self.decls[name].clock

    def ty_of(self, name):
        return self.decls[name].ty

    def bad(self, kind, msg):
        self.diags.append(Diagnostic(kind, msg, node=self.node.name, eq_index=self.i))

    def unify(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        if a != b:
            self.bad("clock-mismatch", f"expected clock '{a}', found '{b}'")
        return a

    def all_slots(self, es):
        out = []
        for sub in es:
            out.extend(self.slots(sub))
        return out

    def one(self, slots):
        if len(slots) != 1:
            self.bad("arity-mismatch", "tuple used where a single stream is required")
            return slots[0] if slots else (Ty.INT, None)
        return slots[0]

    def slots(self, e):
        bad, unify = self.bad, self.unify
        match e:
            case Const():
                return [(e.ty, None)]
            case Var(x):
                if x not in self.decls:
                    bad("free-variable", f"undeclared variable {x}")
                    return [(Ty.INT, None)]
                return [(self.ty_of(x), self.clock_of(x))]
            case Unop(op, a):
                ty, ck = self.one(self.slots(a))
                want = Ty.BOOL if op == "not" else Ty.INT
                if ty is not want:
                    bad("type-mismatch", f"operator {op} applied to {ty}")
                return [(want, ck)]
            case Binop(op, a, b):
                lt, lc = self.one(self.slots(a))
                rt, rc = self.one(self.slots(b))
                ck = unify(lc, rc)
                if op in ARITH_OPS:
                    if lt is not Ty.INT or rt is not Ty.INT:
                        bad("type-mismatch", f"operator {op} needs int operands")
                    return [(Ty.INT, ck)]
                if op in CMP_OPS:
                    if lt is not Ty.INT or rt is not Ty.INT:
                        bad("type-mismatch", f"operator {op} needs int operands")
                    return [(Ty.BOOL, ck)]
                if op in EQ_OPS:
                    if lt is not rt:
                        bad("type-mismatch", f"operator {op} compares unlike types")
                    return [(Ty.BOOL, ck)]
                if op in BOOL_OPS:
                    if lt is not Ty.BOOL or rt is not Ty.BOOL:
                        bad("type-mismatch", f"operator {op} needs bool operands")
                    return [(Ty.BOOL, ck)]
                bad("type-mismatch", f"unknown operator {op}")
                return [(Ty.INT, ck)]
            case When(args, x, k):
                slots = self.all_slots(args)
                if x not in self.decls:
                    bad("free-variable", f"undeclared variable {x}")
                    return slots
                if self.ty_of(x) is not Ty.BOOL:
                    bad("type-mismatch", f"sampling variable {x} must be bool")
                ck_x = self.clock_of(x)
                out = []
                for ty, ck in slots:
                    unify(ck, ck_x)
                    out.append((ty, ClockOn(ck_x, x, k)))
                return out
            case Merge(x, ts, fs):
                if x not in self.decls:
                    bad("free-variable", f"undeclared variable {x}")
                    return self.all_slots(ts)
                if self.ty_of(x) is not Ty.BOOL:
                    bad("type-mismatch", f"merge variable {x} must be bool")
                ck_x = self.clock_of(x)
                tslots = self.all_slots(ts)
                fslots = self.all_slots(fs)
                if len(tslots) != len(fslots):
                    bad("arity-mismatch", "merge branches have different widths")
                out = []
                for (tt, tc), (ft, fc) in zip(tslots, fslots):
                    if tt is not ft:
                        bad("type-mismatch", "merge branches have unlike types")
                    unify(tc, ClockOn(ck_x, x, True))
                    unify(fc, ClockOn(ck_x, x, False))
                    out.append((tt, ck_x))
                return out
            case Ite(c, ts, fs):
                ct, cc = self.one(self.slots(c))
                if ct is not Ty.BOOL:
                    bad("type-mismatch", "if condition must be bool")
                tslots = self.all_slots(ts)
                fslots = self.all_slots(fs)
                if len(tslots) != len(fslots):
                    bad("arity-mismatch", "if branches have different widths")
                out = []
                for (tt, tc), (ft, fc) in zip(tslots, fslots):
                    if tt is not ft:
                        bad("type-mismatch", "if branches have unlike types")
                    out.append((tt, unify(unify(tc, fc), cc)))
                return out
            case Fby(e0s, es):
                islots = self.all_slots(e0s)
                rslots = self.all_slots(es)
                if len(islots) != len(rslots):
                    bad("arity-mismatch", "fby arguments have different widths")
                out = []
                for (it, ic), (rt, rc) in zip(islots, rslots):
                    if it is not rt:
                        bad("type-mismatch", "fby arguments have unlike types")
                    out.append((it, unify(ic, rc)))
                return out
            case Call(f, args):
                if not self.prog.has_node(f):
                    bad("unknown-node", f"call to undefined node {f}")
                    return [(Ty.INT, None)]
                callee = self.prog.node(f)
                if any(not isinstance(d.clock, ClockBase) for d in callee.inputs + callee.outputs):
                    bad("clock-mismatch", f"node {f} has a clocked interface and cannot be called")
                slots = self.all_slots(args)
                if len(slots) != len(callee.inputs):
                    bad("arity-mismatch",
                        f"{f} expects {len(callee.inputs)} argument stream(s), got {len(slots)}")
                    return [(d.ty, None) for d in callee.outputs]
                ck = None
                for (ty, c), decl in zip(slots, callee.inputs):
                    if ty is not decl.ty:
                        bad("type-mismatch", f"argument {decl.name} of {f} expects {decl.ty}")
                    ck = unify(ck, c)
                return [(d.ty, ck) for d in callee.outputs]
        raise TypeError(f"_NodeEnvOracle.slots: unsupported {e!r}")


def _check_decl_clock_oracle(env, decl):
    ck = decl.clock
    input_names = {d.name for d in env.node.inputs}
    is_input = decl.name in input_names
    while isinstance(ck, ClockOn):
        if ck.var not in env.decls:
            env.bad("free-variable", f"clock variable {ck.var} of {decl.name} is not declared")
            return
        if is_input and ck.var not in input_names:
            env.bad("clock-mismatch", f"input {decl.name} is clocked on non-input {ck.var}")
        d = env.decls[ck.var]
        if d.ty is not Ty.BOOL:
            env.bad("type-mismatch", f"clock variable {ck.var} must be bool")
        if d.clock != ck.base:
            env.bad("clock-mismatch", f"clock of {decl.name} samples {ck.var} off its own clock")
        ck = ck.base


def _elaborate_oracle(prog):
    wf, _ = _well_formed_oracle(prog)
    if wf:
        raise ElaborationError(wf)
    diags = []
    new_nodes = []
    for node in prog.nodes:
        env = _NodeEnvOracle(prog, node, diags)
        for d in node.declarations:
            _check_decl_clock_oracle(env, d)
        new_eqs = []
        for i, eq in enumerate(node.equations):
            env.i = i
            targets = eq_targets(eq)
            match eq:
                case Def(_, _, exprs):
                    ck, what = None, "stream(s)"
                case NDef(_, ck, e):
                    exprs, what = (e,), None
                case NFby(_, ck, c, e):
                    exprs, what = (Fby((c,), (e,)),), None
                case NCall(_, ck, f, args):
                    exprs, what = (Call(f, args),), "output(s)"
            slots = env.all_slots(exprs)
            if len(slots) != len(targets):
                env.bad("arity-mismatch",
                        f"{len(targets)} target(s) but {len(slots)} {what}" if what
                        else "tuple in a singleton equation")
                new_eqs.append(eq)
                continue
            for t in targets:
                ck = env.unify(ck, env.clock_of(t))
            for t, (ty, c) in zip(targets, slots):
                if ty is not env.ty_of(t):
                    env.bad("type-mismatch", f"{t} is {env.ty_of(t)} but defined as {ty}")
                env.unify(ck, c)
            if isinstance(eq, Def):
                eq = Def(eq.targets, ck if ck is not None else BASE_CLOCK, eq.exprs)
            new_eqs.append(eq)
        new_nodes.append(replace(node, equations=tuple(new_eqs)))
    if diags:
        raise ElaborationError(diags)
    return Program(tuple(new_nodes))


def _outcome(fn, prog):
    """What `fn(prog)` returns, or the text of the `ElaborationError` it raises."""
    try:
        return fn(prog)
    except ElaborationError as err:
        return str(err)


def _rename_calls(e, old: str, new: str):
    """`e` with every call to `old` made a call to `new`."""
    def ren(es):
        return tuple(_rename_calls(a, old, new) for a in es)

    match e:
        case Const() | Var():
            return e
        case Unop(op, a):
            return Unop(op, _rename_calls(a, old, new))
        case Binop(op, a, b):
            return Binop(op, _rename_calls(a, old, new), _rename_calls(b, old, new))
        case When(args, x, k):
            return When(ren(args), x, k)
        case Merge(x, ts, fs):
            return Merge(x, ren(ts), ren(fs))
        case Ite(c, ts, fs):
            return Ite(_rename_calls(c, old, new), ren(ts), ren(fs))
        case Fby(e0s, es):
            return Fby(ren(e0s), ren(es))
        case Call(f, args):
            return Call(new if f == old else f, ren(args))


def _rename_calls_in(eq, old: str, new: str):
    match eq:
        case Def(targets, ck, exprs):
            return Def(targets, ck, tuple(_rename_calls(e, old, new) for e in exprs))
        case NDef(x, ck, e):
            return NDef(x, ck, _rename_calls(e, old, new))
        case NFby(x, ck, c, e):
            return NFby(x, ck, c, _rename_calls(e, old, new))
        case NCall(targets, ck, f, args):
            return NCall(targets, ck, new if f == old else f,
                         tuple(_rename_calls(a, old, new) for a in args))


def _called(eq) -> list[str]:
    return list(_reads_and_calls(eq)[1])


def _mutant(rng: random.Random, prog: Program) -> Program:
    """`prog` with one seeded fault or change in one node: a declaration
    dropped or retyped, an equation duplicated or dropped, a callee renamed
    or made the caller itself, or a local re-clocked."""
    kind = rng.choice(["drop-decl", "dup-eq", "rename-callee", "retype-decl", "drop-eq",
                       "recursive-call", "reclock-local"])
    callers = [k for k, n in enumerate(prog.nodes) if any(map(_called, n.equations))]
    if kind in ("rename-callee", "recursive-call") and not callers:
        kind = "dup-eq"
    k = rng.choice(callers) if kind in ("rename-callee", "recursive-call") else rng.randrange(len(prog.nodes))
    node = prog.nodes[k]
    eqs = list(node.equations)
    sections = {"inputs": list(node.inputs), "outputs": list(node.outputs), "locals": list(node.locals)}
    calling = [i for i, eq in enumerate(eqs) if _called(eq)]
    if kind == "reclock-local" and not node.locals:
        kind = "retype-decl"
    if kind in ("drop-decl", "retype-decl"):
        sect = rng.choice([s for s, ds in sections.items() if ds] or ["inputs"])
        if sections[sect]:
            j = rng.randrange(len(sections[sect]))
            d = sections[sect].pop(j)
            if kind == "retype-decl":
                sections[sect].insert(j, replace(d, ty=Ty.BOOL if d.ty is Ty.INT else Ty.INT))
    elif kind in ("dup-eq", "drop-eq") and eqs:
        j = rng.randrange(len(eqs))
        if kind == "dup-eq":
            eqs.insert(rng.randrange(len(eqs) + 1), eqs[j])
        else:
            del eqs[j]
    elif kind in ("rename-callee", "recursive-call"):
        j = rng.choice(calling)
        old = rng.choice(_called(eqs[j]))
        eqs[j] = _rename_calls_in(eqs[j], old, node.name if kind == "recursive-call" else old + "_")
    elif kind == "reclock-local":
        j = rng.randrange(len(sections["locals"]))
        d = sections["locals"][j]
        samplers = [x.name for x in node.declarations if x.ty is Ty.BOOL] + ["nowhere"]
        ck = (ClockOn(d.clock, rng.choice(samplers), rng.random() < 0.5)
              if rng.random() < 0.7 or isinstance(d.clock, ClockBase) else d.clock.base)
        sections["locals"][j] = replace(d, clock=ck)
    mutated = Node(node.name, tuple(sections["inputs"]), tuple(sections["outputs"]),
                   tuple(sections["locals"]), tuple(eqs))
    return Program(prog.nodes[:k] + (mutated,) + prog.nodes[k + 1:])


def _assert_one_pass_matches_oracle(prog: Program, label):
    fresh = Program(prog.nodes)  # nothing memoised, not marked as elaborated
    want_wf, want_deps = _well_formed_oracle(fresh)
    assert [str(d) for d in well_formed(fresh)] == [str(d) for d in want_wf], label
    assert _outcome(elaborate, Program(prog.nodes)) == _outcome(_elaborate_oracle, fresh), label
    order = _schedule(want_deps)
    if len(order) == len(prog.nodes):
        assert node_order(Program(prog.nodes)) == order, label
    else:
        with pytest.raises(ElaborationError):
            node_order(Program(prog.nodes))


def _table_programs():
    for row in (DATA / "elab_programs.txt").read_text().splitlines():
        label, src = row.split("\t")
        yield label, parse_program(src, filename=label)
    for path in sorted(SAMPLES.glob("*.lus")) + sorted(DATA.glob("*.lus")):
        yield path.name, parse_program(path.read_text(), filename=str(path))


def test_one_pass_matches_the_two_walks_on_files():
    """The table of `elab_programs.txt`, the samples and the test programs,
    their normal forms, and a seeded mutant of each."""
    rng = random.Random(23)
    for label, prog in _table_programs():
        progs = [prog]
        try:
            progs.append(normalize_program(prog)[0])
        except ElaborationError:
            pass
        for p in progs:
            _assert_one_pass_matches_oracle(p, label)
            _assert_one_pass_matches_oracle(_mutant(rng, p), label)


def test_one_pass_matches_the_two_walks_on_generated_programs():
    """300 generated programs and their normal forms, and a seeded mutant of
    each: the diagnostics of `well_formed` in order, the elaborated program
    or the text of the `ElaborationError`, and the node order."""
    rng = random.Random(23)
    mutants = random.Random(230)
    for n in range(300):
        prog = gen_program(rng)
        for p in (prog, normalize_program(prog)[0]):
            _assert_one_pass_matches_oracle(p, n)
            _assert_one_pass_matches_oracle(_mutant(mutants, p), n)


def test_one_pass_matches_the_two_walks_on_hand_built_faults():
    """Faults the parser cannot produce: a read of `base`, an undeclared
    target or clock variable of a core-form equation, a tuple in a
    singleton equation and an unknown operator."""
    x, y, b = decl("x"), decl("y"), decl("b", Ty.BOOL)
    on_b = ClockOn(BASE_CLOCK, "b", True)
    bodies = [
        (Def(("y",), None, (Binop("+", Var("x"), Var(BASE)),)),),
        (Def(("y",), None, (Var("x"),)), NDef("z", BASE_CLOCK, Var("x"))),
        (NDef("y", ClockOn(BASE_CLOCK, "c", True), Var("x")),),
        (NFby("y", on_b, Const(0), When((Var("x"),), "b", True)),),
        (NDef("y", BASE_CLOCK, Merge("b", (Var("x"),), (Var("x"),))),),
        (NDef("y", BASE_CLOCK, Binop("^", Var("x"), Var("x"))),),
        (NCall(("y",), BASE_CLOCK, "g", (Var("x"), Call("h", (Var("w"),)))),),
        (NCall(("y",), BASE_CLOCK, "f", (Var("x"),)),),
    ]
    for i, eqs in enumerate(bodies):
        prog = Program((Node("f", (x, b), (y,), (), eqs),))
        _assert_one_pass_matches_oracle(prog, i)
