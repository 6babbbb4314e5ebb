import hashlib
import random
from pathlib import Path

import pytest

from luset.cli import main
from luset.harness import gen_program
from luset.infer import infer_program
from luset.lang import (BASE_CLOCK, Binop, ClockOn, Const, Ite, NCall,
                        NDef, NFby, Var, When, elaborate, nlustre_violations,
                        well_formed)
from luset.normalize import normalize_program
from luset.parser import parse_program, pretty_print


ROOT = Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"
# gen_program emits no tuple-valued top of an equation; this program has one
# of each kind, on the base clock and on a sub-clock
TUPLE_TOPS = DATA / "tuple_tops.lus"
NORMALIZED = sorted((ROOT / "samples").glob("*.lus")) + [TUPLE_TOPS]

# recorded with the top of each source equation de-nested by its own copy of
# the nested cases
NORMAL_FORM_DIGEST = "b14722e72cc4673c69ffe9604519232d62483b4bf1462b37a01dcb47ed88a602"


def sig_tuple(res):
    s = res.signature
    return (s.inputs, s.outputs, s.clock, s.constraints)


# ---------------------------------------------------------------------------
# expression-level rules
# ---------------------------------------------------------------------------

def _normalized(src):
    """Equations and introduced locals of the one node of a program."""
    nprog, info = normalize_program(parse_program(src))
    [node] = nprog.nodes
    return node.equations, info[node.name]


def test_normalize_const_passthrough():
    eqs, new_locals = _normalized("node f(x: int) returns (y: int); let y = 3; tel")
    assert eqs == (NDef("y", BASE_CLOCK, Const(3)),)
    assert new_locals == ()


def test_normalize_when_distributes():
    # a sampled pair becomes two singleton sampled expressions
    eqs, new_locals = _normalized(
        "node f(res: bool; n: int) returns (a: bool when res; b: int when res);"
        " let (a, b) = (res, n) when res; tel")
    ck = ClockOn(BASE_CLOCK, "res", True)
    assert eqs == (NDef("a", ck, When((Var("res"),), "res", True)),
                   NDef("b", ck, When((Var("n"),), "res", True)))
    assert new_locals == ()


def test_normalize_nested_fby_introduces_local():
    eqs, new_locals = _normalized(
        "node f(res: bool; n: int) returns (cpt: int);"
        " let cpt = 1 + (if res then n else (n fby (cpt - 1))); tel")
    # the nested delay and the conditional both got their own equation
    assert len(new_locals) == 4  # fby var + init flag + prev + ite var
    kinds = [type(eq).__name__ for eq in eqs]
    assert kinds.count("NFby") == 2 and kinds.count("NDef") == 3  # two new NDefs + cpt


def test_normalize_equation_flat_is_identity():
    eqs, new_locals = _normalized("node f(acc: int) returns (spd: int); let spd = acc + 1; tel")
    assert eqs == (NDef("spd", BASE_CLOCK, Binop("+", Var("acc"), Const(1))),)
    assert new_locals == ()


def test_normalize_tuple_equation_splits():
    eqs, _ = _normalized("node f(x: int) returns (a, b: int); let (a, b) = (x, x + 1); tel")
    assert eqs == (NDef("a", BASE_CLOCK, Var("x")),
                   NDef("b", BASE_CLOCK, Binop("+", Var("x"), Const(1))))


# ---------------------------------------------------------------------------
# explicit delay initialisation
# ---------------------------------------------------------------------------

def test_constant_head_fby_untouched(ctr_prog):
    nprog, _ = normalize_program(ctr_prog)
    node = nprog.node("Ctr")
    fbys = [eq for eq in node.equations if isinstance(eq, NFby)]
    assert {eq.target for eq in fbys} == {"fst", "pre_n"}
    assert all(isinstance(eq.init, Const) for eq in fbys)
    # no fresh locals were needed: the source was already in shape
    assert node.locals == ctr_prog.node("Ctr").locals


def test_nonconstant_head_fby_expands(cnt_dn_prog):
    nprog, info = normalize_program(cnt_dn_prog)
    node = nprog.node("cnt_dn")
    # v-init flag, previous-value buffer, conditional, plus the nested-fby var
    assert len(node.equations) == 4
    shapes = [type(eq).__name__ for eq in node.equations]
    assert shapes.count("NFby") == 2 and shapes.count("NDef") == 2
    flags = [eq for eq in node.equations
             if isinstance(eq, NFby) and eq.init == Const(True)]
    assert len(flags) == 1 and flags[0].expr == Const(False)
    buffers = [eq for eq in node.equations
               if isinstance(eq, NFby) and eq.init == Const(0)]
    assert len(buffers) == 1  # seeded with the int default


def test_fby_init_constraints_recorded(cnt_dn_prog):
    _, info = normalize_program(cnt_dn_prog)
    assert len(info["cnt_dn"]) == 3


# ---------------------------------------------------------------------------
# whole-program behaviour
# ---------------------------------------------------------------------------

def test_cnt_dn_matches_figure(cnt_dn_prog):
    nprog, _ = normalize_program(cnt_dn_prog)
    assert nlustre_violations(nprog) == []
    node = nprog.node("cnt_dn")
    by_target = {eq.target if hasattr(eq, "target") else eq.targets: eq
                 for eq in node.equations}
    # cpt keeps its top-level conditional with simple branches
    cpt = by_target["cpt"]
    assert isinstance(cpt, NDef) and isinstance(cpt.expr, Ite)
    assert cpt.expr.on_true == (Var("n"),)
    assert isinstance(cpt.expr.on_false[0], Var)


def test_re_trig_matches_figure(re_trig_prog):
    nprog, info = normalize_program(re_trig_prog)
    assert nlustre_violations(nprog) == []
    node = nprog.node("re_trig")
    assert len(info["re_trig"]) == 3
    call_eqs = [eq for eq in node.equations if isinstance(eq, NCall)]
    assert len(call_eqs) == 1
    (call,) = call_eqs
    assert call.node == "cnt_dn"
    assert call.clock == ClockOn(BASE_CLOCK, "ck", True)
    assert all(isinstance(a, When) for a in call.args)
    # the call result feeds the merge through a sub-clocked fresh local
    fresh = call.targets[0]
    assert nprog.node("re_trig").decl(fresh).clock == ClockOn(BASE_CLOCK, "ck", True)


def test_already_normal_program_unchanged(ctr_prog):
    nprog, _ = normalize_program(ctr_prog)
    nnprog, _ = normalize_program(nprog)
    assert nnprog == nprog


def test_output_is_well_formed_and_causal():
    rng = random.Random(77)
    for _ in range(25):
        prog = gen_program(rng)
        nprog, _ = normalize_program(prog)
        assert well_formed(nprog) == []
        assert nlustre_violations(nprog) == []
        elaborate(nprog)


def test_fresh_names_avoid_source_identifiers():
    src = "node f(v1: int) returns (y: int); let y = (v1 + 1) fby v1; tel"
    nprog, info = normalize_program(parse_program(src))
    names = {d.name for d in info["f"]}
    assert "v1" not in names and names
    assert well_formed(nprog) == []


def test_signature_preserved_on_goldens(cnt_dn_prog, re_trig_prog, ctr_spdmtr_prog):
    for prog in (cnt_dn_prog, re_trig_prog, ctr_spdmtr_prog):
        nprog, _ = normalize_program(prog)
        before = infer_program(prog)
        after = infer_program(nprog)
        for name in before:
            assert sig_tuple(before[name]) == sig_tuple(after[name])


def _normal_form_programs():
    yield parse_program(TUPLE_TOPS.read_text())
    rng = random.Random(5)
    for _ in range(500):
        yield gen_program(rng, max_nodes=4)


def test_normal_forms_are_pinned():
    """The text of each normal form and the locals it introduces, over
    generated programs and tuple-valued tops, are the pinned ones."""
    h = hashlib.sha256()
    programs = fresh = 0
    for prog in _normal_form_programs():
        nprog, info = normalize_program(prog)
        h.update(pretty_print(nprog).encode())
        h.update(repr(sorted(info.items())).encode())
        programs += 1
        fresh += sum(map(len, info.values()))
    assert programs == 501 and fresh > 3000
    assert h.hexdigest() == NORMAL_FORM_DIGEST


@pytest.mark.parametrize("program", NORMALIZED, ids=lambda p: p.stem)
def test_normalize_output_golden(program, capsys):
    """`luset normalize <program>`, byte for byte."""
    assert main(["normalize", str(program)]) == 0
    assert capsys.readouterr().out == (DATA / f"normalize_{program.stem}.lus").read_text()
