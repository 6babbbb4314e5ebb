import random
from pathlib import Path

import pytest

from luset.diagnostics import InferError
from luset.infer import (FreshVars, NodeSignature, check_program, display_constraints,
                         infer_program, signatures, simplify, type_clock,
                         type_equation, type_expr)
from luset.lang import (BASE, BASE_CLOCK, Call, ClockOn, Const, Def, Merge, Var, When,
                        elaborate)
from luset.parser import parse_program
from luset.harness import gen_program
from luset.sectypes import (EMPTY, Constraint, ConstraintSet, Lattice, cs, ct,
                            substitute_constraints)

from conftest import CTR_SPDMTR_SRC, LEAK_ITE_SRC, LEAK_MERGE_SRC, chain_src

TWO = Lattice.two_point()
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def env_of(**kw):
    env = {BASE: ct("γ")}
    for name, vs in kw.items():
        env[name] = ct(*vs) if isinstance(vs, tuple) else ct(vs)
    return env


# ---------------------------------------------------------------------------
# clocks
# ---------------------------------------------------------------------------

def test_type_clock_base():
    assert type_clock(env_of(), BASE_CLOCK) == ct("γ")


def test_type_clock_on():
    env = env_of(x="γ1")
    env[BASE] = ct("γ2")
    assert type_clock(env, ClockOn(BASE_CLOCK, "x", True)) == ct("γ1", "γ2")


def test_type_clock_nested_on():
    env = env_of(x="a", y="b")
    ck = ClockOn(ClockOn(BASE_CLOCK, "x", True), "y", False)
    assert type_clock(env, ck) == ct("γ", "a", "b")


def test_type_clock_unbound():
    with pytest.raises(InferError):
        type_clock(env_of(), ClockOn(BASE_CLOCK, "x", True))


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

def test_const_is_bottom():
    assert type_expr(env_of(), Const(0), {}) == ([ct()], EMPTY)


def test_merge_joins_selector_and_branches():
    env = env_of(x="θ", a="α", b="β")
    [t], rho = type_expr(env, Merge("x", (Var("a"),), (Var("b"),)), {})
    assert t == ct("θ", "α", "β") and rho == EMPTY


def test_when_joins_sampler_into_every_component():
    env = env_of(a="α1", b="α2", x="θ")
    e = When((Var("a"), Var("b")), "x", True)
    assert type_expr(env, e, {}) == ([ct("α1", "θ"), ct("α2", "θ")], EMPTY)


def test_call_instantiates_signature():
    # callee f(α) ⇒γ β {| γ⊔α ⊑ β |}; the call result is a fresh variable
    # constrained by the instantiated set
    sig = NodeSignature("f", ("α",), ("β",), "γ", cs((ct("γ", "α"), ct("β"))))
    env = env_of(x="δx")
    env[BASE] = ct("γ0")
    [t], rho = type_expr(env, Call("f", (Var("x"),)), {"f": sig})
    (result_var,) = t.vars
    assert rho == cs((ct("γ0", "δx"), ct(result_var)))


# ---------------------------------------------------------------------------
# equations (counter example from the worked example)
# ---------------------------------------------------------------------------

def ctr_env():
    return env_of(init="α1", incr="α2", rst="α3", n="β", fst="δ1", pre_n="δ2")


def test_ctr_fst_equation():
    eq = Def(("fst",), BASE_CLOCK, (parse_expr("true fby false"),))
    assert type_equation(ctr_env(), eq, {}) == cs((ct("γ"), ct("δ1")))


def test_ctr_pre_n_equation():
    eq = Def(("pre_n",), BASE_CLOCK, (parse_expr("0 fby n"),))
    assert type_equation(ctr_env(), eq, {}) == cs((ct("γ", "β"), ct("δ2")))


def test_ctr_n_equation():
    eq = Def(("n",), BASE_CLOCK,
             (parse_expr("if (fst or rst) then init else pre_n + incr"),))
    assert type_equation(ctr_env(), eq, {}) == \
        cs((ct("γ", "δ1", "α3", "α1", "δ2", "α2"), ct("β")))


def parse_expr(text):
    prog = parse_program(f"node f(fst, rst: bool, init, incr, n, pre_n: int)"
                         f" returns (y: int); let y = {text}; tel")
    return prog.node("f").equations[0].exprs[0]


# ---------------------------------------------------------------------------
# simplify
# ---------------------------------------------------------------------------

def test_simplify_ctr_constraints():
    rho = cs((ct("γ", "δ1", "α3", "α1", "δ2", "α2"), ct("β")),
             (ct("γ"), ct("δ1")),
             (ct("γ", "β"), ct("δ2")))
    out = simplify(rho, ["δ1", "δ2"])
    assert out == cs((ct("γ", "α1", "α2", "α3"), ct("β")))


def test_simplify_cnt_dn_constraints():
    # the four constraints of the normalised count-down node
    rho = cs((ct("γ"), ct("δ2")),
             (ct("γ", "β"), ct("δ3")),
             (ct("γ", "δ2", "δ3"), ct("δ1")),
             (ct("γ", "α1", "α2", "δ1"), ct("β")))
    out = simplify(rho, ["δ1", "δ2", "δ3"])
    assert out == cs((ct("γ", "α1", "α2"), ct("β")))


def test_simplify_empty_locals_is_identity():
    rho = cs((ct("γ", "α"), ct("β")))
    assert simplify(rho, []) == rho


def test_simplify_self_referential_constraint():
    # ν ⊔ δ ⊑ δ: drop δ from the left side and substitute
    rho = cs((ct("ν", "δ"), ct("δ")), (ct("δ"), ct("β")))
    out = simplify(rho, ["δ"])
    assert out == cs((ct("ν"), ct("β")))


def test_simplify_unconstrained_local_skipped():
    rho = cs((ct("α"), ct("β")))
    out = simplify(rho, ["δ"])
    assert out == rho


def test_simplify_multiple_defining_constraints_rejected():
    rho = cs((ct("a"), ct("δ")), (ct("b"), ct("δ")))
    with pytest.raises(InferError):
        simplify(rho, ["δ"])


def _simplify_oracle(rho, order):
    """Reference elimination: rebuild the whole set after each variable."""
    constraints = rho
    for delta in order:
        defining = [c for c in constraints if c.rhs.vars == (delta,)]
        if len(defining) > 1:
            raise InferError("multiple-defining-constraints",
                             f"{delta} has {len(defining)} defining constraints")
        if not defining:
            continue
        chosen = defining[0]
        rest = [c for c in constraints if c != chosen]
        constraints = substitute_constraints(rest, {delta: chosen.lhs.without((delta,))})
    return constraints


def _outcome(fn, rho, order):
    try:
        return fn(rho, order)
    except InferError as exc:
        return ("error", str(exc))


def _elimination_cases():
    """(full constraints, elimination order) of every node of the samples,
    of chains and of generated programs, in the order inference uses:
    locals in declaration order, then call results in creation order."""
    progs = [elaborate(parse_program(f.read_text())) for f in sorted(SAMPLES.glob("*.lus"))]
    progs += [elaborate(parse_program(chain_src(k))) for k in (1, 2, 5, 17, 64, 200)]
    rng = random.Random(6)
    progs += [elaborate(gen_program(rng)) for _ in range(300)]
    for prog in progs:
        for name, res in infer_program(prog).items():
            order = [res.gamma[d.name] for d in prog.node(name).locals]
            order += [r for site in res.calls for r in site.result_vars]
            yield res.full_constraints, order


def test_simplify_matches_oracle_on_programs():
    for rho, order in _elimination_cases():
        assert simplify(rho, order) == _simplify_oracle(rho, order), (rho, order)


def test_simplify_matches_oracle_on_random_systems():
    # compound right-hand sides over locals can turn into the defining
    # constraint of a later local; several defining constraints must raise
    rng = random.Random(61)
    errors = 0
    for _ in range(2000):
        pool = [f"f{i}" for i in range(rng.randint(1, 3))] + \
               [f"d{i}" for i in range(rng.randint(1, 5))]
        rho = ConstraintSet(
            Constraint.make(ct(*rng.sample(pool, rng.randint(0, min(3, len(pool))))),
                            ct(*rng.sample(pool, rng.randint(1, 2))))
            for _ in range(rng.randint(0, 8)))
        order = [v for v in pool if v.startswith("d")]
        rng.shuffle(order)
        expected = _outcome(_simplify_oracle, rho, order)
        assert _outcome(simplify, rho, order) == expected, (rho, order)
        errors += isinstance(expected, tuple)
    assert 0 < errors < 2000


def test_simplify_matches_oracle_on_systems_wider_than_a_word():
    # more than 64 variables, so masks outgrow a machine word; most locals
    # get one defining constraint, and about a third of the systems give
    # one local a second
    rng = random.Random(62)
    errors = 0
    for _ in range(24):
        fs = [f"f{i}" for i in range(rng.randint(4, 12))]
        ds = [f"d{i}" for i in range(rng.randint(72, 90))]
        pool = fs + ds
        pairs = [(rng.sample(pool, rng.randint(0, 4)), [d]) for d in ds if rng.random() < 0.8]
        pairs += [(rng.sample(pool, rng.randint(0, 4)),
                   rng.sample(fs, 1) if rng.random() < 0.7 else rng.sample(pool, 2))
                  for _ in range(rng.randint(10, 40))]
        if rng.random() < 0.3:
            pairs.append((rng.sample(pool, 3), [rng.choice(ds)]))
        rho = ConstraintSet(Constraint.make(ct(*lhs), ct(*rhs)) for lhs, rhs in pairs)
        assert len(rho.variables) > 64
        order = list(ds)
        rng.shuffle(order)
        expected = _outcome(_simplify_oracle, rho, order)
        assert _outcome(simplify, rho, order) == expected, (rho, order)
        errors += isinstance(expected, tuple)
    assert 0 < errors < 12


# ---------------------------------------------------------------------------
# node signatures
# ---------------------------------------------------------------------------

def test_ctr_signature(ctr_prog):
    sig = signatures(ctr_prog)["Ctr"]
    assert sig.inputs == ("α1", "α2", "α3")
    assert sig.outputs == ("β",)
    assert sig.clock == "γ"
    assert sig.constraints == cs((ct("γ", "α1", "α2", "α3"), ct("β")))
    assert sig.display() == "Ctr(α1, α2, α3) ⇒γ β {| γ⊔α1⊔α2⊔α3 ⊑ β |}"


def test_spdmtr_signature(ctr_spdmtr_prog):
    sig = signatures(ctr_spdmtr_prog)["SpdMtr"]
    assert sig.inputs == ("α4",)
    assert sig.outputs == ("β1", "β2")
    assert sig.clock == "γ1"
    assert sig.constraints == cs((ct("γ1", "α4"), ct("β1")),
                                 (ct("γ1", "β1"), ct("β2")))


def test_cnt_dn_signature(cnt_dn_prog):
    sig = signatures(cnt_dn_prog)["cnt_dn"]
    assert sig.constraints == cs((ct("γ", "α1", "α2"), ct("β")))


def test_re_trig_signature(re_trig_prog):
    sig = signatures(re_trig_prog)["re_trig"]
    assert sig.inputs == ("α3", "α4") and sig.outputs == ("β1",) and sig.clock == "γ1"
    assert sig.constraints == cs((ct("γ1", "α3", "α4"), ct("β1")))


def test_signatures_contain_no_local_variables(re_trig_prog):
    for name, res in infer_program(re_trig_prog).items():
        sig = res.signature
        assert sig.constraints.variables <= set(sig.interface_vars())


@pytest.mark.parametrize("sample,node,full,calls", [
    ("ctr.lus", "SpdMtr",
     "{α4⊔γ1 ⊑ δ3, β1⊔γ1 ⊑ δ4, γ1⊔δ3 ⊑ β1, γ1⊔δ4 ⊑ β2}",
     [("Ctr", 0, ("⊥", "α4", "⊥"), "γ1", ("δ3",)),
      ("Ctr", 1, ("⊥", "β1", "⊥"), "γ1", ("δ4",))]),
    ("retrig.lus", "re_trig",
     "{α3⊔γ1 ⊑ δ1, α4⊔γ1⊔δ1⊔δ2 ⊑ δ4, β1⊔γ1⊔δ1 ⊑ δ2, γ1⊔δ2⊔δ4 ⊑ δ3, γ1⊔δ3 ⊑ β1}",
     [("cnt_dn", 2, ("δ1⊔δ2", "α4⊔δ2"), "γ1", ("δ4",))]),
], ids=["SpdMtr", "re_trig"])
def test_full_constraints_and_call_sites_pinned(sample, node, full, calls):
    # NI levels and the per-call check read these, not only the signature
    prog = elaborate(parse_program((SAMPLES / sample).read_text()))
    res = infer_program(prog)[node]
    assert str(res.full_constraints) == full
    assert [(c.callee, c.eq_index, tuple(str(t) for t in c.arg_types), str(c.clock_type),
             c.result_vars) for c in res.calls] == calls


def test_inference_deterministic():
    # two separately parsed copies: inference runs once per program object
    a = signatures(elaborate(parse_program(CTR_SPDMTR_SRC)))
    b = signatures(elaborate(parse_program(CTR_SPDMTR_SRC)))
    assert {k: v.constraints for k, v in a.items()} == {k: v.constraints for k, v in b.items()}


def test_fresh_supply_naming_scheme():
    fresh = FreshVars()
    assert fresh.take("alpha", 3) == ["α1", "α2", "α3"]
    assert fresh.take("beta", 1) == ["β"]
    assert fresh.take("gamma", 1) == ["γ"]
    assert fresh.take("alpha", 1) == ["α4"]
    assert fresh.take("beta", 2) == ["β1", "β2"]
    assert fresh.take("gamma", 1) == ["γ1"]


# ---------------------------------------------------------------------------
# whole-program checking
# ---------------------------------------------------------------------------

def test_leak_insecure_when_output_public():
    prog = elaborate(parse_program(LEAK_ITE_SRC))
    report = check_program(prog, TWO, [{"node": "Leak", "base": "L",
                                        "inputs": {"b": "H"}, "outputs": {"c": "L"}}])
    assert not report.secure
    (nr,) = report.nodes
    assert nr.violated and not nr.secure


def test_leak_secure_when_output_secret():
    prog = elaborate(parse_program(LEAK_ITE_SRC))
    report = check_program(prog, TWO, [{"node": "Leak", "base": "L",
                                        "inputs": {"b": "H"}, "outputs": {"c": "H"}}])
    assert report.secure


def test_merge_leak_insecure():
    prog = elaborate(parse_program(LEAK_MERGE_SRC))
    report = check_program(prog, TWO, [{"node": "Leak2", "base": "L",
                                        "inputs": {"x": "H"}, "outputs": {"c0": "L"}}])
    assert not report.secure


def test_spdmtr_check_cases(ctr_spdmtr_prog):
    ok = check_program(ctr_spdmtr_prog, TWO, [{
        "node": "SpdMtr", "base": "L",
        "inputs": {"acc": "L"}, "outputs": {"spd": "L", "pos": "L"}}])
    assert ok.secure
    # spd secret but pos public violates the derived flow spd ⊑ pos
    bad = check_program(ctr_spdmtr_prog, TWO, [{
        "node": "SpdMtr", "base": "L",
        "inputs": {"acc": "L"}, "outputs": {"spd": "H", "pos": "L"}}])
    assert not bad.secure
    (nr,) = bad.nodes
    assert any(c.rhs == ct("β2") for c in nr.violated)


def test_internal_calls_checked(ctr_spdmtr_prog):
    report = check_program(ctr_spdmtr_prog, TWO, [{
        "node": "SpdMtr", "base": "L",
        "inputs": {"acc": "H"}, "outputs": {"spd": "H", "pos": "H"}}])
    assert report.secure
    (nr,) = report.nodes
    assert [c.callee for c in nr.calls] == ["Ctr", "Ctr"]
    assert all(c.secure for c in nr.calls)


def test_partial_assignment_solved(ctr_prog):
    report = check_program(ctr_prog, TWO, [{"node": "Ctr", "base": "L",
                                            "inputs": {"init": "H"}}])
    (nr,) = report.nodes
    assert report.secure
    assert nr.assignment["n"] == "H"  # least solution lifts the output
    assert nr.solved  # something was indeed solved


def test_report_json_shape(ctr_prog):
    report = check_program(ctr_prog, TWO, [{"node": "Ctr", "base": "L"}])
    data = report.to_json()
    assert data["lattice"] == "two-point"
    assert data["nodes"][0]["node"] == "Ctr"
    assert data["nodes"][0]["verdict"] in ("secure", "insecure")


def test_three_level_chain_lattice_checking(ctr_spdmtr_prog):
    chain = Lattice(["L", "M", "H"], "L", [("L", "M"), ("M", "H")], name="chain3")
    # acc at M forces spd and pos to sit at M or above
    ok = check_program(ctr_spdmtr_prog, chain, [{
        "node": "SpdMtr", "base": "L",
        "inputs": {"acc": "M"}, "outputs": {"spd": "M", "pos": "H"}}])
    assert ok.secure
    bad = check_program(ctr_spdmtr_prog, chain, [{
        "node": "SpdMtr", "base": "M",
        "inputs": {"acc": "H"}, "outputs": {"spd": "H", "pos": "M"}}])
    assert not bad.secure
    # partial assignment synthesis picks the least levels up the chain
    solved = check_program(ctr_spdmtr_prog, chain, [{
        "node": "SpdMtr", "base": "L", "inputs": {"acc": "M"}}])
    (nr,) = solved.nodes
    assert solved.secure and nr.assignment["spd"] == "M" and nr.assignment["pos"] == "M"


def test_display_constraints_order():
    rho = cs((ct("γ", "α1", "α2"), ct("β")))
    assert display_constraints(rho) == "γ⊔α1⊔α2 ⊑ β"
    assert display_constraints(rho, ascii_=True) == "g lub a1 lub a2 <= b"
