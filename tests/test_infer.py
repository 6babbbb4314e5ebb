import random
from pathlib import Path

import pytest

from luset.diagnostics import InferError
from luset.infer import (CallSite, FreshVars, NodeSignature, check_program,
                         display_constraints, infer_node_signature, infer_program,
                         type_expr)
from luset.lang import (BASE, BASE_CLOCK, Binop, Call, ClockBase, ClockOn, Const, Def,
                        Fby, Ite, Merge, NCall, NDef, NFby, Unop, Var, When, elaborate,
                        node_order)
from luset.normalize import normalize_program
from luset.parser import parse_program
from luset.harness import gen_program
from luset.sectypes import (EMPTY, TBOT, CanonType, Constraint, ConstraintSet, Lattice,
                            cs, ct)

from conftest import (CTR_SPDMTR_SRC, LEAK_ITE_SRC, LEAK_MERGE_SRC, chain_src, signatures,
                      simplify, substitute_constraints, type_clock, type_equation)

TWO = Lattice.two_point()
SAMPLES = Path(__file__).resolve().parent.parent / "samples"
TUPLE_TOPS = Path(__file__).resolve().parent / "data" / "tuple_tops.lus"


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
# reference constraint generation on canonical types
# ---------------------------------------------------------------------------
# Inference types each node on int masks, one bit per type variable. This is
# the generator it replaced: it types to `CanonType`, collects `Constraint`
# objects, instantiates signatures with `substitute_constraints`, and
# eliminates with `_simplify_oracle`.

class _RefCtx:
    def __init__(self, env, sigs, fresh):
        self.env, self.sigs, self.fresh = env, sigs, fresh
        self.constraints = []
        self.extra_vars = []
        self.calls = []
        self.eq_index = 0


def _ref_lookup(env, name):
    if name not in env:
        raise InferError("unbound-var", f"no security type for {name}")
    return env[name]


def _ref_clock(env, ck):
    match ck:
        case ClockBase():
            return _ref_lookup(env, BASE)
        case ClockOn(base, x, _):
            return _ref_lookup(env, x).join(_ref_clock(env, base))
    raise TypeError(ck)


def _ref_one(slots):
    if len(slots) != 1:
        raise InferError("arity-mismatch", "tuple used as a single stream")
    return slots[0]


def _ref_same_width(a, b, what):
    if len(a) != len(b):
        raise InferError("arity-mismatch", f"{what} branches have widths {len(a)} and {len(b)}")


def _ref_exprs(ctx, items):
    return [t for it in items for t in _ref_expr(ctx, it)]


def _ref_expr(ctx, e):
    match e:
        case Const():
            return [TBOT]
        case Var(x):
            return [_ref_lookup(ctx.env, x)]
        case Unop(_, a):
            return [_ref_one(_ref_expr(ctx, a))]
        case Binop(_, a, b):
            return [_ref_one(_ref_expr(ctx, a)).join(_ref_one(_ref_expr(ctx, b)))]
        case When(args, x, _):
            gx = _ref_lookup(ctx.env, x)
            return [t.join(gx) for t in _ref_exprs(ctx, args)]
        case Merge(x, ts, fs):
            gx = _ref_lookup(ctx.env, x)
            tslots, fslots = _ref_exprs(ctx, ts), _ref_exprs(ctx, fs)
            _ref_same_width(tslots, fslots, "merge")
            return [gx.join(a).join(b) for a, b in zip(tslots, fslots)]
        case Ite(c, ts, fs):
            theta = _ref_one(_ref_expr(ctx, c))
            tslots, fslots = _ref_exprs(ctx, ts), _ref_exprs(ctx, fs)
            _ref_same_width(tslots, fslots, "if")
            return [theta.join(a).join(b) for a, b in zip(tslots, fslots)]
        case Fby(e0s, es):
            islots, rslots = _ref_exprs(ctx, e0s), _ref_exprs(ctx, es)
            _ref_same_width(islots, rslots, "fby")
            return [a.join(b) for a, b in zip(islots, rslots)]
        case Call(f, args):
            return _ref_type_call(ctx, f, args, _ref_lookup(ctx.env, BASE))
    raise TypeError(e)


def _ref_type_call(ctx, f, args, clock_type):
    if f not in ctx.sigs:
        raise InferError("unknown-node", f"no signature for node {f}")
    sig = ctx.sigs[f]
    arg_types = _ref_exprs(ctx, args)
    if len(arg_types) != len(sig.inputs):
        raise InferError("arity-mismatch",
                         f"{f} expects {len(sig.inputs)} argument stream(s), got {len(arg_types)}")
    result_vars = [ctx.fresh.one("delta") for _ in sig.outputs]
    ctx.extra_vars.extend(result_vars)
    results = [CanonType((r,)) for r in result_vars]
    sub = dict(zip((sig.clock,) + sig.inputs + sig.outputs, [clock_type] + arg_types + results))
    ctx.constraints.extend(substitute_constraints(sig.constraints, sub))
    ctx.calls.append(CallSite(f, ctx.eq_index, tuple(arg_types), clock_type, tuple(result_vars)))
    return results


def _ref_equation(ctx, eq):
    match eq:
        case Def(targets, ck, exprs):
            gamma = _ref_clock(ctx.env, ck if ck is not None else ClockBase())
            slots = _ref_exprs(ctx, exprs)
        case NDef(x, ck, e) | NFby(x, ck, _, e):
            gamma = _ref_clock(ctx.env, ck)
            targets = (x,)
            slots = _ref_expr(ctx, e)
        case NCall(xs, ck, f, args):
            gamma = _ref_clock(ctx.env, ck)
            targets = xs
            slots = _ref_type_call(ctx, f, args, gamma)
    if len(slots) != len(targets):
        raise InferError("arity-mismatch",
                         f"{len(targets)} target(s) but {len(slots)} stream(s)")
    for x, alpha in zip(targets, slots):
        ctx.constraints.append(Constraint.make(gamma.join(alpha), _ref_lookup(ctx.env, x)))


def _ref_infer_node(node, sigs, fresh):
    """(signature, full constraints, call sites) of one node."""
    alphas = fresh.take("alpha", len(node.inputs)) if node.inputs else []
    betas = fresh.take("beta", len(node.outputs)) if node.outputs else []
    gamma = fresh.one("gamma")
    deltas = fresh.take("delta", len(node.locals)) if node.locals else []
    gamma_map = {BASE: gamma}
    for decls, vs in ((node.inputs, alphas), (node.outputs, betas), (node.locals, deltas)):
        gamma_map.update((decl.name, v) for decl, v in zip(decls, vs))
    ctx = _RefCtx({name: CanonType((v,)) for name, v in gamma_map.items()}, sigs, fresh)
    for i, eq in enumerate(node.equations):
        ctx.eq_index = i
        _ref_equation(ctx, eq)
    rho = ConstraintSet(ctx.constraints)
    simplified = _simplify_oracle(rho, list(deltas) + ctx.extra_vars)
    leftover = simplified.variables - (set(alphas) | set(betas) | {gamma})
    if leftover:
        raise InferError("incomplete-elimination",
                         f"signature of {node.name} still mentions {sorted(leftover)}")
    sig = NodeSignature(node.name, tuple(alphas), tuple(betas), gamma, simplified)
    return sig, rho, ctx.calls


def _shown(sig, rho, calls):
    return (sig.display(), str(rho),
            [(c.callee, c.eq_index, tuple(map(str, c.arg_types)), str(c.clock_type),
              c.result_vars) for c in calls])


def _ref_infer_program(prog):
    fresh, sigs, out = FreshVars(), {}, {}
    for name in node_order(prog):
        sig, rho, calls = _ref_infer_node(prog.node(name), sigs, fresh)
        sigs[name] = sig
        out[name] = _shown(sig, rho, calls)
    return {name: out[name] for name in prog.node_names}


def _outcome_of(fn):
    try:
        return fn()
    except InferError as exc:
        return ("error", exc.kind, str(exc))


def test_mask_inference_matches_reference_on_programs():
    """Signatures, full constraints and call sites of the samples, the
    tuple-valued tops and 300 generated programs, on the source and on the
    normal form."""
    rng = random.Random(22)
    sources = [f.read_text() for f in sorted(SAMPLES.glob("*.lus"))] + [TUPLE_TOPS.read_text()]
    progs = [parse_program(src) for src in sources]
    progs += [gen_program(rng, max_nodes=4) for _ in range(300)]
    programs = calls = 0
    for eprog in map(elaborate, progs):
        for prog in (eprog, normalize_program(eprog)[0]):
            got = {name: _shown(res.signature, res.full_constraints, res.calls)
                   for name, res in infer_program(prog).items()}
            assert got == _ref_infer_program(prog)
            programs += 1
            calls += sum(len(shown[2]) for shown in got.values())
    assert programs == 608 and calls > 100


def _ref_type_expr(env, e, sigs):
    ctx = _RefCtx(env, sigs, FreshVars())
    return _ref_expr(ctx, e), ConstraintSet(ctx.constraints)


def _ref_type_equation(env, eq, sigs):
    ctx = _RefCtx(env, sigs, FreshVars())
    _ref_equation(ctx, eq)
    return ConstraintSet(ctx.constraints)


F_SIG = NodeSignature("f", ("α",), ("β",), "γ", cs((ct("γ", "α"), ct("β"))))
# an output flowing back into an input: instantiated at b, whose type holds
# the caller's base clock, the left side sheds that clock
H_SIG = NodeSignature("h", ("α",), ("β",), "γ", cs((ct("γ", "β"), ct("α"))))
PAIR = When((Var("a"), Var("b")), "x", True)


@pytest.mark.parametrize("item, kind", [
    (Binop("+", PAIR, Var("a")), "arity-mismatch"),
    (Merge("x", (Var("a"),), (Var("a"), Var("b"))), "arity-mismatch"),
    (Ite(PAIR, (Var("a"),), (Var("b"),)), "arity-mismatch"),
    (Fby((Const(0),), (Var("a"), Var("b"))), "arity-mismatch"),
    (Call("f", (Var("a"), Var("b"))), "arity-mismatch"),
    (Def(("a", "b"), BASE_CLOCK, (Var("x"),)), "arity-mismatch"),
    (NCall(("a", "b"), BASE_CLOCK, "f", (Var("x"),)), "arity-mismatch"),
    (Call("g", (Var("a"),)), "unknown-node"),
    (Var("z"), "unbound-var"),
    (Unop("-", When((Var("a"),), "z", True)), "unbound-var"),
    (Def(("z",), BASE_CLOCK, (Var("a"),)), "unbound-var"),
    (NDef("a", ClockOn(BASE_CLOCK, "z", True), Var("b")), "unbound-var"),
    (Binop("+", Call("f", (Var("x"),)), Merge("x", (Var("a"),), (Var("b"),))), None),
    (NFby("a", ClockOn(BASE_CLOCK, "x", False), 0, Call("f", (Var("b"),))), None),
    (Call("h", (Var("b"),)), None),
])
def test_mask_typing_matches_reference_on_hand_built_items(item, kind):
    env = env_of(a="α1", b=("α2", "γ"), x="θ")
    sigs = {"f": F_SIG, "h": H_SIG}
    if isinstance(item, (Def, NDef, NFby, NCall)):
        got = _outcome_of(lambda: type_equation(env, item, sigs))
        want = _outcome_of(lambda: _ref_type_equation(env, item, sigs))
    else:
        got = _outcome_of(lambda: type_expr(env, item, sigs))
        want = _outcome_of(lambda: _ref_type_expr(env, item, sigs))
    assert got == want
    assert (got[1] if isinstance(got, tuple) and got[0] == "error" else None) == kind


@pytest.mark.parametrize("src, kind", [
    ("node g(a: int) returns (b: int); let b = a; tel "
     "node f(x: int) returns (y: int); let y = g(x, x); tel", "arity-mismatch"),
    ("node f(x: int) returns (y: int); let y = g(x); tel", "unknown-node"),
    ("node f(x: int) returns (y: int); let y = x + z; tel", "unbound-var"),
    ("node f(x, z: int) returns (y: int); var d: int; let d = x; d = z; y = d; tel",
     "multiple-defining-constraints"),
], ids=["arity-mismatch", "unknown-node", "unbound-var", "multiple-defining-constraints"])
def test_mask_inference_matches_reference_on_faulty_nodes(src, kind):
    """Nodes inferred one by one, unchecked, so that inference meets the fault."""
    prog = parse_program(src)
    sigs, ref_sigs = {}, {}
    fresh, ref_fresh = FreshVars(), FreshVars()
    for node in prog.nodes:
        got = _outcome_of(lambda: infer_node_signature(node, sigs, fresh))
        want = _outcome_of(lambda: _ref_infer_node(node, ref_sigs, ref_fresh))
        if isinstance(want, tuple) and want[0] == "error":
            assert got == want and want[1] == kind
            return
        sigs[node.name], ref_sigs[node.name] = got.signature, want[0]
        assert _shown(got.signature, got.full_constraints, got.calls) == _shown(*want)
    raise AssertionError("no fault met")


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


@pytest.mark.parametrize("entry, why", [
    ({"inputs": {"b": "L"}, "outputs": {"b": "H", "c": "L"}}, "b is listed under inputs and"),
    ({"inputs": {"b": "L"}, "outputs": {"c": "L", "base": "H"}}, "base belongs beside outputs"),
    ({"inputs": {"c": "L"}, "outputs": {"b": "L"}}, "c is not an input of Leak"),
], ids=["name-in-two-sections", "base-in-a-section", "name-in-wrong-section"])
def test_misfiled_assignment_is_refused(entry, why):
    prog = elaborate(parse_program(LEAK_ITE_SRC))
    with pytest.raises(InferError, match=f"bad-assignment: {why}"):
        check_program(prog, TWO, [{"node": "Leak", **entry}])


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
