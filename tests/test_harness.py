import hashlib
import json
import random
from dataclasses import replace

import pytest

from luset import harness, sectypes

from luset.harness import (NIConfig, check_equational_soundness, check_non_interference,
                           check_semantics_preservation, check_simple_security,
                           check_type_preservation, gen_inputs, gen_program,
                           generator_postcondition, project_history,
                           sample_satisfying_assignment)
from luset.infer import infer_program
from luset.lang import ClockOn, Const, Ite, Merge, NDef, elaborate
from luset.normalize import normalize_program
from luset.parser import parse_program
from luset.sectypes import Lattice
from luset.streams import present

from conftest import (CTR_SRC, CNT_DN_SRC, CTR_TABLE, LEAK_ITE_SRC, LEAK_MERGE_SRC,
                      check_canonical_order_independence, gen_lattice,
                      interpreted_normal_form)

TWO = Lattice.two_point()


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_project_identity_at_top():
    H = {"a": [1], "b": [2]}
    levels = {"a": "L", "b": "H"}
    assert project_history(H, levels, "H", TWO) == H


def test_project_bottom_drops_everything_above():
    H = {"a": [1], "b": [2]}
    assert project_history(H, {"a": "H", "b": "H"}, "L", TWO) == {}


def test_project_two_point():
    H = {"a": [1], "b": [2]}
    assert project_history(H, {"a": "L", "b": "H"}, "L", TWO) == {"a": [1]}


# ---------------------------------------------------------------------------
# non-interference
# ---------------------------------------------------------------------------

def test_ni_ctr_all_low_passes():
    cfg = NIConfig("Ctr", TWO, {"base": "L", "init": "L", "incr": "L",
                                "rst": "L", "n": "L"},
                   level="L", trials=100, ticks=32, seed=5)
    report = check_non_interference(parse_program(CTR_SRC), cfg)
    assert report.verdict == "pass"
    assert report.trials == 100


def test_ni_skips_unsatisfied_assignment():
    cfg = NIConfig("Leak", TWO, {"base": "L", "b": "H", "c": "L"},
                   level="L", trials=5, ticks=8, seed=0)
    report = check_non_interference(parse_program(LEAK_ITE_SRC), cfg)
    assert report.verdict == "vacuously-skipped"


def test_ni_forced_insecure_fails_quickly():
    cfg = NIConfig("Leak", TWO, {"base": "L", "b": "H", "c": "L"},
                   level="L", trials=10, ticks=16, seed=0, force=True)
    report = check_non_interference(parse_program(LEAK_ITE_SRC), cfg)
    assert report.verdict == "fail"
    assert report.trials <= 10
    cex = report.counterexample
    assert cex["variable"] == "c"
    assert cex["run1"][cex["tick"]] != cex["run2"][cex["tick"]]


def test_ni_forced_merge_leak_fails():
    cfg = NIConfig("Leak2", TWO, {"base": "L", "x": "H", "c0": "L"},
                   level="L", trials=10, ticks=16, seed=3, force=True)
    report = check_non_interference(parse_program(LEAK_MERGE_SRC), cfg)
    assert report.verdict == "fail"


def test_ni_no_input_node_trivially_passes():
    src = "node k() returns (y: int); var p: int; let y = p + 1; p = 0 fby y; tel"
    cfg = NIConfig("k", TWO, {"base": "L", "y": "L"}, level="L",
                   trials=5, ticks=8, seed=0)
    report = check_non_interference(parse_program(src), cfg)
    assert report.verdict == "pass"


def test_ni_at_top_is_determinism():
    cfg = NIConfig("Ctr", TWO, {"base": "L", "init": "H", "incr": "H",
                                "rst": "H", "n": "H"},
                   level="H", trials=20, ticks=16, seed=2)
    report = check_non_interference(parse_program(CTR_SRC), cfg)
    assert report.verdict == "pass"


def test_ni_secret_inputs_public_base_passes_at_low():
    # n must sit above the inputs: with inputs high and n high, nothing at
    # or below L depends on the secrets
    cfg = NIConfig("Ctr", TWO, {"base": "L", "init": "H", "incr": "H",
                                "rst": "H", "n": "H"},
                   level="L", trials=50, ticks=24, seed=8)
    report = check_non_interference(parse_program(CTR_SRC), cfg)
    assert report.verdict == "pass"


# ---------------------------------------------------------------------------
# preservation
# ---------------------------------------------------------------------------

def test_semantics_preservation_cnt_dn():
    report = check_semantics_preservation(parse_program(CNT_DN_SRC), "cnt_dn",
                                          trials=100, ticks=64, seed=4)
    assert report.verdict == "pass"


def test_semantics_preservation_ctr_table_inputs(ctr_prog):
    from luset.normalize import normalize_program
    from luset.streams import run_node
    nprog, _ = normalize_program(ctr_prog)
    ins = {k: CTR_TABLE[k] for k in ("init", "incr", "rst")}
    assert run_node(ctr_prog, "Ctr", ins, 7)[0]["n"] == run_node(nprog, "Ctr", ins, 7)[0]["n"]
    assert run_node(nprog, "Ctr", ins, 7)[0]["n"] == CTR_TABLE["n"]


def test_semantics_preservation_already_normal(ctr_prog):
    from luset.normalize import normalize_program
    nprog, _ = normalize_program(ctr_prog)
    report = check_semantics_preservation(nprog, "Ctr", trials=20, ticks=32, seed=1)
    assert report.verdict == "pass"


@pytest.mark.parametrize("runner_refuses", [False, True], ids=["compiled", "runner-refuses"])
def test_semantics_preservation_catches_a_normalisation_bug(monkeypatch, cnt_dn_prog,
                                                            runner_refuses):
    """The source side runs on the tree interpreter, not on the normal form,
    so a wrong normal form fails the check even though every compiled run
    goes through the same (wrong) normalisation. With the normal side run
    on the tree interpreter (`runner-refuses`, as it ran when the compiler
    refused a program), it interprets the normal form, never the source, and
    the check still fails."""
    from dataclasses import replace
    from luset import codegen, harness
    from luset.lang import Const, NFby
    from luset.normalize import normalize_program

    def bad_normalize(prog):
        nprog, introduced = normalize_program(prog)
        nodes = tuple(replace(n, equations=tuple(
            replace(eq, init=Const(False)) if isinstance(eq, NFby) and eq.init == Const(True)
            else eq
            for eq in n.equations)) for n in nprog.nodes)
        return replace(nprog, nodes=nodes), introduced

    monkeypatch.setattr(harness, "normalize_program", bad_normalize)
    monkeypatch.setattr(codegen, "normalize_program", bad_normalize)
    if runner_refuses:
        monkeypatch.setattr(harness, "run_compiled", interpreted_normal_form)
    report = check_semantics_preservation(cnt_dn_prog, "cnt_dn", trials=20, ticks=32, seed=4)
    assert report.verdict == "fail", report.to_json()


def test_type_preservation_goldens(cnt_dn_prog, re_trig_prog):
    for prog, name in ((cnt_dn_prog, "cnt_dn"), (re_trig_prog, "re_trig")):
        report = check_type_preservation(prog, name, seed=0)
        assert report.verdict == "pass"
        assert report.details["canonically_equal"][name] is True


def test_type_preservation_random_programs():
    rng = random.Random(123)
    for i in range(10):
        prog = gen_program(rng)
        report = check_type_preservation(prog, seed=i, lattice_samples=2,
                                         instantiation_samples=5)
        assert report.verdict == "pass", report.counterexample


def _drop_conditions(e):
    if isinstance(e, (Ite, Merge)):
        e = replace(e, on_true=tuple(map(_drop_conditions, e.on_true)),
                    on_false=tuple(map(_drop_conditions, e.on_false)))
    return replace(e, cond=Const(True)) if isinstance(e, Ite) else e


def _condition_dropping_normalize(prog):
    """A normaliser that replaces every `if` condition by `true`."""
    nprog, introduced = normalize_program(prog)
    nodes = tuple(replace(n, equations=tuple(
        replace(eq, expr=_drop_conditions(eq.expr)) if isinstance(eq, NDef) else eq
        for eq in n.equations)) for n in nprog.nodes)
    return replace(nprog, nodes=nodes), introduced


def test_type_preservation_catches_a_dropped_condition(monkeypatch):
    """A normaliser that replaces every `if` condition by `true` keeps the
    semantics check out of the picture: the type check alone fails, and
    each countermodel satisfies the side it names and violates the
    constraint it names."""
    from luset.sectypes import ConstraintSet, satisfies

    bad_normalize = _condition_dropping_normalize
    monkeypatch.setattr(harness, "normalize_program", bad_normalize)
    rng = random.Random(5)
    failed = 0
    for _ in range(100):
        prog = elaborate(gen_program(rng))
        report = check_type_preservation(prog)
        if report.verdict == "pass":
            continue
        assert report.verdict == "fail", report.to_json()
        failed += 1
        c = report.counterexample
        sigs = {"source": infer_program(prog)[c["node"]].signature.constraints,
                "normalised": infer_program(bad_normalize(prog)[0])[c["node"]].signature.constraints}
        rho = sigs[c["not_entailed_by"]]
        other = sigs["normalised" if c["not_entailed_by"] == "source" else "source"]
        constraint = next(k for k in other if str(k) == c["constraint"])
        assert satisfies(rho, c["instantiation"], TWO)
        assert not satisfies(ConstraintSet([constraint]), c["instantiation"], TWO)
    assert failed > 0


# sha256 of `json.dumps(reports, sort_keys=True)`, where `reports` are the
# `to_json()` of `check_type_preservation` on 300 elaborated
# `gen_program(random.Random(5))` draws, and the number of fails among them;
# recorded before equal signatures skipped the entailment decision
TYPE_PRESERVATION_PINS = {
    "sound": ("9b143ef4ffa3049d6582f23fb3174e8a0e9e21437f6c1ee45a5481c649c80c25", 0),
    "condition-dropped": ("36e0b21c1d6db6cd4955d8df3043f338f4e404fd4f105e528520c232fd48dd42", 39),
}


@pytest.mark.parametrize("normaliser", list(TYPE_PRESERVATION_PINS))
def test_type_preservation_reports_pinned(monkeypatch, normaliser):
    if normaliser == "condition-dropped":
        monkeypatch.setattr(harness, "normalize_program", _condition_dropping_normalize)
    rng = random.Random(5)
    reports = [check_type_preservation(elaborate(gen_program(rng))).to_json()
               for _ in range(300)]
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert (digest, sum(r["verdict"] == "fail" for r in reports)) == \
        TYPE_PRESERVATION_PINS[normaliser]


@pytest.mark.parametrize("normaliser", list(TYPE_PRESERVATION_PINS))
def test_equal_signatures_skip_the_entailment_fixpoint(monkeypatch, normaliser):
    """Equal constraint sets entail each other, so `not_entailed` runs its
    fixpoint for a program exactly when one of its nodes has two unequal
    signatures."""
    calls = []
    fixpoint = sectypes.least_fixpoint
    monkeypatch.setattr(sectypes, "least_fixpoint",
                        lambda *args: calls.append(args) or fixpoint(*args))
    if normaliser == "condition-dropped":
        monkeypatch.setattr(harness, "normalize_program", _condition_dropping_normalize)
    rng = random.Random(5)
    unequal_programs = 0
    for _ in range(100):
        calls.clear()
        report = check_type_preservation(elaborate(gen_program(rng)))
        unequal = (report.verdict == "fail"
                   or not all(report.details["canonically_equal"].values()))
        assert bool(calls) == unequal
        unequal_programs += unequal
    assert (unequal_programs > 0) == (normaliser == "condition-dropped")


# ---------------------------------------------------------------------------
# equational theory and simple security
# ---------------------------------------------------------------------------

def test_equational_soundness_run():
    report = check_equational_soundness(samples=300, seed=9)
    assert report.verdict == "pass" and report.trials == 300


def _mutant_canon(mutant: str):
    """`sectypes.canon` and `canon_constraints` with one line changed:
    `join-variable` drops the first variable of a pair's left-hand join,
    `nested` drops the refinements nested in a pair's sides, and `pair`
    drops the first pair of each refinement."""
    def canon(t):
        match t:
            case sectypes.Bot():
                return sectypes.TBOT, sectypes.EMPTY
            case sectypes.TVar(name):
                return sectypes.CanonType((name,)), sectypes.EMPTY
            case sectypes.Lub(a, b):
                (ca, ra), (cb, rb) = canon(a), canon(b)
                return ca.join(cb), ra | rb
            case sectypes.Refine(base, pairs):
                cb, rb = canon(base)
                return cb, rb | canon_constraints(pairs)

    def canon_constraints(pairs):
        out = []
        for l, r in (pairs[1:] if mutant == "pair" else pairs):
            (cl, rl), (cr, rr) = canon(l), canon(r)
            if mutant == "join-variable":
                cl = sectypes.CanonType(cl.vars[1:])
            out.append(sectypes.Constraint.make(cl, cr))
            if mutant != "nested":
                out += [*rl, *rr]
        return sectypes.ConstraintSet(out)
    return canon, canon_constraints


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mutant", ["none", "join-variable", "nested", "pair"])
def test_equational_soundness_kills_canon_mutants(monkeypatch, mutant, seed):
    """Every mutant fails and the unmutated copy passes. The first two
    mutants canonicalise a raw type and its rewrites alike, so only the
    comparison with the raw type's free-model meaning catches them."""
    canon, canon_constraints = _mutant_canon(mutant)
    monkeypatch.setattr(sectypes, "canon", canon)
    monkeypatch.setattr(sectypes, "canon_constraints", canon_constraints)
    monkeypatch.setattr(harness, "canon", canon)
    report = check_equational_soundness(samples=300, seed=seed)
    assert report.verdict == ("pass" if mutant == "none" else "fail"), report.to_json()
    if mutant in ("join-variable", "nested"):
        assert report.counterexample["canon1"] == report.counterexample["canon2"]
        assert "meaning" in report.counterexample


def test_canonical_order_independence_run():
    report = check_canonical_order_independence(samples=100, seed=9)
    assert report.verdict == "pass"


def test_simple_security_run():
    report = check_simple_security(samples=500, seed=9)
    assert report.verdict == "pass"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_generator_postcondition_run():
    report = generator_postcondition(samples=40, seed=21)
    assert report.verdict == "pass", report.reason


def test_gen_lattice_valid():
    rng = random.Random(6)
    for _ in range(30):
        lat = gen_lattice(rng)
        assert 1 <= len(lat.elements) <= 8
        for a in lat.elements:
            assert lat.leq(lat.bottom, a)
            for b in lat.elements:
                j = lat.join(a, b)
                assert lat.leq(a, j) and lat.leq(b, j)


def test_gen_inputs_honour_clocks():
    rng = random.Random(10)
    for _ in range(20):
        prog = elaborate(gen_program(rng))
        for node in prog.nodes:
            ins = gen_inputs(rng, node, 12)
            for d in node.inputs:
                if isinstance(d.clock, ClockOn):
                    driver = ins[d.clock.var]
                    for t, v in enumerate(ins[d.name]):
                        expected = present(driver[t]) and driver[t] == d.clock.value
                        assert present(v) == expected


NESTED_CLOCK_SRC = """
node Nest(x: int when a when not b; a: bool; b: bool when a)
  returns (o: int when a when not b);
let
  o = x;
tel
"""


def test_gen_inputs_two_level_clock():
    node = elaborate(parse_program(NESTED_CLOCK_SRC)).node("Nest")
    ins = gen_inputs(random.Random(4), node, 40)
    a, b, x = ins["a"], ins["b"], ins["x"]
    assert all(present(v) for v in a)
    for t in range(40):
        assert present(b[t]) == (a[t] is True)
        assert present(x[t]) == (a[t] is True and b[t] is False)
    assert 0 < sum(present(v) for v in x) < 40


def test_sampled_assignments_satisfy():
    rng = random.Random(31)
    from luset.sectypes import satisfies
    for _ in range(10):
        prog = elaborate(gen_program(rng))
        results = infer_program(prog)
        lat = gen_lattice(rng)
        for name, res in results.items():
            assignment = sample_satisfying_assignment(rng, res, lat)
            inst = {res.gamma[p]: c for p, c in assignment.items()}
            assert satisfies(res.signature.constraints, inst, lat)


def test_report_json_round_trips():
    import json
    report = check_simple_security(samples=5, seed=0)
    data = report.to_json()
    assert json.loads(json.dumps(data)) == data
    assert data["check"] == "simple-security" and data["verdict"] == "pass"
