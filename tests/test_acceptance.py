"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget. Run with `pytest tests/test_acceptance.py -v`
(add `-s` to see the per-criterion lines as they complete).
"""

import json
import random
import time

from luset.harness import (NIConfig, check_equational_soundness, check_non_interference,
                           check_semantics_preservation, gen_program,
                           sample_satisfying_assignment)
from luset.infer import check_program, infer_program, simplify
from luset.lang import elaborate
from luset.normalize import normalize_program
from luset.parser import parse_program
from luset.sectypes import (CanonType, Constraint, ConstraintSet, Lattice, cs, ct,
                            least_fixpoint, satisfies, violations)
from luset.streams import run_node

from conftest import (CNT_DN_SRC, CTR_SPDMTR_SRC, CTR_TABLE, LEAK_ITE_SRC,
                      LEAK_MERGE_SRC, RE_TRIG_SRC, chain_src,
                      check_canonical_order_independence, gen_lattice, tree_src)

TWO = Lattice.two_point()


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.name} exceeded its {self.seconds}s budget ({elapsed:.2f}s)"
        return False


def _rename(rho: ConstraintSet, mapping: dict) -> ConstraintSet:
    def ren(t: CanonType) -> CanonType:
        return CanonType(tuple(mapping.get(v, v) for v in t.vars))

    return ConstraintSet(Constraint.make(ren(c.lhs), ren(c.rhs)) for c in rho)


def test_criterion_1_golden_signatures():
    """Inferred signatures equal the published ones exactly (canonical
    modulo AC; interface variables matched positionally)."""
    with _Budget("criterion-1 golden signatures", 1.0):
        sigs = {name: res.signature
                for name, res in infer_program(elaborate(parse_program(CTR_SPDMTR_SRC))).items()}
        assert sigs["Ctr"].constraints == cs((ct("γ", "α1", "α2", "α3"), ct("β")))
        assert sigs["SpdMtr"].constraints == cs((ct("γ1", "α4"), ct("β1")),
                                                (ct("γ1", "β1"), ct("β2")))

        cnt = infer_program(elaborate(parse_program(CNT_DN_SRC)))["cnt_dn"].signature
        assert cnt.constraints == cs((ct("γ", "α1", "α2"), ct("β")))

        retrig = infer_program(elaborate(parse_program(RE_TRIG_SRC)))["re_trig"].signature
        ren = {retrig.inputs[0]: "α'1", retrig.inputs[1]: "α'2",
               retrig.outputs[0]: "β'", retrig.clock: "γ'"}
        assert _rename(retrig.constraints, ren) == cs((ct("γ'", "α'1", "α'2"), ct("β'")))


def test_criterion_2_golden_execution():
    """The counter, run over the published 7-tick input table, reproduces
    the n, fst and pre_n rows value for value."""
    with _Budget("criterion-2 golden execution", 1.0):
        prog = elaborate(parse_program(CTR_SPDMTR_SRC))
        history, _ = run_node(prog, "Ctr",
                              {k: CTR_TABLE[k] for k in ("init", "incr", "rst")}, 7)
        assert history["n"] == CTR_TABLE["n"]
        assert history["fst"] == CTR_TABLE["fst"]
        assert history["pre_n"] == CTR_TABLE["pre_n"]


def test_criterion_3_type_preservation():
    """cnt_dn and re_trig keep canonically identical signatures across
    normalisation; over 200 random well-typed programs, every satisfying
    instantiation of the source signature satisfies the normalised one
    (10 instantiations each, random lattices of at most 8 elements)."""
    with _Budget("criterion-3 type preservation", 30.0):
        for src, name in ((CNT_DN_SRC, "cnt_dn"), (RE_TRIG_SRC, "re_trig")):
            prog = elaborate(parse_program(src))
            nprog, _ = normalize_program(prog)
            s0 = infer_program(prog)[name].signature
            s1 = infer_program(nprog)[name].signature
            assert (s0.inputs, s0.outputs, s0.clock) == (s1.inputs, s1.outputs, s1.clock)
            assert s0.constraints == s1.constraints

        rng = random.Random(2301)
        violations_count = 0
        for _ in range(200):
            prog = gen_program(rng)
            nprog, _ = normalize_program(prog)
            before = infer_program(elaborate(prog))
            after = infer_program(nprog)
            for name in before:
                s0, s1 = before[name].signature, after[name].signature
                vars_all = sorted(set(s0.interface_vars()))
                for _ in range(2):
                    lat = gen_lattice(rng)
                    for _ in range(5):
                        inst = {v: rng.choice(lat.elements) for v in vars_all}
                        if satisfies(s0.constraints, inst, lat) and \
                                not satisfies(s1.constraints, inst, lat):
                            violations_count += 1
        assert violations_count == 0


def test_criterion_4_semantics_preservation():
    """100 random programs x 20 random input prefixes x 64 ticks: the
    normalised program's outputs are value-identical to the source's."""
    with _Budget("criterion-4 semantics preservation", 60.0):
        rng = random.Random(2401)
        mismatches = 0
        for i in range(100):
            prog = gen_program(rng)
            for node in prog.nodes:
                report = check_semantics_preservation(prog, node.name, trials=20,
                                                      ticks=64, seed=2401 + i)
                assert report.verdict == "pass", report.to_json()
                if report.verdict != "pass":
                    mismatches += 1
        assert mismatches == 0


def test_criterion_5_non_interference():
    """Generated programs with sampled satisfying assignments pass 100
    paired-run trials at every lattice level (two-point lattice, 32-tick
    prefixes, 12 programs). The two published insecure snippets are rejected
    by the checker and, when forced, produce a counterexample within 10
    trials."""
    with _Budget("criterion-5 non-interference", 60.0):
        rng = random.Random(2501)
        failures = 0
        for i in range(12):
            prog = elaborate(gen_program(rng))
            results = infer_program(prog)
            for node in prog.nodes:
                assignment = sample_satisfying_assignment(rng, results[node.name], TWO)
                for level in TWO.elements:
                    cfg = NIConfig(node.name, TWO, assignment, level,
                                   trials=100, ticks=32, seed=2501 + i)
                    report = check_non_interference(prog, cfg)
                    assert report.verdict == "pass", report.to_json()
                    if report.verdict != "pass":
                        failures += 1
        assert failures == 0

        for src, node, secret, public in ((LEAK_ITE_SRC, "Leak", "b", "c"),
                                          (LEAK_MERGE_SRC, "Leak2", "x", "c0")):
            prog = elaborate(parse_program(src))
            entry = {"node": node, "base": "L",
                     "inputs": {secret: "H"}, "outputs": {public: "L"}}
            report = check_program(prog, TWO, [entry])
            assert not report.secure  # (a) rejected by the checker
            cfg = NIConfig(node, TWO, {"base": "L", secret: "H", public: "L"},
                           level="L", trials=10, ticks=16, seed=2502, force=True)
            ni = check_non_interference(prog, cfg)
            assert ni.verdict == "fail" and ni.trials <= 10  # (b) witness found


def test_criterion_6_equational_theory():
    """1000 rewrite-related type pairs canonicalise identically, to the raw
    type's meaning in the free join-semilattice, which decides equality in
    every lattice; canonicalisation is independent of join-tree shape over
    100 random permutations."""
    with _Budget("criterion-6 equational theory", 10.0):
        report = check_equational_soundness(samples=1000, seed=2601)
        assert report.verdict == "pass", report.to_json()
        order = check_canonical_order_independence(samples=100, seed=2601)
        assert order.verdict == "pass", order.to_json()


def _gen_constraint_system(rng: random.Random):
    """A random constraint set meeting the unique-defining-constraint
    precondition, with the variables to eliminate."""
    n_free = rng.randint(1, 4)
    n_local = rng.randint(1, 4)
    free = [f"f{i}" for i in range(n_free)]
    locals_ = [f"d{i}" for i in range(n_local)]
    pool = free + locals_
    constraints = []
    for d in locals_:
        if rng.random() < 0.85:  # at most one defining constraint each
            lhs = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            if rng.random() < 0.25:
                lhs.append(d)  # self-referential defining constraint
            constraints.append(Constraint.make(ct(*lhs), ct(d)))
    for _ in range(rng.randint(1, 4)):
        lhs = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        rhs = rng.choice(free)
        constraints.append(Constraint.make(ct(*lhs), ct(rhs)))
    return ConstraintSet(constraints), locals_


def test_criterion_7_simplify_correctness():
    """500 random constraint systems with a satisfying instantiation stay
    satisfied after local-variable elimination."""
    with _Budget("criterion-7 simplify correctness", 10.0):
        rng = random.Random(2701)
        produced = 0
        while produced < 500:
            rho, locals_ = _gen_constraint_system(rng)
            lat = gen_lattice(rng)
            # fix variables that no constraint defines, solve the rest upward
            rhs_vars = {c.rhs.vars[0] for c in rho}
            fixed = {v: rng.choice(lat.elements)
                     for v in rho.variables - rhs_vars}
            s = least_fixpoint(rho, fixed, lat)
            for v in rho.variables:
                s.setdefault(v, lat.bottom)
            if violations(rho, s, lat):
                continue  # sampled instantiation must satisfy the system
            produced += 1
            simplified = simplify(rho, locals_)
            assert not violations(simplified, s, lat), \
                f"simplified system violated: {rho} -> {simplified} under {s}"
            # eliminated variables never remain on the right of a constraint
            assert all(c.rhs.vars[0] not in locals_ for c in simplified)
        assert produced == 500


def test_check_scales_linearly_in_call_tree_depth():
    """Checking the top of a depth-20 call tree (2^20 call paths) visits
    each (callee, instantiation) pair once: all-L and one input H."""
    with _Budget("scaling check depth-20 call tree", 2.0):
        prog = elaborate(parse_program(tree_src(20)))
        report = check_program(prog, TWO, [
            {"node": "N20", "base": "L", "inputs": {"x": "L"}, "outputs": {"y": "L"}},
            {"node": "N20", "base": "L", "inputs": {"x": "H"}}])
        assert report.secure
        assert [len(n.calls) for n in report.nodes] == [2, 2]


def test_inference_scales_linearly_in_chain_length():
    """Signature inference eliminates the 1599 locals of a chain without
    re-sorting the whole constraint set per local."""
    with _Budget("scaling infer 1600-equation chain", 2.0):
        sig = infer_program(elaborate(parse_program(chain_src(1600))))["chain"].signature
        assert sig.constraints == cs((ct("γ", "α1", "α2", "α3", "α4"), ct("β")))


def test_run_scales_to_long_traces():
    """SpdMtr runs 100 000 ticks within the budget and agrees with its two
    counters written out by hand."""
    acc = [random.Random(2601).randint(-9, 9) for _ in range(100_000)]
    with _Budget("scaling run 100000 ticks of SpdMtr", 2.0):
        history, _ = run_node(elaborate(parse_program(CTR_SPDMTR_SRC)), "SpdMtr",
                              {"acc": acc}, len(acc))
    spd, pos = [0], [3]
    for a in acc[1:]:
        spd.append(spd[-1] + a)
        pos.append(pos[-1] + spd[-1])
    assert history["spd"] == spd and history["pos"] == pos


# The report `check --json` prints for N12 of the depth-12 call tree (all
# L; x H and y L; x H and y solved), recorded before call checking was
# memoised.
TREE12_REPORT = (
    '{"lattice": "two-point", "verdict": "insecure", "nodes": ['
    '{"node": "N12", "verdict": "secure", "assignment": {"base": "L", "x": "L", "y": "L"}, '
    '"violated": [], "solved": [], "calls": ['
    '{"callee": "N11", "equation": 0, "verdict": "secure", "violated": []}, '
    '{"callee": "N11", "equation": 1, "verdict": "secure", "violated": []}]}, '
    '{"node": "N12", "verdict": "insecure", "assignment": {"base": "L", "x": "H", "y": "L"}, '
    '"violated": ["γ12⊔α12 ⊑ β12"], "solved": [], "calls": []}, '
    '{"node": "N12", "verdict": "secure", "assignment": {"base": "L", "x": "H", "y": "H"}, '
    '"violated": [], "solved": ["β12"], "calls": ['
    '{"callee": "N11", "equation": 0, "verdict": "secure", "violated": []}, '
    '{"callee": "N11", "equation": 1, "verdict": "secure", "violated": []}]}]}')


def test_check_report_of_call_tree_pinned():
    with _Budget("check report depth-12 call tree", 2.0):
        prog = elaborate(parse_program(tree_src(12)))
        report = check_program(prog, TWO, [
            {"node": "N12", "base": "L", "inputs": {"x": "L"}, "outputs": {"y": "L"}},
            {"node": "N12", "base": "L", "inputs": {"x": "H"}, "outputs": {"y": "L"}},
            {"node": "N12", "base": "L", "inputs": {"x": "H"}}])
        assert json.dumps(report.to_json(), ensure_ascii=False) == TREE12_REPORT
