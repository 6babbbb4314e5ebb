"""Non-interference at a level where every watched variable reads only
inputs that both runs share (`lang.input_dependences`) is decided without
drawing or running anything when the assignment is satisfied and the
compiled code cannot raise (`codegen.may_raise`). The trial loop that drew
and ran every trial is kept here as the oracle, and every report must be
the one it gives, also under an inference mutant that hides leaks from the
signature. The dependence map itself is checked by runs: two draws that
agree on what a variable reads give it one stream."""

import random
from collections import Counter
from dataclasses import fields, is_dataclass, replace

import pytest

from luset import codegen, infer, lang
from luset.diagnostics import EvalError
from luset.harness import (FAIL, INCONCLUSIVE, PASS, SKIPPED, CheckReport, NIConfig,
                           _draw_inputs, _first_difference, _input_order, _observed,
                           _variable_levels, check_non_interference, gen_program,
                           sample_satisfying_assignment)
from luset.infer import infer_program, solve_interface
from luset.lang import (BASE_CLOCK, Binop, Const, Def, Ite, Node, Program, Ty, Var, VarDecl,
                        elaborate, input_dependences)
from luset.normalize import normalize_program
from luset.parser import parse_program
from luset.sectypes import Lattice
from luset.streams import run_compiled, show_value

from conftest import CTR_SRC


def trial_loop_non_interference(prog: Program, cfg: NIConfig) -> CheckReport:
    """`check_non_interference` as it was before a decided level skipped
    its trials: every trial draws, and at a level where every input must
    agree, runs the node once."""
    prog = elaborate(prog)
    lat = cfg.lattice
    results = infer_program(prog)
    res = results[cfg.node]
    node = prog.node(cfg.node)
    solved, violated = solve_interface(res, cfg.assignment, lat)
    details = {"level": cfg.level, "satisfied": not violated}
    if violated and not cfg.force:
        return CheckReport("non-interference", SKIPPED, node=cfg.node, seed=cfg.seed,
                           reason="assignment does not satisfy the node constraints",
                           details=details)
    levels = _variable_levels(res, solved, lat)

    equal_inputs = input_dependences(node, [d.name for d in node.inputs
                                            if lat.leq(levels[d.name], cfg.level)])
    observed = _observed(levels, cfg.level, lat)
    order = _input_order(node)
    declared = [d.name for d in node.inputs]
    names = declared + [d.name for d in node.outputs + node.locals]
    watched = [x for x in names if x in observed]
    bs = [True] * cfg.ticks
    one_run = equal_inputs >= set(declared)

    def run(ins):
        positional = [ins[x] for x in declared]
        return dict(zip(names, positional + run_compiled(prog, cfg.node, positional, bs)))

    rng = random.Random(cfg.seed)
    for trial in range(cfg.trials):
        shared = _draw_inputs(rng, order, cfg.ticks)
        if one_run:
            ins1 = ins2 = shared
        else:
            ins1 = _draw_inputs(rng, order, cfg.ticks, {x: shared[x] for x in equal_inputs})
            ins2 = _draw_inputs(rng, order, cfg.ticks, {x: shared[x] for x in equal_inputs})
        try:
            h1 = run(ins1)
            if one_run:
                continue
            h2 = run(ins2)
        except EvalError as exc:
            return CheckReport("non-interference", INCONCLUSIVE, node=cfg.node,
                               trials=trial + 1, seed=cfg.seed,
                               reason=str(exc), details=details)
        diff = _first_difference({x: h1[x] for x in watched}, {x: h2[x] for x in watched})
        if diff is not None:
            var, tick = diff
            return CheckReport(
                "non-interference", FAIL, node=cfg.node, trials=trial + 1, seed=cfg.seed,
                counterexample={
                    "variable": var, "tick": tick, "level": cfg.level,
                    "run1": [show_value(v) for v in h1[var]],
                    "run2": [show_value(v) for v in h2[var]],
                    "inputs1": {x: [show_value(v) for v in vs] for x, vs in ins1.items()},
                    "inputs2": {x: [show_value(v) for v in vs] for x, vs in ins2.items()},
                },
                details=details)
    return CheckReport("non-interference", PASS, node=cfg.node, trials=cfg.trials,
                       seed=cfg.seed, details=details)


LATTICES = [Lattice.two_point(), Lattice.powerset(2)]


def _partial(e, op: str, done: list):
    """e with its first `+`, `-` or `*` in reading order made `op`, once
    over all the calls that share `done`."""
    if done:
        return e
    if isinstance(e, Binop) and e.op in ("+", "-", "*"):
        done.append(e)
        return replace(e, op=op)
    changes = {}
    for f in fields(e):
        v = getattr(e, f.name)
        if isinstance(v, tuple):
            changes[f.name] = tuple(_partial(a, op, done) for a in v)
        elif is_dataclass(v):
            changes[f.name] = _partial(v, op, done)
    return replace(e, **changes) if changes else e


def _with_partial_operator(rng: random.Random, prog: Program) -> Program | None:
    """prog with the first arithmetic operator of one node, drawn, made
    `div` or `mod`; None when that node has none."""
    node = rng.choice(prog.nodes)
    op, done = rng.choice(("div", "mod")), []
    eqs = tuple(replace(eq, exprs=tuple(_partial(e, op, done) for e in eq.exprs))
                for eq in node.equations)
    if not done:
        return None
    return replace(prog, nodes=tuple(replace(n, equations=eqs) if n is node else n
                                     for n in prog.nodes))


def _population(draws: int):
    """(label, program) over `draws` generated programs, source and normal
    form, and of each a variant with a partial operator where it has one."""
    rng = random.Random(24)
    for i in range(draws):
        prog = gen_program(rng)
        variants = [("source", prog), ("normal", normalize_program(elaborate(prog))[0])]
        partial = _with_partial_operator(rng, prog)
        if partial is not None:
            variants.append(("partial", partial))
        for label, p in variants:
            yield f"{i}-{label}", p


def test_ni_reports_match_the_trial_loop_on_generated_programs():
    """Every level of two lattices, on 300 draws, under a satisfying
    assignment and under a forced one with secret inputs and public
    outputs: the same report. Decided levels, partial operators and
    witnesses are all there to see."""
    rng = random.Random(7)
    decided = compared = 0
    verdicts = Counter()
    for label, prog in _population(300):
        eprog = elaborate(prog)
        top = eprog.nodes[-1]
        res = infer_program(eprog)[top.name]
        for lat in LATTICES:
            leaky = {"base": lat.bottom, **{d.name: lat.top for d in top.inputs},
                     **{d.name: lat.bottom for d in top.outputs}}
            for assignment, force in ((sample_satisfying_assignment(rng, res, lat), False),
                                      (leaky, True)):
                for level in lat.elements:
                    cfg = NIConfig(top.name, lat, assignment, level, trials=6, ticks=12,
                                   seed=compared, force=force)
                    want = trial_loop_non_interference(prog, cfg).to_json()
                    assert check_non_interference(prog, cfg).to_json() == want, (label, level)
                    compared += 1
                    verdicts[want["verdict"]] += 1
        decided += not codegen.may_raise(eprog, top.name)
    assert compared >= 300 * 2 * 2 * 6 and decided > 300
    assert min(verdicts[v] for v in (PASS, FAIL, INCONCLUSIVE)) > 20, verdicts


def _node(op: str) -> Program:
    """A top node with a partial operator on its one input."""
    x, y = VarDecl("x", Ty.INT, BASE_CLOCK), VarDecl("y", Ty.INT, BASE_CLOCK)
    expr = Binop(op, Const(10), Binop("+", Var("x"), Const(9)))
    return Program((Node("P", (x,), (y,), (), (Def(("y",), None, (expr,)),)),))


@pytest.mark.parametrize("op, trials", [("div", 3), ("mod", 3)])
@pytest.mark.parametrize("secret, level", [("L", "H"), ("H", "L")], ids=["shared", "secret"])
def test_partial_operators_keep_the_trial_loop(op, trials, secret, level):
    """A run that raises ends the check inconclusive at the trial the loop
    reaches, both where every input is shared and where one is secret."""
    prog = _node(op)
    assert codegen.may_raise(elaborate(prog), "P")
    cfg = NIConfig("P", Lattice.two_point(), {"base": "L", "x": secret, "y": secret}, level,
                   trials=100, ticks=8, seed=2)
    report = check_non_interference(prog, cfg).to_json()
    assert report == trial_loop_non_interference(prog, cfg).to_json()
    assert report["verdict"] == INCONCLUSIVE
    assert report["trials"] == (trials if secret == "L" else 1)


def test_a_callee_with_a_partial_operator_keeps_the_trial_loop():
    """`may_raise` covers every node the code steps, not only the top."""
    callees = ("node half(a: int) returns (b: int); let b = a div 2; tel\n"
               "node inc(a: int) returns (b: int); let b = a + 1; tel\n")
    for callee, raises in (("half", True), ("inc", False)):
        prog = parse_program(callees + "node T(x: int) returns (y: int); "
                             f"let y = {callee}(x) * 2; tel\n")
        assert codegen.may_raise(elaborate(prog), "T") is raises
        cfg = NIConfig("T", Lattice.two_point(), {"base": "L", "x": "L", "y": "L"}, "H",
                       trials=20, ticks=8, seed=1)
        report = check_non_interference(prog, cfg).to_json()
        assert report == trial_loop_non_interference(prog, cfg).to_json()
        assert report["verdict"] == PASS and report["trials"] == 20


def test_total_code_is_decided_and_a_refused_build_is_not(monkeypatch):
    prog = parse_program(CTR_SRC)
    eprog = elaborate(prog)
    assert codegen.runner(eprog, "Ctr") is not None and not codegen.may_raise(eprog, "Ctr")
    cfg = NIConfig("Ctr", Lattice.two_point(),
                   {"base": "L", "init": "L", "incr": "L", "rst": "L", "n": "L"}, "H",
                   trials=40, ticks=16, seed=9)
    want = trial_loop_non_interference(prog, cfg).to_json()
    assert check_non_interference(prog, cfg).to_json() == want
    refused = parse_program(CTR_SRC)  # a new program object, whose build is not kept yet
    monkeypatch.setattr(codegen, "_build", lambda prog, name: EvalError("refused", "no code"))
    assert codegen.may_raise(elaborate(refused), "Ctr")
    report = check_non_interference(refused, cfg).to_json()
    assert report == trial_loop_non_interference(refused, cfg).to_json()
    assert (report["verdict"], report["trials"], report["reason"]) == \
        (INCONCLUSIVE, 1, "refused: no code")


def _no_if_condition(expr):
    """`infer._expr` with the condition of an `if` dropped from the types
    of its branches, a mutant that hides implicit flows."""
    def mutant(ctx, e):
        if isinstance(e, Ite):
            tslots, fslots = infer._exprs(ctx, e.on_true), infer._exprs(ctx, e.on_false)
            return [a | b for a, b in zip(tslots, fslots)]
        return expr(ctx, e)
    return mutant


def test_ni_reports_match_the_trial_loop_under_an_inference_mutant(monkeypatch):
    """With the `if` condition dropped from inference, assignments that
    satisfy the mutant signatures leak, and the trial loop finds some of the
    leaks: the decided branch gives every report the loop gives, so it
    hides none of them."""
    monkeypatch.setattr(infer, "_expr", _no_if_condition(infer._expr))
    rng = random.Random(8)
    verdicts = Counter()
    for label, prog in _population(300):
        eprog = elaborate(prog)
        top = eprog.nodes[-1]
        res = infer_program(eprog)[top.name]
        for lat in LATTICES:
            assignment = sample_satisfying_assignment(rng, res, lat)
            for level in lat.elements:
                cfg = NIConfig(top.name, lat, assignment, level, trials=6, ticks=12,
                               seed=sum(verdicts.values()))
                want = trial_loop_non_interference(prog, cfg).to_json()
                assert check_non_interference(prog, cfg).to_json() == want, (label, level)
                verdicts[want["verdict"]] += 1
    assert sum(verdicts.values()) >= 300 * 2 * 6 and verdicts[FAIL] >= 20, verdicts


def _dependence_differences(deps) -> tuple[int, int]:
    """(comparisons, differing ones) over 300 draws, source and normal form:
    for each declared variable x of the top node, two runs on draws that
    agree exactly on `deps(node, x)`, closed under clock drivers
    (`input_dependences` of it), and whether x's streams differ."""
    programs, rng = random.Random(28), random.Random(29)
    compared = differing = 0
    for _ in range(300):
        prog = elaborate(gen_program(programs))
        for p in (prog, elaborate(normalize_program(prog)[0])):
            node = p.nodes[-1]
            order, declared = _input_order(node), [d.name for d in node.inputs]
            names = declared + [d.name for d in node.outputs + node.locals]
            bs = [True] * 12
            for x in names:
                agree = input_dependences(node, deps(node, x))
                shared = _draw_inputs(rng, order, len(bs))
                runs = []
                for _ in range(2):
                    ins = _draw_inputs(rng, order, len(bs), {y: shared[y] for y in agree})
                    positional = [ins[y] for y in declared]
                    runs.append(dict(zip(names, positional + run_compiled(p, node.name,
                                                                          positional, bs))))
                compared += 1
                differing += _first_difference({x: runs[0][x]}, {x: runs[1][x]}) is not None
    return compared, differing


def test_input_dependences_are_sound():
    """Two runs whose inputs agree on what a variable reads give it the same
    stream, on every declared variable of 300 generated top nodes."""
    compared, differing = _dependence_differences(lambda node, x: input_dependences(node, [x]))
    assert differing == 0 and compared > 3000


def test_a_dependence_map_without_clocks_is_caught(monkeypatch):
    """The soundness test sees a map that forgets what clocks sample."""
    def without_clocks(node, x):
        with monkeypatch.context() as m:
            m.setattr(lang, "clock_vars", lambda ck: set())
            return input_dependences(node, [x])

    compared, differing = _dependence_differences(without_clocks)
    assert differing > 20 and compared > 3000
