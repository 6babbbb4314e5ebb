"""Property-test drivers: non-interference, semantics and type preservation
under normalisation, soundness of the type equational theory, and simple
security — all at desk scale over randomly generated programs.

Every check that draws takes an explicit seed and reports it, so any
failure can be replayed exactly. Type preservation draws nothing: it
decides entailment, so its report carries no seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

from .diagnostics import EvalError, InferError, LusetError
from .infer import InferenceResult, infer_program, solve_interface, type_expr
from .lang import (BASE, BASE_CLOCK, Binop, Call, Clock, ClockBase, ClockOn, Const, Def,
                   Equation, Expr, Fby, Ite, Merge, Node, Program, Ty, Unop, Var,
                   VarDecl, When, clock_vars, elaborate, free_vars, input_dependences, well_formed)
from .normalize import normalize_program
from .sectypes import (Bot, CanonType, Lattice, Lub, Refine, SecType, TVar, canon,
                       least_fixpoint, not_entailed)
from .streams import ABSENT, History, _streams_equal, eval_clock, run_compiled, run_node, show_value

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
SKIPPED = "vacuously-skipped"


@dataclass
class CheckReport:
    check: str
    verdict: str
    node: str | None = None
    trials: int = 0
    seed: int | None = None
    reason: str | None = None
    counterexample: dict | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"check": self.check, "verdict": self.verdict, "trials": self.trials}
        if self.node is not None:
            out["node"] = self.node
        if self.seed is not None:
            out["seed"] = self.seed
        if self.reason:
            out["reason"] = self.reason
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        out.update(self.details)
        return out


# ---------------------------------------------------------------------------
# Random programs and inputs
# ---------------------------------------------------------------------------

class _GenNode:
    """Scratch state while generating a single node."""

    def __init__(self):
        self.decls: dict[str, VarDecl] = {}
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.locals: list[str] = []
        self.defined: list[str] = []  # in definition order
        self.equations: list[Equation] = []


def gen_program(rng: random.Random, max_nodes: int = 3) -> Program:
    """Random well-clocked, causal, type-correct program.

    Nodes may call earlier base-interface nodes; equations are generated in
    an order where instantaneous reads see only inputs and already-defined
    variables, so causality holds by construction.
    """
    nodes: list[Node] = []
    callable_nodes: list[Node] = []
    for idx in range(rng.randint(1, max_nodes)):
        node = _gen_node(rng, f"N{idx}", callable_nodes)
        nodes.append(node)
        if all(isinstance(d.clock, ClockBase) for d in node.inputs + node.outputs):
            callable_nodes.append(node)
    return Program(tuple(nodes))


def _gen_node(rng: random.Random, name: str, callees: list[Node]) -> Node:
    st = _GenNode()

    def declare(kind: list[str], prefix: str, ty: Ty, clock: Clock):
        v = f"{prefix}{len(st.decls)}"
        st.decls[v] = VarDecl(v, ty, clock)
        kind.append(v)
        return v

    n_in = rng.randint(1, 3)
    for _ in range(n_in):
        declare(st.inputs, "i", rng.choice((Ty.INT, Ty.INT, Ty.BOOL)), BASE_CLOCK)
    bool_base_inputs = [v for v in st.inputs if st.decls[v].ty is Ty.BOOL]
    if bool_base_inputs and rng.random() < 0.25:
        driver = rng.choice(bool_base_inputs)
        declare(st.inputs, "i", rng.choice((Ty.INT, Ty.BOOL)),
                ClockOn(BASE_CLOCK, driver, rng.random() < 0.5))

    for _ in range(rng.randint(1, 2)):
        declare(st.outputs, "o", rng.choice((Ty.INT, Ty.INT, Ty.BOOL)), BASE_CLOCK)
    for _ in range(rng.randint(0, 2)):
        declare(st.locals, "l", rng.choice((Ty.INT, Ty.BOOL)), BASE_CLOCK)

    todo = st.outputs + st.locals
    rng.shuffle(todo)

    # sometimes give a local/output a derived clock driven by a bool base var
    for v in todo:
        if rng.random() < 0.2:
            drivers = [d for d in st.inputs
                       if st.decls[d].ty is Ty.BOOL and isinstance(st.decls[d].clock, ClockBase)]
            if drivers:
                d = st.decls[v]
                st.decls[v] = VarDecl(v, d.ty, ClockOn(BASE_CLOCK, rng.choice(drivers),
                                                       rng.random() < 0.5))

    pos = 0
    while pos < len(todo):
        v = todo[pos]
        decl = st.decls[v]
        # occasionally define two base-clocked variables by one tuple call
        partner = None
        if (pos + 1 < len(todo) and rng.random() < 0.2
                and isinstance(decl.clock, ClockBase)
                and isinstance(st.decls[todo[pos + 1]].clock, ClockBase)):
            two_out = [c for c in callees
                       if len(c.outputs) == 2
                       and (c.outputs[0].ty, c.outputs[1].ty) ==
                           (decl.ty, st.decls[todo[pos + 1]].ty)]
            if two_out:
                callee = rng.choice(two_out)
                partner = todo[pos + 1]
                args = tuple(_gen_expr(rng, st, d.ty, BASE_CLOCK, 1, callees)
                             for d in callee.inputs)
                st.equations.append(Def((v, partner), None, (Call(callee.name, args),)))
                st.defined += [v, partner]
                pos += 2
                continue
        expr = _gen_expr(rng, st, decl.ty, decl.clock, rng.randint(1, 3), callees)
        st.equations.append(Def((v,), None, (expr,)))
        st.defined.append(v)
        pos += 1

    decls = st.decls
    return Node(name,
                tuple(decls[v] for v in st.inputs),
                tuple(decls[v] for v in st.outputs),
                tuple(decls[v] for v in st.locals),
                tuple(st.equations))


def _gen_const(rng: random.Random, ty: Ty) -> Const:
    if ty is Ty.BOOL:
        return Const(rng.random() < 0.5)
    return Const(rng.randint(0, 9))


def _avail_vars(st: _GenNode, ty: Ty, clock: Clock, delayed: bool) -> list[str]:
    pool = st.inputs + (st.outputs + st.locals if delayed else st.defined)
    return [v for v in pool if st.decls[v].ty is ty and st.decls[v].clock == clock]


def _gen_expr(rng: random.Random, st: _GenNode, ty: Ty, clock: Clock, depth: int,
              callees: list[Node], delayed: bool = False) -> Expr:
    choices = ["const"]
    vars_here = _avail_vars(st, ty, clock, delayed)
    if vars_here:
        choices += ["var"] * 3
    if depth > 0:
        choices += ["unop", "binop", "binop", "ite"]
        if isinstance(clock, ClockOn):
            choices += ["when"] * 3
        mergeable = _avail_vars(st, Ty.BOOL, clock, delayed=False)
        if mergeable:
            choices.append("merge")
        choices += ["fby", "fby"]
        ok_callees = [c for c in callees
                      if len(c.outputs) == 1 and c.outputs[0].ty is ty]
        if ok_callees:
            choices.append("call")

    match rng.choice(choices):
        case "const":
            return _gen_const(rng, ty)
        case "var":
            return Var(rng.choice(vars_here))
        case "unop":
            op = "not" if ty is Ty.BOOL else "-"
            return Unop(op, _gen_expr(rng, st, ty, clock, depth - 1, callees, delayed))
        case "binop":
            if ty is Ty.INT:
                op = rng.choice(("+", "-", "*"))
                lty = rty = Ty.INT
            else:
                op = rng.choice(("and", "or", "<", "<=", "=", ">"))
                lty = rty = Ty.BOOL if op in ("and", "or") else Ty.INT
            return Binop(op,
                         _gen_expr(rng, st, lty, clock, depth - 1, callees, delayed),
                         _gen_expr(rng, st, rty, clock, depth - 1, callees, delayed))
        case "ite":
            return Ite(_gen_expr(rng, st, Ty.BOOL, clock, depth - 1, callees, delayed),
                       (_gen_expr(rng, st, ty, clock, depth - 1, callees, delayed),),
                       (_gen_expr(rng, st, ty, clock, depth - 1, callees, delayed),))
        case "when":
            assert isinstance(clock, ClockOn)
            inner = _gen_expr(rng, st, ty, clock.base, depth - 1, callees, delayed)
            return When((inner,), clock.var, clock.value)
        case "merge":
            y = rng.choice(_avail_vars(st, Ty.BOOL, clock, delayed=False))
            return Merge(y,
                         (_gen_expr(rng, st, ty, ClockOn(clock, y, True), depth - 1,
                                    callees, delayed),),
                         (_gen_expr(rng, st, ty, ClockOn(clock, y, False), depth - 1,
                                    callees, delayed),))
        case "fby":
            head = _gen_expr(rng, st, ty, clock, depth - 1, callees, delayed)
            body = _gen_expr(rng, st, ty, clock, depth - 1, callees, delayed=True)
            return Fby((head,), (body,))
        case "call":
            ok_callees = [c for c in callees
                          if len(c.outputs) == 1 and c.outputs[0].ty is ty]
            callee = rng.choice(ok_callees)
            args = tuple(_gen_expr(rng, st, d.ty, clock, depth - 1, callees, delayed)
                         for d in callee.inputs)
            return Call(callee.name, args)
    raise AssertionError


def _input_order(node: Node) -> list[VarDecl]:
    """Inputs ordered so clock drivers come before the streams they gate."""
    remaining = list(node.inputs)
    done: list[VarDecl] = []
    names_done: set[str] = set()
    while remaining:
        for d in remaining:
            if clock_vars(d.clock) <= names_done:
                done.append(d)
                names_done.add(d.name)
                remaining.remove(d)
                break
        else:
            raise InferError("clock-mismatch", f"circular input clocks in {node.name}")
    return done


_INT_LO, _INT_HI = -9, 9
_INT_SPAN = _INT_HI - _INT_LO + 1
_INT_BITS = _INT_SPAN.bit_length()


def _samples(rng: random.Random, ty: Ty, n: int) -> list:
    """n random values of a type: `random() < 0.5` for a bool, and for an
    int what `randint(_INT_LO, _INT_HI)` draws in CPython 3.10-3.12
    (`getrandbits` of the span's bit length until below the span)."""
    if ty is Ty.BOOL:
        random_ = rng.random
        return [random_() < 0.5 for _ in range(n)]
    getrandbits = rng.getrandbits
    vs = []
    for _ in range(n):
        r = getrandbits(_INT_BITS)
        while r >= _INT_SPAN:
            r = getrandbits(_INT_BITS)
        vs.append(r + _INT_LO)
    return vs


def gen_inputs(rng: random.Random, node: Node, ticks: int,
               shared: Mapping[str, list] | None = None) -> History:
    """Random input streams honouring declared clocks: a stream is present
    exactly where its clock (evaluated over the sampled drivers) is live.
    Streams named in `shared` are copied instead of sampled.

    The draws are exactly those of drawing each input in `_input_order`,
    tick by tick on its live ticks, with `rng.random() < 0.5` for a bool
    and `rng.randint(-9, 9)` for an int, so the values and the generator
    state after the call are those of that loop, and so is every
    `suite --seed` output. `tests/test_draws.py` pins both.

    The clocks are evaluated under an always-live base clock, so the first
    input in that order is on the base clock and present at every tick, and
    the default base clock that `streams.check_inputs` builds and returns for
    a draw run without one is always-live too. The checks below draw through
    `_draw_inputs` with the order computed once per call.
    """
    return _draw_inputs(rng, _input_order(node), ticks, shared)


def _draw_inputs(rng: random.Random, order: list[VarDecl], ticks: int,
                 shared: Mapping[str, list] | None = None) -> History:
    """`gen_inputs` over inputs already in `_input_order`."""
    streams: History = {}
    for d in order:
        if shared is not None and d.name in shared:
            streams[d.name] = list(shared[d.name])
        elif isinstance(d.clock, ClockBase):  # live at every tick
            streams[d.name] = _samples(rng, d.ty, ticks)
        else:
            live = eval_clock(streams, [True] * ticks, d.clock)
            samples = iter(_samples(rng, d.ty, live.count(True)))
            streams[d.name] = [next(samples) if b else ABSENT for b in live]
    return streams


# ---------------------------------------------------------------------------
# Non-interference
# ---------------------------------------------------------------------------

@dataclass
class NIConfig:
    node: str
    lattice: Lattice
    assignment: dict[str, str]  # program variables and `base` -> class
    level: str
    trials: int = 100
    ticks: int = 64
    seed: int = 0
    force: bool = False


def _observed(levels: Mapping[str, str], level: str, lat: Lattice) -> set[str]:
    """The variables at or below the given level."""
    return {x for x, c in levels.items() if lat.leq(c, level)}


def _variable_levels(res: InferenceResult, interface_inst: Mapping[str, str],
                     lat: Lattice) -> dict[str, str]:
    """Security class of every node variable: the interface instantiation
    extended over locals by the least fixpoint of the full constraints."""
    full = least_fixpoint(res.full_constraints, interface_inst, lat)
    return {prog_var: full.get(tv, lat.bottom) for prog_var, tv in res.gamma.items()}


def check_non_interference(prog: Program, cfg: NIConfig) -> CheckReport:
    """Paired-run test of the non-interference theorem at one level.

    Each trial draws two input histories that agree on every input at or
    below the level (and on the clock drivers of such inputs), runs the node
    on both, and compares the projections of the full histories.

    What stays the same between trials is worked out once per call: the
    input order of the draws, the names of the history and the observed
    ones, and the base clock, always-live for every draw (see `gen_inputs`).
    The node runs as compiled code (`streams.run_compiled`) on inputs drawn
    on their clocks, as `run_node` would accept them. When every input must
    agree, the two histories are copies of one draw and the node runs once:
    the semantics is deterministic, so the second run could only repeat the
    first. By the same argument, when every watched variable reads only
    inputs that both runs share (`lang.input_dependences`), the two
    projections are equal and a trial can change the report only by
    raising. So when that holds, the assignment is satisfied and the
    compiled code of the node cannot raise on the drawn inputs
    (`codegen.may_raise`), nothing is drawn or run: the report is the pass
    that the trial loop would give, and its `trials` counts trials decided,
    not runs made. A forced violated assignment, a `div` or `mod` in the
    code, a refused build, and a watched variable whose equation also reads
    a secret input (a tuple equation or a call, which the map does not
    split) keep the trial loop.
    """
    from . import codegen  # imported on first use, as `streams.run_compiled` does

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

    # the inputs at or below the level, closed under their clock drivers
    equal_inputs = input_dependences(node, [d.name for d in node.inputs
                                            if lat.leq(levels[d.name], cfg.level)])
    declared = [d.name for d in node.inputs]
    names = declared + [d.name for d in node.outputs + node.locals]
    observed = _observed(levels, cfg.level, lat)
    watched = [x for x in names if x in observed]
    if (not violated and input_dependences(node, watched) <= equal_inputs
            and not codegen.may_raise(prog, cfg.node)):
        return CheckReport("non-interference", PASS, node=cfg.node, trials=cfg.trials,
                           seed=cfg.seed, details=details)
    order = _input_order(node)
    one_run = equal_inputs >= set(declared)
    bs = [True] * cfg.ticks

    def run(ins: History) -> History:
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


def _first_difference(h1: History, h2: History) -> tuple[str, int] | None:
    """First differing (variable, tick) in name order, comparing streams
    over their common prefix; (name, -1) for a variable only one side has."""
    if set(h1) != set(h2):
        stray = set(h1) ^ set(h2)
        return sorted(stray)[0], -1
    for x in sorted(h1):
        xs, ys = h1[x], h2[x]
        if _streams_equal(xs, ys):
            continue
        for t, (a, b) in enumerate(zip(xs, ys)):
            if type(a) is not type(b) or a != b:  # `ABSENT` is of a type of its own
                return x, t
    return None


# ---------------------------------------------------------------------------
# Preservation checks
# ---------------------------------------------------------------------------

def check_semantics_preservation(prog: Program, node_name: str, trials: int = 100,
                                 ticks: int = 64, seed: int = 0) -> CheckReport:
    """Every variable of a node has the same streams before and after
    normalisation, over random clock-honouring input prefixes.

    Each trial runs the compiled code of the normal form (`codegen.runner`,
    the build that non-interference trials of the node reuse) and asks for
    the earliest fault of its history, of every output and local of the
    source node, against the source node's equations
    (`semantics.earliest_fault`). A causal node's equations have one
    solution, so a history without a fault is the source's own. A fault
    fails the check, with the variable (a call path in a callee), the tick,
    and the source's and the normal form's streams of it and the inputs,
    each cut after the tick. A normalisation error or a refused build
    leaves the check inconclusive before the first trial; a run that
    raises, or a source stuck where the normal form runs, at its trial."""
    from . import codegen  # imported on first use, as NI does
    from .semantics import earliest_fault
    prog = elaborate(prog)
    try:
        codegen.runner(prog, node_name)
        fault = earliest_fault(prog, node_name)
    except (LusetError, RecursionError) as exc:  # a build refused for its depth too
        return CheckReport("semantics-preservation", INCONCLUSIVE, node=node_name,
                           seed=seed, reason=str(exc))
    node = prog.node(node_name)
    order = _input_order(node)
    declared = [d.name for d in node.inputs]
    names = declared + [d.name for d in node.outputs + node.locals]
    bs = [True] * ticks
    rng = random.Random(seed)
    for trial in range(trials):
        ins = _draw_inputs(rng, order, ticks)
        positional = [ins[x] for x in declared]
        try:
            hist = run_compiled(prog, node_name, positional, bs)
            found = fault(dict(zip(names, positional + hist)), bs)
        except EvalError as exc:
            return CheckReport("semantics-preservation", INCONCLUSIVE, node=node_name,
                               trials=trial + 1, seed=seed, reason=str(exc))
        if found is not None:
            return CheckReport(
                "semantics-preservation", FAIL, node=node_name, trials=trial + 1, seed=seed,
                counterexample={
                    "variable": found.variable, "tick": found.tick,
                    "source": [show_value(v) for v in found.source],
                    "normalised": [show_value(v) for v in found.history],
                    "inputs": {x: [show_value(v) for v in vs[:found.tick + 1]]
                               for x, vs in ins.items()},
                })
    return CheckReport("semantics-preservation", PASS, node=node_name,
                       trials=trials, seed=seed)


def check_type_preservation(prog: Program, node_name: str | None = None, *,
                            lattice_samples: int | None = None,
                            instantiation_samples: int | None = None,
                            seed: int | None = None) -> CheckReport:
    """Signatures before and after normalisation: report canonical equality
    and decide that each side entails the other over every lattice. A fail
    names a constraint one side does not entail, with a two-point
    instantiation that satisfies that side and violates the constraint.
    `trials` counts the constraints decided. Equal constraint sets entail
    each other by reflexivity, so they are decided without a fixpoint.

    The keyword arguments have no effect; they stay because the benchmark
    workloads still pass them from when the check sampled lattices."""
    prog = elaborate(prog)
    try:
        nprog, _ = normalize_program(prog)
    except LusetError as exc:
        return CheckReport("type-preservation", INCONCLUSIVE, node=node_name, reason=str(exc))
    before = infer_program(prog)
    after = infer_program(nprog)
    names = [node_name] if node_name else list(prog.node_names)
    equal: dict[str, bool] = {}
    trials = 0
    for name in names:
        s0, s1 = before[name].signature, after[name].signature
        assert (s0.inputs, s0.outputs, s0.clock) == (s1.inputs, s1.outputs, s1.clock)
        equal[name] = s0.constraints == s1.constraints
        trials += len(s0.constraints) + len(s1.constraints)
        if equal[name]:  # each set entails itself
            assert all(len(c.rhs.vars) == 1 for c in s0.constraints)  # as `not_entailed` asks
            continue
        for side, rho, other in (("source", s0.constraints, s1.constraints),
                                 ("normalised", s1.constraints, s0.constraints)):
            for c, inst in not_entailed(rho, other):
                return CheckReport(
                    "type-preservation", FAIL, node=name, trials=trials,
                    counterexample={"node": name, "not_entailed_by": side,
                                    "constraint": str(c), "lattice": "two-point",
                                    "instantiation": inst})
    return CheckReport("type-preservation", PASS, node=node_name, trials=trials,
                       details={"canonically_equal": equal})


# ---------------------------------------------------------------------------
# Equational theory
# ---------------------------------------------------------------------------

def _gen_raw_type(rng: random.Random, pool: list[str], depth: int) -> SecType:
    pick = rng.random()
    if depth <= 0 or pick < 0.35:
        return TVar(rng.choice(pool)) if rng.random() < 0.85 else Bot()
    if pick < 0.8:
        return Lub(_gen_raw_type(rng, pool, depth - 1), _gen_raw_type(rng, pool, depth - 1))
    pairs = tuple((_gen_raw_type(rng, pool, depth - 1), _gen_raw_type(rng, pool, depth - 1))
                  for _ in range(rng.randint(1, 2)))
    return Refine(_gen_raw_type(rng, pool, depth - 1), pairs)


def _restructure(rng: random.Random, t: SecType, depth: int = 4) -> SecType:
    """Rewrite t by random applications of the type equalities (both
    directions): commute, re-associate, duplicate, add/strip bottoms,
    split/merge refinements. The result is provably equal to t."""
    if depth <= 0:
        return t
    roll = rng.random()
    if roll < 0.15:
        t = Lub(t, Bot()) if rng.random() < 0.5 else Lub(Bot(), t)
    elif roll < 0.25:
        t = Lub(t, t)  # idempotence, read right to left
    elif roll < 0.3:
        t = Refine(t, ())  # empty refinement
    match t:
        case Lub(a, b):
            a2 = _restructure(rng, a, depth - 1)
            b2 = _restructure(rng, b, depth - 1)
            if rng.random() < 0.5:
                a2, b2 = b2, a2  # commutativity
            out = Lub(a2, b2)
            if isinstance(out.left, Lub) and rng.random() < 0.5:
                out = Lub(out.left.left, Lub(out.left.right, out.right))  # associativity
            return out
        case Refine(base, pairs):
            base2 = _restructure(rng, base, depth - 1)
            pairs2 = tuple((_restructure(rng, l, depth - 1), _restructure(rng, r, depth - 1))
                           for l, r in pairs)
            if len(pairs2) >= 2 and rng.random() < 0.5:
                k = rng.randint(1, len(pairs2) - 1)
                return Refine(Refine(base2, pairs2[:k]), pairs2[k:])  # nested refinements
            return Refine(base2, pairs2)
        case _:
            return t


def _free_meaning(t: SecType) -> tuple[frozenset, frozenset]:
    """A raw type's meaning in the free join-semilattice, written without
    `canon`: the set of variables it joins, and the constraints its
    refinements assert, each as (lhs − rhs, rhs), the trivial ones dropped.
    A pair also asserts the refinements nested in both of its sides."""
    match t:
        case Bot():
            return frozenset(), frozenset()
        case TVar(name):
            return frozenset([name]), frozenset()
        case Lub(a, b):
            (va, ra), (vb, rb) = _free_meaning(a), _free_meaning(b)
            return va | vb, ra | rb
        case Refine(base, pairs):
            vs, rs = _free_meaning(base)
            for l, r in pairs:
                (vl, rl), (vr, rr) = _free_meaning(l), _free_meaning(r)
                rs |= rl | rr | ({(vl - vr, vr)} if vl - vr else set())
            return vs, rs
    raise TypeError(f"unsupported raw type {t!r}")


def check_equational_soundness(samples: int = 1000, seed: int = 0) -> CheckReport:
    """Decide the type equational theory in the free model: a raw type and
    its rewrite by the type equalities canonicalise alike, to the raw type's
    meaning in the free join-semilattice (`_free_meaning`). Join terms are
    equal in every join-semilattice iff their variable sets are: no lattice
    is drawn."""
    rng = random.Random(seed)
    pool = [f"δ{i}" for i in range(1, 7)]
    for trial in range(samples):
        t = _gen_raw_type(rng, pool, rng.randint(1, 4))
        t2 = _restructure(rng, t)
        (c1, r1), (c2, r2) = canon(t), canon(t2)
        vs, rs = _free_meaning(t)
        got = set(c1.vars), {(frozenset(c.lhs.vars), frozenset(c.rhs.vars)) for c in r1}
        if (c1, r1) == (c2, r2) and got == (vs, rs):
            continue
        cx = {"type": repr(t), "rewritten": repr(t2), "canon1": f"{c1} {r1}",
              "canon2": f"{c2} {r2}"}
        if (c1, r1) == (c2, r2):  # the raw type's meaning is what differs
            pairs = sorted(f"{CanonType(tuple(l))} ⊑ {CanonType(tuple(r))}" for l, r in rs)
            cx["meaning"] = f"{CanonType(tuple(vs))} {{{', '.join(pairs)}}}"
        return CheckReport("equational-soundness", FAIL, trials=trial + 1, seed=seed,
                           counterexample=cx)
    return CheckReport("equational-soundness", PASS, trials=samples, seed=seed)


# ---------------------------------------------------------------------------
# Simple security
# ---------------------------------------------------------------------------

def _gen_plain_expr(rng: random.Random, vars_: list[str], depth: int) -> Expr:
    """Structure-only expression generator for the simple-security lemma
    (clocks and data types play no role in the security typing itself)."""
    if depth <= 0 or rng.random() < 0.3:
        return Var(rng.choice(vars_)) if rng.random() < 0.8 else Const(rng.randint(0, 9))
    match rng.randint(0, 5):
        case 0:
            return Unop("-", _gen_plain_expr(rng, vars_, depth - 1))
        case 1:
            return Binop("+", _gen_plain_expr(rng, vars_, depth - 1),
                         _gen_plain_expr(rng, vars_, depth - 1))
        case 2:
            return When((_gen_plain_expr(rng, vars_, depth - 1),),
                        rng.choice(vars_), rng.random() < 0.5)
        case 3:
            return Merge(rng.choice(vars_),
                         (_gen_plain_expr(rng, vars_, depth - 1),),
                         (_gen_plain_expr(rng, vars_, depth - 1),))
        case 4:
            return Ite(_gen_plain_expr(rng, vars_, depth - 1),
                       (_gen_plain_expr(rng, vars_, depth - 1),),
                       (_gen_plain_expr(rng, vars_, depth - 1),))
        case 5:
            return Fby((_gen_plain_expr(rng, vars_, depth - 1),),
                       (_gen_plain_expr(rng, vars_, depth - 1),))
    raise AssertionError


def check_simple_security(samples: int = 1000, seed: int = 0) -> CheckReport:
    """Every variable an expression may read has a security type bounded by
    the expression's type (variable-set inclusion on canonical types)."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(5)]
    for trial in range(samples):
        env = {}
        for i, x in enumerate(names):
            k = rng.randint(1, 2)
            env[x] = CanonType(tuple(rng.choice("abcdef") + str(i) for _ in range(k)))
        env[BASE] = CanonType(("g",))
        e = _gen_plain_expr(rng, names, rng.randint(1, 4))
        slots, _ = type_expr(env, e, {})
        covered: set[str] = set()
        for t in slots:
            covered |= set(t.vars)
        for x in free_vars(e):
            if not set(env[x].vars) <= covered:
                return CheckReport("simple-security", FAIL, trials=trial + 1, seed=seed,
                                   counterexample={"expr": repr(e), "variable": x})
    return CheckReport("simple-security", PASS, trials=samples, seed=seed)


# ---------------------------------------------------------------------------
# Generator post-condition
# ---------------------------------------------------------------------------

def generator_postcondition(samples: int = 50, seed: int = 0) -> CheckReport:
    """The random program generator only emits well-formed, well-clocked,
    causal programs that survive inference and a short run of each node
    (`run_node`, whose build refuses a program that is not causal)."""
    rng = random.Random(seed)
    for trial in range(samples):
        prog = gen_program(rng)
        try:
            assert well_formed(prog) == []
            eprog = elaborate(prog)
            infer_program(eprog)
            for node in eprog.nodes:
                run_node(eprog, node.name, gen_inputs(rng, node, 8), 8)
        except (AssertionError, LusetError) as exc:
            return CheckReport("generator-postcondition", FAIL, trials=trial + 1,
                               seed=seed, reason=str(exc))
    return CheckReport("generator-postcondition", PASS, trials=samples, seed=seed)


def sample_satisfying_assignment(rng: random.Random, res: InferenceResult,
                                 lat: Lattice) -> dict[str, str]:
    """Random interface assignment satisfying a node's signature: inputs and
    the clock drawn uniformly, outputs completed by the least solution."""
    sig = res.signature
    drawn = {tv: rng.choice(lat.elements) for tv in sig.inputs + (sig.clock,)}
    given = {p: drawn[tv] for p, tv in res.gamma.items() if tv in drawn}
    solved, violated = solve_interface(res, given, lat)
    assert not violated, "output-free choice must be completable"
    return {p: solved[tv] for p, tv in res.gamma.items() if tv in solved}
