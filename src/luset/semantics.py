"""The paper's relational stream semantics as a predicate over whole
histories (`PAPER.md`), and the earliest place where a history breaks it.

`earliest_fault(prog, name)` compiles the nodes of a program once into
closures `col(H, bs)` over whole prefixes, built from the whole-prefix
operators of `streams`, each node's equations in causal order
(`lang.causal_order`). It returns `fault(history, bs)`: None when a
history of every declared variable of the node satisfies the node's
equations, else the earliest `Fault`. `sem_node` is "no fault", and
`sem_exp` is the streams of one expression. The harness's
semantics-preservation check asks for the fault of the history of each
compiled run of the normal form against the source node's equations.

The module is imported on first use (by `harness` and `luset.sem_node`): no
command needs it before it checks a node.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .diagnostics import EvalError
from .lang import (BASE_CLOCK, Binop, Call, Clock, ClockBase, ClockOn, Const, Def, Equation,
                   Expr, Fby, Ite, Merge, NCall, NDef, NFby, Node, Program, Unop, Var, When,
                   causal_order, eq_targets)
from .streams import (ABSENT, BStream, History, VStream, _present, _streams_equal, base_of,
                      const_stream, eval_clock, fby_lustre, fby_nlustre, ite_stream, lift_binop,
                      lift_unop, merge_stream, run_node, when_stream)

# An expression compiled to a closure `col(H, bs)`: its streams over the
# whole prefix, one per component, under the history H and the base clock
# bs. A clock compiled the same way gives its boolean stream.
Col = Callable[[History, BStream], list]


class Fault(NamedTuple):
    """Where a history breaks a node's equations: the least (tick, causal
    position) at which an equation's right-hand side differs from the
    history or a target is off its declared clock. `variable` is the
    target, or its call path (`N0.s`) for a fault in a call's witness;
    `source` and `history` are its streams from the right-hand side and
    from the history over ticks 0..tick. For an input off its clock, or a
    variable the history lacks, `source` is None. Every equation holds
    before the tick, so by causality the history is the node's own there,
    and every equation before this one in causal order holds at the tick:
    the right-hand side reads only the node's own values, and `source` is
    the node's stream."""

    variable: str
    tick: int
    source: VStream | None
    history: VStream


class _Rejected(EvalError):
    """A call's witness history does not satisfy the callee's equations:
    `fault` is the callee's earliest fault, named by its call path."""

    def __init__(self, node: str, fault: Fault):
        super().__init__("bad-witness", f"the run of {node} does not satisfy its equations",
                         fault.tick)
        self.fault = fault._replace(variable=f"{node}.{fault.variable}")


def _live(ck: Clock) -> Callable[[History, BStream], BStream]:
    """The closure of a clock's column, `streams.eval_clock`, over a prefix
    as long as the base clock: a clock variable of another length raises
    `arity-mismatch`, naming the outermost one."""
    if isinstance(ck, ClockBase):
        return lambda H, bs: bs
    names, level = [], ck
    while isinstance(level, ClockOn):
        names.insert(0, level.var)
        level = level.base

    def live(H, bs):
        b = eval_clock(H, bs, ck)
        for x in names:
            if len(H[x]) != len(bs):
                raise EvalError("arity-mismatch", f"clock variable {x} and its clock differ "
                                "in length")
        return b
    return live


def _one(col: Col, width: int) -> Col:
    """The closure of an expression that must have one component."""
    if width != 1:
        raise EvalError("arity-mismatch", f"{width} streams where one is expected")
    return col


def _columns(parts: list[tuple[Col, int]]) -> tuple[Col, int]:
    """The flattened streams of a list of compiled expressions, and their
    total width."""
    if len(parts) == 1:
        return parts[0]
    cols = [col for col, _ in parts]

    def col(H, bs):
        out = []
        for c in cols:
            out += c(H, bs)
        return out
    return col, sum(w for _, w in parts)


class _Semantics:
    """The paper's relational semantics of the nodes of one program,
    compiled to closures over whole prefixes (`PAPER.md`):

    - `exp` is `sem_exp`: the streams of an expression under a history H,
      built from the whole-prefix operators of `streams`. Constants pulse
      on the ambient clock, `when` arguments run on the sampled variable's
      clock, and `merge` branches on `ck on x` and `ck on not x`;
    - `_equation` is `sem_eqn`: the right-hand side's streams are those of
      the targets in H, value for value, and each target is present
      exactly where its declared clock, and the equation's, is live. `Def`,
      `NDef`, `NFby` (through `fby_nlustre`) and `NCall` are read alike;
    - `node` is `sem_node`: every input is present exactly on its declared
      clock, and every equation holds.

    A call's witness is the callee run by `run_node` on its arguments, on
    the base clock of their presence, or on the activation clock for a call
    without arguments. The witness must satisfy the callee's own equations,
    else the call raises `_Rejected` with the callee's earliest fault.
    Every operator raises an `EvalError` at the first tick where it is
    stuck. Each node is compiled once per instance, callees first."""

    def __init__(self, prog: Program):
        self.prog = prog
        self.nodes: dict[str, Callable[[History, BStream], Fault | None]] = {}

    def node(self, name: str) -> Callable[[History, BStream], Fault | None]:
        fault = self.nodes.get(name)
        if fault is None:
            fault = self.nodes[name] = self._node(self.prog.node(name))
        return fault

    def _node(self, node: Node) -> Callable[[History, BStream], Fault | None]:
        clocks = {d.name: d.clock for d in node.declarations}
        names = set(clocks)
        inputs = [(d.name, _live(d.clock)) for d in node.inputs]
        equations = [self._equation(node.equations[i], clocks)
                     for i in causal_order(self.prog, node.name)]

        def fault(H, bs):
            if not names <= H.keys():
                x = next(d.name for d in node.declarations if d.name not in H)
                return Fault(x, 0, None, [])
            for x, live in inputs:
                h, ck = H[x], live(H, bs)
                if _present(h) != ck:
                    t = _first_fault(h, h, ck, None)
                    return Fault(x, t, None, h[:t + 1])
            return _earliest(equations, H, bs)
        return fault

    def _equation(self, eq: Equation, clocks) -> Callable[[History, BStream], Fault | None]:
        match eq:
            case Def(targets, ck, exprs):
                ambient = ck if ck is not None else BASE_CLOCK
                col, width = _columns([self.exp(e, ambient, clocks) for e in exprs])
                if width != len(targets):
                    raise EvalError("arity-mismatch",
                                    f"{len(targets)} target(s) but {width} stream(s)")
            case NDef(_, ck, e):
                col = _one(*self.exp(e, ck, clocks))
            case NFby(_, ck, c, e):
                tail = _one(*self.exp(e, ck, clocks))
                col = lambda H, bs: [fby_nlustre(c.value, tail(H, bs)[0])]  # noqa: E731
            case NCall(targets, ck, f, args):
                col, width = self._call(f, args, ck, clocks)
                if width != len(targets):
                    raise EvalError("arity-mismatch",
                                    f"{len(targets)} target(s) but {width} output(s)")
            case _:
                raise TypeError(f"unsupported equation {eq!r}")
        targets = eq_targets(eq)
        declared = [_live(clocks[x]) for x in targets]
        # the equation's clock needs its own check only where a target is declared on another
        live = None if eq.clock is None or all(clocks.get(x) == eq.clock for x in targets) \
            else _live(eq.clock)

        def fault(H, bs):
            outs = col(H, bs)
            b = None if live is None else live(H, bs)
            found = None
            for x, s, own in zip(targets, outs, declared):
                h, ck = H[x], own(H, bs)
                if _streams_equal(s, h) and _present(h) == ck and (b is None or _present(s) == b):
                    continue
                t = _first_fault(s, h, ck, b)
                if found is None or t < found.tick:
                    found = Fault(x, t, s[:t + 1], h[:t + 1])
            return found
        return fault

    def exp(self, e: Expr, ambient: Clock, clocks) -> tuple[Col, int]:
        """The closure of an expression on clock `ambient`, and its width."""
        match e:
            case Const(v):
                if isinstance(ambient, ClockBase):
                    return (lambda H, bs: [const_stream(v, bs)]), 1
                live = _live(ambient)
                return (lambda H, bs: [const_stream(v, live(H, bs))]), 1
            case Var(x):
                return (lambda H, bs: [H[x]]), 1
            case Unop(op, a):
                arg = _one(*self.exp(a, ambient, clocks))
                return (lambda H, bs: [lift_unop(op, arg(H, bs)[0])]), 1
            case Binop(op, a, b):
                left = _one(*self.exp(a, ambient, clocks))
                right = _one(*self.exp(b, ambient, clocks))
                return (lambda H, bs: [lift_binop(op, left(H, bs)[0], right(H, bs)[0])]), 1
            case When(args, x, k):
                col, width = _columns([self.exp(a, clocks.get(x, ambient), clocks)
                                       for a in args])
                return (lambda H, bs: [when_stream(k, H[x], s) for s in col(H, bs)]), width
            case Merge(x, ts, fs):
                base = clocks.get(x, ambient)
                on_t, width = _columns([self.exp(a, ClockOn(base, x, True), clocks) for a in ts])
                on_f, width_f = _columns([self.exp(a, ClockOn(base, x, False), clocks)
                                          for a in fs])
                if width != width_f:
                    raise EvalError("arity-mismatch", "merge branches have different widths")
                return (lambda H, bs: [merge_stream(H[x], a, b)
                                       for a, b in zip(on_t(H, bs), on_f(H, bs))]), width
            case Ite(c, ts, fs):
                cond = _one(*self.exp(c, ambient, clocks))
                on_t, width = _columns([self.exp(a, ambient, clocks) for a in ts])
                on_f, width_f = _columns([self.exp(a, ambient, clocks) for a in fs])
                if width != width_f:
                    raise EvalError("arity-mismatch", "if branches have different widths")

                def ite(H, bs):
                    cs = cond(H, bs)[0]
                    return [ite_stream(cs, a, b) for a, b in zip(on_t(H, bs), on_f(H, bs))]
                return ite, width
            case Fby(e0s, es):
                heads, width = _columns([self.exp(a, ambient, clocks) for a in e0s])
                tails, width_t = _columns([self.exp(a, ambient, clocks) for a in es])
                if width != width_t:
                    raise EvalError("arity-mismatch", "fby arguments have different widths")
                return (lambda H, bs: [fby_lustre(h, t)
                                       for h, t in zip(heads(H, bs), tails(H, bs))]), width
            case Call(f, args):
                return self._call(f, args, ambient, clocks)
        raise TypeError(f"unsupported expression {e!r}")

    def _call(self, f: str, args, ck: Clock, clocks) -> tuple[Col, int]:
        callee = self.prog.node(f)
        fault = self.node(f)
        argv, width = _columns([self.exp(a, ck, clocks) for a in args])
        inputs = [d.name for d in callee.inputs]
        if width != len(inputs):
            raise EvalError("arity-mismatch", f"{f} expects {len(inputs)} input(s)")
        outputs = [d.name for d in callee.outputs]
        activation = _live(ck)
        prog = self.prog

        def call(H, bs):
            vs = argv(H, bs)
            witness_bs = base_of(vs) if vs else activation(H, bs)
            witness, _ = run_node(prog, f, dict(zip(inputs, vs)), len(witness_bs), witness_bs)
            found = fault(witness, witness_bs)
            if found is not None:
                raise _Rejected(f, found)
            return [witness[x] for x in outputs]
        return call, len(outputs)


def _first_fault(s: VStream, h: VStream, ck: BStream, b: BStream | None) -> int:
    """The first tick where the right-hand side's stream s and the history's
    stream h differ, h is off its declared clock ck, or s is off the
    equation's clock b (None for no check); or where the shortest of them
    ends."""
    n = min(len(s), len(h), len(ck), len(ck) if b is None else len(b))
    for t in range(n):
        v, w = s[t], h[t]
        if type(v) is not type(w) or v != w or (w is not ABSENT) != ck[t] or \
                (b is not None and (v is not ABSENT) != b[t]):
            return t
    return n


def _earliest(equations: list, H: History, bs: BStream) -> Fault | None:
    """The least (tick, causal position) where one of `equations`, in
    causal order, fails on the history: its `Fault`, the callee's for a
    rejected witness, or the `EvalError` of an operator stuck there, raised.

    One pass over the whole prefix accepts a history. Where an equation
    raises at tick u, a part of it left unevaluated may fail earlier, so
    the passes go on over shorter prefixes, each ending before the least
    such u, down to one where nothing raises: its earliest fault is exact.
    Without one, a last pass a tick longer finds the first equation to fail
    there. An `EvalError` without a tick is raised at once."""
    n = m = len(bs)
    last = False  # whether the prefix [:m] ends at the tick that fails
    while True:
        Hm, bsm = (H, bs) if m == n else ({x: vs[:m] for x, vs in H.items()}, bs[:m])
        failed, stuck = [], None
        for p, eq in enumerate(equations):
            try:
                found = eq(Hm, bsm)
            except EvalError as exc:
                if exc.tick is None:
                    raise
                failed.append((exc.tick, p, exc))
                stuck = exc.tick if stuck is None else min(stuck, exc.tick)
            else:
                if found is not None:
                    failed.append((found.tick, p, found))
        if stuck is not None and not last:
            m = min(stuck, m - 1)
            continue
        if failed:
            _, _, first = min(failed, key=lambda f: f[:2])
            if isinstance(first, Fault):
                return first
            if isinstance(first, _Rejected):
                return first.fault
            raise first
        if m == n:
            return None
        m, last = m + 1, True


def earliest_fault(prog: Program, name: str) -> Callable[[History, BStream], Fault | None]:
    """The earliest fault of node `name`, compiled once: the returned
    `fault(history, bs)` is None when a history of every declared variable
    of the node, over the base clock `bs`, satisfies the node's equations,
    and else the `Fault` of the least (tick, causal position) where it does
    not. It raises the `EvalError` of an operator stuck there instead. A
    node that is not causal raises `CausalityError`."""
    return _Semantics(prog).node(name)


def sem_node(prog: Program, name: str) -> Callable[[History, BStream], bool]:
    """The paper's `sem_node` for node `name`: whether a history has no
    fault (`earliest_fault`). A causal node's equations have one solution,
    so a history it accepts is the one `run_node` computes."""
    fault = earliest_fault(prog, name)
    return lambda history, bs: fault(history, bs) is None


def sem_exp(prog: Program, history: History, bs: BStream, e: Expr) -> list[VStream]:
    """The paper's `sem_exp`: the streams denoted by an expression under a
    history and a base clock, as `sem_node` computes them. Constants pulse
    on the ambient clock (the base clock here); variables carry their own
    presence from the history."""
    col, _ = _Semantics(prog).exp(e, BASE_CLOCK, {})
    n = len(bs)
    for vs in history.values():
        if len(vs) != n:
            raise EvalError("arity-mismatch", "history streams must share the prefix length")
    return col(history, bs)
