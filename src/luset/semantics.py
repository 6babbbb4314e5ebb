"""The paper's relational stream semantics as a predicate over whole
histories (`PAPER.md`).

`sem_node(prog, name)` compiles the nodes of a program once into closures
`col(H, bs)` over whole prefixes, built from the whole-prefix operators of
`streams`, and returns `holds(history, bs)`: whether a history of every
declared variable of the node satisfies the node's equations. `sem_exp` is
the streams of one expression. The harness's semantics-preservation check
decides with it whether the history of each compiled run of the normal form
satisfies the source node's equations, and the tests check the histories of
every evaluator against it.

The module is imported on first use (by `harness` and `luset.sem_node`): no
command needs it before it checks a node.
"""

from __future__ import annotations

from typing import Callable

from .diagnostics import EvalError
from .lang import (BASE_CLOCK, Binop, Call, Clock, ClockBase, ClockOn, Const, Def, Equation,
                   Expr, Fby, Ite, Merge, NCall, NDef, NFby, Node, Program, Unop, Var, When,
                   eq_targets)
from .streams import (BStream, History, VStream, _present, _streams_equal, base_of,
                      const_stream, eval_clock, fby_lustre, fby_nlustre, ite_stream, lift_binop,
                      lift_unop, merge_stream, run_node, when_stream)

# An expression compiled to a closure `col(H, bs)`: its streams over the
# whole prefix, one per component, under the history H and the base clock
# bs. A clock compiled the same way gives its boolean stream.
Col = Callable[[History, BStream], list]


class _Rejected(EvalError):
    """A call's witness history does not satisfy the callee's equations."""

    def __init__(self, node: str):
        super().__init__("bad-witness", f"the run of {node} does not satisfy its equations")


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
      the targets in H, value for value, and the targets are present
      exactly where the equation's clock is live. `Def`, `NDef`, `NFby`
      (through `fby_nlustre`) and `NCall` are read alike;
    - `node` is `sem_node`: every declared variable is present exactly on
      its declared clock, and every equation holds.

    A call's witness is the callee run by `run_node` on its arguments, on
    the base clock of their presence, or on the activation clock for a call
    without arguments. The witness must satisfy the callee's own equations,
    else the call raises `_Rejected`.
    Every operator raises the `EvalError` of the interpreter's closure, so a
    history the predicate accepts is one the interpreter computes without a
    fault. Each node is compiled once per instance, callees first."""

    def __init__(self, prog: Program):
        self.prog = prog
        self.nodes: dict[str, Callable[[History, BStream], bool]] = {}

    def node(self, name: str) -> Callable[[History, BStream], bool]:
        holds = self.nodes.get(name)
        if holds is None:
            holds = self.nodes[name] = self._node(self.prog.node(name))
        return holds

    def _node(self, node: Node) -> Callable[[History, BStream], bool]:
        clocks = {d.name: d.clock for d in node.declarations}
        names = set(clocks)
        declared = [(x, _live(ck)) for x, ck in clocks.items()]
        equations = [self._equation(eq, clocks) for eq in node.equations]

        def holds(H, bs):
            if not names <= H.keys():
                return False
            for x, live in declared:
                if _present(H[x]) != live(H, bs):
                    return False
            return all(eq(H, bs) for eq in equations)
        return holds

    def _equation(self, eq: Equation, clocks) -> Callable[[History, BStream], bool]:
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
        # where the equation's clock is the targets' declared one, `_node` checks it
        live = None if eq.clock is None or all(clocks.get(x) == eq.clock for x in targets) \
            else _live(eq.clock)

        def holds(H, bs):
            outs = col(H, bs)
            if live is not None:
                b = live(H, bs)
                if any(_present(s) != b for s in outs):
                    return False
            return all(_streams_equal(s, H[x]) for x, s in zip(targets, outs))
        return holds

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
        holds = self.node(f)
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
            if not holds(witness, witness_bs):
                raise _Rejected(f)
            return [witness[x] for x in outputs]
        return call, len(outputs)


def sem_node(prog: Program, name: str) -> Callable[[History, BStream], bool]:
    """The paper's `sem_node` for node `name`, compiled once: the returned
    `holds(history, bs)` tells whether a history of every declared variable
    of the node, over the base clock `bs`, satisfies the node's equations.
    It raises the interpreter's `EvalError` where an operator is stuck on
    the history. A causal node's equations have one solution, so a history
    it accepts is the one `run_node` and `interpret_node` compute."""
    holds = _Semantics(prog).node(name)

    def check(history: History, bs: BStream) -> bool:
        try:
            return holds(history, bs)
        except _Rejected:
            return False
    return check


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
