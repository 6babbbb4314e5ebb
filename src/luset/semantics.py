"""The paper's relational stream semantics as a predicate over whole
histories (`PAPER.md`), the stream operators it is built from, and the
earliest place where a history breaks it.

The stream operators (`const_stream` … `base_of`) compute a stream over a
whole prefix at once and raise an `EvalError` at the first tick where an
operator is stuck: they enforce the clocking regime, a value present where
its clock is live and absent where it is idle.

`earliest_fault(prog, name)` compiles the nodes of a program once into
closures `col(H, bs)` over whole prefixes, built from those operators, each
node's equations in causal order (`lang.causal_order`). It returns
`fault(history, bs)`: None when a history of every declared variable of the
node satisfies the node's equations, else the earliest `Fault`. `sem_node`
is "no fault", and `sem_exp` is the streams of one expression. The
harness's semantics-preservation check asks for the fault of the history of
each compiled run of the normal form against the source node's equations.

The module is imported on first use (by `harness` and `luset.sem_node`): no
command needs it before it checks a node.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence, Union

from .diagnostics import EvalError
from .lang import (BASE_CLOCK, OPERATORS, Binop, ByClass, Call, Clock, ClockBase, ClockOn, Const,
                   Def, Equation, Expr, Fby, Ite, Merge, NCall, NDef, NFby, Node, Program, Unop,
                   Var, When, _structure, causal_order, eq_targets)
from .streams import (_HALF, ABSENT, BStream, History, VStream, _apply_binop, _off_clock,
                      _present, _runner, _streams_equal, _wrap64, eval_clock, run_node)

# ---------------------------------------------------------------------------
# The stream operators over whole prefixes
# ---------------------------------------------------------------------------

# Each operator compares the whole presence vectors of its operands first and
# computes its stream in one comprehension. Only where they differ does it
# ask `streams._off_clock` for the first tick at fault, and raise its
# `EvalError` there; a partial operator computes its values up to that tick
# first, so that an error of an earlier tick wins. A shorter operand cuts
# the output to the common prefix. `lift_unop` and `lift_binop` read their
# operator's total function and wrap flag off `lang.OPERATORS` once a call.


def _mismatch(message: str, t: int) -> EvalError:
    return EvalError("clocked-value-mismatch", message, t)


def const_stream(c: Union[int, bool], bs: BStream) -> VStream:
    """The constant pulsed on the given clock."""
    return [c if b else ABSENT for b in bs]


def lift_unop(op: str, es: VStream) -> VStream:
    o = OPERATORS.get((op, 1))
    if o is None:
        t = next((t for t, v in enumerate(es) if v is not ABSENT), None)
        if t is None:
            return list(es)
        raise EvalError("bad-operator", f"unknown unary operator {op}", t)
    fn = o.fn
    if o.wraps:
        return [v if v is ABSENT else u if -_HALF <= (u := fn(v)) < _HALF else _wrap64(u)
                for v in es]
    return [v if v is ABSENT else fn(v) for v in es]


def lift_binop(op: str, xs: VStream, ys: VStream) -> VStream:
    o = OPERATORS.get((op, 2))
    fn = o.fn if o else None
    live = _present(xs)
    t = None if live == _present(ys) else _off_clock([(live, ys)])
    if t is None and fn is not None:
        if o.wraps:
            return [a if a is ABSENT else v if -_HALF <= (v := fn(a, b)) < _HALF else _wrap64(v)
                    for a, b in zip(xs, ys)]
        return [a if a is ABSENT else fn(a, b) for a, b in zip(xs, ys)]
    if fn is None:  # `div`, `mod` or an unknown operator: an error before t wins
        out = [ABSENT if a is ABSENT else _apply_binop(op, a, b, u)
               for u, (a, b) in enumerate(zip(xs[:t], ys))]
        if t is None:
            return out
    raise _mismatch(f"operands of {op} disagree on presence", t)


def when_stream(k: bool, xs: VStream, es: VStream) -> VStream:
    """Sample es where xs carries the value k; both absent passes through."""
    live = _present(xs)
    if live != _present(es) and (t := _off_clock([(live, es)])) is not None:
        raise _mismatch("when operands disagree on presence", t)
    return [e if x == k else ABSENT for x, e in zip(xs, es)]


def merge_stream(xs: VStream, ts: VStream, fs: VStream) -> VStream:
    """Interpolate complementary streams steered by xs."""
    on = [x is True for x in xs]
    off = [x is not ABSENT and x is not True for x in xs]
    if (_present(ts) != on or _present(fs) != off) and \
            (t := _off_clock([(on, ts), (off, fs)])) is not None:
        raise _mismatch("merge branch present while selector is absent" if xs[t] is ABSENT
                        else "merge branches must be complementary", t)
    return [a if x is True else b for x, a, b in zip(xs, ts, fs)]


def ite_stream(es: VStream, ts: VStream, fs: VStream) -> VStream:
    """Pointwise conditional; all three streams pulse together."""
    live = _present(es)
    if not live == _present(ts) == _present(fs) and \
            (t := _off_clock([(live, ts), (live, fs)])) is not None:
        raise _mismatch("if operands disagree on presence", t)
    return [c if c is ABSENT else a if c else b for c, a, b in zip(es, ts, fs)]


def fby_lustre(xs: VStream, ys: VStream) -> VStream:
    """Full-language delay: the first present value comes from xs, every
    later present value is the previous present value of ys."""
    live = _present(xs)
    if live != _present(ys):
        t = _off_clock([(live, ys)])
        if t is not None:
            raise _mismatch("fby operands disagree on presence", t)
        n = min(len(xs), len(ys))  # a shorter operand cuts the output
        xs, ys, live = xs[:n], ys[:n], live[:n]
    if True not in live:
        return list(xs)
    delayed = iter([xs[live.index(True)]] + [y for y in ys if y is not ABSENT])
    return [ABSENT if x is ABSENT else next(delayed) for x in xs]


def fby_nlustre(c: Union[int, bool], vs: VStream) -> VStream:
    """Constant-initialised delay: emit the saved value, then store the
    current input; absences keep the state."""
    delayed = iter([c] + [v for v in vs if v is not ABSENT])
    return [ABSENT if v is ABSENT else next(delayed) for v in vs]


def base_of(streams: Sequence[VStream]) -> BStream:
    """Clock on which a tuple of aligned streams pulses, over their common
    prefix."""
    if not streams:
        raise EvalError("arity-mismatch", "base clock of an empty stream tuple")
    live = _present(streams[0])
    if all(_present(s) == live for s in streams[1:]):
        return live
    t = _off_clock([(live, s) for s in streams[1:]])
    if t is not None:
        raise _mismatch("stream tuple components disagree on presence", t)
    return live[:min(map(len, streams))]


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


class _Semantics:
    """The paper's relational semantics of the nodes of one program,
    compiled to closures over whole prefixes (`PAPER.md`):

    - `_EXP`, a rule per expression class, is `sem_exp`: the streams of an
      expression under a history H, built from the stream operators above.
      Constants pulse on the ambient clock, `when` arguments run on the
      sampled variable's clock, and `merge` branches on `ck on x` and
      `ck on not x`;
    - `_equation` is `sem_eqn`: the right-hand side's streams are those of
      the targets in H, value for value, and each target is present
      exactly where its declared clock, and the equation's, is live. `Def`,
      `NDef`, `NFby` (through `fby_nlustre`) and `NCall` are read alike;
    - `node` is `sem_node`: every input is present exactly on its declared
      clock, and every equation holds.

    A call's witness is the callee run by `run_node` on its arguments, on
    the base clock of their presence, or on the activation clock for a call
    without arguments. Once its equation has its columns, the witness must
    satisfy the callee's own equations, else `_Rejected` carries the callee's
    earliest fault. Every operator raises an `EvalError` at the first tick
    where it is stuck. Each node is compiled once per instance, callees first."""

    def __init__(self, prog: Program):
        self.prog = prog
        self.nodes: dict[str, Callable[[History, BStream], Fault | None]] = {}
        self.witnesses: list = []  # (callee, its fault, witness, base) of each call not yet checked

    def node(self, name: str) -> Callable[[History, BStream], Fault | None]:
        if name not in self.nodes:
            causal_order(self.prog, name)  # the node's own cycle is reported before a callee's
            for f in sorted(_structure(self.prog)[1][name]):  # the callees, in the call graph
                self.node(f)
                _runner(self.prog, f)  # the witnesses' build, under no caller's expression
            self.nodes[name] = self._node(self.prog.node(name))
        return self.nodes[name]

    def _node(self, node: Node) -> Callable[[History, BStream], Fault | None]:
        clocks = {d.name: d.clock for d in node.declarations}
        inputs = [(d.name, _live(d.clock)) for d in node.inputs]
        equations = [self._equation(node.equations[i], clocks)
                     for i in causal_order(self.prog, node.name)]

        def fault(H, bs):
            if not clocks.keys() <= H.keys():
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
        cls = type(eq)
        if cls is Def:
            ambient = eq.clock if eq.clock is not None else BASE_CLOCK
            col, width = self._columns(eq.exprs, ambient, clocks)
            if width != len(eq.targets):
                raise EvalError("arity-mismatch",
                                f"{len(eq.targets)} target(s) but {width} stream(s)")
        elif cls is NDef:
            e = eq.expr
            col = _one(*_EXP[type(e)](self, e, eq.clock, clocks))
        elif cls is NFby:
            e, c = eq.expr, eq.init.value
            tail = _one(*_EXP[type(e)](self, e, eq.clock, clocks))
            col = lambda H, bs: [fby_nlustre(c, tail(H, bs)[0])]  # noqa: E731
        elif cls is NCall:
            col, width = self._call(eq.node, eq.args, eq.clock, clocks)
            if width != len(eq.targets):
                raise EvalError("arity-mismatch",
                                f"{len(eq.targets)} target(s) but {width} output(s)")
        else:
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
        return _checked(self.witnesses, fault)

    def _columns(self, items, ambient: Clock, clocks) -> tuple[Col, int]:
        """The closure of the flattened streams of some expressions on clock
        `ambient`, and their total width."""
        parts = []  # a loop, not a comprehension: one stack frame a level of nesting
        for a in items:
            parts.append(_EXP[type(a)](self, a, ambient, clocks))
        if len(parts) == 1:
            return parts[0]
        cols = [col for col, _ in parts]

        def col(H, bs):
            out = []
            for c in cols:
                out += c(H, bs)
            return out
        return col, sum(w for _, w in parts)

    def _const(self, e: Const, ambient: Clock, clocks) -> tuple[Col, int]:
        v, live = e.value, _live(ambient)
        return (lambda H, bs: [const_stream(v, live(H, bs))]), 1

    def _var(self, e: Var, ambient: Clock, clocks) -> tuple[Col, int]:
        x = e.name
        return (lambda H, bs: [H[x]]), 1

    def _unop(self, e: Unop, ambient: Clock, clocks) -> tuple[Col, int]:
        op, a = e.op, e.arg
        arg = _one(*_EXP[type(a)](self, a, ambient, clocks))
        return (lambda H, bs: [lift_unop(op, arg(H, bs)[0])]), 1

    def _binop(self, e: Binop, ambient: Clock, clocks) -> tuple[Col, int]:
        op, a, b = e.op, e.left, e.right
        left = _one(*_EXP[type(a)](self, a, ambient, clocks))
        right = _one(*_EXP[type(b)](self, b, ambient, clocks))
        return (lambda H, bs: [lift_binop(op, left(H, bs)[0], right(H, bs)[0])]), 1

    def _when(self, e: When, ambient: Clock, clocks) -> tuple[Col, int]:
        x, k = e.var, e.value
        col, width = self._columns(e.args, clocks.get(x, ambient), clocks)
        return (lambda H, bs: [when_stream(k, H[x], s) for s in col(H, bs)]), width

    def _merge(self, e: Merge, ambient: Clock, clocks) -> tuple[Col, int]:
        x = e.var
        base = clocks.get(x, ambient)
        on_t, width = self._columns(e.on_true, ClockOn(base, x, True), clocks)
        on_f, width_f = self._columns(e.on_false, ClockOn(base, x, False), clocks)
        if width != width_f:
            raise EvalError("arity-mismatch", "merge branches have different widths")
        return (lambda H, bs: [merge_stream(H[x], a, b)
                               for a, b in zip(on_t(H, bs), on_f(H, bs))]), width

    def _ite(self, e: Ite, ambient: Clock, clocks) -> tuple[Col, int]:
        c = e.cond
        cond = _one(*_EXP[type(c)](self, c, ambient, clocks))
        on_t, width = self._columns(e.on_true, ambient, clocks)
        on_f, width_f = self._columns(e.on_false, ambient, clocks)
        if width != width_f:
            raise EvalError("arity-mismatch", "if branches have different widths")

        def ite(H, bs):
            cs = cond(H, bs)[0]
            return [ite_stream(cs, a, b) for a, b in zip(on_t(H, bs), on_f(H, bs))]
        return ite, width

    def _fby(self, e: Fby, ambient: Clock, clocks) -> tuple[Col, int]:
        heads, width = self._columns(e.init, ambient, clocks)
        tails, width_t = self._columns(e.rest, ambient, clocks)
        if width != width_t:
            raise EvalError("arity-mismatch", "fby arguments have different widths")
        return (lambda H, bs: [fby_lustre(h, t)
                               for h, t in zip(heads(H, bs), tails(H, bs))]), width

    def _unsupported(self, e: Expr, ambient: Clock, clocks):
        raise TypeError(f"unsupported expression {e!r}")

    def _call(self, f: str, args, ck: Clock, clocks) -> tuple[Col, int]:
        callee = self.prog.node(f)
        fault = self.node(f)
        argv, width = self._columns(args, ck, clocks)
        inputs = [d.name for d in callee.inputs]
        if width != len(inputs):
            raise EvalError("arity-mismatch", f"{f} expects {len(inputs)} input(s)")
        outputs = [d.name for d in callee.outputs]
        prog, witnesses, activation = self.prog, self.witnesses, _live(ck)

        def call(H, bs):
            vs = argv(H, bs)
            witness_bs = base_of(vs) if vs else activation(H, bs)
            witness, _ = run_node(prog, f, dict(zip(inputs, vs)), len(witness_bs), witness_bs)
            witnesses.append((f, fault, witness, witness_bs))
            return [witness[x] for x in outputs]
        return call, len(outputs)


# The closure of an expression on clock `ambient`, and its width:
# `_EXP[type(e)](sem, e, ambient, clocks)`.
_EXP = ByClass({
    Const: _Semantics._const, Var: _Semantics._var, Unop: _Semantics._unop,
    Binop: _Semantics._binop, When: _Semantics._when, Merge: _Semantics._merge,
    Ite: _Semantics._ite, Fby: _Semantics._fby,
    Call: lambda sem, e, ambient, clocks: sem._call(e.node, e.args, ambient, clocks)},
    _Semantics._unsupported)


def _checked(witnesses: list, fn: Col) -> Col:
    """`fn`, then, also when it raises, a check of each witness its calls add
    to `witnesses` in the order they ran: the first rejected one raises."""
    def checked(H, bs):
        mark = len(witnesses)
        try:
            return fn(H, bs)
        finally:
            runs, witnesses[mark:] = witnesses[mark:], []
            for f, fault, witness, wbs in runs:
                if (found := fault(witness, wbs)) is not None:
                    raise _Rejected(f, found)
    return checked


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
    not, or it raises the `EvalError` of an operator stuck there. A node
    that is not causal, or a callee that does not build, raises here."""
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
    col, _ = _EXP[type(e)](sem := _Semantics(prog), e, BASE_CLOCK, {})
    n = len(bs)
    for vs in history.values():
        if len(vs) != n:
            raise EvalError("arity-mismatch", "history streams must share the prefix length")
    return _checked(sem.witnesses, col)(history, bs)
