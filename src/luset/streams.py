"""Finite-prefix executable model of the clocked stream semantics.

Streams are lists of length N holding plain Python values (int/bool) where a
value is present and the ABSENT sentinel where it is not. Nodes execute
tick-major: each tick, equations run in causal order, and delay state is
updated once all of the tick's values are known.

`run_node` runs nodes as compiled core-form code (see `codegen`). The tree
interpreter below ("Compiled tick-wise evaluation": `NodeInstance` walking
an object tree per equation, reached through `interpret_node`) is the
reference the compiled code is tested against, the evaluator of the source
side of the harness's semantics-preservation check, and the fallback that runs
a program which does not compile or whose compiled run fails, so every
result and diagnostic is the interpreter's. The whole-prefix stream
operators (`lift_unop` … `respects_clock`) and the whole-prefix entry point
`eval_expr` are in turn the reference for the tree interpreter: nothing in
the package calls them, and the tests check the interpreter against them.
All clock evaluation of the interpreter goes through `_tick_clock`.
"""

from __future__ import annotations

import csv
from operator import itemgetter
from typing import Sequence, Union

from .diagnostics import EvalError
from .lang import (BASE, Binop, Call, Clock, ClockBase, ClockOn, Const, Def, Equation,
                   Expr, Fby, Ite, Merge, NCall, NDef, NFby, Node, Program, Unop,
                   Var, When, check_causality, clock_vars, eq_targets)


class _Absent:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "‹›"


ABSENT = _Absent()

Value = Union[int, bool, _Absent]
VStream = list  # list[Value]
BStream = list  # list[bool]
History = dict  # dict[str, VStream]


def present(v: Value) -> bool:
    return v is not ABSENT


def show_value(v: Value) -> str:
    if v is ABSENT:
        return "_"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# ---------------------------------------------------------------------------
# Pointwise stream operations
# ---------------------------------------------------------------------------

def const_stream(c: Union[int, bool], bs: BStream) -> VStream:
    """The constant pulsed on the given clock."""
    return [c if b else ABSENT for b in bs]


_I64 = 1 << 64


def _wrap64(v: int) -> int:
    """Two's-complement wrap to a machine 64-bit signed integer."""
    v &= _I64 - 1
    return v - _I64 if v >= (1 << 63) else v


def _apply_unop(op: str, v, tick: int):
    if op == "-":
        return _wrap64(-v)
    if op == "not":
        return not v
    raise EvalError("bad-operator", f"unknown unary operator {op}", tick)


def _apply_binop(op: str, a, b, tick: int):
    match op:
        case "+":
            return _wrap64(a + b)
        case "-":
            return _wrap64(a - b)
        case "*":
            return _wrap64(a * b)
        case "div":
            if b == 0:
                raise EvalError("div-by-zero", "division by zero", tick)
            q = abs(a) // abs(b)
            return _wrap64(q if (a >= 0) == (b >= 0) else -q)
        case "mod":
            if b == 0:
                raise EvalError("div-by-zero", "modulo by zero", tick)
            return _wrap64(a - b * _apply_binop("div", a, b, tick))
        case "=":
            return a == b
        case "<>":
            return a != b
        case "<":
            return a < b
        case "<=":
            return a <= b
        case ">":
            return a > b
        case ">=":
            return a >= b
        case "and":
            return a and b
        case "or":
            return a or b
    raise EvalError("bad-operator", f"unknown operator {op}", tick)


def lift_unop(op: str, es: VStream) -> VStream:
    return [ABSENT if v is ABSENT else _apply_unop(op, v, t) for t, v in enumerate(es)]


def lift_binop(op: str, xs: VStream, ys: VStream) -> VStream:
    out = []
    for t, (a, b) in enumerate(zip(xs, ys)):
        if present(a) != present(b):
            raise EvalError("clocked-value-mismatch",
                            f"operands of {op} disagree on presence", t)
        out.append(ABSENT if a is ABSENT else _apply_binop(op, a, b, t))
    return out


def when_stream(k: bool, xs: VStream, es: VStream) -> VStream:
    """Sample es where xs carries the value k; both absent passes through."""
    out = []
    for t, (x, e) in enumerate(zip(xs, es)):
        if present(x) != present(e):
            raise EvalError("clocked-value-mismatch",
                            "when operands disagree on presence", t)
        if x is ABSENT:
            out.append(ABSENT)
        else:
            out.append(e if x == k else ABSENT)
    return out


def merge_stream(xs: VStream, ts: VStream, fs: VStream) -> VStream:
    """Interpolate complementary streams steered by xs."""
    out = []
    for t, (x, a, b) in enumerate(zip(xs, ts, fs)):
        if x is ABSENT:
            if present(a) or present(b):
                raise EvalError("clocked-value-mismatch",
                                "merge branch present while selector is absent", t)
            out.append(ABSENT)
        elif x is True:
            if not present(a) or present(b):
                raise EvalError("clocked-value-mismatch",
                                "merge branches must be complementary", t)
            out.append(a)
        else:
            if present(a) or not present(b):
                raise EvalError("clocked-value-mismatch",
                                "merge branches must be complementary", t)
            out.append(b)
    return out


def ite_stream(es: VStream, ts: VStream, fs: VStream) -> VStream:
    """Pointwise conditional; all three streams pulse together."""
    out = []
    for t, (c, a, b) in enumerate(zip(es, ts, fs)):
        if present(c) != present(a) or present(c) != present(b):
            raise EvalError("clocked-value-mismatch",
                            "if operands disagree on presence", t)
        if c is ABSENT:
            out.append(ABSENT)
        else:
            out.append(a if c else b)
    return out


def fby_lustre(xs: VStream, ys: VStream) -> VStream:
    """Full-language delay: the first present value comes from xs, every
    later present value is the previous present value of ys."""
    out = []
    started = False
    saved = None
    for t, (x, y) in enumerate(zip(xs, ys)):
        if present(x) != present(y):
            raise EvalError("clocked-value-mismatch",
                            "fby operands disagree on presence", t)
        if x is ABSENT:
            out.append(ABSENT)
            continue
        out.append(saved if started else x)
        saved = y
        started = True
    return out


def fby_nlustre(c: Union[int, bool], vs: VStream) -> VStream:
    """Constant-initialised delay: emit the saved value, then store the
    current input; absences keep the state."""
    out = []
    saved = c
    for v in vs:
        if v is ABSENT:
            out.append(ABSENT)
        else:
            out.append(saved)
            saved = v
    return out


def base_of(streams: Sequence[VStream]) -> BStream:
    """Clock on which a tuple of aligned streams pulses."""
    if not streams:
        raise EvalError("arity-mismatch", "base clock of an empty stream tuple")
    out = []
    n = len(streams[0])
    for t in range(n):
        flags = {present(s[t]) for s in streams}
        if len(flags) > 1:
            raise EvalError("clocked-value-mismatch",
                            "stream tuple components disagree on presence", t)
        out.append(flags.pop())
    return out


def respects_clock(history: History, bs: BStream) -> bool:
    """No stream carries a value at a tick where the clock is false.

    (The stronger both-direction reading would reject sub-clocked locals;
    only this direction is enforced.)"""
    for vs in history.values():
        for t, v in enumerate(vs):
            if t < len(bs) and present(v) and not bs[t]:
                return False
    return True


def eval_clock(history: History, bs: BStream, ck: Clock) -> BStream:
    """Boolean stream denoted by a clock expression under a history."""
    names = clock_vars(ck)
    for x in names:
        if x not in history:
            raise EvalError("unbound-var", f"clock variable {x} has no stream")
    n = min([len(bs)] + [len(history[x]) for x in names])
    return [_tick_clock(ck, {x: history[x][t] for x in names}, bs[t], t) for t in range(n)]


def _tick_clock(ck: Clock, vals: dict, bs_t: bool, t: int) -> bool:
    """Whether a clock is live at one tick, reading its variables from the
    tick values."""
    match ck:
        case ClockBase():
            return bs_t
        case ClockOn(base, x, k):
            b = _tick_clock(base, vals, bs_t, t)
            v = vals[x]
            if b and v is ABSENT:
                raise EvalError("clocked-value-mismatch",
                                f"clock variable {x} absent while its clock is live", t, x)
            if not b and present(v):
                raise EvalError("clocked-value-mismatch",
                                f"clock variable {x} present while its clock is idle", t, x)
            return bool(b and v == k)
    raise TypeError(f"_tick_clock: unsupported {ck!r}")


# ---------------------------------------------------------------------------
# Compiled tick-wise evaluation: the tree interpreter, reference and fallback
# of the generated code of `codegen`
# ---------------------------------------------------------------------------

class _Compiled:
    width: int = 1

    def eval(self, t: int, vals: dict, bs_t: bool) -> list:
        raise NotImplementedError


class _CConst(_Compiled):
    def __init__(self, value, clock: Clock):
        self.value = value
        self.clock = clock

    def eval(self, t, vals, bs_t):
        return [self.value if _tick_clock(self.clock, vals, bs_t, t) else ABSENT]


class _CVar(_Compiled):
    def __init__(self, name: str):
        self.name = name

    def eval(self, t, vals, bs_t):
        return [vals[self.name]]


class _CUnop(_Compiled):
    def __init__(self, op, arg: _Compiled):
        self.op = op
        self.arg = arg

    def eval(self, t, vals, bs_t):
        [v] = self.arg.eval(t, vals, bs_t)
        return [ABSENT if v is ABSENT else _apply_unop(self.op, v, t)]


class _CBinop(_Compiled):
    def __init__(self, op, left: _Compiled, right: _Compiled):
        self.op = op
        self.left = left
        self.right = right

    def eval(self, t, vals, bs_t):
        [a] = self.left.eval(t, vals, bs_t)
        [b] = self.right.eval(t, vals, bs_t)
        if present(a) != present(b):
            raise EvalError("clocked-value-mismatch",
                            f"operands of {self.op} disagree on presence", t)
        return [ABSENT if a is ABSENT else _apply_binop(self.op, a, b, t)]


class _CMany(_Compiled):
    """Shared shape for operators over flattened argument lists."""

    def __init__(self, parts: list[_Compiled]):
        self.parts = parts
        self.width = sum(p.width for p in parts)

    def flat(self, t, vals, bs_t) -> list:
        out = []
        for p in self.parts:
            out.extend(p.eval(t, vals, bs_t))
        return out

    eval = flat


class _CWhen(_Compiled):
    def __init__(self, args: _CMany, var: str, value: bool):
        self.args = args
        self.var = var
        self.value = value
        self.width = args.width

    def eval(self, t, vals, bs_t):
        x = vals[self.var]
        out = []
        for v in self.args.flat(t, vals, bs_t):
            if present(x) != present(v):
                raise EvalError("clocked-value-mismatch",
                                "when operands disagree on presence", t, self.var)
            if x is ABSENT or x != self.value:
                out.append(ABSENT)
            else:
                out.append(v)
        return out


class _CMerge(_Compiled):
    def __init__(self, var: str, ts: _CMany, fs: _CMany):
        self.var = var
        self.ts = ts
        self.fs = fs
        self.width = ts.width

    def eval(self, t, vals, bs_t):
        x = vals[self.var]
        out = []
        for a, b in zip(self.ts.flat(t, vals, bs_t), self.fs.flat(t, vals, bs_t)):
            if x is ABSENT:
                if present(a) or present(b):
                    raise EvalError("clocked-value-mismatch",
                                    "merge branch present while selector is absent", t, self.var)
                out.append(ABSENT)
            elif (x is True and (not present(a) or present(b))) or \
                 (x is False and (present(a) or not present(b))):
                raise EvalError("clocked-value-mismatch",
                                "merge branches must be complementary", t, self.var)
            else:
                out.append(a if x else b)
        return out


class _CIte(_Compiled):
    def __init__(self, cond: _Compiled, ts: _CMany, fs: _CMany):
        self.cond = cond
        self.ts = ts
        self.fs = fs
        self.width = ts.width

    def eval(self, t, vals, bs_t):
        [c] = self.cond.eval(t, vals, bs_t)
        out = []
        for a, b in zip(self.ts.flat(t, vals, bs_t), self.fs.flat(t, vals, bs_t)):
            if present(c) != present(a) or present(c) != present(b):
                raise EvalError("clocked-value-mismatch",
                                "if operands disagree on presence", t)
            out.append(ABSENT if c is ABSENT else (a if c else b))
        return out


class _CFby(_Compiled):
    """Delay: a full-language `fby`, or the constant-initialised `NFby` of
    the normal form, whose `target` names its diagnostics. Emits during the
    tick's first evaluation; the delayed operand is read during the update
    sweep at the end of the tick."""

    def __init__(self, init: _CMany, rest: _CMany, target: str | None = None):
        self.init = init
        self.rest = rest
        self.target = target  # the defined variable of an equation-level delay
        self.width = init.width
        self.started = [False] * self.width
        self.saved: list = [None] * self.width
        self._tick = -1
        self._out: list = []
        self._pres: list = []

    def eval(self, t, vals, bs_t):
        if self._tick == t:
            return list(self._out)
        heads = self.init.flat(t, vals, bs_t)
        out = []
        for i, h in enumerate(heads):
            if h is ABSENT:
                out.append(ABSENT)
            elif self.started[i]:
                out.append(self.saved[i])
            else:
                out.append(h)
        self._tick = t
        self._out = out
        self._pres = [present(h) for h in heads]
        return list(out)

    def update(self, t, vals, bs_t):
        self.eval(t, vals, bs_t)
        tails = self.rest.flat(t, vals, bs_t)
        if len(tails) != self.width:
            raise EvalError("arity-mismatch", "fby arguments have different widths", t)
        for i, v in enumerate(tails):
            if present(v) != self._pres[i]:
                if self.target is not None:
                    raise EvalError("clocked-value-mismatch",
                                    f"delayed operand of {self.target} off its clock",
                                    t, self.target)
                raise EvalError("clocked-value-mismatch",
                                "fby operands disagree on presence", t)
            if present(v):
                self.saved[i] = v
                self.started[i] = True


class _CCall(_Compiled):
    def __init__(self, instance: "NodeInstance", args: _CMany, clock: Clock):
        self.instance = instance
        self.args = args
        self.clock = clock  # activation clock for calls without arguments
        self.width = len(instance.node.outputs)
        self._tick = -1
        self._out: list = []

    def eval(self, t, vals, bs_t):
        if self._tick == t:
            return list(self._out)
        argv = self.args.flat(t, vals, bs_t)
        flags = {present(v) for v in argv}
        if len(flags) > 1:
            raise EvalError("clocked-value-mismatch",
                            f"arguments of {self.instance.node.name} disagree on presence", t)
        live = flags.pop() if flags else _tick_clock(self.clock, vals, bs_t, t)
        self._out = self.instance.step(argv, live)
        self._tick = t
        return list(self._out)


class NodeInstance:
    """One activation of a node: compiled equations in causal order plus all
    delay state. Each step consumes one tick of inputs."""

    def __init__(self, prog: Program, node: Node):
        self.prog = prog
        self.node = node
        self.order = check_causality(node)
        self.updaters: list = []
        self.t = -1
        self._last_vals: dict = {}
        clocks = {d.name: d.clock for d in node.declarations}
        self.ticked: list[tuple[Equation, object]] = []
        for idx in self.order:
            eq = node.equations[idx]
            self.ticked.append((eq, self._compile_equation(eq, clocks)))

    # -- compilation --------------------------------------------------------
    def _compile_equation(self, eq: Equation, clocks):
        match eq:
            case Def(targets, ck, exprs):
                ck = ck if ck is not None else ClockBase()
                trees = _CMany([self._compile(e, ck, clocks) for e in exprs])
                if trees.width != len(targets):
                    raise EvalError("arity-mismatch",
                                    f"{len(targets)} target(s) but {trees.width} stream(s)")
                return trees
            case NDef(_, ck, e):
                return _CMany([self._compile(e, ck, clocks)])
            case NFby(x, ck, c, e):
                comp = _CFby(_CMany([_CConst(c.value, ck)]),
                             _CMany([self._compile(e, ck, clocks)]), x)
                self.updaters.append(comp)
                return comp
            case NCall(targets, ck, f, args):
                callee = self.prog.node(f)
                inst = NodeInstance(self.prog, callee)
                trees = _CMany([self._compile(a, ck, clocks) for a in args])
                call = _CCall(inst, trees, ck)
                if call.width != len(targets):
                    raise EvalError("arity-mismatch",
                                    f"{len(targets)} target(s) but {call.width} output(s)")
                return call
        raise TypeError(f"unsupported equation {eq!r}")

    def _compile(self, e: Expr, ambient: Clock, clocks) -> _Compiled:
        match e:
            case Const():
                return _CConst(e.value, ambient)
            case Var(x):
                return _CVar(x)
            case Unop(op, a):
                return _CUnop(op, self._compile(a, ambient, clocks))
            case Binop(op, a, b):
                return _CBinop(op, self._compile(a, ambient, clocks),
                               self._compile(b, ambient, clocks))
            case When(args, x, k):
                inner = clocks.get(x, ambient)
                return _CWhen(_CMany([self._compile(a, inner, clocks) for a in args]), x, k)
            case Merge(x, ts, fs):
                base = clocks.get(x, ambient)
                cts = _CMany([self._compile(a, ClockOn(base, x, True), clocks) for a in ts])
                cfs = _CMany([self._compile(a, ClockOn(base, x, False), clocks) for a in fs])
                if cts.width != cfs.width:
                    raise EvalError("arity-mismatch", "merge branches have different widths")
                return _CMerge(x, cts, cfs)
            case Ite(c, ts, fs):
                cc = self._compile(c, ambient, clocks)
                cts = _CMany([self._compile(a, ambient, clocks) for a in ts])
                cfs = _CMany([self._compile(a, ambient, clocks) for a in fs])
                if cts.width != cfs.width:
                    raise EvalError("arity-mismatch", "if branches have different widths")
                return _CIte(cc, cts, cfs)
            case Fby(e0s, es):
                heads = _CMany([self._compile(a, ambient, clocks) for a in e0s])
                tails = _CMany([self._compile(a, ambient, clocks) for a in es])
                comp = _CFby(heads, tails)
                self.updaters.append(comp)
                return comp
            case Call(f, args):
                callee = self.prog.node(f)
                inst = NodeInstance(self.prog, callee)
                return _CCall(inst, _CMany([self._compile(a, ambient, clocks) for a in args]),
                              ambient)
        raise TypeError(f"unsupported expression {e!r}")

    # -- execution -----------------------------------------------------------
    def step(self, inputs: list, bs_t: bool) -> list:
        """Advance one tick given per-input values; returns output values."""
        self.t += 1
        t = self.t
        if len(inputs) != len(self.node.inputs):
            raise EvalError("arity-mismatch",
                            f"{self.node.name} expects {len(self.node.inputs)} input(s)")
        vals: dict = {}
        for decl, v in zip(self.node.inputs, inputs):
            vals[decl.name] = v
        for eq, comp in self.ticked:
            outs = comp.eval(t, vals, bs_t)
            targets = eq_targets(eq)
            ck = eq.clock
            live = _tick_clock(ck, vals, bs_t, t) if ck is not None else None
            for x, v in zip(targets, outs):
                if live is not None and present(v) != live:
                    raise EvalError("clocked-value-mismatch",
                                    f"{x} is {'present' if present(v) else 'absent'} "
                                    f"while its clock is {'live' if live else 'idle'}", t, x)
                vals[x] = v
        for upd in self.updaters:
            upd.update(t, vals, bs_t)
        self._last_vals = vals
        return [vals[d.name] for d in self.node.outputs]


# ---------------------------------------------------------------------------
# Whole-prefix entry points
# ---------------------------------------------------------------------------

def eval_expr(prog: Program, history: History, bs: BStream, e: Expr) -> list[VStream]:
    """Streams denoted by an expression under a given history and clock.

    Constants pulse on the ambient clock (the base clock here); variables
    carry their own presence from the history.
    """
    node = Node("<expr>", (), (), (), ())
    inst = NodeInstance(prog, node)
    comp = inst._compile(e, ClockBase(), {})
    n = len(bs)
    for vs in history.values():
        if len(vs) != n:
            raise EvalError("arity-mismatch", "history streams must share the prefix length")
    outs: list[VStream] = [[] for _ in range(comp.width)]
    for t in range(n):
        vals = {x: vs[t] for x, vs in history.items()}
        row = comp.eval(t, vals, bs[t])
        for upd in inst.updaters:
            upd.update(t, vals, bs[t])
        for i, v in enumerate(row):
            outs[i].append(v)
    return outs


def run_node(prog: Program, name: str, inputs: History, n_ticks: int,
             bs: BStream | None = None) -> tuple[History, BStream]:
    """Run a node for a finite prefix, returning the full history of its
    variables (inputs, outputs and locals) along with the base clock used.

    The base clock defaults to the pointwise presence of the inputs (inputs
    declared on sub-clocks count where present); a node without inputs runs
    on an always-live clock.

    The node runs as compiled core-form code (`codegen`). When its program
    does not compile, or the compiled run raises `EvalError`, the tree
    interpreter runs it instead, so results and diagnostics are the
    interpreter's.
    """
    node = prog.node(name)
    n_ticks = max(n_ticks, 0)  # a negative prefix is empty
    declared = [d.name for d in node.inputs]
    missing = [x for x in declared if x not in inputs]
    if missing:
        raise EvalError("arity-mismatch", f"missing input stream(s): {', '.join(missing)}")
    extra = [x for x in inputs if x not in declared]
    if extra:
        raise EvalError("arity-mismatch", f"unknown input stream(s): {', '.join(extra)}")
    for x, vs in inputs.items():
        if len(vs) < n_ticks:
            raise EvalError("arity-mismatch", f"input {x} is shorter than {n_ticks} ticks")
    ins = [list(inputs[x][:n_ticks]) for x in declared]
    if bs is None:
        bs = default_base_clock(ins, n_ticks)
    elif len(bs) < n_ticks:
        raise EvalError("arity-mismatch", f"base clock is shorter than {n_ticks} ticks")
    else:
        bs = bs[:n_ticks]
    from .codegen import runner  # imported on first use: codegen builds on this module
    run = runner(prog, name)
    if run is not None:
        rest = [d.name for d in node.outputs + node.locals]
        hist = [[] for _ in rest]
        try:
            run(ins, bs, hist)
        except EvalError:
            pass  # the interpreter re-runs and reports the reference diagnostic
        else:
            return dict(zip(declared + rest, ins + hist)), bs
    return interpret_node(prog, node, inputs, n_ticks, bs), bs


def default_base_clock(inputs: list[VStream], n_ticks: int) -> BStream:
    """The pointwise presence of the inputs over the first `n_ticks` ticks;
    a node without inputs runs at every tick."""
    bs = [not inputs] * n_ticks
    for vs in inputs:
        bs = [b or v is not ABSENT for b, v in zip(bs, vs)]
    return bs


def interpret_node(prog: Program, node: Node, inputs: History, n_ticks: int,
                   bs: BStream) -> History:
    """`run_node` on the tree interpreter: the reference semantics."""
    declared = [d.name for d in node.inputs]
    inst = NodeInstance(prog, node)
    history: History = {d.name: [] for d in node.declarations}
    for t in range(n_ticks):
        row = [inputs[x][t] for x in declared]
        outs = inst.step(row, bs[t])
        for x, v in zip(declared, row):
            history[x].append(v)
        for d, v in zip(node.outputs, outs):
            history[d.name].append(v)
        for d in node.locals:
            history[d.name].append(inst._last_vals[d.name])
    # validate declared input clocks against the run
    for d in node.inputs:
        if isinstance(d.clock, ClockOn):
            eval_clock(history, bs, d.clock)  # raises on inconsistency
        else:
            for t in range(n_ticks):
                if present(history[d.name][t]) != bs[t]:
                    raise EvalError("clocked-value-mismatch",
                                    f"input {d.name} off the base clock", t, d.name)
    return history


def eval_node(prog: Program, name: str, inputs: list[VStream], n_ticks: int) -> list[VStream]:
    """Output streams of a node applied to positional input streams."""
    node = prog.node(name)
    if len(inputs) != len(node.inputs):
        raise EvalError("arity-mismatch",
                        f"{name} expects {len(node.inputs)} input(s), got {len(inputs)}")
    named = {d.name: vs for d, vs in zip(node.inputs, inputs)}
    history, _ = run_node(prog, name, named, n_ticks)
    return [history[d.name] for d in node.outputs]


# ---------------------------------------------------------------------------
# CSV traces
# ---------------------------------------------------------------------------

def _parse_cell(text: str, where: str) -> Value:
    cell = text.strip()
    if cell == "_":
        return ABSENT
    if cell == "true":
        return True
    if cell == "false":
        return False
    shown = cell if len(cell) <= 40 else cell[:40] + "…"  # keep the diagnostic one short line
    try:
        v = int(cell)
    except ValueError:
        raise EvalError("bad-trace", f"cannot read {shown!r} in column {where}") from None
    if _wrap64(v) != v:
        raise EvalError("bad-trace", f"{shown} in column {where} is outside the 64-bit range")
    return v


def _csv_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            return list(reader)
        except csv.Error as exc:
            raise EvalError("bad-trace", f"line {reader.line_num}: {exc}") from None


def _trace_by_rows(rows) -> tuple[History, BStream | None]:
    """Row-major reading of CSV rows (header first), one `_parse_cell` per
    cell. It is the reference for `read_trace` and the only producer of its
    `bad-trace` diagnostics, so which error wins in a file with several is
    fixed here: the header, then each row in order, then the base column."""
    if not rows:
        return {}, None
    header = [h.strip() for h in rows[0]]
    streams: History = {}
    for name in header:
        if name in streams:
            raise EvalError("bad-trace", f"column {name!r} appears twice in the header")
        streams[name] = []
    for row in rows[1:]:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise EvalError("bad-trace", f"row has {len(row)} cells, header has {len(header)}")
        for name, cell in zip(header, row):
            streams[name].append(_parse_cell(cell, name))
    bs = None
    if BASE in streams:
        col = streams.pop(BASE)
        bs = []
        for v in col:
            if not isinstance(v, bool):
                raise EvalError("bad-trace", "base column must hold true/false")
            bs.append(v)
    return streams, bs


_WORDS = {"_": ABSENT, "true": True, "false": False}


def _decode_column(col: Sequence[str]) -> VStream | None:
    """The values of one column of cells, or None when a cell is unreadable
    or out of range. Equal to `_parse_cell` per cell: `int` accepts only
    whitespace that `str.strip` removes, and fails on the rest, which leaves
    those cells to the slower tries."""
    try:
        vs = list(map(int, col))
    except ValueError:
        pass
    else:
        return vs if not vs or (min(vs) >= -(1 << 63) and max(vs) < 1 << 63) else None
    try:
        return [_WORDS[c.strip()] for c in col]
    except KeyError:
        pass
    try:
        return [_parse_cell(c, "") for c in col]
    except EvalError:
        return None


def read_trace(path) -> tuple[History, BStream | None]:
    """Read a UTF-8 CSV trace: a header of variable names (plus an optional
    `base` column) and one row per tick; `_` marks absence. Cells are
    stripped and blank rows skipped.

    Columns are decoded whole. The rows of a file with any irregularity go
    to `_trace_by_rows`, which raises its diagnostic."""
    rows = _csv_rows(path)
    if not rows:
        return {}, None
    header = [h.strip() for h in rows[0]]
    body = [row for row in rows[1:] if "".join(row).strip()]
    del rows
    if len(set(header)) < len(header) or set(map(len, body)) - {len(header)}:
        return _trace_by_rows([header, *body])
    # one exact-size list per column; zip(*body) would hold an iterator per row
    cols = [list(map(itemgetter(j), body)) for j in range(len(header))]
    del body  # the columns share the cell strings; release the row lists
    streams: History = {}
    for name, col in zip(header, cols):
        vs = _decode_column(col)
        if vs is None or name == BASE and not all(isinstance(v, bool) for v in vs):
            return _trace_by_rows([header, *zip(*cols)])
        streams[name] = vs
    return streams, streams.pop(BASE, None)

