"""Finite-prefix executable model of the clocked stream semantics.

Streams are lists of length N holding plain Python values (int/bool) where a
value is present and the ABSENT sentinel where it is not. Nodes execute
tick-major: each tick, equations run in causal order, and delay state is
updated once all of the tick's values are known.

`run_node` runs nodes as compiled core-form code (see `codegen`) through
`run_compiled`. The tree interpreter below ("Compiled tick-wise evaluation":
`NodeInstance`, reached through `interpret_node`) compiles each expression
of a node once into a Python closure `fn(t, vals, bs_t)` that returns the
expression's values at one tick (Feeley & Lapalme, "Using closures for code
generation", 1987), with delay and call state in two small classes. It is
the reference the compiled code is tested against, the evaluator of the
source side of the harness's semantics-preservation check, and the fallback
that runs a program which does not compile or whose compiled run fails, so
every result and diagnostic is the interpreter's. The whole-prefix stream
operators (`lift_unop` … `respects_clock`) and the whole-prefix entry point
`eval_expr` are in turn the reference for the tree interpreter: nothing in
the package calls them, and the tests check the interpreter against them.
A closure on the base clock reads `bs_t` directly; every other clock of
the interpreter goes through `_tick_clock`.
"""

from __future__ import annotations

import csv
from operator import itemgetter
from typing import Callable, Sequence, Union

from .diagnostics import EvalError
from .lang import (BASE, BASE_CLOCK, Binop, Call, Clock, ClockBase, ClockOn, Const, Def,
                   Equation, Expr, Fby, Ite, Merge, NCall, NDef, NFby, Node, Program, Unop,
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

# An expression of a node instance compiled to a closure `fn(t, vals, bs_t)`:
# its values at tick t, one per component, from the values the tick has
# computed so far and the base clock's value at t.
Tick = Callable[[int, dict, bool], list]


def _const(value, ck: Clock) -> Tick:
    if isinstance(ck, ClockBase):
        return lambda t, vals, bs_t: [value if bs_t else ABSENT]
    return lambda t, vals, bs_t: [value if _tick_clock(ck, vals, bs_t, t) else ABSENT]


def _var(x: str) -> Tick:
    return lambda t, vals, bs_t: [vals[x]]


def _unop(op: str, arg: Tick) -> Tick:
    def fn(t, vals, bs_t):
        [v] = arg(t, vals, bs_t)
        return [ABSENT if v is ABSENT else _apply_unop(op, v, t)]
    return fn


def _binop(op: str, left: Tick, right: Tick) -> Tick:
    def fn(t, vals, bs_t):
        [a] = left(t, vals, bs_t)
        [b] = right(t, vals, bs_t)
        if (a is ABSENT) != (b is ABSENT):
            raise EvalError("clocked-value-mismatch", f"operands of {op} disagree on presence", t)
        return [ABSENT if a is ABSENT else _apply_binop(op, a, b, t)]
    return fn


def _many(parts: list[tuple[Tick, int]]) -> tuple[Tick, int]:
    """The flattened values of a list of compiled expressions, and their
    total width."""
    if len(parts) == 1:
        return parts[0]
    fns = [fn for fn, _ in parts]

    def fn(t, vals, bs_t):
        out = []
        for f in fns:
            out += f(t, vals, bs_t)
        return out
    return fn, sum(w for _, w in parts)


def _when(args: Tick, x: str, k: bool) -> Tick:
    def fn(t, vals, bs_t):
        c = vals[x]
        out = []
        for v in args(t, vals, bs_t):
            if (c is ABSENT) != (v is ABSENT):
                raise EvalError("clocked-value-mismatch",
                                "when operands disagree on presence", t, x)
            out.append(ABSENT if c is ABSENT or c != k else v)
        return out
    return fn


def _merge(x: str, ts: Tick, fs: Tick) -> Tick:
    def fn(t, vals, bs_t):
        c = vals[x]
        out = []
        for a, b in zip(ts(t, vals, bs_t), fs(t, vals, bs_t)):
            if c is ABSENT:
                if a is not ABSENT or b is not ABSENT:
                    raise EvalError("clocked-value-mismatch",
                                    "merge branch present while selector is absent", t, x)
                out.append(ABSENT)
            elif (c is True and (a is ABSENT or b is not ABSENT)) or \
                 (c is False and (a is not ABSENT or b is ABSENT)):
                raise EvalError("clocked-value-mismatch",
                                "merge branches must be complementary", t, x)
            else:
                out.append(a if c else b)
        return out
    return fn


def _ite(cond: Tick, ts: Tick, fs: Tick) -> Tick:
    def fn(t, vals, bs_t):
        [c] = cond(t, vals, bs_t)
        out = []
        for a, b in zip(ts(t, vals, bs_t), fs(t, vals, bs_t)):
            if (c is ABSENT) != (a is ABSENT) or (c is ABSENT) != (b is ABSENT):
                raise EvalError("clocked-value-mismatch",
                                "if operands disagree on presence", t)
            out.append(ABSENT if c is ABSENT else (a if c else b))
        return out
    return fn


class _Delay:
    """Delay state: a full-language `fby`, or the constant-initialised `NFby`
    of the normal form, whose `target` names its diagnostics. `eval` emits
    during the tick's first evaluation; `update`, in the sweep at the end of
    the tick, reads the delayed operand."""

    def __init__(self, init: Tick, rest: Tick, width: int, target: str | None = None):
        self.init = init
        self.rest = rest
        self.width = width
        self.target = target  # the defined variable of an equation-level delay
        self.started = [False] * width
        self.saved: list = [None] * width
        self._tick = -1
        self._out: list = []
        self._pres: list = []

    def eval(self, t, vals, bs_t):
        if self._tick != t:
            heads = self.init(t, vals, bs_t)
            self._out = [ABSENT if h is ABSENT else (s if started else h)
                         for h, s, started in zip(heads, self.saved, self.started)]
            self._pres = [h is not ABSENT for h in heads]
            self._tick = t
        return self._out

    def update(self, t, vals, bs_t):
        self.eval(t, vals, bs_t)
        tails = self.rest(t, vals, bs_t)
        if len(tails) != self.width:
            raise EvalError("arity-mismatch", "fby arguments have different widths", t)
        for i, v in enumerate(tails):
            if (v is not ABSENT) != self._pres[i]:
                if self.target is not None:
                    raise EvalError("clocked-value-mismatch",
                                    f"delayed operand of {self.target} off its clock",
                                    t, self.target)
                raise EvalError("clocked-value-mismatch",
                                "fby operands disagree on presence", t)
            if v is not ABSENT:
                self.saved[i] = v
                self.started[i] = True


class _Call:
    """Call state: a sub-instance stepped at most once per tick, on the
    presence of its arguments, or for a call without arguments on its
    activation clock (None for the base clock)."""

    def __init__(self, instance: "NodeInstance", args: Tick, clock: Clock):
        self.instance = instance
        self.args = args
        self.clock = None if isinstance(clock, ClockBase) else clock
        self._tick = -1
        self._out: list = []

    def eval(self, t, vals, bs_t):
        if self._tick != t:
            argv = self.args(t, vals, bs_t)
            flags = {v is not ABSENT for v in argv}
            if len(flags) > 1:
                raise EvalError("clocked-value-mismatch",
                                f"arguments of {self.instance.node.name} disagree on presence", t)
            if flags:
                live = flags.pop()
            else:
                live = bs_t if self.clock is None else _tick_clock(self.clock, vals, bs_t, t)
            self._out = self.instance.step(argv, live)
            self._tick = t
        return self._out


class NodeInstance:
    """One activation of a node: its equations compiled to closures in
    causal order, each with its targets and clock, plus all delay state.
    Each step consumes one tick of inputs; `vals` holds the values of the
    last tick."""

    def __init__(self, prog: Program, node: Node):
        self.prog = prog
        self.node = node
        self.inputs = [d.name for d in node.inputs]
        self.outputs = [d.name for d in node.outputs]
        self.updaters: list[_Delay] = []
        self.t = -1
        self.vals: dict = {}
        clocks = {d.name: d.clock for d in node.declarations}
        self.ticked: list[tuple[Tick, tuple[str, ...], Clock | None]] = [
            self._compile_equation(node.equations[i], clocks) for i in check_causality(node)]

    # -- compilation --------------------------------------------------------
    def _compile_equation(self, eq: Equation, clocks):
        """The equation's closure, its targets, and the clock they are
        checked against (`BASE_CLOCK` for the base clock, None for none)."""
        match eq:
            case Def(targets, ck, exprs):
                ambient = ck if ck is not None else BASE_CLOCK
                fn, width = _many([self._compile(e, ambient, clocks) for e in exprs])
                if width != len(targets):
                    raise EvalError("arity-mismatch",
                                    f"{len(targets)} target(s) but {width} stream(s)")
            case NDef(_, ck, e):
                fn, _ = self._compile(e, ck, clocks)
            case NFby(x, ck, c, e):
                delay = _Delay(_const(c.value, ck), self._compile(e, ck, clocks)[0], 1, x)
                self.updaters.append(delay)
                fn = delay.eval
            case NCall(targets, ck, f, args):
                inst = NodeInstance(self.prog, self.prog.node(f))
                argv, _ = _many([self._compile(a, ck, clocks) for a in args])
                fn = _Call(inst, argv, ck).eval
                if len(inst.outputs) != len(targets):
                    raise EvalError("arity-mismatch",
                                    f"{len(targets)} target(s) but {len(inst.outputs)} output(s)")
            case _:
                raise TypeError(f"unsupported equation {eq!r}")
        ck = eq.clock
        return fn, eq_targets(eq), BASE_CLOCK if isinstance(ck, ClockBase) else ck

    def _compile(self, e: Expr, ambient: Clock, clocks) -> tuple[Tick, int]:
        """The closure of an expression on clock `ambient`, and its width."""
        match e:
            case Const():
                return _const(e.value, ambient), 1
            case Var(x):
                return _var(x), 1
            case Unop(op, a):
                return _unop(op, self._compile(a, ambient, clocks)[0]), 1
            case Binop(op, a, b):
                return _binop(op, self._compile(a, ambient, clocks)[0],
                              self._compile(b, ambient, clocks)[0]), 1
            case When(args, x, k):
                inner = clocks.get(x, ambient)
                fn, width = _many([self._compile(a, inner, clocks) for a in args])
                return _when(fn, x, k), width
            case Merge(x, ts, fs):
                base = clocks.get(x, ambient)
                on_t, width = _many([self._compile(a, ClockOn(base, x, True), clocks) for a in ts])
                on_f, width_f = _many([self._compile(a, ClockOn(base, x, False), clocks)
                                       for a in fs])
                if width != width_f:
                    raise EvalError("arity-mismatch", "merge branches have different widths")
                return _merge(x, on_t, on_f), width
            case Ite(c, ts, fs):
                cond, _ = self._compile(c, ambient, clocks)
                on_t, width = _many([self._compile(a, ambient, clocks) for a in ts])
                on_f, width_f = _many([self._compile(a, ambient, clocks) for a in fs])
                if width != width_f:
                    raise EvalError("arity-mismatch", "if branches have different widths")
                return _ite(cond, on_t, on_f), width
            case Fby(e0s, es):
                heads, width = _many([self._compile(a, ambient, clocks) for a in e0s])
                tails, _ = _many([self._compile(a, ambient, clocks) for a in es])
                delay = _Delay(heads, tails, width)
                self.updaters.append(delay)
                return delay.eval, width
            case Call(f, args):
                inst = NodeInstance(self.prog, self.prog.node(f))
                argv, _ = _many([self._compile(a, ambient, clocks) for a in args])
                return _Call(inst, argv, ambient).eval, len(inst.outputs)
        raise TypeError(f"unsupported expression {e!r}")

    # -- execution -----------------------------------------------------------
    def step(self, inputs: list, bs_t: bool) -> list:
        """Advance one tick given per-input values; returns output values."""
        self.t += 1
        t = self.t
        if len(inputs) != len(self.inputs):
            raise EvalError("arity-mismatch",
                            f"{self.node.name} expects {len(self.inputs)} input(s)")
        vals = dict(zip(self.inputs, inputs))
        for fn, targets, ck in self.ticked:
            outs = fn(t, vals, bs_t)
            if ck is None:
                vals.update(zip(targets, outs))
                continue
            live = bs_t if ck is BASE_CLOCK else _tick_clock(ck, vals, bs_t, t)
            for x, v in zip(targets, outs):
                if (v is not ABSENT) != live:
                    raise EvalError("clocked-value-mismatch",
                                    f"{x} is {'present' if v is not ABSENT else 'absent'} "
                                    f"while its clock is {'live' if live else 'idle'}", t, x)
                vals[x] = v
        for upd in self.updaters:
            upd.update(t, vals, bs_t)
        self.vals = vals
        return [vals[x] for x in self.outputs]


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
    fn, width = inst._compile(e, BASE_CLOCK, {})
    n = len(bs)
    for vs in history.values():
        if len(vs) != n:
            raise EvalError("arity-mismatch", "history streams must share the prefix length")
    outs: list[VStream] = [[] for _ in range(width)]
    for t in range(n):
        vals = {x: vs[t] for x, vs in history.items()}
        row = fn(t, vals, bs[t])
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
    hist = run_compiled(prog, name, ins, bs)
    if hist is not None:
        rest = [d.name for d in node.outputs + node.locals]
        return dict(zip(declared + rest, ins + hist)), bs
    return interpret_node(prog, node, inputs, n_ticks, bs), bs


def run_compiled(prog: Program, name: str, ins: list[VStream],
                 bs: BStream) -> list[VStream] | None:
    """The streams of the outputs and locals of node `name`, in declaration
    order, from its compiled code (`codegen.runner`) run on the input
    streams `ins` (in declaration order, as long as `bs`) and the base clock
    `bs`; None when the program does not compile or the run raises
    `EvalError`, for the caller to run the tree interpreter instead."""
    from .codegen import runner  # imported on first use: codegen builds on this module
    run = runner(prog, name)
    if run is None:
        return None
    node = prog.node(name)
    hist = [[] for _ in range(len(node.outputs) + len(node.locals))]
    try:
        run(ins, bs, hist)
    except EvalError:
        return None  # the interpreter re-runs and reports the reference diagnostic
    return hist


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
    ticks = []
    for t in range(n_ticks):
        inst.step([inputs[x][t] for x in declared], bs[t])
        ticks.append(inst.vals)
    history: History = {x: list(inputs[x][:n_ticks]) for x in declared}
    for d in node.outputs + node.locals:
        history[d.name] = [vals[d.name] for vals in ticks]
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

