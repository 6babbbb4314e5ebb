"""Finite-prefix executable model of the clocked stream semantics.

Streams are lists of length N holding plain Python values (int/bool) where a
value is present and the ABSENT sentinel where it is not. Nodes execute
tick-major: each tick, equations run in causal order, and delay state is
updated once all of the tick's values are known.

`run_node` checks a run's inputs at the node's interface (`check_inputs`)
before the first tick, and runs the node as compiled core-form code (see
`codegen`) through `run_compiled`. The tree interpreter below ("Compiled
tick-wise evaluation": `NodeInstance`, reached through `interpret_node`)
compiles each expression of a node once into a Python closure
`fn(t, vals, bs_t)` that returns the expression's values at one tick
(Feeley & Lapalme, "Using closures for code generation", 1987), with delay
and call state in two small classes. Each equation becomes one closure that
evaluates it, checks each target against the equation's clock and stores
it in the tick's values; each clock becomes one closure `live(t, vals,
bs_t)` (`_clock`). `step` and `run` share one tick body, and `run` checks
its inputs as `run_node` does. The interpreter is the reference the
compiled code is tested against, and the evaluator of the generator's
post-condition and of the source side of the harness's
semantics-preservation trial loop.

The whole-prefix stream operators (`const_stream` … `base_of`) compute a
stream over a whole prefix at once, and raise the interpreter's
`EvalError` where its closures would; `eval_clock` is the one whole-prefix
clock evaluator. `semantics` builds the paper's relational semantics from
them, as a predicate over whole histories (`sem_node`) and as the streams
of one expression (`sem_exp`).
"""

from __future__ import annotations

import csv
import operator
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

def _present(vs: VStream) -> BStream:
    return [v is not ABSENT for v in vs]


def _streams_equal(xs: VStream, ys: VStream) -> bool:
    """Same length and the same value and type at every tick, a whole list
    at a time: `==` alone takes `True` for `1` and `False` for `0`, so the
    types are compared too, and `ABSENT` is a singleton equal only to
    itself."""
    return xs == ys and list(map(type, xs)) == list(map(type, ys))


def const_stream(c: Union[int, bool], bs: BStream) -> VStream:
    """The constant pulsed on the given clock."""
    return [c if b else ABSENT for b in bs]


_I64 = 1 << 64
_HALF = 1 << 63


def _wrap64(v: int) -> int:
    """Two's-complement wrap to a machine 64-bit signed integer."""
    v &= _I64 - 1
    return v - _I64 if v >= _HALF else v


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


# The operators below compare the presence of their operands first and
# compute the result in one comprehension. A partial operator, and operands
# that disagree on presence, take the tick-by-tick loop, which raises the
# `EvalError` of the first tick at fault.

# The binary operators that cannot raise, as functions of two present
# values; `_WRAPPING` ones wrap their result to 64 bits.
_TOTAL = {"+": operator.add, "-": operator.sub, "*": operator.mul, "=": operator.eq,
          "<>": operator.ne, "<": operator.lt, "<=": operator.le, ">": operator.gt,
          ">=": operator.ge, "and": lambda a, b: a and b, "or": lambda a, b: a or b}
_WRAPPING = {"+", "-", "*"}


def lift_unop(op: str, es: VStream) -> VStream:
    if op == "not":
        return [v if v is ABSENT else not v for v in es]
    if op == "-":
        return [v if v is ABSENT else -v if -_HALF < v < _HALF else _wrap64(-v) for v in es]
    return [ABSENT if v is ABSENT else _apply_unop(op, v, t) for t, v in enumerate(es)]


def lift_binop(op: str, xs: VStream, ys: VStream) -> VStream:
    fn = _TOTAL.get(op)
    if fn is not None and _present(xs) == _present(ys):
        if op in _WRAPPING:
            return [a if a is ABSENT else v if -_HALF <= (v := fn(a, b)) < _HALF else _wrap64(v)
                    for a, b in zip(xs, ys)]
        return [a if a is ABSENT else fn(a, b) for a, b in zip(xs, ys)]
    out = []
    for t, (a, b) in enumerate(zip(xs, ys)):
        if present(a) != present(b):
            raise EvalError("clocked-value-mismatch",
                            f"operands of {op} disagree on presence", t)
        out.append(ABSENT if a is ABSENT else _apply_binop(op, a, b, t))
    return out


def when_stream(k: bool, xs: VStream, es: VStream) -> VStream:
    """Sample es where xs carries the value k; both absent passes through."""
    if _present(xs) != _present(es):
        for t, (x, e) in enumerate(zip(xs, es)):
            if present(x) != present(e):
                raise EvalError("clocked-value-mismatch",
                                "when operands disagree on presence", t)
    return [e if x == k else ABSENT for x, e in zip(xs, es)]


def merge_stream(xs: VStream, ts: VStream, fs: VStream) -> VStream:
    """Interpolate complementary streams steered by xs."""
    if _present(ts) == [x is True for x in xs] and \
            _present(fs) == [x is not ABSENT and x is not True for x in xs]:
        return [a if x is True else b for x, a, b in zip(xs, ts, fs)]
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
    if not _present(es) == _present(ts) == _present(fs):
        for t, (c, a, b) in enumerate(zip(es, ts, fs)):
            if present(c) != present(a) or present(c) != present(b):
                raise EvalError("clocked-value-mismatch",
                                "if operands disagree on presence", t)
    return [c if c is ABSENT else a if c else b for c, a, b in zip(es, ts, fs)]


def fby_lustre(xs: VStream, ys: VStream) -> VStream:
    """Full-language delay: the first present value comes from xs, every
    later present value is the previous present value of ys."""
    live = _present(xs)
    if live != _present(ys):
        for t, (x, y) in enumerate(zip(xs, ys)):
            if present(x) != present(y):
                raise EvalError("clocked-value-mismatch",
                                "fby operands disagree on presence", t)
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
    """Clock on which a tuple of aligned streams pulses."""
    if not streams:
        raise EvalError("arity-mismatch", "base clock of an empty stream tuple")
    live = _present(streams[0])
    if all(_present(s) == live for s in streams[1:]):
        return live
    out = []
    n = len(streams[0])
    for t in range(n):
        flags = {present(s[t]) for s in streams}
        if len(flags) > 1:
            raise EvalError("clocked-value-mismatch",
                            "stream tuple components disagree on presence", t)
        out.append(flags.pop())
    return out


def eval_clock(history: History, bs: BStream, ck: Clock) -> BStream:
    """Boolean stream denoted by a clock expression under a history, over the
    ticks where the base clock and every clock variable have a value, one
    whole column per level, the outermost first. A clock variable off the
    clock it is sampled on raises `clocked-value-mismatch` at the earliest
    such tick, naming the outer variable where several are off at once."""
    names = clock_vars(ck)
    for x in names:
        if x not in history:
            raise EvalError("unbound-var", f"clock variable {x} has no stream")
    n = min([len(bs)] + [len(history[x]) for x in names])
    levels = []
    while isinstance(ck, ClockOn):
        levels.insert(0, ck)
        ck = ck.base
    live, fault = bs[:n], None
    for level in levels:
        x, xs = level.var, history[level.var][:n]
        end = n if fault is None else fault.tick  # an outer fault wins at its tick
        t = end if _present(xs) == live else \
            next((t for t in range(end) if (xs[t] is not ABSENT) != bool(live[t])), end)
        if t < end:
            state = "absent while its clock is live" if live[t] else "present while its clock is idle"
            fault = EvalError("clocked-value-mismatch", f"clock variable {x} {state}", t, x)
        live = [v == level.value for v in xs]  # where the outer clock is idle, v is ABSENT
    if fault is not None:
        raise fault
    return live


def check_inputs(node: Node, ins: list[VStream], bs: BStream) -> None:
    """Refuse, before the first tick, a run whose inputs (`ins`, in
    declaration order, each as long as `bs`) lie outside the node's
    interface: a cell of `bs` that is not a bool, or an input absent where
    its declared clock (`eval_clock`) is live, present where it is idle, or
    of another type than declared (`type(v) is int`: a bool is no int). The
    earliest faulty tick raises, at one tick the base clock first, then the
    inputs in declaration order; an input on a sub-clock is judged only
    before the first fault of its clock's variables. The README gives the
    lines."""
    stop = len(bs) if list(map(type, bs)) == [bool] * len(bs) else \
        next(t for t, b in enumerate(bs) if type(b) is not bool)
    faults = [] if stop == len(bs) else [(stop, -1, EvalError(
        "type-mismatch", f"the base clock holds {show_value(bs[stop])}, not a bool", stop, BASE))]
    history = {d.name: vs for d, vs in zip(node.inputs, ins)}
    first: dict[str, int] = {}  # each judged input's first faulty tick, else where judging ended
    # a clock variable of an input has fewer clock variables than the input: it is judged first
    for i, d in sorted(enumerate(node.inputs), key=lambda pair: len(clock_vars(pair[1].clock))):
        end = min([stop] + [first.get(v, stop) for v in clock_vars(d.clock)])
        live, col = eval_clock(history, bs[:end], d.clock), history[d.name][:end]
        ty = type(d.ty.default)  # int or bool
        want = [ty] * end if live.count(True) == end else [ty if b else _Absent for b in live]
        t = first[d.name] = end if list(map(type, col)) == want else \
            next((t for t, (v, w) in enumerate(zip(col, want)) if type(v) is not w), end)
        if t < end and (col[t] is ABSENT) == live[t]:
            where = "its clock" if isinstance(d.clock, ClockOn) else "the base clock"
            faults.append((t, i, EvalError("clocked-value-mismatch", f"input {d.name} off {where}",
                                           t, d.name)))
        elif t < end:
            faults.append((t, i, EvalError("type-mismatch", f"input {d.name} is declared {d.ty} "
                                           f"but holds {show_value(col[t])}", t, d.name)))
    if faults:
        raise min(faults, key=lambda f: f[:2])[2]


# ---------------------------------------------------------------------------
# Compiled tick-wise evaluation: the tree interpreter, reference and fallback
# of the generated code of `codegen`
# ---------------------------------------------------------------------------

# An expression of a node instance compiled to a closure `fn(t, vals, bs_t)`:
# its values at tick t, one per component, from the values the tick has
# computed so far and the base clock's value at t.
Tick = Callable[[int, dict, bool], list]
# A clock compiled to a closure `live(t, vals, bs_t)`: whether it is live at
# tick t, read the same way.
Live = Callable[[int, dict, bool], bool]


def _base_live(t, vals, bs_t):
    return bs_t


def _clock(ck: Clock) -> Live:
    """The closure of a clock: a clock variable must be present exactly
    where the clock it is sampled on is live."""
    if isinstance(ck, ClockBase):
        return _base_live
    if not isinstance(ck, ClockOn):
        raise TypeError(f"unsupported clock {ck!r}")
    outer, x, k = _clock(ck.base), ck.var, ck.value

    def live(t, vals, bs_t):
        b = outer(t, vals, bs_t)
        v = vals[x]
        if (v is ABSENT) == (not b):
            return v == k  # where b is idle, v is ABSENT and equals neither value
        state = "absent while its clock is live" if b else "present while its clock is idle"
        raise EvalError("clocked-value-mismatch", f"clock variable {x} {state}", t, x)
    return live


def _const(value, ck: Clock) -> Tick:
    live = _clock(ck)
    return lambda t, vals, bs_t: [value if live(t, vals, bs_t) else ABSENT]


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
    the tick, reads the delayed operand, which must be present where the
    output is, that is where the head is."""

    def __init__(self, init: Tick, rest: Tick, width: int, target: str | None = None):
        self.init = init
        self.rest = rest
        self.width = width
        self.target = target  # the defined variable of an equation-level delay
        self.started = [False] * width
        self.saved: list = [None] * width
        self._tick = -1
        self._out: list = []

    def eval(self, t, vals, bs_t):
        if self._tick != t:
            heads = self.init(t, vals, bs_t)
            self._out = [ABSENT if h is ABSENT else (s if started else h)
                         for h, s, started in zip(heads, self.saved, self.started)]
            self._tick = t
        return self._out

    def update(self, t, vals, bs_t):
        out = self.eval(t, vals, bs_t)
        tails = self.rest(t, vals, bs_t)
        if len(tails) != self.width:
            raise EvalError("arity-mismatch", "fby arguments have different widths", t)
        for i, (v, o) in enumerate(zip(tails, out)):
            if (v is ABSENT) != (o is ABSENT):
                x = self.target
                raise EvalError("clocked-value-mismatch", "fby operands disagree on presence"
                                if x is None else f"delayed operand of {x} off its clock", t, x)
            if v is not ABSENT:
                self.saved[i] = v
                self.started[i] = True

    def reset(self):
        self.started = [False] * self.width
        self.saved = [None] * self.width
        self._tick = -1


class _Call:
    """Call state: a sub-instance stepped at most once per tick, on the
    presence of its arguments, or for a call without arguments on its
    activation clock."""

    def __init__(self, instance: "NodeInstance", args: Tick, clock: Clock):
        self.instance = instance
        self.args = args
        self.live = _clock(clock)
        self._tick = -1
        self._out: list = []

    def eval(self, t, vals, bs_t):
        if self._tick != t:
            argv = self.args(t, vals, bs_t)
            flags = {v is not ABSENT for v in argv}
            if len(flags) > 1:
                raise EvalError("clocked-value-mismatch",
                                f"arguments of {self.instance.node.name} disagree on presence", t)
            live = flags.pop() if flags else self.live(t, vals, bs_t)
            self._out = self.instance.step(argv, live)
            self._tick = t
        return self._out

    def reset(self):
        self.instance.reset()
        self._tick = -1


def _target_off_clock(x: str, v, live, t: int) -> EvalError:
    return EvalError("clocked-value-mismatch",
                     f"{x} is {'present' if v is not ABSENT else 'absent'} "
                     f"while its clock is {'live' if live else 'idle'}", t, x)


def _equation(fn: Tick, targets: tuple[str, ...], ck: Clock | None):
    """The closure `eq(t, vals, bs_t)` of an equation: it evaluates `fn`,
    checks each target against the equation's clock `ck` (None for no check)
    and stores it in `vals`."""
    if ck is None:
        def unchecked(t, vals, bs_t):
            vals.update(zip(targets, fn(t, vals, bs_t)))
        return unchecked
    live = _clock(ck)

    def checked(t, vals, bs_t):
        outs = fn(t, vals, bs_t)
        b = live(t, vals, bs_t)
        for x, v in zip(targets, outs):
            if (v is not ABSENT) != b:
                raise _target_off_clock(x, v, b, t)
            vals[x] = v
    return checked


class NodeInstance:
    """One activation of a node: its equations compiled to closures in
    causal order, plus all delay and call state. Each tick runs the
    equations, then updates the delays; `vals` holds the values of the last
    tick. `reset` returns it to the state it was built in, so one instance
    can run many prefixes."""

    def __init__(self, prog: Program, node: Node):
        self.prog = prog
        self.node = node
        self.inputs = [d.name for d in node.inputs]
        self.outputs = [d.name for d in node.outputs]
        self.updaters: list[_Delay] = []
        self.calls: list[_Call] = []
        self.t = -1
        self.vals: dict = {}
        clocks = {d.name: d.clock for d in node.declarations}
        self.equations = [self._compile_equation(node.equations[i], clocks)
                          for i in check_causality(node)]

    # -- compilation --------------------------------------------------------
    def _compile_equation(self, eq: Equation, clocks):
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
                fn, width = self._call(inst, argv, ck), len(inst.outputs)
                if width != len(targets):
                    raise EvalError("arity-mismatch",
                                    f"{len(targets)} target(s) but {width} output(s)")
            case _:
                raise TypeError(f"unsupported equation {eq!r}")
        return _equation(fn, eq_targets(eq), eq.clock)

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
                return self._call(inst, argv, ambient), len(inst.outputs)
        raise TypeError(f"unsupported expression {e!r}")

    def _call(self, inst: "NodeInstance", args: Tick, ck: Clock) -> Tick:
        call = _Call(inst, args, ck)
        self.calls.append(call)
        return call.eval

    # -- execution -----------------------------------------------------------
    def _advance(self, t: int, vals: dict, bs_t: bool):
        """The tick body: `vals` holds the tick's inputs, and gets every
        other value of the tick."""
        for eq in self.equations:
            eq(t, vals, bs_t)
        for upd in self.updaters:
            upd.update(t, vals, bs_t)
        self.vals = vals

    def step(self, inputs: list, bs_t: bool) -> list:
        """Advance one tick given per-input values; returns output values."""
        self.t += 1
        if len(inputs) != len(self.inputs):
            raise EvalError("arity-mismatch",
                            f"{self.node.name} expects {len(self.inputs)} input(s)")
        vals = dict(zip(self.inputs, inputs))
        self._advance(self.t, vals, bs_t)
        return [vals[x] for x in self.outputs]

    def reset(self):
        """Forget every tick run so far: the instance is as built, down to
        the delays and calls of its sub-instances, also after a run that
        raised partway through a tick."""
        self.t = -1
        self.vals = {}
        for upd in self.updaters:
            upd.reset()
        for call in self.calls:
            call.reset()

    def run(self, inputs: History, n_ticks: int, bs: BStream) -> History:
        """`interpret_node` on this instance, from its current state: a check
        of the inputs against the node's interface (`check_inputs`), then the
        tick body of `step` over the first `n_ticks` ticks."""
        declared = self.inputs
        check_inputs(self.node, [inputs[x][:n_ticks] for x in declared], bs[:n_ticks])
        advance = self._advance
        ticks = []
        for i in range(n_ticks):
            vals = {x: inputs[x][i] for x in declared}
            bs_t = bs[i]
            self.t += 1
            advance(self.t, vals, bs_t)
            ticks.append(vals)
        history: History = {x: list(inputs[x][:n_ticks]) for x in declared}
        for d in self.node.outputs + self.node.locals:
            history[d.name] = [vals[d.name] for vals in ticks]
        return history


# ---------------------------------------------------------------------------
# Whole-prefix entry points
# ---------------------------------------------------------------------------

def run_node(prog: Program, name: str, inputs: History, n_ticks: int,
             bs: BStream | None = None) -> tuple[History, BStream]:
    """Run a node for a finite prefix, returning the full history of its
    variables (inputs, outputs and locals) along with the base clock used.

    The base clock defaults to the pointwise presence of the inputs (inputs
    declared on sub-clocks count where present); a node without inputs runs
    on an always-live clock.

    The node runs as the compiled code of its elaborated program
    (`run_compiled`) once `check_inputs` has accepted the inputs. A program
    that does not compile raises the error that refused it, before that.
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
    ins = [inputs[x][:n_ticks] for x in declared]  # a copy: the compiled loop owns it
    if bs is None:
        bs = default_base_clock(ins, n_ticks)
    elif len(bs) < n_ticks:
        raise EvalError("arity-mismatch", f"base clock is shorter than {n_ticks} ticks")
    else:
        bs = bs[:n_ticks]
    _runner(prog, name)  # a refused build raises here, before the inputs are checked
    check_inputs(node, ins, bs)
    hist = run_compiled(prog, name, ins, bs)
    rest = [d.name for d in node.outputs + node.locals]
    return dict(zip(declared + rest, ins + hist)), bs


def _runner(prog: Program, name: str) -> Callable:
    from . import codegen  # imported on first use: codegen builds on this module
    return codegen.runner(prog, name)


def run_compiled(prog: Program, name: str, ins: list[VStream], bs: BStream) -> list[VStream]:
    """The streams of the outputs and locals of node `name`, in declaration
    order, from its compiled code (`codegen.runner`) run on the input streams
    `ins` (in declaration order, as long as `bs`, as `check_inputs` accepts
    them) and the base clock `bs`. An `EvalError` of the run gets its tick:
    the length the history lists had reached."""
    run = _runner(prog, name)
    node = prog.node(name)
    hist = [[] for _ in range(len(node.outputs) + len(node.locals))]
    try:
        run(ins, bs, hist)
    except EvalError as exc:
        raise EvalError(exc.kind, exc.message, len(hist[0]) if hist else None, exc.var) from None
    return hist


def default_base_clock(inputs: list[VStream], n_ticks: int) -> BStream:
    """The pointwise presence of the inputs, each at least `n_ticks` long,
    over the first `n_ticks` ticks; a node without inputs, or with an input
    present throughout, runs at every tick."""
    if not inputs or any(ABSENT not in vs for vs in inputs):
        return [True] * n_ticks
    bs = [False] * n_ticks
    for vs in inputs:
        bs = [b or v is not ABSENT for b, v in zip(bs, vs)]
    return bs


def interpret_node(prog: Program, node: Node, inputs: History, n_ticks: int,
                   bs: BStream) -> History:
    """`run_node` on the tree interpreter: the reference semantics, on a
    fresh `NodeInstance`."""
    return NodeInstance(prog, node).run(inputs, n_ticks, bs)


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
    those cells to the slower tries; unpadded words go before padded ones."""
    try:
        vs = list(map(int, col))
    except ValueError:
        pass
    else:
        return vs if not vs or (min(vs) >= -(1 << 63) and max(vs) < 1 << 63) else None
    try:
        return list(map(_WORDS.__getitem__, col))
    except KeyError:
        pass
    try:
        return [_WORDS[c.strip()] for c in col]
    except KeyError:
        pass
    try:
        return [_parse_cell(c, "") for c in col]
    except EvalError:
        return None


def _plain_columns(path) -> tuple[list[str], list[list[str]]] | None:
    """The stripped header of a plain trace and the cells of each column below
    it, split by `str` methods; None when the file is not plain: not UTF-8,
    holding a `"`, CR or NUL (which `csv` reads its own way), with an empty or
    repeated header, a cell over `csv.field_size_limit()` or a ragged row."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if text.endswith("\n"):
        text = text[:-1]  # it ends the last row
    if '"' in text or "\r" in text or "\0" in text or not text or text[0] == "\n":
        return None
    rows, long_cells = text.count("\n"), len(text) > csv.field_size_limit()
    text = text.replace("\n", ",\n,")  # a "\n" cell between rows
    cells = text.split(",")
    del text
    n = cells.index("\n") if rows else len(cells)
    header = [h.strip() for h in cells[:n]]
    if len(cells) != n + rows * (n + 1) or cells[n::n + 1].count("\n") != rows \
            or len(set(header)) < n \
            or long_cells and max(map(len, cells)) > csv.field_size_limit():
        return None
    return header, [cells[j::n + 1] for j in range(n + 1, 2 * n + 1)]


def read_trace(path) -> tuple[History, BStream | None]:
    """Read a UTF-8 CSV trace: a header of variable names (plus an optional
    `base` column) and one row per tick; `_` marks absence. Cells are
    stripped and blank rows skipped.

    A plain file (`_plain_columns`) is decoded a column at a time. Any other
    file, and one with a column `_decode_column` refuses or a `base` column
    not all true/false, goes to the reference `_trace_by_rows`."""
    plain = _plain_columns(path)
    if plain is None:
        return _trace_by_rows(_csv_rows(path))
    header, cols = plain
    streams: History = {}
    for name in header:
        vs = _decode_column(cols.pop(0))  # each column's cells go once decoded
        if vs is None or name == BASE and not all(isinstance(v, bool) for v in vs):
            return _trace_by_rows(_csv_rows(path))
        streams[name] = vs
    return streams, streams.pop(BASE, None)
