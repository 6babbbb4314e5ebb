"""The tree interpreter: the reference semantics that the compiled code of
`luset.codegen` and the predicate of `luset.semantics` are tested against.

`NodeInstance` compiles each expression of a node once into a Python
closure `fn(t, vals, bs_t)` that returns the expression's values at one tick
(Feeley & Lapalme, "Using closures for code generation", 1987), with delay
and call state in two small classes. Each equation becomes one closure that
evaluates it, checks each target against the equation's clock and stores
it in the tick's values; each clock becomes one closure `live(t, vals,
bs_t)` (`_clock`). `step` and `run` share one tick body, and `run` checks
its inputs as `run_node` does. `interpret_node` runs a node on a fresh
instance. `apply_op` gives an operator's value at one tick from its entry
in `lang.OPERATORS`.
"""

from __future__ import annotations

from typing import Callable

from luset.diagnostics import EvalError
from luset.lang import (BASE_CLOCK, OPERATORS, Binop, Call, Clock, ClockBase, ClockOn, Const,
                        Def, Equation, Expr, Fby, Ite, Merge, NCall, NDef, NFby, Node, Program,
                        Unop, Var, When, causal_order, eq_targets)
from luset.streams import ABSENT, BStream, History, _apply_binop, _wrap64, check_inputs


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


def apply_op(op: str, args: tuple, t: int):
    """The value at tick t of operator `op` applied to present operands: its
    total function in `lang.OPERATORS`, wrapped to 64 bits where the table
    says so, or `streams._apply_binop` for `div` and `mod`."""
    o = OPERATORS.get((op, len(args)))
    if o is None:
        unknown = "unknown unary operator" if len(args) == 1 else "unknown operator"
        raise EvalError("bad-operator", f"{unknown} {op}", t)
    if o.fn is None:
        return _apply_binop(op, *args, t)
    v = o.fn(*args)
    return _wrap64(v) if o.wraps else v


def _unop(op: str, arg: Tick) -> Tick:
    def fn(t, vals, bs_t):
        [v] = arg(t, vals, bs_t)
        return [ABSENT if v is ABSENT else apply_op(op, (v,), t)]
    return fn


def _binop(op: str, left: Tick, right: Tick) -> Tick:
    def fn(t, vals, bs_t):
        [a] = left(t, vals, bs_t)
        [b] = right(t, vals, bs_t)
        if (a is ABSENT) != (b is ABSENT):
            raise EvalError("clocked-value-mismatch", f"operands of {op} disagree on presence", t)
        return [ABSENT if a is ABSENT else apply_op(op, (a, b), t)]
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
                          for i in causal_order(self.prog, node.name)]

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


def interpret_node(prog: Program, node: Node, inputs: History, n_ticks: int,
                   bs: BStream) -> History:
    """`run_node` on the tree interpreter: the reference semantics, on a
    fresh `NodeInstance`."""
    return NodeInstance(prog, node).run(inputs, n_ticks, bs)
