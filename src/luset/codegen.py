"""Compilation of core-form nodes to Python step closures.

`streams.run_node` runs a node through this module. The program is
normalised, and every node reachable from the top node becomes a generated
function that makes an instance: registers and sub-instances are its local
names, and the `step` closure it returns runs the node's equations in
causal order. The top node's equations are inlined, in the same shape, in
a tick loop that fills by tick index the columns `streams.run_compiled`
allocates. This is clock-directed modular code generation (Biernacki,
Colaço, Hamon & Pouzet, LCTES 2008), and it rests on what the core form
guarantees:

- a value is present exactly when its clock is live, so values carry no
  presence flag. Each operator runs under an `if` on its own clock, which is
  where the stream semantics computes it: a division by zero in the untaken
  branch of an `if`, or under an idle `when`, still raises;
- a clock `ck on x` (`ck on not x`) is live exactly when x holds true
  (false), because x is absent whenever ck is idle, so each clock test
  reads one variable;
- a delay `x = c fby e` is a register reset to c, read by the equation and
  overwritten with e at the end of the tick;
- a call is a sub-instance stepped only when the call's clock is live. On
  an idle tick every input of the callee is absent, every clock inside it
  is idle and its registers keep their values, so skipping the step is
  exact.

What the core form takes for granted of the top node's inputs,
`streams.check_inputs` checks once, before the first tick: each input is
present exactly when its declared clock is live and holds a value of its
declared type, and the base clock holds booleans. When a run is given no
base clock, `check_inputs` also builds the default one, the pointwise
presence of the inputs, and returns it for the code to run on. The code
checks none of it again. Each operator is its inline text in
`lang.OPERATORS`, wrapped to 64 bits where the table says so. The code
raises only where it calls `binop` (the text of `div` and `mod`, the
operators with no total function), and `may_raise` tells whether a build
does; `streams.run_compiled` gives the error the tick it was raised at.

The code is flat, one temporary per operator, so that neither `compile`
nor the generator recurses more than once per level of expression nesting.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable

from .diagnostics import LusetError
from .lang import (OPERATORS, Binop, ByClass, Call, Clock, ClockBase, ClockOn, Const, Expr, Fby,
                   Ite, Merge, NCall, NDef, NFby, Operator, Program, Unop, Var, When,
                   causal_order, derived, elaborate)
from .normalize import normalize_program
from .streams import ABSENT, _apply_binop, _wrap64

_MIN, _MAX = -(1 << 63), (1 << 63) - 1


def runner(prog: Program, name: str) -> Callable:
    """The compiled tick loop of node `name`, generated from the normal form
    of the elaborated program. A program that does not elaborate, normalise
    or schedule raises the error that refused it.

    Built once per program object, refusal included; a caller's stack too
    deep for the build is not a refusal, and nothing is kept. `run(ins, bs,
    cols)` takes the input streams in declaration order, the base clock, and
    one column per output and local of the node, in declaration order, each
    as long as `bs`; at the end of tick t it stores each variable's value at
    index t. `streams.run_compiled` is its one caller in the package.
    """
    build = derived(prog, _build, name)
    if isinstance(build, BaseException):
        raise build
    return build[0]


def may_raise(prog: Program, name: str) -> bool:
    """Whether a run of `runner(prog, name)` on inputs that pass
    `streams.check_inputs` may raise: the code of node `name` or of a callee
    calls `binop`, or the program does not compile. Read off the same build
    as `runner`."""
    build = derived(prog, _build, name)
    return isinstance(build, BaseException) or build[1]


def _build(prog: Program, name: str) -> tuple[Callable, bool] | BaseException:
    node = prog.node(name)
    try:
        eprog = elaborate(prog)
        nprog, _ = normalize_program(eprog)
        reach = [name]
        for f in reach:
            causal_order(eprog, f)  # a tuple equation may hide a cycle normalisation splits
            for eq in nprog.node(f).equations:
                if isinstance(eq, NCall) and eq.node not in reach:
                    reach.append(eq.node)
        source, partial = _module(nprog, reach, [d.name for d in node.outputs + node.locals])
    except LusetError as exc:
        return exc
    namespace = {"ABSENT": ABSENT, "wrap64": _wrap64, "binop": _apply_binop}
    exec(compile(source, f"<step code of {name}>", "exec"), namespace)
    return namespace["run"], partial


def _module(nprog: Program, reach: list[str], recorded: list[str]) -> tuple[str, bool]:
    """Source of `run` for the top node reach[0] and of an instance maker
    for each callee in the rest of `reach`; and whether any calls `binop`."""
    maker = {f: f"N{i}" for i, f in enumerate(reach)}
    lines: list[str] = []
    partial = False
    for f in reach[1:]:
        code = _NodeCode(nprog, f, maker)
        lines += code.maker_lines(maker[f])
        partial |= code.partial
    code = _NodeCode(nprog, reach[0], maker)
    lines += code.run_lines(recorded)
    return "\n".join(lines) + "\n", partial or code.partial


def _indent(lines: list[str], depth: int = 1) -> list[str]:
    return ["    " * depth + line for line in lines]


class _NodeCode:
    """Statements of one live tick of node `name` of a normalised program,
    in the causal order `lang.causal_order` keeps for that program, with the
    registers and sub-instances they use.

    Each statement is kept with the test of the clock it runs on (None for
    the base clock) and, for an equation, the statement that makes its
    targets absent when that clock is idle. Registers and sub-instances are
    plain names, local to the instance maker or to the tick loop. `partial`
    tells whether a statement calls `binop`, the only operator that may
    raise.
    """

    def __init__(self, nprog: Program, name: str, maker: dict[str, str]):
        self.node = node = nprog.node(name)
        self.var = {d.name: f"x{i}" for i, d in enumerate(node.declarations)}
        self.clock = {d.name: d.clock for d in node.declarations}
        self.registers: list[str] = []  # initial values, as literals
        self.instances: list[str] = []  # maker of each sub-instance
        self.items: list[tuple[str | None, str, str | None]] = []
        self.temps = 0
        self.partial = False
        delays = []
        for i in causal_order(nprog, name):
            eq = node.equations[i]
            cls = type(eq)
            if cls is not NDef and cls is not NFby and cls is not NCall:
                raise LusetError(f"cannot compile equation {eq!r}")
            ck = eq.clock
            if cls is NDef:
                x, e = eq.target, eq.expr
                top = type(e)
                if (top is Merge or top is Ite) and len(e.on_true) == 1 == len(e.on_false):
                    (a,), (b,) = e.on_true, e.on_false
                    if top is Merge:
                        c = e.var
                        on_true = self._expr(a, ClockOn(self.clock[c], c, True))
                        on_false = self._expr(b, ClockOn(self.clock[c], c, False))
                        self._assign(ck, [x], f"{on_true} if {self.var[c]} else {on_false}")
                    else:
                        cond, on_true, on_false = (self._expr(s, ck) for s in (e.cond, a, b))
                        self._assign(ck, [x], f"{on_true} if {cond} else {on_false}")
                else:
                    self._assign(ck, [x], self._expr(e, ck))
            elif cls is NFby:
                reg = f"r{len(self.registers)}"
                self.registers.append(self._const(eq.init.value))
                self._assign(ck, [eq.target], reg)
                delays.append((reg, ck, eq.expr))
            else:
                argv = ", ".join(self._expr(a, ck) for a in eq.args)
                inst = f"s{len(self.instances)}"
                self.instances.append(maker[eq.node])
                self._assign(ck, eq.targets, f"{inst}({argv})")
        for reg, ck, e in delays:
            value = self._expr(e, ck)
            self.items.append((self._flag(ck), f"{reg} = {value}", None))

    # -- statements ---------------------------------------------------------
    def _flag(self, ck: Clock) -> str | None:
        if isinstance(ck, ClockBase):
            return None
        return f"{self.var[ck.var]} is {bool(ck.value)}"

    def _assign(self, ck: Clock, targets, value: str):
        names = [self.var[x] for x in targets]
        flag = self._flag(ck)
        line = f"{', '.join(names)} = {value}" if names else value
        idle = " = ".join(names + ["ABSENT"]) if names and flag else None
        self.items.append((flag, line, idle))

    def _temp(self, ck: Clock, value: str, wrap: bool = False) -> str:
        self.temps += 1
        t = f"t{self.temps}"
        flag = self._flag(ck)
        self.items.append((flag, f"{t} = {value}", None))
        if wrap:
            self.items.append((flag, f"if not {_MIN} <= {t} <= {_MAX}: {t} = wrap64({t})", None))
        return t

    def _apply(self, ck: Clock, o: Operator, *args: str) -> str:
        self.partial |= o.fn is None
        return self._temp(ck, o.python.format(*args), wrap=o.wraps)

    @staticmethod
    def _const(v) -> str:
        if type(v) is bool:
            return repr(v)
        if type(v) is int:
            return repr(v) if v >= 0 else f"({v})"
        raise LusetError(f"cannot compile constant {v!r}")

    def _expr(self, e: Expr, ck: Clock) -> str:
        """Emit the operators of a simple expression on clock ck; return the
        Python expression (a name or a literal) holding its value."""
        return _CODE[type(e)](self, e, ck)

    def _unop(self, e: Unop, ck: Clock) -> str:
        a = e.arg
        return self._apply(ck, OPERATORS[e.op, 1], _CODE[type(a)](self, a, ck))

    def _binop(self, e: Binop, ck: Clock) -> str:
        a, b = e.left, e.right
        left = _CODE[type(a)](self, a, ck)
        return self._apply(ck, OPERATORS[e.op, 2], left, _CODE[type(b)](self, b, ck))

    def _when(self, e: When, ck: Clock) -> str:
        if len(e.args) != 1:
            return self._not_simple(e, ck)
        a = e.args[0]
        return _CODE[type(a)](self, a, self.clock[e.var])

    def _not_simple(self, e: Expr, ck: Clock):
        raise LusetError(f"cannot compile expression {e!r}")

    def _body(self) -> list[str]:
        lines: list[str] = []
        for flag, group in groupby(self.items, key=lambda item: item[0]):
            group = list(group)
            if flag is None:
                lines += [line for _, line, _ in group]
                continue
            lines.append(f"if {flag}:")
            lines += _indent([line for _, line, _ in group])
            idle = [line for _, _, line in group if line]
            if idle:
                lines.append("else:")
                lines += _indent(idle)
        return lines

    # -- rendering ----------------------------------------------------------
    def _setup(self) -> list[str]:
        return ([f"r{i} = {v}" for i, v in enumerate(self.registers)] +
                [f"s{i} = {f}()" for i, f in enumerate(self.instances)])

    def maker_lines(self, fn: str) -> list[str]:
        params = ", ".join(self.var[d.name] for d in self.node.inputs)
        outs = ", ".join(self.var[d.name] for d in self.node.outputs) or "None"
        regs = ", ".join(f"r{i}" for i in range(len(self.registers)))
        step = ([f"nonlocal {regs}"] if regs else []) + self._body() + [f"return {outs}"]
        return ([f"def {fn}():"] +
                _indent(self._setup() + [f"def step({params}):"] + _indent(step) + ["return step"]) +
                [""])

    def run_lines(self, recorded: list[str]) -> list[str]:
        ins = [self.var[d.name] for d in self.node.inputs]
        outs = [self.var[x] for x in recorded]
        idle = " = ".join(outs + ["ABSENT"]) if outs else "pass"
        loop = f"for {', '.join(['t', 'b'] + ins)} in zip(range(len(bs)), bs, *ins):"
        unpack = f"[{', '.join(f'h{j}' for j in range(len(outs)))}] = cols"
        return (["def run(ins, bs, cols):"] + _indent([unpack] + self._setup() + [loop]) +
                _indent(["if b:"] + _indent(self._body() or ["pass"]) + ["else:", f"    {idle}"] +
                        [f"h{j}[t] = {x}" for j, x in enumerate(outs)], 2))


# The code of a simple expression: `_CODE[type(e)](code, e, ck)`.
_CODE = ByClass({
    Const: lambda code, e, ck: code._const(e.value), Var: lambda code, e, ck: code.var[e.name],
    Unop: _NodeCode._unop, Binop: _NodeCode._binop, When: _NodeCode._when,
    Merge: _NodeCode._not_simple, Ite: _NodeCode._not_simple, Fby: _NodeCode._not_simple,
    Call: _NodeCode._not_simple}, _NodeCode._not_simple)
