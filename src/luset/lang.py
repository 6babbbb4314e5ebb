"""Abstract syntax for the Lustre subset and its normalised core form.

All values are immutable after construction and safe to share; a `Program`
also carries a memo of results derived from it, which is not part of its
value. The module also provides the classic front-end analyses: free/defined
variables, elaboration and the instantaneous-dependency (causality) check.
Elaboration is one pass over each equation: typing and clocking it also
records what it reads and calls, and the structural well-formedness
diagnostics and the call graph are built from those records, so
`well_formed` and `node_order` read what elaboration found. Who reads whom
inside a node is one table (`_read_table`): per equation, its targets, what
it reads at the current tick and what it reads at all. `causal_order`, the
one causality entry point, schedules the first column; `input_dependences`
closes over the second.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Union

from .diagnostics import CausalityError, Diagnostic, ElaborationError

BASE = "base"  # distinguished clock name; never a program variable


class Ty(enum.Enum):
    INT = "int"
    BOOL = "bool"

    def __str__(self) -> str:
        return self.value

    @property
    def default(self):
        return 0 if self is Ty.INT else False


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: Union[int, bool]

    @property
    def ty(self) -> Ty:
        return Ty.BOOL if isinstance(self.value, bool) else Ty.INT


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unop:
    op: str  # "-" | "not"
    arg: "Expr"


@dataclass(frozen=True)
class Binop:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class When:
    args: tuple["Expr", ...]
    var: str
    value: bool  # sample where var == value


@dataclass(frozen=True)
class Merge:
    var: str
    on_true: tuple["Expr", ...]
    on_false: tuple["Expr", ...]


@dataclass(frozen=True)
class Ite:
    cond: "Expr"
    on_true: tuple["Expr", ...]
    on_false: tuple["Expr", ...]


@dataclass(frozen=True)
class Fby:
    init: tuple["Expr", ...]
    rest: tuple["Expr", ...]


@dataclass(frozen=True)
class Call:
    node: str
    args: tuple["Expr", ...]


Expr = Union[Const, Var, Unop, Binop, When, Merge, Ite, Fby, Call]

ARITH_OPS = {"+", "-", "*", "div", "mod"}
CMP_OPS = {"<", "<=", ">", ">="}
EQ_OPS = {"=", "<>"}
BOOL_OPS = {"and", "or"}


# ---------------------------------------------------------------------------
# Clocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClockBase:
    def __str__(self) -> str:
        return BASE


@dataclass(frozen=True)
class ClockOn:
    base: "Clock"
    var: str
    value: bool

    def __str__(self) -> str:
        k = "" if self.value else "not "
        return f"{self.base} on {k}{self.var}"


Clock = Union[ClockBase, ClockOn]
BASE_CLOCK = ClockBase()


# ---------------------------------------------------------------------------
# Equations, nodes, programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Def:
    """Full-language equation  x1, ..., xn = e1, ..., ek."""

    targets: tuple[str, ...]
    clock: Clock | None  # filled by elaborate()
    exprs: tuple[Expr, ...]


@dataclass(frozen=True)
class NDef:
    """Normalised equation  x =ck ce  (ce a control expression)."""

    target: str
    clock: Clock
    expr: Expr


@dataclass(frozen=True)
class NFby:
    """Normalised delay  x =ck c fby e  with a constant head."""

    target: str
    clock: Clock
    init: Const
    expr: Expr


@dataclass(frozen=True)
class NCall:
    """Normalised node call  x1, ..., xn =ck f(e1, ..., em)."""

    targets: tuple[str, ...]
    clock: Clock
    node: str
    args: tuple[Expr, ...]


Equation = Union[Def, NDef, NFby, NCall]


@dataclass(frozen=True)
class VarDecl:
    name: str
    ty: Ty
    clock: Clock


@dataclass(frozen=True)
class Node:
    name: str
    inputs: tuple[VarDecl, ...]
    outputs: tuple[VarDecl, ...]
    locals: tuple[VarDecl, ...]
    equations: tuple[Equation, ...]

    @property
    def declarations(self) -> tuple[VarDecl, ...]:
        return self.inputs + self.outputs + self.locals

    def decl(self, name: str) -> VarDecl:
        for d in self.declarations:
            if d.name == name:
                return d
        raise KeyError(name)

    @property
    def var_names(self) -> set[str]:
        return {d.name for d in self.declarations}


@dataclass(frozen=True)
class Program:
    nodes: tuple[Node, ...]
    # Results derived from this program object, each computed at most once
    # in its lifetime (see `derived`), and the flag `elaborate` sets on its output.
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def node(self, name: str) -> Node:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    def has_node(self, name: str) -> bool:
        return any(n.name == name for n in self.nodes)

    @property
    def node_names(self) -> list[str]:
        return [n.name for n in self.nodes]


# ---------------------------------------------------------------------------
# Free and defined variables
# ---------------------------------------------------------------------------

def _subexprs(e: Expr) -> tuple[Expr, ...]:
    """Immediate sub-expressions of an expression, left to right.

    The one place that knows the shape of every expression form. The
    structural questions asked of an expression (what it reads, what it
    calls, what it reads at the current tick, whether it has the core
    shape) are answered by walks that keep their pending sub-expressions
    on a list, `_walk` and `_shape_errors`, so no nesting depth exhausts
    the stack.
    """
    match e:
        case Const() | Var():
            return ()
        case Unop(_, a):
            return (a,)
        case Binop(_, a, b):
            return (a, b)
        case When(args, _, _) | Call(_, args):
            return args
        case Merge(_, ts, fs):
            return ts + fs
        case Ite(c, ts, fs):
            return (c,) + ts + fs
        case Fby(e0s, es):
            return e0s + es
    raise TypeError(f"_subexprs: unsupported {e!r}")


def _walk(exprs: Iterable[Expr], delayed: list | None = None) -> tuple[set[str], dict[str, None]]:
    """The variables some expressions read and the nodes they call, in the
    order a left-to-right walk meets them. Given a `delayed` list, only what
    is read at the current tick: a fby's second argument is appended to the
    list instead of walked, but its first is consumed every tick."""
    reads: set[str] = set()
    calls: dict[str, None] = {}
    todo = list(exprs)
    todo.reverse()
    while todo:
        e = todo.pop()
        cls = type(e)
        if cls is Var:
            reads.add(e.name)
            continue
        if cls is Call:
            calls[e.node] = None
        elif cls is When or cls is Merge:
            reads.add(e.var)
        elif cls is Fby and delayed is not None:
            todo.extend(reversed(e.init))
            delayed.extend(e.rest)
            continue
        todo.extend(reversed(_subexprs(e)))
    return reads, calls


def free_vars(item) -> set[str]:
    """Free variables of an expression, clock or equation.

    Clocks contribute `base` for the base clock; equations subtract their
    defined variables. Normalised equations include their clock's variables,
    plain equations do not.
    """
    match item:
        case ClockBase() | ClockOn():
            return clock_vars(item) | {BASE}
        case Def(targets, _, exprs):
            return _walk(exprs)[0] - set(targets)
        case NDef() | NFby() | NCall():
            return (_reads_and_calls(item)[0] | {BASE}) - set(eq_targets(item))
    return _walk((item,))[0]


def eq_targets(eq: Equation) -> tuple[str, ...]:
    match eq:
        case Def(targets, _, _) | NCall(targets, _, _, _):
            return targets
        case NDef(x, _, _) | NFby(x, _, _, _):
            return (x,)
    raise TypeError(f"eq_targets: unsupported {eq!r}")


# ---------------------------------------------------------------------------
# Structural well-formedness and the call graph
# ---------------------------------------------------------------------------

def well_formed(prog: Program) -> list[Diagnostic]:
    """Check program invariants that need no clock or type information.

    Returns an empty list iff: node names are unique, every output/local has
    exactly one defining equation, equations only define outputs/locals,
    equations have no free variables outside the interface, all called nodes
    exist and the call graph is a DAG. Read off the elaboration pass, which
    raises these diagnostics alone when there are any.
    """
    return _structure(prog)[0]


def node_order(prog: Program) -> list[str]:
    """Topological order of the call graph, callees first. The graph is the
    one the elaboration pass builds, kept on an elaborated program."""
    order = _schedule(_structure(prog)[1])
    if len(order) < len(prog.nodes):
        raise ElaborationError([Diagnostic("recursive-call", "node call cycle")])
    return order


def _structure(prog: Program) -> tuple[list[Diagnostic], dict[str, set[str]]]:
    """`well_formed`'s diagnostics, and the call graph: each node's name
    mapped to the program nodes it calls. The elaboration pass finds both,
    and keeps the graph on its output or on the error it raises."""
    try:
        return [], elaborate(prog).memo[_CALL_GRAPH]
    except (_Refused, _TooDeep) as err:
        return err.structural, err.calls


def _rhs(eq: Equation) -> tuple[Expr, ...]:
    """An equation's right-hand side as full-language expressions: a
    normalised delay as a fby, a normalised call as a call."""
    match eq:
        case Def(_, _, exprs):
            return exprs
        case NDef(_, _, e):
            return (e,)
        case NFby(_, _, c, e):
            return (Fby((c,), (e,)),)
        case NCall(_, _, f, args):
            return (Call(f, args),)
    raise TypeError(f"_rhs: unsupported {eq!r}")


def _reads_and_calls(eq: Equation) -> tuple[set[str], dict[str, None]]:
    """The variables an equation reads, a normalised equation's clock
    included, and the nodes it calls in the order they are met, an NCall's
    callee first. Less the equation's targets and `base`, the reads are
    `free_vars(eq)` less `base`."""
    reads, calls = _walk(_rhs(eq))
    if type(eq) is not Def:
        reads |= clock_vars(eq.clock)
    return reads, calls


def _schedule(deps: dict) -> list:
    """Topological order of a dependency graph, dependencies first.

    Repeated passes over the keys in their dict order, each appending every
    key whose dependencies are all scheduled, until a pass adds nothing. The
    order is therefore deterministic, and callers rely on it: it fixes the
    fresh-variable numbering of signatures and the execution order of
    equations. Keys on or behind a cycle (a key depending on itself
    included) are left out, so a short result means the graph is cyclic.
    """
    order: list = []
    done: set = set()
    progress = True
    while progress and len(order) < len(deps):
        progress = False
        for k, ds in deps.items():
            if k not in done and ds <= done:
                order.append(k)
                done.add(k)
                progress = True
    return order


def _find_cycle(graph: dict[str, set[str]], roots: Iterable[str]) -> list[str] | None:
    """First cycle met by a depth-first search of `graph`.

    The search starts from each root in turn and follows successors in
    sorted order. The cycle is returned as the path from its first node,
    without repeating that node at the end; None means no cycle is
    reachable from the roots.
    """
    done: set[str] = set()
    for root in roots:
        if root in done:
            continue
        path = [root]
        on_path = {root}
        pending = [iter(sorted(graph.get(root, ())))]
        while pending:
            for y in pending[-1]:
                if y in on_path:
                    return path[path.index(y):]
                if y not in done:
                    path.append(y)
                    on_path.add(y)
                    pending.append(iter(sorted(graph.get(y, ()))))
                    break
            else:
                pending.pop()
                x = path.pop()
                on_path.discard(x)
                done.add(x)
    return None


# ---------------------------------------------------------------------------
# Elaboration: well-formedness, data types, clocks, stream widths
# ---------------------------------------------------------------------------

_POLY = None  # clock of a constant-only subtree: adapts to its context


class _NodeEnv:
    """What elaborating one node's equations needs: the program's nodes by
    name (the first of a name), the node's declarations, the typing
    diagnostics found so far, and of the equation at hand its index `i`, the
    undeclared variables it reads (`stray`) and the nodes it calls in the
    order they are met (`calls`)."""

    def __init__(self, callees: dict[str, Node], node: Node, diags: list[Diagnostic]):
        self.callees = callees
        self.node = node
        self.decls = {d.name: d for d in node.declarations}
        self.diags = diags
        self.i: int | None = None
        self.stray: set[str] = set()
        self.calls: dict[str, None] = {}

    def bad(self, kind: str, msg: str):
        self.diags.append(Diagnostic(kind, msg, node=self.node.name, eq_index=self.i))

    def skip(self, es):
        """Record what some expressions read and call without typing them."""
        reads, calls = _walk(es)
        self.stray |= reads.difference(self.decls)
        self.calls.update(calls)

    def unify(self, a, b):
        if a is _POLY:
            return b
        if b is _POLY:
            return a
        if a != b:
            self.bad("clock-mismatch", f"expected clock '{a}', found '{b}'")
        return a

    def all_slots(self, es) -> list[tuple[Ty, Clock | None]]:
        """The slots of some expressions, one after another (see `_SLOTS`)."""
        out = []
        for sub in es:
            out.extend(_SLOTS[type(sub)](self, sub))
        return out

    def one(self, slots) -> tuple[Ty, Clock | None]:
        if len(slots) != 1:
            self.bad("arity-mismatch", "tuple used where a single stream is required")
            return slots[0] if slots else (Ty.INT, _POLY)
        return slots[0]

    def _const(self, e: Const):
        return [(e.ty, _POLY)]

    def _var(self, e: Var):
        d = self.decls.get(e.name)
        if d is None:
            self.stray.add(e.name)
            self.bad("free-variable", f"undeclared variable {e.name}")
            return [(Ty.INT, _POLY)]
        return [(d.ty, d.clock)]

    def _unop(self, e: Unop):
        a = e.arg
        ty, ck = self.one(_SLOTS[type(a)](self, a))
        want = Ty.BOOL if e.op == "not" else Ty.INT
        if e.op not in ("-", "not"):
            self.bad("type-mismatch", f"unknown operator {e.op}")
        elif ty is not want:
            self.bad("type-mismatch", f"operator {e.op} applied to {ty}")
        return [(want, ck)]

    def _binop(self, e: Binop):
        op, a, b = e.op, e.left, e.right
        lt, lc = self.one(_SLOTS[type(a)](self, a))
        rt, rc = self.one(_SLOTS[type(b)](self, b))
        ck = self.unify(lc, rc)
        if op in ARITH_OPS:
            if lt is not Ty.INT or rt is not Ty.INT:
                self.bad("type-mismatch", f"operator {op} needs int operands")
            return [(Ty.INT, ck)]
        if op in CMP_OPS:
            if lt is not Ty.INT or rt is not Ty.INT:
                self.bad("type-mismatch", f"operator {op} needs int operands")
            return [(Ty.BOOL, ck)]
        if op in EQ_OPS:
            if lt is not rt:
                self.bad("type-mismatch", f"operator {op} compares unlike types")
            return [(Ty.BOOL, ck)]
        if op in BOOL_OPS:
            if lt is not Ty.BOOL or rt is not Ty.BOOL:
                self.bad("type-mismatch", f"operator {op} needs bool operands")
            return [(Ty.BOOL, ck)]
        self.bad("type-mismatch", f"unknown operator {op}")
        return [(Ty.INT, ck)]

    def _when(self, e: When):
        slots = self.all_slots(e.args)
        x = e.var
        d = self.decls.get(x)
        if d is None:
            self.stray.add(x)
            self.bad("free-variable", f"undeclared variable {x}")
            return slots
        if d.ty is not Ty.BOOL:
            self.bad("type-mismatch", f"sampling variable {x} must be bool")
        ck_x = d.clock
        on = ClockOn(ck_x, x, e.value)
        out = []
        for ty, ck in slots:
            self.unify(ck, ck_x)
            out.append((ty, on))
        return out

    def _merge(self, e: Merge):
        x = e.var
        d = self.decls.get(x)
        if d is None:
            self.stray.add(x)
            self.bad("free-variable", f"undeclared variable {x}")
            slots = self.all_slots(e.on_true)
            self.skip(e.on_false)
            return slots
        if d.ty is not Ty.BOOL:
            self.bad("type-mismatch", f"merge variable {x} must be bool")
        ck_x = d.clock
        tslots = self.all_slots(e.on_true)
        fslots = self.all_slots(e.on_false)
        if len(tslots) != len(fslots):
            self.bad("arity-mismatch", "merge branches have different widths")
        on_true, on_false = ClockOn(ck_x, x, True), ClockOn(ck_x, x, False)
        out = []
        for (tt, tc), (ft, fc) in zip(tslots, fslots):
            if tt is not ft:
                self.bad("type-mismatch", "merge branches have unlike types")
            self.unify(tc, on_true)
            self.unify(fc, on_false)
            out.append((tt, ck_x))
        return out

    def _ite(self, e: Ite):
        c = e.cond
        ct, cc = self.one(_SLOTS[type(c)](self, c))
        if ct is not Ty.BOOL:
            self.bad("type-mismatch", "if condition must be bool")
        tslots = self.all_slots(e.on_true)
        fslots = self.all_slots(e.on_false)
        if len(tslots) != len(fslots):
            self.bad("arity-mismatch", "if branches have different widths")
        unify = self.unify
        out = []
        for (tt, tc), (ft, fc) in zip(tslots, fslots):
            if tt is not ft:
                self.bad("type-mismatch", "if branches have unlike types")
            out.append((tt, unify(unify(tc, fc), cc)))
        return out

    def _fby(self, e: Fby):
        islots = self.all_slots(e.init)
        rslots = self.all_slots(e.rest)
        if len(islots) != len(rslots):
            self.bad("arity-mismatch", "fby arguments have different widths")
        out = []
        for (it, ic), (rt, rc) in zip(islots, rslots):
            if it is not rt:
                self.bad("type-mismatch", "fby arguments have unlike types")
            out.append((it, self.unify(ic, rc)))
        return out

    def _call(self, e: Call):
        f = e.node
        self.calls[f] = None
        callee = self.callees.get(f)
        if callee is None:
            self.bad("unknown-node", f"call to undefined node {f}")
            self.skip(e.args)
            return [(Ty.INT, _POLY)]
        if any(not isinstance(d.clock, ClockBase) for d in callee.inputs + callee.outputs):
            self.bad("clock-mismatch", f"node {f} has a clocked interface and cannot be called")
        slots = self.all_slots(e.args)
        if len(slots) != len(callee.inputs):
            self.bad("arity-mismatch",
                     f"{f} expects {len(callee.inputs)} argument stream(s), got {len(slots)}")
            return [(d.ty, _POLY) for d in callee.outputs]
        ck: Clock | None = _POLY
        for (ty, c), decl in zip(slots, callee.inputs):
            if ty is not decl.ty:
                self.bad("type-mismatch", f"argument {decl.name} of {f} expects {decl.ty}")
            ck = self.unify(ck, c)
        return [(d.ty, ck) for d in callee.outputs]


# Per-component (type, clock) of an expression, clock None when polymorphic:
# `_SLOTS[type(e)](env, e)`. Each method passes a sub-expression to its own
# entry directly, so one level of nesting costs one stack frame.
_SLOTS = {Const: _NodeEnv._const, Var: _NodeEnv._var, Unop: _NodeEnv._unop,
          Binop: _NodeEnv._binop, When: _NodeEnv._when, Merge: _NodeEnv._merge,
          Ite: _NodeEnv._ite, Fby: _NodeEnv._fby, Call: _NodeEnv._call}


class _Refused(ElaborationError):
    """An elaboration error, with what the pass found of the program's
    structure: `well_formed`'s diagnostics and the call graph."""

    def __init__(self, diagnostics: list[Diagnostic], structural: list[Diagnostic], calls: dict):
        super().__init__(diagnostics)
        self.structural = structural
        self.calls = calls


class _TooDeep(RecursionError):
    """An expression nested past the stack in a structurally sound program,
    with the program's call graph."""

    def __init__(self, calls: dict):
        super().__init__("expression nested too deeply")
        self.structural: list[Diagnostic] = []
        self.calls = calls


def derived(prog: Program, fn, *args):
    """`fn(prog, *args)`, computed once per program object and kept in
    `prog.memo` under `(fn, *args)`. An exception is not kept, so a failing
    call fails again the next time."""
    key = (fn, *args)
    if key not in prog.memo:
        prog.memo[key] = fn(prog, *args)
    return prog.memo[key]


_CALL_GRAPH = "call graph"  # memo key set on an output of elaborate only: its call graph


def elaborate(prog: Program) -> Program:
    """Annotate every equation with its clock, checking types and widths.

    Declared clocks are the source of truth; expression clocks are computed
    bottom-up with constants adapting to their context. Raises
    ElaborationError on any inconsistency, with the structural faults of
    `well_formed` alone when there are any. The result is computed once per
    program object, and elaborating a result returns it unchanged.
    """
    if _CALL_GRAPH in prog.memo:
        return prog
    return derived(prog, _elaborate)


def _elaborate(prog: Program) -> Program:
    """One pass over the program. Typing each equation also records what it
    reads and calls, and the structural diagnostics are built from those.
    An equation nested too deeply for the typing is walked without it."""
    structural: list[Diagnostic] = []
    callees: dict[str, Node] = {}
    definitions = Counter(node.name for node in prog.nodes)
    for node in prog.nodes:
        if node.name not in callees:
            callees[node.name] = node
        elif n := definitions.pop(node.name, 0):  # one diagnostic a name, at its second definition
            times = "twice" if n == 2 else f"{n} times"
            structural.append(Diagnostic("duplicate-node", f"node {node.name} defined {times}",
                                         node=node.name))
    deps: dict[str, set[str]] = {n.name: set() for n in prog.nodes}
    diags: list[Diagnostic] = []
    too_deep = False
    new_nodes = []
    for node in prog.nodes:
        env = _NodeEnv(callees, node, diags)
        decls = env.decls
        if len(decls) < len(node.declarations):
            counts = Counter(d.name for d in node.declarations)
            name = next(d.name for d in node.declarations if counts[d.name] > 1)
            structural.append(Diagnostic("duplicate-declaration", f"variable {name} declared twice",
                                         node=node.name))
        input_names = {d.name for d in node.inputs}
        # an input declared again may not be defined at all: input-defined says so
        must_define = {d.name for d in node.outputs + node.locals}.difference(input_names)
        for d in node.declarations:
            _check_decl_clock(env, d, input_names)
        calls = deps[node.name]
        defined: dict[str, int] = {}
        new_eqs = []
        for i, eq in enumerate(node.equations):
            env.i = i
            targets = eq_targets(eq)
            known = True
            for x in targets:
                if x in defined:
                    structural.append(Diagnostic("duplicate-definition", f"{x} defined more than once",
                                                 node=node.name, eq_index=i))
                defined[x] = i
                if x in input_names:
                    structural.append(Diagnostic("input-defined", f"input {x} must not be defined",
                                                 node=node.name, eq_index=i))
                elif x not in must_define:
                    structural.append(Diagnostic("undeclared-definition", f"{x} is not an output or local",
                                                 node=node.name, eq_index=i))
                    known = False
            env.stray, env.calls = set(), {}
            try:
                new_eqs.append(_elaborate_equation(env, eq, targets, known))
            except RecursionError:
                too_deep = True
                reads, env.calls = _reads_and_calls(eq)
                env.stray = reads.difference(decls)
            if env.stray:
                stray = env.stray.difference(targets, (BASE,))
                if stray:
                    structural.append(Diagnostic("free-variable",
                                                 f"undeclared variable(s) {', '.join(sorted(stray))}",
                                                 node=node.name, eq_index=i))
            for f in env.calls:
                if f in callees:
                    calls.add(f)
                else:
                    structural.append(Diagnostic("unknown-node", f"call to undefined node {f}",
                                                 node=node.name, eq_index=i))
        missing = must_define.difference(defined)
        if missing:
            structural.append(Diagnostic("missing-definition",
                                         f"no equation defines {', '.join(sorted(missing))}", node=node.name))
        if any(type(eq) is Def for eq in node.equations):
            node = replace(node, equations=tuple(new_eqs))
        new_nodes.append(node)

    cycle = _find_cycle(deps, deps)
    if cycle:
        structural.append(Diagnostic("recursive-call", f"node call cycle: {' -> '.join(cycle + cycle[:1])}"))
    if structural:
        raise _Refused(structural, structural, deps)
    if too_deep:
        raise _TooDeep(deps)
    if diags:
        raise _Refused(diags, [], deps)
    out = Program(tuple(new_nodes))
    out.memo[_CALL_GRAPH] = deps  # elaboration keeps the nodes and their calls
    return out


def _elaborate_equation(env: _NodeEnv, eq: Equation, targets: tuple[str, ...], known: bool) -> Equation:
    """Type and clock one equation, a Def getting its clock. With `known`
    false, some target is undeclared, and only the right-hand side is typed."""
    if type(eq) is Def:
        ck, what = _POLY, "stream(s)"  # a Def's clock is its targets'
    else:
        ck, what = eq.clock, "output(s)" if type(eq) is NCall else None
        env.stray |= clock_vars(ck).difference(env.decls)
    slots = env.all_slots(_rhs(eq))
    if len(slots) != len(targets):
        env.bad("arity-mismatch",
                f"{len(targets)} target(s) but {len(slots)} {what}" if what
                else "tuple in a singleton equation")
        return eq
    if not known:
        return eq
    decls = env.decls
    for t in targets:
        ck = env.unify(ck, decls[t].clock)
    for t, (ty, c) in zip(targets, slots):
        want = decls[t].ty
        if ty is not want:
            env.bad("type-mismatch", f"{t} is {want} but defined as {ty}")
        env.unify(ck, c)
    if type(eq) is Def:
        return Def(eq.targets, ck if ck is not _POLY else BASE_CLOCK, eq.exprs)
    return eq


def _check_decl_clock(env: _NodeEnv, decl: VarDecl, input_names: set[str]):
    """Diagnostics of one declared clock; `env.i` is still None, so they name no equation."""
    ck = decl.clock
    is_input = decl.name in input_names
    while isinstance(ck, ClockOn):
        if ck.var not in env.decls:
            env.bad("free-variable", f"clock variable {ck.var} of {decl.name} is not declared")
            return
        if is_input and ck.var not in input_names:
            env.bad("clock-mismatch", f"input {decl.name} is clocked on non-input {ck.var}")
        d = env.decls[ck.var]
        if d.ty is not Ty.BOOL:
            env.bad("type-mismatch", f"clock variable {ck.var} must be bool")
        if d.clock != ck.base:
            env.bad("clock-mismatch", f"clock of {decl.name} samples {ck.var} off its own clock")
        ck = ck.base


# ---------------------------------------------------------------------------
# Who reads whom: the read table, input dependences and causality
# ---------------------------------------------------------------------------

def clock_vars(ck: Clock | None) -> set[str]:
    """Variables sampled anywhere on a clock's chain (none for the base clock)."""
    out: set[str] = set()
    while isinstance(ck, ClockOn):
        out.add(ck.var)
        ck = ck.base
    return out


def _read_table(node: Node) -> list[tuple[tuple[str, ...], set[str], set[str]]]:
    """Who reads whom in a node: for each equation, in order, its targets,
    the variables it reads at the current tick and the variables it reads
    at all, both with its clock's variables. A fby delays its second
    argument, so what only that reads is read at all but not now. The
    precision is the equation's: every target reads all of it."""
    table = []
    for eq in node.equations:
        delayed: list[Expr] = []
        now = _walk(_rhs(eq), delayed)[0] | clock_vars(eq.clock)
        table.append((eq_targets(eq), now, now | _walk(delayed)[0]))
    return table


def input_dependences(node: Node, names: Iterable[str]) -> set[str]:
    """The inputs of an elaborated node that the named variables can read.

    A variable reads what its declared clock samples, and what its
    equation reads at all (`_read_table`), each transitively. Every target
    of an equation reads all of it, so a call's outputs read all of its
    arguments. Two runs on inputs that agree on these give the named
    variables the same streams, since a run is deterministic.
    """
    inputs = {d.name for d in node.inputs}
    reads = {d.name: clock_vars(d.clock) for d in node.declarations}
    seen = set(names)
    if not seen <= inputs:  # an input's clock samples only inputs: it reads no equation
        for targets, _, ever in _read_table(node):
            for x in targets:
                reads[x] |= ever
    todo = list(seen)
    while todo:
        new = reads.get(todo.pop(), set()) - seen
        seen |= new
        todo.extend(new)
    return seen & inputs


def causal_order(prog: Program, name: str) -> tuple[int, ...]:
    """The equations of node `name` as indices in an order where each reads
    at the current tick only what earlier ones define (`_read_table`), once
    per program object. Raises CausalityError with a cycle when there is no
    such order."""
    return derived(prog, _causal_order, name)


def _causal_order(prog: Program, name: str) -> tuple[int, ...]:
    table = _read_table(prog.node(name))
    owner = {x: i for i, (targets, _, _) in enumerate(table) for x in targets}
    # owner == i marks a self-cycle
    deps = {i: {owner[y] for y in now if y in owner} for i, (_, now, _) in enumerate(table)}
    order = _schedule(deps)
    if len(order) < len(deps):
        done = set(order)
        remaining = {x for x, i in owner.items() if i not in done}
        # every unscheduled equation waits on another, so the variables they own hold a cycle
        cycle = _find_cycle({x: table[owner[x]][1] & remaining for x in remaining}, sorted(remaining))
        raise CausalityError(name, cycle)
    return tuple(order)


# ---------------------------------------------------------------------------
# Normalised-form validation
# ---------------------------------------------------------------------------

_NOT_SIMPLE = {Merge: "nested control expression", Ite: "nested control expression",
               Fby: "fby inside an expression", Call: "node call inside an expression"}


def _shape_errors(exprs: Iterable[Expr]) -> list[str]:
    """Why some expressions are not simple expressions of the core form, in
    the order a left-to-right walk meets the faults. A control expression,
    fby or call is one fault, and the walk does not enter it."""
    out: list[str] = []
    todo = list(exprs)
    todo.reverse()
    while todo:
        e = todo.pop()
        cls = type(e)
        if cls in _NOT_SIMPLE:
            out.append(_NOT_SIMPLE[cls])
            continue
        if cls is When and len(e.args) != 1:
            out.append("when over a tuple")
        todo.extend(reversed(_subexprs(e)))
    return out


def nlustre_violations(prog: Program) -> list[Diagnostic]:
    """Check the restrictions of the normalised core form.

    Equations must be NDef/NFby/NCall; `when` has a singleton argument;
    fby and node calls never occur inside expressions; control expressions
    (merge/if) appear only at the top of an NDef with simple branches.
    """
    diags: list[Diagnostic] = []
    for node in prog.nodes:
        for i, eq in enumerate(node.equations):
            match eq:
                case NDef(_, _, Merge(_, ts, fs) | Ite(_, ts, fs) as e):
                    msgs = _shape_errors(_subexprs(e))
                    if len(ts) != 1 or len(fs) != 1:
                        msgs.append(f"{'merge' if type(e) is Merge else 'if'} over a tuple")
                case NDef(_, _, e) | NFby(_, _, _, e):
                    msgs = _shape_errors((e,))
                case NCall(_, _, _, args):
                    msgs = _shape_errors(args)
                case _:
                    msgs = ["unnormalised equation"]
            diags += [Diagnostic("nlustre-shape", m, node=node.name, eq_index=i) for m in msgs]
    return diags
