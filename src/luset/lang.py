"""Abstract syntax for the Lustre subset and its normalised core form.

All values are immutable after construction and safe to share; a `Program`
also carries a memo of results derived from it, which is not part of its
value. The module also provides the classic front-end analyses: free/defined
variables, structural well-formedness, clock/data-type elaboration and the
instantaneous-dependency (causality) check.
"""

from __future__ import annotations

import enum
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

    The one place that knows the shape of every expression form; the
    structural walks below recurse through it with a plain loop, so each
    nesting level costs them a single stack frame.
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


def _union(fn, items: Iterable) -> set[str]:
    out: set[str] = set()
    for it in items:
        out |= fn(it)
    return out


def free_vars(item) -> set[str]:
    """Free variables of an expression, clock or equation.

    Clocks contribute `base` for the base clock; equations subtract their
    defined variables. Normalised equations include their clock's variables,
    plain equations do not.
    """
    match item:
        case Var(name):
            return {name}
        case When(_, x, _) | Merge(x, _, _):
            out = {x}
        case ClockBase():
            return {BASE}
        case ClockOn(ck, x, _):
            return free_vars(ck) | {x}
        case Def(targets, _, exprs):
            return _union(free_vars, exprs) - set(targets)
        case NDef(x, ck, e) | NFby(x, ck, _, e):
            return (free_vars(ck) | free_vars(e)) - {x}
        case NCall(xs, ck, _, args):
            return (free_vars(ck) | _union(free_vars, args)) - set(xs)
        case _:
            out = set()
    for sub in _subexprs(item):
        out |= free_vars(sub)
    return out


def defined_vars(eq: Equation) -> set[str]:
    return set(eq_targets(eq))


def eq_targets(eq: Equation) -> tuple[str, ...]:
    match eq:
        case Def(targets, _, _) | NCall(targets, _, _, _):
            return targets
        case NDef(x, _, _) | NFby(x, _, _, _):
            return (x,)
    raise TypeError(f"eq_targets: unsupported {eq!r}")


# ---------------------------------------------------------------------------
# Structural well-formedness
# ---------------------------------------------------------------------------

def well_formed(prog: Program) -> list[Diagnostic]:
    """Check program invariants that need no clock or type information.

    Returns an empty list iff: node names are unique, every output/local has
    exactly one defining equation, equations only define outputs/locals,
    equations have no free variables outside the interface, all called nodes
    exist and the call graph is a DAG.
    """
    diags: list[Diagnostic] = []
    seen: set[str] = set()
    for node in prog.nodes:
        if node.name in seen:
            diags.append(Diagnostic("duplicate-node", f"node {node.name} defined twice", node=node.name))
        seen.add(node.name)

    for node in prog.nodes:
        declared = node.var_names
        decl_names = [d.name for d in node.declarations]
        for name in decl_names:
            if decl_names.count(name) > 1:
                diags.append(Diagnostic("duplicate-declaration", f"variable {name} declared twice", node=node.name))
                break
        must_define = {d.name for d in node.outputs} | {d.name for d in node.locals}
        input_names = {d.name for d in node.inputs}
        defined: dict[str, int] = {}
        for i, eq in enumerate(node.equations):
            for x in eq_targets(eq):
                if x in defined:
                    diags.append(Diagnostic("duplicate-definition", f"{x} defined more than once",
                                            node=node.name, eq_index=i))
                defined[x] = i
                if x in input_names:
                    diags.append(Diagnostic("input-defined", f"input {x} must not be defined",
                                            node=node.name, eq_index=i))
                elif x not in must_define:
                    diags.append(Diagnostic("undeclared-definition", f"{x} is not an output or local",
                                            node=node.name, eq_index=i))
            stray = free_vars(eq) - declared - {BASE}
            if stray:
                diags.append(Diagnostic("free-variable", f"undeclared variable(s) {', '.join(sorted(stray))}",
                                        node=node.name, eq_index=i))
            for f in _called_nodes(eq):
                if not prog.has_node(f):
                    diags.append(Diagnostic("unknown-node", f"call to undefined node {f}",
                                            node=node.name, eq_index=i))
        missing = must_define - set(defined)
        if missing:
            diags.append(Diagnostic("missing-definition",
                                    f"no equation defines {', '.join(sorted(missing))}", node=node.name))

    deps = _call_deps(prog)
    cycle = _find_cycle(deps, deps)
    if cycle:
        diags.append(Diagnostic("recursive-call", f"node call cycle: {' -> '.join(cycle + cycle[:1])}"))
    return diags


def _called_nodes(item) -> set[str]:
    match item:
        case Def(_, _, exprs):
            return _union(_called_nodes, exprs)
        case NDef(_, _, e) | NFby(_, _, _, e):
            return _called_nodes(e)
        case NCall(_, _, f, args):
            return {f} | _union(_called_nodes, args)
        case Call(f, _):
            out = {f}
        case _:
            out = set()
    for sub in _subexprs(item):
        out |= _called_nodes(sub)
    return out


def _call_deps(prog: Program) -> dict[str, set[str]]:
    """Call graph: each node's name mapped to the program nodes it calls."""
    deps = {n.name: set() for n in prog.nodes}
    for n in prog.nodes:
        for eq in n.equations:
            deps[n.name] |= {f for f in _called_nodes(eq) if f in deps}
    return deps


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


def node_order(prog: Program) -> list[str]:
    """Topological order of the call graph, callees first."""
    order = _schedule(_call_deps(prog))
    if len(order) < len(prog.nodes):
        raise ElaborationError([Diagnostic("recursive-call", "node call cycle")])
    return order


# ---------------------------------------------------------------------------
# Elaboration: data types, clocks, stream widths
# ---------------------------------------------------------------------------

class _NodeEnv:
    def __init__(self, prog: Program, node: Node):
        self.prog = prog
        self.node = node
        self.decls = {d.name: d for d in node.declarations}

    def clock_of(self, name: str) -> Clock:
        return self.decls[name].clock

    def ty_of(self, name: str) -> Ty:
        return self.decls[name].ty


_POLY = None  # clock of a constant-only subtree: adapts to its context


def _unify_clocks(a, b, diags, node, i):
    if a is _POLY:
        return b
    if b is _POLY:
        return a
    if a != b:
        diags.append(Diagnostic("clock-mismatch", f"expected clock '{a}', found '{b}'",
                                node=node, eq_index=i))
    return a


def _expr_slots(env: _NodeEnv, e: Expr, diags, i) -> list[tuple[Ty, Clock | None]]:
    """Per-component (type, clock) of an expression; clock None when polymorphic."""
    name = env.node.name

    def bad(kind, msg):
        diags.append(Diagnostic(kind, msg, node=name, eq_index=i))

    def all_slots(es):
        out = []
        for sub in es:
            out.extend(_expr_slots(env, sub, diags, i))
        return out

    def one(slots) -> tuple[Ty, Clock | None]:
        if len(slots) != 1:
            bad("arity-mismatch", "tuple used where a single stream is required")
            return slots[0] if slots else (Ty.INT, _POLY)
        return slots[0]

    match e:
        case Const():
            return [(e.ty, _POLY)]
        case Var(x):
            if x not in env.decls:
                bad("free-variable", f"undeclared variable {x}")
                return [(Ty.INT, _POLY)]
            return [(env.ty_of(x), env.clock_of(x))]
        case Unop(op, a):
            ty, ck = one(_expr_slots(env, a, diags, i))
            want = Ty.BOOL if op == "not" else Ty.INT
            if ty is not want:
                bad("type-mismatch", f"operator {op} applied to {ty}")
            return [(want, ck)]
        case Binop(op, a, b):
            lt, lc = one(_expr_slots(env, a, diags, i))
            rt, rc = one(_expr_slots(env, b, diags, i))
            ck = _unify_clocks(lc, rc, diags, name, i)
            if op in ARITH_OPS:
                if lt is not Ty.INT or rt is not Ty.INT:
                    bad("type-mismatch", f"operator {op} needs int operands")
                return [(Ty.INT, ck)]
            if op in CMP_OPS:
                if lt is not Ty.INT or rt is not Ty.INT:
                    bad("type-mismatch", f"operator {op} needs int operands")
                return [(Ty.BOOL, ck)]
            if op in EQ_OPS:
                if lt is not rt:
                    bad("type-mismatch", f"operator {op} compares unlike types")
                return [(Ty.BOOL, ck)]
            if op in BOOL_OPS:
                if lt is not Ty.BOOL or rt is not Ty.BOOL:
                    bad("type-mismatch", f"operator {op} needs bool operands")
                return [(Ty.BOOL, ck)]
            bad("type-mismatch", f"unknown operator {op}")
            return [(Ty.INT, ck)]
        case When(args, x, k):
            slots = all_slots(args)
            if x not in env.decls:
                bad("free-variable", f"undeclared variable {x}")
                return slots
            if env.ty_of(x) is not Ty.BOOL:
                bad("type-mismatch", f"sampling variable {x} must be bool")
            ck_x = env.clock_of(x)
            out = []
            for ty, ck in slots:
                _unify_clocks(ck, ck_x, diags, name, i)
                out.append((ty, ClockOn(ck_x, x, k)))
            return out
        case Merge(x, ts, fs):
            if x not in env.decls:
                bad("free-variable", f"undeclared variable {x}")
                return all_slots(ts)
            if env.ty_of(x) is not Ty.BOOL:
                bad("type-mismatch", f"merge variable {x} must be bool")
            ck_x = env.clock_of(x)
            tslots = all_slots(ts)
            fslots = all_slots(fs)
            if len(tslots) != len(fslots):
                bad("arity-mismatch", "merge branches have different widths")
            out = []
            for (tt, tc), (ft, fc) in zip(tslots, fslots):
                if tt is not ft:
                    bad("type-mismatch", "merge branches have unlike types")
                _unify_clocks(tc, ClockOn(ck_x, x, True), diags, name, i)
                _unify_clocks(fc, ClockOn(ck_x, x, False), diags, name, i)
                out.append((tt, ck_x))
            return out
        case Ite(c, ts, fs):
            ct, cc = one(_expr_slots(env, c, diags, i))
            if ct is not Ty.BOOL:
                bad("type-mismatch", "if condition must be bool")
            tslots = all_slots(ts)
            fslots = all_slots(fs)
            if len(tslots) != len(fslots):
                bad("arity-mismatch", "if branches have different widths")
            out = []
            for (tt, tc), (ft, fc) in zip(tslots, fslots):
                if tt is not ft:
                    bad("type-mismatch", "if branches have unlike types")
                ck = _unify_clocks(_unify_clocks(tc, fc, diags, name, i), cc, diags, name, i)
                out.append((tt, ck))
            return out
        case Fby(e0s, es):
            islots = all_slots(e0s)
            rslots = all_slots(es)
            if len(islots) != len(rslots):
                bad("arity-mismatch", "fby arguments have different widths")
            out = []
            for (it, ic), (rt, rc) in zip(islots, rslots):
                if it is not rt:
                    bad("type-mismatch", "fby arguments have unlike types")
                out.append((it, _unify_clocks(ic, rc, diags, name, i)))
            return out
        case Call(f, args):
            if not env.prog.has_node(f):
                bad("unknown-node", f"call to undefined node {f}")
                return [(Ty.INT, _POLY)]
            callee = env.prog.node(f)
            if any(not isinstance(d.clock, ClockBase) for d in callee.inputs + callee.outputs):
                bad("clock-mismatch", f"node {f} has a clocked interface and cannot be called")
            slots = all_slots(args)
            if len(slots) != len(callee.inputs):
                bad("arity-mismatch",
                    f"{f} expects {len(callee.inputs)} argument stream(s), got {len(slots)}")
                return [(d.ty, _POLY) for d in callee.outputs]
            ck: Clock | None = _POLY
            for (ty, c), decl in zip(slots, callee.inputs):
                if ty is not decl.ty:
                    bad("type-mismatch", f"argument {decl.name} of {f} expects {decl.ty}")
                ck = _unify_clocks(ck, c, diags, name, i)
            return [(d.ty, ck) for d in callee.outputs]
    raise TypeError(f"_expr_slots: unsupported {e!r}")


def derived(prog: Program, fn, *args):
    """`fn(prog, *args)`, computed once per program object and kept in
    `prog.memo` under `(fn, *args)`. An exception is not kept, so a failing
    call fails again the next time."""
    key = (fn, *args)
    if key not in prog.memo:
        prog.memo[key] = fn(prog, *args)
    return prog.memo[key]


_ELABORATED = "elaborated"  # memo flag: this program is an output of elaborate


def elaborate(prog: Program) -> Program:
    """Annotate every equation with its clock, checking types and widths.

    Declared clocks are the source of truth; expression clocks are computed
    bottom-up with constants adapting to their context. Raises
    ElaborationError on any inconsistency. The result is computed once per
    program object, and elaborating a result returns it unchanged.
    """
    if _ELABORATED in prog.memo:
        return prog
    return derived(prog, _elaborate)


def _elaborate(prog: Program) -> Program:
    wf = well_formed(prog)
    if wf:
        raise ElaborationError(wf)
    diags: list[Diagnostic] = []
    new_nodes = []
    for node in prog.nodes:
        env = _NodeEnv(prog, node)
        for d in node.declarations:
            _check_decl_clock(env, d, diags)
        new_eqs = []
        for i, eq in enumerate(node.equations):
            targets = eq_targets(eq)
            match eq:
                case Def(_, _, exprs):
                    ck, what = _POLY, "stream(s)"  # a Def's clock is its targets'
                case NDef(_, ck, e):
                    exprs, what = (e,), None
                case NFby(_, ck, c, e):
                    exprs, what = (Fby((c,), (e,)),), None
                case NCall(_, ck, f, args):
                    exprs, what = (Call(f, args),), "output(s)"
            slots = []
            for ex in exprs:
                slots.extend(_expr_slots(env, ex, diags, i))
            if len(slots) != len(targets):
                diags.append(Diagnostic(
                    "arity-mismatch",
                    f"{len(targets)} target(s) but {len(slots)} {what}" if what
                    else "tuple in a singleton equation",
                    node=node.name, eq_index=i))
                new_eqs.append(eq)
                continue
            for t in targets:
                ck = _unify_clocks(ck, env.clock_of(t), diags, node.name, i)
            for t, (ty, c) in zip(targets, slots):
                if ty is not env.ty_of(t):
                    diags.append(Diagnostic("type-mismatch",
                                            f"{t} is {env.ty_of(t)} but defined as {ty}",
                                            node=node.name, eq_index=i))
                _unify_clocks(ck, c, diags, node.name, i)
            if isinstance(eq, Def):
                eq = replace(eq, clock=ck if ck is not _POLY else BASE_CLOCK)
            new_eqs.append(eq)
        new_nodes.append(replace(node, equations=tuple(new_eqs)))
    if diags:
        raise ElaborationError(diags)
    out = Program(tuple(new_nodes))
    out.memo[_ELABORATED] = True
    return out


def _check_decl_clock(env: _NodeEnv, decl: VarDecl, diags: list[Diagnostic]):
    ck = decl.clock
    input_names = {d.name for d in env.node.inputs}
    is_input = decl.name in input_names
    while isinstance(ck, ClockOn):
        if ck.var not in env.decls:
            diags.append(Diagnostic("free-variable",
                                    f"clock variable {ck.var} of {decl.name} is not declared",
                                    node=env.node.name))
            return
        if is_input and ck.var not in input_names:
            diags.append(Diagnostic("clock-mismatch",
                                    f"input {decl.name} is clocked on non-input {ck.var}",
                                    node=env.node.name))
        d = env.decls[ck.var]
        if d.ty is not Ty.BOOL:
            diags.append(Diagnostic("type-mismatch",
                                    f"clock variable {ck.var} must be bool", node=env.node.name))
        if d.clock != ck.base:
            diags.append(Diagnostic("clock-mismatch",
                                    f"clock of {decl.name} samples {ck.var} off its own clock",
                                    node=env.node.name))
        ck = ck.base


# ---------------------------------------------------------------------------
# Instantaneous dependencies and causality
# ---------------------------------------------------------------------------

def instantaneous_deps(expr: Expr) -> set[str]:
    """Variables read at the current tick. A fby delays its second argument
    but its first argument is consumed every tick."""
    match expr:
        case Var(x):
            return {x}
        case When(_, x, _) | Merge(x, _, _):
            out = {x}
        case _:
            out = set()
    for sub in expr.init if isinstance(expr, Fby) else _subexprs(expr):
        out |= instantaneous_deps(sub)
    return out


def clock_vars(ck: Clock | None) -> set[str]:
    """Variables sampled anywhere on a clock's chain (none for the base clock)."""
    out: set[str] = set()
    while isinstance(ck, ClockOn):
        out.add(ck.var)
        ck = ck.base
    return out


def eq_instantaneous_deps(eq: Equation) -> set[str]:
    match eq:
        case Def(_, ck, exprs) | NCall(_, ck, _, exprs):
            return _union(instantaneous_deps, exprs) | clock_vars(ck)
        case NDef(_, ck, e):
            return instantaneous_deps(e) | clock_vars(ck)
        case NFby(_, ck, _, _):
            return clock_vars(ck)  # the head is a constant, the body is delayed
    raise TypeError(f"eq_instantaneous_deps: unsupported {eq!r}")


@dataclass(frozen=True)
class Causality:
    """Result of the per-node scheduling analysis."""

    graph: dict[str, set[str]]  # reader variable -> variables it reads now
    order: tuple[int, ...] | None  # equation indices, schedulable order
    cycle: tuple[str, ...] | None

    @property
    def ok(self) -> bool:
        return self.cycle is None


def causality(node: Node) -> Causality:
    """Schedule equations so each reads only earlier or fby-delayed variables."""
    owner: dict[str, int] = {}
    for i, eq in enumerate(node.equations):
        for x in eq_targets(eq):
            owner[x] = i
    graph: dict[str, set[str]] = {}
    eq_deps: dict[int, set[int]] = {}
    for i, eq in enumerate(node.equations):
        reads = eq_instantaneous_deps(eq)
        for x in eq_targets(eq):
            graph[x] = set(reads)
        eq_deps[i] = {owner[y] for y in reads if y in owner}  # owner == i marks a self-cycle
    order = _schedule(eq_deps)
    if len(order) == len(eq_deps):
        return Causality(graph, tuple(order), None)
    done = set(order)
    remaining = {x for x, i in owner.items() if i not in done}
    # every unscheduled equation waits on another, so the variables they own hold a cycle
    cycle = _find_cycle({x: graph[x] & remaining for x in remaining}, sorted(remaining))
    return Causality(graph, None, tuple(cycle))


def check_causality(node: Node) -> tuple[int, ...]:
    res = causality(node)
    if not res.ok:
        raise CausalityError(node.name, list(res.cycle or ()))
    assert res.order is not None
    return res.order


# ---------------------------------------------------------------------------
# Normalised-form validation
# ---------------------------------------------------------------------------

def nlustre_violations(prog: Program) -> list[Diagnostic]:
    """Check the restrictions of the normalised core form.

    Equations must be NDef/NFby/NCall; `when` has a singleton argument;
    fby and node calls never occur inside expressions; control expressions
    (merge/if) appear only at the top of an NDef with simple branches.
    """
    diags: list[Diagnostic] = []

    def simple(e: Expr, node: str, i: int):
        match e:
            case Const() | Var():
                return
            case Unop(_, a):
                simple(a, node, i)
            case Binop(_, a, b):
                simple(a, node, i)
                simple(b, node, i)
            case When(args, _, _):
                if len(args) != 1:
                    diags.append(Diagnostic("nlustre-shape", "when over a tuple", node=node, eq_index=i))
                for a in args:
                    simple(a, node, i)
            case Merge() | Ite():
                diags.append(Diagnostic("nlustre-shape", "nested control expression", node=node, eq_index=i))
            case Fby():
                diags.append(Diagnostic("nlustre-shape", "fby inside an expression", node=node, eq_index=i))
            case Call():
                diags.append(Diagnostic("nlustre-shape", "node call inside an expression", node=node, eq_index=i))

    def control(e: Expr, node: str, i: int):
        match e:
            case Merge(_, ts, fs):
                for b in ts + fs:
                    simple(b, node, i)
                if len(ts) != 1 or len(fs) != 1:
                    diags.append(Diagnostic("nlustre-shape", "merge over a tuple", node=node, eq_index=i))
            case Ite(c, ts, fs):
                simple(c, node, i)
                for b in ts + fs:
                    simple(b, node, i)
                if len(ts) != 1 or len(fs) != 1:
                    diags.append(Diagnostic("nlustre-shape", "if over a tuple", node=node, eq_index=i))
            case _:
                simple(e, node, i)

    for node in prog.nodes:
        for i, eq in enumerate(node.equations):
            match eq:
                case NDef(_, _, e):
                    control(e, node.name, i)
                case NFby(_, _, _, e):
                    simple(e, node.name, i)
                case NCall(_, _, _, args):
                    for a in args:
                        simple(a, node.name, i)
                case Def():
                    diags.append(Diagnostic("nlustre-shape", "unnormalised equation", node=node.name, eq_index=i))
    return diags
