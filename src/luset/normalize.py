"""Source-to-core normalisation: de-nesting and distribution of operators
over stream tuples, followed by explicit constant initialisation of delays.

The pass is purely syntactic: it rewrites equations and declares the fresh
locals it introduces, and tracks no security types. That it preserves
signatures is decided by re-inferring them on its output (see
`harness.check_type_preservation`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

from .lang import (ARITH_OPS, Binop, Call, Clock, ClockOn, Const, Def, Equation,
                   Expr, Fby, Ite, Merge, NCall, NDef, NFby, Node, Program, Ty, Unop, Var,
                   VarDecl, When, derived, elaborate)


@dataclass
class _Slot:
    expr: Expr
    ty: Ty


@dataclass
class _FbyEq:
    """Pass-one delay equation; the head may still be a non-constant."""

    target: str
    clock: Clock
    head: _Slot
    body: _Slot


class ProgVars:
    """Fresh program variables in the reserved v<n> namespace; never collides
    with identifiers already used by the source program."""

    def __init__(self, used: set[str]):
        self.used = set(used)
        self.counter = 0

    def next(self) -> str:
        while True:
            self.counter += 1
            name = f"v{self.counter}"
            if name not in self.used:
                self.used.add(name)
                return name


class _Ctx:
    def __init__(self, prog: Program, node: Node, pvars: ProgVars):
        self.prog = prog
        self.pvars = pvars
        self.decls: dict[str, VarDecl] = {d.name: d for d in node.declarations}
        self.equations: list = []  # Equation | _FbyEq, in definition order
        self.new_locals: list[VarDecl] = []

    def fresh_local(self, ty: Ty, clock: Clock) -> str:
        decl = VarDecl(self.pvars.next(), ty, clock)
        self.new_locals.append(decl)
        self.decls[decl.name] = decl
        return decl.name


def _norm_list(ctx: _Ctx, exprs, ambient: Clock) -> list[_Slot]:
    out: list[_Slot] = []
    for e in exprs:
        out.extend(_norm(ctx, e, ambient))
    return out


def _norm(ctx: _Ctx, e: Expr, ambient: Clock,
          name: Callable[[Ty, Clock], str] | None = None) -> list[_Slot]:
    """Rewrite e to simple expressions (one per component stream), emitting
    equations for delays, calls and control expressions. `name(ty, clock)`
    gives the target of each equation emitted for e itself: a fresh local by
    default, the source equation's own target at its top (`_norm_equation`).
    Nested expressions always get fresh locals."""
    name = name or ctx.fresh_local
    match e:
        case Const():
            return [_Slot(e, e.ty)]
        case Var(x):
            return [_Slot(e, ctx.decls[x].ty)]
        case Unop(op, a):
            [s] = _norm(ctx, a, ambient)
            return [_Slot(Unop(op, s.expr), Ty.BOOL if op == "not" else Ty.INT)]
        case Binop(op, a, b):
            [l] = _norm(ctx, a, ambient)
            [r] = _norm(ctx, b, ambient)
            return [_Slot(Binop(op, l.expr, r.expr), Ty.INT if op in ARITH_OPS else Ty.BOOL)]
        case When(args, x, k):
            inner = _norm_list(ctx, args, ctx.decls[x].clock)
            return [_Slot(When((s.expr,), x, k), s.ty) for s in inner]
        case Merge(x, ts, fs):
            ck = ctx.decls[x].clock
            tslots = _norm_list(ctx, ts, ClockOn(ck, x, True))
            fslots = _norm_list(ctx, fs, ClockOn(ck, x, False))
            out = []
            for a, b in zip(tslots, fslots):
                target = name(a.ty, ck)
                ctx.equations.append(NDef(target, ck, Merge(x, (a.expr,), (b.expr,))))
                out.append(_Slot(Var(target), a.ty))
            return out
        case Ite(c, ts, fs):
            [cond] = _norm(ctx, c, ambient)
            tslots = _norm_list(ctx, ts, ambient)
            fslots = _norm_list(ctx, fs, ambient)
            out = []
            for a, b in zip(tslots, fslots):
                target = name(a.ty, ambient)
                ctx.equations.append(NDef(target, ambient, Ite(cond.expr, (a.expr,), (b.expr,))))
                out.append(_Slot(Var(target), a.ty))
            return out
        case Fby(e0s, es):
            heads = _norm_list(ctx, e0s, ambient)
            bodies = _norm_list(ctx, es, ambient)
            out = []
            for h, b in zip(heads, bodies):
                target = name(h.ty, ambient)
                ctx.equations.append(_FbyEq(target, ambient, h, b))
                out.append(_Slot(Var(target), h.ty))
            return out
        case Call(f, args):
            arg_slots = _norm_list(ctx, args, ambient)
            out = [_Slot(Var(name(d.ty, ambient)), d.ty) for d in ctx.prog.node(f).outputs]
            ctx.equations.append(NCall(tuple(s.expr.name for s in out), ambient, f,
                                       tuple(s.expr for s in arg_slots)))
            return out
    raise TypeError(f"_norm: unsupported {e!r}")


def _all_idents(prog: Program) -> set[str]:
    used: set[str] = set()
    for node in prog.nodes:
        used.add(node.name)
        used |= node.var_names
    return used


def init_fby(fby_eq: _FbyEq, ctx: _Ctx) -> list[Equation]:
    """Make a delay's initial value explicit.

    A constant head already fits the core form. Otherwise three equations
    are produced: a first-tick flag, a delayed copy of the body seeded with
    the data type's default, and a conditional gluing them together.
    """
    if isinstance(fby_eq.head.expr, Const):
        return [NFby(fby_eq.target, fby_eq.clock, fby_eq.head.expr, fby_eq.body.expr)]
    ty = fby_eq.head.ty
    flag = ctx.fresh_local(Ty.BOOL, fby_eq.clock)
    prev = ctx.fresh_local(ty, fby_eq.clock)
    return [
        NFby(flag, fby_eq.clock, Const(True), Const(False)),
        NFby(prev, fby_eq.clock, Const(ty.default), fby_eq.body.expr),
        NDef(fby_eq.target, fby_eq.clock,
             Ite(Var(flag), (fby_eq.head.expr,), (Var(prev),))),
    ]


def _finish_fby(ctx: _Ctx) -> list[Equation]:
    out: list[Equation] = []
    for eq in ctx.equations:
        if isinstance(eq, _FbyEq):
            out.extend(init_fby(eq, ctx))
        else:
            out.append(eq)
    return out


def _norm_equation(ctx: _Ctx, eq: Def):
    """Distribute a source equation into core equations. A delay, call,
    merge or conditional at the top defines the equation's own targets
    (a merge on x on x's clock, which elaboration has unified with the
    equation's); any other top is one simple expression per target."""
    ck = eq.clock
    targets = iter(eq.targets)
    for top in eq.exprs:
        if isinstance(top, (Fby, Call, Merge, Ite)):
            _norm(ctx, top, ck, lambda ty, clock: next(targets))
        else:
            for s in _norm(ctx, top, ck):
                ctx.equations.append(NDef(next(targets), ck, s.expr))


def normalize_program(prog: Program) -> tuple[Program, dict[str, tuple[VarDecl, ...]]]:
    """Normalise every node of a (well-formed) program.

    The output satisfies the core-form restrictions: singleton flows, no
    nested delays or calls, constant delay heads. Fresh program variables
    live in the v<n> namespace; emitted equations are in definition order
    (definitions before instantaneous uses). The second component maps each
    node name to the declarations of the locals normalisation introduced.
    Computed once per elaborated program object; callers must not change
    the result.
    """
    return derived(elaborate(prog), _normalize_program)


def _normalize_program(prog: Program) -> tuple[Program, dict[str, tuple[VarDecl, ...]]]:
    pvars = ProgVars(_all_idents(prog))
    new_nodes = []
    introduced: dict[str, tuple[VarDecl, ...]] = {}
    for node in prog.nodes:
        ctx = _Ctx(prog, node, pvars)
        for eq in node.equations:
            if isinstance(eq, Def):
                _norm_equation(ctx, eq)
            else:
                ctx.equations.append(eq)  # already in core form
        eqs = _finish_fby(ctx)
        introduced[node.name] = tuple(ctx.new_locals)
        new_nodes.append(replace(node, locals=node.locals + introduced[node.name],
                                 equations=tuple(eqs)))
    return elaborate(Program(tuple(new_nodes))), introduced
