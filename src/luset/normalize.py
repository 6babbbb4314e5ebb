"""Source-to-core normalisation: de-nesting and distribution of operators
over stream tuples, followed by explicit constant initialisation of delays.

The transformation is type-annotated: alongside the rewritten equations it
tracks the security type of every produced expression, the fresh type
variables given to introduced locals, and the ordering constraints the new
equations induce. Re-running signature inference on the output must yield
the same interface constraints as the source (see the preservation checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from .diagnostics import InferError
from .lang import (BASE, BASE_CLOCK, Binop, Call, Clock, ClockOn, Const, Def, Equation,
                   Expr, Fby, Ite, Merge, NCall, NDef, NFby, Node, Program, Ty, Unop,
                   Var, VarDecl, When, clock_vars, elaborate)
from .infer import FreshVars, InferenceResult, NodeSignature, infer_program
from .sectypes import (EMPTY, TBOT, CanonType, Constraint, ConstraintSet,
                       substitute_constraints)


@dataclass
class NormResult:
    """Outcome of normalising an expression (or tuple of expressions)."""

    exprs: list[tuple[Expr, CanonType]]
    new_equations: list[Equation]
    new_locals: list[tuple[str, Ty, Clock, str]]  # name, type, clock, type variable
    constraints: ConstraintSet


@dataclass
class _Slot:
    expr: Expr
    ty: Ty
    sec: CanonType


class _FbyEq:
    """Pass-one delay equation; the head may still be a non-constant."""

    def __init__(self, target: str, clock: Clock, head: _Slot, body: _Slot,
                 target_sec: CanonType):
        self.target = target
        self.clock = clock
        self.head = head
        self.body = body
        self.target_sec = target_sec


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
    def __init__(self, prog: Program, node: Node, res: InferenceResult,
                 sigs: Mapping[str, NodeSignature], stvars: FreshVars, pvars: ProgVars):
        self.prog = prog
        self.node = node
        self.sigs = sigs
        self.stvars = stvars
        self.pvars = pvars
        self.sec: dict[str, CanonType] = {v: CanonType((tv,)) for v, tv in res.gamma.items()}
        self.tys: dict[str, Ty] = {d.name: d.ty for d in node.declarations}
        self.equations: list = []  # Equation | _FbyEq, in definition order
        self.new_locals: list[tuple[str, Ty, Clock, str]] = []
        self.constraints = EMPTY

    def fresh_local(self, ty: Ty, clock: Clock) -> tuple[str, str]:
        name = self.pvars.next()
        tv = self.stvars.one("delta")
        self.new_locals.append((name, ty, clock, tv))
        self.sec[name] = CanonType((tv,))
        self.tys[name] = ty
        return name, tv

    def add(self, *constraints: Constraint):
        self.constraints = self.constraints | ConstraintSet(constraints)

    def sec_of(self, name: str) -> CanonType:
        return self.sec[name]


def _norm_list(ctx: _Ctx, exprs, ambient: Clock) -> list[_Slot]:
    out: list[_Slot] = []
    for e in exprs:
        out.extend(_norm(ctx, e, ambient))
    return out


def _norm(ctx: _Ctx, e: Expr, ambient: Clock) -> list[_Slot]:
    """Rewrite e to simple expressions (one per component stream), emitting
    fresh equations for delays, calls and nested control expressions."""
    match e:
        case Const():
            return [_Slot(e, e.ty, TBOT)]
        case Var(x):
            return [_Slot(e, ctx.tys[x], ctx.sec_of(x))]
        case Unop(op, a):
            [s] = _norm(ctx, a, ambient)
            ty = Ty.BOOL if op == "not" else Ty.INT
            return [_Slot(Unop(op, s.expr), ty, s.sec)]
        case Binop(op, a, b):
            [l] = _norm(ctx, a, ambient)
            [r] = _norm(ctx, b, ambient)
            ty = Ty.BOOL if (op in ("and", "or", "=", "<>", "<", "<=", ">", ">=")) else Ty.INT
            return [_Slot(Binop(op, l.expr, r.expr), ty, l.sec.join(r.sec))]
        case When(args, x, k):
            inner = _norm_list(ctx, args, ctx.node.decl(x).clock if x in ctx.tys else ambient)
            gx = ctx.sec_of(x)
            return [_Slot(When((s.expr,), x, k), s.ty, s.sec.join(gx)) for s in inner]
        case Merge(x, ts, fs):
            ck = _merge_clock(ctx, x, ambient)
            tslots = _norm_list(ctx, ts, ClockOn(ck, x, True))
            fslots = _norm_list(ctx, fs, ClockOn(ck, x, False))
            gx = ctx.sec_of(x)
            out = []
            for a, b in zip(tslots, fslots):
                name, tv = ctx.fresh_local(a.ty, ck)
                ctx.equations.append(NDef(name, ck, Merge(x, (a.expr,), (b.expr,))))
                ctx.add(Constraint.make(gx.join(a.sec).join(b.sec), CanonType((tv,))))
                out.append(_Slot(Var(name), a.ty, CanonType((tv,))))
            return out
        case Ite(c, ts, fs):
            [cond] = _norm(ctx, c, ambient)
            tslots = _norm_list(ctx, ts, ambient)
            fslots = _norm_list(ctx, fs, ambient)
            out = []
            for a, b in zip(tslots, fslots):
                name, tv = ctx.fresh_local(a.ty, ambient)
                ctx.equations.append(NDef(name, ambient, Ite(cond.expr, (a.expr,), (b.expr,))))
                ctx.add(Constraint.make(cond.sec.join(a.sec).join(b.sec), CanonType((tv,))))
                out.append(_Slot(Var(name), a.ty, CanonType((tv,))))
            return out
        case Fby(e0s, es):
            heads = _norm_list(ctx, e0s, ambient)
            bodies = _norm_list(ctx, es, ambient)
            out = []
            for h, b in zip(heads, bodies):
                name, tv = ctx.fresh_local(h.ty, ambient)
                ctx.equations.append(_FbyEq(name, ambient, h, b, CanonType((tv,))))
                ctx.add(Constraint.make(h.sec.join(b.sec), CanonType((tv,))))
                out.append(_Slot(Var(name), h.ty, CanonType((tv,))))
            return out
        case Call(f, args):
            arg_slots = _norm_list(ctx, args, ambient)
            callee = ctx.prog.node(f)
            names: list[str] = []
            out = []
            for d in callee.outputs:
                name, tv = ctx.fresh_local(d.ty, ambient)
                names.append(name)
                out.append(_Slot(Var(name), d.ty, CanonType((tv,))))
            ctx.equations.append(NCall(tuple(names), ambient, f, tuple(s.expr for s in arg_slots)))
            ctx.add(*_call_constraints(ctx, f, arg_slots, [s.sec for s in out]))
            return out
    raise TypeError(f"_norm: unsupported {e!r}")


def _merge_clock(ctx: _Ctx, x: str, ambient: Clock) -> Clock:
    return ctx.node.decl(x).clock if x in ctx.tys else ambient


def _call_constraints(ctx: _Ctx, f: str, arg_slots: list[_Slot],
                      out_types: list[CanonType]) -> list[Constraint]:
    """Instantiate the callee signature: inputs to argument types, outputs to
    the fresh result variables, clock to the caller's base entry."""
    sig = ctx.sigs[f]
    if len(arg_slots) != len(sig.inputs):
        raise InferError("arity-mismatch",
                         f"{f} expects {len(sig.inputs)} argument stream(s), got {len(arg_slots)}")
    sub = {sig.clock: (ctx.sec_of(BASE), EMPTY)}
    for v, s in zip(sig.inputs, arg_slots):
        sub[v] = (s.sec, EMPTY)
    for v, t in zip(sig.outputs, out_types):
        sub[v] = (t, EMPTY)
    return list(substitute_constraints(sig.constraints, sub))


def normalize_expr(prog: Program, node_name: str, e: Expr) -> NormResult:
    """Normalise one expression in the context of a node (public entry point
    used by the unit tests; programs go through normalize_program)."""
    prog = elaborate(prog)
    results = infer_program(prog)
    node = prog.node(node_name)
    ctx = _new_ctx(prog, node, results)
    slots = _norm(ctx, e, BASE_CLOCK)
    eqs = _finish_fby(ctx)
    return NormResult([(s.expr, s.sec) for s in slots], eqs, ctx.new_locals, ctx.constraints)


def _new_ctx(prog: Program, node: Node, results: Mapping[str, InferenceResult],
             stvars: FreshVars | None = None, pvars: ProgVars | None = None) -> _Ctx:
    sigs = {n: r.signature for n, r in results.items()}
    if pvars is None:
        pvars = ProgVars(_all_idents(prog))
    if stvars is None:
        stvars = FreshVars()
        stvars.take("delta", _delta_count(results))
    return _Ctx(prog, node, results[node.name], sigs, stvars, pvars)


def _delta_count(results: Mapping[str, InferenceResult]) -> int:
    n = 0
    for res in results.values():
        n += sum(1 for v in res.eliminated)
    return n


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
    gamma = ctx.sec_of(BASE)
    ty = fby_eq.head.ty
    flag, tv1 = ctx.fresh_local(Ty.BOOL, fby_eq.clock)
    prev, tv2 = ctx.fresh_local(ty, fby_eq.clock)
    ctx.add(Constraint.make(gamma, CanonType((tv1,))),
            Constraint.make(gamma.join(fby_eq.body.sec), CanonType((tv2,))),
            Constraint.make(gamma.join(CanonType((tv1,))).join(fby_eq.head.sec)
                            .join(CanonType((tv2,))), fby_eq.target_sec))
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


def normalize_equation(prog: Program, node_name: str, eq: Def) -> tuple[list[Equation], ConstraintSet, list]:
    """Normalise a single equation (unit-test entry point)."""
    prog = elaborate(prog)
    results = infer_program(prog)
    node = prog.node(node_name)
    ctx = _new_ctx(prog, node, results)
    _norm_equation(ctx, eq)
    return _finish_fby(ctx), ctx.constraints, ctx.new_locals


def _norm_equation(ctx: _Ctx, eq: Def):
    """Distribute a source equation into core equations, keeping delays,
    calls and one control layer at the top of their defining equation."""
    ck = eq.clock if eq.clock is not None else BASE_CLOCK
    gamma = _clock_sec(ctx, ck)
    idx = 0
    for top in eq.exprs:
        width = _width(ctx, top)
        targets = eq.targets[idx:idx + width]
        idx += width
        match top:
            case Fby(e0s, es):
                heads = _norm_list(ctx, e0s, ck)
                bodies = _norm_list(ctx, es, ck)
                for x, h, b in zip(targets, heads, bodies):
                    ctx.equations.append(_FbyEq(x, ck, h, b, ctx.sec_of(x)))
                    ctx.add(Constraint.make(gamma.join(h.sec).join(b.sec), ctx.sec_of(x)))
            case Call(f, args):
                arg_slots = _norm_list(ctx, args, ck)
                ctx.equations.append(NCall(targets, ck, f, tuple(s.expr for s in arg_slots)))
                ctx.add(*_call_constraints(ctx, f, arg_slots, [ctx.sec_of(x) for x in targets]))
            case Merge(x, ts, fs):
                tslots = _norm_list(ctx, ts, ClockOn(ck, x, True))
                fslots = _norm_list(ctx, fs, ClockOn(ck, x, False))
                gx = ctx.sec_of(x)
                for t, a, b in zip(targets, tslots, fslots):
                    ctx.equations.append(NDef(t, ck, Merge(x, (a.expr,), (b.expr,))))
                    ctx.add(Constraint.make(gamma.join(gx).join(a.sec).join(b.sec), ctx.sec_of(t)))
            case Ite(c, ts, fs):
                [cond] = _norm(ctx, c, ck)
                tslots = _norm_list(ctx, ts, ck)
                fslots = _norm_list(ctx, fs, ck)
                for t, a, b in zip(targets, tslots, fslots):
                    ctx.equations.append(NDef(t, ck, Ite(cond.expr, (a.expr,), (b.expr,))))
                    ctx.add(Constraint.make(gamma.join(cond.sec).join(a.sec).join(b.sec),
                                            ctx.sec_of(t)))
            case _:
                for x, s in zip(targets, _norm(ctx, top, ck)):
                    ctx.equations.append(NDef(x, ck, s.expr))
                    ctx.add(Constraint.make(gamma.join(s.sec), ctx.sec_of(x)))


def _clock_sec(ctx: _Ctx, ck: Clock) -> CanonType:
    out = ctx.sec_of(BASE)
    for x in clock_vars(ck):
        out = out.join(ctx.sec_of(x))
    return out


def _width(ctx: _Ctx, e: Expr) -> int:
    match e:
        case Const() | Var() | Unop() | Binop():
            return 1
        case When(args, _, _):
            return sum(_width(ctx, a) for a in args)
        case Merge(_, ts, _) | Ite(_, ts, _):
            return sum(_width(ctx, a) for a in ts)
        case Fby(e0s, _):
            return sum(_width(ctx, a) for a in e0s)
        case Call(f, _):
            return len(ctx.prog.node(f).outputs)
    raise TypeError(f"_width: unsupported {e!r}")


@dataclass
class NormInfo:
    """Per-node record of what normalisation introduced."""

    new_locals: list[tuple[str, Ty, Clock, str]] = field(default_factory=list)
    constraints: ConstraintSet = EMPTY


def normalize_program(prog: Program) -> tuple[Program, dict[str, NormInfo]]:
    """Normalise every node of a (well-formed) program.

    The output satisfies the core-form restrictions: singleton flows, no
    nested delays or calls, constant delay heads. Fresh program variables
    live in the v<n> namespace; emitted equations are in definition order
    (definitions before instantaneous uses).
    """
    prog = elaborate(prog)
    fresh = FreshVars()
    results = infer_program(prog, fresh)
    pvars = ProgVars(_all_idents(prog))
    new_nodes = []
    infos: dict[str, NormInfo] = {}
    for node in prog.nodes:
        ctx = _Ctx(prog, node, results[node.name],
                   {n: r.signature for n, r in results.items()}, fresh, pvars)
        for eq in node.equations:
            if isinstance(eq, Def):
                _norm_equation(ctx, eq)
            else:
                ctx.equations.append(eq)  # already in core form
        eqs = _finish_fby(ctx)
        locals_ = node.locals + tuple(VarDecl(nm, ty, ck) for nm, ty, ck, _ in ctx.new_locals)
        new_nodes.append(replace(node, locals=locals_, equations=tuple(eqs)))
        infos[node.name] = NormInfo(ctx.new_locals, ctx.constraints)
    return elaborate(Program(tuple(new_nodes))), infos
