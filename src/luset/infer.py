"""Security type inference: constraint generation for clocks, expressions
and equations, node signatures via local-variable elimination, and
whole-program checking against a lattice. A node is typed on int masks, one
bit per type variable, from its first join to the end of elimination; masks
become canonical types only in its signature, constraints and call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .diagnostics import InferError
from .lang import (BASE, BASE_CLOCK, Binop, ByClass, Call, Clock, ClockBase, ClockOn, Const,
                   Def, Equation, Expr, Fby, Ite, Merge, NCall, NDef, NFby, Node, Program, Unop,
                   Var, When, derived, node_order)
from .sectypes import (CanonType, Constraint, ConstraintSet, Lattice, eval_ground,
                       least_fixpoint, least_solution, violations)

GREEK = {"alpha": "α", "beta": "β", "gamma": "γ", "delta": "δ"}
_ASCII = {"α": "a", "β": "b", "γ": "g", "δ": "d"}


class FreshVars:
    """Deterministic supply of security type variables.

    The first request for a single variable of a letter yields the bare
    letter; later requests continue a numeric suffix shared across the whole
    program, so a file holding several nodes gets α1..α3, then α4, and β then
    β1, β2, matching the usual display convention.
    """

    def __init__(self):
        self._counter = {g: 0 for g in GREEK.values()}
        self._plain_used = {g: False for g in GREEK.values()}

    def take(self, letter: str, k: int) -> list[str]:
        g = GREEK[letter]
        if k == 1 and not self._plain_used[g] and self._counter[g] == 0:
            self._plain_used[g] = True
            return [g]
        start = self._counter[g] + 1
        self._counter[g] += k
        return [f"{g}{i}" for i in range(start, start + k)]

    def one(self, letter: str) -> str:
        return self.take(letter, 1)[0]


def display_var(name: str, ascii_: bool = False) -> str:
    if ascii_ and name and name[0] in _ASCII:
        return _ASCII[name[0]] + name[1:]
    return name


def _var_sort_key(name: str):
    order = {"γ": 0, "α": 1, "β": 2, "δ": 3}
    head, tail = name[0], name[1:]
    idx = int(tail) if tail.isdigit() else 0
    return (order.get(head, 4), head, idx, name)


def display_type(t: CanonType, ascii_: bool = False) -> str:
    if t.is_bot:
        return "bot" if ascii_ else "⊥"
    names = sorted(t.vars, key=_var_sort_key)
    sep = " lub " if ascii_ else "⊔"
    return sep.join(display_var(v, ascii_) for v in names)


def display_constraint(c: Constraint, ascii_: bool = False) -> str:
    rel = " <= " if ascii_ else " ⊑ "
    return display_type(c.lhs, ascii_) + rel + display_type(c.rhs, ascii_)


def display_constraints(rho: ConstraintSet, ascii_: bool = False) -> str:
    items = sorted(rho, key=lambda c: (_var_sort_key(c.rhs.vars[0]) if c.rhs.vars else (), str(c)))
    return ", ".join(display_constraint(c, ascii_) for c in items)


@dataclass(frozen=True)
class NodeSignature:
    """f(α⃗) ⇒γ β⃗ {|ρ|}: the inferred security interface of a node."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    clock: str
    constraints: ConstraintSet

    def display(self, ascii_: bool = False) -> str:
        ins = ", ".join(display_var(v, ascii_) for v in self.inputs)
        outs = ", ".join(display_var(v, ascii_) for v in self.outputs)
        if len(self.outputs) > 1:
            outs = f"({outs})"
        arrow = "=>" if ascii_ else "⇒"
        body = display_constraints(self.constraints, ascii_)
        return f"{self.name}({ins}) {arrow}{display_var(self.clock, ascii_)} {outs} {{| {body} |}}"

    def interface_vars(self) -> tuple[str, ...]:
        return self.inputs + self.outputs + (self.clock,)


@dataclass
class CallSite:
    """Bookkeeping for one node call inside a node body (used for the
    per-call security check)."""

    callee: str
    eq_index: int
    arg_types: tuple[CanonType, ...]
    clock_type: CanonType
    result_vars: tuple[str, ...]  # fresh variables standing for the outputs


@dataclass
class InferenceResult:
    """Everything inference learns about one node."""

    signature: NodeSignature
    gamma: dict[str, str]  # program variable (and `base`) -> type variable
    full_constraints: ConstraintSet  # before local elimination
    calls: tuple[CallSite, ...]


TypeEnv = dict[str, CanonType]


class _CallCtx:
    """Everything typing one node body reads and generates: one int bit per
    type variable, the type environment as masks, callee signatures and
    fresh supply, and the node's constraints as absorbed, non-trivial
    (lhs, rhs) mask pairs, call sites and call-result variables in order."""

    def __init__(self, sigs: Mapping[str, NodeSignature], fresh: FreshVars, env: TypeEnv = {}):
        self.sigs = sigs
        self.fresh = fresh
        self.bits: dict[str, int] = {}
        self.names: list[str] = []
        self.env = {x: self.mask(t) for x, t in env.items()}
        self.pairs: dict[tuple[int, int], None] = {}  # in order of first generation
        self.extra_vars: list[str] = []
        self.calls: list[CallSite] = []
        self.eq_index = 0
        self._canon: dict[int, CanonType] = {}

    def bit(self, v: str) -> int:
        b = self.bits.get(v)
        if b is None:
            b = self.bits[v] = 1 << len(self.names)
            self.names.append(v)
        return b

    def mask(self, t: CanonType, sub: Mapping[str, int] = {}) -> int:
        m = 0
        for v in t.vars:
            m |= sub[v] if v in sub else self.bit(v)
        return m

    def canon(self, m: int) -> CanonType:
        t = self._canon.get(m)
        if t is None:
            out, rest = [], m
            while rest:
                b = rest & -rest
                out.append(self.names[b.bit_length() - 1])
                rest ^= b
            t = self._canon[m] = CanonType.of_sorted(tuple(sorted(out)))
        return t

    def constraints(self, pairs) -> ConstraintSet:
        """The constraint set of distinct, absorbed, non-trivial pairs."""
        return ConstraintSet.of_canonical(Constraint(self.canon(l), self.canon(r)) for l, r in pairs)


def _clock(env: dict[str, int], ck: Clock) -> int:
    m = 0
    while type(ck) is ClockOn:
        m |= _lookup(env, ck.var)
        ck = ck.base
    if type(ck) is not ClockBase:
        raise TypeError(f"type_clock: unsupported {ck!r}")
    return m | _lookup(env, BASE)


def _lookup(env: Mapping, name: str):
    if name not in env:
        raise InferError("unbound-var", f"no security type for {name}")
    return env[name]


def type_expr(env: TypeEnv, e: Expr,
              sigs: Mapping[str, NodeSignature]) -> tuple[list[CanonType], ConstraintSet]:
    """One type per component stream of e, and the constraints its node
    calls generate."""
    ctx = _CallCtx(sigs, FreshVars(), env)
    slots = _MASKS[type(e)](ctx, e)
    return [ctx.canon(m) for m in slots], ctx.constraints(ctx.pairs)


def _exprs(ctx: _CallCtx, items) -> list[int]:
    out: list[int] = []
    for it in items:
        out.extend(_MASKS[type(it)](ctx, it))
    return out


def _unop(ctx: _CallCtx, e: Unop) -> list[int]:
    a = e.arg
    return [_one(_MASKS[type(a)](ctx, a))]


def _binop(ctx: _CallCtx, e: Binop) -> list[int]:
    a, b = e.left, e.right
    return [_one(_MASKS[type(a)](ctx, a)) | _one(_MASKS[type(b)](ctx, b))]


def _when(ctx: _CallCtx, e: When) -> list[int]:
    gx = _lookup(ctx.env, e.var)
    return [t | gx for t in _exprs(ctx, e.args)]


def _merge(ctx: _CallCtx, e: Merge) -> list[int]:
    gx = _lookup(ctx.env, e.var)
    tslots, fslots = _exprs(ctx, e.on_true), _exprs(ctx, e.on_false)
    _same_width(tslots, fslots, "merge")
    return [gx | a | b for a, b in zip(tslots, fslots)]


def _ite(ctx: _CallCtx, e: Ite) -> list[int]:
    c = e.cond
    theta = _one(_MASKS[type(c)](ctx, c))
    tslots, fslots = _exprs(ctx, e.on_true), _exprs(ctx, e.on_false)
    _same_width(tslots, fslots, "if")
    return [theta | a | b for a, b in zip(tslots, fslots)]


def _fby(ctx: _CallCtx, e: Fby) -> list[int]:
    islots, rslots = _exprs(ctx, e.init), _exprs(ctx, e.rest)
    _same_width(islots, rslots, "fby")
    return [a | b for a, b in zip(islots, rslots)]


def _unsupported(ctx: _CallCtx, e: Expr):
    raise TypeError(f"type_expr: unsupported {e!r}")


# One type mask per component stream of e, a join being `|`: `_MASKS[type(e)](ctx, e)`.
# Node calls instantiate the callee signature into ctx.pairs: the clock
# variable maps to the caller's base entry, inputs to argument types, and
# outputs to fresh variables that stand for the results at this call site.
_MASKS = ByClass({
    Const: lambda ctx, e: [0], Var: lambda ctx, e: [_lookup(ctx.env, e.name)],
    Unop: _unop, Binop: _binop, When: _when, Merge: _merge, Ite: _ite, Fby: _fby,
    Call: lambda ctx, e: _type_call(ctx, e.node, e.args, _lookup(ctx.env, BASE))}, _unsupported)


def _one(slots: list[int]) -> int:
    if len(slots) != 1:
        raise InferError("arity-mismatch", "tuple used as a single stream")
    return slots[0]


def _same_width(a: list, b: list, what: str):
    if len(a) != len(b):
        raise InferError("arity-mismatch", f"{what} branches have widths {len(a)} and {len(b)}")


def _type_call(ctx: _CallCtx, f: str, args, clock: int) -> list[int]:
    """Instantiate f's signature, each of its variables mapped to a mask."""
    if f not in ctx.sigs:
        raise InferError("unknown-node", f"no signature for node {f}")
    sig = ctx.sigs[f]
    arg_masks = _exprs(ctx, args)
    if len(arg_masks) != len(sig.inputs):
        raise InferError("arity-mismatch",
                         f"{f} expects {len(sig.inputs)} argument stream(s), got {len(arg_masks)}")
    result_vars = [ctx.fresh.one("delta") for _ in sig.outputs]
    ctx.extra_vars.extend(result_vars)
    results = [ctx.bit(r) for r in result_vars]
    sub = dict(zip((sig.clock,) + sig.inputs + sig.outputs, [clock] + arg_masks + results))
    for c in sig.constraints:
        rhs = ctx.mask(c.rhs, sub)
        lhs = ctx.mask(c.lhs, sub) & ~rhs
        if lhs:
            ctx.pairs[lhs, rhs] = None
    ctx.calls.append(CallSite(f, ctx.eq_index, tuple(map(ctx.canon, arg_masks)),
                              ctx.canon(clock), tuple(result_vars)))
    return results


def _equation(ctx: _CallCtx, eq: Equation):
    cls = type(eq)
    if cls is Def:
        gamma = _clock(ctx.env, eq.clock if eq.clock is not None else BASE_CLOCK)
        targets = eq.targets
        slots = _exprs(ctx, eq.exprs)
    elif cls is NCall:
        gamma = _clock(ctx.env, eq.clock)
        targets = eq.targets
        slots = _type_call(ctx, eq.node, eq.args, gamma)
    elif cls is NDef or cls is NFby:  # a delay's constant head adds ⊥
        gamma = _clock(ctx.env, eq.clock)
        targets = (eq.target,)
        e = eq.expr
        slots = _MASKS[type(e)](ctx, e)
    else:
        raise TypeError(f"type_equation: unsupported {eq!r}")
    if len(slots) != len(targets):
        raise InferError("arity-mismatch",
                         f"{len(targets)} target(s) but {len(slots)} stream(s)")
    for x, alpha in zip(targets, slots):
        rhs = _lookup(ctx.env, x)
        lhs = (gamma | alpha) & ~rhs
        if lhs:
            ctx.pairs[lhs, rhs] = None


def _eliminate(pairs, order: list[str], bits: Mapping[str, int]) -> set[tuple[int, int]]:
    """Eliminate the variables of `order`, in order, from distinct mask pairs.

    For δ with a defining constraint ν ⊑ δ (or ν ⊔ δ ⊑ δ), substitute ν
    (with δ removed) for δ everywhere and drop the constraint; a variable
    with no defining constraint is skipped. More than one defining
    constraint violates the precondition.

    A pair is absorbed as lhs & ~rhs and trivial when that is 0. The loop
    keeps a live set of pairs and, for each bit of a variable of `order`, a
    list of the pairs that mentioned it when they went live; a pair that
    has left the live set since is skipped. Eliminating δ reads its
    defining pairs (rhs == δ) from that list, since an earlier substitution
    may have made one, and rewrites only the pairs that mention δ,
    substituting ν for δ as (m & ~δ) | ν; rewritten pairs that turn trivial
    or repeat a live one are dropped.
    """
    pending = 0
    for v in order:
        pending |= bits.get(v, 0)
    live: set[tuple[int, int]] = set()
    mentions: dict[int, list[tuple[int, int]]] = {}

    def add(lhs: int, rhs: int):
        lhs &= ~rhs
        c = (lhs, rhs)
        if lhs and c not in live:
            live.add(c)
            m = (lhs | rhs) & pending
            while m:
                b = m & -m
                mentions.setdefault(b, []).append(c)
                m ^= b

    for lhs, rhs in pairs:
        add(lhs, rhs)
    for delta in order:
        d = bits.get(delta, 0)
        touched = [c for c in dict.fromkeys(mentions.get(d, ())) if c in live]
        defining = [c for c in touched if c[1] == d]
        if len(defining) > 1:
            raise InferError("multiple-defining-constraints",
                             f"{delta} has {len(defining)} defining constraints")
        if not defining:
            continue
        chosen = defining[0]
        sub = chosen[0]
        live.difference_update(touched)
        for lhs, rhs in touched:
            if (lhs, rhs) != chosen:
                add((lhs & ~d) | sub if lhs & d else lhs, (rhs & ~d) | sub if rhs & d else rhs)
    return live


def infer_node_signature(node: Node, sigs: Mapping[str, NodeSignature],
                         fresh: FreshVars | None = None) -> InferenceResult:
    """Infer the security signature of one node (callee signatures given).

    Fresh variables are drawn input-first (α), then outputs (β), base clock
    (γ) and locals (δ); call-site result variables extend the δ supply.
    Locals are eliminated in declaration order, then call results in
    creation order. The node is typed on masks throughout; they turn into
    canonical types only in the result.
    """
    if fresh is None:
        fresh = FreshVars()
    alphas = fresh.take("alpha", len(node.inputs)) if node.inputs else []
    betas = fresh.take("beta", len(node.outputs)) if node.outputs else []
    gamma = fresh.one("gamma")
    deltas = fresh.take("delta", len(node.locals)) if node.locals else []

    gamma_map: dict[str, str] = {BASE: gamma}
    for decls, vs in ((node.inputs, alphas), (node.outputs, betas), (node.locals, deltas)):
        gamma_map.update((decl.name, v) for decl, v in zip(decls, vs))
    ctx = _CallCtx(sigs, fresh)
    ctx.env = {name: ctx.bit(v) for name, v in gamma_map.items()}
    for i, eq in enumerate(node.equations):
        ctx.eq_index = i
        _equation(ctx, eq)
    simplified = ctx.constraints(_eliminate(ctx.pairs, deltas + ctx.extra_vars, ctx.bits))
    interface = set(alphas) | set(betas) | {gamma}
    leftover = simplified.variables - interface
    if leftover:
        raise InferError("incomplete-elimination",
                         f"signature of {node.name} still mentions {sorted(leftover)}")
    sig = NodeSignature(node.name, tuple(alphas), tuple(betas), gamma, simplified)
    return InferenceResult(sig, gamma_map, ctx.constraints(ctx.pairs), tuple(ctx.calls))


def infer_program(prog: Program) -> dict[str, InferenceResult]:
    """Infer signatures for every node, processing callees first. A single
    fresh supply is shared so variable names are stable across the file.
    Computed once per program object; callers must not change the result."""
    return derived(prog, _infer_program)


def _infer_program(prog: Program) -> dict[str, InferenceResult]:
    fresh = FreshVars()
    results: dict[str, InferenceResult] = {}
    sigs: dict[str, NodeSignature] = {}
    for name in node_order(prog):
        res = infer_node_signature(prog.node(name), sigs, fresh)
        results[name] = res
        sigs[name] = res.signature
    return {name: results[name] for name in prog.node_names}


# ---------------------------------------------------------------------------
# Checking against a lattice
# ---------------------------------------------------------------------------

@dataclass
class CallCheck:
    callee: str
    eq_index: int
    secure: bool
    violated: list[Constraint] = field(default_factory=list)


@dataclass
class NodeReport:
    node: str
    secure: bool
    assignment: dict[str, str]  # program variable / `base` -> class
    violated: list[Constraint]
    solved: list[str]  # interface variables filled in by the least solution
    calls: list[CallCheck]

    def to_json(self) -> dict:
        return {
            "node": self.node,
            "verdict": "secure" if self.secure else "insecure",
            "assignment": dict(sorted(self.assignment.items())),
            "violated": [display_constraint(c) for c in self.violated],
            "solved": list(self.solved),
            "calls": [{
                "callee": c.callee,
                "equation": c.eq_index,
                "verdict": "secure" if c.secure else "insecure",
                "violated": [display_constraint(v) for v in c.violated],
            } for c in self.calls],
        }


@dataclass
class Report:
    lattice: str
    nodes: list[NodeReport]

    @property
    def secure(self) -> bool:
        return all(n.secure for n in self.nodes)

    def to_json(self) -> dict:
        return {"lattice": self.lattice,
                "verdict": "secure" if self.secure else "insecure",
                "nodes": [n.to_json() for n in self.nodes]}


def flatten_assignment(entry) -> tuple[str | None, dict[str, str]]:
    """Node name and flat program-variable map (with `base`) of one
    assignment entry {"node": ..., "base": ..., "inputs": {...}, "outputs": {...}}.
    Merging loses no label: a name in both sections, or `base` inside one,
    is refused."""
    if not isinstance(entry, dict):
        raise InferError("bad-assignment", f"assignment entry {entry!r} is not an object")
    flat: dict[str, str] = {}
    if "base" in entry:
        flat[BASE] = entry["base"]
    for sect in ("inputs", "outputs"):
        labels = entry.get(sect, {})
        if not isinstance(labels, dict):
            raise InferError("bad-assignment", f"assignment {sect} must be an object")
        if BASE in labels:
            raise InferError("bad-assignment", f"{BASE} belongs beside {sect}, not inside it")
        for x in labels:
            if x in flat:
                raise InferError("bad-assignment", f"{x} is listed under inputs and outputs")
        flat.update(labels)
    for x, label in flat.items():
        if not isinstance(label, str):
            raise InferError("bad-assignment", f"security class of {x} is not a string")
    return entry.get("node"), flat


def check_assignment_sections(entry: dict, node: Node) -> None:
    """Reject a name under `inputs` (`outputs`) of an assignment entry that
    is not an input (output) of `node`."""
    for sect, decls in (("inputs", node.inputs), ("outputs", node.outputs)):
        declared = {d.name for d in decls}
        for x in entry.get(sect, {}):
            if x not in declared:
                raise InferError("bad-assignment", f"{x} is not an {sect[:-1]} of {node.name}")


def solve_interface(res: InferenceResult, assignment: Mapping[str, str],
                    lat: Lattice) -> tuple[dict[str, str], list[Constraint]]:
    """Complete a (possibly partial) program-variable assignment (with
    `base`) to every interface type variable of the node by the least
    fixpoint of its signature constraints; labels for locals are ignored.

    Returns the completion and the signature constraints it violates. With
    none violated, the completion is the least solution; otherwise no
    solution extends the assignment, and the violations are what a check
    reports against it.
    """
    sig = res.signature
    interface = sig.interface_vars()
    fixed: dict[str, str] = {}
    for name, label in assignment.items():
        if name not in res.gamma:
            raise InferError("unbound-var", f"{sig.name} has no variable {name}")
        if res.gamma[name] in interface:
            fixed[res.gamma[name]] = label
    s = least_fixpoint(sig.constraints, fixed, lat)
    return {v: s.get(v, lat.bottom) for v in interface}, violations(sig.constraints, s, lat)


def check_node(results: Mapping[str, InferenceResult], name: str,
               assignment: Mapping[str, str], lat: Lattice) -> NodeReport:
    """Verdict for one node under a (possibly partial) interface assignment.

    Missing interface variables are filled in by `solve_interface`, which
    also gives the violated signature constraints. Internal node calls are
    then checked recursively under the instantiation induced by the least
    extension over locals; when the node's full constraints cannot be met,
    no call is listed and the node is insecure.
    """
    res = results[name]
    s, bad = solve_interface(res, assignment, lat)
    solved_vars = sorted(set(s) - {res.gamma[p] for p in assignment})
    calls = _check_calls(results, res, s, lat, {})
    readable_assignment = {p: s[v] for p, v in res.gamma.items() if v in s}
    secure = not bad and calls is not None and all(c.secure for c in calls)
    return NodeReport(name, secure, readable_assignment, bad, solved_vars, calls or [])


def _check_calls(results: Mapping[str, InferenceResult], res: InferenceResult,
                 interface_inst: Mapping[str, str], lat: Lattice,
                 memo: dict[tuple, bool]) -> list[CallCheck] | None:
    """Security of a node's calls under an interface instantiation, per the
    recursive definition: each call's induced instantiation must satisfy the
    callee's constraints, and the callee's own calls must be secure under it.
    One `CallCheck` per call site, with the callee constraints its
    instantiation violates; None when the node's full constraints cannot be
    met at all.

    `memo` maps (callee, sorted instantiation) to whether the callee's own
    calls are secure under it, so each callee is walked once per distinct
    instantiation rather than once per call path."""
    full = least_solution(res.full_constraints, interface_inst, lat)
    if full is None:
        return None
    checks: list[CallCheck] = []
    for site in res.calls:
        callee_res = results[site.callee]
        callee_sig = callee_res.signature
        inst: dict[str, str] = {callee_sig.clock: eval_ground(site.clock_type, full, lat)}
        for v, t in zip(callee_sig.inputs, site.arg_types):
            inst[v] = eval_ground(t, full, lat)
        for v, r in zip(callee_sig.outputs, site.result_vars):
            inst[v] = full[r] if r in full else lat.bottom
        sub_bad = violations(callee_sig.constraints, inst, lat)
        ok = not sub_bad
        if ok:
            key = (site.callee, tuple(sorted(inst.items())))
            if key not in memo:
                deeper = _check_calls(results, callee_res, inst, lat, memo)
                memo[key] = deeper is not None and all(c.secure for c in deeper)
            ok = memo[key]
        checks.append(CallCheck(site.callee, site.eq_index, ok, sub_bad))
    return checks


def check_program(prog: Program, lat: Lattice,
                  assignments: list[dict]) -> Report:
    """Check the nodes named in the assignment entries; each entry is
    {"node": ..., "base": ..., "inputs": {...}, "outputs": {...}}."""
    results = infer_program(prog)
    reports = []
    for entry in assignments:
        name, flat = flatten_assignment(entry)
        if name is None:
            raise InferError("bad-assignment", "assignment entry lacks a node name")
        if not prog.has_node(name):
            raise InferError("unknown-node", f"assignment names unknown node {name}")
        check_assignment_sections(entry, prog.node(name))
        reports.append(check_node(results, name, flat, lat))
    return Report(lat.name, reports)
