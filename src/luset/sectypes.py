"""Symbolic security types, their canonical forms, lattices and ground
instantiation.

A raw type is built from bottom, type variables, joins and refinements
(a type constrained by a set of orderings). The equational theory makes
join associative, commutative and idempotent with bottom as identity, and
floats refinements outward; canonical forms are therefore sorted
duplicate-free variable sets paired with a constraint set.

Note that flattening an ordering between refined types into a plain
ordering plus the union of both refinement sets makes the refinements
unconditional: a refinement carried by either side must hold outright,
not merely when the ordering is consulted. Inference never builds refined
types: it types expressions to variable sets (as bitmasks) and collects
every constraint of a node in one set. Refinements arise only when raw types
are canonicalised (`canon`, `canon_constraints`, and the equational
soundness check), so hand-built types should be written with this reading
in mind.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, Union

from .diagnostics import InferError, LatticeError


# ---------------------------------------------------------------------------
# Raw type syntax
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class TVar:
    name: str


@dataclass(frozen=True)
class Lub:
    left: "SecType"
    right: "SecType"


@dataclass(frozen=True)
class Refine:
    base: "SecType"
    constraints: tuple[tuple["SecType", "SecType"], ...]


SecType = Union[Bot, TVar, Lub, Refine]

BOT = Bot()


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class CanonType:
    """A canonical type: a sorted, duplicate-free tuple of type variables.
    The empty tuple is bottom."""

    vars: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(sorted(set(self.vars))))

    @classmethod
    def of_sorted(cls, names: tuple[str, ...]) -> "CanonType":
        """The type of names that are already sorted and distinct."""
        t = cls.__new__(cls)
        object.__setattr__(t, "vars", names)
        return t

    @property
    def is_bot(self) -> bool:
        return not self.vars

    def join(self, other: "CanonType") -> "CanonType":
        return CanonType(self.vars + other.vars)

    def without(self, names: Iterable[str]) -> "CanonType":
        drop = set(names)
        return CanonType(tuple(v for v in self.vars if v not in drop))

    def __str__(self) -> str:
        return "⊥" if self.is_bot else "⊔".join(self.vars)


TBOT = CanonType(())


def ct(*names: str) -> CanonType:
    return CanonType(names)


@dataclass(frozen=True, order=True)
class Constraint:
    """lhs ⊑ rhs between canonical types, meaning lhs ⊔ rhs = rhs.

    Kept in an absorbed form: variables of the rhs are dropped from the lhs
    (sound because lhs ⊑ rhs iff (lhs − rhs) ⊑ rhs)."""

    lhs: CanonType
    rhs: CanonType

    @staticmethod
    def make(lhs: CanonType, rhs: CanonType) -> "Constraint":
        return Constraint(lhs.without(rhs.vars), rhs)

    @property
    def trivial(self) -> bool:
        return self.lhs.is_bot

    def __str__(self) -> str:
        return f"{self.lhs} ⊑ {self.rhs}"


class ConstraintSet:
    """An immutable, deduplicated, deterministically ordered set of
    constraints; trivial constraints are dropped on construction."""

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[Constraint] = ()):
        canon = {Constraint.make(c.lhs, c.rhs) for c in items}
        self._items: tuple[Constraint, ...] = tuple(sorted(c for c in canon if not c.trivial))

    @classmethod
    def of_canonical(cls, items: Iterable[Constraint]) -> "ConstraintSet":
        """The set of constraints that are already absorbed, distinct and
        non-trivial: they are only sorted."""
        out = cls.__new__(cls)
        out._items = tuple(sorted(items, key=lambda c: (c.lhs.vars, c.rhs.vars)))
        return out

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __bool__(self):
        return bool(self._items)

    def __eq__(self, other):
        return isinstance(other, ConstraintSet) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __or__(self, other: "ConstraintSet") -> "ConstraintSet":
        return ConstraintSet(self._items + tuple(other))

    def __str__(self) -> str:
        return "{" + ", ".join(str(c) for c in self._items) + "}"

    __repr__ = __str__

    @property
    def variables(self) -> set[str]:
        out: set[str] = set()
        for c in self._items:
            out |= set(c.lhs.vars) | set(c.rhs.vars)
        return out


EMPTY = ConstraintSet()


def cs(*pairs: tuple[CanonType, CanonType]) -> ConstraintSet:
    return ConstraintSet(Constraint.make(l, r) for l, r in pairs)


Typing = tuple[CanonType, ConstraintSet]  # a raw type's canonical form and its floated refinements


def canon(t: SecType) -> Typing:
    """Normal form of a raw type: refinements floated to the top and unioned,
    joins flattened/sorted/deduplicated, bottom dropped."""
    match t:
        case Bot():
            return TBOT, EMPTY
        case TVar(name):
            return CanonType((name,)), EMPTY
        case Lub(a, b):
            ca, ra = canon(a)
            cb, rb = canon(b)
            return ca.join(cb), ra | rb
        case Refine(base, pairs):
            cb, rb = canon(base)
            return cb, rb | canon_constraints(pairs)
    raise TypeError(f"canon: unsupported {t!r}")


def canon_constraints(pairs: Iterable[tuple[SecType, SecType]]) -> ConstraintSet:
    """Canonicalise raw constraint pairs; refinements on either side are
    flattened into the resulting set."""
    out: list[Constraint] = []
    for l, r in pairs:
        cl, rl = canon(l)
        cr, rr = canon(r)
        out.append(Constraint.make(cl, cr))
        out.extend(rl)
        out.extend(rr)
    return ConstraintSet(out)


# ---------------------------------------------------------------------------
# Lattices
# ---------------------------------------------------------------------------

class Lattice:
    """A finite join-semilattice of security classes with a bottom element.

    Constructed from covering pairs; the order is their reflexive-transitive
    closure. Join-completeness (every pair has a unique least upper bound)
    is validated eagerly and a violating poset is rejected at load time.
    Each element is held as its upper set, so a ⊑ b iff b's is within a's.
    """

    def __init__(self, elements: Iterable[str], bottom: str, covers: Iterable[tuple[str, str]],
                 name: str = "custom"):
        self.name = name
        self.elements: tuple[str, ...] = tuple(dict.fromkeys(elements))
        if bottom not in self.elements:
            raise LatticeError(f"bottom {bottom!r} is not an element")
        self.bottom = bottom
        up = {e: 1 << i for i, e in enumerate(self.elements)}  # upper sets, bit i: elements[i]
        cov = list(covers)
        for lo, hi in cov:
            if lo not in up or hi not in up:
                raise LatticeError(f"cover ({lo!r}, {hi!r}) uses unknown elements")
        changed = True
        while changed:
            changed = False
            for lo, hi in cov:
                new = up[lo] | up[hi]
                if new != up[lo]:
                    up[lo] = new
                    changed = True
        # Two elements are each above the other iff their upper sets are equal:
        # name the first element that shares its upper set, then the next one.
        alike: dict[int, list[str]] = {}
        for e in self.elements:
            alike.setdefault(up[e], []).append(e)
        cycle = next((es for es in alike.values() if len(es) > 1), None)
        if cycle:
            raise LatticeError(f"order is not antisymmetric: {cycle[0]!r} and {cycle[1]!r}")
        missing = ~up[bottom] & ((1 << len(self.elements)) - 1)  # elements not above bottom
        if missing:
            first = self.elements[(missing & -missing).bit_length() - 1]
            raise LatticeError(f"bottom is not below {first!r}")
        self._up = up
        # The common upper set of a and b is itself an upper set, so its
        # unique minimal element, when there is one, is the element whose
        # own upper set equals it: a ⊔ b. The first failing pair in element
        # order lies on or above the diagonal, so the upper triangle finds it.
        self._by_up = {u: es[0] for u, es in alike.items()}
        for i, a in enumerate(self.elements):
            for b in self.elements[i:]:
                if up[a] & up[b] not in self._by_up:
                    raise LatticeError(f"elements {a!r} and {b!r} lack a unique join")

    def leq(self, a: str, b: str) -> bool:
        self._check(a)
        self._check(b)
        return not self._up[b] & ~self._up[a]

    def join(self, a: str, b: str) -> str:
        self._check(a)
        self._check(b)
        return self._by_up[self._up[a] & self._up[b]]

    def _check(self, e: str):
        if e not in self._up:
            raise LatticeError(f"{e!r} is not an element of lattice {self.name}")

    # -- constructors --------------------------------------------------------
    @staticmethod
    def two_point() -> "Lattice":
        return Lattice(["L", "H"], "L", [("L", "H")], name="two-point")

    @staticmethod
    def powerset(n: int) -> "Lattice":
        if not 1 <= n <= 5:
            raise LatticeError("powerset lattice size must be between 1 and 5")
        atoms = "abcde"[:n]
        elems = ["bot"]
        for k in range(1, n + 1):
            elems.extend("".join(c) for c in itertools.combinations(atoms, k))
        covers = []
        for e in elems:
            for a in atoms:
                if e == "bot":
                    covers.append(("bot", a))
                elif a not in e:
                    covers.append((e, "".join(sorted(e + a))))
        return Lattice(elems, "bot", covers, name=f"powerset:{n}")

    @staticmethod
    def from_json(data: dict, name: str = "custom") -> "Lattice":
        """The lattice of {"elements": [e, ...], "bottom": e, "covers": [[lo, hi], ...]},
        every element a string."""
        def strings(xs) -> bool:
            return isinstance(xs, list) and all(isinstance(x, str) for x in xs)

        if not isinstance(data, dict):
            raise LatticeError("malformed lattice description: not an object")
        elements, bottom, covers = data.get("elements"), data.get("bottom"), data.get("covers")
        if not strings(elements):
            raise LatticeError("malformed lattice description: elements must be a list of strings")
        if not isinstance(bottom, str):
            raise LatticeError("malformed lattice description: bottom must be a string")
        if not (isinstance(covers, list) and all(strings(p) and len(p) == 2 for p in covers)):
            raise LatticeError("malformed lattice description: "
                               "covers must be a list of two-string lists")
        return Lattice(elements, bottom, [tuple(p) for p in covers], name=name)

    @staticmethod
    def load(spec: str) -> "Lattice":
        """Resolve a lattice by built-in name ("two-point", "powerset:<n>")
        or by path to a JSON file."""
        if spec == "two-point":
            return Lattice.two_point()
        if spec.startswith("powerset:"):
            size = spec.split(":", 1)[1]
            try:
                n = int(size)
            except ValueError:
                raise LatticeError(f"powerset size {size!r} is not an integer") from None
            return Lattice.powerset(n)
        path = Path(spec)
        return Lattice.from_json(json.loads(path.read_text(encoding="utf-8")), name=path.name)


# ---------------------------------------------------------------------------
# Ground instantiation
# ---------------------------------------------------------------------------

def eval_ground(t: CanonType, s: Mapping[str, str], lat: Lattice) -> str:
    """Homomorphic extension of s: fold the lattice join over the variables,
    starting from bottom."""
    out = lat.bottom
    for v in t.vars:
        if v not in s:
            raise InferError("unbound-type-var", f"no security class assigned to {v}")
        out = lat.join(out, s[v])
    return out


def violations(rho: ConstraintSet, s: Mapping[str, str], lat: Lattice) -> list[Constraint]:
    return [c for c in rho
            if not lat.leq(eval_ground(c.lhs, s, lat), eval_ground(c.rhs, s, lat))]


def least_fixpoint(rho: ConstraintSet, fixed: Mapping[str, str], lat: Lattice) -> dict[str, str]:
    """Pump x := x ⊔ eval(lhs) over constraints whose rhs is a single free
    variable, starting free variables at bottom. The result is the least
    candidate extension of `fixed`; it may still violate constraints whose
    rhs is fixed or compound.

    A worklist keyed by variable drives the pumping: every pumpable
    constraint is visited once in set order, and when s[x] rises only the
    constraints whose lhs mentions x are queued again. Each variable rises
    at most the lattice height, so the work is linear in the size of rho
    for a fixed lattice (Rehof and Mogensen, "Tractable constraints in
    finite semilattices", 1999). The least fixpoint is unique, so the visit
    order does not change the result.
    """
    s = {v: lat.bottom for v in rho.variables}
    s.update(fixed)
    fixed_vars = set(fixed)
    pumpable = [c for c in rho
                if len(c.rhs.vars) == 1 and c.rhs.vars[0] not in fixed_vars]
    readers: dict[str, list[int]] = {}
    for i, c in enumerate(pumpable):
        for v in c.lhs.vars:
            readers.setdefault(v, []).append(i)
    queue = deque(range(len(pumpable)))
    queued = [True] * len(pumpable)
    while queue:
        i = queue.popleft()
        queued[i] = False
        c = pumpable[i]
        target = c.rhs.vars[0]
        val = lat.join(s[target], eval_ground(c.lhs, s, lat))
        if val != s[target]:
            s[target] = val
            for j in readers.get(target, ()):
                if not queued[j]:
                    queued[j] = True
                    queue.append(j)
    return s


def least_solution(rho: ConstraintSet, fixed: Mapping[str, str], lat: Lattice) -> dict[str, str] | None:
    """Least assignment extending `fixed` that satisfies rho, or None when
    the constraints cannot be met with the fixed part as given."""
    s = least_fixpoint(rho, fixed, lat)
    if violations(rho, s, lat):
        return None
    return s


def not_entailed(rho: ConstraintSet,
                 other: ConstraintSet) -> Iterator[tuple[Constraint, dict[str, str]]]:
    """Each constraint of `other` that `rho` does not entail over every
    lattice, with a two-point instantiation that satisfies `rho` and
    violates it.

    Precondition: every right-hand side is one variable, as inference makes
    them. The least fixpoint of `rho` over sets of names, each variable v
    started at {v} by a fixed seed variable, then maps b to the variables
    `rho` forces below b, and rho ⊨ lhs ⊑ b iff all of lhs is in b's set.
    For an x that is not, v ↦ H iff x is in v's set is the countermodel.
    """
    assert all(len(c.rhs.vars) == 1 for c in itertools.chain(rho, other))
    names = sorted(rho.variables | other.variables)
    seeds = [Constraint(ct("\0" + v), ct(v)) for v in names]  # NUL: in no variable's name
    sets = SimpleNamespace(bottom=frozenset(), join=frozenset.union)
    below = least_fixpoint(rho | seeds, {"\0" + v: frozenset([v]) for v in names}, sets)
    for c in other:
        missing = [x for x in c.lhs.vars if x not in below[c.rhs.vars[0]]]
        if missing:
            yield c, {v: "H" if missing[0] in below[v] else "L" for v in names}
