import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luset.diagnostics import InferError, LatticeError
from luset.harness import gen_program
from luset.infer import infer_program
from luset.lang import elaborate
from luset.sectypes import (BOT, EMPTY, TBOT, Bot, CanonType, Constraint, ConstraintSet,
                            Lattice, Lub, Refine, TVar, canon, cs, ct, eval_ground,
                            least_fixpoint, least_solution, not_entailed, violations)

from conftest import (_draw_masks, _mask_poset, gen_lattice, lub, satisfies,
                      substitute_constraints, substitute_type)
from lattice_files import chain, powerset


# ---------------------------------------------------------------------------
# canonicalisation
# ---------------------------------------------------------------------------

def test_canon_join_with_bottom():
    t, rho = canon(Lub(TVar("α"), Bot()))
    assert t == ct("α") and rho == EMPTY


def test_canon_refinement_join_unions_constraints():
    r1 = ((TVar("a"), TVar("b")),)
    r2 = ((TVar("c"), TVar("d")),)
    t, rho = canon(Lub(Refine(TVar("α1"), r1), Refine(TVar("α2"), r2)))
    assert t == ct("α1", "α2")
    assert rho == cs((ct("a"), ct("b")), (ct("c"), ct("d")))


def test_canon_idempotence():
    t, rho = canon(Lub(Lub(TVar("α"), TVar("α")), TVar("α")))
    assert t == ct("α") and rho == EMPTY


def test_canon_nested_refinements_merge():
    t, rho = canon(Refine(Refine(TVar("α"), ((TVar("a"), TVar("b")),)),
                          ((TVar("c"), TVar("d")),)))
    assert t == ct("α")
    assert rho == cs((ct("a"), ct("b")), (ct("c"), ct("d")))


def test_canon_refined_constraint_sides_flattened():
    # {α{|ρ1|} ⊑ β{|ρ2|}} = {α ⊑ β} ∪ ρ1 ∪ ρ2
    pairs = ((Refine(TVar("α"), ((TVar("p"), TVar("q")),)),
              Refine(TVar("β"), ((TVar("r"), TVar("s")),))),)
    _, rho = canon(Refine(Bot(), pairs))
    assert rho == cs((ct("α"), ct("β")), (ct("p"), ct("q")), (ct("r"), ct("s")))


def test_constraint_absorbs_rhs_vars_on_lhs():
    c = Constraint.make(ct("γ", "α1", "β"), ct("β"))
    assert c.lhs == ct("γ", "α1") and c.rhs == ct("β")


def test_bottom_lhs_constraints_dropped():
    assert cs((TBOT, ct("β"))) == EMPTY
    assert cs((ct("β"), ct("β"))) == EMPTY  # fully absorbed


# ---------------------------------------------------------------------------
# join algebra
# ---------------------------------------------------------------------------

def test_join_properties_exhaustive_small():
    vals = [CanonType(v) for k in range(3) for v in itertools.combinations("abc", k)]
    for a, b in itertools.product(vals, repeat=2):
        assert a.join(b) == b.join(a)
        assert a.join(a) == a
        assert a.join(TBOT) == a
    for a, b, c in itertools.product(vals[:5], repeat=3):
        assert a.join(b.join(c)) == a.join(b).join(c)


@given(st.lists(st.sampled_from("abcdef"), max_size=6),
       st.lists(st.sampled_from("abcdef"), max_size=6))
def test_join_commutative_random(xs, ys):
    a, b = CanonType(tuple(xs)), CanonType(tuple(ys))
    assert a.join(b) == b.join(a)


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def test_substitute_simple():
    assert substitute_type(ct("δ"), {"δ": ct("α", "β")}) == ct("α", "β")


def test_substitute_missing_var_is_identity():
    assert substitute_type(ct("α"), {"δ": ct("β")}) == ct("α")


def test_substitute_constraint_with_absorption():
    # {γ⊔δ1⊔α3⊔α1⊔δ2⊔α2 ⊑ β}[γ/δ1][γ⊔β/δ2] = {γ⊔α1⊔α2⊔α3 ⊑ β}
    rho = cs((ct("γ", "δ1", "α3", "α1", "δ2", "α2"), ct("β")))
    out = substitute_constraints(rho, {"δ1": ct("γ"), "δ2": ct("γ", "β")})
    assert out == cs((ct("γ", "α1", "α2", "α3"), ct("β")))


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

def test_two_point_lattice():
    lat = Lattice.two_point()
    assert lat.leq("L", "H") and not lat.leq("H", "L")
    assert lat.join("L", "H") == "H"
    assert lat.bottom == "L" and lat.top == "H"


def test_powerset_lattice():
    lat = Lattice.powerset(2)
    assert set(lat.elements) == {"bot", "a", "b", "ab"}
    assert lat.join("a", "b") == "ab"
    assert lat.leq("bot", "ab")
    assert not lat.leq("a", "b")


# (elements, bottom, covers, the message of the poset's first fault)
_MALFORMED = {
    "bottom-not-an-element": (["a", "b"], "z", [("a", "b")], "bottom 'z' is not an element"),
    "unknown-cover-element": (["a", "b"], "a", [("a", "b"), ("b", "zzz"), ("yyy", "a")],
                              "cover ('b', 'zzz') uses unknown elements"),
    "two-cycle": (["a", "b"], "a", [("a", "b"), ("b", "a")],
                  "order is not antisymmetric: 'a' and 'b'"),
    # two cycles, {e0, e2} and {e4, e5}: the pair named is the first element in
    # element order that lies on a cycle, then the first other element of its
    # cycle, although e5 is the first element whose upper set repeats one seen
    "first-pair-in-element-order": (
        ["e2", "e1", "e4", "e5", "e3", "e0"], "e0",
        [("e2", "e0"), ("e4", "e5"), ("e5", "e4"), ("e1", "e4"), ("e0", "e3"),
         ("e1", "e5"), ("e0", "e2"), ("e2", "e1")],
        "order is not antisymmetric: 'e2' and 'e0'"),
    "bottom-not-below": (["a", "b", "c"], "a", [("a", "c")], "bottom is not below 'b'"),
    # two maximal elements above two minimal ones: {a,b} have two upper bounds
    "two-minimal-upper-bounds": (
        ["bot", "a", "b", "x", "y"], "bot",
        [("bot", "a"), ("bot", "b"), ("a", "x"), ("b", "x"), ("a", "y"), ("b", "y")],
        "elements 'a' and 'b' lack a unique join"),
}


@pytest.mark.parametrize("case", _MALFORMED)
def test_lattice_error_messages(case):
    elements, bottom, covers, message = _MALFORMED[case]
    with pytest.raises(LatticeError) as exc:
        Lattice(elements, bottom, covers)
    assert str(exc.value) == message


def test_lattice_operations_reject_non_elements():
    lat = Lattice.two_point()
    for call in (lambda: lat.leq("L", "Z"), lambda: lat.leq("Z", "Y"),
                 lambda: lat.join("H", "Z"), lambda: lat.join("Z", "Y")):
        with pytest.raises(LatticeError) as exc:
            call()
        assert str(exc.value) == "'Z' is not an element of lattice two-point"


def test_lattice_deduplicates_repeated_elements():
    lat = Lattice(["L", "M", "L", "H", "M"], "L", [("L", "M"), ("M", "M"), ("M", "H")])
    assert lat.elements == ("L", "M", "H")
    assert lat.leq("L", "H") and not lat.leq("H", "M")
    assert lat.join("M", "L") == "M" and lat.join("H", "L") == "H"


def _join_oracle(elements, covers):
    """Reference join table: the least of all common upper bounds, found by
    comparing every pair of them; or the error for the first pair without."""
    up = {e: {e} for e in elements}
    changed = True
    while changed:
        changed = False
        for lo, hi in covers:
            if not up[hi] <= up[lo]:
                up[lo] |= up[hi]
                changed = True
    table = {}
    for a in elements:
        for b in elements:
            uppers = [x for x in elements if x in up[a] and x in up[b]]
            lubs = [x for x in uppers if all(y in up[x] for y in uppers)]
            if len(lubs) != 1:
                return f"elements {a!r} and {b!r} lack a unique join"
            table[(a, b)] = lubs[0]
    return table


def _construction_oracle(elements, bottom, covers):
    """Reference lattice construction over sets of names: each element's
    upper set as a set, every pair's join in a table. The text of the first
    `LatticeError` it finds, or else its `leq` and `join` tables."""
    elements = tuple(dict.fromkeys(elements))
    if bottom not in elements:
        return f"bottom {bottom!r} is not an element"
    up = {e: {e} for e in elements}
    for lo, hi in covers:
        if lo not in up or hi not in up:
            return f"cover ({lo!r}, {hi!r}) uses unknown elements"
    changed = True
    while changed:
        changed = False
        for lo, hi in covers:
            new = up[hi] - up[lo]
            if new:
                up[lo] |= new
                changed = True
    for a in elements:
        for b in elements:
            if a != b and b in up[a] and a in up[b]:
                return f"order is not antisymmetric: {a!r} and {b!r}"
    for e in elements:
        if e not in up[bottom]:
            return f"bottom is not below {e!r}"
    by_up = {frozenset(u): e for e, u in up.items()}
    join = {}
    for i, a in enumerate(elements):
        for b in elements[i:]:
            lub_ab = by_up.get(frozenset(up[a] & up[b]))
            if lub_ab is None:
                return f"elements {a!r} and {b!r} lack a unique join"
            join[(a, b)] = join[(b, a)] = lub_ab
    return {(a, b): b in up[a] for a in elements for b in elements}, join


def _draw_poset(rng):
    """Elements, bottom and covers of a random poset, often malformed: covers
    upward from e0 and between later elements, and at times random covers
    (cycles, self-covers), a cover naming an unknown element, a repeated
    element or another bottom."""
    n = rng.randint(1, 7)
    names = [f"e{i}" for i in range(n)]
    covers = [("e0", e) for e in names[1:] if rng.random() < 0.9]
    covers += [(names[i], names[j]) for i in range(1, n) for j in range(i + 1, n)
               if rng.random() < 0.3]
    covers += [(rng.choice(names), rng.choice(names)) for _ in range(rng.choice((0, 0, 1, 3)))]
    if rng.random() < 0.05:
        covers.insert(rng.randint(0, len(covers)), rng.choice([("x", "e0"), ("e0", "x")]))
    rng.shuffle(covers)
    elements = names[:]
    rng.shuffle(elements)
    if rng.random() < 0.2:
        elements.insert(rng.randint(0, n), rng.choice(names))
    bottom = "e0" if rng.random() < 0.85 else rng.choice(names + ["x"])
    return elements, bottom, covers


def test_join_table_matches_oracle_on_random_posets():
    # many of these posets are malformed, and the element order decides which
    # pair a message names; every accepted one also matches the join of all
    # common upper bounds
    rng = random.Random(11)
    rejected, messages = 0, set()
    for _ in range(5000):
        elements, bottom, covers = _draw_poset(rng)
        expected = _construction_oracle(elements, bottom, covers)
        try:
            lat = Lattice(elements, bottom, covers)
        except LatticeError as exc:
            assert str(exc) == expected
            rejected += 1
            messages.add(str(exc).split("'")[0])
            continue
        leq, join = expected
        assert {(a, b): lat.leq(a, b) for a in lat.elements for b in lat.elements} == leq
        assert {(a, b): lat.join(a, b) for a in lat.elements for b in lat.elements} == join
        assert _join_oracle(lat.elements, covers) == join
    assert 1000 < rejected < 4000
    assert messages == {"bottom ", "cover (", "order is not antisymmetric: ",
                        "bottom is not below ", "elements "}


def test_lattice_matches_construction_oracle_on_generated_lattices():
    rng = random.Random(15)
    for _ in range(500):
        elements, bottom, covers = _mask_poset(_draw_masks(rng))
        lat = Lattice(elements, bottom, covers)
        leq, join = _construction_oracle(elements, bottom, covers)
        assert {(a, b): lat.leq(a, b) for a in elements for b in elements} == leq
        assert {(a, b): lat.join(a, b) for a in elements for b in elements} == join


@pytest.mark.parametrize("data", [chain(800), chain(800, descending=True), powerset(10)],
                         ids=["chain800-ascending", "chain800-descending", "powerset1024"])
def test_large_lattices_build_in_time(data):
    start = time.perf_counter()
    lat = Lattice.from_json(data)
    assert time.perf_counter() - start < 2
    assert lat.elements == tuple(data["elements"])
    top = data["elements"][-1]
    assert lat.join(lat.bottom, top) == top and lat.leq(lat.bottom, top)
    a, b = data["elements"][3], data["elements"][-2]
    assert lat.leq(a, lat.join(a, b)) and lat.leq(b, lat.join(a, b))


def test_lattice_load_builtins(tmp_path):
    assert Lattice.load("two-point").name == "two-point"
    assert Lattice.load("powerset:3").name == "powerset:3"
    f = tmp_path / "lat.json"
    f.write_text('{"elements": ["L", "M", "H"], "bottom": "L",'
                 ' "covers": [["L", "M"], ["M", "H"]]}')
    lat = Lattice.load(str(f))
    assert lat.join("L", "H") == "H" and lat.leq("M", "H")


# ---------------------------------------------------------------------------
# ground instantiation
# ---------------------------------------------------------------------------

def test_eval_ground_empty_is_bottom():
    lat = Lattice.two_point()
    assert eval_ground(TBOT, {}, lat) == "L"


def test_eval_ground_joins():
    lat = Lattice.two_point()
    assert eval_ground(ct("α", "β"), {"α": "L", "β": "H"}, lat) == "H"
    assert eval_ground(ct("α"), {"α": "L"}, lat) == "L"


def test_eval_ground_unbound_var():
    with pytest.raises(InferError):
        eval_ground(ct("α"), {}, Lattice.two_point())


def test_satisfies_examples():
    lat = Lattice.two_point()
    assert satisfies(EMPTY, {}, lat)
    assert not satisfies(cs((ct("α"), ct("β"))), {"α": "H", "β": "L"}, lat)
    ctr = cs((ct("γ", "α1", "α2", "α3"), ct("β")))
    s = {"γ": "L", "α1": "L", "α2": "L", "α3": "L", "β": "H"}
    assert satisfies(ctr, s, lat)


def test_eval_ground_monotone_random():
    rng = random.Random(5)
    lat = Lattice.powerset(3)
    for _ in range(200):
        vs = [rng.choice("pqrstu") for _ in range(rng.randint(0, 4))]
        s = {v: rng.choice(lat.elements) for v in set(vs) | {"w"}}
        smaller = CanonType(tuple(vs))
        bigger = smaller.join(ct("w"))
        assert lat.leq(eval_ground(smaller, s, lat), eval_ground(bigger, s, lat))


@settings(max_examples=200)
@given(st.lists(st.sampled_from("pqr"), max_size=4),
       st.sampled_from("pqr"),
       st.lists(st.sampled_from("pqr"), min_size=1, max_size=3))
def test_substitute_commutes_with_eval(target, var, repl):
    lat = Lattice.powerset(3)
    rng = random.Random(hash((tuple(target), var, tuple(repl))) & 0xFFFF)
    s = {v: rng.choice(lat.elements) for v in "pqr"}
    t = CanonType(tuple(target))
    u = CanonType(tuple(repl))
    substituted = substitute_type(t, {var: u})
    s2 = dict(s)
    s2[var] = eval_ground(u, s, lat)
    assert eval_ground(substituted, s, lat) == eval_ground(t, s2, lat)


# ---------------------------------------------------------------------------
# least solutions
# ---------------------------------------------------------------------------

def test_least_solution_single_step():
    lat = Lattice.two_point()
    rho = cs((ct("γ", "α1", "α2", "α3"), ct("β")))
    s = least_solution(rho, {"γ": "L", "α1": "L", "α2": "H", "α3": "L"}, lat)
    assert s is not None and s["β"] == "H"


def test_least_solution_empty_constraints():
    lat = Lattice.two_point()
    assert least_solution(EMPTY, {}, lat) == {}
    s = least_solution(cs((ct("α"), ct("β"))), {}, lat)
    assert s == {"α": "L", "β": "L"}


def test_least_solution_unsat():
    lat = Lattice.two_point()
    assert least_solution(cs((ct("α"), ct("β"))), {"α": "H", "β": "L"}, lat) is None


def test_violations_reported():
    lat = Lattice.two_point()
    rho = cs((ct("α"), ct("β")), (ct("γ"), ct("β")))
    bad = violations(rho, {"α": "H", "β": "L", "γ": "L"}, lat)
    assert bad == [Constraint.make(ct("α"), ct("β"))]


def test_lub_helper_builds_joins():
    assert canon(lub(TVar("a"), TVar("b"), BOT)) == (ct("a", "b"), EMPTY)
    assert canon(lub()) == (TBOT, EMPTY)


def _least_fixpoint_oracle(rho, fixed, lat):
    """Reference least fixpoint: sweep every pumpable constraint until a
    whole sweep changes nothing."""
    s = {v: lat.bottom for v in rho.variables}
    s.update(fixed)
    pumpable = [c for c in rho if len(c.rhs.vars) == 1 and c.rhs.vars[0] not in fixed]
    changed = True
    while changed:
        changed = False
        for c in pumpable:
            target = c.rhs.vars[0]
            val = lat.join(s[target], eval_ground(c.lhs, s, lat))
            if val != s[target]:
                s[target] = val
                changed = True
    return s


def test_least_fixpoint_matches_oracle_on_random_systems():
    rng = random.Random(12)
    lattices = [Lattice.two_point()] + [Lattice.powerset(n) for n in (1, 2, 3)]
    for _ in range(1500):
        lat = gen_lattice(rng) if rng.random() < 0.7 else rng.choice(lattices)
        pool = [f"v{i}" for i in range(rng.randint(1, 8))]
        rho = ConstraintSet(
            Constraint.make(ct(*rng.sample(pool, rng.randint(1, min(3, len(pool))))),
                            ct(*rng.sample(pool, rng.randint(1, min(2, len(pool))))))
            for _ in range(rng.randint(0, 12)))
        fixed = {v: rng.choice(lat.elements) for v in pool if rng.random() < 0.3}
        got = least_fixpoint(rho, fixed, lat)
        assert list(got.items()) == list(_least_fixpoint_oracle(rho, fixed, lat).items())


def test_least_fixpoint_matches_oracle_on_program_constraints():
    # the systems checking solves: full node constraints with the interface fixed
    rng = random.Random(13)
    for _ in range(150):
        for res in infer_program(elaborate(gen_program(rng))).values():
            lat = gen_lattice(rng)
            fixed = {v: rng.choice(lat.elements) for v in res.signature.interface_vars()}
            rho = res.full_constraints
            got = least_fixpoint(rho, fixed, lat)
            assert list(got.items()) == list(_least_fixpoint_oracle(rho, fixed, lat).items())


def _random_system(rng, pool, size):
    return ConstraintSet(
        Constraint.make(ct(*rng.sample(pool, rng.randint(1, min(3, len(pool))))),
                        ct(rng.choice(pool)))
        for _ in range(rng.randint(0, size)))


def test_not_entailed_matches_two_point_brute_force():
    """With one-variable right-hand sides, entailment over every lattice is
    decided exactly: a constraint is reported iff some two-point assignment
    satisfies rho and violates it, and the reported instantiation does."""
    rng = random.Random(21)
    lat = Lattice.two_point()
    for _ in range(1200):
        pool = [f"v{i}" for i in range(rng.randint(1, 7))]
        rho, other = _random_system(rng, pool, 10), _random_system(rng, pool, 6)
        names = sorted(rho.variables | other.variables)
        models = [s for s in (dict(zip(names, bits))
                              for bits in itertools.product("LH", repeat=len(names)))
                  if satisfies(rho, s, lat)]
        want = [c for c in other if not all(satisfies(ConstraintSet([c]), s, lat) for s in models)]
        got = list(not_entailed(rho, other))
        assert [c for c, _ in got] == want
        for c, inst in got:
            assert satisfies(rho, inst, lat) and not satisfies(ConstraintSet([c]), inst, lat)


def test_not_entailed_needs_one_variable_right_hand_sides():
    with pytest.raises(AssertionError):
        list(not_entailed(EMPTY, cs((ct("a"), ct("b", "c")))))
