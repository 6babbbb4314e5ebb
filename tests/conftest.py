import random
from functools import reduce
from pathlib import Path

import pytest

from luset.harness import FAIL, PASS, CheckReport, _observed
from luset.infer import FreshVars, _CallCtx, _clock, _eliminate, _equation, infer_program
from luset.lang import elaborate, eq_targets
from luset.parser import parse_program
from luset.sectypes import (BOT, CanonType, Constraint, ConstraintSet, Lattice, Lub, SecType,
                            TVar, canon, eval_ground)
from luset.streams import ABSENT

CTR_SRC = """
-- a simple counter node with a reset
node Ctr(init, incr: int, rst: bool) returns (n: int);
var fst: bool, pre_n: int;
let
  n = if (fst or rst) then init else pre_n + incr;
  fst = true fby false;
  pre_n = 0 fby n;
tel
"""

CTR_SPDMTR_SRC = CTR_SRC + """
node SpdMtr(acc: int) returns (spd, pos: int);
let
  spd = Ctr(0, acc, false);
  pos = Ctr(3, spd, false);
tel
"""

CNT_DN_SRC = """
node cnt_dn(res: bool; n: int) returns (cpt: int);
let
  cpt = if res then n else (n fby (cpt - 1));
tel
"""

RE_TRIG_SRC = CNT_DN_SRC + """
node re_trig(i: bool; n: int) returns (o: bool);
var edge, ck: bool, v: int;
let
  edge = i and (false fby (not i));
  ck = edge or (false fby o);
  v = merge ck (cnt_dn((edge, n) when ck)) (0 when not ck);
  o = v > 0;
tel
"""

LEAK_ITE_SRC = """
-- b secret, c public
node Leak(b: bool) returns (c: int);
let
  c = if b then 1 else 0;
tel
"""

LEAK_MERGE_SRC = """
-- x secret, c0 public
node Leak2(x: bool) returns (c0: int);
let
  c0 = merge x 1 0;
tel
"""

# the example run of the counter (7 ticks)
CTR_TABLE = {
    "init": [1, 2, 1, 1, 0, 2, 4],
    "incr": [1, 2, 2, 3, 3, 1, 2],
    "rst": [False, False, False, False, True, False, True],
    "fst": [True, False, False, False, False, False, False],
    "n": [1, 3, 5, 8, 0, 1, 4],
    "pre_n": [0, 1, 3, 5, 8, 0, 1],
}


_CHAIN_BODIES = ("{p} + {q}", "{p} * 3 - {q}", "0 fby ({p} + {q})",
                 "if {p} > 5 then {q} else {p} - 1")


def chain_src(k: int) -> str:
    """One node `chain` with four int inputs and k equations in a chain:
    equation j reads the link j-1 and one input or earlier link."""
    inputs = ["a1", "a2", "a3", "a4"]
    lines = [f"node chain({', '.join(inputs)}: int) returns (y: int);"]
    if k > 1:
        lines.append(f"var {', '.join(f'x{j}' for j in range(1, k))}: int;")
    lines.append("let")
    for j in range(1, k + 1):
        p = f"x{j - 1}" if j > 1 else "a1"
        q = inputs[j - 1] if j <= len(inputs) else f"x{j // 2}"
        target = "y" if j == k else f"x{j}"
        lines.append(f"  {target} = {_CHAIN_BODIES[j % 4].format(p=p, q=q)};")
    lines.append("tel")
    return "\n".join(lines) + "\n"


def tree_src(depth: int) -> str:
    """Nodes N0..N<depth>, where N<i> calls N<i-1> twice, so the call tree
    of N<depth> has 2^depth paths."""
    out = ["node N0(x: int) returns (y: int);", "let",
           "  y = if x > 0 then x - 1 else 0 fby x;", "tel"]
    for i in range(1, depth + 1):
        out += [f"node N{i}(x: int) returns (y: int);", "var u, w: int;", "let",
                f"  u = N{i - 1}(x);", f"  w = N{i - 1}(1 fby (x + u));",
                "  y = if u > w then u - 2 else w + 3;", "tel"]
    return "\n".join(out) + "\n"


ROOT = Path(__file__).resolve().parent.parent

# Characters spliced into the mutation corpus: one no token starts with, three
# word characters that start no word (`²`, `½`) or are no blank (NBSP), a
# form feed, and CR, which is a blank.
_SPLICES = {"at": "@", "sup2": "\u00b2", "half": "\u00bd", "nbsp": "\u00a0",
            "ff": "\f", "cr": "\r"}


def mutation_corpus(step: int):
    """(label, text) for each source under `samples/` and `tests/data/` cut
    at every `step`-th character offset, and with each `_SPLICES` character
    inserted there. The label `<stem>-<offset>-<cut|splice>.lus` serves as
    the file name of the parse diagnostics."""
    paths = sorted((ROOT / "samples").glob("*.lus")) + sorted((ROOT / "tests" / "data").glob("*.lus"))
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for k in range(0, len(text) + 1, step):
            yield f"{path.stem}-{k}-cut.lus", text[:k]
            for tag, ch in _SPLICES.items():
                yield f"{path.stem}-{k}-{tag}.lus", text[:k] + ch + text[k:]


def interpreted_normal_form(prog, name, ins, bs):
    """`streams.run_compiled` of node `name` with its normal form run on the
    tree interpreter instead: the source node's history, in declaration
    order, the inputs' streams being the lists of `ins`. The normal form is
    `harness`'s, so a test that replaces `harness.normalize_program` runs its
    replacement."""
    from luset import harness
    from interpreter import interpret_node
    nprog, _ = harness.normalize_program(prog)
    node = nprog.node(name)
    inputs = dict(zip([d.name for d in node.inputs], ins))
    history = interpret_node(nprog, node, inputs, len(bs), bs)
    source = prog.node(name)
    return inputs | {d.name: history[d.name] for d in source.outputs + source.locals}


@pytest.fixture
def ctr_prog():
    return elaborate(parse_program(CTR_SRC))


@pytest.fixture
def ctr_spdmtr_prog():
    return elaborate(parse_program(CTR_SPDMTR_SRC))


@pytest.fixture
def cnt_dn_prog():
    return elaborate(parse_program(CNT_DN_SRC))


@pytest.fixture
def re_trig_prog():
    return elaborate(parse_program(RE_TRIG_SRC))


def check_canonical_order_independence(samples: int = 100, seed: int = 0) -> CheckReport:
    """Canonicalisation does not depend on the shape of the join tree."""
    rng = random.Random(seed)
    pool = [f"δ{i}" for i in range(1, 7)]
    for trial in range(samples):
        leaves = [TVar(rng.choice(pool)) for _ in range(rng.randint(2, 8))]
        reference = None
        for _ in range(4):
            shuffled = list(leaves)
            rng.shuffle(shuffled)
            tree: SecType = shuffled[0]
            for leaf in shuffled[1:]:
                tree = Lub(tree, leaf) if rng.random() < 0.5 else Lub(leaf, tree)
            got = canon(tree)
            if reference is None:
                reference = got
            elif got != reference:
                return CheckReport("canonical-order-independence", FAIL,
                                   trials=trial + 1, seed=seed,
                                   counterexample={"leaves": [l.name for l in leaves]})
    return CheckReport("canonical-order-independence", PASS, trials=samples, seed=seed)


def substitute_type(t: CanonType, sub: dict[str, CanonType]) -> CanonType:
    """Simultaneous substitution into a canonical type."""
    out: list[str] = []
    for v in t.vars:
        out.extend(sub[v].vars if v in sub else (v,))
    return CanonType(tuple(out))


def substitute_constraints(rho, sub: dict[str, CanonType]) -> ConstraintSet:
    return ConstraintSet(Constraint.make(substitute_type(c.lhs, sub), substitute_type(c.rhs, sub))
                         for c in rho)


def gen_lattice(rng: random.Random, max_elements: int = 8) -> Lattice:
    """A random join-semilattice: the OR-closure of a few 4-bit masks."""
    return _mask_lattice(_draw_masks(rng, max_elements))


def _draw_masks(rng: random.Random, max_elements: int = 8) -> frozenset[int]:
    """The OR-closure of a few random 4-bit masks and 0, redrawn until it
    has at most `max_elements` masks."""
    while True:
        seeds = {rng.randrange(1, 16) for _ in range(rng.randint(1, 3))}
        masks = {0} | seeds
        changed = True
        while changed:
            changed = False
            for a in list(masks):
                for b in list(masks):
                    if (a | b) not in masks:
                        masks.add(a | b)
                        changed = True
        if len(masks) <= max_elements:
            return frozenset(masks)


def _mask_lattice(masks: frozenset[int]) -> Lattice:
    """The lattice of a set of masks ordered by inclusion."""
    names = {m: f"m{m}" for m in sorted(masks)}
    covers = [(names[a], names[b]) for a in masks for b in masks
              if a != b and a | b == b]
    return Lattice(list(names.values()), names[0], covers,
                   name=f"random{len(masks)}")


# ---------------------------------------------------------------------------
# Small helpers of the tests, over the package's own paths
# ---------------------------------------------------------------------------

def present(v) -> bool:
    return v is not ABSENT


def presence_fold(inputs, n_ticks):
    """The pointwise presence of the inputs over the first `n_ticks` ticks,
    folded one input at a time; live at every tick with no input."""
    bs = [not inputs] * n_ticks
    for vs in inputs:
        bs = [b or v is not ABSENT for b, v in zip(bs, vs)]
    return bs


def defined_vars(eq) -> set[str]:
    return set(eq_targets(eq))


def project_history(history, levels, level: str, lat: Lattice):
    """Restrict a history to the variables at or below the given level."""
    observed = _observed(levels, level, lat)
    return {x: vs for x, vs in history.items() if x in observed}


def lub(*parts: SecType) -> SecType:
    """Left-nested join of the given raw types (Bot when empty)."""
    return reduce(Lub, parts) if parts else BOT


def lattice_top(lat: Lattice) -> str | None:
    """The greatest element of a lattice, None when it has none."""
    tops = [e for e in lat.elements if all(lat.leq(x, e) for x in lat.elements)]
    return tops[0] if tops else None


Lattice.top = property(lattice_top)  # the tests read it as `lat.top`


def signatures(prog) -> dict:
    """Each node's inferred signature, by node name."""
    return {name: res.signature for name, res in infer_program(prog).items()}


def satisfies(rho: ConstraintSet, s, lat: Lattice) -> bool:
    return all(lat.leq(eval_ground(c.lhs, s, lat), eval_ground(c.rhs, s, lat)) for c in rho)


def type_clock(env, ck) -> CanonType:
    """Security type of a clock: the base entry joined with every sampled
    variable on the chain."""
    ctx = _CallCtx({}, FreshVars(), env)
    return ctx.canon(_clock(ctx.env, ck))


def type_equation(env, eq, sigs) -> ConstraintSet:
    """Constraints of one equation: γ ⊔ αi ⊑ βi per defined variable, plus
    the instantiated constraints of every node it calls."""
    ctx = _CallCtx(sigs, FreshVars(), env)
    _equation(ctx, eq)
    return ctx.constraints(ctx.pairs)


def simplify(rho: ConstraintSet, order: list[str]) -> ConstraintSet:
    """Eliminate the given type variables from rho (see `infer._eliminate`)."""
    ctx = _CallCtx({}, FreshVars())
    pairs = [(ctx.mask(c.lhs), ctx.mask(c.rhs)) for c in rho]
    return ctx.constraints(_eliminate(pairs, order, ctx.bits))
