"""Seeded inputs for the benchmark and hand-written references for them.

Nothing here imports luset: the known answers the benchmark checks against
come from the construction of each input, never from the code under test.

Program structure is fixed per program name (chosen by an RNG seeded with
the name); the workload seed only picks the integer literals. Every literal
is distinct and has at least four digits, so masking literals by their
position (`mask_literals`) gives text that is the same for every seed.
"""

from __future__ import annotations

import hashlib
import random
import re

CHAIN_SIZES = (16, 32, 64, 128)
TREE_DEPTHS = (8, 11, 14)
CHAIN_INPUTS = 4

_LITERAL_RE = re.compile(r"\b\d{4,}\b")

# Each chain equation reads the previous link `p` and one more operand `q`;
# the literals are C0, C1 in order of appearance.
_TEMPLATES = (
    "{p} + {q}",
    "{p} * {C0} - {q}",
    "{C0} fby ({p} + {q})",
    "if {p} > {C0} then {q} else {p} - {C1}",
    "({C0} fby {p}) + {q}",
    "if {q} < {p} then ({C0} fby {q}) else {p} + {C1}",
)
_TEMPLATE_LITERALS = tuple(t.count("{C") for t in _TEMPLATES)


def wrap64(v: int) -> int:
    return ((v + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)


def literals(seed: int, name: str, count: int) -> list[int]:
    """`count` distinct literals of 4 to 6 digits for one program."""
    return random.Random(f"{seed}:{name}").sample(range(1000, 1_000_000), count)


def mask_literals(text: str, lits: list[int]) -> str:
    """Replace each generated literal by `#<index>`; other numbers stay."""
    index = {str(v): i for i, v in enumerate(lits)}
    return _LITERAL_RE.sub(lambda m: f"#{index[m.group()]}" if m.group() in index
                           else m.group(), text)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Chain:
    """A single node `chain<k>` with CHAIN_INPUTS int inputs, k equations
    mixing fby, if and arithmetic, and one int output. Equation j reads the
    link defined by equation j-1 and, for j <= CHAIN_INPUTS, input a<j>, so
    every input reaches the output."""

    def __init__(self, k: int, seed: int):
        self.k = k
        self.name = f"chain{k}"
        shape = random.Random(self.name)
        self.inputs = [f"a{i}" for i in range(1, CHAIN_INPUTS + 1)]
        self.eqs: list[tuple[str, int, str, str]] = []  # target, template, p, q
        for j in range(1, k + 1):
            target = "y" if j == k else f"x{j}"
            p = f"x{j - 1}" if j > 1 else "a1"
            if j <= CHAIN_INPUTS:
                q = f"a{j}"
            else:
                q = shape.choice(self.inputs + [f"x{i}" for i in range(1, j - 1)])
            self.eqs.append((target, shape.randrange(len(_TEMPLATES)), p, q))
        self.lits = literals(seed, self.name, sum(_TEMPLATE_LITERALS[t] for _, t, _, _ in self.eqs))

    def _eq_literals(self):
        pos = 0
        for target, t, p, q in self.eqs:
            n = _TEMPLATE_LITERALS[t]
            yield target, t, p, q, self.lits[pos:pos + n]
            pos += n

    def source(self) -> str:
        lines = [f"node {self.name}({', '.join(self.inputs)}: int) returns (y: int);"]
        if self.k > 1:
            lines.append(f"var {', '.join(f'x{j}' for j in range(1, self.k))}: int;")
        lines.append("let")
        for target, t, p, q, cs in self._eq_literals():
            body = _TEMPLATES[t].format(p=p, q=q, **{f"C{i}": c for i, c in enumerate(cs)})
            lines.append(f"  {target} = {body};")
        lines.append("tel")
        return "\n".join(lines) + "\n"

    def reference(self, inputs: dict[str, list[int]], ticks: int) -> list[int]:
        """Output stream of the chain, from its construction (64-bit wrap)."""
        eqs = list(self._eq_literals())
        saved: dict[int, int] = {}  # per-equation delayed value
        out = []
        for t in range(ticks):
            vals = {a: inputs[a][t] for a in self.inputs}
            nxt: dict[int, int] = {}
            for i, (target, tmpl, p, q, cs) in enumerate(eqs):
                pv, qv = vals[p], vals[q]
                if tmpl == 0:
                    v = wrap64(pv + qv)
                elif tmpl == 1:
                    v = wrap64(wrap64(pv * cs[0]) - qv)
                elif tmpl == 2:
                    v = cs[0] if t == 0 else saved[i]
                    nxt[i] = wrap64(pv + qv)
                elif tmpl == 3:
                    v = qv if pv > cs[0] else wrap64(pv - cs[1])
                elif tmpl == 4:
                    v = wrap64((cs[0] if t == 0 else saved[i]) + qv)
                    nxt[i] = pv
                else:
                    delayed = cs[0] if t == 0 else saved[i]
                    nxt[i] = qv
                    v = delayed if qv < pv else wrap64(pv + cs[1])
                vals[target] = v
            saved = nxt
            out.append(vals["y"])
        return out


class Tree:
    """Nodes N0..N<d>, where N<i> calls N<i-1> twice: `check` walks all 2^d
    call paths. Every node has one int input and one int output."""

    def __init__(self, depth: int, seed: int):
        self.depth = depth
        self.name = f"tree{depth}"
        self.top = f"N{depth}"
        self.inputs = ["x"]
        self.lits = literals(seed, self.name, 3 * (depth + 1))

    def source(self) -> str:
        c = self.lits
        out = ["node N0(x: int) returns (y: int);", "let",
               f"  y = if x > {c[0]} then x - {c[1]} else {c[2]} fby x;", "tel"]
        for i in range(1, self.depth + 1):
            a, b, d = c[3 * i:3 * i + 3]
            out += [f"node N{i}(x: int) returns (y: int);", "var u, w: int;", "let",
                    f"  u = N{i - 1}(x);",
                    f"  w = N{i - 1}({a} fby (x + u));",
                    f"  y = if u > w then u - {b} else w + {d};", "tel"]
        return "\n".join(out) + "\n"


def analyse_corpus(seed: int) -> list:
    return [Chain(k, seed) for k in CHAIN_SIZES] + [Tree(d, seed) for d in TREE_DEPTHS]


# ---------------------------------------------------------------------------
# Hand-written references for the sample programs
# ---------------------------------------------------------------------------

def ctr_reference(init: list[int], incr: list[int], rst: list[bool]) -> list[int]:
    """samples/ctr.lus `Ctr`: n = if (fst or rst) then init else pre_n + incr."""
    out = []
    for t, (i, d, r) in enumerate(zip(init, incr, rst)):
        out.append(i if t == 0 or r else wrap64(out[-1] + d))
    return out


def spdmtr_reference(acc: list[int]) -> tuple[list[int], list[int]]:
    """samples/ctr.lus `SpdMtr`: spd is the running sum of acc from 0 on,
    pos the running sum of spd from 3 on (both after the first tick)."""
    n = len(acc)
    spd = ctr_reference([0] * n, acc, [False] * n)
    pos = ctr_reference([3] * n, spd, [False] * n)
    return spd, pos


def retrig_reference(i: list[bool], n: list[int]) -> list[bool]:
    """samples/retrig.lus `re_trig`: on a rising edge of i the count-down
    restarts from n; it keeps counting (one step per tick) while the output
    held on the previous tick, and the output is `count > 0`."""
    out: list[bool] = []
    prev_i = prev_o = False
    started, cpt = False, 0
    for t, (it, nt) in enumerate(zip(i, n)):
        edge = it and t > 0 and not prev_i
        ck = edge or (t > 0 and prev_o)
        v = 0
        if ck:
            cpt = nt if edge or not started else wrap64(cpt - 1)
            started = True
            v = cpt
        o = v > 0
        out.append(o)
        prev_i, prev_o = it, o
    return out


def spdmtr_inputs(rng: random.Random, ticks: int) -> dict[str, list]:
    return {"acc": [rng.randrange(-(1 << 40), 1 << 40) for _ in range(ticks)]}


def retrig_inputs(rng: random.Random, ticks: int) -> dict[str, list]:
    return {"i": [rng.random() < 0.3 for _ in range(ticks)],
            "n": [rng.randrange(1, 12) for _ in range(ticks)]}


def chain_inputs(rng: random.Random, chain: Chain, ticks: int) -> dict[str, list]:
    return {a: [rng.randrange(-(1 << 31), 1 << 31) for _ in range(ticks)]
            for a in chain.inputs}


def csv_text(columns: dict[str, list]) -> str:
    def cell(v):
        return ("true" if v else "false") if isinstance(v, bool) else str(v)
    names = list(columns)
    rows = [",".join(names)]
    rows += [",".join(cell(columns[x][t]) for x in names)
             for t in range(len(columns[names[0]]))]
    return "\n".join(rows) + "\n"
