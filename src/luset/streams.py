"""Finite-prefix executable model of the clocked stream semantics.

Streams are lists of length N holding plain Python values (int/bool) where a
value is present and the ABSENT sentinel where it is not.

`run_node` checks a run's inputs at the node's interface (`check_inputs`)
before the first tick, and runs the node as compiled core-form code (see
`codegen`) through `run_compiled`: the package has one executable
evaluator.

The whole-prefix stream operators (`const_stream` … `base_of`) compute a
stream over a whole prefix at once, and raise an `EvalError` at the first
tick where an operator is stuck; `eval_clock` is the one clock evaluator.
`semantics` builds the paper's relational semantics from them, as a
predicate over whole histories (`sem_node`) and as the streams of one
expression (`sem_exp`).
"""

from __future__ import annotations

import csv
import operator
from typing import Callable, Sequence, Union

from .diagnostics import EvalError
from .lang import BASE, Clock, ClockOn, Node, Program, clock_vars


class _Absent:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "‹›"


ABSENT = _Absent()

Value = Union[int, bool, _Absent]
VStream = list  # list[Value]
BStream = list  # list[bool]
History = dict  # dict[str, VStream]


def present(v: Value) -> bool:
    return v is not ABSENT


def show_value(v: Value) -> str:
    if v is ABSENT:
        return "_"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# ---------------------------------------------------------------------------
# Pointwise stream operations
# ---------------------------------------------------------------------------

def _present(vs: VStream) -> BStream:
    return [v is not ABSENT for v in vs]


def _streams_equal(xs: VStream, ys: VStream) -> bool:
    """Same length and the same value and type at every tick, a whole list
    at a time: `==` alone takes `True` for `1` and `False` for `0`, so the
    types are compared too, and `ABSENT` is a singleton equal only to
    itself."""
    return xs == ys and list(map(type, xs)) == list(map(type, ys))


def const_stream(c: Union[int, bool], bs: BStream) -> VStream:
    """The constant pulsed on the given clock."""
    return [c if b else ABSENT for b in bs]


_I64 = 1 << 64
_HALF = 1 << 63


def _wrap64(v: int) -> int:
    """Two's-complement wrap to a machine 64-bit signed integer."""
    v &= _I64 - 1
    return v - _I64 if v >= _HALF else v


def _apply_unop(op: str, v, tick: int):
    if op == "-":
        return _wrap64(-v)
    if op == "not":
        return not v
    raise EvalError("bad-operator", f"unknown unary operator {op}", tick)


def _apply_binop(op: str, a, b, tick: int):
    match op:
        case "+":
            return _wrap64(a + b)
        case "-":
            return _wrap64(a - b)
        case "*":
            return _wrap64(a * b)
        case "div":
            if b == 0:
                raise EvalError("div-by-zero", "division by zero", tick)
            q = abs(a) // abs(b)
            return _wrap64(q if (a >= 0) == (b >= 0) else -q)
        case "mod":
            if b == 0:
                raise EvalError("div-by-zero", "modulo by zero", tick)
            return _wrap64(a - b * _apply_binop("div", a, b, tick))
        case "=":
            return a == b
        case "<>":
            return a != b
        case "<":
            return a < b
        case "<=":
            return a <= b
        case ">":
            return a > b
        case ">=":
            return a >= b
        case "and":
            return a and b
        case "or":
            return a or b
    raise EvalError("bad-operator", f"unknown operator {op}", tick)


# The operators below compare the presence of their operands first and
# compute the result in one comprehension. A partial operator, and operands
# that disagree on presence, take the tick-by-tick loop, which raises the
# `EvalError` of the first tick at fault.

# The binary operators that cannot raise, as functions of two present
# values; `_WRAPPING` ones wrap their result to 64 bits.
_TOTAL = {"+": operator.add, "-": operator.sub, "*": operator.mul, "=": operator.eq,
          "<>": operator.ne, "<": operator.lt, "<=": operator.le, ">": operator.gt,
          ">=": operator.ge, "and": lambda a, b: a and b, "or": lambda a, b: a or b}
_WRAPPING = {"+", "-", "*"}


def lift_unop(op: str, es: VStream) -> VStream:
    if op == "not":
        return [v if v is ABSENT else not v for v in es]
    if op == "-":
        return [v if v is ABSENT else -v if -_HALF < v < _HALF else _wrap64(-v) for v in es]
    return [ABSENT if v is ABSENT else _apply_unop(op, v, t) for t, v in enumerate(es)]


def lift_binop(op: str, xs: VStream, ys: VStream) -> VStream:
    fn = _TOTAL.get(op)
    if fn is not None and _present(xs) == _present(ys):
        if op in _WRAPPING:
            return [a if a is ABSENT else v if -_HALF <= (v := fn(a, b)) < _HALF else _wrap64(v)
                    for a, b in zip(xs, ys)]
        return [a if a is ABSENT else fn(a, b) for a, b in zip(xs, ys)]
    out = []
    for t, (a, b) in enumerate(zip(xs, ys)):
        if present(a) != present(b):
            raise EvalError("clocked-value-mismatch",
                            f"operands of {op} disagree on presence", t)
        out.append(ABSENT if a is ABSENT else _apply_binop(op, a, b, t))
    return out


def when_stream(k: bool, xs: VStream, es: VStream) -> VStream:
    """Sample es where xs carries the value k; both absent passes through."""
    if _present(xs) != _present(es):
        for t, (x, e) in enumerate(zip(xs, es)):
            if present(x) != present(e):
                raise EvalError("clocked-value-mismatch",
                                "when operands disagree on presence", t)
    return [e if x == k else ABSENT for x, e in zip(xs, es)]


def merge_stream(xs: VStream, ts: VStream, fs: VStream) -> VStream:
    """Interpolate complementary streams steered by xs."""
    if _present(ts) == [x is True for x in xs] and \
            _present(fs) == [x is not ABSENT and x is not True for x in xs]:
        return [a if x is True else b for x, a, b in zip(xs, ts, fs)]
    out = []
    for t, (x, a, b) in enumerate(zip(xs, ts, fs)):
        if x is ABSENT:
            if present(a) or present(b):
                raise EvalError("clocked-value-mismatch",
                                "merge branch present while selector is absent", t)
            out.append(ABSENT)
        elif x is True:
            if not present(a) or present(b):
                raise EvalError("clocked-value-mismatch",
                                "merge branches must be complementary", t)
            out.append(a)
        else:
            if present(a) or not present(b):
                raise EvalError("clocked-value-mismatch",
                                "merge branches must be complementary", t)
            out.append(b)
    return out


def ite_stream(es: VStream, ts: VStream, fs: VStream) -> VStream:
    """Pointwise conditional; all three streams pulse together."""
    if not _present(es) == _present(ts) == _present(fs):
        for t, (c, a, b) in enumerate(zip(es, ts, fs)):
            if present(c) != present(a) or present(c) != present(b):
                raise EvalError("clocked-value-mismatch",
                                "if operands disagree on presence", t)
    return [c if c is ABSENT else a if c else b for c, a, b in zip(es, ts, fs)]


def fby_lustre(xs: VStream, ys: VStream) -> VStream:
    """Full-language delay: the first present value comes from xs, every
    later present value is the previous present value of ys."""
    live = _present(xs)
    if live != _present(ys):
        for t, (x, y) in enumerate(zip(xs, ys)):
            if present(x) != present(y):
                raise EvalError("clocked-value-mismatch",
                                "fby operands disagree on presence", t)
        n = min(len(xs), len(ys))  # a shorter operand cuts the output
        xs, ys, live = xs[:n], ys[:n], live[:n]
    if True not in live:
        return list(xs)
    delayed = iter([xs[live.index(True)]] + [y for y in ys if y is not ABSENT])
    return [ABSENT if x is ABSENT else next(delayed) for x in xs]


def fby_nlustre(c: Union[int, bool], vs: VStream) -> VStream:
    """Constant-initialised delay: emit the saved value, then store the
    current input; absences keep the state."""
    delayed = iter([c] + [v for v in vs if v is not ABSENT])
    return [ABSENT if v is ABSENT else next(delayed) for v in vs]


def base_of(streams: Sequence[VStream]) -> BStream:
    """Clock on which a tuple of aligned streams pulses."""
    if not streams:
        raise EvalError("arity-mismatch", "base clock of an empty stream tuple")
    live = _present(streams[0])
    if all(_present(s) == live for s in streams[1:]):
        return live
    out = []
    n = len(streams[0])
    for t in range(n):
        flags = {present(s[t]) for s in streams}
        if len(flags) > 1:
            raise EvalError("clocked-value-mismatch",
                            "stream tuple components disagree on presence", t)
        out.append(flags.pop())
    return out


def eval_clock(history: History, bs: BStream, ck: Clock) -> BStream:
    """Boolean stream denoted by a clock expression under a history, over the
    ticks where the base clock and every clock variable have a value, one
    whole column per level, the outermost first. A clock variable off the
    clock it is sampled on raises `clocked-value-mismatch` at the earliest
    such tick, naming the outer variable where several are off at once."""
    names = clock_vars(ck)
    for x in names:
        if x not in history:
            raise EvalError("unbound-var", f"clock variable {x} has no stream")
    n = min([len(bs)] + [len(history[x]) for x in names])
    levels = []
    while isinstance(ck, ClockOn):
        levels.insert(0, ck)
        ck = ck.base
    live, fault = bs[:n], None
    for level in levels:
        x, xs = level.var, history[level.var][:n]
        end = n if fault is None else fault.tick  # an outer fault wins at its tick
        t = end if _present(xs) == live else \
            next((t for t in range(end) if (xs[t] is not ABSENT) != bool(live[t])), end)
        if t < end:
            state = "absent while its clock is live" if live[t] else "present while its clock is idle"
            fault = EvalError("clocked-value-mismatch", f"clock variable {x} {state}", t, x)
        live = [v == level.value for v in xs]  # where the outer clock is idle, v is ABSENT
    if fault is not None:
        raise fault
    return live


def check_inputs(node: Node, ins: list[VStream], bs: BStream) -> None:
    """Refuse, before the first tick, a run whose inputs (`ins`, in
    declaration order, each as long as `bs`) lie outside the node's
    interface: a cell of `bs` that is not a bool, or an input absent where
    its declared clock (`eval_clock`) is live, present where it is idle, or
    of another type than declared (`type(v) is int`: a bool is no int). The
    earliest faulty tick raises, at one tick the base clock first, then the
    inputs in declaration order; an input on a sub-clock is judged only
    before the first fault of its clock's variables. The README gives the
    lines."""
    stop = len(bs) if list(map(type, bs)) == [bool] * len(bs) else \
        next(t for t, b in enumerate(bs) if type(b) is not bool)
    faults = [] if stop == len(bs) else [(stop, -1, EvalError(
        "type-mismatch", f"the base clock holds {show_value(bs[stop])}, not a bool", stop, BASE))]
    history = {d.name: vs for d, vs in zip(node.inputs, ins)}
    first: dict[str, int] = {}  # each judged input's first faulty tick, else where judging ended
    # a clock variable of an input has fewer clock variables than the input: it is judged first
    for i, d in sorted(enumerate(node.inputs), key=lambda pair: len(clock_vars(pair[1].clock))):
        end = min([stop] + [first.get(v, stop) for v in clock_vars(d.clock)])
        live, col = eval_clock(history, bs[:end], d.clock), history[d.name][:end]
        ty = type(d.ty.default)  # int or bool
        want = [ty] * end if live.count(True) == end else [ty if b else _Absent for b in live]
        t = first[d.name] = end if list(map(type, col)) == want else \
            next((t for t, (v, w) in enumerate(zip(col, want)) if type(v) is not w), end)
        if t < end and (col[t] is ABSENT) == live[t]:
            where = "its clock" if isinstance(d.clock, ClockOn) else "the base clock"
            faults.append((t, i, EvalError("clocked-value-mismatch", f"input {d.name} off {where}",
                                           t, d.name)))
        elif t < end:
            faults.append((t, i, EvalError("type-mismatch", f"input {d.name} is declared {d.ty} "
                                           f"but holds {show_value(col[t])}", t, d.name)))
    if faults:
        raise min(faults, key=lambda f: f[:2])[2]


# ---------------------------------------------------------------------------
# Whole-prefix entry points
# ---------------------------------------------------------------------------

def run_node(prog: Program, name: str, inputs: History, n_ticks: int,
             bs: BStream | None = None) -> tuple[History, BStream]:
    """Run a node for a finite prefix, returning the full history of its
    variables (inputs, outputs and locals) along with the base clock used.

    The base clock defaults to the pointwise presence of the inputs (inputs
    declared on sub-clocks count where present); a node without inputs runs
    on an always-live clock.

    The node runs as the compiled code of its elaborated program
    (`run_compiled`) once `check_inputs` has accepted the inputs. A program
    that does not compile raises the error that refused it, before that.
    """
    node = prog.node(name)
    n_ticks = max(n_ticks, 0)  # a negative prefix is empty
    declared = [d.name for d in node.inputs]
    missing = [x for x in declared if x not in inputs]
    if missing:
        raise EvalError("arity-mismatch", f"missing input stream(s): {', '.join(missing)}")
    extra = [x for x in inputs if x not in declared]
    if extra:
        raise EvalError("arity-mismatch", f"unknown input stream(s): {', '.join(extra)}")
    for x, vs in inputs.items():
        if len(vs) < n_ticks:
            raise EvalError("arity-mismatch", f"input {x} is shorter than {n_ticks} ticks")
    ins = [inputs[x][:n_ticks] for x in declared]  # a copy: the compiled loop owns it
    if bs is None:
        bs = default_base_clock(ins, n_ticks)
    elif len(bs) < n_ticks:
        raise EvalError("arity-mismatch", f"base clock is shorter than {n_ticks} ticks")
    else:
        bs = bs[:n_ticks]
    _runner(prog, name)  # a refused build raises here, before the inputs are checked
    check_inputs(node, ins, bs)
    hist = run_compiled(prog, name, ins, bs)
    rest = [d.name for d in node.outputs + node.locals]
    return dict(zip(declared + rest, ins + hist)), bs


def _runner(prog: Program, name: str) -> Callable:
    from . import codegen  # imported on first use: codegen builds on this module
    return codegen.runner(prog, name)


def run_compiled(prog: Program, name: str, ins: list[VStream], bs: BStream) -> list[VStream]:
    """The streams of the outputs and locals of node `name`, in declaration
    order, from its compiled code (`codegen.runner`) run on the input streams
    `ins` (in declaration order, as long as `bs`, as `check_inputs` accepts
    them) and the base clock `bs`. An `EvalError` of the run gets its tick:
    the length the history lists had reached."""
    run = _runner(prog, name)
    node = prog.node(name)
    hist = [[] for _ in range(len(node.outputs) + len(node.locals))]
    try:
        run(ins, bs, hist)
    except EvalError as exc:
        raise EvalError(exc.kind, exc.message, len(hist[0]) if hist else None, exc.var) from None
    return hist


def default_base_clock(inputs: list[VStream], n_ticks: int) -> BStream:
    """The pointwise presence of the inputs, each at least `n_ticks` long,
    over the first `n_ticks` ticks; a node without inputs, or with an input
    present throughout, runs at every tick."""
    if not inputs or any(ABSENT not in vs for vs in inputs):
        return [True] * n_ticks
    bs = [False] * n_ticks
    for vs in inputs:
        bs = [b or v is not ABSENT for b, v in zip(bs, vs)]
    return bs


# ---------------------------------------------------------------------------
# CSV traces
# ---------------------------------------------------------------------------

def _parse_cell(text: str, where: str) -> Value:
    cell = text.strip()
    if cell == "_":
        return ABSENT
    if cell == "true":
        return True
    if cell == "false":
        return False
    shown = cell if len(cell) <= 40 else cell[:40] + "…"  # keep the diagnostic one short line
    try:
        v = int(cell)
    except ValueError:
        raise EvalError("bad-trace", f"cannot read {shown!r} in column {where}") from None
    if _wrap64(v) != v:
        raise EvalError("bad-trace", f"{shown} in column {where} is outside the 64-bit range")
    return v


def _csv_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            return list(reader)
        except csv.Error as exc:
            raise EvalError("bad-trace", f"line {reader.line_num}: {exc}") from None


def _trace_by_rows(rows) -> tuple[History, BStream | None]:
    """Row-major reading of CSV rows (header first), one `_parse_cell` per
    cell. It is the reference for `read_trace` and the only producer of its
    `bad-trace` diagnostics, so which error wins in a file with several is
    fixed here: the header, then each row in order, then the base column."""
    if not rows:
        return {}, None
    header = [h.strip() for h in rows[0]]
    streams: History = {}
    for name in header:
        if name in streams:
            raise EvalError("bad-trace", f"column {name!r} appears twice in the header")
        streams[name] = []
    for row in rows[1:]:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise EvalError("bad-trace", f"row has {len(row)} cells, header has {len(header)}")
        for name, cell in zip(header, row):
            streams[name].append(_parse_cell(cell, name))
    bs = None
    if BASE in streams:
        col = streams.pop(BASE)
        bs = []
        for v in col:
            if not isinstance(v, bool):
                raise EvalError("bad-trace", "base column must hold true/false")
            bs.append(v)
    return streams, bs


_WORDS = {"_": ABSENT, "true": True, "false": False}


def _decode_column(col: Sequence[str]) -> VStream | None:
    """The values of one column of cells, or None when a cell is unreadable
    or out of range. Equal to `_parse_cell` per cell: `int` accepts only
    whitespace that `str.strip` removes, and fails on the rest, which leaves
    those cells to the slower tries; unpadded words go before padded ones."""
    try:
        vs = list(map(int, col))
    except ValueError:
        pass
    else:
        return vs if not vs or (min(vs) >= -(1 << 63) and max(vs) < 1 << 63) else None
    try:
        return list(map(_WORDS.__getitem__, col))
    except KeyError:
        pass
    try:
        return [_WORDS[c.strip()] for c in col]
    except KeyError:
        pass
    try:
        return [_parse_cell(c, "") for c in col]
    except EvalError:
        return None


def _plain_columns(path) -> tuple[list[str], list[list[str]]] | None:
    """The stripped header of a plain trace and the cells of each column below
    it, split by `str` methods; None when the file is not plain: not UTF-8,
    holding a `"`, CR or NUL (which `csv` reads its own way), with an empty or
    repeated header, a cell over `csv.field_size_limit()` or a ragged row."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if text.endswith("\n"):
        text = text[:-1]  # it ends the last row
    if '"' in text or "\r" in text or "\0" in text or not text or text[0] == "\n":
        return None
    rows, long_cells = text.count("\n"), len(text) > csv.field_size_limit()
    text = text.replace("\n", ",\n,")  # a "\n" cell between rows
    cells = text.split(",")
    del text
    n = cells.index("\n") if rows else len(cells)
    header = [h.strip() for h in cells[:n]]
    if len(cells) != n + rows * (n + 1) or cells[n::n + 1].count("\n") != rows \
            or len(set(header)) < n \
            or long_cells and max(map(len, cells)) > csv.field_size_limit():
        return None
    return header, [cells[j::n + 1] for j in range(n + 1, 2 * n + 1)]


def read_trace(path) -> tuple[History, BStream | None]:
    """Read a UTF-8 CSV trace: a header of variable names (plus an optional
    `base` column) and one row per tick; `_` marks absence. Cells are
    stripped and blank rows skipped.

    A plain file (`_plain_columns`) is decoded a column at a time. Any other
    file, and one with a column `_decode_column` refuses or a `base` column
    not all true/false, goes to the reference `_trace_by_rows`."""
    plain = _plain_columns(path)
    if plain is None:
        return _trace_by_rows(_csv_rows(path))
    header, cols = plain
    streams: History = {}
    for name in header:
        vs = _decode_column(cols.pop(0))  # each column's cells go once decoded
        if vs is None or name == BASE and not all(isinstance(v, bool) for v in vs):
            return _trace_by_rows(_csv_rows(path))
        streams[name] = vs
    return streams, streams.pop(BASE, None)
