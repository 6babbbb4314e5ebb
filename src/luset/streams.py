"""Finite-prefix executable model of the clocked stream semantics.

Streams are lists of length N holding plain Python values (int/bool) where a
value is present and the ABSENT sentinel where it is not.

`run_node` checks a run's inputs at the node's interface (`check_inputs`)
before the first tick, and runs the node as compiled core-form code (see
`codegen`) through `run_compiled`: the package has one executable
evaluator. When the run is given no base clock, `check_inputs` builds the
default one, the pointwise presence of the inputs, in the same pass over
the inputs' cells, and returns the clock it judged.

`eval_clock` is the one clock evaluator. The scalar operators `_apply_unop`
and `_apply_binop` give the value of an operator at one tick (the generated
code's `binop` is `_apply_binop`). The paper's whole-prefix stream operators
and its relational semantics are in `semantics`, which only a check of the
predicate loads.
"""

from __future__ import annotations

import csv
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


def _off_clock(pairs: list[tuple[BStream, VStream]]) -> int | None:
    """The first tick of the common prefix of the (clock, stream) pairs where
    a stream is absent while its clock is live or present while it is idle,
    or None. It is the one search for a stream off its clock: `eval_clock`
    and the stream operators of `semantics` call it only where whole
    presence vectors differ."""
    n = min(min(len(ck), len(vs)) for ck, vs in pairs)
    for t in range(n):
        for ck, vs in pairs:
            if (vs[t] is not ABSENT) != bool(ck[t]):
                return t
    return None


def _streams_equal(xs: VStream, ys: VStream) -> bool:
    """Same length and the same value and type at every tick, a whole list
    at a time: `==` alone takes `True` for `1` and `False` for `0`, so the
    types are compared too, and `ABSENT` is a singleton equal only to
    itself."""
    return xs == ys and list(map(type, xs)) == list(map(type, ys))


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
        t = None if _present(xs) == live else _off_clock([(live[:end], xs)])
        if t is not None:
            state = "absent while its clock is live" if live[t] else "present while its clock is idle"
            fault = EvalError("clocked-value-mismatch", f"clock variable {x} {state}", t, x)
        live = [v == level.value for v in xs]  # where the outer clock is idle, v is ABSENT
    if fault is not None:
        raise fault
    return live


def check_inputs(node: Node, ins: list[VStream], bs: BStream | None = None) -> BStream:
    """Refuse, before the first tick, a run whose inputs (`ins`, in
    declaration order, each as long as `bs`) lie outside the node's
    interface, and return the base clock it judged them on: `bs`, or when
    no clock is given (`bs` None), the pointwise presence of the inputs,
    live at every tick where an input is present throughout (inputs
    declared on sub-clocks count where present; with no input it is empty,
    and `run_node` gives such a node an always-live clock instead).

    Refused are a cell of `bs` that is not a bool, and an input absent where
    its declared clock (`eval_clock`) is live, present where it is idle, or
    of another type than declared (`type(v) is int`: a bool is no int). The
    earliest faulty tick raises, at one tick the base clock first, then the
    inputs in declaration order; an input on a sub-clock is judged only
    before the first fault of its clock's variables. The README gives the
    lines.

    Each input's cells are typed once, and the default clock, presence and
    type are all read off those types. Inputs on one clock share its column
    and, per declared type, one list of expected types."""
    types = [list(map(type, vs)) for vs in ins]
    if bs is not None:
        n = len(bs)
        stop = n if list(map(type, bs)) == [bool] * n else \
            next(t for t, b in enumerate(bs) if type(b) is not bool)
    else:
        n = stop = len(ins[0]) if ins else 0
        bs = [True] * n
        if ins and all(_Absent in ts for ts in types):  # no input is present throughout
            bs = [False] * n
            for ts in types:
                bs = [b or ty is not _Absent for b, ty in zip(bs, ts)]
    faults = [] if stop == n else [(stop, -1, EvalError(
        "type-mismatch", f"the base clock holds {show_value(bs[stop])}, not a bool", stop, BASE))]
    history = {d.name: vs for d, vs in zip(node.inputs, ins)}
    first: dict[str, int] = {}  # each judged input's first faulty tick, else where judging ended
    columns: dict[Clock, BStream] = {}  # a clock's column over its judged prefix
    wanted: dict[tuple[Clock, type], list] = {}  # the type of each cell there, by clock and type
    # a clock variable of an input has fewer clock variables than the input: it is judged first,
    # and inputs on one clock are judged over one prefix
    for i, d in sorted(enumerate(node.inputs), key=lambda pair: len(clock_vars(pair[1].clock))):
        end = min([stop] + [first.get(v, stop) for v in clock_vars(d.clock)])
        ty = type(d.ty.default)  # int or bool
        if d.clock not in columns:
            columns[d.clock] = eval_clock(history, bs if end == n else bs[:end], d.clock)
        live = columns[d.clock]
        if (d.clock, ty) not in wanted:
            wanted[d.clock, ty] = [ty] * end if live.count(True) == end else \
                [ty if b else _Absent for b in live]
        want, got = wanted[d.clock, ty], types[i]  # unequal when `end` < n: the search stops there
        t = first[d.name] = end if got == want else \
            next((t for t, (g, w) in enumerate(zip(got, want)) if g is not w), end)
        if t < end and (got[t] is _Absent) == live[t]:
            where = "its clock" if isinstance(d.clock, ClockOn) else "the base clock"
            faults.append((t, i, EvalError("clocked-value-mismatch", f"input {d.name} off {where}",
                                           t, d.name)))
        elif t < end:
            faults.append((t, i, EvalError("type-mismatch", f"input {d.name} is declared {d.ty} "
                                           f"but holds {show_value(ins[i][t])}", t, d.name)))
    if faults:
        raise min(faults, key=lambda f: f[:2])[2]
    return bs


# ---------------------------------------------------------------------------
# Whole-prefix entry points
# ---------------------------------------------------------------------------

def run_node(prog: Program, name: str, inputs: History, n_ticks: int,
             bs: BStream | None = None) -> tuple[History, BStream]:
    """Run a node for a finite prefix, returning the full history of its
    variables (inputs, outputs and locals) along with the base clock used.

    The base clock defaults to the pointwise presence of the inputs, which
    `check_inputs` builds as it judges them; a node without inputs runs on
    an always-live clock.

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
    if bs is not None and len(bs) < n_ticks:
        raise EvalError("arity-mismatch", f"base clock is shorter than {n_ticks} ticks")
    _runner(prog, name)  # a refused build raises here, before the inputs are checked
    if bs is None and not ins:
        bs = [True] * n_ticks  # no input to take the presence of: every tick is live
    bs = check_inputs(node, ins, bs if bs is None else bs[:n_ticks])
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
        if "_" in cell:  # `int` reads `1_0` as 10
            raise ValueError
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
    those cells to the slower tries; unpadded words go before padded ones.
    `int` also reads `_` digit separators, which `_parse_cell` refuses, so a
    column of ints with a `_` anywhere in its text is refused."""
    try:
        vs = list(map(int, col))
    except ValueError:
        pass
    else:
        if "_" in "".join(col):
            return None
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
