"""Concrete syntax: a one-regex lexer, recursive-descent parser and pretty-printer.

Grammar sketch (see README for the operator precedence table):

    program   := node*
    node      := "node" ident "(" decls ")" "returns" "(" decls ")" ";"?
                 ("var" decls ";")? "let" equation* "tel" ";"?
    decls     := group ((";" | ",") group)*
    group     := ident ("," ident)* ":" ("int" | "bool") clocksuffix*
    clocksuffix := "when" ("not" ident | ident ("=" ("true"|"false"))?)
    equation  := lhs "=" exprlist ";"
    lhs       := ident | "(" ident ("," ident)* ")"

Lexical rules: an identifier starts with a letter or `_` and goes on with
letters, digits and `_`; an integer literal is a run of decimal digits;
space, tab, CR and LF are the only blanks, and `--` starts a comment running
to the end of the line. Any other character is `unexpected character`.
The lexer is a single `findall` that yields the token strings; the parser
reads those strings directly, and a token's line and column are worked out
from its index only when a diagnostic needs them (`_positions`).
Operators are parsed by precedence climbing over `_BINARY` and `_PREFIX`,
read off `lang.OPERATORS`, which the printer reads too, so printed programs
re-parse to themselves.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

from .diagnostics import Diagnostic, ParseError, SourceSpan
from .lang import (BASE, BASE_CLOCK, CLOCK_FRAMES, MAX_NESTING, OPERATORS, Binop, ByClass,
                   Call, Clock, ClockBase, ClockOn, Const, Def, Expr, Fby, Ite, Merge, NCall, NDef,
                   NFby, Node, Program, Ty, Unop, Var, VarDecl, When, _rhs, eq_targets, nesting)

KEYWORDS = {"node", "returns", "var", "let", "tel", "if", "then", "else", "merge", "when",
            "fby", "true", "false", "int", "bool", BASE,
            *(symbol for symbol, _ in OPERATORS if symbol.isalpha())}

# The tokens that are not words: the operator symbols and the punctuation.
_SYMBOLS = frozenset({symbol for symbol, _ in OPERATORS if not symbol.isalpha()} | set("():;,="))
# One match per token: the blanks and comments before it, skipped, then the
# token, or else the character found where a token should start ("" at the
# end of the text). Longer symbols are tried first. `\d` is a Unicode decimal
# digit, as `int` reads it; a `\w+` word may still start with a numeric
# character such as `²`, which `_lex` refuses.
_LEX = re.compile(r"""
    [ \t\r\n]* (?:--[^\n]*[ \t\r\n]*)*
    (\d+|\w+|%s|.?)
""" % "|".join(map(re.escape, sorted(_SYMBOLS, key=lambda s: (-len(s), s)))),
    re.VERBOSE | re.DOTALL)
# a character no token is made of
_NOT_IN_TOKEN = re.compile("[^\\w%s]" % re.escape("".join(sorted(set("".join(_SYMBOLS))))))

# Binary operator -> (level, chains), and the prefix operators, which bind
# at `_UNARY`, tighter than every binary one; `fby` (level 1) and `when`
# (level 2) bind looser than all of them.
_BINARY = {o.symbol: (o.level, o.chains) for o in OPERATORS.values() if o.arity == 2}
_PREFIX = frozenset(o.symbol for o in OPERATORS.values() if o.arity == 1)
_FBY, _WHEN, _UNARY = 1, 2, max(o.level for o in OPERATORS.values())


def _starts_token(tok: str) -> bool:
    """Whether `_LEX` matched a token, not a character that starts none:
    the end, a symbol, or a word starting with a letter, `_` or a digit."""
    return not tok or tok in _SYMBOLS or tok[0].isalpha() or tok[0] == "_" or tok[0].isdecimal()


def _lex(text: str, filename: str) -> list[str]:
    """The token strings of `text`, then "" for the end of input. Raises
    ParseError at the first character that no token starts with."""
    toks = _LEX.findall(text)
    # in ASCII text every `\w+` word starts with a letter, `_` or a digit
    if _NOT_IN_TOKEN.search("".join(toks)) or not (text.isascii() or all(map(_starts_token, toks))):
        i = next(i for i, tok in enumerate(toks) if not _starts_token(tok))
        line, col = _position(text, i)
        raise ParseError([Diagnostic("syntax-error", f"unexpected character {toks[i][0]!r}",
                                     span=SourceSpan(filename, line, col, line, col + 1))])
    if len(toks) > 1 and not toks[-2]:
        toks.pop()  # text ending in a blank or comment: matched once after it, once empty
    return toks


def _positions(text: str):
    """(line, col) of each token `_lex` returns for `text`, in one pass."""
    line, line_start, prev = 1, 0, 0
    for m in _LEX.finditer(text):
        start = m.start(1)
        newlines = text.count("\n", prev, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", prev, start) + 1
        prev = start
        yield line, start - line_start + 1


def _position(text: str, index: int) -> tuple[int, int]:
    """(line, col) of the token at `index` in `_lex(text)`."""
    return next(islice(_positions(text), index, None))


def _is_ident(tok: str) -> bool:
    return (tok[:1].isalpha() or tok[:1] == "_") and tok not in KEYWORDS


@dataclass(frozen=True)
class _Tuple:
    """Parser-internal parenthesised expression list, its items already flat;
    flattened on use."""
    items: tuple[Expr, ...]


def _flatten(items) -> tuple[Expr, ...]:
    out: list[Expr] = []
    for it in items:
        if type(it) is _Tuple:
            out.extend(it.items)
        else:
            out.append(it)
    return tuple(out)


def _items(e) -> tuple[Expr, ...]:
    """The expressions `e` stands for: a tuple's items, or `e` alone."""
    return e.items if type(e) is _Tuple else (e,)


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.toks = _lex(text, filename)
        self.pos = 0

    # -- token helpers ------------------------------------------------------
    def next(self) -> str:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        # only keyword and symbol texts are asked for, and no identifier or
        # literal is spelt like one
        return self.toks[self.pos] == text

    def eat(self, text: str) -> bool:
        if self.toks[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> str:
        if self.toks[self.pos] != text:
            self.fail(f"expected '{text}'")
        return self.next()

    def expect_ident(self) -> str:
        if not _is_ident(self.toks[self.pos]):
            self.fail("expected an identifier")
        return self.next()

    def error(self, kind: str, message: str, pos: int | None = None) -> ParseError:
        """The error `kind` at the token at `pos`, by default the next one."""
        pos = self.pos if pos is None else pos
        line, col = _position(self.text, pos)
        span = SourceSpan(self.filename, line, col, line, col + len(self.toks[pos]))
        return ParseError([Diagnostic(kind, message, span=span)])

    def fail(self, message: str):
        got = self.toks[self.pos] or "end of input"
        raise self.error("syntax-error", f"{message}, found {got!r}")

    # -- program structure --------------------------------------------------
    def program(self) -> Program:
        nodes = []
        while self.toks[self.pos]:
            nodes.append(self.node())
        return Program(tuple(nodes))

    def node(self) -> Node:
        self.clocks = 0  # the weight of the node's deepest declared clock
        self.expect("node")
        name = self.expect_ident()
        self.expect("(")
        inputs = self.decls(stop=")")
        self.expect(")")
        self.expect("returns")
        self.expect("(")
        outputs = self.decls(stop=")")
        self.expect(")")
        self.eat(";")
        locals_: tuple[VarDecl, ...] = ()
        if self.eat("var"):
            locals_ = self.var_decls()
        self.expect("let")
        eqs = []
        while not self.at("tel"):
            eqs.append(self.equation())
        self.expect("tel")
        self.eat(";")
        return Node(name, inputs, outputs, locals_, tuple(eqs))

    def decl_group(self) -> list[VarDecl]:
        names = [self.expect_ident()]
        while self.eat(","):
            names.append(self.expect_ident())
        self.expect(":")
        if self.eat("int"):
            ty = Ty.INT
        elif self.eat("bool"):
            ty = Ty.BOOL
        else:
            self.fail("expected a type (int or bool)")
        ck: Clock = BASE_CLOCK
        depth = 0
        while self.at("when"):
            depth += CLOCK_FRAMES
            if depth > MAX_NESTING:
                raise self.error("nesting-too-deep", "clock nested too deeply")
            ck = ClockOn(ck, *self.when_suffix())
        self.clocks = max(self.clocks, depth)
        return [VarDecl(nm, ty, ck) for nm in names]

    def decls(self, stop: str) -> tuple[VarDecl, ...]:
        if self.at(stop):
            return ()
        out: list[VarDecl] = []
        while True:
            out.extend(self.decl_group())
            if self.at(stop):
                break
            if not (self.eat(";") or self.eat(",")):
                self.fail(f"expected ';', ',' or '{stop}'")
            if self.at(stop):
                break
        return tuple(out)

    def var_decls(self) -> tuple[VarDecl, ...]:
        """Local declarations: `;` separates groups and also terminates the
        section (another declaration follows iff the next token is a name)."""
        out: list[VarDecl] = []
        while True:
            out.extend(self.decl_group())
            if self.eat(","):
                continue
            self.expect(";")
            if not _is_ident(self.toks[self.pos]):
                return tuple(out)

    def when_suffix(self) -> tuple[str, bool]:
        """`when [not] x [= true|false]`, on a declaration or an expression."""
        self.expect("when")
        if self.eat("not"):
            return self.expect_ident(), False
        name = self.expect_ident()
        return name, self.bool_literal() if self.eat("=") else True

    def bool_literal(self) -> bool:
        if self.eat("true"):
            return True
        if self.eat("false"):
            return False
        self.fail("expected true or false")
        raise AssertionError

    def equation(self) -> Def:
        start = self.pos
        targets: list[str]
        if self.eat("("):
            targets = [self.expect_ident()]
            while self.eat(","):
                targets.append(self.expect_ident())
            self.expect(")")
        else:
            targets = [self.expect_ident()]
        self.expect("=")
        exprs = [self.expr()]
        while self.eat(","):
            exprs.append(self.expr())
        self.expect(";")
        flat = _flatten(exprs)
        budget = MAX_NESTING - self.clocks
        # each AST node holds a token and weighs at most 2: a shorter equation is within budget
        if self.pos - start > budget // 2 and nesting(flat) > budget:
            raise self.error("nesting-too-deep", "expression nested too deeply", start)
        return Def(tuple(targets), None, flat)

    # -- expressions, loosest binding first ---------------------------------
    # The hot path: these read `self.toks` directly instead of through the
    # token helpers. Each nesting level still costs one frame of `expr`,
    # `binary`, `unary` and `primary`, which fixes the depth at which the
    # descent itself reports `nesting-too-deep`; what it reads in a loop,
    # a left-associative chain or a `fby` chain, is bounded by `MAX_NESTING`.
    def expr(self):
        e = self.binary(_WHEN + 1)
        toks = self.toks
        while toks[self.pos] == "when":
            e = When(_items(e), *self.when_suffix())
        if toks[self.pos] == "fby":  # right associative
            self.pos += 1
            return Fby(_items(e), _items(self.expr()))
        return e

    def binary(self, min_level: int):
        """Precedence climbing (Pratt, POPL 1973) over `_BINARY`: operators
        of at least `min_level`; after a non-chaining one, only looser ones."""
        e = self.unary()
        max_level = _UNARY
        toks = self.toks
        while True:
            op = toks[self.pos]
            level, chains = _BINARY.get(op, (0, True))
            if not min_level <= level <= max_level:
                return e
            self.pos += 1
            if type(e) is _Tuple:
                e = self.single(e)
            right = self.binary(level + 1)
            e = Binop(op, e, self.single(right) if type(right) is _Tuple else right)
            max_level = level if chains else level - 1

    def unary(self):
        op = self.toks[self.pos]
        if op in _PREFIX:
            self.pos += 1
            return Unop(op, self.single(self.unary()))
        return self.primary()

    def single(self, e) -> Expr:
        if isinstance(e, _Tuple):
            if len(e.items) == 1:
                return e.items[0]
            self.fail("tuple used where a single expression is required")
        return e

    def primary(self, no_call: bool = False):
        toks = self.toks
        tok = toks[self.pos]
        first = tok[:1]
        if (first.isalpha() or first == "_") and tok not in KEYWORDS:
            self.pos += 1
            if no_call or toks[self.pos] != "(":
                return Var(tok)
            self.pos += 1
            args: list = []
            if toks[self.pos] != ")":
                args.append(self.expr())
                while self.eat(","):
                    args.append(self.expr())
            self.expect(")")
            return Call(tok, _flatten(args))
        if first.isdecimal():
            # length first: int() refuses very long digit strings
            if len(tok.lstrip("0")) > 19 or int(tok) >= 1 << 63:
                raise self.error("int-out-of-range", "integer literal exceeds 2^63-1")
            self.pos += 1
            return Const(int(tok))
        if tok == "(":
            self.pos += 1
            items = [self.expr()]
            while self.eat(","):
                items.append(self.expr())
            self.expect(")")
            flat = _flatten(items)
            return flat[0] if len(flat) == 1 else _Tuple(flat)
        if tok == "true" or tok == "false":
            self.pos += 1
            return Const(tok == "true")
        if tok == "if":
            self.pos += 1
            cond = self.single(self.expr())
            self.expect("then")
            ts = self.expr()
            self.expect("else")
            fs = self.expr()
            return Ite(cond, _items(ts), _items(fs))
        if tok == "merge":
            self.pos += 1
            # branch position: a bare identifier is never a call head, so
            # `merge c s (e)` reads as two branches (calls need parentheses)
            name = self.expect_ident()
            ts = self.primary(no_call=True)
            fs = self.primary(no_call=True)
            return Merge(name, _items(ts), _items(fs))
        self.fail("expected an expression")


def parse_program(text: str, filename: str = "<input>") -> Program:
    """Parse source text into a program. Raises ParseError with located
    diagnostics on malformed input."""
    parser = _Parser(text, filename)
    try:
        return parser.program()
    except RecursionError:
        raise parser.error("nesting-too-deep", "expression nested too deeply") from None


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

def _paren(s: str, mine: int, prec: int) -> str:
    return f"({s})" if mine < prec else s


def _show_const(e: Const, prec: int) -> str:
    if isinstance(e.value, bool):
        return "true" if e.value else "false"
    return str(e.value)


def _show_unop(e: Unop, prec: int) -> str:
    a = e.arg
    body = _SHOW[type(a)](a, _UNARY)
    sep = " " if e.op.isalpha() or body.startswith("-") else ""
    return _paren(f"{e.op}{sep}{body}", _UNARY, prec)


def _show_binop(e: Binop, prec: int) -> str:
    op, a, b = e.op, e.left, e.right
    p, chains = _BINARY[op]
    return _paren(f"{_SHOW[type(a)](a, p if chains else p + 1)} {op} {_SHOW[type(b)](b, p + 1)}",
                  p, prec)


def _show_when(e: When, prec: int) -> str:
    tail = e.var if e.value else f"not {e.var}"
    return _paren(f"{_show_tuple(e.args, _WHEN)} when {tail}", _WHEN, prec)


def _show_merge(e: Merge, prec: int) -> str:
    return f"merge {e.var} {_show_branch(e.on_true)} {_show_branch(e.on_false)}"


def _show_ite(e: Ite, prec: int) -> str:
    c = e.cond
    body = (f"if {_SHOW[type(c)](c, 0)} then {_show_tuple(e.on_true, 0)} "
            f"else {_show_tuple(e.on_false, 0)}")
    return f"({body})" if prec > 0 else body


def _show_fby(e: Fby, prec: int) -> str:
    return _paren(f"{_show_tuple(e.init, _FBY + 1)} fby {_show_tuple(e.rest, _FBY)}", _FBY, prec)


def _show_list(items: tuple[Expr, ...]) -> str:
    out = []  # a loop, not a generator: one stack frame a level of nesting
    for e in items:
        out.append(_SHOW[type(e)](e, 0))
    return ", ".join(out)


def _show_tuple(items: tuple[Expr, ...], prec: int) -> str:
    if len(items) == 1:
        e = items[0]
        return _SHOW[type(e)](e, prec)
    return f"({_show_list(items)})"


def _show_branch(items: tuple[Expr, ...]) -> str:
    if len(items) == 1 and isinstance(items[0], (Const, Var)):
        return _show_list(items)
    return f"({_show_list(items)})"


def _unsupported(e: Expr, prec: int):
    raise TypeError(f"_show_expr: unsupported {e!r}")


# An expression's concrete syntax, parenthesised where it binds looser than
# `prec`: `_SHOW[type(e)](e, prec)`.
_SHOW = ByClass({
    Const: _show_const, Var: lambda e, prec: e.name, Unop: _show_unop, Binop: _show_binop,
    When: _show_when, Merge: _show_merge, Ite: _show_ite, Fby: _show_fby,
    Call: lambda e, prec: f"{e.node}({_show_list(e.args)})"}, _unsupported)


def _clock_suffix_text(ck: Clock) -> str:
    parts: list[str] = []
    while isinstance(ck, ClockOn):
        parts.append(f" when {ck.var}" if ck.value else f" when not {ck.var}")
        ck = ck.base
    return "".join(reversed(parts))


def _show_decls(decls: tuple[VarDecl, ...]) -> str:
    groups: list[str] = []
    i = 0
    while i < len(decls):
        j = i
        while (j + 1 < len(decls) and decls[j + 1].ty is decls[i].ty
               and decls[j + 1].clock == decls[i].clock):
            j += 1
        names = ", ".join(d.name for d in decls[i:j + 1])
        groups.append(f"{names}: {decls[i].ty}{_clock_suffix_text(decls[i].clock)}")
        i = j + 1
    return "; ".join(groups)


def _show_equation(eq) -> str:
    if type(eq) not in (Def, NDef, NFby, NCall):
        raise TypeError(f"_show_equation: unsupported {eq!r}")
    targets, ck = eq_targets(eq), eq.clock
    lhs = targets[0] if len(targets) == 1 else "(" + ", ".join(targets) + ")"
    note = f" -- on {ck}" if ck is not None and not isinstance(ck, ClockBase) else ""
    return f"  {lhs} = {_show_list(_rhs(eq))};{note}"


def pretty_print(prog: Program) -> str:
    """Render a program back to concrete syntax.

    For plain programs, parse_program(pretty_print(p)) reproduces p exactly.
    Clock annotations on equations are emitted as trailing comments; they are
    recomputed by elaboration after a round trip.
    """
    chunks: list[str] = []
    for node in prog.nodes:
        header = f"node {node.name}({_show_decls(node.inputs)}) returns ({_show_decls(node.outputs)});"
        lines = [header]
        if node.locals:
            lines.append(f"var {_show_decls(node.locals)};")
        lines.append("let")
        lines.extend(_show_equation(eq) for eq in node.equations)
        lines.append("tel")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + ("\n" if chunks else "")
