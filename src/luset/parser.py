"""Concrete syntax: a regex tokenizer, recursive-descent parser and pretty-printer.

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
Binary operators are parsed by precedence climbing over `_BINARY`, the table
the printer reads too, so printed programs re-parse to themselves.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .diagnostics import Diagnostic, ParseError, SourceSpan
from .lang import (BASE, BASE_CLOCK, Binop, Call, Clock, ClockBase, ClockOn, Const, Def,
                   Expr, Fby, Ite, Merge, NCall, NDef, NFby, Node, Program, Ty, Unop,
                   Var, VarDecl, When)

KEYWORDS = {"node", "returns", "var", "let", "tel", "if", "then", "else",
            "merge", "when", "fby", "not", "and", "or", "div", "mod",
            "true", "false", "int", "bool", BASE}

# Unnamed alternatives (blanks, comments) are skipped. `\d` is a Unicode
# decimal digit, as `int` reads it; `\w+` is checked for a letter or `_` first.
_LEXEME = re.compile(r"""
    (?P<newline>\n)
  | [ \t\r]+
  | --[^\n]*
  | (?P<int>\d+)
  | (?P<word>\w+)
  | (?P<sym><>|<=|>=|[():;,=<>+*-])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

# Binary operator -> (level, chains). Loosest first; comparisons do not chain.
# `fby` (level 1) and `when` (level 2) bind looser, prefix `not` and `-`
# (`_UNARY`) tighter.
_BINARY = {"or": (3, True), "and": (4, True),
           **{op: (5, False) for op in ("=", "<>", "<=", ">=", "<", ">")},
           "+": (6, True), "-": (6, True),
           "*": (7, True), "div": (7, True), "mod": (7, True)}
_FBY, _WHEN, _UNARY = 1, 2, 8


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "kw" | "sym" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        lexeme = m.group()
        col = m.start() - line_start + 1
        if kind == "word":
            if lexeme[0].isalpha() or lexeme[0] == "_":
                kind = "kw" if lexeme in KEYWORDS else "ident"
            else:
                kind = "bad"
        if kind == "bad":
            raise ParseError([Diagnostic("syntax-error", f"unexpected character {lexeme[0]!r}",
                                         span=SourceSpan(filename, line, col, line, col + 1))])
        toks.append(Token(kind, lexeme, line, col))
    toks.append(Token("eof", "", line, len(text) - line_start + 1))
    return toks


@dataclass(frozen=True)
class _Tuple:
    """Parser-internal parenthesised expression list; flattened on use."""
    items: tuple[Expr, ...]


def _flatten(items) -> tuple[Expr, ...]:
    out: list[Expr] = []
    for it in items:
        if isinstance(it, _Tuple):
            out.extend(_flatten(it.items))
        else:
            out.append(it)
    return tuple(out)


class _Parser:
    def __init__(self, tokens: list[Token], filename: str):
        self.toks = tokens
        self.pos = 0
        self.filename = filename

    # -- token helpers ------------------------------------------------------
    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        # only keyword and symbol texts are asked for, and no identifier or
        # literal is spelt like one
        return self.toks[self.pos].text == text

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at(text):
            self.fail(f"expected '{text}'")
        return self.next()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail("expected an identifier")
        return self.next()

    def error(self, kind: str, message: str) -> ParseError:
        tok = self.peek()
        span = SourceSpan(self.filename, tok.line, tok.col, tok.line, tok.col + len(tok.text))
        return ParseError([Diagnostic(kind, message, span=span)])

    def fail(self, message: str):
        tok = self.peek()
        got = tok.text if tok.kind != "eof" else "end of input"
        raise self.error("syntax-error", f"{message}, found {got!r}")

    # -- program structure --------------------------------------------------
    def program(self) -> Program:
        nodes = []
        while not self.peek().kind == "eof":
            nodes.append(self.node())
        return Program(tuple(nodes))

    def node(self) -> Node:
        self.expect("node")
        name = self.expect_ident().text
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
        names = [self.expect_ident().text]
        while self.eat(","):
            names.append(self.expect_ident().text)
        self.expect(":")
        if self.eat("int"):
            ty = Ty.INT
        elif self.eat("bool"):
            ty = Ty.BOOL
        else:
            self.fail("expected a type (int or bool)")
        ck: Clock = BASE_CLOCK
        while self.at("when"):
            ck = ClockOn(ck, *self.when_suffix())
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
            if self.peek().kind != "ident":
                return tuple(out)

    def when_suffix(self) -> tuple[str, bool]:
        """`when [not] x [= true|false]`, on a declaration or an expression."""
        self.expect("when")
        if self.eat("not"):
            return self.expect_ident().text, False
        name = self.expect_ident().text
        return name, self.bool_literal() if self.eat("=") else True

    def bool_literal(self) -> bool:
        if self.eat("true"):
            return True
        if self.eat("false"):
            return False
        self.fail("expected true or false")
        raise AssertionError

    def equation(self) -> Def:
        targets: list[str]
        if self.eat("("):
            targets = [self.expect_ident().text]
            while self.eat(","):
                targets.append(self.expect_ident().text)
            self.expect(")")
        else:
            targets = [self.expect_ident().text]
        self.expect("=")
        exprs = [self.expr()]
        while self.eat(","):
            exprs.append(self.expr())
        self.expect(";")
        return Def(tuple(targets), None, _flatten(exprs))

    # -- expressions, loosest binding first ---------------------------------
    def expr(self):
        e = self.binary(_WHEN + 1)
        while self.at("when"):
            e = When(_flatten([e]), *self.when_suffix())
        if self.eat("fby"):  # right associative
            return Fby(_flatten([e]), _flatten([self.expr()]))
        return e

    def binary(self, min_level: int):
        """Precedence climbing (Pratt, POPL 1973) over `_BINARY`: operators
        of at least `min_level`; after a non-chaining one, only looser ones."""
        e = self.unary()
        max_level = _UNARY
        while True:
            op = self.peek().text
            level, chains = _BINARY.get(op, (0, True))
            if not min_level <= level <= max_level:
                return e
            self.next()
            e = Binop(op, self.single(e), self.single(self.binary(level + 1)))
            max_level = level if chains else level - 1

    def unary(self):
        if self.at("not") or self.at("-"):
            return Unop(self.next().text, self.single(self.unary()))
        return self.primary()

    def single(self, e) -> Expr:
        if isinstance(e, _Tuple):
            if len(e.items) == 1:
                return e.items[0]
            self.fail("tuple used where a single expression is required")
        return e

    def primary(self, no_call: bool = False):
        tok = self.peek()
        if tok.kind == "int":
            # length first: int() refuses very long digit strings
            if len(tok.text.lstrip("0")) > 19 or int(tok.text) >= 1 << 63:
                raise self.error("int-out-of-range", "integer literal exceeds 2^63-1")
            self.next()
            return Const(int(tok.text))
        if self.eat("true"):
            return Const(True)
        if self.eat("false"):
            return Const(False)
        if self.eat("("):
            items = [self.expr()]
            while self.eat(","):
                items.append(self.expr())
            self.expect(")")
            flat = _flatten(items)
            return flat[0] if len(flat) == 1 else _Tuple(flat)
        if self.eat("if"):
            cond = self.single(self.expr())
            self.expect("then")
            ts = self.expr()
            self.expect("else")
            fs = self.expr()
            return Ite(cond, _flatten([ts]), _flatten([fs]))
        if self.eat("merge"):
            # branch position: a bare identifier is never a call head, so
            # `merge c s (e)` reads as two branches (calls need parentheses)
            name = self.expect_ident().text
            ts = self.primary(no_call=True)
            fs = self.primary(no_call=True)
            return Merge(name, _flatten([ts]), _flatten([fs]))
        if tok.kind == "ident":
            self.next()
            if not no_call and self.eat("("):
                args: list = []
                if not self.at(")"):
                    args.append(self.expr())
                    while self.eat(","):
                        args.append(self.expr())
                self.expect(")")
                return Call(tok.text, _flatten(args))
            return Var(tok.text)
        self.fail("expected an expression")


def parse_program(text: str, filename: str = "<input>") -> Program:
    """Parse source text into a program. Raises ParseError with located
    diagnostics on malformed input."""
    parser = _Parser(tokenize(text, filename), filename)
    try:
        return parser.program()
    except RecursionError:
        raise parser.error("nesting-too-deep", "expression nested too deeply") from None


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

def _show_const(c: Const) -> str:
    if isinstance(c.value, bool):
        return "true" if c.value else "false"
    return str(c.value)


def _show_expr(e: Expr, prec: int = 0) -> str:
    def paren(s: str, mine: int) -> str:
        return f"({s})" if mine < prec else s

    match e:
        case Const():
            return _show_const(e)
        case Var(x):
            return x
        case Unop(op, a):
            body = _show_expr(a, _UNARY)
            sep = " " if op == "not" or body.startswith("-") else ""
            return paren(f"{op}{sep}{body}", _UNARY)
        case Binop(op, a, b):
            p, chains = _BINARY[op]
            return paren(f"{_show_expr(a, p if chains else p + 1)} {op} {_show_expr(b, p + 1)}", p)
        case When(args, x, k):
            tail = x if k else f"not {x}"
            return paren(f"{_show_tuple(args, _WHEN)} when {tail}", _WHEN)
        case Merge(x, ts, fs):
            return f"merge {x} {_show_branch(ts)} {_show_branch(fs)}"
        case Ite(c, ts, fs):
            body = f"if {_show_expr(c)} then {_show_tuple(ts, 0)} else {_show_tuple(fs, 0)}"
            return paren(body, 0) if prec > 0 else body
        case Fby(e0s, es):
            return paren(f"{_show_tuple(e0s, _FBY + 1)} fby {_show_tuple(es, _FBY)}", _FBY)
        case Call(f, args):
            return f"{f}({', '.join(_show_expr(a) for a in args)})"
    raise TypeError(f"_show_expr: unsupported {e!r}")


def _show_tuple(items: tuple[Expr, ...], prec: int) -> str:
    if len(items) == 1:
        return _show_expr(items[0], prec)
    return "(" + ", ".join(_show_expr(i) for i in items) + ")"


def _show_branch(items: tuple[Expr, ...]) -> str:
    if len(items) == 1 and isinstance(items[0], (Const, Var)):
        return _show_expr(items[0])
    return "(" + ", ".join(_show_expr(i) for i in items) + ")"


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
    match eq:
        case Def(targets, ck, exprs):
            lhs = targets[0] if len(targets) == 1 else "(" + ", ".join(targets) + ")"
            rhs = ", ".join(_show_expr(e) for e in exprs)
            note = f" -- on {ck}" if ck is not None and not isinstance(ck, ClockBase) else ""
            return f"  {lhs} = {rhs};{note}"
        case NDef(x, ck, e):
            return _show_equation(Def((x,), ck, (e,)))
        case NFby(x, ck, c, e):
            return _show_equation(Def((x,), ck, (Fby((c,), (e,)),)))
        case NCall(xs, ck, f, args):
            return _show_equation(Def(xs, ck, (Call(f, args),)))
    raise TypeError(f"_show_equation: unsupported {eq!r}")


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
