"""Concrete syntax: a tokenizer, recursive-descent parser and pretty-printer.

Grammar sketch (see README for the operator precedence table):

    program   := node*
    node      := "node" ident "(" decls ")" "returns" "(" decls ")" ";"?
                 ("var" decls ";")? "let" equation* "tel" ";"?
    decls     := group ((";" | ",") group)*
    group     := ident ("," ident)* ":" ("int" | "bool") clocksuffix*
    clocksuffix := "when" ("not" ident | ident ("=" ("true"|"false"))?)
    equation  := lhs "=" exprlist ";"
    lhs       := ident | "(" ident ("," ident)* ")"

`--` starts a comment running to the end of the line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import Diagnostic, ParseError, SourceSpan
from .lang import (BASE, BASE_CLOCK, Binop, Call, Clock, ClockBase, ClockOn, Const, Def,
                   Expr, Fby, Ite, Merge, NCall, NDef, NFby, Node, Program, Ty, Unop,
                   Var, VarDecl, When)

KEYWORDS = {"node", "returns", "var", "let", "tel", "if", "then", "else",
            "merge", "when", "fby", "not", "and", "or", "div", "mod",
            "true", "false", "int", "bool", BASE}

_SYMBOLS = ("<>", "<=", ">=", "(", ")", ":", ";", ",", "=", "<", ">", "+", "-", "*")


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "kw" | "sym" | "eof"
    text: str
    span: SourceSpan


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def span(l0, c0, l1, c1):
        return SourceSpan(filename, l0, c0, l1, c1)

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_l, start_c = line, col
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], span(start_l, start_c, line, col + j - i)))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, span(start_l, start_c, line, col + j - i)))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token("sym", sym, span(start_l, start_c, line, col + len(sym))))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError([Diagnostic("syntax-error", f"unexpected character {c!r}",
                                         span=span(start_l, start_c, line, col + 1))])
    toks.append(Token("eof", "", span(line, col, line, col)))
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
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    # -- token helpers ------------------------------------------------------
    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.text == text and tok.kind in ("kw", "sym")

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

    def fail(self, message: str):
        tok = self.peek()
        got = tok.text if tok.kind != "eof" else "end of input"
        raise ParseError([Diagnostic("syntax-error", f"{message}, found {got!r}", span=tok.span)])

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
            ck = self.clock_suffix(ck)
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

    def clock_suffix(self, ck: Clock) -> Clock:
        self.expect("when")
        if self.eat("not"):
            return ClockOn(ck, self.expect_ident().text, False)
        name = self.expect_ident().text
        value = True
        if self.eat("="):
            value = self.bool_literal()
        return ClockOn(ck, name, value)

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
        return self.fby_level()

    def fby_level(self):
        left = self.when_level()
        if self.eat("fby"):
            right = self.fby_level()  # right associative
            return Fby(_flatten([left]), _flatten([right]))
        return left

    def when_level(self):
        e = self.or_level()
        while self.at("when"):
            self.next()
            if self.eat("not"):
                name, value = self.expect_ident().text, False
            else:
                name = self.expect_ident().text
                value = self.bool_literal() if self.eat("=") else True
            e = When(_flatten([e]), name, value)
        return e

    def or_level(self):
        e = self.and_level()
        while self.at("or"):
            self.next()
            e = Binop("or", self.single(e), self.single(self.and_level()))
        return e

    def and_level(self):
        e = self.cmp_level()
        while self.at("and"):
            self.next()
            e = Binop("and", self.single(e), self.single(self.cmp_level()))
        return e

    def cmp_level(self):
        e = self.add_level()
        for op in ("=", "<>", "<=", ">=", "<", ">"):
            if self.at(op):
                self.next()
                return Binop(op, self.single(e), self.single(self.add_level()))
        return e

    def add_level(self):
        e = self.mul_level()
        while self.at("+") or self.at("-"):
            op = self.next().text
            e = Binop(op, self.single(e), self.single(self.mul_level()))
        return e

    def mul_level(self):
        e = self.unary()
        while self.at("*") or self.at("div") or self.at("mod"):
            op = self.next().text
            e = Binop(op, self.single(e), self.single(self.unary()))
        return e

    def unary(self):
        if self.eat("not"):
            return Unop("not", self.single(self.unary()))
        if self.eat("-"):
            return Unop("-", self.single(self.unary()))
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
            self.next()
            # length first: int() refuses very long digit strings
            if len(tok.text.lstrip("0")) > 19 or int(tok.text) >= 1 << 63:
                raise ParseError([Diagnostic("int-out-of-range",
                                             "integer literal exceeds 2^63-1", span=tok.span)])
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
    parser = _Parser(tokenize(text, filename))
    try:
        return parser.program()
    except RecursionError:
        raise ParseError([Diagnostic("nesting-too-deep", "expression nested too deeply",
                                     parser.peek().span)]) from None


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

_PREC = {"fby": 1, "when": 2, "or": 3, "and": 4,
         "=": 5, "<>": 5, "<": 5, "<=": 5, ">": 5, ">=": 5,
         "+": 6, "-": 6, "*": 7, "div": 7, "mod": 7}
_UNARY_PREC = 8


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
            body = _show_expr(a, _UNARY_PREC)
            sep = " " if op == "not" or body.startswith("-") else ""
            return paren(f"{op}{sep}{body}", _UNARY_PREC)
        case Binop(op, a, b):
            p = _PREC[op]
            return paren(f"{_show_expr(a, p)} {op} {_show_expr(b, p + 1)}", p)
        case When(args, x, k):
            inner = _show_tuple(args, _PREC["when"])
            tail = x if k else f"not {x}"
            return paren(f"{inner} when {tail}", _PREC["when"])
        case Merge(x, ts, fs):
            return f"merge {x} {_show_branch(ts)} {_show_branch(fs)}"
        case Ite(c, ts, fs):
            body = f"if {_show_expr(c)} then {_show_tuple(ts, 0)} else {_show_tuple(fs, 0)}"
            return paren(body, 0) if prec > 0 else body
        case Fby(e0s, es):
            p = _PREC["fby"]
            return paren(f"{_show_tuple(e0s, p + 1)} fby {_show_tuple(es, p)}", p)
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
