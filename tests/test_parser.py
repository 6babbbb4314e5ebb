import random
import re

import pytest

from luset.diagnostics import ParseError
from luset.harness import gen_program
from luset.lang import (BASE_CLOCK, Binop, Call, ClockOn, Const, Fby, Ite, Merge,
                        Ty, Var, When)
from luset.parser import _lex, _positions, parse_program, pretty_print

from conftest import (CNT_DN_SRC, CTR_SPDMTR_SRC, CTR_SRC, LEAK_ITE_SRC,
                      LEAK_MERGE_SRC, RE_TRIG_SRC, ROOT, mutation_corpus)
from luset.diagnostics import Diagnostic, SourceSpan


def test_ctr_listing_shape():
    prog = parse_program(CTR_SRC)
    node = prog.node("Ctr")
    assert [d.name for d in node.inputs] == ["init", "incr", "rst"]
    assert [d.ty for d in node.inputs] == [Ty.INT, Ty.INT, Ty.BOOL]
    assert [d.name for d in node.outputs] == ["n"]
    assert [d.name for d in node.locals] == ["fst", "pre_n"]
    assert len(node.equations) == 3


def test_spdmtr_listing_shape():
    prog = parse_program(CTR_SPDMTR_SRC)
    node = prog.node("SpdMtr")
    assert [d.name for d in node.outputs] == ["spd", "pos"]
    (spd_eq,) = [eq for eq in node.equations if eq.targets == ("spd",)]
    assert spd_eq.exprs == (Call("Ctr", (Const(0), Var("acc"), Const(False))),)


def test_cnt_dn_listing_shape():
    node = parse_program(CNT_DN_SRC).node("cnt_dn")
    assert len(node.inputs) == 2 and len(node.outputs) == 1 and not node.locals
    (eq,) = node.equations
    assert isinstance(eq.exprs[0], Ite)


def test_re_trig_listing_shape():
    node = parse_program(RE_TRIG_SRC).node("re_trig")
    assert len(node.inputs) == 2
    assert len(node.outputs) == 1
    assert [d.name for d in node.locals] == ["edge", "ck", "v"]
    (veq,) = [eq for eq in node.equations if eq.targets == ("v",)]
    merge = veq.exprs[0]
    assert isinstance(merge, Merge) and merge.var == "ck"
    # the true branch is a call whose argument is a sampled pair
    (call,) = merge.on_true
    assert isinstance(call, Call) and call.node == "cnt_dn"
    (when,) = call.args
    assert isinstance(when, When) and len(when.args) == 2 and when.value is True
    (zero_when,) = merge.on_false
    assert zero_when == When((Const(0),), "ck", False)


def test_insecure_snippets_parse():
    assert parse_program(LEAK_ITE_SRC).node("Leak")
    assert parse_program(LEAK_MERGE_SRC).node("Leak2")


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_program("node f() returns (x: int); let x = 1 + ; tel", filename="f.lus")
    (diag,) = err.value.diagnostics
    assert diag.span is not None and diag.span.file == "f.lus"
    assert str(diag).startswith("f.lus:")


def test_comments_and_sugar():
    prog = parse_program("""
node f(c: bool, x: int) returns (y: int);  -- comment here
let
  y = merge c (x when c) ((0 - x) when not c);  -- when-not sugar
tel
""")
    (eq,) = prog.node("f").equations
    merge = eq.exprs[0]
    assert merge.on_true == (When((Var("x"),), "c", True),)
    assert merge.on_false[0].value is False


def test_operator_precedence():
    (eq,) = parse_program(
        "node f(a, b, c: int) returns (y: bool); let y = a + b * c < a or b = c; tel"
    ).node("f").equations
    expr = eq.exprs[0]
    # or is loosest: (a + b*c < a) or (b = c)
    assert isinstance(expr, Binop) and expr.op == "or"
    assert expr.left == Binop("<", Binop("+", Var("a"), Binop("*", Var("b"), Var("c"))), Var("a"))
    assert expr.right == Binop("=", Var("b"), Var("c"))


def test_fby_binds_loosest_and_right_assoc():
    (eq,) = parse_program(
        "node f(a, b: int) returns (y: int); let y = a + 1 fby b fby a; tel"
    ).node("f").equations
    expr = eq.exprs[0]
    assert expr == Fby((Binop("+", Var("a"), Const(1)),), (Fby((Var("b"),), (Var("a"),)),))


def test_tuple_equation_parses():
    (eq,) = parse_program(
        "node f(x: int) returns (a, b: int); let (a, b) = (x, x + 1); tel"
    ).node("f").equations
    assert eq.targets == ("a", "b")
    assert eq.exprs == (Var("x"), Binop("+", Var("x"), Const(1)))


def test_empty_program_round_trip():
    prog = parse_program("")
    assert prog.nodes == ()
    assert pretty_print(prog) == ""
    assert parse_program(pretty_print(prog)) == prog


def test_paper_listings_round_trip():
    for src in (CTR_SPDMTR_SRC, RE_TRIG_SRC, LEAK_ITE_SRC, LEAK_MERGE_SRC):
        prog = parse_program(src)
        assert parse_program(pretty_print(prog)) == prog


def test_generated_programs_round_trip():
    rng = random.Random(2024)
    for _ in range(60):
        prog = gen_program(rng)
        text = pretty_print(prog)
        assert parse_program(text) == prog, text


def test_declaration_clock_round_trip():
    src = """
node f(c: bool, x: int) returns (y: int);
var s: int when c, u: int when not c;
let
  s = x when c;
  u = 0 when not c;
  y = merge c s u;
tel
"""
    prog = parse_program(src)
    node = prog.node("f")
    assert node.decl("s").clock == ClockOn(BASE_CLOCK, "c", True)
    assert node.decl("u").clock == ClockOn(BASE_CLOCK, "c", False)
    assert parse_program(pretty_print(prog)) == prog


@pytest.mark.parametrize("rhs", ["(a = b) = c", "(a < b) = c"])
def test_comparison_left_operand_round_trips(rhs):
    prog = parse_program(f"node f(a, b: int; c: bool) returns (y: bool); let y = {rhs}; tel")
    once = pretty_print(prog)
    assert parse_program(once) == prog
    assert pretty_print(parse_program(once)) == once


_HEADER = "node f(x: int) returns (y: int);"


@pytest.mark.parametrize("text, diagnostic", [
    (_HEADER + "\nlet\n\ty = x $;\ntel\n", "f.lus:3:8: syntax-error: unexpected character '$'"),
    (_HEADER + "\r\nlet\r\n  y = x +;\r\ntel\r\n",
     "f.lus:3:10: syntax-error: expected an expression, found ';'"),
    (_HEADER + " -- note\nlet y = x x; tel\n", "f.lus:2:11: syntax-error: expected ';', found 'x'"),
    (_HEADER + " let y = ½; tel", "f.lus:1:42: syntax-error: unexpected character '½'"),
    (_HEADER + " let y = x;\f tel", "f.lus:1:44: syntax-error: unexpected character '\\x0c'"),
    (_HEADER + " let y =\xa0x; tel", "f.lus:1:41: syntax-error: unexpected character '\\xa0'"),
    (_HEADER + " let y = ²; tel", "f.lus:1:42: syntax-error: unexpected character '²'"),
    (_HEADER + " let y = x; -- end",
     "f.lus:1:51: syntax-error: expected an identifier, found 'end of input'"),
], ids=["after-tab", "after-crlf", "after-comment", "vulgar-half", "form-feed", "nbsp",
        "superscript-two", "eof-after-comment"])
def test_lexer_diagnostic_positions(text, diagnostic):
    with pytest.raises(ParseError) as err:
        parse_program(text, filename="f.lus")
    assert str(err.value) == diagnostic


@pytest.mark.parametrize("rhs, diagnostic", [
    ("(x, x) + x", "1:51: syntax-error: tuple used where a single expression is required, found 'x'"),
    ("(x, x) < x", "1:51: syntax-error: tuple used where a single expression is required, found 'x'"),
    ("x + (x, x)", "1:52: syntax-error: tuple used where a single expression is required, found ';'"),
    ("x * (x, x) - x",
     "1:53: syntax-error: tuple used where a single expression is required, found '-'"),
    ("-(x, x)", "1:49: syntax-error: tuple used where a single expression is required, found ';'"),
    ("if (x, x) then x else x",
     "1:52: syntax-error: tuple used where a single expression is required, found 'then'"),
])
def test_tuple_operand_diagnostic_positions(rhs, diagnostic):
    """A tuple left of an operator is refused once the operator is read,
    before its right operand is parsed."""
    with pytest.raises(ParseError) as err:
        parse_program(f"{_HEADER} let y = {rhs}; tel", filename="f.lus")
    assert str(err.value) == "f.lus:" + diagnostic


@pytest.mark.parametrize("text, tokens", [
    ("12abc", ["12", "abc"]),
    ("<>=", ["<>", "="]),
    ("α1", ["α1"]),
    ("٣", ["٣"]),
])
def test_token_kinds(text, tokens):
    """Where one token ends and the next starts."""
    assert _lex(text, "<input>") == tokens + [""]


def test_unicode_identifier_and_decimal_digit():
    (eq,) = parse_program("node f(α1: int) returns (y: int); let y = α1 + ٣; tel"
                          ).node("f").equations
    assert eq.exprs == (Binop("+", Var("α1"), Const(3)),)


# The reference lexer: one Python step per regex match, each token built with
# its position as it is met. Unnamed alternatives (blanks, comments) are
# skipped; a `\w+` word that starts with neither a letter nor `_` is refused.
_ORACLE_LEXEME = re.compile(r"""
    (?P<newline>\n)
  | [ \t\r]+
  | --[^\n]*
  | (?P<int>\d+)
  | (?P<word>\w+)
  | (?P<sym><>|<=|>=|[():;,=<>+*-])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def _tokenize_oracle(text: str, filename: str) -> list[tuple[str, int, int]]:
    toks = []
    line, line_start = 1, 0
    for m in _ORACLE_LEXEME.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        lexeme = m.group()
        col = m.start() - line_start + 1
        if kind == "bad" or kind == "word" and not (lexeme[0].isalpha() or lexeme[0] == "_"):
            raise ParseError([Diagnostic("syntax-error", f"unexpected character {lexeme[0]!r}",
                                         span=SourceSpan(filename, line, col, line, col + 1))])
        toks.append((lexeme, line, col))
    toks.append(("", line, len(text) - line_start + 1))
    return toks


def _lexed(lex, text: str, filename: str):
    try:
        return lex(text, filename)
    except ParseError as err:
        return str(err)


def _lex_with_positions(text: str, filename: str):
    return [(tok, line, col) for tok, (line, col) in zip(_lex(text, filename), _positions(text))]


def test_tokenize_matches_the_reference_lexer():
    """Text, line and column of every token (`_lex` and `_positions`), or
    the exact diagnostic, over the samples cut and spliced at every 11th
    offset, printed generated programs, and short strings of characters the
    lexer tells apart."""
    rng = random.Random(19)
    generated = ((f"gen{i}.lus", pretty_print(gen_program(rng))) for i in range(300))
    chars = "ab_1\u0663\u00b2\u00bd\u3007\u4e00\u0301 \t\r\n\f\xa0@-<>=():;,+*"
    scraps = ((f"scrap{i}.lus", "".join(rng.choices(chars, k=rng.randint(0, 12))))
              for i in range(3000))
    for corpus in (mutation_corpus(11), generated, scraps):
        for label, text in corpus:
            assert _lexed(_lex_with_positions, text, label) == \
                _lexed(_tokenize_oracle, text, label), label


def test_parse_diagnostics_golden():
    """The diagnostic of every malformed input among the samples cut and
    spliced at every 23rd offset, in corpus order; the others parse."""
    got = []
    for label, text in mutation_corpus(23):
        try:
            parse_program(text, filename=label)
        except ParseError as err:
            got.append(str(err))
    want = (ROOT / "tests" / "data" / "parse_errors.txt").read_text(encoding="utf-8").splitlines()
    assert got == want
