"""Fuzz the front end: a text either parses or raises ParseError, and a
parsed program prints to text that parses back to it."""

from hypothesis import given, settings
from hypothesis import strategies as st

from luset.diagnostics import ParseError
from luset.parser import parse_program, pretty_print

_TOKENS = ["a", "b", "c", "x_1", "α1", "0", "7", "007", "٣", "9223372036854775808",
           "true", "false", "or", "and", "=", "<>", "<", "<=", ">", ">=", "+", "-", "*",
           "div", "mod", "not", "(", "(", ")", ")", ",", "when", "when not", "fby", "if",
           "then", "else", "merge", "f(", "²", "½"]
_SEPARATORS = [" ", " ", "", "\t", "\r\n", "\n", " -- c\n", "\f", "\xa0"]
_HEADER = "node f(a, b, x_1: int; c: bool) returns (y: bool);\nlet\n  y = "

_expressions = st.lists(st.tuples(st.sampled_from(_TOKENS), st.sampled_from(_SEPARATORS)),
                        max_size=24).map(lambda pairs: "".join(t + s for t, s in pairs))

_atoms = st.sampled_from(["a", "b", "c", "x_1", "0", "7", "٣", "true", "false"])
_OPERATORS = ["or", "and", "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "div", "mod"]


def _compound(e):
    operand = st.one_of(e, e.map("({})".format))
    return st.one_of(
        st.builds("{} {} {}".format, operand, st.sampled_from(_OPERATORS), operand),
        st.builds("{} {}".format, st.sampled_from(["not", "-"]), e),
        st.builds("{} when {}".format, e, st.sampled_from(["c", "not c", "c = false"])),
        st.builds("{} fby {}".format, e, e),
        st.builds("if {} then {} else {}".format, e, e, e),
        st.builds("merge c ({}) ({})".format, e, e))


# grammar-shaped texts parse more often, so they reach the printer
_grammar_texts = st.recursive(_atoms, _compound, max_leaves=12)


def _parses_or_fails_cleanly(text: str):
    try:
        prog = parse_program(text)
    except ParseError:
        return
    assert parse_program(pretty_print(prog)) == prog


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_expressions)
def test_expression_texts(body):
    _parses_or_fails_cleanly(_HEADER + body + ";\ntel\n")


@settings(derandomize=True, max_examples=250, deadline=None)
@given(_grammar_texts)
def test_grammar_shaped_texts(body):
    _parses_or_fails_cleanly(_HEADER + body + ";\ntel\n")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.text(max_size=60), st.booleans())
def test_free_text(text, after_header):
    _parses_or_fails_cleanly(_HEADER + text if after_header else text)
