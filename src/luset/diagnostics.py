"""Source spans, diagnostics, the exception hierarchy shared by all passes,
and the one reader of input files."""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


@dataclass(frozen=True)
class Diagnostic:
    """One problem found in a program.

    `kind` is a stable machine-readable tag (e.g. "duplicate-definition");
    `where` names the node and, when known, the equation index.
    """

    kind: str
    message: str
    span: SourceSpan | None = None
    node: str | None = None
    eq_index: int | None = None

    def __str__(self) -> str:
        loc = ""
        if self.span is not None:
            loc = f"{self.span}: "
        elif self.node is not None:
            loc = f"{self.node}" + (f"#eq{self.eq_index}" if self.eq_index is not None else "") + ": "
        return f"{loc}{self.kind}: {self.message}"


class LusetError(Exception):
    """Base class for all errors raised by the toolkit."""


class ParseError(LusetError):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


class ElaborationError(LusetError):
    """Clock or data-type inconsistency found while annotating a program.

    Identical diagnostics (a clock error repeated at every level of a nested
    `merge`) are reported once, in the order first found."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(dict.fromkeys(diagnostics))
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class CausalityError(LusetError):
    def __init__(self, node: str, cycle: list[str]):
        self.node = node
        self.cycle = cycle
        super().__init__(f"{node}: causality cycle through {', '.join(cycle)}")


class EvalError(LusetError):
    """Runtime failure of a run or of the stream semantics (stuck configuration)."""

    def __init__(self, kind: str, message: str, tick: int | None = None, var: str | None = None):
        self.kind = kind
        self.message = message
        self.tick = tick
        self.var = var
        where = "" if tick is None else f" at tick {tick}"
        who = "" if var is None else f" ({var})"
        super().__init__(f"{kind}{where}{who}: {message}")


class InferError(LusetError):
    """Security-type inference failure (unbound variable, bad arity, ...)."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(f"{kind}: {message}")


class LatticeError(LusetError):
    """A lattice description that is not a join-semilattice with bottom."""


def read_text(path, newline: str | None = None) -> str:
    """The UTF-8 text of the file at `path`, its line endings kept as
    `open` keeps them for `newline`. A file that cannot be read, or is not
    UTF-8, is a one-line LusetError that names it."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except OSError as exc:
        raise LusetError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise LusetError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_json(path):
    """The JSON value in the file at `path`. Text that is not JSON, or JSON
    nested past the stack, is a one-line LusetError that names the file."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise LusetError(f"{path}: bad JSON input: {exc}") from None
