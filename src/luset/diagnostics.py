"""Source spans, diagnostics and the exception hierarchy shared by all passes."""

from __future__ import annotations

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
    """Runtime failure of the stream interpreter (stuck configuration)."""

    def __init__(self, kind: str, message: str, tick: int | None = None, var: str | None = None):
        self.kind = kind
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
