"""Security-typed analyzer and clocked-stream interpreter for a Lustre subset."""

from .diagnostics import (CausalityError, Diagnostic, ElaborationError, EvalError,
                          InferError, LatticeError, LusetError, ParseError, SourceSpan)
from .lang import (BASE_CLOCK, Binop, Call, ClockBase, ClockOn, Const, Def, Fby, Ite,
                   Merge, NCall, NDef, NFby, Node, Program, Ty, Unop, Var, VarDecl,
                   When, causality, elaborate, free_vars,
                   nlustre_violations, well_formed)
from .parser import parse_program, pretty_print
from .sectypes import (CanonType, Constraint, ConstraintSet, Lattice, canon,
                       eval_ground, least_solution)
from .infer import (FreshVars, NodeSignature, check_program, infer_node_signature,
                    infer_program, signatures, type_expr)
from .normalize import init_fby, normalize_program
from .streams import ABSENT, eval_clock, read_trace, run_node
from .harness import (NIConfig, check_equational_soundness, check_non_interference,
                      check_semantics_preservation, check_simple_security,
                      check_type_preservation, gen_inputs, gen_program)

__version__ = "0.1.0"


def __getattr__(name: str):
    """`sem_node`, the stream semantics as a predicate over whole histories,
    from `luset.semantics`, which is imported on first use."""
    if name == "sem_node":
        from .semantics import sem_node
        return sem_node
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
