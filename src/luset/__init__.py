"""Security-typed analyzer and clocked-stream interpreter for a Lustre subset."""

from .diagnostics import (CausalityError, Diagnostic, ElaborationError, EvalError,
                          InferError, LatticeError, LusetError, ParseError, SourceSpan)
from .lang import (BASE_CLOCK, Binop, Call, ClockBase, ClockOn, Const, Def, Fby, Ite,
                   Merge, NCall, NDef, NFby, Node, Program, Ty, Unop, Var, VarDecl,
                   When, causality, defined_vars, elaborate, free_vars,
                   nlustre_violations, well_formed)
from .parser import parse_program, pretty_print
from .sectypes import (CanonType, Constraint, ConstraintSet, Lattice, canon,
                       eval_ground, least_solution, satisfies)
from .infer import (FreshVars, NodeSignature, check_program, infer_node_signature,
                    infer_program, signatures, simplify, type_clock, type_equation,
                    type_expr)
from .normalize import init_fby, normalize_program
from .streams import (ABSENT, base_of, const_stream, eval_clock, eval_expr, eval_node,
                      fby_lustre, fby_nlustre, ite_stream, lift_binop, lift_unop,
                      merge_stream, read_trace, respects_clock, run_node, when_stream)
from .harness import (NIConfig, check_equational_soundness, check_non_interference,
                      check_semantics_preservation, check_simple_security,
                      check_type_preservation, gen_inputs, gen_lattice, gen_program,
                      project_history)

__version__ = "0.1.0"
