"""Reversible term rewriting toolkit.

Conditional rewrite systems run forward while recording minimal traces, run
deterministically backward, and compile to ordinary rewrite systems through
flattening, injectivization and inversion; a bidirectional view-update
construction sits on top.
"""

from .errors import (
    ArityConflict,
    BoundExceeded,
    DuplicateLabel,
    EmptyTrace,
    InvalidPosition,
    NoStep,
    NotApplicable,
    NotGround,
    OverlappingDomains,
    ParseError,
    PreconditionViolated,
    ReservedName,
    RevrwError,
    ShapeViolated,
    TraceMismatch,
    UnknownLabel,
    UnsafePair,
    UnsafeTrace,
    UpdateFailed,
    ViewFailed,
)
from .rewrite import Bounds, DEFAULT_BOUNDS, StepWitness, first_step, normalize, solve_conditions, step
from .reversible import (
    Pair,
    Trace,
    TraceTerm,
    backward_run,
    backward_step,
    format_trace,
    forward_run,
    forward_step,
    forward_successors,
    is_safe,
    parse_trace,
)
from .systems import (
    Condition,
    RewriteSystem,
    Rule,
    ValidationReport,
    format_system,
    parse_system,
    parse_term,
    parse_terms,
    safety_domain,
    validate,
)
from .terms import (
    App,
    Position,
    ROOT,
    Subst,
    Symbol,
    Term,
    Var,
    format_position,
    format_term,
    is_basic_term,
    is_constructor_term,
    is_ground,
    match,
    parse_position,
    positions,
    replace,
    subterm,
    term_vars,
    unify,
)
from .transform import (
    FreshNames,
    PipelineReport,
    Stage,
    encode_trace,
    flatten_condition,
    flatten_rhs,
    injectivize,
    injectivize_improved,
    invert,
    is_injectivized,
    range_disjoint,
    remove_fail,
    remove_unify,
    to_pcdctrs,
    tuple_symbol,
    view_update,
)

__version__ = "0.1.0"
