//! Error types for the AXML core.

use crate::sym::Sym;
use std::fmt;

/// Errors raised while constructing or manipulating AXML trees, queries,
/// and systems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxmlError {
    /// Atomic values may only mark leaf nodes (Definition 2.1 (i)).
    ValueNodeWithChildren,
    /// A document root must carry a label or an atomic value, never a
    /// function name (Definition 2.1 (ii)).
    FunctionRoot,
    /// The node id does not name a live node of this tree.
    DeadNode,
    /// Invocation was requested on a node that is not a function node.
    NotAFunctionNode,
    /// Parse error with position and message.
    Parse {
        /// Byte offset into the source where parsing failed.
        pos: usize,
        /// Human-readable description of the failure.
        msg: String,
    },
    /// A query head uses a variable that does not occur in the body
    /// (Definition 3.1 (2)).
    UnsafeHeadVariable(Sym),
    /// The same variable name is used with two different kinds (e.g. `$x`
    /// and `?x`) within one query.
    MixedVariableKinds(Sym),
    /// A tree variable occurs more than once in a query body
    /// (Definition 3.1 (3)).
    RepeatedTreeVariable(Sym),
    /// Tree variables may not appear in inequalities (Definition 3.1 (3)).
    TreeVariableInInequality(Sym),
    /// Tree and value variables may only mark pattern leaves.
    NonLeafPatternVariable(Sym),
    /// The reserved document names `input` and `context` cannot be stored
    /// documents of a system (Definition 2.3).
    ReservedDocumentName(Sym),
    /// A document with this name already exists in the system.
    DuplicateDocument(Sym),
    /// A service with this name already exists in the system.
    DuplicateService(Sym),
    /// A document mentions a function name with no registered service.
    UnknownFunction(Sym),
    /// A query body references a document name absent from the evaluation
    /// environment.
    UnknownDocument(Sym),
    /// An operation that requires a *simple* system (no tree variables in
    /// any service query) was invoked on a non-simple one.
    NotSimple(Sym),
    /// Least upper bound requested for trees with distinct root markings,
    /// which the paper declares incomparable.
    IncomparableRoots,
    /// The engine exhausted its step or node budget before reaching a
    /// fixpoint.
    BudgetExhausted,
    /// A user label, function, or variable name collides with the `ax…`
    /// namespace reserved by the ψ translation (Prop 5.1).
    ReservedName(Sym),
}

impl fmt::Display for AxmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxmlError::ValueNodeWithChildren => {
                write!(f, "atomic values may only be assigned to leaf nodes")
            }
            AxmlError::FunctionRoot => {
                write!(f, "a document root must be a label or an atomic value")
            }
            AxmlError::DeadNode => write!(f, "node id does not name a live node"),
            AxmlError::NotAFunctionNode => {
                write!(f, "invocation requested on a non-function node")
            }
            AxmlError::Parse { pos, msg } => write!(f, "parse error at byte {pos}: {msg}"),
            AxmlError::UnsafeHeadVariable(v) => {
                write!(f, "head variable {v} does not occur in the query body")
            }
            AxmlError::MixedVariableKinds(v) => {
                write!(f, "variable {v} is used with two different kinds")
            }
            AxmlError::RepeatedTreeVariable(v) => {
                write!(f, "tree variable {v} occurs more than once in the body")
            }
            AxmlError::TreeVariableInInequality(v) => {
                write!(f, "tree variable {v} may not appear in an inequality")
            }
            AxmlError::NonLeafPatternVariable(v) => {
                write!(f, "variable {v} must mark a pattern leaf")
            }
            AxmlError::ReservedDocumentName(d) => {
                write!(f, "document name {d} is reserved (input/context)")
            }
            AxmlError::DuplicateDocument(d) => write!(f, "document {d} already exists"),
            AxmlError::DuplicateService(s) => write!(f, "service {s} already exists"),
            AxmlError::UnknownFunction(s) => write!(f, "no service registered for function {s}"),
            AxmlError::UnknownDocument(d) => write!(f, "unknown document name {d}"),
            AxmlError::NotSimple(s) => {
                write!(
                    f,
                    "operation requires a simple system, but service {s} uses tree variables"
                )
            }
            AxmlError::IncomparableRoots => {
                write!(f, "trees with distinct root markings are incomparable")
            }
            AxmlError::BudgetExhausted => write!(f, "rewriting budget exhausted before fixpoint"),
            AxmlError::ReservedName(s) => {
                write!(
                    f,
                    "name {s} collides with the translation-reserved ax… namespace"
                )
            }
        }
    }
}

impl std::error::Error for AxmlError {}

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, AxmlError>;
