//! # parulel-core
//!
//! Core data model for the PARULEL reproduction.
//!
//! PARULEL ("The PARULEL Parallel Rule Language", Stolfo et al., ICPP 1991)
//! is an OPS5-class forward-chaining production-rule language whose novel
//! execution semantics fire *all* instantiations surviving programmable
//! meta-rule *redaction* in parallel each cycle, instead of selecting a
//! single instantiation via a hard-wired conflict-resolution strategy.
//!
//! This crate holds everything the rest of the system shares:
//!
//! * [`symbol`] — a thread-safe string interner producing compact
//!   [`Symbol`](symbol::Symbol) handles.
//! * [`value`] — the dynamic [`Value`](value::Value) type stored in working
//!   memory fields (symbols, integers, floats).
//! * [`classes`] — WME class declarations (`literalize` in the surface
//!   language) and the attribute → field-slot mapping.
//! * [`wme`] / [`wm`] — working-memory elements, the indexed working memory,
//!   and [`Delta`](wm::Delta)s describing atomic batches of changes.
//! * [`expr`] — arithmetic/predicate expressions evaluated against a rule's
//!   variable bindings (used by `test` CEs and RHS actions).
//! * [`ir`] — the compiled intermediate representation of rules, meta-rules
//!   and whole programs. The surface parser in `parulel-lang` targets this.
//! * [`inst`] — rule instantiations, conflict sets, and refraction keys.
//! * [`bytes`] — the one bounded little-endian byte codec ([`Writer`] /
//!   [`Reader`]) every binary format is written and read with.
//! * [`hash`] — a deterministic FxHash-style hasher used for every map/set
//!   in the hot path (HashDoS resistance is irrelevant here; speed and
//!   cross-run determinism are what matter).

#![warn(missing_docs)]

pub mod bytes;
pub mod classes;
pub mod expr;
pub mod hash;
pub mod inst;
pub mod ir;
pub mod symbol;
pub mod value;
pub mod wm;
pub mod wme;

pub use bytes::{ReadError, Reader, Writer};
pub use classes::{ClassDecl, ClassId, ClassRegistry};
pub use expr::{BinOp, Expr, PredOp, TestExpr};
pub use hash::{fnv1a, FxBuildHasher, FxHashMap, FxHashSet};
pub use inst::{ConflictSet, CsEvent, InstKey, Instantiation};
pub use ir::{
    Action, CePattern, ConditionElement, FieldCheck, FieldTest, MetaAction, MetaCe, MetaRule,
    MetaRuleId, Polarity, Program, Rule, RuleId, VarId,
};
pub use symbol::{Interner, Symbol};
pub use value::Value;
pub use wm::{Delta, WmRestoreError, WorkingMemory};
pub use wme::{Wme, WmeId};
