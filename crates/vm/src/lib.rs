//! # parulel-vm
//!
//! A compact stack bytecode for PARULEL rules, plus the register-free VM
//! that evaluates it and a content-addressed rule store.
//!
//! Tree-walking the IR ([`parulel_core::ir`]) re-dispatches on enum tags
//! for every field test and RHS expression of every candidate match. This
//! crate compiles each rule once into three flat code objects — per-CE
//! LHS tests, anchored rule tests, and the RHS action sequence — that a
//! small stack machine executes with a single opcode dispatch loop.
//!
//! Three properties matter more than raw speed:
//!
//! * **Bit-exact equivalence.** Every opcode bottoms out in the *same*
//!   core primitives the tree-walker uses ([`PredOp::apply`],
//!   [`Value::matches_eq`], [`parulel_core::ir::ccc_hash`],
//!   [`BinOp::apply`]), so compiled and interpreted evaluation cannot
//!   diverge — the differential suite in the workspace root proves it
//!   across every matcher and firing policy.
//! * **Content addressing.** Each [`RuleCode`] carries an FNV-1a hash of
//!   its canonicalized encoding (symbols and class names resolved to
//!   strings, the rule *name excluded*), so two compilations of the same
//!   rule body — across program edits, rule reorderings, or variable
//!   renamings — produce the same hash. [`ProgramCode`] keys rules both
//!   by name (the NameMap) and by hash (the CodeMap); live reload uses
//!   the hashes to decide which rules actually changed.
//! * **Hot swap.** Because unchanged rules keep their hash, a reloading
//!   engine can keep their matcher state (shared alpha nodes, RETE
//!   betas) untouched and rebuild only what changed.
//!
//! [`PredOp::apply`]: parulel_core::PredOp::apply
//! [`Value::matches_eq`]: parulel_core::Value::matches_eq
//! [`BinOp::apply`]: parulel_core::BinOp::apply

#![warn(missing_docs)]

pub mod code;
pub mod compile;
pub mod exec;

pub use code::{disassemble, disassemble_program, Code, Op, ProgramCode, RuleCode};
pub use compile::{
    compile_field_tests, compile_program, compile_program_reusing, compile_rule, FieldTestCode,
};
pub use exec::{Evaluator, FireOutput, RhsError};

/// Which evaluation path the engine and matchers run: the tree-walking
/// IR interpreter or the compiled stack bytecode.
///
/// `Bytecode` is what every run uses. `Tree` is the reference the
/// differential suite (`tests/eval_differential.rs`,
/// `tests/determinism.rs`) compares it against; the only door to it is
/// `EngineOptions.eval` — no CLI flag or protocol field selects it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EvalMode {
    /// Walk the IR enums directly (the original path).
    Tree,
    /// Execute compiled stack bytecode (the default).
    #[default]
    Bytecode,
}

impl EvalMode {
    /// The canonical name (`"tree"` / `"bytecode"`).
    pub fn name(self) -> &'static str {
        match self {
            EvalMode::Tree => "tree",
            EvalMode::Bytecode => "bytecode",
        }
    }
}
