//! # parulel-vm
//!
//! The canonical encoding of PARULEL rules, and the content hashes
//! computed over it.
//!
//! Each rule compiles once into a compact stack bytecode — per-CE LHS
//! tests, anchored rule tests, and the RHS action sequence — whose
//! canonicalized bytes (symbols and class names resolved to strings, the
//! rule *name excluded*) are hashed with FNV-1a. Nothing executes this
//! code: every rule runs on the IR walker in [`parulel_core::ir`]. The
//! encoding exists for two properties:
//!
//! * **Content addressing.** Two compilations of the same rule body —
//!   across program edits, rule reorderings, or variable renamings —
//!   produce the same hash. [`ProgramCode`] keys rules both by name (the
//!   NameMap) and by hash (the CodeMap); live reload uses the hashes to
//!   decide which rules actually changed, and snapshots record them.
//! * **Hot swap.** Because unchanged rules keep their hash, a reloading
//!   engine can keep their matcher state (shared alpha nodes, RETE
//!   betas) untouched and rebuild only what changed.
//!
//! [`disassemble`] renders the encoding as deterministic text.

#![warn(missing_docs)]

pub mod code;
pub mod compile;

pub use code::{disassemble, disassemble_program, Code, Op, ProgramCode, RuleCode};
pub use compile::{compile_program, compile_program_reusing, compile_rule};
