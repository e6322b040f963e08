//! # parulel — facade crate
//!
//! A from-scratch reproduction of *"The PARULEL Parallel Rule Language"*
//! (S. Stolfo et al., Proc. 1991 Intl. Conf. on Parallel Processing).
//!
//! PARULEL is an OPS5-class forward-chaining production-rule language with
//! two distinguishing ideas:
//!
//! 1. **Set-oriented parallel firing** — every cycle, *all* rule
//!    instantiations that survive conflict resolution fire simultaneously,
//!    instead of OPS5's one-instantiation-per-cycle loop.
//! 2. **Meta-rules** — conflict resolution is programmable: declarative
//!    rules whose working memory *is the conflict set* delete ("redact")
//!    conflicting instantiations before the fire phase.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] — symbols, values, working memory, rule IR.
//! * [`lang`] — the surface language: lexer, parser, compiler.
//! * [`rmatch`](parulel_match) — the incremental matcher (RETE and TREAT
//!   presets), the naive oracle and the partitioned parallel matcher.
//! * [`engine`] — the single cycle kernel with pluggable
//!   firing policies (PARULEL fire-all and the serial OPS5 baseline),
//!   meta-rule evaluation, and copy-and-constrain.
//! * [`workloads`] — benchmark rule programs.
//! * [`sim`] — an analytic model of the DADO-class parallel
//!   machine the paper evaluated on, driven by measured cycle profiles.
//! * [`server`] — the `parulel serve` daemon: sessions
//!   multiplexed over a line-delimited JSON protocol (stdio/TCP/Unix).
//!
//! ## Quickstart
//!
//! ```
//! use parulel::prelude::*;
//!
//! let src = r#"
//!     (literalize count n)
//!     (p step
//!       (count ^n <n>)
//!       (test (< <n> 3))
//!      -->
//!       (modify 1 ^n (+ <n> 1)))
//! "#;
//! let program = parulel::lang::compile(src).expect("compiles");
//! let mut wm = WorkingMemory::new(&program.classes);
//! let count = program.classes.id_of(program.interner.intern("count")).unwrap();
//! wm.insert(count, vec![Value::Int(0)]);
//!
//! let mut engine = Engine::new(&program, wm, EngineOptions::default());
//! let outcome = engine.run().unwrap();
//! assert_eq!(outcome.cycles, 3);
//! let final_n = engine.wm().iter_class(count).next().unwrap().field(0);
//! assert_eq!(final_n, Value::Int(3));
//! ```

#![warn(missing_docs)]

pub use parulel_core as core;
pub use parulel_engine as engine;
pub use parulel_lang as lang;
pub use parulel_match as rmatch;
pub use parulel_server as server;
pub use parulel_sim as sim;
pub use parulel_workloads as workloads;

/// Convenient glob-import surface: the types almost every user needs.
pub mod prelude {
    pub use parulel_core::{
        ClassId, ConflictSet, Delta, Instantiation, Program, RuleId, Symbol, Value, WorkingMemory,
    };
    pub use parulel_engine::{
        Budgets, Engine, EngineError, EngineOptions, FiringPolicy, MatcherKind, MetricsLevel,
        Outcome, ReloadReport, Snapshot, SnapshotError, Strategy,
    };
    pub use parulel_lang::compile;
    pub use parulel_match::{Incremental, Matcher, NaiveMatcher};
}
