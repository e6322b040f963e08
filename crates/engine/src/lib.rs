//! # parulel-engine
//!
//! Execution engines for the PARULEL reproduction.
//!
//! ## One cycle kernel, pluggable firing policies
//!
//! Classic OPS5 runs *match → resolve → act*: compute the conflict set,
//! select **one** instantiation with a hard-wired strategy (LEX/MEA), fire
//! it, repeat. PARULEL's contribution is the *match → redact → fire-all*
//! cycle. Both are the **same loop** with a different resolve phase, and
//! the crate is structured that way: a single cycle driver
//! ([`core::Engine`]) owns working memory, the matcher, refraction,
//! budgets/timeouts, panic isolation, checkpoint/resume, fault
//! injection, `inject()`, metrics, and trace events, while a
//! [`FiringPolicy`] decides what fires each cycle:
//!
//! * [`FiringPolicy::FireAll`] — PARULEL:
//!   1. **Match** — an incremental matcher (`parulel-match`) maintains
//!      the conflict set; refraction removes already-fired
//!      instantiations.
//!   2. **Redact** — [`meta`]: the program's *meta-rules* run to
//!      fixpoint over the conflict set, deleting ("redacting")
//!      instantiations that must not fire together. Conflict resolution
//!      becomes programmable, application-level knowledge. An optional
//!      [`interference`] guard backstops them, auto-redacting overlaps
//!      a correct meta-rule set should have prevented.
//!   3. **Fire all** — every surviving instantiation fires *in the same
//!      cycle*: [`fire::fire_set`] evaluates the RHSs in instantiation-key
//!      order on the cycle's own thread, each against the cycle-start
//!      snapshot, into one delta that is applied to working memory
//!      atomically.
//! * [`FiringPolicy::SelectOne`] — the OPS5 baseline every speedup
//!   table compares against: one LEX/MEA winner per cycle.
//!
//! [`Engine::new`] builds the fire-all engine; [`Engine::with_policy`]
//! takes any policy.
//!
//! ## Copy-and-constrain ([`ccc`])
//!
//! The PARULEL-era program transform for match parallelism: split a hot
//! rule into `k` copies, each constrained by a hash-residue test on a
//! binding field, so a partitioned matcher spreads its join work across
//! `k` workers.

#![warn(missing_docs)]

pub mod ccc;
pub mod core;
#[cfg(feature = "fault-inject")]
pub mod faults;
pub mod fire;
pub mod guard;
pub mod interference;
pub mod json;
pub mod meta;
pub mod metrics;
pub mod policy;
pub mod refraction;
pub mod snapshot;
pub mod stats;

pub use ccc::copy_and_constrain;
pub use core::Engine;
pub use fire::EngineError;
pub use guard::Budgets;
pub use interference::GuardMode;
pub use json::Json;
pub use metrics::{EngineMetrics, MetricsLevel, RuleMetrics, TraceBuffer, TraceEvent};
pub use policy::{FiringPolicy, Strategy};
pub use snapshot::{Snapshot, SnapshotError};
pub use stats::{CycleStats, Outcome, RunStats};

pub use core::ReloadReport;

use parulel_core::Program;
use parulel_match::{Incremental, Matcher, NaiveMatcher, Partitioned};
use std::sync::Arc;

/// Which match engine a run uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MatcherKind {
    /// Recompute-from-scratch oracle.
    Naive,
    /// Incremental RETE (the default).
    #[default]
    Rete,
    /// TREAT (alpha memories only).
    Treat,
    /// Rule-partitioned parallel RETE with this many workers.
    PartitionedRete(usize),
    /// Rule-partitioned parallel TREAT with this many workers.
    PartitionedTreat(usize),
}

impl MatcherKind {
    /// Instantiates the matcher over every rule of `program`; every
    /// worker of a partitioned matcher shares the one `Arc`'d program.
    pub fn build(self, program: Arc<Program>) -> Box<dyn Matcher> {
        match self {
            MatcherKind::Naive => Box::new(NaiveMatcher::new(program)),
            MatcherKind::Rete => Box::new(Incremental::rete(program)),
            MatcherKind::Treat => Box::new(Incremental::treat(program)),
            MatcherKind::PartitionedRete(n) => Box::new(Partitioned::rete(program, n)),
            MatcherKind::PartitionedTreat(n) => Box::new(Partitioned::treat(program, n)),
        }
    }
}

impl std::str::FromStr for MatcherKind {
    type Err = String;

    /// Parses the CLI and protocol spelling: `rete`, `treat`, `naive`,
    /// `prete:N` or `ptreat:N` with `N >= 1` workers.
    fn from_str(s: &str) -> Result<Self, String> {
        let workers = |n: &str| match n.parse() {
            Err(_) => Err(format!("bad worker count in '{s}'")),
            // A zero-shard matcher cannot exist; silently running with one
            // shard would let stats and bench labels lie about parallelism.
            Ok(0) => Err(format!(
                "'{s}': worker count must be at least 1 \
                 (use 'rete' or 'treat' for a single unpartitioned matcher)"
            )),
            Ok(n) => Ok(n),
        };
        match s {
            "rete" => Ok(MatcherKind::Rete),
            "treat" => Ok(MatcherKind::Treat),
            "naive" => Ok(MatcherKind::Naive),
            _ => match s.split_once(':') {
                Some(("prete", n)) => Ok(MatcherKind::PartitionedRete(workers(n)?)),
                Some(("ptreat", n)) => Ok(MatcherKind::PartitionedTreat(workers(n)?)),
                _ => Err(format!("unknown matcher '{s}'")),
            },
        }
    }
}

impl std::str::FromStr for GuardMode {
    type Err = String;

    /// Parses the CLI and protocol spelling: `off`, `ww` or
    /// `serializable`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(GuardMode::Off),
            "ww" => Ok(GuardMode::WriteWrite),
            "serializable" => Ok(GuardMode::Serializable),
            _ => Err(format!("unknown guard '{s}' (want off|ww|serializable)")),
        }
    }
}

impl std::str::FromStr for MetricsLevel {
    type Err = String;

    /// Parses the CLI and protocol spelling: `off`, `rules` or `full`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(MetricsLevel::Off),
            "rules" => Ok(MetricsLevel::Rules),
            "full" => Ok(MetricsLevel::Full),
            _ => Err(format!("unknown metrics level '{s}' (want off|rules|full)")),
        }
    }
}

impl std::str::FromStr for FiringPolicy {
    type Err = String;

    /// Parses the CLI's `--engine` and the protocol's `policy`:
    /// `parallel` is [`FiringPolicy::fire_all`] (meta-rules on, guard
    /// off; callers set both from their own options), `lex` and `mea`
    /// the OPS5 baselines.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "parallel" => Ok(FiringPolicy::fire_all()),
            "lex" => Ok(FiringPolicy::SelectOne(Strategy::Lex)),
            "mea" => Ok(FiringPolicy::SelectOne(Strategy::Mea)),
            _ => Err(format!("unknown policy '{s}' (want parallel|lex|mea)")),
        }
    }
}

/// Run-time options for the unified [`Engine`] (any policy).
///
/// Policy-specific configuration — meta-rule redaction and the
/// interference guard — lives on [`FiringPolicy::FireAll`], not here: a
/// `SelectOne` engine cannot silently carry a guard it would ignore.
///
/// Nothing here selects *how* rules evaluate: every LHS test, join test
/// and RHS runs on the IR walker ([`parulel_core::ir`]), and a cycle's
/// surviving RHSs always fire as one set on the cycle's thread, in
/// instantiation-key order.
/// The program's rules are also hashed once ([`Engine::code`]) for the
/// content hashes that [`Engine::reload`] diffs and snapshots record.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Match engine selection.
    pub matcher: MatcherKind,
    /// Stop (with `hit_cycle_limit`) after this many cycles; a safety net
    /// for non-terminating programs.
    pub max_cycles: u64,
    /// Keep `write` action output in the run log.
    pub collect_log: bool,
    /// Observability collection level ([`MetricsLevel::Off`] by default:
    /// the hot path is bit-identical to an uninstrumented run).
    pub metrics: MetricsLevel,
    /// Capacity of the structured [`TraceBuffer`] ring: `Some(cap)`
    /// records typed events (one per cycle that fired, budget trips,
    /// checkpoint writes, injections, run ends) keeping the newest `cap`;
    /// `None` (default) records nothing.
    pub trace_events: Option<usize>,
    /// Resource budgets checked at cycle boundaries (any policy).
    /// Default: unlimited.
    pub budgets: Budgets,
    /// Capture a [`Snapshot`] into the engine's
    /// [`latest_checkpoint`](Engine::latest_checkpoint) every
    /// this-many cycles during [`run`](Engine::run). `None`
    /// disables periodic checkpoints (one is still captured when a
    /// budget trips).
    pub checkpoint_every: Option<u64>,
    /// The deterministic fault schedule (tests only; compiled under the
    /// `fault-inject` feature).
    #[cfg(feature = "fault-inject")]
    pub faults: faults::FaultPlan,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            matcher: MatcherKind::Rete,
            max_cycles: 1_000_000,
            collect_log: true,
            metrics: MetricsLevel::Off,
            trace_events: None,
            budgets: Budgets::unlimited(),
            checkpoint_every: None,
            #[cfg(feature = "fault-inject")]
            faults: faults::FaultPlan::none(),
        }
    }
}
