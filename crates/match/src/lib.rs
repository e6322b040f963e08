//! # parulel-match
//!
//! Match engines for the PARULEL reproduction. Matching — computing the
//! conflict set of all rule instantiations — dominates production-system
//! run time, and PARULEL's parallel cycle depends on *incremental*,
//! *state-saving* match: each cycle only the working-memory delta is
//! pushed through the network.
//!
//! Three matchers, one [`Matcher`] trait, and one join kernel
//! ([`enumerate`]): a per-rule `JoinPlan` over the
//! shared [`alpha`] network and the one depth-first walk that probes its
//! indexes and checks every CE. Every matcher joins through that walk;
//! they differ only in what they keep between changes.
//!
//! * [`NaiveMatcher`] — recomputes the conflict set from scratch on demand
//!   (the walk over class scans). Exists as the correctness oracle the
//!   incremental matchers are property-tested against, and as the "no
//!   state saving" baseline in the Figure 2 ablation.
//! * [`Incremental`] — one alpha network, one conflict set, and per rule
//!   what it keeps between changes, set by one of two presets:
//!   - [`Incremental::rete`] — the classic state-saving network (Forgy
//!     1982): beta token memories and counted negative nodes, the walk
//!     resumed at a stored token on each change. Add *and* remove are
//!     incremental.
//!   - [`Incremental::treat`] — Miranker's alpha-memory-only alternative:
//!     the conflict set itself is the only join state. Adds run the walk
//!     pinned at each matching CE position; removes delete conflict-set
//!     entries directly. Cheaper on remove-heavy programs, pays join
//!     recomputation on adds.
//! * [`Partitioned`] — PARULEL's parallel match: rules are partitioned
//!   across workers, each owning a private incremental matcher (either
//!   preset) over the same WME stream; deltas are applied to all workers
//!   in parallel (rayon) and the conflict set is the union. Combine with
//!   the copy-and-constrain transform (in `parulel-engine`) to split hot
//!   rules across workers.

#![warn(missing_docs)]

pub mod alpha;
pub mod arena;
pub mod enumerate;
pub mod incremental;
pub mod naive;
pub mod partitioned;

pub use incremental::Incremental;
pub use naive::NaiveMatcher;
pub use partitioned::Partitioned;

use parulel_core::{ConflictSet, CsEvent, Program, RuleId, Wme, WorkingMemory};
use std::sync::Arc;

/// A point-in-time report of a matcher's internal population, for the
/// engine's observability layer. Cheap to produce (a walk over the
/// network, no allocation proportional to WM) but not free — engines
/// sample it only when metrics collection is enabled.
#[derive(Clone, Debug, PartialEq)]
pub struct MatcherMetrics {
    /// Engine kind: `"naive"`, `"rete"`, `"treat"`,
    /// `"partitioned-rete"`, `"partitioned-treat"`.
    pub kind: &'static str,
    /// Workers actually in effect (1 for monolithic matchers). For
    /// [`Partitioned`] this is the real worker count after clamping, not
    /// the requested one.
    pub shards: usize,
    /// Rules this matcher covers.
    pub rules: usize,
    /// Current conflict-set size (for [`NaiveMatcher`] this reflects the
    /// last recompute; it may lag working memory until the next
    /// `conflict_set()` call).
    pub conflict_set: usize,
    /// WMEs held in alpha memories, summed across CEs (a WME passing
    /// several CEs' constant tests counts once per memory).
    pub alpha_wmes: usize,
    /// Partial-match tokens held in beta memories (RETE preset only; zero
    /// for TREAT/naive, which keep no beta state).
    pub beta_tokens: usize,
    /// Entries in counted-negative-node tables (RETE preset only).
    pub negative_counts: usize,
    /// Live nodes in the shared alpha network: distinct (class,
    /// constant-test) memories after deduplication (zero for naive,
    /// which has no network).
    pub alpha_nodes: usize,
    /// Total (rule, CE) subscriptions across those nodes; the gap to
    /// `alpha_nodes` is the per-rule state sharing avoids keeping.
    pub alpha_subscriptions: usize,
    /// Lifetime count of alpha test evaluations whose result was fanned
    /// out to more than one subscriber — work the per-rule layout would
    /// have repeated. `> 0` proves sharing is live.
    pub alpha_share_hits: u64,
    /// Lifetime count of full per-rule re-enumerations (TREAT preset
    /// only: the cost paid when a negative blocker disappears).
    pub reenumerations: u64,
    /// Lifetime count of full conflict-set recomputes (naive only).
    pub recomputes: u64,
    /// Per-worker reports (partitioned matchers only).
    pub per_shard: Vec<MatcherMetrics>,
}

impl Default for MatcherMetrics {
    fn default() -> Self {
        MatcherMetrics {
            kind: "unknown",
            shards: 1,
            rules: 0,
            conflict_set: 0,
            alpha_wmes: 0,
            beta_tokens: 0,
            negative_counts: 0,
            alpha_nodes: 0,
            alpha_subscriptions: 0,
            alpha_share_hits: 0,
            reenumerations: 0,
            recomputes: 0,
            per_shard: Vec::new(),
        }
    }
}

impl MatcherMetrics {
    /// A scalar proxy for how much match state this shard carries.
    pub fn work(&self) -> usize {
        self.alpha_wmes + self.beta_tokens + self.conflict_set
    }

    /// Max-over-mean of [`work`](Self::work) across shards: 1.0 is
    /// perfectly balanced (or unpartitioned/idle); 2.0 means the hottest
    /// shard carries twice the average — the skew copy-and-constrain
    /// exists to fix.
    ///
    /// Only shards that own at least one rule participate: with more
    /// workers than rules (a legal configuration) the surplus shards can
    /// never carry work, and counting their zeros would report huge
    /// imbalance for a perfectly balanced program.
    pub fn imbalance(&self) -> f64 {
        let works: Vec<f64> = self
            .per_shard
            .iter()
            .filter(|s| s.rules > 0)
            .map(|s| s.work() as f64)
            .collect();
        if works.len() < 2 {
            return 1.0;
        }
        let mean = works.iter().sum::<f64>() / works.len() as f64;
        if mean == 0.0 {
            return 1.0;
        }
        works.iter().cloned().fold(0.0f64, f64::max) / mean
    }
}

/// A match engine: consumes working-memory changes, maintains the conflict
/// set.
pub trait Matcher: Send {
    /// Feeds one asserted WME through the network.
    fn add_wme(&mut self, wme: &Wme);

    /// Feeds one retracted WME through the network.
    fn remove_wme(&mut self, wme: &Wme);

    /// Applies a batch of changes (removes first, then adds — the order
    /// the engine applies deltas in). Parallel matchers override this to
    /// process the whole batch per worker.
    fn apply(&mut self, removed: &[Wme], added: &[Wme]) {
        for w in removed {
            self.remove_wme(w);
        }
        for w in added {
            self.add_wme(w);
        }
    }

    /// Seeds a freshly built matcher from an initial working memory.
    fn seed(&mut self, wm: &WorkingMemory) {
        for w in wm.iter() {
            self.add_wme(w);
        }
    }

    /// The current conflict set.
    fn conflict_set(&mut self) -> &ConflictSet;

    /// Drains the conflict-set change events recorded since the last
    /// drain, enabling recording on first call.
    ///
    /// `None` means this matcher does not track deltas (or had not yet
    /// started recording): the caller must read the full conflict set once
    /// before relying on subsequent drains. The partitioned matcher uses
    /// this to patch its merged union incrementally. The default keeps
    /// matchers delta-blind.
    fn drain_cs_events(&mut self) -> Option<Vec<CsEvent>> {
        None
    }

    /// A snapshot of the matcher's internal population. The default is an
    /// empty report; the naive, incremental and partitioned matchers all
    /// override it.
    fn metrics(&self) -> MatcherMetrics {
        MatcherMetrics::default()
    }

    /// Surgically swaps a set of rules for another against the *new*
    /// program `_program`: nets/memories for `_remove` are dropped (their
    /// conflict-set entries purged) and state for `_add` is built and
    /// seeded from the matcher's own store of the live WMEs. Both lists
    /// name rules by their ids **in the new program**; a rule id appearing
    /// in both lists is rebuilt (its definition changed). Returns `false`
    /// when the matcher does not support in-place replacement — the
    /// caller must then rebuild the whole matcher. Called by
    /// `Engine::reload`, which rebuilds only the changed rules and keeps
    /// every unchanged rule's state.
    fn replace_rules(
        &mut self,
        _program: &Arc<Program>,
        _remove: &[RuleId],
        _add: &[RuleId],
    ) -> bool {
        false
    }
}

#[cfg(test)]
mod metrics_tests {
    use super::MatcherMetrics;

    fn shard(rules: usize, work: usize) -> MatcherMetrics {
        MatcherMetrics {
            rules,
            alpha_wmes: work,
            ..Default::default()
        }
    }

    fn with_shards(per_shard: Vec<MatcherMetrics>) -> MatcherMetrics {
        MatcherMetrics {
            per_shard,
            ..Default::default()
        }
    }

    #[test]
    fn imbalance_ignores_rule_less_shards() {
        // 4 rules spread over 64 workers, perfectly balanced: the 60
        // zero-work shards must not drag the mean down.
        let m = with_shards(
            (0..64)
                .map(|i| shard(usize::from(i < 4), if i < 4 { 10 } else { 0 }))
                .collect(),
        );
        assert_eq!(m.imbalance(), 1.0);
    }

    #[test]
    fn imbalance_still_sees_real_skew() {
        let m = with_shards(vec![shard(1, 30), shard(1, 10), shard(0, 0)]);
        assert!((m.imbalance() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn imbalance_degenerate_cases_are_balanced() {
        let m = MatcherMetrics::default();
        assert_eq!(m.imbalance(), 1.0, "unpartitioned");
        let m = with_shards(vec![shard(1, 0), shard(1, 0)]);
        assert_eq!(m.imbalance(), 1.0, "idle shards");
        let m = with_shards(vec![shard(1, 5), shard(0, 0)]);
        assert_eq!(m.imbalance(), 1.0, "only one shard owns rules");
    }
}
