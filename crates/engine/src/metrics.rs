//! The observability layer: per-rule counters, engine-wide peaks, and a
//! ring-buffered structured trace.
//!
//! Everything here is gated on [`MetricsLevel`]: at the default
//! [`MetricsLevel::Off`] the engines skip every collection branch, so the
//! hot path is bit-identical to an uninstrumented run (covered by
//! `tests/determinism.rs`). Metrics are *observability* state, not run
//! state — they are deliberately excluded from [`crate::Snapshot`]s, which
//! must stay wire-compatible across releases.

use crate::json::Json;
use crate::stats::RunStats;
use parulel_core::{Program, RuleId};
use parulel_match::MatcherMetrics;
use std::time::Duration;

/// How much the engine records beyond [`RunStats`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum MetricsLevel {
    /// No collection at all — the seed hot path (default).
    #[default]
    Off,
    /// Per-rule counters (matches seen, firings, redactions, RHS time)
    /// plus peak working-memory and conflict-set sizes. Adds a few hash
    /// bumps and one `Instant::now()` per firing per cycle.
    Rules,
    /// Everything in `Rules`, plus a per-cycle sample of the matcher's
    /// internal population ([`MatcherMetrics`]): RETE beta tokens, TREAT
    /// re-enumerations, partitioned shard imbalance. Adds one network
    /// walk per cycle.
    Full,
}

impl MetricsLevel {
    /// True when per-rule counters are collected.
    pub fn per_rule(self) -> bool {
        self >= MetricsLevel::Rules
    }

    /// True when matcher internals are sampled each cycle.
    pub fn matcher(self) -> bool {
        self >= MetricsLevel::Full
    }
}

/// Counters for one rule, accumulated over a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleMetrics {
    /// Eligible (unrefracted) instantiations of this rule observed at
    /// cycle starts, summed over cycles. An instantiation that stays
    /// eligible across cycles (e.g. repeatedly redacted) counts once per
    /// cycle — this measures match *pressure*, not distinct matches.
    pub matched: u64,
    /// Instantiations of this rule that fired.
    pub fired: u64,
    /// Instantiations redacted by meta-rules.
    pub redacted_meta: u64,
    /// Instantiations redacted by the interference guard.
    pub redacted_guard: u64,
    /// Wall time spent evaluating this rule's RHS (summed across
    /// firings).
    pub rhs_time: Duration,
}

/// Run-wide metrics collected by an engine when
/// [`EngineOptions::metrics`](crate::EngineOptions) is not `Off`.
#[derive(Clone, Debug, Default)]
pub struct EngineMetrics {
    /// The level this was collected at.
    pub level: MetricsLevel,
    /// Per-rule counters, indexed by `RuleId` order.
    pub per_rule: Vec<RuleMetrics>,
    /// Largest working memory seen at a cycle boundary.
    pub peak_wm: usize,
    /// Widest conflict set seen at a cycle start.
    pub peak_conflict_set: usize,
    /// Peak alpha-memory population sampled from the matcher
    /// (`Full` only).
    pub peak_alpha_wmes: usize,
    /// Peak beta-token population sampled from the matcher (`Full` only;
    /// zero for TREAT/naive, which keep no beta state).
    pub peak_beta_tokens: usize,
    /// Worst per-shard work imbalance sampled from a partitioned matcher
    /// (`Full` only; 1.0 means perfectly balanced or unpartitioned).
    pub max_shard_imbalance: f64,
}

impl EngineMetrics {
    /// An empty collector for `num_rules` rules at `level`.
    pub fn new(level: MetricsLevel, num_rules: usize) -> Self {
        EngineMetrics {
            level,
            per_rule: if level.per_rule() {
                vec![RuleMetrics::default(); num_rules]
            } else {
                Vec::new()
            },
            max_shard_imbalance: 1.0,
            ..Default::default()
        }
    }

    /// The counters for `rule` (zero-default when collection is off).
    pub fn rule(&self, rule: RuleId) -> RuleMetrics {
        self.per_rule.get(rule.0 as usize).cloned().unwrap_or_default()
    }

    /// Folds one matcher sample into the peaks (`Full` level).
    pub fn sample_matcher(&mut self, m: &MatcherMetrics) {
        self.peak_alpha_wmes = self.peak_alpha_wmes.max(m.alpha_wmes);
        self.peak_beta_tokens = self.peak_beta_tokens.max(m.beta_tokens);
        self.max_shard_imbalance = self.max_shard_imbalance.max(m.imbalance());
    }

    /// The `k` busiest rules by firings (ties broken by rule order),
    /// with resolved names. Rules that never matched are skipped.
    pub fn top_rules(&self, program: &Program, k: usize) -> Vec<(String, RuleMetrics)> {
        let mut rows: Vec<(usize, &RuleMetrics)> = self
            .per_rule
            .iter()
            .enumerate()
            .filter(|(_, m)| m.matched > 0 || m.fired > 0)
            .collect();
        rows.sort_by(|a, b| b.1.fired.cmp(&a.1.fired).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        rows.into_iter()
            .map(|(i, m)| (program.rule_name(RuleId(i as u32)), m.clone()))
            .collect()
    }

    /// Renders the full report (level, peaks, per-rule table) as JSON,
    /// with rule names resolved through `program`. The matcher sample and
    /// run stats give the report enough context to stand alone.
    pub fn to_json(
        &self,
        program: &Program,
        matcher: &MatcherMetrics,
        stats: &RunStats,
    ) -> Json {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let rules: Vec<Json> = self
            .per_rule
            .iter()
            .enumerate()
            .filter(|(_, m)| m.matched > 0 || m.fired > 0)
            .map(|(i, m)| {
                Json::obj()
                    .set("rule", program.rule_name(RuleId(i as u32)))
                    .set("matched", m.matched)
                    .set("fired", m.fired)
                    .set("redacted_meta", m.redacted_meta)
                    .set("redacted_guard", m.redacted_guard)
                    .set("rhs_ms", ms(m.rhs_time))
            })
            .collect();
        Json::obj()
            .set("schema", METRICS_SCHEMA)
            .set("level", format!("{:?}", self.level).to_lowercase())
            .set("cycles", stats.cycles)
            .set("firings", stats.firings)
            .set("redacted_meta", stats.redacted_meta)
            .set("redacted_guard", stats.redacted_guard)
            .set("peak_wm", self.peak_wm)
            .set("peak_conflict_set", self.peak_conflict_set)
            .set("peak_alpha_wmes", self.peak_alpha_wmes)
            .set("peak_beta_tokens", self.peak_beta_tokens)
            .set("max_shard_imbalance", self.max_shard_imbalance)
            .set("match_ms", ms(stats.match_time))
            .set("redact_ms", ms(stats.redact_time))
            .set("fire_ms", ms(stats.fire_time))
            .set("apply_ms", ms(stats.apply_time))
            .set("matcher", matcher_json(matcher))
            .set("rules", rules)
    }
}

/// Schema tag stamped into every metrics report.
pub const METRICS_SCHEMA: &str = "parulel-metrics/v1";

/// Renders a [`MatcherMetrics`] sample (shards recurse one level).
pub fn matcher_json(m: &MatcherMetrics) -> Json {
    let mut j = Json::obj()
        .set("kind", m.kind)
        .set("shards", m.shards)
        .set("rules", m.rules)
        .set("conflict_set", m.conflict_set)
        .set("alpha_wmes", m.alpha_wmes)
        .set("beta_tokens", m.beta_tokens)
        .set("negative_counts", m.negative_counts)
        .set("alpha_nodes", m.alpha_nodes)
        .set("alpha_subscriptions", m.alpha_subscriptions)
        .set("alpha_share_hits", m.alpha_share_hits)
        .set("reenumerations", m.reenumerations)
        .set("recomputes", m.recomputes)
        .set("imbalance", m.imbalance());
    if !m.per_shard.is_empty() {
        let shards: Vec<Json> = m
            .per_shard
            .iter()
            .map(|s| {
                Json::obj()
                    .set("kind", s.kind)
                    .set("rules", s.rules)
                    .set("conflict_set", s.conflict_set)
                    .set("alpha_wmes", s.alpha_wmes)
                    .set("beta_tokens", s.beta_tokens)
                    .set("alpha_nodes", s.alpha_nodes)
                    .set("alpha_share_hits", s.alpha_share_hits)
                    .set("reenumerations", s.reenumerations)
            })
            .collect();
        j = j.set("per_shard", shards);
    }
    j
}

/// Which engine phase a [`TraceEvent::Span`] covers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Conflict-set read + refraction filter (plus the incremental
    /// network update at cycle end).
    Match,
    /// Meta-rule redaction + interference guard.
    Redact,
    /// RHS evaluation into the cycle delta, the delta-budget check and
    /// the refraction record.
    Fire,
    /// Committing the delta to working memory and refraction upkeep.
    Apply,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Match => "match",
            Phase::Redact => "redact",
            Phase::Fire => "fire",
            Phase::Apply => "apply",
        }
    }
}

/// One structured engine event.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// A timed phase within a cycle; `items` is phase-specific (matched
    /// instantiations, redactions, firings, delta size).
    Span {
        /// 1-based cycle number.
        cycle: u64,
        /// Which phase.
        phase: Phase,
        /// Phase wall time.
        dur: Duration,
        /// Phase-specific item count.
        items: usize,
    },
    /// A resource budget tripped and aborted the run.
    BudgetTrip {
        /// Cycle at which the budget tripped.
        cycle: u64,
        /// Short machine-readable kind (`timeout`, `wm`, …).
        kind: &'static str,
    },
    /// A checkpoint snapshot was captured.
    Checkpoint {
        /// Cycle the snapshot covers.
        cycle: u64,
    },
    /// External facts were injected between cycles.
    Inject {
        /// WMEs asserted.
        adds: usize,
        /// WMEs retracted.
        removes: usize,
    },
    /// A `run()` call ended.
    RunEnd {
        /// Per-call cycles.
        cycles: u64,
        /// Per-call firings.
        firings: u64,
        /// `quiescent`, `halted`, or `cycle-limit`.
        status: &'static str,
    },
}

impl TraceEvent {
    /// One compact JSON object (a JSONL line, sans newline).
    pub fn to_json(&self) -> Json {
        let us = |d: &Duration| d.as_secs_f64() * 1e6;
        match self {
            TraceEvent::Span { cycle, phase, dur, items } => Json::obj()
                .set("ev", "span")
                .set("cycle", *cycle)
                .set("phase", phase.name())
                .set("us", us(dur))
                .set("items", *items),
            TraceEvent::BudgetTrip { cycle, kind } => Json::obj()
                .set("ev", "budget")
                .set("cycle", *cycle)
                .set("kind", *kind),
            TraceEvent::Checkpoint { cycle } => {
                Json::obj().set("ev", "checkpoint").set("cycle", *cycle)
            }
            TraceEvent::Inject { adds, removes } => Json::obj()
                .set("ev", "inject")
                .set("adds", *adds)
                .set("removes", *removes),
            TraceEvent::RunEnd { cycles, firings, status } => Json::obj()
                .set("ev", "run-end")
                .set("cycles", *cycles)
                .set("firings", *firings)
                .set("status", *status),
        }
    }
}

/// A bounded ring of [`TraceEvent`]s: pushing past capacity evicts the
/// oldest event and bumps [`dropped`](Self::dropped), so a long run keeps
/// its *tail* — the part that explains how it ended.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    cap: usize,
    events: std::collections::VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceBuffer {
    /// A ring holding at most `cap` events (minimum 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        TraceBuffer {
            cap,
            events: std::collections::VecDeque::with_capacity(cap),
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest at capacity.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the buffer as JSONL: a header line (schema + drop count),
    /// then one line per retained event.
    pub fn to_jsonl(&self) -> String {
        let mut out = Json::obj()
            .set("ev", "trace-header")
            .set("schema", TRACE_SCHEMA)
            .set("events", self.len())
            .set("dropped", self.dropped)
            .render();
        out.push('\n');
        for ev in self.events() {
            out.push_str(&ev.to_json().render());
            out.push('\n');
        }
        out
    }
}

/// Schema tag on the JSONL trace header line.
pub const TRACE_SCHEMA: &str = "parulel-trace/v1";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_gate() {
        assert!(!MetricsLevel::Off.per_rule());
        assert!(!MetricsLevel::Off.matcher());
        assert!(MetricsLevel::Rules.per_rule());
        assert!(!MetricsLevel::Rules.matcher());
        assert!(MetricsLevel::Full.per_rule());
        assert!(MetricsLevel::Full.matcher());
    }

    #[test]
    fn off_level_allocates_nothing_per_rule() {
        let m = EngineMetrics::new(MetricsLevel::Off, 100);
        assert!(m.per_rule.is_empty());
        assert_eq!(m.rule(RuleId(7)), RuleMetrics::default());
    }

    #[test]
    fn ring_buffer_keeps_the_tail() {
        let mut b = TraceBuffer::new(3);
        for c in 1..=5 {
            b.push(TraceEvent::Checkpoint { cycle: c });
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.dropped(), 2);
        let cycles: Vec<u64> = b
            .events()
            .map(|e| match e {
                TraceEvent::Checkpoint { cycle } => *cycle,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(cycles, vec![3, 4, 5]);
        let jsonl = b.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4, "header + 3 events");
        let header = Json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(header.get("schema").unwrap().as_str(), Some(TRACE_SCHEMA));
        assert_eq!(header.get("dropped").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn every_event_kind_renders_parseable_json() {
        let events = [
            TraceEvent::Span {
                cycle: 1,
                phase: Phase::Fire,
                dur: Duration::from_micros(250),
                items: 4,
            },
            TraceEvent::BudgetTrip { cycle: 2, kind: "wm" },
            TraceEvent::Checkpoint { cycle: 3 },
            TraceEvent::Inject { adds: 2, removes: 0 },
            TraceEvent::RunEnd { cycles: 3, firings: 9, status: "quiescent" },
        ];
        for ev in &events {
            let line = ev.to_json().render();
            let parsed = Json::parse(&line).unwrap();
            assert!(parsed.get("ev").unwrap().as_str().is_some(), "{line}");
        }
    }

    #[test]
    fn sample_matcher_tracks_peaks() {
        let mut m = EngineMetrics::new(MetricsLevel::Full, 2);
        let mut s = MatcherMetrics {
            alpha_wmes: 10,
            beta_tokens: 4,
            ..Default::default()
        };
        m.sample_matcher(&s);
        s.alpha_wmes = 3;
        s.beta_tokens = 9;
        m.sample_matcher(&s);
        assert_eq!(m.peak_alpha_wmes, 10);
        assert_eq!(m.peak_beta_tokens, 9);
        assert_eq!(m.max_shard_imbalance, 1.0);
    }
}
