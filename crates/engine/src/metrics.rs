//! The observability layer: per-rule counters, engine-wide peaks, and a
//! ring-buffered structured trace, the engine's one per-cycle record.
//!
//! The counters are gated on [`MetricsLevel`] and the ring on
//! `EngineOptions::trace_events`: with both off the engines skip every
//! collection branch, so the hot path is bit-identical to an
//! uninstrumented run (covered by `tests/determinism.rs`). Both are
//! *observability* state, not run state — they are deliberately excluded
//! from [`crate::Snapshot`]s, which carry only what resume reads.

use crate::json::Json;
use crate::stats::{CycleStats, RunStats};
use parulel_core::{Program, RuleId, Symbol};
use parulel_match::MatcherMetrics;
use std::sync::Arc;
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

/// One structured engine event.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// One cycle that fired: the engine's one per-cycle record. Counts
    /// are `u32`, saturating, to keep the record small: every served
    /// session keeps thousands.
    Cycle {
        /// 1-based cycle number.
        cycle: u64,
        /// Eligible (unrefracted) instantiations at cycle start.
        eligible: u32,
        /// Redacted by meta-rules.
        redacted_meta: u32,
        /// Redacted by the interference guard.
        redacted_guard: u32,
        /// WMEs asserted by the cycle's merged delta.
        adds: u32,
        /// WMEs retracted by the cycle's merged delta.
        removes: u32,
        /// `(rule name, firings)` for every rule that fired, in rule
        /// order. Names stay interned (a reload shares the interner), so
        /// recording resolves nothing.
        fired: Box<[(Symbol, u32)]>,
        /// Wall time of the match, redact, fire and apply phases, as
        /// [`CycleStats`] splits them, in nanoseconds.
        phase_ns: [u64; 4],
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

/// The phase names of [`TraceEvent::Cycle::phase_ns`], in order.
const PHASES: [&str; 4] = ["match", "redact", "fire", "apply"];

impl TraceEvent {
    /// The record of cycle `cycle`, which fired `fired` (`(rule name,
    /// firings)` in rule order) with the counts and phase times `stats`
    /// gives.
    pub(crate) fn cycle(
        cycle: u64,
        stats: &CycleStats,
        fired: impl Iterator<Item = (Symbol, usize)>,
    ) -> TraceEvent {
        let count = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        TraceEvent::Cycle {
            cycle,
            eligible: count(stats.eligible),
            redacted_meta: count(stats.redacted_meta),
            redacted_guard: count(stats.redacted_guard),
            adds: count(stats.adds),
            removes: count(stats.removes),
            fired: fired.map(|(rule, n)| (rule, count(n))).collect(),
            phase_ns: [
                stats.match_time,
                stats.redact_time,
                stats.fire_time,
                stats.apply_time,
            ]
            .map(ns),
        }
    }

    /// One compact JSON object (a JSONL line, sans newline); rule names
    /// resolve through `program`'s interner.
    pub fn to_json(&self, program: &Program) -> Json {
        match self {
            TraceEvent::Cycle {
                cycle,
                eligible,
                redacted_meta,
                redacted_guard,
                adds,
                removes,
                fired,
                phase_ns,
            } => {
                let mut fired_json = Json::obj();
                for (rule, n) in by_name(fired, program) {
                    fired_json = fired_json.set(&rule, n);
                }
                let mut j = Json::obj()
                    .set("ev", "cycle")
                    .set("cycle", *cycle)
                    .set("eligible", *eligible)
                    .set("redacted_meta", *redacted_meta)
                    .set("redacted_guard", *redacted_guard)
                    .set("adds", *adds)
                    .set("removes", *removes)
                    .set("fired", fired_json);
                for (name, ns) in PHASES.iter().zip(phase_ns) {
                    j = j.set(&format!("{name}_us"), *ns as f64 / 1e3);
                }
                j
            }
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

    /// A `Cycle` event as one human-readable line (`None` for every other
    /// event): `cycle    1: eligible    1, redacted 0+0, fired stepx1
    /// (+1 -1)`, rules sorted by name.
    pub fn cycle_line(&self, program: &Program) -> Option<String> {
        let TraceEvent::Cycle {
            cycle,
            eligible,
            redacted_meta,
            redacted_guard,
            adds,
            removes,
            fired,
            ..
        } = self
        else {
            return None;
        };
        let mut line = format!(
            "cycle {cycle:>4}: eligible {eligible:>4}, redacted {redacted_meta}+{redacted_guard}, fired"
        );
        for (rule, n) in by_name(fired, program) {
            line.push_str(&format!(" {rule}x{n}"));
        }
        line.push_str(&format!("  (+{adds} -{removes})"));
        Some(line)
    }
}

/// `fired`'s rule names resolved through `program`, sorted by name.
fn by_name(fired: &[(Symbol, u32)], program: &Program) -> Vec<(Arc<str>, u32)> {
    let mut named: Vec<(Arc<str>, u32)> = (fired.iter())
        .map(|&(rule, n)| (program.interner.resolve(rule), n))
        .collect();
    named.sort();
    named
}

/// A bounded ring of [`TraceEvent`]s: pushing past capacity evicts the
/// oldest event and bumps [`dropped`](Self::dropped), so a long run keeps
/// its *tail* — the part that explains how it ended. Storage grows with
/// the events pushed, so a generous bound costs nothing until it is used.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    cap: usize,
    events: std::collections::VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceBuffer {
    /// A ring holding at most `cap` events (minimum 1).
    pub fn new(cap: usize) -> Self {
        TraceBuffer {
            cap: cap.max(1),
            events: std::collections::VecDeque::new(),
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

    /// Renders the buffer as JSONL: a header line (schema + drop count),
    /// then one line per retained event, rule names resolved through
    /// `program`.
    pub fn to_jsonl(&self, program: &Program) -> String {
        let mut out = Json::obj()
            .set("ev", "trace-header")
            .set("schema", TRACE_SCHEMA)
            .set("events", self.events.len())
            .set("dropped", self.dropped)
            .render();
        out.push('\n');
        for ev in self.events() {
            out.push_str(&ev.to_json(program).render());
            out.push('\n');
        }
        out
    }
}

/// Schema tag on the JSONL trace header line.
pub const TRACE_SCHEMA: &str = "parulel-trace/v2";

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
        assert_eq!(b.events().count(), 3);
        assert_eq!(b.dropped(), 2);
        let cycles: Vec<u64> = b
            .events()
            .map(|e| match e {
                TraceEvent::Checkpoint { cycle } => *cycle,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(cycles, vec![3, 4, 5]);
        let jsonl = b.to_jsonl(&program());
        assert_eq!(jsonl.lines().count(), 4, "header + 3 events");
        let header = Json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(header.get("schema").unwrap().as_str(), Some(TRACE_SCHEMA));
        assert_eq!(header.get("dropped").unwrap().as_f64(), Some(2.0));
    }

    fn program() -> Program {
        parulel_lang::compile(
            "(literalize a x)
             (p zeta (a ^x 1) --> (remove 1))
             (p alpha (a ^x 2) --> (remove 1))",
        )
        .unwrap()
    }

    /// A cycle of `program` whose eligible count overflows the record.
    fn cycle_event(program: &Program) -> TraceEvent {
        let name = |r: u32| program.rule(RuleId(r)).name;
        let stats = CycleStats {
            eligible: u32::MAX as usize + 1,
            redacted_meta: 2,
            redacted_guard: 1,
            adds: 3,
            removes: 4,
            match_time: Duration::from_micros(250),
            ..Default::default()
        };
        TraceEvent::cycle(1, &stats, [(name(0), 3), (name(1), 1)].into_iter())
    }

    #[test]
    fn every_event_kind_renders_parseable_json() {
        let program = program();
        let events = [
            cycle_event(&program),
            TraceEvent::BudgetTrip { cycle: 2, kind: "wm" },
            TraceEvent::Checkpoint { cycle: 3 },
            TraceEvent::Inject { adds: 2, removes: 0 },
            TraceEvent::RunEnd { cycles: 3, firings: 9, status: "quiescent" },
        ];
        for ev in &events {
            let line = ev.to_json(&program).render();
            let parsed = Json::parse(&line).unwrap();
            assert!(parsed.get("ev").unwrap().as_str().is_some(), "{line}");
        }
        assert_eq!(events[2].cycle_line(&program), None);
    }

    #[test]
    fn a_cycle_event_renders_its_counts_names_and_phases() {
        // One record per cycle takes no more than the four 40-byte phase
        // spans it replaced, its heap list of fired rules included.
        assert!(std::mem::size_of::<TraceEvent>() <= 2 * 40);
        let program = program();
        let ev = cycle_event(&program);
        assert_eq!(
            ev.cycle_line(&program).unwrap(),
            "cycle    1: eligible 4294967295, redacted 2+1, fired alphax1 zetax3  (+3 -4)",
            "counts saturate, rules sort by name"
        );
        let json = ev.to_json(&program);
        let fired = json.get("fired").unwrap();
        assert_eq!(fired.get("zeta").unwrap().as_f64(), Some(3.0));
        assert_eq!(json.get("match_us").unwrap().as_f64(), Some(250.0));
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
