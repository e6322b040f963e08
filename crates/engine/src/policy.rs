//! Firing policies: the one pluggable phase of the recognize-act cycle.
//!
//! OPS5 and PARULEL share everything — incremental matching, refraction,
//! delta application — except *which instantiations of the eligible set
//! fire each cycle*. That decision is a [`FiringPolicy`]:
//!
//! * [`FiringPolicy::FireAll`] — PARULEL's match → redact → fire-all:
//!   the program's meta-rules run to fixpoint over the eligible set
//!   ([`crate::meta`]), an optional interference guard
//!   ([`crate::interference`]) backstops them, and every survivor fires
//!   in the same cycle.
//! * [`FiringPolicy::SelectOne`] — the OPS5 baseline: a hard-wired
//!   [`Strategy`] (LEX or MEA) picks a single winner per cycle.
//!
//! The cycle driver ([`crate::core::Engine`]) is policy-agnostic; a new
//! policy (fire-k, priority classes…) is a new arm here, not a third
//! engine.

use crate::interference::{self, GuardMode};
use crate::meta::MetaLevel;
use parulel_core::{Instantiation, Program};
use std::cmp::Ordering;

/// OPS5 conflict-resolution strategy (used by [`FiringPolicy::SelectOne`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// LEX: refraction, then recency of all timestamps (lexicographic,
    /// newest first), then specificity.
    #[default]
    Lex,
    /// MEA: refraction, then recency of the *first* CE's timestamp, then
    /// the LEX ordering.
    Mea,
}

/// Which instantiations of a cycle's eligible set fire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FiringPolicy {
    /// PARULEL: redact via meta-rules, guard, then fire every survivor
    /// in the same cycle, as one set into one deterministic delta.
    FireAll {
        /// Run the program's meta-rules to fixpoint over the eligible
        /// set. `false` fires the raw eligible set (Table 4's "no
        /// metas" configuration).
        meta: bool,
        /// Interference backstop applied after meta redaction.
        guard: GuardMode,
    },
    /// OPS5 baseline: the strategy selects one winner per cycle.
    /// Meta-rules and guards do not apply — that is exactly the
    /// contrast PARULEL draws.
    SelectOne(Strategy),
}

impl Default for FiringPolicy {
    fn default() -> Self {
        FiringPolicy::fire_all()
    }
}

impl FiringPolicy {
    /// The standard PARULEL policy: meta-rules on, guard off.
    pub fn fire_all() -> Self {
        FiringPolicy::FireAll {
            meta: true,
            guard: GuardMode::Off,
        }
    }

    /// The OPS5 baseline under `strategy`.
    pub fn select_one(strategy: Strategy) -> Self {
        FiringPolicy::SelectOne(strategy)
    }

    /// Stable identifier stored in snapshots and bench output.
    pub fn tag(&self) -> &'static str {
        match self {
            FiringPolicy::FireAll { .. } => "fire-all",
            FiringPolicy::SelectOne(Strategy::Lex) => "select-one-lex",
            FiringPolicy::SelectOne(Strategy::Mea) => "select-one-mea",
        }
    }

    /// Inverse of [`tag`](Self::tag) (fire-all comes back with the
    /// default meta/guard configuration — the tag does not encode it).
    pub fn from_tag(tag: &str) -> Option<FiringPolicy> {
        match tag {
            "fire-all" => Some(FiringPolicy::fire_all()),
            "select-one-lex" => Some(FiringPolicy::SelectOne(Strategy::Lex)),
            "select-one-mea" => Some(FiringPolicy::SelectOne(Strategy::Mea)),
            _ => None,
        }
    }

    /// One-line warning when this policy drops machinery the program
    /// carries: a `SelectOne` policy never consults meta-rules, so a
    /// program that defines them is (knowingly or not) running without
    /// its conflict-resolution knowledge.
    pub(crate) fn dropped_machinery_warning(&self, program: &Program) -> Option<String> {
        match self {
            FiringPolicy::SelectOne(_) if !program.metas().is_empty() => Some(format!(
                "warning: {} ignores the program's {} meta-rule(s); \
                 conflict resolution is the fixed OPS5 strategy",
                self.tag(),
                program.metas().len()
            )),
            _ => None,
        }
    }

    /// The policy decision for one cycle: which of `eligible` fire.
    ///
    /// `collect` is `Some(num_rules)` when per-rule metrics are being
    /// gathered; the fire-all arm then reports its post-meta counts so
    /// the caller can attribute redactions to meta-rules vs the guard.
    /// `level` is `program`'s meta level, which keeps its plans across
    /// cycles.
    pub(crate) fn select(
        &self,
        program: &Program,
        level: &MetaLevel,
        eligible: Vec<Instantiation>,
        collect: Option<usize>,
    ) -> Selection {
        match self {
            FiringPolicy::FireAll { meta, guard } => {
                let (surviving, redacted_meta, meta_rounds) = if *meta {
                    let out = level.redact(program, eligible);
                    (out.surviving, out.redacted, out.rounds)
                } else {
                    (eligible, 0, 0)
                };
                let post_meta_counts = collect.map(|n| counts_by_rule(&surviving, n));
                let guard_out = interference::guard(program, surviving, *guard);
                Selection {
                    to_fire: guard_out.surviving,
                    redacted_meta,
                    redacted_guard: guard_out.redacted,
                    meta_rounds,
                    post_meta_counts,
                }
            }
            FiringPolicy::SelectOne(strategy) => {
                let winner = eligible
                    .iter()
                    .max_by(|a, b| prefer(program, *strategy, a, b))
                    .expect("non-empty eligible set")
                    .clone();
                Selection {
                    to_fire: vec![winner],
                    redacted_meta: 0,
                    redacted_guard: 0,
                    meta_rounds: 0,
                    post_meta_counts: None,
                }
            }
        }
    }
}

/// What a policy decided for one cycle.
pub(crate) struct Selection {
    /// Instantiations cleared to fire this cycle.
    pub to_fire: Vec<Instantiation>,
    /// How many the meta-rules redacted.
    pub redacted_meta: usize,
    /// How many the interference guard redacted.
    pub redacted_guard: usize,
    /// Meta fixpoint rounds.
    pub meta_rounds: usize,
    /// Per-rule counts after meta redaction but before the guard — only
    /// when requested via `collect`, only meaningful for fire-all.
    pub post_meta_counts: Option<Vec<u64>>,
}

/// Instantiation counts per rule (metrics collection only).
pub(crate) fn counts_by_rule(insts: &[Instantiation], num_rules: usize) -> Vec<u64> {
    let mut counts = vec![0u64; num_rules];
    for inst in insts {
        counts[inst.rule.0 as usize] += 1;
    }
    counts
}

/// Compares two instantiations under the strategy; `Greater` wins.
fn prefer(program: &Program, strategy: Strategy, a: &Instantiation, b: &Instantiation) -> Ordering {
    let lex = |a: &Instantiation, b: &Instantiation| -> Ordering {
        // Lexicographic on the recency vectors: when one is a prefix of
        // the other, more timestamps (deeper match) dominates.
        (a.recency().cmp(b.recency())).then_with(|| {
            let sa = program.rule(a.rule).specificity();
            let sb = program.rule(b.rule).specificity();
            sa.cmp(&sb)
        })
    };
    let primary = match strategy {
        Strategy::Lex => lex(a, b),
        Strategy::Mea => a
            .first_ce_time()
            .cmp(&b.first_ce_time())
            .then_with(|| lex(a, b)),
    };
    // Final deterministic tie-break: smaller key loses (so the
    // *larger* key wins; any fixed rule works, it just must be total).
    primary.then_with(|| a.key_cmp(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_roundtrip() {
        for policy in [
            FiringPolicy::fire_all(),
            FiringPolicy::SelectOne(Strategy::Lex),
            FiringPolicy::SelectOne(Strategy::Mea),
        ] {
            assert_eq!(FiringPolicy::from_tag(policy.tag()), Some(policy));
        }
        assert_eq!(FiringPolicy::from_tag("fire-at-will"), None);
    }

    #[test]
    fn select_one_warns_about_dropped_meta_rules() {
        let with_metas = parulel_lang::compile(
            "(literalize a v)
             (p r (a ^v <x>) --> (remove 1))
             (mp m (inst r (a ^v <x>)) (inst r (a ^v <y>))
                   (test (> <x> <y>)) --> (redact 1))",
        )
        .unwrap();
        let warn = FiringPolicy::SelectOne(Strategy::Lex)
            .dropped_machinery_warning(&with_metas)
            .expect("warning expected");
        assert!(warn.contains("select-one-lex"), "{warn}");
        assert!(warn.contains("1 meta-rule"), "{warn}");
        // fire-all uses them; select-one without metas has nothing to drop.
        assert!(FiringPolicy::fire_all()
            .dropped_machinery_warning(&with_metas)
            .is_none());
        let plain = parulel_lang::compile("(literalize a v)").unwrap();
        assert!(FiringPolicy::SelectOne(Strategy::Mea)
            .dropped_machinery_warning(&plain)
            .is_none());
    }
}
