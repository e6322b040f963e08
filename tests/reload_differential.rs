//! Reload differential suite: a live `reload` must be semantically
//! invisible (identity reload) or exactly equivalent to a fresh engine on
//! the replacement program (changed-rule reload), across every matcher
//! and firing policy.
//!
//! The generator is shared with the matcher equivalence suites
//! (`crates/match/tests/common`), extended with random RHS actions so
//! the fire path — not just matching — is exercised.

#[path = "../crates/match/tests/common/mod.rs"]
mod common;

use common::{build_program, build_program_in, rule_spec_with_actions};
use parulel::prelude::*;
use proptest::prelude::*;

const MATCHERS: [MatcherKind; 5] = [
    MatcherKind::Naive,
    MatcherKind::Rete,
    MatcherKind::Treat,
    MatcherKind::PartitionedRete(3),
    MatcherKind::PartitionedTreat(2),
];
const POLICIES: [&str; 3] = ["fire-all", "select-one-lex", "select-one-mea"];

/// Budgeted options: random programs with `make` actions can grow WM
/// combinatorially, so the budgets abort runaway cases early — the
/// point is that both engines abort *identically*.
fn opts(matcher: MatcherKind) -> EngineOptions {
    EngineOptions {
        matcher,
        max_cycles: 6,
        budgets: Budgets {
            timeout: None,
            max_wm: Some(64),
            max_conflict_set: Some(5_000),
            max_delta: Some(200),
        },
        ..EngineOptions::default()
    }
}

fn seed_wm(program: &Program, adds: &[(u8, Vec<i64>)]) -> WorkingMemory {
    let mut wm = WorkingMemory::new(&program.classes);
    for (class, fields) in adds {
        wm.insert(
            ClassId((class % 2) as u32),
            fields.iter().copied().map(Value::Int).collect::<Vec<_>>(),
        );
    }
    wm
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Reloading the *identical* program mid-stream is a semantic no-op:
    /// an engine that steps once, reloads a structurally equal program,
    /// and runs on, finishes with exactly the WM and firing count of an
    /// engine that never reloaded. (The run log is excluded — reload
    /// announces itself with one log line by design.)
    #[test]
    fn identity_reload_mid_stream_is_transparent(
        specs in prop::collection::vec(rule_spec_with_actions(), 1..3),
        adds in prop::collection::vec(
            (any::<u8>(), prop::collection::vec(0i64..4, common::ARITY)), 0..8),
        which in (0usize..MATCHERS.len(), 0usize..POLICIES.len()),
    ) {
        let (matcher, policy) = (MATCHERS[which.0], POLICIES[which.1]);
        let program = build_program(&specs);
        let run = |reload: bool| {
            let mut e = Engine::with_policy(
                &program,
                seed_wm(&program, &adds),
                FiringPolicy::from_tag(policy).unwrap(),
                opts(matcher),
            );
            let first = e.step();
            if reload {
                let twin = build_program_in(&program.interner, &specs);
                e.reload(&twin).expect("identity reload must be accepted");
            }
            let rest = if first.is_ok() { e.run().map(|_| ()) } else { Ok(()) };
            (
                first.map_err(|err| err.to_string()),
                rest.map_err(|err| err.to_string()),
                e.stats().firings,
                e.wm().canonical_facts(),
            )
        };
        prop_assert_eq!(run(false), run(true));
    }

    /// Swapping to a *different* program is equivalent to starting a
    /// fresh engine on that program with the same facts: `reload`
    /// carries no residue of the old rules. (Both engines are pre-fire,
    /// so empty refraction memories agree.)
    #[test]
    fn changed_rule_reload_equals_fresh_engine(
        before in prop::collection::vec(rule_spec_with_actions(), 1..3),
        after in prop::collection::vec(rule_spec_with_actions(), 1..3),
        adds in prop::collection::vec(
            (any::<u8>(), prop::collection::vec(0i64..4, common::ARITY)), 0..8),
        which in (0usize..MATCHERS.len(), 0usize..POLICIES.len()),
    ) {
        let (matcher, policy) = (MATCHERS[which.0], POLICIES[which.1]);
        let old = build_program(&before);
        // Same symbol space, so WME class/field symbols line up.
        let new = build_program_in(&old.interner, &after);

        let observe_run = |e: &mut Engine| {
            let res = e.run().map(|o| o.status()).map_err(|err| err.to_string());
            let log: Vec<&String> = e
                .log()
                .iter()
                .filter(|l| !l.starts_with("reload:"))
                .collect();
            (
                res,
                e.stats().firings,
                format!("{log:?}"),
                e.wm().canonical_facts(),
            )
        };

        let mut swapped = Engine::with_policy(
            &old,
            seed_wm(&old, &adds),
            FiringPolicy::from_tag(policy).unwrap(),
            opts(matcher),
        );
        swapped.reload(&new).expect("same class table: reload must be accepted");

        let mut fresh = Engine::with_policy(
            &new,
            seed_wm(&new, &adds),
            FiringPolicy::from_tag(policy).unwrap(),
            opts(matcher),
        );

        prop_assert_eq!(observe_run(&mut swapped), observe_run(&mut fresh));
    }
}
