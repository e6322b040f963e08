//! Workspace-level end-to-end tests: every workload, every matcher, both
//! engines — all runs validated against the workloads' Rust reference
//! implementations, and cross-checked against each other.

use parulel::prelude::*;
use parulel::workloads::{self, Scenario};

fn kinds() -> Vec<MatcherKind> {
    vec![
        MatcherKind::Naive,
        MatcherKind::Rete,
        MatcherKind::Treat,
        MatcherKind::PartitionedRete(4),
        MatcherKind::PartitionedTreat(3),
    ]
}

/// Smaller instances than the bench defaults: this test runs the naive
/// matcher too.
fn scenarios() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(workloads::Closure::new(14, 24, 7)),
        Box::new(workloads::LabelProp::new(20, 24, 11)),
        Box::new(workloads::Seating::new(3, 6, 3)),
        Box::new(workloads::Market::new(16, 4, 5)),
        Box::new(workloads::Waltz::new(10, 4, 13)),
        Box::new(workloads::WaltzDb::new(3, 3, 3, 17)),
    ]
}

#[test]
fn every_workload_validates_under_every_matcher() {
    for s in scenarios() {
        let mut reference: Option<Vec<_>> = None;
        for kind in kinds() {
            let opts = EngineOptions {
                matcher: kind,
                ..Default::default()
            };
            let mut e = Engine::new(s.program(), s.initial_wm(), opts);
            let out = e.run().unwrap_or_else(|err| panic!("{}: {err}", s.name()));
            assert!(
                out.quiescent || out.halted,
                "{} under {kind:?} did not terminate cleanly: {out:?}",
                s.name()
            );
            s.validate(e.wm())
                .unwrap_or_else(|err| panic!("{} under {kind:?}: {err}", s.name()));
            // All matchers must produce *identical* runs (same conflict
            // sets every cycle ⇒ same final WM including ids).
            let snapshot = e.wm().sorted_snapshot();
            match &reference {
                None => reference = Some(snapshot),
                Some(r) => assert_eq!(
                    &snapshot,
                    r,
                    "{} under {kind:?} diverged from the reference matcher",
                    s.name()
                ),
            }
        }
    }
}

#[test]
fn serial_baselines_also_validate() {
    for s in scenarios() {
        for strategy in [Strategy::Lex, Strategy::Mea] {
            let mut e = Engine::with_policy(
                s.program(),
                s.initial_wm(),
                FiringPolicy::SelectOne(strategy),
                EngineOptions::default(),
            );
            let out = e.run().unwrap();
            assert!(out.quiescent, "{} {strategy:?}", s.name());
            s.validate(e.wm())
                .unwrap_or_else(|err| panic!("{} under serial {strategy:?}: {err}", s.name()));
        }
    }
}

#[test]
fn parallel_engine_never_fires_more_cycles_than_serial() {
    for s in scenarios() {
        let mut par = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        let p = par.run().unwrap();
        let mut ser = Engine::with_policy(
            s.program(),
            s.initial_wm(),
            FiringPolicy::SelectOne(Strategy::Lex),
            EngineOptions::default(),
        );
        let q = ser.run().unwrap();
        assert!(
            p.cycles <= q.cycles,
            "{}: PARULEL used {} cycles, serial {}",
            s.name(),
            p.cycles,
            q.cycles
        );
    }
}

#[test]
fn guard_modes_do_not_break_valid_programs() {
    // All six workloads resolve their conflicts via meta-rules (or have
    // none); adding the write-write guard must not change validity.
    for s in scenarios() {
        let policy = parulel::engine::FiringPolicy::FireAll {
            meta: true,
            guard: parulel::engine::GuardMode::WriteWrite,
        };
        let mut e =
            parulel::engine::Engine::with_policy(s.program(), s.initial_wm(), policy, EngineOptions::default());
        e.run().unwrap();
        s.validate(e.wm())
            .unwrap_or_else(|err| panic!("{} with WW guard: {err}", s.name()));
        assert_eq!(
            e.stats().redacted_guard,
            0,
            "{}: guard found conflicts the meta-rules should prevent",
            s.name()
        );
    }
}

#[test]
fn copy_and_constrain_preserves_every_workload() {
    use parulel::engine::copy_and_constrain;
    for s in scenarios() {
        // Split the first rule of each program 3 ways.
        let name = s.program().rule_name(parulel::core::RuleId(0));
        let split = copy_and_constrain(s.program(), &name, 3)
            .unwrap_or_else(|e| panic!("{}: {e}", s.name()));
        let mut e = Engine::new(&split, s.initial_wm(), EngineOptions::default());
        e.run().unwrap();
        s.validate(e.wm())
            .unwrap_or_else(|err| panic!("{} split 3-way: {err}", s.name()));
    }
}
