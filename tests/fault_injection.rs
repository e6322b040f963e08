//! Fault-injection harness (feature `fault-inject`, enabled for this
//! test build via the root crate's dev-dependencies): deliberately
//! sabotage a run at a chosen cycle and check that the engine reports a
//! structured [`EngineError`] — naming the rule and cycle — instead of
//! aborting the process, and that the trip checkpoint it leaves behind
//! describes a consistent pre-fault state.

use parulel::engine::faults::{FaultPlan, FaultPoint};
use parulel::prelude::*;

/// A rule that counts to 10 and quiesces: one firing per cycle, so
/// "cycle k" and "firing k" coincide and fault timing is easy to reason
/// about, and every undisturbed run converges on the same final WM.
const COUNTER: &str = "
(literalize count n)
(p step (count ^n <n>) (test (< <n> 10)) --> (modify 1 ^n (+ <n> 1)))
";

fn counter_engine(plan: FaultPlan) -> Engine {
    counter_engine_with(FiringPolicy::fire_all(), plan)
}

/// Same counter workload through the unified core under any policy.
/// The fault hooks live in the policy-agnostic cycle driver, so every
/// test below must behave identically however the firing decision is
/// made.
fn counter_engine_with(policy: FiringPolicy, plan: FaultPlan) -> Engine {
    let (p, wm) = parulel::lang::compile_with_wm(&format!("{COUNTER}\n(wm (count ^n 0))"))
        .expect("counter program compiles");
    Engine::with_policy(
        &p,
        wm,
        policy,
        EngineOptions {
            max_cycles: 50,
            faults: plan,
            ..Default::default()
        },
    )
}

#[test]
fn injected_rhs_panic_yields_structured_error_and_process_survives() {
    let mut e = counter_engine(FaultPlan {
        rhs_panic: Some(FaultPoint::new(3, "step")),
        ..FaultPlan::none()
    });
    // The panic is caught at the firing boundary: run() returns Err, the
    // test process (this one) is alive to inspect it.
    let err = e.run().unwrap_err();
    match &err {
        EngineError::RhsPanic { rule, payload } => {
            assert_eq!(rule, "step");
            assert!(
                payload.contains("cycle 3"),
                "payload should carry the cycle: {payload}"
            );
        }
        other => panic!("expected RhsPanic, got {other}"),
    }
    // Two clean cycles completed before the sabotaged third.
    assert_eq!(e.stats().cycles, 2);
    // The trip checkpoint captures the last consistent boundary, so the
    // run can be restarted from just before the fault.
    let snap = e.latest_checkpoint().expect("trip leaves a checkpoint");
    assert_eq!(snap.cycle, 2);
}

#[test]
fn resuming_past_an_injected_fault_completes_the_run() {
    let mut sabotaged = counter_engine(FaultPlan {
        rhs_panic: Some(FaultPoint::new(3, "step")),
        ..FaultPlan::none()
    });
    sabotaged.run().unwrap_err();
    let snap = sabotaged.latest_checkpoint().unwrap().clone();

    // Resume with the fault cleared: the run finishes as if the fault
    // had never fired, and matches an undisturbed run.
    let (p, wm) = parulel::lang::compile_with_wm(&format!("{COUNTER}\n(wm (count ^n 0))")).unwrap();
    let opts = EngineOptions {
        max_cycles: 50,
        ..Default::default()
    };
    let mut resumed = Engine::resume(&p, &snap, opts.clone()).unwrap();
    resumed.run().unwrap();
    let mut undisturbed = Engine::new(&p, wm, opts);
    undisturbed.run().unwrap();
    assert_eq!(
        resumed.wm().sorted_snapshot(),
        undisturbed.wm().sorted_snapshot()
    );
}

#[test]
fn injected_rhs_eval_error_names_the_rule_and_cycle() {
    let mut e = counter_engine(FaultPlan {
        rhs_error: Some(FaultPoint::new(2, "step")),
        ..FaultPlan::none()
    });
    let err = e.run().unwrap_err();
    match &err {
        EngineError::RhsEval { rule, .. } => assert_eq!(rule, "step"),
        other => panic!("expected RhsEval, got {other}"),
    }
    assert_eq!(e.stats().cycles, 1);
}

#[test]
fn matcher_corruption_is_caught_by_the_audit_oracle() {
    let mut e = counter_engine(FaultPlan {
        corrupt_matcher_at: Some(2),
        audit_matcher: true,
        ..FaultPlan::none()
    });
    let err = e.run().unwrap_err();
    match &err {
        EngineError::MatcherCorrupt { cycle, detail } => {
            assert_eq!(*cycle, 2);
            assert!(
                detail.contains("step"),
                "detail should describe the spurious instantiation: {detail}"
            );
        }
        other => panic!("expected MatcherCorrupt, got {other}"),
    }
    // The audit fires before redaction and firing: cycle 2 never ran.
    assert_eq!(e.stats().cycles, 1);
}

#[test]
fn corruption_goes_unnoticed_without_the_audit_but_state_stays_consistent() {
    // Sanity check on the harness itself: the same corruption with the
    // oracle disabled is only visible through its effects. The phantom
    // WME duplicates a live one, and refraction has no entry for the
    // phantom key, so the duplicate instantiation fires — the run still
    // terminates and the process survives.
    let mut e = counter_engine(FaultPlan {
        corrupt_matcher_at: Some(2),
        audit_matcher: false,
        ..FaultPlan::none()
    });
    e.run().unwrap();
    assert!(e.stats().cycles >= 2);
}

#[test]
fn faults_against_other_rules_or_cycles_do_not_fire() {
    // A plan naming a rule that never fires (or a cycle past quiescence)
    // must leave the run untouched.
    let mut clean = counter_engine(FaultPlan::none());
    clean.run().unwrap();
    let want = clean.wm().sorted_snapshot();

    let mut miss = counter_engine(FaultPlan {
        rhs_panic: Some(FaultPoint::new(3, "no-such-rule")),
        rhs_error: Some(FaultPoint::new(9_999, "step")),
        ..FaultPlan::none()
    });
    miss.run().unwrap();
    assert_eq!(miss.wm().sorted_snapshot(), want);
}

#[test]
fn injected_panic_is_isolated_identically_under_select_one() {
    // Satellite: fault injection flows through the unified core, so a
    // SelectOne (OPS5) engine gets the same panic isolation, structured
    // error, and trip checkpoint as fire-all — previously the serial
    // engine had none of this machinery.
    for strategy in [Strategy::Lex, Strategy::Mea] {
        let mut e = counter_engine_with(
            FiringPolicy::SelectOne(strategy),
            FaultPlan {
                rhs_panic: Some(FaultPoint::new(3, "step")),
                ..FaultPlan::none()
            },
        );
        let err = e.run().unwrap_err();
        match &err {
            EngineError::RhsPanic { rule, payload } => {
                assert_eq!(rule, "step");
                assert!(payload.contains("cycle 3"), "{payload}");
            }
            other => panic!("expected RhsPanic, got {other}"),
        }
        assert_eq!(e.stats().cycles, 2, "{strategy:?}");
        let snap = e.latest_checkpoint().expect("trip leaves a checkpoint");
        assert_eq!(snap.cycle, 2);
        assert_eq!(snap.policy, FiringPolicy::SelectOne(strategy).tag());
    }
}

#[test]
fn budget_trips_fire_identically_for_both_policies() {
    // The counter adds no WMEs (modify = remove+add, net zero), so grow
    // working memory instead: one new WME per cycle under *either*
    // policy, because a single instantiation is eligible per cycle.
    const GROW: &str = "
    (literalize tick n)
    (p grow (tick ^n <n>) (test (< <n> 30)) --> (make tick ^n (+ <n> 1)))
    ";
    let policies = [
        FiringPolicy::fire_all(),
        FiringPolicy::SelectOne(Strategy::Lex),
        FiringPolicy::SelectOne(Strategy::Mea),
    ];
    let mut trips = Vec::new();
    for policy in policies {
        let (p, wm) =
            parulel::lang::compile_with_wm(&format!("{GROW}\n(wm (tick ^n 0))")).unwrap();
        let mut e = Engine::with_policy(
            &p,
            wm,
            policy,
            EngineOptions {
                budgets: Budgets {
                    max_wm: Some(5),
                    ..Budgets::unlimited()
                },
                ..Default::default()
            },
        );
        let err = e.run().unwrap_err();
        match &err {
            EngineError::WmBudget { cycle, size, .. } => {
                trips.push((*cycle, *size, e.stats().cycles))
            }
            other => panic!("expected WmBudget under {policy:?}, got {other}"),
        }
        // The trip checkpoint is consistent and tagged with the policy.
        let snap = e.latest_checkpoint().expect("budget trip checkpoints");
        assert_eq!(snap.policy, policy.tag());
    }
    // All three policies trip the same budget at the same cycle.
    assert_eq!(trips[0], trips[1]);
    assert_eq!(trips[1], trips[2]);
}

#[test]
fn zero_timeout_trips_before_cycle_one_for_both_policies() {
    use std::time::Duration;
    for policy in [
        FiringPolicy::fire_all(),
        FiringPolicy::SelectOne(Strategy::Lex),
    ] {
        let (p, wm) =
            parulel::lang::compile_with_wm(&format!("{COUNTER}\n(wm (count ^n 0))")).unwrap();
        let mut e = Engine::with_policy(
            &p,
            wm,
            policy,
            EngineOptions {
                budgets: Budgets {
                    timeout: Some(Duration::ZERO),
                    ..Budgets::unlimited()
                },
                ..Default::default()
            },
        );
        let err = e.run().unwrap_err();
        assert!(
            matches!(&err, EngineError::Timeout { cycle: 1, .. }),
            "expected Timeout at cycle 1 under {policy:?}, got {err}"
        );
        assert_eq!(e.stats().cycles, 0);
    }
}
