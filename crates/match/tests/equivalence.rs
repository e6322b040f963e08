//! Property tests: the incremental matchers (RETE, TREAT, partitioned)
//! must agree with the naive recompute oracle on the conflict set after
//! every working-memory operation, for random programs and random
//! add/remove sequences.

mod common;

use common::{build_program, op, rule_spec, CeSpec, CheckSpec, Op, RuleSpec};
use parulel_core::{Value, Wme, WorkingMemory};
use parulel_match::{Incremental, Matcher, NaiveMatcher, Partitioned};
use proptest::prelude::*;
use std::sync::Arc;

fn run_equivalence(specs: Vec<RuleSpec>, ops: Vec<Op>, workers: usize) {
    let program = Arc::new(build_program(&specs));
    let mut wm = WorkingMemory::new(&program.classes);
    let mut naive = NaiveMatcher::new(program.clone());
    let mut rete = Incremental::rete(program.clone());
    let mut treat = Incremental::treat(program.clone());
    let mut part = Partitioned::rete(program.clone(), workers);
    let mut live: Vec<Wme> = Vec::new();

    for (step, op) in ops.into_iter().enumerate() {
        match op {
            Op::Add { class, fields } => {
                let w = wm.insert(
                    parulel_core::ClassId(class as u32),
                    fields.into_iter().map(Value::Int).collect::<Vec<_>>(),
                );
                naive.add_wme(&w);
                rete.add_wme(&w);
                treat.add_wme(&w);
                part.add_wme(&w);
                live.push(w);
            }
            Op::Remove(i) => {
                if live.is_empty() {
                    continue;
                }
                let w = live.remove(i % live.len());
                wm.remove(w.id);
                naive.remove_wme(&w);
                rete.remove_wme(&w);
                treat.remove_wme(&w);
                part.remove_wme(&w);
            }
        }
        let want = naive.conflict_set().sorted_keys();
        assert_eq!(
            rete.conflict_set().sorted_keys(),
            want,
            "RETE diverged at step {step}"
        );
        assert_eq!(
            treat.conflict_set().sorted_keys(),
            want,
            "TREAT diverged at step {step}"
        );
        assert_eq!(
            part.conflict_set().sorted_keys(),
            want,
            "Partitioned diverged at step {step}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn all_matchers_agree_with_naive(
        specs in prop::collection::vec(rule_spec(), 1..4),
        ops in prop::collection::vec(op(), 1..25),
        workers in 1usize..4,
    ) {
        run_equivalence(specs, ops, workers);
    }
}

/// A deterministic regression harness for shapes proptest found valuable:
/// negative CEs whose blockers come and go around joins.
#[test]
fn negation_churn_regression() {
    let specs = vec![RuleSpec {
        ces: vec![
            CeSpec {
                class: 0,
                negated: false,
                tests: vec![(0, CheckSpec::Var(0, 0))],
            },
            CeSpec {
                class: 1,
                negated: true,
                tests: vec![(0, CheckSpec::Var(0, 1))],
            },
        ],
        cross_test: false,
        actions: vec![],
    }];
    let mut ops = Vec::new();
    for i in 0..12 {
        ops.push(Op::Add {
            class: (i % 2) as u8,
            fields: vec![i % 3, (i + 1) % 3],
        });
    }
    for i in 0..8 {
        ops.push(Op::Remove(i as usize * 7));
    }
    run_equivalence(specs, ops, 2);
}
