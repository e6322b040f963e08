//! Differential property suite over the *batched* delta path.
//!
//! The serving daemon and the engine's `inject` path deliver WM changes
//! to the matchers as batches through `Matcher::apply(removed, added)`,
//! not one `add_wme`/`remove_wme` at a time — and the partitioned
//! matcher overrides `apply` with its own sharded implementation. These
//! tests pin the contract the kernel relies on:
//!
//! 1. After every batch, all incremental matchers (RETE, TREAT, and the
//!    partitioned wrappers around each) produce a conflict set identical
//!    to the naive recompute oracle's — so any pair of matchers is
//!    interchangeable mid-stream.
//! 2. For every matcher, `apply` is equivalent to the per-WME loop it
//!    documents (removes first, then adds), so batch size can never
//!    change match semantics.
//! 3. `seed` is equivalent to adding every seeded WME incrementally.
//! 4. `replace_rules` mid-stream (the reload path) leaves every
//!    matcher agreeing with the oracle, before and after further
//!    batches.
//!
//! In debug builds, invariant-checked RETE and TREAT twins ride along: subscription
//! refcounts, arena live counts, and every index cross-reference are
//! asserted after each batch (and after each `replace_rules`), so a
//! desync surfaces at the op that caused it.
//!
//! Each property runs 256 generated cases; with the oracle comparison
//! transitively covering every matcher pair, that is ≥256 cases per
//! pair.

mod common;

use common::{build_program, op, rule_spec, Op, RuleSpec};
use parulel_core::{RuleId, Value, Wme, WorkingMemory};
use parulel_match::{Incremental, Matcher, NaiveMatcher, Partitioned};
use proptest::prelude::*;
use std::sync::Arc;

/// All rule ids of `program`, the subset every matcher covers here.
fn all_rules(program: &parulel_core::Program) -> Vec<RuleId> {
    (0..program.rules().len() as u32).map(RuleId).collect()
}

/// 256 cases per property (the ISSUE's floor for each matcher pair).
const CASES: u32 = 256;

/// Materializes one batch against the working memory: removes are
/// resolved against the currently-live WMEs (indices mod the live
/// count), then adds are inserted. Returns the `(removed, added)`
/// slices every matcher receives.
fn materialize(
    wm: &mut WorkingMemory,
    live: &mut Vec<Wme>,
    batch: Vec<Op>,
) -> (Vec<Wme>, Vec<Wme>) {
    let mut removed = Vec::new();
    let mut added = Vec::new();
    // `apply` is specified removes-first-then-adds; mirror that split
    // here so the WM and the matchers see the same net change.
    for o in &batch {
        if let Op::Remove(i) = o {
            if live.is_empty() {
                continue;
            }
            let w = live.remove(i % live.len());
            wm.remove(w.id);
            removed.push(w);
        }
    }
    for o in batch {
        if let Op::Add { class, fields } = o {
            let w = wm.insert(
                parulel_core::ClassId(class as u32),
                fields.into_iter().map(Value::Int).collect::<Vec<_>>(),
            );
            live.push(w.clone());
            added.push(w);
        }
    }
    (removed, added)
}

/// Property 1: after every `apply` batch, all matchers agree with the
/// naive oracle (and hence with each other).
fn run_batched_differential(specs: Vec<RuleSpec>, batches: Vec<Vec<Op>>, workers: usize) {
    let program = Arc::new(build_program(&specs));
    let mut wm = WorkingMemory::new(&program.classes);
    let mut live: Vec<Wme> = Vec::new();

    let mut naive = NaiveMatcher::new(program.clone());
    let mut matchers: Vec<(&str, Box<dyn Matcher>)> = vec![
        ("rete", Box::new(Incremental::rete(program.clone()))),
        ("treat", Box::new(Incremental::treat(program.clone()))),
        (
            "partitioned-rete",
            Box::new(Partitioned::rete(program.clone(), workers)),
        ),
        (
            "partitioned-treat",
            Box::new(Partitioned::treat(program.clone(), workers)),
        ),
    ];
    // Concrete RETE/TREAT twins ride along so the debug-only structural
    // invariants (subscription refcounts, arena live counts, index
    // mirrors, token cross-references, left_index and neg_counts
    // hygiene) are checked at the batch that violates them — the boxed
    // instances only get compared by conflict set.
    #[cfg(debug_assertions)]
    let mut rete_chk = Incremental::rete(program.clone());
    #[cfg(debug_assertions)]
    let mut treat_chk = Incremental::treat(program.clone());

    for (step, batch) in batches.into_iter().enumerate() {
        let (removed, added) = materialize(&mut wm, &mut live, batch);
        naive.apply(&removed, &added);
        let want = naive.conflict_set().sorted_keys();
        for (name, m) in matchers.iter_mut() {
            m.apply(&removed, &added);
            assert_eq!(
                m.conflict_set().sorted_keys(),
                want,
                "{name} diverged from naive after batch {step} \
                 (-{} +{} wmes)",
                removed.len(),
                added.len()
            );
        }
        #[cfg(debug_assertions)]
        {
            rete_chk.apply(&removed, &added);
            rete_chk.check_invariants();
            treat_chk.apply(&removed, &added);
            treat_chk.check_invariants();
        }
    }
}

/// Property 4: swapping every rule out and back in via `replace_rules`
/// mid-stream (the path `Engine::reload` exercises) is a no-op for match
/// semantics: each matcher still agrees with the untouched oracle right
/// after the swap and across further batches. Debug twins assert the
/// structural invariants — in particular that subscription refcounts
/// and arena live counts survive the unsubscribe/resubscribe churn.
fn run_replace_rules_churn(
    specs: Vec<RuleSpec>,
    before: Vec<Vec<Op>>,
    after: Vec<Vec<Op>>,
    workers: usize,
) {
    let program = Arc::new(build_program(&specs));
    let rules = all_rules(&program);
    let mut wm = WorkingMemory::new(&program.classes);
    let mut live: Vec<Wme> = Vec::new();

    let mut naive = NaiveMatcher::new(program.clone());
    let mut matchers: Vec<(&str, Box<dyn Matcher>)> = vec![
        ("rete", Box::new(Incremental::rete(program.clone()))),
        ("treat", Box::new(Incremental::treat(program.clone()))),
        (
            "partitioned-rete",
            Box::new(Partitioned::rete(program.clone(), workers)),
        ),
        (
            "partitioned-treat",
            Box::new(Partitioned::treat(program.clone(), workers)),
        ),
    ];
    #[cfg(debug_assertions)]
    let mut rete_chk = Incremental::rete(program.clone());
    #[cfg(debug_assertions)]
    let mut treat_chk = Incremental::treat(program.clone());

    let step_all = |naive: &mut NaiveMatcher,
                        matchers: &mut Vec<(&str, Box<dyn Matcher>)>,
                        removed: &[Wme],
                        added: &[Wme],
                        when: &str| {
        naive.apply(removed, added);
        let want = naive.conflict_set().sorted_keys();
        for (name, m) in matchers.iter_mut() {
            m.apply(removed, added);
            assert_eq!(
                m.conflict_set().sorted_keys(),
                want,
                "{name} diverged from naive {when} replace_rules"
            );
        }
    };

    for batch in before {
        let (removed, added) = materialize(&mut wm, &mut live, batch);
        step_all(&mut naive, &mut matchers, &removed, &added, "before");
        #[cfg(debug_assertions)]
        {
            rete_chk.apply(&removed, &added);
            treat_chk.apply(&removed, &added);
        }
    }

    // Swap every rule out and straight back in. The shared alpha network
    // must release each CE's subscription and re-acquire it, rebuilding
    // identical memories from the WME store.
    let want = naive.conflict_set().sorted_keys();
    for (name, m) in matchers.iter_mut() {
        m.replace_rules(&program, &rules, &rules);
        assert_eq!(
            m.conflict_set().sorted_keys(),
            want,
            "{name}: replace_rules(all, all) changed the conflict set"
        );
    }
    #[cfg(debug_assertions)]
    {
        rete_chk.replace_rules(&program, &rules, &rules);
        rete_chk.check_invariants();
        treat_chk.replace_rules(&program, &rules, &rules);
        treat_chk.check_invariants();
    }

    for batch in after {
        let (removed, added) = materialize(&mut wm, &mut live, batch);
        step_all(&mut naive, &mut matchers, &removed, &added, "after");
        #[cfg(debug_assertions)]
        {
            rete_chk.apply(&removed, &added);
            rete_chk.check_invariants();
            treat_chk.apply(&removed, &added);
            treat_chk.check_invariants();
        }
    }
}

/// Property 2: for each matcher kind, one instance driven through
/// `apply` and a twin driven through the per-WME loop stay identical.
fn run_apply_vs_per_op(specs: Vec<RuleSpec>, batches: Vec<Vec<Op>>, workers: usize) {
    let program = Arc::new(build_program(&specs));
    let mut wm = WorkingMemory::new(&program.classes);
    let mut live: Vec<Wme> = Vec::new();

    type Pair = (&'static str, Box<dyn Matcher>, Box<dyn Matcher>);
    let mut pairs: Vec<Pair> = vec![
        (
            "naive",
            Box::new(NaiveMatcher::new(program.clone())),
            Box::new(NaiveMatcher::new(program.clone())),
        ),
        (
            "rete",
            Box::new(Incremental::rete(program.clone())),
            Box::new(Incremental::rete(program.clone())),
        ),
        (
            "treat",
            Box::new(Incremental::treat(program.clone())),
            Box::new(Incremental::treat(program.clone())),
        ),
        (
            "partitioned-rete",
            Box::new(Partitioned::rete(program.clone(), workers)),
            Box::new(Partitioned::rete(program.clone(), workers)),
        ),
        (
            "partitioned-treat",
            Box::new(Partitioned::treat(program.clone(), workers)),
            Box::new(Partitioned::treat(program.clone(), workers)),
        ),
    ];

    // Invariant-checked RETE twin on the *per-WME* path, so leaks
    // reachable only through add_wme/remove_wme (not apply) surface too.
    #[cfg(debug_assertions)]
    let mut rete_chk = Incremental::rete(program.clone());

    for (step, batch) in batches.into_iter().enumerate() {
        let (removed, added) = materialize(&mut wm, &mut live, batch);
        for (name, batched, per_op) in pairs.iter_mut() {
            batched.apply(&removed, &added);
            for w in &removed {
                per_op.remove_wme(w);
            }
            for w in &added {
                per_op.add_wme(w);
            }
            assert_eq!(
                batched.conflict_set().sorted_keys(),
                per_op.conflict_set().sorted_keys(),
                "{name}: apply() and the per-WME loop diverged at batch {step}"
            );
        }
        #[cfg(debug_assertions)]
        {
            for w in &removed {
                rete_chk.remove_wme(w);
            }
            for w in &added {
                rete_chk.add_wme(w);
            }
            rete_chk.check_invariants();
        }
    }
}

/// Property 3: `seed(wm)` equals building the same WM one `add_wme` at a
/// time, for every matcher.
fn run_seed_vs_incremental(specs: Vec<RuleSpec>, adds: Vec<Op>, workers: usize) {
    let program = Arc::new(build_program(&specs));
    let mut wm = WorkingMemory::new(&program.classes);
    let mut wmes = Vec::new();
    for o in adds {
        if let Op::Add { class, fields } = o {
            wmes.push(wm.insert(
                parulel_core::ClassId(class as u32),
                fields.into_iter().map(Value::Int).collect::<Vec<_>>(),
            ));
        }
    }
    type Builder = fn(Arc<parulel_core::Program>, usize) -> Box<dyn Matcher>;
    let builders: Vec<(&str, Builder)> = vec![
        ("naive", |p, _| Box::new(NaiveMatcher::new(p))),
        ("rete", |p, _| Box::new(Incremental::rete(p))),
        ("treat", |p, _| Box::new(Incremental::treat(p))),
        ("partitioned-rete", |p, n| Box::new(Partitioned::rete(p, n))),
        ("partitioned-treat", |p, n| {
            Box::new(Partitioned::treat(p, n))
        }),
    ];
    for (name, build) in builders {
        let mut seeded = build(program.clone(), workers);
        seeded.seed(&wm);
        let mut incremental = build(program.clone(), workers);
        for w in &wmes {
            incremental.add_wme(w);
        }
        assert_eq!(
            seeded.conflict_set().sorted_keys(),
            incremental.conflict_set().sorted_keys(),
            "{name}: seed() and incremental build diverged"
        );
    }
}

fn batch() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(op(), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: CASES, ..ProptestConfig::default() })]

    #[test]
    fn batched_apply_agrees_across_all_matchers(
        specs in prop::collection::vec(rule_spec(), 1..4),
        batches in prop::collection::vec(batch(), 1..6),
        workers in 1usize..4,
    ) {
        run_batched_differential(specs, batches, workers);
    }

    #[test]
    fn apply_is_equivalent_to_the_per_wme_loop(
        specs in prop::collection::vec(rule_spec(), 1..4),
        batches in prop::collection::vec(batch(), 1..6),
        workers in 1usize..4,
    ) {
        run_apply_vs_per_op(specs, batches, workers);
    }

    #[test]
    fn replace_rules_is_transparent_mid_stream(
        specs in prop::collection::vec(rule_spec(), 1..4),
        before in prop::collection::vec(batch(), 1..4),
        after in prop::collection::vec(batch(), 1..4),
        workers in 1usize..4,
    ) {
        run_replace_rules_churn(specs, before, after, workers);
    }

    #[test]
    fn seed_is_equivalent_to_incremental_build(
        specs in prop::collection::vec(rule_spec(), 1..4),
        adds in prop::collection::vec(op(), 1..20),
        workers in 1usize..4,
    ) {
        run_seed_vs_incremental(specs, adds, workers);
    }
}

/// Deterministic regression: a batch that removes a join partner and
/// re-adds an identical-valued WME in the same `apply` call — the net
/// conflict set must treat these as distinct WMEs (the removed ID is
/// gone; the add is a new ID).
#[test]
fn remove_and_readd_in_one_batch() {
    use common::{CeSpec, CheckSpec};
    let specs = vec![RuleSpec {
        ces: vec![
            CeSpec {
                class: 0,
                negated: false,
                tests: vec![(0, CheckSpec::Var(0, 0))],
            },
            CeSpec {
                class: 1,
                negated: false,
                tests: vec![(0, CheckSpec::Var(0, 1))],
            },
        ],
        cross_test: false,
        actions: vec![],
    }];
    let mut batches = vec![vec![
        Op::Add {
            class: 0,
            fields: vec![1, 2],
        },
        Op::Add {
            class: 1,
            fields: vec![1, 3],
        },
    ]];
    // churn: drop the c1 partner and replace it with an equal-valued WME,
    // repeatedly, inside single batches
    for _ in 0..6 {
        batches.push(vec![
            Op::Remove(1),
            Op::Add {
                class: 1,
                fields: vec![1, 3],
            },
        ]);
    }
    run_batched_differential(specs.clone(), batches.clone(), 2);
    run_apply_vs_per_op(specs, batches, 2);
}

/// Adds `facts` one WME at a time, in the given order and then reversed,
/// and removes them again, checking TREAT against the naive oracle (and
/// TREAT's invariants) after every change. The add order decides which
/// CE each new WME is pinned at, so both orders cover the pinned key
/// plans of early and late CEs.
fn treat_agrees_with_naive(src: &str, facts: &[(&str, Vec<Value>)]) {
    let program = Arc::new(parulel_lang::compile(src).unwrap());
    for reverse in [false, true] {
        let mut order: Vec<&(&str, Vec<Value>)> = facts.iter().collect();
        if reverse {
            order.reverse();
        }
        let mut wm = WorkingMemory::new(&program.classes);
        let mut naive = NaiveMatcher::new(program.clone());
        let mut treat = Incremental::treat(program.clone());
        let mut added = Vec::new();
        for (class, fields) in order {
            let cid = program
                .classes
                .id_of(program.interner.intern(class))
                .unwrap();
            let w = wm.insert(cid, fields.clone());
            naive.add_wme(&w);
            treat.add_wme(&w);
            treat.check_invariants();
            assert_eq!(
                treat.conflict_set().sorted_keys(),
                naive.conflict_set().sorted_keys(),
                "treat diverged after adding {class} {fields:?} (reverse: {reverse})"
            );
            added.push(w);
        }
        assert!(
            !naive.conflict_set().is_empty(),
            "case never matches; it tests nothing"
        );
        for w in added {
            naive.remove_wme(&w);
            treat.remove_wme(&w);
            treat.check_invariants();
            assert_eq!(
                treat.conflict_set().sorted_keys(),
                naive.conflict_set().sorted_keys(),
                "treat diverged after removing {} (reverse: {reverse})",
                w.id
            );
        }
    }
}

fn ints(vs: &[i64]) -> Vec<Value> {
    vs.iter().map(|&v| Value::Int(v)).collect()
}

#[test]
fn pinned_key_from_a_var_bound_in_ce0() {
    // `<x>` is bound by CE 0 and shared by CEs 1 and 2; `<v>` links CE 0
    // and CE 2 only, so a `c` pinned at CE 2 probes `a` on both slots.
    let src = "(literalize a k v)
         (literalize b k)
         (literalize c k w)
         (p r (a ^k <x> ^v <v>) (b ^k <x>) (c ^k <x> ^w <v>) --> (halt))
         (p s (a ^k <x>) (c ^w <x>) --> (halt))";
    let mut facts = Vec::new();
    for k in 1..=2 {
        for v in 1..=2 {
            facts.push(("a", ints(&[k, v])));
            facts.push(("c", ints(&[k, v])));
        }
        facts.push(("b", ints(&[k])));
    }
    treat_agrees_with_naive(src, &facts);
}

#[test]
fn pinned_key_behind_a_negative_ce() {
    // The pinned CE sits after a negated CE, one with a local variable.
    let src = "(literalize a k)
         (literalize b k v)
         (literalize c k)
         (p r (a ^k <x>) -(b ^k <x> ^v <l>) (c ^k <x>) --> (halt))
         (p s (a ^k <x>) -(b ^v <x>) (c ^k <x>) --> (halt))";
    let facts = vec![
        ("a", ints(&[1])),
        ("a", ints(&[2])),
        ("a", ints(&[3])),
        ("c", ints(&[1])),
        ("c", ints(&[2])),
        ("c", ints(&[3])),
        ("b", ints(&[2, 7])),
        ("b", ints(&[9, 3])),
    ];
    treat_agrees_with_naive(src, &facts);
}

#[test]
fn pinned_key_when_one_wme_fills_two_ces() {
    let src = "(literalize n v w)
         (p swap (n ^v <a> ^w <b>) (n ^v <b> ^w <a>) --> (halt))
         (p same (n ^v <a>) (n ^v <a>) --> (halt))";
    let facts = vec![
        ("n", ints(&[3, 3])),
        ("n", ints(&[1, 2])),
        ("n", ints(&[2, 1])),
        ("n", ints(&[2, 2])),
    ];
    treat_agrees_with_naive(src, &facts);
}

#[test]
fn pinned_key_joins_int_and_float() {
    // `3` and `3.0` are equal to the match network; both the index and
    // the probe key go through `Value::join_key`.
    let src = "(literalize a k)
         (literalize b k)
         (p r (a ^k <x>) (b ^k <x>) --> (halt))
         (p s (b ^k <x>) (a ^k <x>) --> (halt))";
    let facts = vec![
        ("a", vec![Value::Int(3)]),
        ("b", vec![Value::Float(3.0)]),
        ("a", vec![Value::Float(4.0)]),
        ("b", vec![Value::Int(4)]),
        ("b", vec![Value::Float(3.5)]),
    ];
    treat_agrees_with_naive(src, &facts);
}
