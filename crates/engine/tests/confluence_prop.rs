//! Property test: for *confluent* programs (rules that only `make` into
//! output-only classes), the PARULEL many-firing engine, the serial OPS5
//! engine under both strategies, every guard mode, and every matcher all
//! derive exactly the same set of output facts.
//!
//! This is the semantic heart of the reproduction: set-oriented firing is
//! a pure scheduling change whenever firings cannot interfere.

use parulel_core::ir::{
    Action, ConditionElement, FieldCheck, FieldTest, Polarity, Rule, RuleId, VarId,
};
use parulel_core::{ClassRegistry, Expr, Interner, PredOp, Program, Value, WorkingMemory};
use parulel_engine::{
    Engine, EngineOptions, FiringPolicy, GuardMode, MatcherKind, Strategy as Ops5,
};
use proptest::prelude::*;

const ARITY: usize = 2;

/// Spec for one generated rule: up to two positive CEs over input classes
/// c0/c1, optional negated CE, and a `make` into the output class with
/// expressions over the bound variables.
#[derive(Clone, Debug)]
struct RuleSpec {
    ce_classes: Vec<u8>,       // 1..=2 entries
    join: bool,                // equate first vars of CE0/CE1
    negated_guard: Option<u8>, // class for a trailing -(...) CE
    out_const: i64,
}

fn build(specs: &[RuleSpec]) -> Program {
    let interner = Interner::new();
    let mut classes = ClassRegistry::new();
    for c in 0..2 {
        classes
            .declare(
                interner.intern(&format!("c{c}")),
                (0..ARITY)
                    .map(|f| interner.intern(&format!("f{f}")))
                    .collect(),
            )
            .unwrap();
    }
    let out = classes
        .declare(
            interner.intern("out"),
            (0..ARITY)
                .map(|f| interner.intern(&format!("o{f}")))
                .collect(),
        )
        .unwrap();
    let mut program = Program::new(interner.clone(), classes);
    for (ri, spec) in specs.iter().enumerate() {
        let mut ces = Vec::new();
        let mut next_var = 0u16;
        for (k, class) in spec.ce_classes.iter().enumerate() {
            let mut tests = vec![FieldTest {
                slot: 0,
                check: if k == 1 && spec.join {
                    FieldCheck::Var(PredOp::Eq, VarId(0))
                } else {
                    FieldCheck::Bind(VarId(next_var))
                },
            }];
            if !(k == 1 && spec.join) {
                next_var += 1;
            }
            tests.push(FieldTest {
                slot: 1,
                check: FieldCheck::Bind(VarId(next_var)),
            });
            next_var += 1;
            ces.push(ConditionElement {
                class: parulel_core::ClassId((*class % 2) as u32),
                polarity: Polarity::Positive,
                tests,
            });
        }
        if let Some(class) = spec.negated_guard {
            // -(cX ^f0 <first var>) — blocks when a same-keyed fact exists
            ces.push(ConditionElement {
                class: parulel_core::ClassId((class % 2) as u32),
                polarity: Polarity::Negative,
                tests: vec![
                    FieldTest {
                        slot: 0,
                        check: FieldCheck::Var(PredOp::Eq, VarId(0)),
                    },
                    FieldTest {
                        slot: 1,
                        check: FieldCheck::Const(PredOp::Eq, Value::Int(spec.out_const % 3)),
                    },
                ],
            });
        }
        let rule = Rule {
            id: RuleId(0),
            name: interner.intern(&format!("r{ri}")),
            ces,
            tests: vec![],
            binds: vec![],
            actions: vec![Action::Make {
                class: out,
                fields: vec![
                    Expr::Var(VarId(0)),
                    Expr::Bin(
                        parulel_core::BinOp::Add,
                        Box::new(Expr::Var(VarId(next_var - 1))),
                        Box::new(Expr::Const(Value::Int(spec.out_const))),
                    ),
                ],
            }],
            num_vars: next_var,
        };
        program.add_rule(rule).unwrap();
    }
    program
}

fn rule_spec() -> impl Strategy<Value = RuleSpec> {
    (
        prop::collection::vec(any::<u8>(), 1..3),
        any::<bool>(),
        prop::option::of(any::<u8>()),
        -5i64..5,
    )
        .prop_map(|(ce_classes, join, negated_guard, out_const)| RuleSpec {
            join: join && ce_classes.len() == 2,
            ce_classes,
            negated_guard,
            out_const,
        })
}

fn facts() -> impl Strategy<Value = Vec<(u8, i64, i64)>> {
    prop::collection::vec((any::<u8>(), 0i64..4, 0i64..4), 0..12)
}

/// Output facts only (input facts are identical by construction).
fn out_facts(program: &Program, wm: &WorkingMemory) -> Vec<Vec<Value>> {
    let out = program
        .classes
        .id_of(program.interner.intern("out"))
        .unwrap();
    let mut rows: Vec<Vec<Value>> = wm.iter_class(out).map(|w| w.fields.to_vec()).collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn all_engines_derive_the_same_outputs(
        specs in prop::collection::vec(rule_spec(), 1..4),
        input in facts(),
    ) {
        let program = build(&specs);
        let make_wm = || {
            let mut wm = WorkingMemory::new(&program.classes);
            for &(class, a, b) in &input {
                wm.insert(
                    parulel_core::ClassId((class % 2) as u32),
                    vec![Value::Int(a), Value::Int(b)],
                );
            }
            wm
        };

        let mut reference: Option<Vec<Vec<Value>>> = None;
        let mut check = |label: String, facts: Vec<Vec<Value>>| {
            match &reference {
                None => reference = Some(facts),
                Some(r) => assert_eq!(&facts, r, "{label} diverged"),
            }
        };

        for kind in [MatcherKind::Rete, MatcherKind::Treat, MatcherKind::PartitionedRete(3)] {
            for guard in [GuardMode::Off, GuardMode::WriteWrite, GuardMode::Serializable] {
                let mut e = Engine::with_policy(
                    &program,
                    make_wm(),
                    FiringPolicy::FireAll { meta: true, guard },
                    EngineOptions { matcher: kind, ..Default::default() },
                );
                let out = e.run().unwrap();
                prop_assert!(out.quiescent, "{kind:?}/{guard:?}: {out:?}");
                check(format!("parallel {kind:?}/{guard:?}"), out_facts(&program, e.wm()));
            }
        }
        for strategy in [Ops5::Lex, Ops5::Mea] {
            let mut e = Engine::with_policy(
                &program,
                make_wm(),
                FiringPolicy::SelectOne(strategy),
                EngineOptions::default(),
            );
            let out = e.run().unwrap();
            prop_assert!(out.quiescent);
            check(format!("serial {strategy:?}"), out_facts(&program, e.wm()));
        }
    }
}
