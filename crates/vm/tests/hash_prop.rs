//! Content-hash stability properties. Each rule is identified by an
//! FNV-1a hash of its *canonical bytes*, so live reload
//! can recognize unchanged rules across recompiles. That only works if
//! the hash is a function of rule *meaning*: it must survive a
//! print→reparse round trip, rule reordering, α-renaming of variables,
//! and renaming the rule itself.
//!
//! Random rules are generated as abstract specs and *rendered* to
//! source text by a pure function of (spec, name tables) — so rendering
//! the same spec with a different variable pool yields an exactly
//! α-equivalent program, not an approximately similar one.

use parulel_lang::printer::print_program;
use parulel_vm::{canonical_bytes, compile_program};
use proptest::prelude::*;
use std::fmt::Write as _;

#[derive(Clone, Debug)]
enum SrcTest {
    Const(i64),
    Var(u16), // fresh bind or reference, decided by the renderer
}

#[derive(Clone, Debug)]
enum SrcAction {
    Make(u16, i64),
    Modify(u16),
    Remove,
    Write(u16),
}

#[derive(Clone, Debug)]
struct SrcRule {
    ces: Vec<(u8, bool, Vec<Option<SrcTest>>)>, // (class, negated, per-slot test)
    cross_test: bool,
    actions: Vec<SrcAction>,
}

const ARITY: usize = 2;

/// Renders specs to source. `rule_name(i)` and `var_name(i)` are the
/// only naming choices; everything else is a pure function of the
/// specs, so two renders differ *exactly* by renaming.
fn render(
    rules: &[SrcRule],
    rule_name: impl Fn(usize) -> String,
    var_name: impl Fn(usize) -> String,
) -> String {
    let mut src = String::new();
    for c in 0..2 {
        writeln!(src, "(literalize c{c} f0 f1)").unwrap();
    }
    for (ri, rule) in rules.iter().enumerate() {
        let mut bound = 0usize; // vars exported by positive CEs so far
        write!(src, "(p {}", rule_name(ri)).unwrap();
        for (ci, (class, negated, tests)) in rule.ces.iter().enumerate() {
            let negated = *negated && ci > 0;
            write!(src, " {}(c{}", if negated { "-" } else { "" }, class % 2).unwrap();
            for (slot, test) in tests.iter().enumerate().take(ARITY) {
                match test {
                    None => {}
                    Some(SrcTest::Const(v)) => write!(src, " ^f{slot} {}", v % 4).unwrap(),
                    Some(SrcTest::Var(i)) => {
                        // In a positive CE, index 0 (or an empty pool)
                        // means "bind fresh"; otherwise reference an
                        // exported var. Negated CEs never bind.
                        if !negated && (bound == 0 || *i % 3 == 0) {
                            write!(src, " ^f{slot} <{}>", var_name(bound)).unwrap();
                            bound += 1;
                        } else if bound == 0 {
                            write!(src, " ^f{slot} 1").unwrap();
                        } else {
                            write!(src, " ^f{slot} <{}>", var_name(*i as usize % bound)).unwrap();
                        }
                    }
                }
            }
            write!(src, ")").unwrap();
        }
        if rule.cross_test && bound >= 2 {
            write!(src, " (test (<= <{}> <{}>))", var_name(0), var_name(1)).unwrap();
        }
        let vref = |i: u16| {
            if bound == 0 { "2".to_string() } else { format!("<{}>", var_name(i as usize % bound)) }
        };
        write!(src, " -->").unwrap();
        for action in &rule.actions {
            match action {
                SrcAction::Make(v, k) => {
                    write!(src, " (make c1 ^f0 {} ^f1 {})", vref(*v), k % 4).unwrap()
                }
                SrcAction::Modify(v) => {
                    write!(src, " (modify 1 ^f0 (+ {} 1))", vref(*v)).unwrap()
                }
                SrcAction::Remove => write!(src, " (remove 1)").unwrap(),
                SrcAction::Write(v) => write!(src, " (write {} fired)", vref(*v)).unwrap(),
            }
        }
        if rule.actions.is_empty() {
            write!(src, " (write noop)").unwrap();
        }
        writeln!(src, ")").unwrap();
    }
    src
}

/// Each rule's content hash, in program order (positional, so renamed
/// programs can be compared rule-for-rule).
fn hashes(src: &str) -> Vec<u64> {
    let program = parulel_lang::compile(src)
        .unwrap_or_else(|e| panic!("generated source must compile: {e}\n{src}"));
    compile_program(&program).rules().iter().map(|r| r.1).collect()
}

fn src_test() -> impl Strategy<Value = Option<SrcTest>> {
    prop_oneof![
        1 => Just(None),
        2 => (0i64..4).prop_map(|v| Some(SrcTest::Const(v))),
        3 => any::<u16>().prop_map(|i| Some(SrcTest::Var(i))),
    ]
}

fn src_rule() -> impl Strategy<Value = SrcRule> {
    (
        prop::collection::vec(
            (any::<u8>(), any::<bool>(), prop::collection::vec(src_test(), ARITY)),
            1..4,
        ),
        any::<bool>(),
        prop::collection::vec(
            prop_oneof![
                (any::<u16>(), 0i64..4).prop_map(|(v, k)| SrcAction::Make(v, k)),
                any::<u16>().prop_map(SrcAction::Modify),
                Just(SrcAction::Remove),
                any::<u16>().prop_map(SrcAction::Write),
            ],
            0..3,
        ),
    )
        .prop_map(|(ces, cross_test, actions)| SrcRule { ces, cross_test, actions })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Pretty-printing a parsed program and recompiling the output must
    /// reproduce every rule's content hash *and* its canonical bytes — the
    /// printed form is a faithful carrier of rule identity (this is what
    /// lets a client echo a program back through `reload` verbatim).
    #[test]
    fn print_reparse_recompile_preserves_hashes(rules in prop::collection::vec(src_rule(), 1..4)) {
        let src = render(&rules, |i| format!("r{i}"), |i| format!("v{i}"));
        let program = parulel_lang::compile(&src).unwrap();
        let code = compile_program(&program);

        let printed = print_program(&parulel_lang::parse(&src).unwrap());
        let reprogram = parulel_lang::compile(&printed)
            .unwrap_or_else(|e| panic!("printed source must compile: {e}\n{printed}"));
        let recode = compile_program(&reprogram);

        prop_assert_eq!(code.name_map(), recode.name_map(), "--- src ---\n{}", src);
        let bytes = |p: &parulel_core::Program| -> Vec<Vec<u8>> {
            p.rules().iter().map(|r| canonical_bytes(r, p)).collect()
        };
        prop_assert_eq!(bytes(&program), bytes(&reprogram));
    }

    /// Reordering rule declarations changes nothing about any single
    /// rule: `hash_of(name)` is order-independent. (This is what makes
    /// an identity `reload` of a shuffled file report all-unchanged.)
    #[test]
    fn rule_order_does_not_affect_content_hashes(rules in prop::collection::vec(src_rule(), 2..5)) {
        let forward = render(&rules, |i| format!("r{i}"), |i| format!("v{i}"));
        let reversed_rules: Vec<SrcRule> = rules.iter().rev().cloned().collect();
        let n = rules.len();
        // Keep each rule's *name* attached to its body as it moves.
        let reversed = render(&reversed_rules, |i| format!("r{}", n - 1 - i), |i| format!("v{i}"));

        let a = parulel_lang::compile(&forward).unwrap();
        let b = parulel_lang::compile(&reversed).unwrap();
        let (ca, cb) = (compile_program(&a), compile_program(&b));
        for i in 0..n {
            let name = format!("r{i}");
            prop_assert_eq!(
                ca.hash_of(&name), cb.hash_of(&name),
                "rule {} hash moved with its position\n--- forward ---\n{}", name, forward
            );
        }
    }

    /// Renaming every variable (consistently) and every rule leaves the
    /// content hashes untouched, rule-for-rule: the hash keys on
    /// structure, and names — human labels — are excluded.
    #[test]
    fn alpha_renaming_leaves_content_hashes_stable(rules in prop::collection::vec(src_rule(), 1..4)) {
        let original = render(&rules, |i| format!("r{i}"), |i| format!("v{i}"));
        let renamed = render(&rules, |i| format!("totally-different-{i}"), |i| format!("x{i}"));
        prop_assert_eq!(
            hashes(&original),
            hashes(&renamed),
            "--- original ---\n{}\n--- renamed ---\n{}", original, renamed
        );
    }

    /// And the contrapositive guard: changing a rule's *body* (a
    /// constant in a field test) must change its hash — the store can't
    /// treat distinct rules as unchanged across a reload.
    #[test]
    fn changing_a_constant_changes_the_hash(v in 0i64..4) {
        let rule = |k: i64| vec![SrcRule {
            ces: vec![(0, false, vec![Some(SrcTest::Const(k)), Some(SrcTest::Var(0))])],
            cross_test: false,
            actions: vec![SrcAction::Write(0)],
        }];
        let a = hashes(&render(&rule(v), |i| format!("r{i}"), |i| format!("v{i}")));
        let b = hashes(&render(&rule((v + 1) % 4), |i| format!("r{i}"), |i| format!("v{i}")));
        prop_assert_ne!(a, b);
    }
}
