//! Pins RETE's token population and TREAT's counters on fixed programs
//! and fixed change streams.
//!
//! `differential.rs` proves every matcher's conflict set equals the naive
//! oracle's; this file pins what the conflict set cannot show: how many
//! beta tokens and negative-count entries RETE keeps, how many alpha
//! members both networks hold, how often a shared alpha test fanned out,
//! and how often TREAT re-enumerated a rule. A refactor of the join code
//! must leave every number here unchanged.

use parulel_core::{fnv1a, ClassId, ConflictSet, Program, Value, Wme, WorkingMemory};
use parulel_match::{Incremental, Matcher};
use parulel_workloads::{Closure, Market, Scenario};
use std::sync::Arc;

/// Rules whose first CE is negative: the root token is blocked by a
/// `flag`, and every `item` join runs behind that gate.
const LEADING_NEGATIVE: &str = "
(literalize flag on)
(literalize item id grp)
(p quiet -(flag ^on 1) (item ^id <i> ^grp <g>) -(item ^id <g> ^grp <i>) --> (halt))
(p pair -(flag ^on 2) (item ^grp <g>) (item ^grp <g> ^id <j>) --> (halt))
";

/// Every CE of a rule over one class: one WME may fill several CEs, and
/// the shared alpha node fans out to every level.
const SELF_JOIN: &str = "
(literalize e a b)
(p tri (e ^a <x> ^b <y>) (e ^a <y> ^b <z>) (e ^a <z> ^b <x>) --> (halt))
(p sym (e ^a <x> ^b <y>) (e ^a <y> ^b <x>) -(e ^a <x> ^b <x>) --> (halt))
(p loop (e ^a <x> ^b <x>) (test (> <x> 1)) --> (halt))
";

fn compiled(src: &str) -> Program {
    parulel_lang::compile(src).expect("pinned program compiles")
}

/// Facts for the two inline programs: small integer domains, so joins and
/// blockers collide often. One-field classes (the flags) get two facts.
fn inline_wm(program: &Program) -> WorkingMemory {
    let mut wm = WorkingMemory::new(&program.classes);
    for (id, decl) in program.classes.iter() {
        let n = if decl.arity() == 1 { 2 } else { 12 };
        for i in 0..n {
            let fields: Vec<Value> = (0..decl.arity())
                .map(|s| Value::Int((i * (s as i64 + 2) + s as i64) % 5))
                .collect();
            wm.insert(id, fields);
        }
    }
    wm
}

/// A copy of `w`'s fields in the next class of the same arity (so edges
/// become reach facts and buys become sells), else in `w`'s own class.
fn cross_copy(program: &Program, w: &Wme) -> (ClassId, Vec<Value>) {
    let n = program.classes.len() as u32;
    let next = (1..=n)
        .map(|d| ClassId((w.class.0 + d) % n))
        .find(|&c| program.classes.decl(c).arity() == w.fields.len())
        .unwrap_or(w.class);
    (next, w.fields.to_vec())
}

fn live(wm: &WorkingMemory) -> Vec<Wme> {
    let mut v: Vec<Wme> = wm.iter().cloned().collect();
    v.sort_by_key(|w| w.id);
    v
}

/// The three fixed batches: (removed, added), each applied to `wm`.
fn batches(program: &Program, wm: &mut WorkingMemory) -> Vec<(Vec<Wme>, Vec<Wme>)> {
    let mut out = Vec::new();
    // 1: drop every fourth WME, copy every third across classes.
    let l = live(wm);
    let removed: Vec<Wme> = l
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 4 == 1)
        .map(|(_, w)| w.clone())
        .collect();
    let copies: Vec<(ClassId, Vec<Value>)> = l
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 == 0)
        .map(|(_, w)| cross_copy(program, w))
        .collect();
    for w in &removed {
        wm.remove(w.id);
    }
    let added: Vec<Wme> = copies.into_iter().map(|(c, f)| wm.insert(c, f)).collect();
    let first_adds = added.clone();
    out.push((removed, added));
    // 2: drop every other batch-1 copy, re-add the first five survivors.
    let removed: Vec<Wme> = first_adds.iter().step_by(2).cloned().collect();
    for w in &removed {
        wm.remove(w.id);
    }
    let again: Vec<Wme> = live(wm).into_iter().take(5).collect();
    let added: Vec<Wme> = again
        .iter()
        .map(|w| wm.insert(w.class, w.fields.to_vec()))
        .collect();
    out.push((removed, added));
    // 3: drop every fifth WME, copy the 7k+3rd across classes.
    let l = live(wm);
    let removed: Vec<Wme> = l
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 5 == 0)
        .map(|(_, w)| w.clone())
        .collect();
    let copies: Vec<(ClassId, Vec<Value>)> = l
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 7 == 3)
        .map(|(_, w)| cross_copy(program, w))
        .collect();
    for w in &removed {
        wm.remove(w.id);
    }
    let added: Vec<Wme> = copies.into_iter().map(|(c, f)| wm.insert(c, f)).collect();
    out.push((removed, added));
    out
}

/// The sorted conflict-set keys as (count, FNV-1a of their rendering).
fn cs_digest(cs: &ConflictSet) -> (usize, u64) {
    let keys = cs.sorted_keys();
    let text: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
    (keys.len(), fnv1a(text.join(" ").as_bytes()))
}

/// One observation after seed or a batch.
#[derive(Debug, PartialEq)]
struct Pin {
    /// RETE: beta tokens, negative counts, alpha members, share hits.
    rete: [u64; 4],
    /// TREAT: alpha members, share hits, re-enumerations.
    treat: [u64; 3],
    /// Conflict set (both matchers agree): size and digest.
    cs: (usize, u64),
}

fn observe(name: &str, program: Program, mut wm: WorkingMemory) -> Vec<Pin> {
    let program = Arc::new(program);
    let mut rete = Incremental::rete(program.clone());
    let mut treat = Incremental::treat(program.clone());
    rete.seed(&wm);
    treat.seed(&wm);
    let mut pins = Vec::new();
    let mut record = |rete: &mut Incremental, treat: &mut Incremental| {
        rete.check_invariants();
        treat.check_invariants();
        let cs = cs_digest(rete.conflict_set());
        assert_eq!(
            cs_digest(treat.conflict_set()),
            cs,
            "{name}: RETE and TREAT disagree"
        );
        let (r, t) = (rete.metrics(), treat.metrics());
        pins.push(Pin {
            rete: [
                r.beta_tokens as u64,
                r.negative_counts as u64,
                r.alpha_wmes as u64,
                r.alpha_share_hits,
            ],
            treat: [t.alpha_wmes as u64, t.alpha_share_hits, t.reenumerations],
            cs,
        });
    };
    record(&mut rete, &mut treat);
    for (removed, added) in batches(&program, &mut wm) {
        rete.apply(&removed, &added);
        treat.apply(&removed, &added);
        record(&mut rete, &mut treat);
    }
    pins
}

fn scenario(s: &dyn Scenario) -> (Program, WorkingMemory) {
    (s.program().clone(), s.initial_wm())
}

#[test]
fn token_population_is_pinned() {
    let closure = scenario(&Closure::new(24, 40, 7));
    let market = scenario(&Market::new(40, 8, 5));
    let leading = compiled(LEADING_NEGATIVE);
    let leading_wm = inline_wm(&leading);
    let selfjoin = compiled(SELF_JOIN);
    let selfjoin_wm = inline_wm(&selfjoin);
    let actual = vec![
        ("closure", observe("closure", closure.0, closure.1)),
        ("market", observe("market", market.0, market.1)),
        (
            "leading-negative",
            observe("leading-negative", leading, leading_wm),
        ),
        ("self-join", observe("self-join", selfjoin, selfjoin_wm)),
    ];
    let p = |rete: [u64; 4], treat: [u64; 3], cs: (usize, u64)| Pin { rete, treat, cs };
    let expected = vec![
        (
            "closure",
            vec![
                p([80, 40, 80, 40], [80, 40, 0], (40, 14134443487932405391)),
                p([89, 44, 102, 68], [102, 68, 0], (31, 6789080261940592121)),
                p([86, 42, 91, 73], [91, 73, 14], (37, 2949049154935266031)),
                p([78, 38, 88, 84], [88, 84, 18], (30, 488581525423715245)),
            ],
        ),
        (
            "market",
            vec![
                p([108, 0, 80, 0], [80, 0, 0], (68, 10341183278097457381)),
                p([179, 0, 87, 0], [87, 0, 0], (136, 6832934188227390117)),
                p([134, 0, 78, 0], [78, 0, 0], (93, 6016817285005186603)),
                p([131, 0, 73, 0], [73, 0, 0], (92, 5238727369845616410)),
            ],
        ),
        (
            "leading-negative",
            vec![
                p([13, 14, 49, 36], [49, 36, 0], (0, 14695981039346656037)),
                p([67, 15, 52, 48], [52, 48, 4], (39, 8708781347051981839)),
                p([83, 17, 60, 60], [60, 60, 6], (51, 10927097114283623583)),
                p([74, 16, 56, 66], [56, 66, 9], (44, 11785273405920299329)),
            ],
        ),
        (
            "self-join",
            vec![
                p([114, 28, 84, 72], [84, 72, 0], (34, 18345432052444666127)),
                p([134, 34, 91, 96], [91, 96, 3], (40, 15496303104950933165)),
                p(
                    [206, 51, 112, 126],
                    [112, 126, 5],
                    (72, 12426956604810099315),
                ),
                p([200, 40, 98, 138], [98, 138, 9], (92, 10431686734184026895)),
            ],
        ),
    ];
    assert_eq!(actual, expected);
}
