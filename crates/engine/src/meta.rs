//! The meta-rule evaluator: programmable conflict resolution.
//!
//! PARULEL's key idea: the conflict set is itself a working memory that a
//! second, *meta* level of rules matches over. A meta-rule's LHS binds
//! instantiations of named object rules (pairwise distinct) and tests
//! their matched WMEs; its RHS *redacts* (deletes) some of them.
//!
//! ## Semantics
//!
//! Redaction is defined as **simultaneous rounds to a fixpoint**: each
//! round, every meta-rule match against the currently-live set is
//! computed, all requested redactions are applied at once, and the process
//! repeats until a round redacts nothing. Simultaneity makes the result
//! independent of rule and instantiation enumeration order —
//! property-tested in this module. (A meta-pair that mutually redacts each
//! other kills both; write a tie-breaking `test` if one should survive.)
//!
//! ## One join per cycle
//!
//! The fixpoint is reached after at most one redacting round, so
//! [`MetaLevel::redact`] joins once. Meta CEs are all positive, so a round-2 match is
//! also a round-1 match; and `Redact` always names one of the match's own
//! members, which round 1 therefore already redacted — so no round-2 match
//! is alive. `rounds` is 1 when anything was redacted and 0 otherwise,
//! exactly what the loop would count. The join also stops extending a
//! partial match once every instantiation it would redact is already
//! dead: the result is a set union, so skipping it changes nothing. A
//! brute-force copy of the round loop is the oracle in this module's
//! tests.
//!
//! ## One index per join key
//!
//! A meta CE whose pattern equates a field with a variable an earlier CE
//! bound probes a hash index of its object rule's instantiations, bucketed
//! on that field. The index is named by what it buckets (object rule,
//! pattern, slot), not by the meta-rule that probes it, so meta-rules
//! that join on the same field share one index, and each redaction fills
//! every index once before any plan joins.

use parulel_core::{FxHashMap, Instantiation, MetaRule, Program, RuleId, TestExpr, Value};
use std::cell::RefCell;

/// Result of the redaction phase.
#[derive(Clone, Debug)]
pub struct RedactOutcome {
    /// Instantiations that survived, in the input (key-sorted) order.
    pub surviving: Vec<Instantiation>,
    /// How many were redacted.
    pub redacted: usize,
    /// Redacting rounds to fixpoint (0 or 1; see the module doc).
    pub rounds: usize,
}

/// An equality join key for one meta CE: its candidates are bucketed in
/// one hash-join index, probed with `env[var]`.
#[derive(Clone, Copy, Debug)]
struct JoinKey {
    var: parulel_core::VarId,
    /// The bucketing's position in [`MetaLevel::indexes`] and
    /// [`Scratch::indexes`].
    index: usize,
}

/// What one hash-join index holds: object rule `rule`'s instantiations,
/// bucketed on `wmes[pat].field(slot)`. Every join key with the same
/// bucketing shares one index, whichever meta-rule it belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Bucketing {
    rule: RuleId,
    pat: usize,
    slot: u16,
}

/// A hash-join index: candidates bucketed by their key field's value.
type Index = FxHashMap<Value, Vec<usize>>;

/// Precomputed evaluation plan for one meta-rule: which tests can run
/// after which CE (earliest point all their variables are bound), and the
/// hash-join key for each CE (the first field equated with a variable
/// bound by an earlier CE). Without the key, pairwise meta-rules over a
/// conflict set of width *n* cost O(n²) per cycle; with it the common
/// "same ^x" patterns cost O(n).
struct MetaPlan {
    /// The planned rule's position in [`Program::metas`].
    meta: usize,
    /// `tests_at[k]` = positions in the rule's `tests` runnable once CEs
    /// `0..=k` are bound.
    tests_at: Vec<Vec<usize>>,
    /// `join_key[k]` = the hash-join key for CE k, if one exists.
    join_key: Vec<Option<JoinKey>>,
    /// The meta CEs the actions redact, and the join depth at which all
    /// of them are bound (one past the last).
    targets: Vec<usize>,
    targets_bound: usize,
}

impl MetaPlan {
    /// Plans `meta`, numbering each join key's index by its bucketing in
    /// `indexes` (a bucketing not seen yet is appended).
    fn new(position: usize, meta: &MetaRule, indexes: &mut Vec<Bucketing>) -> Self {
        // Variables are allocated scanning CEs in order, so the count
        // bound after CE k is the max Bind id seen in CEs 0..=k, plus one.
        // A key must use a variable from an earlier CE: the probe runs
        // before any candidate of this CE has bound anything.
        let mut bound_after = Vec::with_capacity(meta.ces.len());
        let mut join_key = Vec::with_capacity(meta.ces.len());
        let mut bound: u16 = 0;
        for ce in &meta.ces {
            let before = bound;
            let mut key = None;
            for (p, pat) in ce.pats.iter().enumerate() {
                for t in &pat.tests {
                    match t.check {
                        parulel_core::FieldCheck::Bind(v) => bound = bound.max(v.0 + 1),
                        parulel_core::FieldCheck::Var(parulel_core::PredOp::Eq, v)
                            if v.0 < before && key.is_none() =>
                        {
                            let bucketing = Bucketing {
                                rule: ce.rule,
                                pat: p,
                                slot: t.slot,
                            };
                            let index = (indexes.iter().position(|b| *b == bucketing))
                                .unwrap_or_else(|| {
                                    indexes.push(bucketing);
                                    indexes.len() - 1
                                });
                            key = Some(JoinKey { var: v, index });
                        }
                        _ => {}
                    }
                }
            }
            bound_after.push(bound);
            join_key.push(key);
        }
        let mut tests_at: Vec<Vec<usize>> = vec![Vec::new(); meta.ces.len()];
        for (i, test) in meta.tests.iter().enumerate() {
            let anchor = match test.max_var() {
                None => 0,
                Some(v) => bound_after
                    .iter()
                    .position(|&n| n > v.0)
                    .unwrap_or(meta.ces.len() - 1),
            };
            tests_at[anchor].push(i);
        }
        let targets: Vec<usize> = meta
            .actions
            .iter()
            .map(|action| {
                // The one-join argument (module doc) rests on every action
                // naming one of the match's own members.
                let parulel_core::MetaAction::Redact { ce } = *action;
                debug_assert!((ce as usize) < meta.ces.len(), "redact target out of range");
                ce as usize
            })
            .collect();
        MetaPlan {
            meta: position,
            tests_at,
            join_key,
            targets_bound: targets.iter().max().map_or(0, |&t| t + 1),
            targets,
        }
    }
}

/// The buffers one redaction fills: reused by every redaction on the
/// thread, so they live across cycles without costing memory per engine
/// (a per-engine copy kept O(peak eligible set) alive for every live
/// session of a server).
#[derive(Default)]
struct Scratch {
    /// `by_rule[r]` = positions in the eligible set of object rule `r`'s
    /// instantiations.
    by_rule: Vec<Vec<usize>>,
    /// The hash-join indexes, one per bucketing of the program's plans.
    indexes: Vec<Index>,
    /// Per eligible position: redacted this cycle.
    dead: Vec<bool>,
    /// The join's variable bindings and partial match.
    env: Vec<Value>,
    chosen: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

impl Scratch {
    /// Refills the hash-join indexes of `bucketings` from this cycle's
    /// candidates, each once however many plans probe it. A bucket left
    /// empty by the previous fill is dropped, so an index holds only keys
    /// seen in its last two fills.
    fn index(&mut self, bucketings: &[Bucketing], eligible: &[Instantiation]) {
        if self.indexes.len() < bucketings.len() {
            self.indexes.resize_with(bucketings.len(), Index::default);
        }
        for (b, idx) in bucketings.iter().zip(&mut self.indexes) {
            idx.retain(|_, bucket| {
                let used = !bucket.is_empty();
                bucket.clear();
                used
            });
            for &i in &self.by_rule[b.rule.0 as usize] {
                let v = eligible[i].wmes[b.pat].field(b.slot as usize);
                idx.entry(v.join_key()).or_default().push(i);
            }
        }
    }
}

/// The meta level of one program: one plan per meta-rule that redacts
/// something, kept across cycles (an engine builds a new level when it
/// reloads its program). Each cycle's join refills the thread's scratch
/// buffers in place. None of it is persisted: it is derived from the
/// program and each cycle's eligible set.
pub struct MetaLevel {
    plans: Vec<MetaPlan>,
    /// The distinct bucketings the plans' join keys probe.
    indexes: Vec<Bucketing>,
}

impl MetaLevel {
    /// Plans `program`'s meta-rules that redact something.
    pub fn new(program: &Program) -> Self {
        let mut indexes = Vec::new();
        let plans = (program.metas().iter().enumerate())
            .filter(|(_, meta)| !meta.actions.is_empty())
            .map(|(i, meta)| MetaPlan::new(i, meta, &mut indexes))
            .collect();
        MetaLevel { plans, indexes }
    }

    /// Runs all meta-rules over `eligible` to fixpoint, in one join (see
    /// the module doc). `program` is the one the level was planned from.
    /// Input order is preserved for survivors (callers pass key-sorted
    /// sets, so the output is deterministic).
    pub fn redact(&self, program: &Program, eligible: Vec<Instantiation>) -> RedactOutcome {
        if self.plans.is_empty() || eligible.is_empty() {
            return RedactOutcome {
                surviving: eligible,
                redacted: 0,
                rounds: 0,
            };
        }
        SCRATCH.with_borrow_mut(|scratch| {
            // Index instantiations by rule for candidate enumeration.
            scratch.by_rule.resize_with(program.rules().len(), Vec::new);
            for bucket in &mut scratch.by_rule {
                bucket.clear();
            }
            for (i, inst) in eligible.iter().enumerate() {
                scratch.by_rule[inst.rule.0 as usize].push(i);
            }
            scratch.index(&self.indexes, &eligible);
            scratch.dead.clear();
            scratch.dead.resize(eligible.len(), false);
            for plan in &self.plans {
                let meta = &program.metas()[plan.meta];
                scratch.env.clear();
                scratch.env.resize(meta.num_vars as usize, Value::NIL);
                Join {
                    plan,
                    meta,
                    eligible: &eligible,
                    by_rule: &scratch.by_rule,
                    indexes: &scratch.indexes,
                    env: &mut scratch.env,
                    chosen: &mut scratch.chosen,
                    dead: &mut scratch.dead,
                }
                .dfs(0);
            }
            let mut surviving = Vec::with_capacity(eligible.len());
            let mut redacted = 0;
            for (inst, &dead) in eligible.into_iter().zip(&scratch.dead) {
                if dead {
                    redacted += 1;
                } else {
                    surviving.push(inst);
                }
            }
            RedactOutcome {
                surviving,
                redacted,
                rounds: usize::from(redacted > 0),
            }
        })
    }
}

/// Depth-first enumeration of one meta-rule's matches; every full match
/// marks its redaction targets dead.
struct Join<'a> {
    plan: &'a MetaPlan,
    meta: &'a MetaRule,
    eligible: &'a [Instantiation],
    by_rule: &'a [Vec<usize>],
    indexes: &'a [Index],
    /// Meta variables are bound in CE order and read only after their
    /// bind, so a failed candidate's writes are overwritten before any
    /// read: one env serves the whole walk.
    env: &'a mut [Value],
    chosen: &'a mut Vec<usize>,
    dead: &'a mut [bool],
}

impl Join<'_> {
    /// True once every redaction target of the partial match is bound and
    /// dead: no extension can redact anything new.
    fn settled(&self) -> bool {
        self.chosen.len() >= self.plan.targets_bound
            && self.plan.targets.iter().all(|&t| self.dead[self.chosen[t]])
    }

    fn dfs(&mut self, ce_idx: usize) {
        let (plan, meta) = (self.plan, self.meta);
        if ce_idx == meta.ces.len() {
            for &t in &plan.targets {
                self.dead[self.chosen[t]] = true;
            }
            return;
        }
        let ce = &meta.ces[ce_idx];
        // Probe the hash-join index when the CE has an equality key; fall
        // back to all candidates of the rule. Buckets are re-checked by
        // the full pattern below, so over-approximation is fine.
        let candidates: &[usize] = match &plan.join_key[ce_idx] {
            Some(jk) => self.indexes[jk.index]
                .get(&self.env[jk.var.index()].join_key())
                .map_or(&[], Vec::as_slice),
            None => &self.by_rule[ce.rule.0 as usize],
        };
        for &idx in candidates {
            // Distinct meta CEs bind distinct instantiations.
            if self.chosen.contains(&idx) {
                continue;
            }
            let inst = &self.eligible[idx];
            let env = &mut *self.env;
            let fits = ce
                .pats
                .iter()
                .zip(inst.wmes.iter())
                .all(|(pat, wme)| pat.tests.iter().all(|t| t.check_wme(wme, env)));
            let mut tests = plan.tests_at[ce_idx].iter().map(|&t| &meta.tests[t]);
            if !fits || !tests.all(|t: &TestExpr| t.check(env)) {
                continue;
            }
            self.chosen.push(idx);
            if !self.settled() {
                self.dfs(ce_idx + 1);
            }
            self.chosen.pop();
            if self.settled() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_core::{FxHashSet, InstKey, MetaAction, WorkingMemory};
    use parulel_lang::compile;
    use parulel_match::{Incremental, Matcher};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Compiles, seeds WM via `facts` = (class, fields) rows, returns the
    /// key-sorted eligible set.
    fn eligible(src: &str, facts: &[(&str, Vec<i64>)]) -> (Program, Vec<Instantiation>) {
        let p = compile(src).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        for (class, fields) in facts {
            let cid = p.classes.id_of(p.interner.intern(class)).unwrap();
            wm.insert(
                cid,
                fields.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>(),
            );
        }
        let mut m = Incremental::rete(Arc::new(p.clone()));
        m.seed(&wm);
        (p.clone(), m.conflict_set().sorted())
    }

    /// One cycle's redaction by a freshly planned level.
    fn redact(p: &Program, eligible: Vec<Instantiation>) -> RedactOutcome {
        MetaLevel::new(p).redact(p, eligible)
    }

    const PICK_MIN: &str = "
        (literalize req id prio)
        (p serve (req ^id <i> ^prio <p>) --> (remove 1))
        (mp keep-best
          (inst serve (req ^prio <p1>))
          (inst serve (req ^prio <p2>))
          (test (> <p1> <p2>))
         -->
          (redact 1))";

    #[test]
    fn pairwise_minimum_survives() {
        let (p, el) = eligible(
            PICK_MIN,
            &[
                ("req", vec![1, 30]),
                ("req", vec![2, 10]),
                ("req", vec![3, 20]),
            ],
        );
        assert_eq!(el.len(), 3);
        let out = redact(&p, el);
        assert_eq!(out.surviving.len(), 1);
        assert_eq!(out.redacted, 2);
        // the survivor has prio 10
        assert_eq!(out.surviving[0].wmes[0].field(1), Value::Int(10));
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn mutual_redaction_kills_both() {
        // No tie-break test: equal priorities redact each other.
        let src = "
            (literalize req id prio)
            (p serve (req ^id <i> ^prio <p>) --> (remove 1))
            (mp collide
              (inst serve (req ^prio <p>))
              (inst serve (req ^prio <p>))
             -->
              (redact 1))";
        let (p, el) = eligible(src, &[("req", vec![1, 5]), ("req", vec![2, 5])]);
        let out = redact(&p, el);
        assert_eq!(out.surviving.len(), 0);
        assert_eq!(out.redacted, 2);
    }

    #[test]
    fn no_metas_is_identity() {
        let src = "
            (literalize req id prio)
            (p serve (req ^id <i> ^prio <p>) --> (remove 1))";
        let (p, el) = eligible(src, &[("req", vec![1, 5]), ("req", vec![2, 5])]);
        let n = el.len();
        let out = redact(&p, el);
        assert_eq!(out.surviving.len(), n);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn chained_redactions_settle_in_one_round() {
        // "Redact the larger of any adjacent pair": prios 1, 2, 3 give the
        // chain (2 over 1), (3 over 2). Both redactions land in round 1,
        // and a second round would find nothing: meta CEs are positive and
        // every match redacts one of its own members, so rounds <= 1.
        let src = "
            (literalize req id prio)
            (p serve (req ^id <i> ^prio <p>) --> (remove 1))
            (mp adj
              (inst serve (req ^prio <p1>))
              (inst serve (req ^prio <p2>))
              (test (= <p1> (+ <p2> 1)))
             -->
              (redact 1))";
        let (p, el) = eligible(
            src,
            &[
                ("req", vec![1, 1]),
                ("req", vec![2, 2]),
                ("req", vec![3, 3]),
            ],
        );
        let out = redact(&p, el);
        assert_eq!(out.surviving.len(), 1);
        assert_eq!(out.surviving[0].wmes[0].field(1), Value::Int(1));
        assert_eq!(out.rounds, 1);
    }

    /// The definition: simultaneous rounds to a fixpoint, every meta-rule
    /// joined by brute force over the live set each round, with no
    /// indexes, anchoring or pruning. Returns the surviving keys (sorted),
    /// the redacted count and the redacting rounds.
    fn reference(program: &Program, eligible: &[Instantiation]) -> (Vec<InstKey>, usize, usize) {
        fn join(
            meta: &MetaRule,
            eligible: &[Instantiation],
            alive: &[bool],
            env: &[Value],
            chosen: &mut Vec<usize>,
            out: &mut FxHashSet<usize>,
        ) {
            let k = chosen.len();
            if k == meta.ces.len() {
                if meta.tests.iter().all(|t| t.check(env)) {
                    for action in &meta.actions {
                        let MetaAction::Redact { ce } = *action;
                        out.insert(chosen[ce as usize]);
                    }
                }
                return;
            }
            let ce = &meta.ces[k];
            for (i, inst) in eligible.iter().enumerate() {
                if !alive[i] || inst.rule != ce.rule || chosen.contains(&i) {
                    continue;
                }
                let mut env = env.to_vec();
                let fits = ce
                    .pats
                    .iter()
                    .zip(inst.wmes.iter())
                    .all(|(pat, wme)| pat.tests.iter().all(|t| t.check_wme(wme, &mut env)));
                if fits {
                    chosen.push(i);
                    join(meta, eligible, alive, &env, chosen, out);
                    chosen.pop();
                }
            }
        }
        let mut alive = vec![true; eligible.len()];
        let mut rounds = 0;
        loop {
            let mut to_redact = FxHashSet::default();
            for meta in program.metas() {
                let env = vec![Value::NIL; meta.num_vars as usize];
                join(
                    meta,
                    eligible,
                    &alive,
                    &env,
                    &mut Vec::new(),
                    &mut to_redact,
                );
            }
            if to_redact.is_empty() {
                break;
            }
            for i in to_redact {
                alive[i] = false;
            }
            rounds += 1;
        }
        let mut keys: Vec<InstKey> = (eligible.iter().zip(&alive))
            .filter(|(_, &a)| a)
            .map(|(inst, _)| inst.key())
            .collect();
        keys.sort();
        let redacted = alive.iter().filter(|&&a| !a).count();
        (keys, redacted, rounds)
    }

    /// One generated meta-rule: per CE, which object rule it ranges over
    /// and whether it joins on `^a`; a comparison between the first two
    /// CEs' `^b`; and which CEs it redacts (first, last, or both).
    #[derive(Clone, Debug)]
    struct MetaSpec {
        ces: Vec<(bool, bool)>,
        cmp: u8,
        targets: u8,
    }

    fn meta_spec() -> impl Strategy<Value = MetaSpec> {
        (
            prop::collection::vec((any::<bool>(), any::<bool>()), 2..4),
            0u8..4,
            0u8..3,
        )
            .prop_map(|(ces, cmp, targets)| MetaSpec { ces, cmp, targets })
    }

    fn meta_source(specs: &[MetaSpec]) -> String {
        let mut src = String::from(
            "(literalize req id a b)
             (p serve (req ^id <i> ^a <x> ^b <y>) --> (remove 1))
             (p pair (req ^a <x>) (req ^b <x>) --> (halt))",
        );
        for (m, spec) in specs.iter().enumerate() {
            src += &format!("\n(mp m{m}");
            for (k, &(on_pair, keyed)) in spec.ces.iter().enumerate() {
                let key = if keyed { "^a <k> " } else { "" };
                if on_pair {
                    src += &format!(" (inst pair (req {key}^b <b{k}>))");
                } else {
                    src += &format!(" (inst serve (req {key}^b <b{k}>))");
                }
            }
            if let Some(op) = [None, Some(">"), Some("<"), Some("=")][spec.cmp as usize] {
                src += &format!(" (test ({op} <b0> <b1>))");
            }
            let last = spec.ces.len();
            src += match spec.targets {
                0 => " --> (redact 1))".to_string(),
                1 => format!(" --> (redact {last}))"),
                _ => format!(" --> (redact 1) (redact {last}))"),
            }
            .as_str();
        }
        src
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        #[test]
        fn one_join_matches_the_round_loop(
            specs in prop::collection::vec(meta_spec(), 1..3),
            facts in prop::collection::vec((0i64..3, 0i64..4), 0..9),
        ) {
            let rows: Vec<(&str, Vec<i64>)> = (facts.iter().enumerate())
                .map(|(i, &(a, b))| ("req", vec![i as i64, a, b]))
                .collect();
            let (p, el) = eligible(&meta_source(&specs), &rows);
            // One level serves successive cycles, as in an engine: the
            // full set, a thinned one, then the full set again, so the
            // buffers it keeps are refilled from a different set each
            // time.
            let level = MetaLevel::new(&p);
            let thinned: Vec<Instantiation> = (el.iter().enumerate())
                .filter(|(i, _)| i % 3 != 1)
                .map(|(_, inst)| inst.clone())
                .collect();
            for cycle in [el.clone(), thinned, el] {
                let (want_keys, want_redacted, want_rounds) = reference(&p, &cycle);
                let out = level.redact(&p, cycle);
                let mut got: Vec<InstKey> = out.surviving.iter().map(|i| i.key()).collect();
                got.sort();
                prop_assert_eq!(got, want_keys);
                prop_assert_eq!(out.redacted, want_redacted);
                prop_assert_eq!(out.rounds, want_rounds);
                prop_assert!(out.rounds <= 1);
            }
        }
    }

    #[test]
    fn order_independence_of_simultaneous_rounds() {
        // Shuffle the eligible order; the surviving *set* must not change.
        let (p, el) = eligible(
            PICK_MIN,
            &[
                ("req", vec![1, 7]),
                ("req", vec![2, 3]),
                ("req", vec![3, 9]),
                ("req", vec![4, 3]),
            ],
        );
        let baseline: Vec<_> = {
            let out = redact(&p, el.clone());
            out.surviving.iter().map(|i| i.key()).collect()
        };
        let mut rev = el.clone();
        rev.reverse();
        let mut got: Vec<_> = redact(&p, rev).surviving.iter().map(|i| i.key()).collect();
        got.sort();
        let mut want = baseline.clone();
        want.sort();
        assert_eq!(got, want);
        // Two prio-3 entries: both survive vs the others, neither redacts
        // the other (test is strict >).
        assert_eq!(want.len(), 2);
    }

    #[test]
    fn meta_rules_that_join_on_one_field_share_its_index() {
        // The market workload's meta-rules: four keyed plans, two on
        // (cross, buy, ^id) and two on (cross, sell, ^id).
        let p = compile(
            "(literalize buy id sym price)
             (literalize sell id sym price)
             (p cross (buy ^id <b> ^sym <y> ^price <pb>)
                      (sell ^id <s> ^sym <y> ^price <ps>)
                      (test (>= <pb> <ps>))
               --> (remove 1) (remove 2))
             (mp cheapest-sell-per-buy
               (inst cross (buy ^id <b>) (sell ^price <p1>))
               (inst cross (buy ^id <b>) (sell ^price <p2>))
               (test (> <p1> <p2>)) --> (redact 1))
             (mp cheapest-sell-tie
               (inst cross (buy ^id <b>) (sell ^id <s1> ^price <p1>))
               (inst cross (buy ^id <b>) (sell ^id <s2> ^price <p2>))
               (test (= <p1> <p2>)) (test (> <s1> <s2>)) --> (redact 1))
             (mp best-buy-per-sell
               (inst cross (buy ^price <q1>) (sell ^id <s>))
               (inst cross (buy ^price <q2>) (sell ^id <s>))
               (test (< <q1> <q2>)) --> (redact 1))
             (mp best-buy-tie
               (inst cross (buy ^id <b1> ^price <q1>) (sell ^id <s>))
               (inst cross (buy ^id <b2> ^price <q2>) (sell ^id <s>))
               (test (= <q1> <q2>)) (test (> <b1> <b2>)) --> (redact 1))",
        )
        .unwrap();
        let level = MetaLevel::new(&p);
        let keyed = (level.plans.iter())
            .filter(|plan| plan.join_key.iter().any(Option::is_some))
            .count();
        assert_eq!(keyed, 4);
        let cross = p.rule_by_name(p.interner.intern("cross")).unwrap();
        let on = |pat, slot| Bucketing {
            rule: cross,
            pat,
            slot,
        };
        assert_eq!(level.indexes, [on(0, 0), on(1, 0)]);
    }

    #[test]
    fn wildcard_and_positional_patterns() {
        let src = "
            (literalize a x)
            (literalize b y)
            (p pair (a ^x <u>) (b ^y <v>) --> (remove 1))
            (mp drop-matching
              (inst pair _ (b ^y 2))
             -->
              (redact 1))";
        let (p, el) = eligible(src, &[("a", vec![1]), ("b", vec![2]), ("b", vec![3])]);
        assert_eq!(el.len(), 2);
        let out = redact(&p, el);
        assert_eq!(out.surviving.len(), 1);
        assert_eq!(out.surviving[0].wmes[1].field(0), Value::Int(3));
    }
}
