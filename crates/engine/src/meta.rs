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
//! [`redact`] joins once. Meta CEs are all positive, so a round-2 match is
//! also a round-1 match; and `Redact` always names one of the match's own
//! members, which round 1 therefore already redacted — so no round-2 match
//! is alive. `rounds` is 1 when anything was redacted and 0 otherwise,
//! exactly what the loop would count. The join also stops extending a
//! partial match once every instantiation it would redact is already
//! dead: the result is a set union, so skipping it changes nothing. A
//! brute-force copy of the round loop is the oracle in this module's
//! tests.

use parulel_core::{FxHashMap, Instantiation, MetaRule, Program, RuleId, TestExpr, Value};

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

/// An equality join key for one meta CE: candidate instantiations can be
/// hash-bucketed on `wmes[pat].field(slot)`, probed with `env[var]`.
#[derive(Clone, Copy, Debug)]
struct JoinKey {
    pat: usize,
    slot: u16,
    var: parulel_core::VarId,
}

/// Precomputed evaluation plan for one meta-rule: which tests can run
/// after which CE (earliest point all their variables are bound), and the
/// hash-join key for each CE (the first field equated with a variable
/// bound by an earlier CE). Without the key, pairwise meta-rules over a
/// conflict set of width *n* cost O(n²) per cycle; with it the common
/// "same ^x" patterns cost O(n).
struct MetaPlan<'a> {
    meta: &'a MetaRule,
    /// `tests_at[k]` = tests runnable once CEs `0..=k` are bound.
    tests_at: Vec<Vec<&'a TestExpr>>,
    /// `join_key[k]` = the hash-join key for CE k, if one exists.
    join_key: Vec<Option<JoinKey>>,
    /// The meta CEs the actions redact, and the join depth at which all
    /// of them are bound (one past the last).
    targets: Vec<usize>,
    targets_bound: usize,
}

impl<'a> MetaPlan<'a> {
    fn new(meta: &'a MetaRule) -> Self {
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
                            key = Some(JoinKey {
                                pat: p,
                                slot: t.slot,
                                var: v,
                            });
                        }
                        _ => {}
                    }
                }
            }
            bound_after.push(bound);
            join_key.push(key);
        }
        let mut tests_at: Vec<Vec<&TestExpr>> = vec![Vec::new(); meta.ces.len()];
        for test in &meta.tests {
            let anchor = match test.max_var() {
                None => 0,
                Some(v) => bound_after
                    .iter()
                    .position(|&n| n > v.0)
                    .unwrap_or(meta.ces.len() - 1),
            };
            tests_at[anchor].push(test);
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
            meta,
            tests_at,
            join_key,
            targets_bound: targets.iter().max().map_or(0, |&t| t + 1),
            targets,
        }
    }
}

/// Runs all meta-rules of `program` over `eligible` to fixpoint, in one
/// join (see the module doc). Input order is preserved for survivors
/// (callers pass key-sorted sets, so the output is deterministic).
pub fn redact(program: &Program, eligible: Vec<Instantiation>) -> RedactOutcome {
    if program.metas().is_empty() || eligible.is_empty() {
        return RedactOutcome {
            surviving: eligible,
            redacted: 0,
            rounds: 0,
        };
    }
    // Index instantiations by rule for candidate enumeration.
    let mut by_rule: FxHashMap<RuleId, Vec<usize>> = FxHashMap::default();
    for (i, inst) in eligible.iter().enumerate() {
        by_rule.entry(inst.rule).or_default().push(i);
    }
    let mut dead: Vec<bool> = vec![false; eligible.len()];
    for meta in program.metas() {
        let plan = MetaPlan::new(meta);
        if plan.targets.is_empty() {
            continue; // redacts nothing
        }
        // Hash-join indexes: per keyed CE, bucket the candidates by the
        // key field's value.
        let indexes: Vec<Option<FxHashMap<Value, Vec<usize>>>> = meta
            .ces
            .iter()
            .zip(&plan.join_key)
            .map(|(ce, key)| {
                key.map(|jk| {
                    let mut idx: FxHashMap<Value, Vec<usize>> = FxHashMap::default();
                    for &i in by_rule.get(&ce.rule).into_iter().flatten() {
                        let v = eligible[i].wmes[jk.pat].field(jk.slot as usize);
                        idx.entry(v.join_key()).or_default().push(i);
                    }
                    idx
                })
            })
            .collect();
        Join {
            plan: &plan,
            eligible: &eligible,
            by_rule: &by_rule,
            indexes: &indexes,
            env: vec![Value::NIL; meta.num_vars as usize],
            chosen: Vec::with_capacity(meta.ces.len()),
            dead: &mut dead,
        }
        .dfs(0);
    }
    let mut surviving = Vec::new();
    let mut redacted = 0;
    for (inst, dead) in eligible.into_iter().zip(dead) {
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
}

/// Depth-first enumeration of one meta-rule's matches; every full match
/// marks its redaction targets dead.
struct Join<'a> {
    plan: &'a MetaPlan<'a>,
    eligible: &'a [Instantiation],
    by_rule: &'a FxHashMap<RuleId, Vec<usize>>,
    indexes: &'a [Option<FxHashMap<Value, Vec<usize>>>],
    /// Meta variables are bound in CE order and read only after their
    /// bind, so a failed candidate's writes are overwritten before any
    /// read: one env serves the whole walk.
    env: Vec<Value>,
    chosen: Vec<usize>,
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
        let plan = self.plan;
        if ce_idx == plan.meta.ces.len() {
            for &t in &plan.targets {
                self.dead[self.chosen[t]] = true;
            }
            return;
        }
        let ce = &plan.meta.ces[ce_idx];
        // Probe the hash-join index when the CE has an equality key; fall
        // back to all candidates of the rule. Buckets are re-checked by
        // the full pattern below, so over-approximation is fine.
        let indexes = self.indexes;
        let by_rule = self.by_rule;
        let candidates: &[usize] = match (&indexes[ce_idx], &plan.join_key[ce_idx]) {
            (Some(idx), Some(jk)) => idx.get(&self.env[jk.var.index()].join_key()),
            _ => by_rule.get(&ce.rule),
        }
        .map_or(&[], Vec::as_slice);
        for &idx in candidates {
            // Distinct meta CEs bind distinct instantiations.
            if self.chosen.contains(&idx) {
                continue;
            }
            let inst = &self.eligible[idx];
            let env = &mut self.env;
            let fits = ce
                .pats
                .iter()
                .zip(inst.wmes.iter())
                .all(|(pat, wme)| pat.tests.iter().all(|t| t.check_wme(wme, env)));
            if !fits || !plan.tests_at[ce_idx].iter().all(|t| t.check(env)) {
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
            let (want_keys, want_redacted, want_rounds) = reference(&p, &el);
            let out = redact(&p, el);
            let mut got: Vec<InstKey> = out.surviving.iter().map(|i| i.key()).collect();
            got.sort();
            prop_assert_eq!(got, want_keys);
            prop_assert_eq!(out.redacted, want_redacted);
            prop_assert_eq!(out.rounds, want_rounds);
            prop_assert!(out.rounds <= 1);
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
