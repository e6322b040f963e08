//! Copy-and-constrain: the PARULEL-era program transform for match
//! parallelism.
//!
//! Rule-level partitioning (one rule net per worker) cannot help when a
//! single rule dominates match cost. Copy-and-constrain splits such a rule
//! into `k` copies whose first positive CE carries an extra hash-residue
//! test on one of its binding fields: the copies match *disjoint* slices
//! of working memory whose union is exactly the original rule's matches,
//! so a partitioned matcher can spread one hot rule's join work across
//! `k` workers without changing program semantics.
//!
//! Meta-rules that reference the split rule are expanded over the
//! cartesian product of copy choices, preserving redaction semantics
//! (a meta CE on the original rule must be able to bind any copy).

use parulel_core::ir::{FieldCheck, FieldTest, MetaCe, MetaRule, Polarity, Rule};
use parulel_core::{Program, RuleId, Symbol};
use std::fmt;

/// The largest split factor the transform accepts. A split spreads one
/// rule across match workers, so no useful factor comes near this; the
/// cap stops a hostile snapshot (whose recorded splits are re-applied on
/// restore) from asking for billions of copies.
pub const MAX_FACTOR: u32 = 1024;

/// Errors from the transform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CccError {
    /// The named rule does not exist.
    UnknownRule(String),
    /// `k` must be in `1..=MAX_FACTOR`.
    BadFactor,
    /// The rule's first positive CE has no field to constrain on
    /// (zero-arity class).
    NoSplitField(String),
    /// Rebuilding the transformed program failed — an invariant of the
    /// transform was violated, surfaced as an error instead of a panic.
    Internal(String),
}

impl fmt::Display for CccError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CccError::UnknownRule(r) => write!(f, "copy-and-constrain: unknown rule '{r}'"),
            CccError::BadFactor => write!(f, "copy-and-constrain: factor must be in 1..={MAX_FACTOR}"),
            CccError::NoSplitField(r) => {
                write!(f, "copy-and-constrain: rule '{r}' has no field to split on")
            }
            CccError::Internal(msg) => {
                write!(f, "copy-and-constrain: internal error: {msg}")
            }
        }
    }
}

impl std::error::Error for CccError {}

/// Splits `rule_name` into `k` hash-constrained copies, returning the
/// rewritten program. The split slot is the first slot the first positive
/// CE *binds a variable from* (a field whose values vary, so the hash
/// spreads), falling back to slot 0. The copies sit contiguously where
/// the original rule was, so every later rule's id shifts by `k - 1`.
pub fn copy_and_constrain(program: &Program, rule_name: &str, k: u32) -> Result<Program, CccError> {
    split(program, rule_name, k, k).map(|(out, _)| out)
}

/// [`copy_and_constrain`] with **stable rule ids**: the residue-0 copy
/// replaces the target *in place* (keeping its `RuleId` and, therefore,
/// every later rule's id), and the remaining `k - 1` copies are appended
/// at the end of the program. Returns the rewritten program plus the
/// appended copies' ids.
///
/// This is the variant the *running* engine uses for metrics-driven
/// splitting: because no pre-existing rule id moves, matcher nets for
/// untouched rules, refraction keys, and per-rule metrics all stay valid —
/// only the split rule (and the new copies) need rebuilding.
pub fn copy_and_constrain_appending(
    program: &Program,
    rule_name: &str,
    k: u32,
) -> Result<(Program, Vec<RuleId>), CccError> {
    split(program, rule_name, k, 1)
}

/// The one builder behind both entry points: copies `0..in_place` take
/// the target's position, copies `in_place..k` are appended after every
/// other rule (their ids are returned). Meta-rules that reference the
/// target are expanded over the cartesian product of its copies.
fn split(
    program: &Program,
    rule_name: &str,
    k: u32,
    in_place: u32,
) -> Result<(Program, Vec<RuleId>), CccError> {
    if !(1..=MAX_FACTOR).contains(&k) {
        return Err(CccError::BadFactor);
    }
    let target_id = program
        .interner
        .get(rule_name)
        .and_then(|s| program.rule_by_name(s))
        .ok_or_else(|| CccError::UnknownRule(rule_name.to_string()))?;
    let target = program.rule(target_id);
    let slot =
        split_slot(program, target).ok_or_else(|| CccError::NoSplitField(rule_name.to_string()))?;
    let first_pos = target
        .positive_ce_indices()
        .next()
        .ok_or_else(|| CccError::NoSplitField(rule_name.to_string()))?;

    let mut out = Program::new(program.interner.clone(), program.classes.clone());
    // Original RuleId -> the names of its copies (for meta expansion).
    let mut copies_of: Vec<Vec<Symbol>> = Vec::with_capacity(program.rules().len());
    let add_copy = |out: &mut Program, residue: u32| {
        let mut copy = target.clone();
        copy.name = program.interner.intern(&format!("{rule_name}~{residue}"));
        copy.ces[first_pos].tests.push(FieldTest {
            slot,
            check: FieldCheck::HashMod {
                divisor: k,
                residue,
            },
        });
        let name = copy.name;
        out.add_rule(copy)
            .map(|id| (name, id))
            .map_err(|e| CccError::Internal(e.to_string()))
    };
    for rule in program.rules() {
        if rule.id == target_id {
            let names = (0..in_place)
                .map(|residue| add_copy(&mut out, residue).map(|(name, _)| name))
                .collect::<Result<_, _>>()?;
            copies_of.push(names);
        } else {
            copies_of.push(vec![rule.name]);
            out.add_rule(rule.clone())
                .map_err(|e| CccError::Internal(e.to_string()))?;
        }
    }
    let mut appended = Vec::with_capacity((k - in_place) as usize);
    for residue in in_place..k {
        let (name, id) = add_copy(&mut out, residue)?;
        copies_of[target_id.index()].push(name);
        appended.push(id);
    }

    for meta in program.metas() {
        let choice_lists: Vec<&[Symbol]> = meta
            .ces
            .iter()
            .map(|ce| copies_of[ce.rule.index()].as_slice())
            .collect();
        for (combo_idx, combo) in cartesian(&choice_lists).into_iter().enumerate() {
            let ces: Vec<MetaCe> = meta
                .ces
                .iter()
                .zip(&combo)
                .map(|(ce, name)| {
                    let rule = out.rule_by_name(**name).ok_or_else(|| {
                        CccError::Internal(format!(
                            "copy '{}' missing from rebuilt program",
                            out.interner.resolve(**name)
                        ))
                    })?;
                    Ok(MetaCe {
                        rule,
                        pats: ce.pats.clone(),
                    })
                })
                .collect::<Result<_, CccError>>()?;
            let name = if choice_lists.iter().all(|l| l.len() == 1) {
                meta.name
            } else {
                program.interner.intern(&format!(
                    "{}~{combo_idx}",
                    program.interner.resolve(meta.name)
                ))
            };
            let expanded = MetaRule {
                id: meta.id,
                name,
                ces,
                tests: meta.tests.clone(),
                actions: meta.actions.clone(),
                num_vars: meta.num_vars,
            };
            out.add_meta(expanded)
                .map_err(|e| CccError::Internal(e.to_string()))?;
        }
    }
    Ok((out, appended))
}

/// Picks the slot to constrain: the first `Bind` in the first positive CE,
/// else slot 0 if the class has any fields.
fn split_slot(program: &Program, rule: &Rule) -> Option<u16> {
    let first_pos = rule
        .ces
        .iter()
        .find(|ce| ce.polarity == Polarity::Positive)?;
    for t in &first_pos.tests {
        if matches!(t.check, FieldCheck::Bind(_)) {
            return Some(t.slot);
        }
    }
    (program.classes.decl(first_pos.class).arity() > 0).then_some(0)
}

fn cartesian<'a>(lists: &[&'a [Symbol]]) -> Vec<Vec<&'a Symbol>> {
    let mut combos: Vec<Vec<&Symbol>> = vec![Vec::new()];
    for list in lists {
        let mut next = Vec::with_capacity(combos.len() * list.len());
        for combo in &combos {
            for item in *list {
                let mut c = combo.clone();
                c.push(item);
                next.push(c);
            }
        }
        combos = next;
    }
    combos
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineOptions};
    use parulel_core::{Value, WorkingMemory};
    use parulel_lang::compile;

    const CLOSURE: &str = "
        (literalize edge from to)
        (literalize reach from to)
        (p seed (edge ^from <a> ^to <b>) -(reach ^from <a> ^to <b>)
         --> (make reach ^from <a> ^to <b>))
        (p close (reach ^from <a> ^to <b>) (edge ^from <b> ^to <c>)
                 -(reach ^from <a> ^to <c>)
         --> (make reach ^from <a> ^to <c>))";

    fn closure_wm(p: &Program) -> WorkingMemory {
        let mut wm = WorkingMemory::new(&p.classes);
        let edge = p.classes.id_of(p.interner.intern("edge")).unwrap();
        for (a, b) in [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5)] {
            wm.insert(edge, vec![Value::Int(a), Value::Int(b)]);
        }
        wm
    }

    #[test]
    fn split_preserves_semantics() {
        let p = compile(CLOSURE).unwrap();
        let mut base = Engine::new(&p, closure_wm(&p), EngineOptions::default());
        base.run().unwrap();
        let want = base.wm().canonical_facts();

        for k in [1, 2, 4] {
            let split = copy_and_constrain(&p, "close", k).unwrap();
            assert_eq!(split.rules().len(), 1 + k as usize);
            let mut e = Engine::new(&split, closure_wm(&split), EngineOptions::default());
            e.run().unwrap();
            assert_eq!(e.wm().canonical_facts(), want, "k={k}");
        }
    }

    #[test]
    fn copies_partition_matches_disjointly() {
        let p = compile(CLOSURE).unwrap();
        let split = copy_and_constrain(&p, "seed", 3).unwrap();
        // Run only one cycle: the seeds fired must equal the edge count,
        // i.e. no edge is matched by two copies and none is dropped.
        let mut e = Engine::new(&split, closure_wm(&split), EngineOptions::default());
        e.step().unwrap();
        let reach = split.classes.id_of(split.interner.intern("reach")).unwrap();
        assert_eq!(e.wm().iter_class(reach).count(), 5);
    }

    #[test]
    fn meta_rules_expand_over_copies() {
        let src = "
            (literalize req id prio)
            (p serve (req ^id <i> ^prio <p>) --> (remove 1))
            (mp keep-best
              (inst serve (req ^prio <p1>))
              (inst serve (req ^prio <p2>))
              (test (> <p1> <p2>))
             --> (redact 1))";
        let p = compile(src).unwrap();
        let split = copy_and_constrain(&p, "serve", 2).unwrap();
        assert_eq!(split.rules().len(), 2);
        assert_eq!(split.metas().len(), 4, "2 CEs x 2 copies = 4 expansions");

        // Semantics: still exactly one survivor (the min prio) per cycle.
        let mut wm = WorkingMemory::new(&split.classes);
        let req = split.classes.id_of(split.interner.intern("req")).unwrap();
        for (i, prio) in [(1, 30), (2, 10), (3, 20)] {
            wm.insert(req, vec![Value::Int(i), Value::Int(prio)]);
        }
        let mut e = Engine::new(&split, wm, EngineOptions::default());
        let out = e.run().unwrap();
        assert_eq!(out.cycles, 3, "min-prio serialization survives the split");
    }

    #[test]
    fn appending_variant_keeps_ids_stable_and_semantics() {
        let p = compile(CLOSURE).unwrap();
        let seed_id = p.rule_by_name(p.interner.get("seed").unwrap()).unwrap();
        let close_id = p.rule_by_name(p.interner.get("close").unwrap()).unwrap();

        let (split, appended) = copy_and_constrain_appending(&p, "seed", 3).unwrap();
        assert_eq!(split.rules().len(), 4);
        assert_eq!(appended.len(), 2);
        // Copy 0 reuses the target's id; `close` keeps its id; the extra
        // copies land after every pre-existing rule.
        assert_eq!(&*split.interner.resolve(split.rule(seed_id).name), "seed~0");
        assert_eq!(split.rule(close_id).name, p.rule(close_id).name);
        for (i, id) in appended.iter().enumerate() {
            assert_eq!(id.index(), p.rules().len() + i);
            assert_eq!(
                &*split.interner.resolve(split.rule(*id).name),
                format!("seed~{}", i + 1)
            );
        }

        // Same fixpoint as the id-shifting variant.
        let mut base = Engine::new(&p, closure_wm(&p), EngineOptions::default());
        base.run().unwrap();
        let mut e = Engine::new(&split, closure_wm(&split), EngineOptions::default());
        e.run().unwrap();
        assert_eq!(e.wm().canonical_facts(), base.wm().canonical_facts());
    }

    #[test]
    fn appending_variant_expands_metas() {
        let src = "
            (literalize req id prio)
            (p serve (req ^id <i> ^prio <p>) --> (remove 1))
            (mp keep-best
              (inst serve (req ^prio <p1>))
              (inst serve (req ^prio <p2>))
              (test (> <p1> <p2>))
             --> (redact 1))";
        let p = compile(src).unwrap();
        let (split, appended) = copy_and_constrain_appending(&p, "serve", 2).unwrap();
        assert_eq!(split.rules().len(), 2);
        assert_eq!(appended.len(), 1);
        assert_eq!(split.metas().len(), 4, "2 CEs x 2 copies = 4 expansions");
    }

    #[test]
    fn auto_ccc_splits_preserving_semantics_and_determinism() {
        use crate::{AutoCcc, MatcherKind};
        let p = compile(CLOSURE).unwrap();
        let mut base = Engine::new(&p, closure_wm(&p), EngineOptions::default());
        base.run().unwrap();
        let want = base.wm().canonical_facts();

        let run = || {
            let opts = EngineOptions {
                matcher: MatcherKind::PartitionedRete(2),
                auto_ccc: Some(AutoCcc {
                    after_cycles: 1,
                    min_imbalance: 1.0, // always split: pins the mechanism, not the heuristic
                    factor: 2,
                }),
                ..EngineOptions::default()
            };
            let mut e = Engine::new(&p, closure_wm(&p), opts);
            let out = e.run().unwrap();
            (
                out.cycles,
                out.firings,
                e.log().to_vec(),
                e.wm().canonical_facts(),
            )
        };
        let a = run();
        assert_eq!(a.3, want, "split run reaches the same fixpoint");
        assert!(
            a.2.iter().any(|l| l.starts_with("auto-ccc: split rule")),
            "split must be logged: {:?}",
            a.2
        );
        let b = run();
        assert_eq!(a, b, "auto-ccc runs are bit-identically reproducible");
    }

    #[test]
    fn post_split_checkpoint_resumes_bit_identically() {
        use crate::{AutoCcc, MatcherKind, RunStats, Snapshot};
        // No negative CEs: fired instantiations stay in the conflict set,
        // so the refraction table keeps their keys — after the split those
        // keys name the `~k` copies, the exact binding that used to fail
        // on resume with `UnknownRule`.
        let src = "
            (literalize edge from to)
            (literalize reach from to)
            (p mark (edge ^from <a> ^to <b>) --> (make reach ^from <a> ^to <b>))
            (p close (reach ^from <a> ^to <b>) (reach ^from <b> ^to <c>)
             --> (make reach ^from <a> ^to <c>))";
        let p = compile(src).unwrap();
        let opts = || EngineOptions {
            matcher: MatcherKind::PartitionedRete(2),
            auto_ccc: Some(AutoCcc {
                after_cycles: 1,
                min_imbalance: 1.0,
                factor: 2,
            }),
            ..EngineOptions::default()
        };
        // The uninterrupted reference run.
        let mut full = Engine::new(&p, closure_wm(&p), opts());
        full.run().unwrap();

        // Stop mid-run, after the split has been applied.
        let mut part = Engine::new(&p, closure_wm(&p), opts());
        for _ in 0..3 {
            part.step().unwrap();
        }
        assert!(
            part.log().iter().any(|l| l.starts_with("auto-ccc: split rule")),
            "split must have happened before the capture: {:?}",
            part.log()
        );
        let snap = Snapshot::from_bytes(&part.checkpoint().to_bytes()).unwrap();
        assert_eq!(snap.splits.len(), 1, "one split recorded: {:?}", snap.splits);
        assert!(
            snap.refraction.iter().any(|k| k.rule.contains('~')),
            "post-split refraction names the copies: {:?}",
            snap.refraction.iter().map(|k| &k.rule).collect::<Vec<_>>()
        );

        // Resume against the ORIGINAL program: the recorded split is
        // re-applied before the `name~k` refraction keys are bound, and
        // the continuation must not split again.
        let mut resumed = Engine::resume(&p, &snap, opts()).unwrap();
        assert_eq!(resumed.program().rules().len(), 3, "split re-applied");
        resumed.run().unwrap();
        assert!(
            resumed.log().iter().filter(|l| l.starts_with("auto-ccc: split rule")).count() == 1,
            "the captured split is the only one: {:?}",
            resumed.log()
        );
        assert_eq!(resumed.wm().canonical_facts(), full.wm().canonical_facts());
        let counters = |s: &RunStats| {
            (
                s.cycles,
                s.firings,
                s.adds,
                s.removes,
                s.peak_eligible,
                s.total_eligible,
            )
        };
        // Counters are bit-identical; phase times are wall-clock and are
        // deliberately not compared.
        assert_eq!(counters(resumed.stats()), counters(full.stats()));
        assert_eq!(resumed.log(), full.log());
        // A re-checkpoint of the continuation still records the split.
        assert_eq!(resumed.checkpoint().splits, snap.splits);

        // Restoring onto an engine whose program is ALREADY split (the
        // serve rewind path) skips the re-application instead of
        // double-splitting.
        let mut rewound = Engine::resume(&p, &snap, opts()).unwrap();
        rewound.restore(&snap).unwrap();
        assert_eq!(rewound.program().rules().len(), 3);
        rewound.run().unwrap();
        assert_eq!(rewound.wm().canonical_facts(), full.wm().canonical_facts());
    }

    #[test]
    fn auto_ccc_is_inert_for_monolithic_matchers() {
        use crate::AutoCcc;
        let p = compile(CLOSURE).unwrap();
        let opts = EngineOptions {
            auto_ccc: Some(AutoCcc {
                after_cycles: 0,
                min_imbalance: 1.0,
                factor: 4,
            }),
            ..EngineOptions::default()
        };
        let mut e = Engine::new(&p, closure_wm(&p), opts);
        e.run().unwrap();
        assert!(e.log().iter().all(|l| !l.starts_with("auto-ccc")));
        assert_eq!(e.program().rules().len(), 2, "program untouched");
    }

    #[test]
    fn errors() {
        let p = compile(CLOSURE).unwrap();
        assert_eq!(
            copy_and_constrain(&p, "ghost", 2).unwrap_err(),
            CccError::UnknownRule("ghost".into())
        );
        assert_eq!(
            copy_and_constrain(&p, "close", 0).unwrap_err(),
            CccError::BadFactor
        );
        assert_eq!(
            copy_and_constrain(&p, "close", MAX_FACTOR + 1).unwrap_err(),
            CccError::BadFactor
        );
        assert!(copy_and_constrain(&p, "close", MAX_FACTOR).is_ok());
    }
}
