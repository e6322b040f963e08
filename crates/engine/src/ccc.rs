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
use parulel_core::{Program, Symbol};
use std::fmt;

/// The largest split factor the transform accepts. A split spreads one
/// rule across match workers, so no useful factor comes near this; the
/// cap is input validation, refusing a caller that asks for billions of
/// copies before any are built.
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
/// Meta-rules that reference the target are expanded over the cartesian
/// product of its copies.
pub fn copy_and_constrain(program: &Program, rule_name: &str, k: u32) -> Result<Program, CccError> {
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
    for rule in program.rules() {
        if rule.id != target_id {
            copies_of.push(vec![rule.name]);
            out.add_rule(rule.clone())
                .map_err(|e| CccError::Internal(e.to_string()))?;
            continue;
        }
        let mut names = Vec::with_capacity(k as usize);
        for residue in 0..k {
            let mut copy = target.clone();
            copy.name = program.interner.intern(&format!("{rule_name}~{residue}"));
            copy.ces[first_pos].tests.push(FieldTest {
                slot,
                check: FieldCheck::HashMod {
                    divisor: k,
                    residue,
                },
            });
            names.push(copy.name);
            out.add_rule(copy)
                .map_err(|e| CccError::Internal(e.to_string()))?;
        }
        copies_of.push(names);
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
    Ok(out)
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
