//! Per-run resource budgets: wall-clock, working-memory size, conflict-set
//! width, and per-cycle delta size.
//!
//! PARULEL programs are ordinary programs — they loop, they blow up
//! combinatorially, they generate unbounded working memories. An embedding
//! application needs the engine to fail *predictably* when that happens:
//! at a cycle boundary, with a structured [`EngineError`] naming the cycle
//! and the offending rules, and with a checkpoint of the last consistent
//! state available for inspection or resume.
//!
//! All checks happen at cycle boundaries, where engine state is
//! consistent: the conflict-set check before anything fires, the delta
//! check after RHS evaluation but before the delta is applied, and the
//! working-memory check after the cycle commits. A trip therefore never
//! leaves working memory, the matcher, and the refraction table out of
//! sync with each other.

use crate::fire::EngineError;
use parulel_core::{ConflictSet, FxHashMap, Instantiation, Program, RuleId};
use std::time::{Duration, Instant};

/// How many offending rules a budget error names.
const MAX_NAMED_RULES: usize = 3;

/// Resource budgets for one run. `None` everywhere (the default) means
/// unlimited — zero overhead beyond a few branch checks per cycle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Budgets {
    /// Wall-clock budget for one [`run`](crate::Engine::run)
    /// call, checked before each cycle starts.
    pub timeout: Option<Duration>,
    /// Maximum live WMEs after a cycle commits.
    pub max_wm: Option<usize>,
    /// Maximum conflict-set width at a cycle start.
    pub max_conflict_set: Option<usize>,
    /// Maximum changes (adds + removes) in one cycle's merged delta.
    pub max_delta: Option<usize>,
}

impl Budgets {
    /// No limits.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// True iff every budget is disabled.
    pub fn is_unlimited(&self) -> bool {
        *self == Self::default()
    }

    /// Checks the wall-clock budget at the boundary before `cycle`.
    pub fn check_deadline(&self, cycle: u64, started: Instant) -> Result<(), EngineError> {
        let Some(budget) = self.timeout else {
            return Ok(());
        };
        let elapsed = started.elapsed();
        if elapsed > budget {
            return Err(EngineError::Timeout {
                cycle,
                elapsed,
                budget,
            });
        }
        Ok(())
    }

    /// Checks conflict-set width at the start of `cycle`. On a trip the
    /// error names the rules with the most instantiations.
    pub fn check_conflict_set(
        &self,
        cycle: u64,
        cs: &ConflictSet,
        program: &Program,
    ) -> Result<(), EngineError> {
        let Some(budget) = self.max_conflict_set else {
            return Ok(());
        };
        let width = cs.len();
        if width > budget {
            let counts = rule_counts(cs.iter().map(|inst| (inst.rule, 1usize)));
            return Err(EngineError::ConflictSetBudget {
                cycle,
                width,
                budget,
                rules: worst_rules(counts, program),
            });
        }
        Ok(())
    }

    /// Checks the cycle's total delta size, *before* the delta is
    /// applied. Firing `i` of `fired` contributed `changes[i]` adds +
    /// removes (counted before removes are deduplicated), so a trip can
    /// attribute changes to rules.
    pub fn check_delta(
        &self,
        cycle: u64,
        changes: &[usize],
        fired: &[Instantiation],
        program: &Program,
    ) -> Result<(), EngineError> {
        let Some(budget) = self.max_delta else {
            return Ok(());
        };
        let size: usize = changes.iter().sum();
        if size > budget {
            let counts = rule_counts(
                fired
                    .iter()
                    .map(|inst| inst.rule)
                    .zip(changes.iter().copied()),
            );
            return Err(EngineError::DeltaBudget {
                cycle,
                size,
                budget,
                rules: worst_rules(counts, program),
            });
        }
        Ok(())
    }

    /// Checks working-memory size after `cycle` committed.
    pub fn check_wm(&self, cycle: u64, wm_len: usize) -> Result<(), EngineError> {
        let Some(budget) = self.max_wm else {
            return Ok(());
        };
        if wm_len > budget {
            return Err(EngineError::WmBudget {
                cycle,
                size: wm_len,
                budget,
            });
        }
        Ok(())
    }
}

fn rule_counts(items: impl Iterator<Item = (RuleId, usize)>) -> FxHashMap<RuleId, usize> {
    let mut counts: FxHashMap<RuleId, usize> = FxHashMap::default();
    for (rule, n) in items {
        *counts.entry(rule).or_default() += n;
    }
    counts
}

/// The worst offenders, by descending count then name (deterministic),
/// truncated to [`MAX_NAMED_RULES`].
fn worst_rules(counts: FxHashMap<RuleId, usize>, program: &Program) -> Vec<String> {
    let mut rules: Vec<(usize, String)> = counts
        .into_iter()
        .map(|(rule, n)| (n, program.rule_name(rule)))
        .collect();
    rules.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    rules.truncate(MAX_NAMED_RULES);
    rules.into_iter().map(|(_, name)| name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_core::{ClassId, Value, Wme, WmeId};
    use parulel_lang::compile;
    use std::sync::Arc;

    fn program_with_rules(n: usize) -> Program {
        let mut src = String::from("(literalize n v)\n");
        for i in 0..n {
            src.push_str(&format!("(p rule{i} (n ^v {i}) --> (remove 1))\n"));
        }
        compile(&src).unwrap()
    }

    fn inst(rule: u32, wme_id: u64) -> Instantiation {
        Instantiation::new(
            RuleId(rule),
            vec![Wme::new(WmeId(wme_id), ClassId(0), vec![Value::Int(0)])],
            vec![],
        )
    }

    #[test]
    fn unlimited_budgets_never_trip() {
        let b = Budgets::unlimited();
        assert!(b.is_unlimited());
        let p = program_with_rules(1);
        let mut cs = ConflictSet::new();
        for i in 0..100 {
            cs.insert(inst(0, i));
        }
        assert!(b.check_deadline(1, Instant::now()).is_ok());
        assert!(b.check_conflict_set(1, &cs, &p).is_ok());
        assert!(b.check_wm(1, usize::MAX).is_ok());
        assert!(b.check_delta(1, &[], &[], &p).is_ok());
    }

    #[test]
    fn conflict_set_trip_names_worst_rules_in_order() {
        let p = program_with_rules(3);
        let b = Budgets {
            max_conflict_set: Some(5),
            ..Budgets::unlimited()
        };
        let mut cs = ConflictSet::new();
        let mut next = 0;
        for (rule, count) in [(0u32, 1usize), (1, 4), (2, 2)] {
            for _ in 0..count {
                cs.insert(inst(rule, next));
                next += 1;
            }
        }
        let err = b.check_conflict_set(7, &cs, &p).unwrap_err();
        match err {
            EngineError::ConflictSetBudget {
                cycle,
                width,
                budget,
                rules,
            } => {
                assert_eq!((cycle, width, budget), (7, 7, 5));
                assert_eq!(rules, vec!["rule1", "rule2", "rule0"]);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn delta_trip_attributes_changes_to_rules() {
        let p = program_with_rules(2);
        let b = Budgets {
            max_delta: Some(3),
            ..Budgets::unlimited()
        };
        let fired = vec![inst(0, 1), inst(1, 2)];
        let err = b.check_delta(3, &[1, 4], &fired, &p).unwrap_err();
        match err {
            EngineError::DeltaBudget {
                cycle,
                size,
                budget,
                rules,
            } => {
                assert_eq!((cycle, size, budget), (3, 5, 3));
                assert_eq!(rules, vec!["rule1", "rule0"]);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // under budget: fine
        assert!(b.check_delta(3, &[3], &[inst(0, 1)], &p).is_ok());
    }

    #[test]
    fn wm_and_deadline_trip_with_cycle_numbers() {
        let b = Budgets {
            max_wm: Some(10),
            timeout: Some(Duration::ZERO),
            ..Budgets::unlimited()
        };
        assert!(!b.is_unlimited());
        match b.check_wm(9, 11).unwrap_err() {
            EngineError::WmBudget {
                cycle,
                size,
                budget,
            } => assert_eq!((cycle, size, budget), (9, 11, 10)),
            other => panic!("wrong variant: {other:?}"),
        }
        let started = Instant::now() - Duration::from_millis(5);
        match b.check_deadline(4, started).unwrap_err() {
            EngineError::Timeout { cycle, budget, .. } => {
                assert_eq!((cycle, budget), (4, Duration::ZERO));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn errors_render_cycle_and_rules() {
        let e = EngineError::ConflictSetBudget {
            cycle: 12,
            width: 100,
            budget: 50,
            rules: vec!["hot".into()],
        };
        let s = e.to_string();
        assert!(s.contains("cycle 12") && s.contains("hot"), "{s}");
        let e = EngineError::RhsPanic {
            rule: "boom".into(),
            payload: "index out of bounds".into(),
        };
        let s = e.to_string();
        assert!(s.contains("boom") && s.contains("index out of bounds"), "{s}");
        // compile-check: Arc<Program> is what the engine holds
        let _: Arc<Program> = Arc::new(program_with_rules(1));
    }
}
