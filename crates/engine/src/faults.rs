//! Deterministic fault injection (compiled only with the `fault-inject`
//! feature).
//!
//! The robustness layer — panic isolation, budget guards, checkpoints —
//! is only trustworthy if the failure paths are *exercised*. This module
//! lets tests inject three classes of fault at exact cycles:
//!
//! * **RHS panic** — a chosen rule's RHS panics on a chosen cycle,
//!   exercising the [`crate::fire::isolate`] `catch_unwind` boundary from
//!   inside a real fire phase.
//! * **RHS eval error** — the same, but yielding a structured
//!   [`EngineError::RhsEval`] instead of a panic.
//! * **Matcher corruption** — a phantom duplicate WME is fed to the
//!   incremental matcher (and *only* the matcher: working memory is
//!   untouched), desynchronizing its conflict set from ground truth. The
//!   optional audit recomputes the conflict set with the naive oracle
//!   each cycle and reports divergence as
//!   [`EngineError::MatcherCorrupt`].
//!
//! Everything is keyed on `(cycle, rule-name)` so runs are reproducible;
//! there is no randomness.

use crate::fire::EngineError;
use parulel_core::expr::EvalError;
use parulel_core::{ConflictSet, Program, Wme, WmeId, WorkingMemory};
use parulel_match::{Matcher, NaiveMatcher};
use std::sync::Arc;

/// A `(cycle, rule)` coordinate for an injected fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPoint {
    /// 1-based cycle the fault fires on.
    pub cycle: u64,
    /// Name of the rule whose firing is sabotaged.
    pub rule: String,
}

impl FaultPoint {
    /// A fault at `cycle` targeting `rule`.
    pub fn new(cycle: u64, rule: impl Into<String>) -> Self {
        FaultPoint {
            cycle,
            rule: rule.into(),
        }
    }

    fn hits(&self, cycle: u64, rule: &str) -> bool {
        self.cycle == cycle && self.rule == rule
    }
}

/// The deterministic fault schedule for one run. Default: no faults.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic inside the targeted rule's RHS evaluation.
    pub rhs_panic: Option<FaultPoint>,
    /// Fail the targeted rule's RHS with an eval error.
    pub rhs_error: Option<FaultPoint>,
    /// At this cycle, feed the matcher a phantom duplicate of a live WME
    /// (working memory stays correct — only the matcher is corrupted).
    pub corrupt_matcher_at: Option<u64>,
    /// Cross-check the incremental matcher's conflict set against the
    /// naive recompute-from-scratch oracle every cycle.
    pub audit_matcher: bool,
}

impl FaultPlan {
    /// No faults, no audit.
    pub fn none() -> Self {
        Self::default()
    }

    /// True iff the plan does nothing.
    pub fn is_none(&self) -> bool {
        *self == Self::default()
    }

    /// Called from inside the isolated RHS evaluation of `rule` on
    /// `cycle`; panics or errors if a fault is scheduled here.
    pub fn maybe_fail_rhs(&self, cycle: u64, rule: &str) -> Result<(), EngineError> {
        if let Some(p) = &self.rhs_panic {
            if p.hits(cycle, rule) {
                panic!("injected RHS panic in rule '{rule}' at cycle {cycle}");
            }
        }
        if let Some(p) = &self.rhs_error {
            if p.hits(cycle, rule) {
                return Err(EngineError::RhsEval {
                    rule: rule.to_string(),
                    error: EvalError::DivideByZero,
                });
            }
        }
        Ok(())
    }

    /// If corruption is scheduled for `cycle`, feeds the matcher a
    /// phantom duplicate (id `u64::MAX`) of the lowest-id live WME. The
    /// duplicate shares class and fields with a real WME, so it spawns
    /// spurious instantiations the oracle will not have.
    pub fn maybe_corrupt_matcher(&self, cycle: u64, wm: &WorkingMemory, matcher: &mut dyn Matcher) {
        if self.corrupt_matcher_at != Some(cycle) {
            return;
        }
        let Some(victim) = wm.iter().min_by_key(|w| w.id) else {
            return;
        };
        let phantom = Wme::new(WmeId(u64::MAX), victim.class, victim.fields.clone());
        matcher.add_wme(&phantom);
    }

    /// If auditing is on, recomputes the conflict set from scratch with
    /// the naive oracle and compares against `cs`.
    pub fn audit(
        &self,
        cycle: u64,
        program: &Arc<Program>,
        wm: &WorkingMemory,
        cs: &ConflictSet,
    ) -> Result<(), EngineError> {
        if !self.audit_matcher {
            return Ok(());
        }
        let mut oracle = NaiveMatcher::new(program.clone());
        oracle.seed(wm);
        let want = oracle.conflict_set().sorted_keys();
        let got = cs.sorted_keys();
        if want == got {
            return Ok(());
        }
        let spurious = got.iter().find(|k| !want.contains(k));
        let missing = want.iter().find(|k| !got.contains(k));
        let describe = |k: &parulel_core::InstKey| {
            let ids: Vec<String> = k.wmes.iter().map(|id| id.0.to_string()).collect();
            format!("{}({})", program.rule_name(k.rule), ids.join(","))
        };
        let mut detail = format!(
            "incremental matcher has {} instantiations, oracle has {}",
            got.len(),
            want.len()
        );
        if let Some(k) = spurious {
            detail.push_str(&format!("; spurious: {}", describe(k)));
        }
        if let Some(k) = missing {
            detail.push_str(&format!("; missing: {}", describe(k)));
        }
        Err(EngineError::MatcherCorrupt { cycle, detail })
    }
}

/// Deterministic WAL I/O faults for the server's durability layer.
///
/// Coordinates are 1-based counters, not cycles: `torn_write_at = Some(n)`
/// tears the `n`-th record *appended through one log handle* (only a
/// prefix of its bytes reaches the file, exactly as if the process died
/// mid-`write`); `short_read_at = Some(n)` makes the scanner see only a
/// prefix of the `n`-th record's body on replay (a short read off a
/// damaged disk). Both must surface as a CRC failure that truncates the
/// tail — never as replayed garbage — which is exactly what the
/// durability tests assert.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalFaults {
    /// Tear the n-th appended record (1-based), writing only half its
    /// bytes.
    pub torn_write_at: Option<u64>,
    /// Feed the scanner only half of the n-th record's body (1-based).
    pub short_read_at: Option<u64>,
}

impl WalFaults {
    /// No faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// How many of `len` bytes of append number `append` actually reach
    /// the file.
    pub fn torn_write_len(&self, append: u64, len: usize) -> usize {
        if self.torn_write_at == Some(append) {
            len / 2
        } else {
            len
        }
    }

    /// How many of `len` body bytes of record number `record` the
    /// scanner gets to see.
    pub fn short_read_len(&self, record: u64, len: usize) -> usize {
        if self.short_read_at == Some(record) {
            len / 2
        } else {
            len
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_lang::compile;
    use parulel_match::Incremental;

    fn setup() -> (Arc<Program>, WorkingMemory) {
        let p = compile(
            "(literalize cell v)
             (p bump (cell ^v 0) --> (modify 1 ^v 1))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let cell = p.classes.id_of(p.interner.intern("cell")).unwrap();
        wm.insert(cell, vec![parulel_core::Value::Int(0)]);
        (Arc::new(p), wm)
    }

    #[test]
    fn rhs_faults_hit_only_their_coordinates() {
        let plan = FaultPlan {
            rhs_error: Some(FaultPoint::new(3, "bump")),
            ..FaultPlan::none()
        };
        assert!(!plan.is_none());
        assert!(plan.maybe_fail_rhs(2, "bump").is_ok());
        assert!(plan.maybe_fail_rhs(3, "other").is_ok());
        let err = plan.maybe_fail_rhs(3, "bump").unwrap_err();
        assert!(matches!(err, EngineError::RhsEval { .. }));
    }

    #[test]
    fn injected_panic_panics() {
        let plan = FaultPlan {
            rhs_panic: Some(FaultPoint::new(1, "bump")),
            ..FaultPlan::none()
        };
        let caught = std::panic::catch_unwind(|| plan.maybe_fail_rhs(1, "bump"));
        assert!(caught.is_err());
    }

    #[test]
    fn audit_passes_on_healthy_matcher_and_catches_corruption() {
        let (p, wm) = setup();
        let mut m = Incremental::rete(p.clone());
        m.seed(&wm);
        let plan = FaultPlan {
            corrupt_matcher_at: Some(2),
            audit_matcher: true,
            ..FaultPlan::none()
        };
        assert!(plan.audit(1, &p, &wm, m.conflict_set()).is_ok());

        // Corruption scheduled for cycle 2 only.
        plan.maybe_corrupt_matcher(1, &wm, &mut m);
        assert!(plan.audit(1, &p, &wm, m.conflict_set()).is_ok());
        plan.maybe_corrupt_matcher(2, &wm, &mut m);
        let err = plan.audit(2, &p, &wm, m.conflict_set()).unwrap_err();
        match err {
            EngineError::MatcherCorrupt { cycle, detail } => {
                assert_eq!(cycle, 2);
                assert!(detail.contains("spurious: bump"), "{detail}");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn audit_off_never_checks() {
        let (p, wm) = setup();
        let mut m = Incremental::rete(p.clone());
        // Unseeded matcher diverges from WM, but audit is off.
        assert!(FaultPlan::none().audit(1, &p, &wm, m.conflict_set()).is_ok());
    }
}
