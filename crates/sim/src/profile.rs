//! Extracting per-cycle work profiles from a real engine run.

use parulel_core::{Program, WorkingMemory};
use parulel_engine::{Engine, EngineError, EngineOptions, TraceEvent};

/// The work one PARULEL cycle performed, in abstract operations.
///
/// Match work is attributed per rule (the unit of distribution on the
/// simulated machine): each rule pays one delta-scan op per changed WME
/// (alpha filtering is per-net on a broadcast machine) plus a join op per
/// instantiation of that rule that entered the conflict set this cycle.
#[derive(Clone, Debug)]
pub struct CycleProfile {
    /// WM changes applied at the start of this cycle (previous cycle's
    /// merged delta; the initial seed for cycle 1).
    pub delta: u64,
    /// Match operations attributed to each rule (indexed by `RuleId`).
    pub match_ops_per_rule: Vec<u64>,
    /// Instantiations shipped to the control processor.
    pub gathered: u64,
    /// Redaction work at the control processor (meta matching ops).
    pub redact_ops: u64,
    /// Instantiations fired (RHS evaluations, distributed per rule).
    pub fire_ops_per_rule: Vec<u64>,
}

impl CycleProfile {
    /// Total fire ops across rules.
    pub fn fire_ops(&self) -> u64 {
        self.fire_ops_per_rule.iter().sum()
    }
}

/// Runs `program` on the real engine, with a trace ring sized to the
/// whole run, and derives one [`CycleProfile`] per cycle event (one per
/// cycle that fired).
///
/// Attribution model:
/// * every rule scans the whole broadcast delta: `delta` ops each;
/// * a rule that fired `n` instantiations this cycle did at least `n`
///   join completions: `JOIN_WEIGHT * n` ops (fired counts are the
///   observable per-rule signal the engine exposes; redacted
///   instantiations are charged to the rule via the eligible surplus,
///   spread proportionally);
/// * redaction costs `eligible * rounds` control-processor ops;
/// * every fired instantiation is one fire op on its owning rule's PE.
pub fn profile_run(
    program: &Program,
    wm: WorkingMemory,
    opts: EngineOptions,
) -> Result<Vec<CycleProfile>, EngineError> {
    // The ring grows as it fills, so an unbounded one costs only the
    // events the run records.
    let opts = EngineOptions {
        trace_events: Some(usize::MAX),
        ..opts
    };
    let initial_delta = wm.len() as u64;
    let mut engine = Engine::new(program, wm, opts);
    engine.run()?;
    let ring = engine.trace_events().expect("the ring is on");
    assert_eq!(ring.dropped(), 0, "the ring covers the whole run");
    let num_rules = program.rules().len();

    let mut profiles = Vec::new();
    let mut prev_delta = initial_delta;
    for event in ring.events() {
        let TraceEvent::Cycle {
            eligible,
            redacted_meta,
            adds,
            removes,
            fired,
            ..
        } = event
        else {
            continue;
        };
        let mut match_ops_per_rule = vec![prev_delta; num_rules];
        let mut fire_ops_per_rule = vec![0u64; num_rules];
        let fired_total: u64 = fired.iter().map(|&(_, n)| u64::from(n)).sum();
        for &(name, n) in fired.iter() {
            let rid = program.rule_by_name(name).expect("traced rule exists");
            const JOIN_WEIGHT: u64 = 4;
            // Joins for fired insts, plus this rule's proportional share
            // of the redacted surplus (eligible - fired).
            let surplus = u64::from(*eligible).saturating_sub(fired_total);
            let share = (surplus * u64::from(n))
                .checked_div(fired_total)
                .unwrap_or(0);
            match_ops_per_rule[rid.index()] += JOIN_WEIGHT * (u64::from(n) + share);
            fire_ops_per_rule[rid.index()] += u64::from(n);
        }
        let redact_rounds = 1 + u64::from(*redacted_meta).min(4);
        profiles.push(CycleProfile {
            delta: prev_delta,
            match_ops_per_rule,
            gathered: u64::from(*eligible),
            redact_ops: u64::from(*eligible) * redact_rounds,
            fire_ops_per_rule,
        });
        prev_delta = u64::from(*adds) + u64::from(*removes);
    }
    Ok(profiles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_core::Value;

    fn counter() -> (Program, WorkingMemory) {
        let p = parulel_lang::compile(
            "(literalize count n)
             (p step (count ^n <n>) (test (< <n> 4)) --> (modify 1 ^n (+ <n> 1)))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let c = p.classes.id_of(p.interner.intern("count")).unwrap();
        wm.insert(c, vec![Value::Int(0)]);
        (p, wm)
    }

    #[test]
    fn one_profile_per_cycle() {
        let (p, wm) = counter();
        let profiles = profile_run(&p, wm, EngineOptions::default()).unwrap();
        assert_eq!(profiles.len(), 4);
        // every cycle fires exactly one instantiation of rule 0
        for prof in &profiles {
            assert_eq!(prof.fire_ops(), 1);
            assert_eq!(prof.fire_ops_per_rule[0], 1);
            assert!(prof.match_ops_per_rule[0] > 0);
        }
        // cycle 1's delta is the seed (1 wme); later cycles see the
        // modify's remove+add (2 changes)
        assert_eq!(profiles[0].delta, 1);
        assert_eq!(profiles[1].delta, 2);
    }

    #[test]
    fn match_work_lands_on_the_firing_rule() {
        let p = parulel_lang::compile(
            "(literalize a x)
             (literalize b x)
             (p ra (a ^x <v>) --> (remove 1))
             (p rb (b ^x <v>) --> (remove 1))",
        )
        .unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let a = p.classes.id_of(p.interner.intern("a")).unwrap();
        for i in 0..6 {
            wm.insert(a, vec![Value::Int(i)]);
        }
        let profiles = profile_run(&p, wm, EngineOptions::default()).unwrap();
        assert_eq!(profiles.len(), 1);
        let prof = &profiles[0];
        // both rules scan the delta, but only ra has join+fire work
        assert!(prof.match_ops_per_rule[0] > prof.match_ops_per_rule[1]);
        assert_eq!(prof.fire_ops_per_rule, vec![6, 0]);
        assert_eq!(prof.gathered, 6);
    }
}
