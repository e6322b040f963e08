//! Run statistics: everything the experiment harness reports.

use std::time::Duration;

/// Statistics for one match–redact–fire cycle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleStats {
    /// Conflict-set size before refraction.
    pub conflict_set: usize,
    /// Eligible (unrefracted) instantiations.
    pub eligible: usize,
    /// Instantiations redacted by meta-rules.
    pub redacted_meta: usize,
    /// Instantiations redacted by the interference guard.
    pub redacted_guard: usize,
    /// Instantiations fired this cycle.
    pub fired: usize,
    /// Meta-evaluation rounds to fixpoint.
    pub meta_rounds: usize,
    /// WMEs asserted by the merged delta.
    pub adds: usize,
    /// WMEs retracted by the merged delta.
    pub removes: usize,
    /// Time matching: conflict-set maintenance (the incremental network
    /// update after the delta) plus refraction filtering.
    pub match_time: Duration,
    /// Time in the redact (meta + guard) phase.
    pub redact_time: Duration,
    /// Time in the fire phase: RHS evaluation into the cycle delta, the
    /// delta-budget check, and recording the fired set for refraction.
    pub fire_time: Duration,
    /// Time applying the delta to working memory and pruning refraction.
    pub apply_time: Duration,
}

/// Aggregated statistics for a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Cycles executed.
    pub cycles: u64,
    /// Total rule firings.
    pub firings: u64,
    /// Total instantiations redacted by meta-rules.
    pub redacted_meta: u64,
    /// Total instantiations redacted by the guard.
    pub redacted_guard: u64,
    /// Total meta rounds.
    pub meta_rounds: u64,
    /// Largest eligible set seen in one cycle.
    pub peak_eligible: usize,
    /// Sum of eligible-set sizes (for the mean).
    pub total_eligible: u64,
    /// Total WME assertions.
    pub adds: u64,
    /// Total WME retractions.
    pub removes: u64,
    /// Cumulative phase times.
    pub match_time: Duration,
    /// Cumulative redact time.
    pub redact_time: Duration,
    /// Cumulative fire time.
    pub fire_time: Duration,
    /// Cumulative apply time.
    pub apply_time: Duration,
}

impl RunStats {
    /// Folds one cycle into the aggregate.
    pub fn absorb(&mut self, c: &CycleStats) {
        self.cycles += 1;
        self.firings += c.fired as u64;
        self.redacted_meta += c.redacted_meta as u64;
        self.redacted_guard += c.redacted_guard as u64;
        self.meta_rounds += c.meta_rounds as u64;
        self.peak_eligible = self.peak_eligible.max(c.eligible);
        self.total_eligible += c.eligible as u64;
        self.adds += c.adds as u64;
        self.removes += c.removes as u64;
        self.match_time += c.match_time;
        self.redact_time += c.redact_time;
        self.fire_time += c.fire_time;
        self.apply_time += c.apply_time;
    }

    /// Mean firings per cycle — the "many-firing factor" PARULEL's C1
    /// claim is about.
    pub fn firings_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.firings as f64 / self.cycles as f64
        }
    }

    /// These counts with every phase time zero. Phase times are
    /// wall-clock readings, so snapshots carry none: two engines in the
    /// same state checkpoint to the same bytes, and a resumed engine
    /// starts its phase timers at zero.
    pub fn untimed(&self) -> RunStats {
        RunStats {
            match_time: Duration::ZERO,
            redact_time: Duration::ZERO,
            fire_time: Duration::ZERO,
            apply_time: Duration::ZERO,
            ..self.clone()
        }
    }

    /// Total time across the instrumented phases.
    pub fn total_time(&self) -> Duration {
        self.match_time + self.redact_time + self.fire_time + self.apply_time
    }
}

/// How a run ended, plus its headline numbers.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Cycles executed.
    pub cycles: u64,
    /// Total firings.
    pub firings: u64,
    /// A `halt` action stopped the run.
    pub halted: bool,
    /// The conflict set drained (normal termination).
    pub quiescent: bool,
    /// The cycle limit stopped the run.
    pub hit_cycle_limit: bool,
    /// Wall-clock time of the run.
    pub wall: Duration,
}

impl Outcome {
    /// The run's terminal status tag, as reported in trace events and
    /// the serve protocol: `halted` wins over `cycle-limit` wins over
    /// `quiescent`.
    pub fn status(&self) -> &'static str {
        if self.halted {
            "halted"
        } else if self.hit_cycle_limit {
            "cycle-limit"
        } else {
            "quiescent"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut r = RunStats::default();
        r.absorb(&CycleStats {
            eligible: 5,
            fired: 3,
            redacted_meta: 2,
            adds: 4,
            removes: 1,
            meta_rounds: 2,
            ..Default::default()
        });
        r.absorb(&CycleStats {
            eligible: 9,
            fired: 9,
            ..Default::default()
        });
        assert_eq!(r.cycles, 2);
        assert_eq!(r.firings, 12);
        assert_eq!(r.peak_eligible, 9);
        assert_eq!(r.total_eligible, 14);
        assert_eq!(r.redacted_meta, 2);
        assert!((r.firings_per_cycle() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        assert_eq!(RunStats::default().firings_per_cycle(), 0.0);
    }
}
