//! What one run of one workload reports, and how it is printed.
//!
//! The last line of standard output is the driver's contract: one JSON
//! object with exactly `correct`, `attempted`, `failed` and `metrics`.
//! Everything a person wants to read — sample counts, diagnostics, exact
//! counts, failure notes — is printed above it and saved in
//! `benchmark/out/`.

use crate::json::Json;
use crate::spec;
use std::collections::BTreeMap;

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes (0 for a derived ratio).
    pub samples: u64,
}

/// Operations attempted and failed, with the reasons for the first few
/// failures. A failed, refused or wrong-answer operation all count.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, note: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.note(note);
    }

    /// Records a check that is not an operation of its own (a
    /// determinism or sizing check): it fails the run without adding to
    /// `attempted`.
    pub fn violation(&mut self, note: impl Into<String>) {
        self.failed += 1;
        self.note(note);
    }

    fn note(&mut self, note: impl Into<String>) {
        if self.notes.len() < 8 {
            self.notes.push(note.into());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            self.note(note);
        }
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tally: Tally,
    /// The contract metrics: every end-to-end metric (untraced) or every
    /// per-layer metric (traced).
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Workload-specific diagnostics printed but not part of the
    /// contract line.
    pub extra: BTreeMap<&'static str, Metric>,
    /// Counts that must repeat exactly for one seed.
    pub counts: BTreeMap<&'static str, u64>,
    /// Per-round values behind the timing metrics, in run order; saved
    /// with the record so a disturbed stretch of the window can be seen.
    pub series: BTreeMap<&'static str, Vec<f64>>,
    /// How the load was generated (clients, loop kind, threads).
    pub load: String,
}

impl RunReport {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool, load: String) -> RunReport {
        RunReport {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            tally: Tally::default(),
            metrics: BTreeMap::new(),
            extra: BTreeMap::new(),
            counts: BTreeMap::new(),
            series: BTreeMap::new(),
            load,
        }
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        let unit = spec::end_to_end(name)
            .map(|m| m.unit)
            .or_else(|| spec::per_layer_unit(name))
            .unwrap_or_else(|| panic!("{name} is not a declared metric"));
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    pub fn set_extra(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.extra.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Adds, as diagnostics, the tail percentiles of the operation time
    /// that have at least ten samples beyond them. They are not
    /// end-to-end metrics: on the reference host their run-to-run spread
    /// (17-20 %) sits too close to the largest bound a metric may carry.
    pub fn set_tail_diagnostics(&mut self, op_ms: &[f64]) {
        for (name, p) in [("op_ms_p90", 0.90), ("op_ms_p99", 0.99)] {
            if let Ok(value) = crate::stats::percentile(op_ms, p) {
                self.set_extra(name, value, "ms", op_ms.len() as u64);
            }
        }
    }

    /// Records the exact cycle and firing counts of the counted prefix.
    pub fn count_work(&mut self, work: crate::batch::Work) {
        self.counts.insert("engine.cycles", work.cycles);
        self.counts.insert("engine.firings", work.firings);
    }

    /// Sets a per-layer count that must also repeat exactly.
    pub fn set_exact(&mut self, name: &'static str, n: u64, samples: u64) {
        self.set(name, n as f64, samples);
        self.counts.insert(name, n);
    }

    /// The traced run's `engine.cycles` / `engine.firings`.
    pub fn set_work(&mut self, work: crate::batch::Work, samples: u64) {
        self.set_exact("engine.cycles", work.cycles, samples);
        self.set_exact("engine.firings", work.firings, samples);
    }

    /// Fills every per-layer metric the workload did not exercise with 0,
    /// so a traced run always reports the whole declared set.
    pub fn zero_fill_per_layer(&mut self) {
        for (name, unit, _) in spec::PER_LAYER {
            self.metrics.entry(name).or_insert(Metric {
                value: 0.0,
                unit,
                samples: 0,
            });
        }
    }

    /// The declared metric names this report lacks.
    pub fn missing_metrics(&self) -> Vec<&'static str> {
        spec::declared(self.trace)
            .into_iter()
            .filter(|n| !self.metrics.contains_key(n))
            .collect()
    }

    fn metrics_json(metrics: &BTreeMap<&'static str, Metric>, samples: bool) -> Json {
        Json::obj(metrics.iter().map(|(name, m)| {
            let mut fields = vec![("value", Json::from(m.value)), ("unit", Json::from(m.unit))];
            if samples {
                fields.push(("samples", Json::from(m.samples)));
            }
            (*name, Json::obj(fields))
        }))
    }

    /// The driver's contract line.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.tally.attempted)),
            ("failed", Json::from(self.tally.failed)),
            ("metrics", Self::metrics_json(&self.metrics, false)),
        ])
        .render()
    }

    /// The full record saved under `benchmark/out/`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            ("seed", Json::from(self.seed)),
            ("seconds", Json::from(self.seconds)),
            ("trace", Json::from(self.trace)),
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.tally.attempted)),
            ("failed", Json::from(self.tally.failed)),
            ("load", Json::from(self.load.as_str())),
            ("metrics", Self::metrics_json(&self.metrics, true)),
            ("extra", Self::metrics_json(&self.extra, true)),
            (
                "counts",
                Json::obj(self.counts.iter().map(|(k, v)| (*k, Json::from(*v)))),
            ),
            (
                "series",
                Json::obj(self.series.iter().map(|(name, values)| {
                    (
                        *name,
                        Json::Arr(values.iter().map(|v| Json::from(*v)).collect()),
                    )
                })),
            ),
            (
                "notes",
                Json::Arr(
                    self.tally
                        .notes
                        .iter()
                        .map(|n| Json::from(n.as_str()))
                        .collect(),
                ),
            ),
        ])
    }

    /// The human-readable block printed above the contract line.
    pub fn print_table(&self) {
        println!(
            "workload {}  seed {}  seconds {}  trace {}",
            self.workload, self.seed, self.seconds, self.trace as u8
        );
        println!("load: {}", self.load);
        for (title, metrics) in [("metrics", &self.metrics), ("diagnostics", &self.extra)] {
            if metrics.is_empty() {
                continue;
            }
            println!("{title}:");
            for (name, m) in metrics {
                println!(
                    "  {name:<32} {:>16.6} {:<6} n={}",
                    m.value, m.unit, m.samples
                );
            }
        }
        if !self.counts.is_empty() {
            println!("exact counts:");
            for (name, n) in &self.counts {
                println!("  {name:<32} {n:>16}");
            }
        }
        println!(
            "attempted {}  failed {}  error_rate {}",
            self.tally.attempted,
            self.tally.failed,
            self.tally.failed as f64 / self.tally.attempted.max(1) as f64
        );
        for note in &self.tally.notes {
            println!("  failure: {note}");
        }
    }
}
