//! Suite reports (`--reps N` over every workload) and `--compare`.
//!
//! A suite report keeps every repetition's value per end-to-end metric,
//! so the noise floor (quartiles, spread) travels with the medians, plus
//! the exact counts. `compare` judges a second report against a first by
//! the bounds `spec` fixes: a median worse by more than its bound, or
//! any exact count that differs, is a violation.

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats;
use std::collections::BTreeMap;

/// Every repetition of one workload.
#[derive(Default)]
pub struct WorkloadRuns {
    /// End-to-end metric → one value per repetition.
    pub end_to_end: BTreeMap<String, Vec<f64>>,
    /// Per-layer metric → value of the traced run.
    pub per_layer: BTreeMap<String, f64>,
    /// Exact counts, which every repetition must agree on.
    pub counts: BTreeMap<String, u64>,
    /// Counts on which two repetitions disagreed.
    pub count_conflicts: Vec<String>,
}

impl WorkloadRuns {
    /// Folds in one run's saved record (`RunReport::to_json`).
    pub fn absorb(&mut self, run: &Json) {
        let traced = run.get("trace") == Some(&Json::Bool(true));
        if let Some(metrics) = run.get("metrics").and_then(Json::as_obj) {
            for (name, m) in metrics {
                let Some(value) = m.get("value").and_then(Json::as_f64) else {
                    continue;
                };
                if traced {
                    self.per_layer.insert(name.clone(), value);
                } else {
                    self.end_to_end.entry(name.clone()).or_default().push(value);
                }
            }
        }
        if let Some(counts) = run.get("counts").and_then(Json::as_obj) {
            for (name, n) in counts {
                let n = n.as_f64().unwrap_or(-1.0) as u64;
                if *self.counts.entry(name.clone()).or_insert(n) != n {
                    self.count_conflicts.push(name.clone());
                }
            }
        }
    }

    pub fn to_json(&self) -> Json {
        let end_to_end = self.end_to_end.iter().map(|(name, values)| {
            let [q1, q2, q3] = stats::quartiles(values).unwrap_or([values[0]; 3]);
            (
                name.clone(),
                Json::obj([
                    (
                        "values",
                        Json::Arr(values.iter().map(|v| Json::from(*v)).collect()),
                    ),
                    ("median", Json::from(stats::median(values).unwrap_or(q2))),
                    ("q1", Json::from(q1)),
                    ("q3", Json::from(q3)),
                ]),
            )
        });
        Json::obj([
            ("end_to_end", Json::obj(end_to_end)),
            (
                "per_layer",
                Json::obj(
                    self.per_layer
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v))),
                ),
            ),
            (
                "counts",
                Json::obj(self.counts.iter().map(|(k, v)| (k.clone(), Json::from(*v)))),
            ),
        ])
    }
}

/// One line per end-to-end metric: median, quartiles, spread against
/// the bound.
pub fn print_noise_table(workload: &str, runs: &WorkloadRuns) {
    println!("{workload}");
    for m in &spec::END_TO_END {
        let Some(values) = runs.end_to_end.get(m.name) else {
            continue;
        };
        let median = stats::median(values).unwrap_or(f64::NAN);
        match stats::quartiles(values) {
            Ok([q1, _, q3]) => println!(
                "  {:<14} median {:>14.6} {:<4} q1 {:>14.6} q3 {:>14.6} spread {:>6.2}% bound {:>4.0}% n={}",
                m.name,
                median,
                m.unit,
                q1,
                q3,
                (q3 - q1) / median * 100.0,
                m.bound * 100.0,
                values.len()
            ),
            Err(_) => println!("  {:<14} {:>14.6} {:<4} n={}", m.name, median, m.unit, values.len()),
        }
    }
}

/// The share by which `candidate` is worse than `base` (negative when it
/// is better).
pub fn worsening(better: Better, base: f64, candidate: f64) -> f64 {
    match better {
        Better::Lower => (candidate - base) / base,
        Better::Higher => (base - candidate) / base,
    }
}

/// Judges suite report `b` against `a`. Returns one line per violation.
pub fn compare(a: &Json, b: &Json) -> Vec<String> {
    let mut violations = Vec::new();
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .unwrap_or_default()
    };
    let (wa, wb) = (workloads(a), workloads(b));
    if wa.is_empty() {
        violations.push("the first report lists no workloads".to_string());
    }
    for (workload, ra) in &wa {
        let Some(rb) = wb.get(workload) else {
            violations.push(format!("{workload}: missing from the second report"));
            continue;
        };
        for m in &spec::END_TO_END {
            let median = |r: &Json| r.get("end_to_end")?.get(m.name)?.get("median")?.as_f64();
            match (median(ra), median(rb)) {
                (Some(base), Some(candidate)) => {
                    let worse = worsening(m.better, base, candidate);
                    if worse > m.bound {
                        violations.push(format!(
                            "{workload}: {} worse by {:.1}% ({base} -> {candidate} {}), bound {:.0}%",
                            m.name,
                            worse * 100.0,
                            m.unit,
                            m.bound * 100.0
                        ));
                    }
                }
                _ => violations.push(format!("{workload}: {} missing", m.name)),
            }
        }
        let counts = |r: &Json| {
            r.get("counts")
                .and_then(Json::as_obj)
                .cloned()
                .unwrap_or_default()
        };
        let (ca, cb) = (counts(ra), counts(rb));
        for (name, n) in &ca {
            if cb.get(name) != Some(n) {
                violations.push(format!(
                    "{workload}: exact count {name} differs ({} -> {})",
                    n.render(),
                    cb.get(name).map_or("missing".to_string(), Json::render)
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite(op_ms_p50: f64, ops_per_s: f64, peak_rss_mib: f64, cycles: u64) -> Json {
        let mut runs = WorkloadRuns::default();
        for jitter in [0.99, 1.0, 1.01] {
            let metric = |v: f64| Json::obj([("value", Json::from(v * jitter))]);
            runs.absorb(&Json::obj([
                ("trace", Json::from(false)),
                (
                    "metrics",
                    Json::obj([
                        ("setup_s", metric(0.8)),
                        ("op_ms_p50", metric(op_ms_p50)),
                        ("ops_per_s", metric(ops_per_s)),
                        ("peak_rss_mib", metric(peak_rss_mib)),
                    ]),
                ),
                ("counts", Json::obj([("engine.cycles", Json::from(cycles))])),
            ]));
        }
        assert!(runs.count_conflicts.is_empty());
        Json::obj([("workloads", Json::obj([("closure-rete", runs.to_json())]))])
    }

    /// `peak_rss_mib` carries a 10 % bound, the timings 25 %.
    #[test]
    fn flags_a_regression_past_the_bound_and_passes_one_inside_it() {
        let base = suite(40.0, 1000.0, 20.0, 338);
        assert!(compare(&base, &base).is_empty());
        assert!(
            compare(&base, &suite(40.0, 1000.0, 21.0, 338)).is_empty(),
            "5% more memory is inside 10%"
        );
        assert!(
            compare(&base, &suite(48.0, 1000.0, 20.0, 338)).is_empty(),
            "20% slower is inside 25%"
        );
        assert!(
            compare(&base, &suite(40.0, 800.0, 20.0, 338)).is_empty(),
            "20% less throughput is inside"
        );
        assert!(
            compare(&base, &suite(30.0, 1500.0, 15.0, 338)).is_empty(),
            "a gain is not a violation"
        );

        let fat = compare(&base, &suite(40.0, 1000.0, 22.2, 338));
        assert_eq!(fat.len(), 1, "{fat:?}");
        assert!(
            fat[0].contains("peak_rss_mib") && fat[0].contains("11.0%"),
            "{fat:?}"
        );
        let slow = compare(&base, &suite(50.4, 1000.0, 20.0, 338));
        assert_eq!(slow.len(), 1, "{slow:?}");
        assert!(slow[0].contains("op_ms_p50"));
        let starved = compare(&base, &suite(40.0, 740.0, 20.0, 338));
        assert_eq!(starved.len(), 1, "{starved:?}");
        assert!(starved[0].contains("ops_per_s"));
    }

    #[test]
    fn flags_an_exact_count_that_moved_and_a_missing_workload() {
        let base = suite(40.0, 1000.0, 20.0, 338);
        let drift = compare(&base, &suite(40.0, 1000.0, 20.0, 339));
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].contains("engine.cycles"));
        assert!(!compare(
            &base,
            &Json::obj([("workloads", Json::obj(Vec::<(String, Json)>::new()))])
        )
        .is_empty());
    }

    #[test]
    fn repetitions_that_disagree_on_a_count_are_recorded() {
        let mut runs = WorkloadRuns::default();
        for cycles in [10u64, 11] {
            runs.absorb(&Json::obj([
                ("trace", Json::from(false)),
                ("counts", Json::obj([("engine.cycles", Json::from(cycles))])),
            ]));
        }
        assert_eq!(runs.count_conflicts, ["engine.cycles"]);
    }
}
