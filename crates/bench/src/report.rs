//! Machine-readable benchmark output.
//!
//! Every harness binary emits, next to its human-readable table, a
//! versioned `BENCH_<id>.json` so results can be diffed, plotted, and
//! checked in CI without scraping text. The schema
//! ([`BENCH_SCHEMA`]) is validated by [`validate_bench_json`] (also
//! exposed as the `validate` binary).
//!
//! ```text
//! { "schema": "parulel-bench/v1",
//!   "id": "fig1", "title": "...", "host_threads": 8,
//!   "rows": [ { "workload": "...", "matcher": "...", "shards": 1,
//!               "cycles": 42, "firings": 900, "wall_ms": 1.5,
//!               "match_ms": ..., "redact_ms": ..., "fire_ms": ...,
//!               "apply_ms": ..., "peak_wm": ..., "peak_conflict_set": ...,
//!               "metrics_level": "rules",
//!               "top_rules": [ {"rule": "...", "matched": ..., "fired": ...,
//!                               "redacted_meta": ..., "redacted_guard": ...,
//!                               "rhs_ms": ...} ],
//!               ... }, ... ] }
//! ```
//!
//! Rows from the simulated machine (`fig1b`) use `"matcher": "simulated"`
//! and carry model fields (`pes`, `predicted_speedup`, …) instead of the
//! measured-run columns.

use crate::RunResult;
use parulel_core::Program;
use parulel_engine::Json;
use std::path::PathBuf;

/// Schema tag stamped into every `BENCH_<id>.json`.
pub const BENCH_SCHEMA: &str = "parulel-bench/v1";

/// How many rules the per-row `top_rules` table keeps.
pub const TOP_K: usize = 5;

/// Where the JSON reports land: `$PARULEL_RESULTS_DIR`, defaulting to
/// `results/` under the current directory (created on demand).
pub fn results_dir() -> PathBuf {
    std::env::var_os("PARULEL_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Accumulates rows for one `BENCH_<id>.json`.
pub struct BenchReport {
    id: &'static str,
    title: String,
    rows: Vec<Json>,
}

impl BenchReport {
    /// Starts an empty report for the binary `id` (`fig1`, `table3`, …).
    pub fn new(id: &'static str, title: &str) -> Self {
        BenchReport {
            id,
            title: title.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Use [`run_row`](Self::run_row) for measured
    /// engine runs; hand-built rows (e.g. simulation predictions) must
    /// still carry `workload` and `matcher`.
    pub fn push(&mut self, row: Json) {
        self.rows.push(row);
    }

    /// The standard row for a measured engine run, plus any
    /// caller-specific `extra` fields appended after the common columns.
    pub fn run_row(
        &mut self,
        workload: &str,
        program: &Program,
        r: &RunResult,
        extra: Vec<(&str, Json)>,
    ) {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let top: Vec<Json> = r
            .metrics
            .top_rules(program, TOP_K)
            .into_iter()
            .map(|(name, m)| {
                Json::obj()
                    .set("rule", name)
                    .set("matched", m.matched)
                    .set("fired", m.fired)
                    .set("redacted_meta", m.redacted_meta)
                    .set("redacted_guard", m.redacted_guard)
                    .set("rhs_ms", ms(m.rhs_time))
            })
            .collect();
        let mut row = Json::obj()
            .set("workload", workload)
            .set("matcher", r.matcher.kind)
            .set("shards", r.matcher.shards)
            .set("cycles", r.outcome.cycles)
            .set("firings", r.outcome.firings)
            .set("wall_ms", ms(r.outcome.wall))
            .set("match_ms", ms(r.stats.match_time))
            .set("redact_ms", ms(r.stats.redact_time))
            .set("fire_ms", ms(r.stats.fire_time))
            .set("apply_ms", ms(r.stats.apply_time))
            // At MetricsLevel::Off the dedicated peak counters stay 0;
            // the final WM size and RunStats' peak-eligible width are
            // always-on lower bounds that keep the columns meaningful.
            .set("peak_wm", r.metrics.peak_wm.max(r.wm.len()))
            .set(
                "peak_conflict_set",
                r.metrics.peak_conflict_set.max(r.stats.peak_eligible),
            )
            .set(
                "metrics_level",
                format!("{:?}", r.metrics.level).to_lowercase(),
            )
            .set("top_rules", top);
        for (k, v) in extra {
            row = row.set(k, v);
        }
        self.rows.push(row);
    }

    /// The whole report as one JSON document.
    pub fn to_json(&self) -> Json {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Json::obj()
            .set("schema", BENCH_SCHEMA)
            .set("id", self.id)
            .set("title", self.title.as_str())
            .set("host_threads", threads)
            .set("rows", self.rows.clone())
    }

    /// Writes `BENCH_<id>.json` under [`results_dir`] and returns the
    /// path. Creates the directory if needed.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.id));
        std::fs::write(&path, self.to_json().pretty())?;
        Ok(path)
    }

    /// [`write`](Self::write) + a stdout note; exits 1 on IO failure so a
    /// harness binary never reports success without its JSON artifact.
    pub fn emit(&self) {
        match self.write() {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write BENCH_{}.json: {e}", self.id);
                std::process::exit(1);
            }
        }
    }
}

fn expect_str(row: &Json, key: &str) -> Result<(), String> {
    match row.get(key) {
        Some(v) if v.as_str().is_some() => Ok(()),
        Some(_) => Err(format!("field {key:?} is not a string")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn expect_num(row: &Json, key: &str) -> Result<(), String> {
    match row.get(key) {
        Some(v) => match v.as_f64() {
            Some(n) if n >= 0.0 => Ok(()),
            Some(n) => Err(format!("field {key:?} is negative ({n})")),
            None => Err(format!("field {key:?} is not a number")),
        },
        None => Err(format!("missing field {key:?}")),
    }
}

/// Checks that `doc` is a well-formed `parulel-bench/v1` report: schema
/// tag, id/title, and per-row required fields (measured rows carry the
/// full column set; `"matcher": "simulated"` rows only the model fields).
pub fn validate_bench_json(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(|v| v.as_str()) {
        Some(s) if s == BENCH_SCHEMA => {}
        Some(s) => return Err(format!("schema is {s:?}, expected {BENCH_SCHEMA:?}")),
        None => return Err("missing field \"schema\"".into()),
    }
    expect_str(doc, "id")?;
    expect_str(doc, "title")?;
    expect_num(doc, "host_threads")?;
    let rows = doc
        .get("rows")
        .and_then(|v| v.as_arr())
        .ok_or("missing or non-array field \"rows\"")?;
    if rows.is_empty() {
        return Err("report has no rows".into());
    }
    for (i, row) in rows.iter().enumerate() {
        let ctx = |e: String| format!("row {i}: {e}");
        expect_str(row, "workload").map_err(ctx)?;
        expect_str(row, "matcher").map_err(ctx)?;
        if row.get("matcher").and_then(|v| v.as_str()) == Some("simulated") {
            expect_num(row, "pes").map_err(ctx)?;
            expect_num(row, "predicted_speedup").map_err(ctx)?;
            continue;
        }
        // Match-layer micro-bench rows (joinbench) drive matchers
        // directly — no engine run, so no cycle/firing/phase columns.
        // `mode` says whether the matcher was monolithic or partitioned.
        if row.get("adds_per_sec").is_some() {
            expect_str(row, "mode").map_err(ctx)?;
            for key in ["shards", "adds_per_sec", "removes_per_sec", "wmes", "cs_peak"] {
                expect_num(row, key).map_err(ctx)?;
            }
            continue;
        }
        for key in [
            "shards",
            "cycles",
            "firings",
            "wall_ms",
            "match_ms",
            "redact_ms",
            "fire_ms",
            "apply_ms",
            "peak_wm",
            "peak_conflict_set",
        ] {
            expect_num(row, key).map_err(ctx)?;
        }
        expect_str(row, "metrics_level").map_err(ctx)?;
        let top = row
            .get("top_rules")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| ctx("missing or non-array field \"top_rules\"".into()))?;
        for r in top {
            expect_str(r, "rule").map_err(&ctx)?;
            for key in ["matched", "fired", "redacted_meta", "redacted_guard", "rhs_ms"] {
                expect_num(r, key).map_err(&ctx)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_engine::{EngineOptions, MetricsLevel};
    use parulel_workloads::Scenario;

    fn small_report() -> BenchReport {
        let s = parulel_workloads::Closure::new(10, 14, 3);
        let r = crate::run_parallel(
            &s,
            EngineOptions {
                metrics: MetricsLevel::Rules,
                ..Default::default()
            },
        );
        let mut rep = BenchReport::new("unit", "unit-test report");
        rep.run_row(s.name(), s.program(), &r, vec![("speedup", Json::from(1.0))]);
        rep
    }

    #[test]
    fn run_row_produces_valid_schema() {
        let rep = small_report();
        let doc = rep.to_json();
        validate_bench_json(&doc).unwrap();
        // and it survives a render/parse round-trip
        let reparsed = Json::parse(&doc.pretty()).unwrap();
        validate_bench_json(&reparsed).unwrap();
        let rows = reparsed.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(
            rows[0].get("metrics_level").unwrap().as_str(),
            Some("rules")
        );
        assert!(rows[0].get("firings").unwrap().as_f64().unwrap() > 0.0);
        assert!(!rows[0].get("top_rules").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn validator_rejects_malformed_reports() {
        let cases = [
            (Json::obj(), "missing field \"schema\""),
            (
                Json::obj().set("schema", "parulel-bench/v0"),
                "schema is \"parulel-bench/v0\"",
            ),
        ];
        for (doc, want) in cases {
            let err = validate_bench_json(&doc).unwrap_err();
            assert!(err.contains(want), "{err}");
        }
        // a row missing a required numeric column
        let doc = Json::obj()
            .set("schema", BENCH_SCHEMA)
            .set("id", "x")
            .set("title", "x")
            .set("host_threads", 1usize)
            .set("rows", vec![Json::obj().set("workload", "w").set("matcher", "rete")]);
        let err = validate_bench_json(&doc).unwrap_err();
        assert!(err.contains("row 0") && err.contains("shards"), "{err}");
    }

    #[test]
    fn joinbench_rows_use_the_micro_bench_fields() {
        let row = |complete: bool| {
            let mut row = Json::obj()
                .set("workload", "hotjoin")
                .set("matcher", "partitioned-rete")
                .set("mode", "incremental")
                .set("shards", 4usize)
                .set("adds_per_sec", 100000.0)
                .set("removes_per_sec", 90000.0)
                .set("wmes", 1200usize);
            if complete {
                row = row.set("cs_peak", 30000usize);
            }
            row
        };
        let doc = |row: Json| {
            Json::obj()
                .set("schema", BENCH_SCHEMA)
                .set("id", "joinbench")
                .set("title", "joinbench")
                .set("host_threads", 1usize)
                .set("rows", vec![row])
        };
        validate_bench_json(&doc(row(true))).unwrap();
        let err = validate_bench_json(&doc(row(false))).unwrap_err();
        assert!(err.contains("cs_peak"), "{err}");
    }

    #[test]
    fn simulated_rows_use_the_model_fields() {
        let doc = Json::obj()
            .set("schema", BENCH_SCHEMA)
            .set("id", "fig1b")
            .set("title", "sim")
            .set("host_threads", 1usize)
            .set(
                "rows",
                vec![Json::obj()
                    .set("workload", "closure")
                    .set("matcher", "simulated")
                    .set("pes", 8usize)
                    .set("predicted_speedup", 3.5)],
            );
        validate_bench_json(&doc).unwrap();
    }

    #[test]
    fn write_lands_in_results_dir_override() {
        let dir = std::env::temp_dir().join(format!("parulel-bench-test-{}", std::process::id()));
        // results_dir() reads the env var; set it for this test only.
        // (Tests in this module run single-threaded per process by default,
        // but guard against parallel test runners by using a unique dir
        // and restoring the old value.)
        let old = std::env::var_os("PARULEL_RESULTS_DIR");
        std::env::set_var("PARULEL_RESULTS_DIR", &dir);
        let rep = small_report();
        let path = rep.write().unwrap();
        match old {
            Some(v) => std::env::set_var("PARULEL_RESULTS_DIR", v),
            None => std::env::remove_var("PARULEL_RESULTS_DIR"),
        }
        assert!(path.ends_with("BENCH_unit.json"), "{}", path.display());
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        validate_bench_json(&doc).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }
}
