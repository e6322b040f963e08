//! The benchmark's fixed vocabulary: workload names, metric names, units
//! and regress bounds. `BENCHMARK.json` at the repo root states the same
//! table for the driver; a unit test keeps the two identical.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn tag(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: every workload reports every one of these,
/// measured with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The workload the driver does not gate on. `closure-prete2` spends its
/// time in sub-millisecond thread hand-offs, and on the shared reference
/// VM the cost of a cross-vCPU wake-up switches between two regimes
/// minutes apart: its ten-run medians moved 33 % between back-to-back
/// sets of the same code, more than the largest bound a metric may
/// carry. It stays a workload of the suite and of `--compare`; a claim
/// about it is measured in alternating pairs (`README.md`).
pub const UNGATED: &str = "closure-prete2";

/// The six workloads, in their canonical order, each with the
/// one-sentence reason it exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "closure-rete",
        "match-bound: deep add-heavy joins with negation under the default RETE matcher; redact and server do nothing",
    ),
    (
        "closure-prete2",
        "the same instances under PartitionedRete(2): partitioning, CS merge and rayon dispatch on the path; ratio to closure-rete is claim C2",
    ),
    (
        "market-treat",
        "redact-bound and remove-heavy under TREAT: meta-rules and the enumerate/remove path dominate, joins for adds do not",
    ),
    (
        "serve-churn",
        "server-bound: short sessions, so JSON, dispatch, shard hop and per-open compile dominate; tiny engine cycles, <=2 live sessions",
    ),
    (
        "serve-durable",
        "WAL-bound: 256 long-lived sessions under --wal-sync always with compaction, then kill -9 and recovery; large resident set",
    ),
    (
        "serve-contend",
        "scheduler-bound: one long run sliced by --run-quantum on a single shard while a neighbor session's frames wait behind it",
    ),
];

/// End-to-end metrics. The operation ("op") is the unit of work a user
/// of that workload waits for; `README.md` says which per workload.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// Per-layer metrics `(name, unit, better)`, reported by the traced run.
/// A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("trace.overhead_ratio", "ratio", Better::Lower),
    ("lang.parse_us", "us", Better::Lower),
    ("lang.compile_us", "us", Better::Lower),
    ("vm.codegen_us", "us", Better::Lower),
    ("match.build_us", "us", Better::Lower),
    ("match.seed_us", "us", Better::Lower),
    ("match.apply_us", "us", Better::Lower),
    ("match.us_per_change", "us", Better::Lower),
    ("match.share", "ratio", Better::Lower),
    ("match.adds", "count", Better::Lower),
    ("match.removes", "count", Better::Lower),
    ("match.cs_peak", "count", Better::Lower),
    ("match.alpha_wmes", "count", Better::Lower),
    ("match.beta_tokens", "count", Better::Lower),
    ("match.alpha_nodes", "count", Better::Lower),
    ("match.alpha_share_hits", "count", Better::Higher),
    ("match.reenumerations", "count", Better::Lower),
    ("match.shard_imbalance", "ratio", Better::Lower),
    ("engine.build_us", "us", Better::Lower),
    ("engine.run_us", "us", Better::Lower),
    ("engine.inject_us", "us", Better::Lower),
    ("engine.phase.match_us", "us", Better::Lower),
    ("engine.phase.redact_us", "us", Better::Lower),
    ("engine.phase.fire_us", "us", Better::Lower),
    ("engine.phase.apply_us", "us", Better::Lower),
    ("engine.redact_share", "ratio", Better::Lower),
    ("engine.cycles", "count", Better::Lower),
    ("engine.firings", "count", Better::Higher),
    ("engine.redactions", "count", Better::Lower),
    ("engine.meta_rounds", "count", Better::Lower),
    ("engine.peak_eligible", "count", Better::Lower),
    ("engine.snapshot_us", "us", Better::Lower),
    ("engine.restore_us", "us", Better::Lower),
    ("engine.snapshot_bytes", "B", Better::Lower),
    ("server.open_us", "us", Better::Lower),
    ("server.inject_us", "us", Better::Lower),
    ("server.run_us", "us", Better::Lower),
    ("server.step_us", "us", Better::Lower),
    ("server.query_us", "us", Better::Lower),
    ("server.close_us", "us", Better::Lower),
    ("server.core_us_per_frame", "us", Better::Lower),
    ("server.transport_us_per_frame", "us", Better::Lower),
    ("server.engine_share", "ratio", Better::Higher),
    ("server.req_bytes_per_frame", "B", Better::Lower),
    ("server.resp_bytes_per_frame", "B", Better::Lower),
    ("server.frame_ms_p50", "ms", Better::Lower),
    ("server.frame_ms_p99", "ms", Better::Lower),
    ("server.frames_per_s", "1/s", Better::Higher),
    ("sched.neighbor_idle_ms_p50", "ms", Better::Lower),
    ("sched.neighbor_busy_ms_p50", "ms", Better::Lower),
    ("sched.neighbor_busy_ms_p90", "ms", Better::Lower),
    ("sched.slowdown_ratio", "ratio", Better::Lower),
    ("sched.long_run_s", "s", Better::Lower),
    ("sched.victim_slowdown_ratio", "ratio", Better::Lower),
    ("wal.append_us", "us", Better::Lower),
    ("wal.fsync_us", "us", Better::Lower),
    ("wal.compact_us", "us", Better::Lower),
    ("wal.overhead_ratio", "ratio", Better::Lower),
    ("wal.bytes", "B", Better::Lower),
    ("wal.records", "count", Better::Lower),
    ("wal.fsyncs", "count", Better::Lower),
    ("wal.compactions", "count", Better::Lower),
    ("wal.bytes_per_change", "B", Better::Lower),
    ("recovery.restart_s", "s", Better::Lower),
    ("recovery.scan_us", "us", Better::Lower),
    ("recovery.replay_us", "us", Better::Lower),
    ("recovery.sessions", "count", Better::Higher),
    ("recovery.frames_replayed", "count", Better::Lower),
    ("proc.daemon_cpu_s", "s", Better::Lower),
    ("proc.cpu_us_per_frame", "us", Better::Lower),
    ("proc.harness_cpu_s", "s", Better::Lower),
];

/// Per-layer counts that must repeat exactly for one seed: across
/// repetitions, and for the subset the untraced run also records
/// (`engine.cycles`, `engine.firings`), across `--trace` on and off.
pub const EXACT_COUNTS: [&str; 10] = [
    "engine.cycles",
    "engine.firings",
    "engine.redactions",
    "engine.meta_rounds",
    "match.adds",
    "match.removes",
    "wal.records",
    "wal.bytes",
    "recovery.sessions",
    "recovery.frames_replayed",
];

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|(name, _)| *name)
}

/// The metric names a run must report: every end-to-end metric with
/// tracing off, every per-layer metric with it on.
pub fn declared(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|(name, _, _)| *name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// harness emits. They must never drift apart.
    #[test]
    fn benchmark_json_states_the_same_table() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let field =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        let listed: Vec<(String, String)> = workloads
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .filter(|(n, _)| *n != UNGATED)
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert!(ours
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, ours) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), ours.name);
            assert_eq!(field(entry, "unit"), ours.unit);
            assert_eq!(field(entry, "better"), ours.better.tag());
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(ours.bound));
            assert!(ours.bound <= 0.25);
        }

        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert!(layers.len() <= 128);
        let listed: Vec<(String, String, String)> = layers
            .iter()
            .map(|l| (field(l, "name"), field(l, "unit"), field(l, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.tag().to_string()))
            .collect();
        assert_eq!(listed, ours);

        assert_eq!(
            doc.get("paths").and_then(Json::as_arr),
            Some(&[Json::from("benchmark")][..])
        );
    }

    #[test]
    fn exact_counts_are_per_layer_metrics() {
        for name in EXACT_COUNTS {
            assert!(per_layer_unit(name).is_some(), "{name}");
        }
    }
}
