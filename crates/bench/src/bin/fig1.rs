//! Figure 1 — claim C2: wall-clock speedup vs worker count, PARULEL
//! engine with the rule-partitioned parallel RETE matcher. Only the match
//! phase uses the workers; RHSs fire on the cycle's own thread.
//!
//! Prints one series (rows = worker counts) per workload. On a single-core
//! host the curve is flat-to-down (thread overhead with no hardware
//! parallelism) — the *shape* claim needs a multicore host; the harness
//! sweeps identically either way.
//!
//! Timing bins run with metrics collection OFF so the measured wall times
//! stay on the uninstrumented hot path; their JSON rows therefore carry
//! `"metrics_level": "off"` and an empty `top_rules` table.

use parulel_bench::{bench_scenarios, ms, run_parallel, BenchReport, Table};
use parulel_engine::{EngineOptions, Json, MatcherKind};

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut workers: Vec<usize> = vec![1, 2, 4, 8];
    if !workers.contains(&cores) && cores > 1 {
        workers.push(cores);
    }
    println!(
        "Figure 1: speedup vs workers (host has {cores} hardware thread(s))\n\
         matcher = PartitionedRete(n), RHSs fired sequentially\n"
    );
    let mut rep = BenchReport::new("fig1", "speedup vs workers (PartitionedRete(n))");
    for s in bench_scenarios() {
        let mut t = Table::new(&["workers", "wall ms", "speedup", "cycles"]);
        let mut base: Option<f64> = None;
        for &n in &workers {
            let opts = EngineOptions {
                matcher: MatcherKind::PartitionedRete(n),
                ..Default::default()
            };
            let r = run_parallel(s.as_ref(), opts);
            let wall = r.outcome.wall.as_secs_f64();
            let b = *base.get_or_insert(wall);
            let speedup = b / wall.max(1e-9);
            t.row(vec![
                n.to_string(),
                ms(r.outcome.wall),
                format!("{speedup:.2}x"),
                r.outcome.cycles.to_string(),
            ]);
            rep.run_row(
                s.name(),
                s.program(),
                &r,
                vec![
                    ("workers", Json::from(n)),
                    ("speedup", Json::from(speedup)),
                ],
            );
        }
        println!("## {}", s.name());
        t.print();
        println!();
    }
    rep.emit();
}
