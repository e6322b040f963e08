//! The repo benchmark: six named workloads, five end-to-end metrics every
//! workload reports, and a traced run that attributes them to layers.
//! See `benchmark/README.md` for what each workload and metric means and
//! `BENCHMARK.json` for the contract the driver reads.

pub mod batch;
pub mod compare;
pub mod daemon;
pub mod gen;
pub mod json;
pub mod proc;
pub mod replay;
pub mod report;
pub mod serve;
pub mod sizes;
pub mod spec;
pub mod stats;
pub mod trace;

use report::RunReport;
use serve::Env;

/// Runs one workload once. `None` when the name is not a workload.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    env: &Env,
) -> Option<RunReport> {
    if let Some(w) = batch::BatchWorkload::named(name) {
        return Some(if trace {
            batch::run_traced(&w, seed, seconds, env.sizes, env.out_dir)
        } else {
            batch::run(&w, seed, seconds, env.sizes)
        });
    }
    let run = match (name, trace) {
        ("serve-churn", false) => serve::churn,
        ("serve-churn", true) => serve::churn_traced,
        ("serve-durable", false) => serve::durable,
        ("serve-durable", true) => serve::durable_traced,
        ("serve-contend", false) => serve::contend,
        ("serve-contend", true) => serve::contend_traced,
        _ => return None,
    };
    Some(run(env, seed, seconds))
}
