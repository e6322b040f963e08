//! The in-process batch workloads: `closure-rete`, `closure-prete2` and
//! `market-treat`.
//!
//! One operation is one instance taken from source text and facts to a
//! validated fixpoint: `parulel_lang::compile` → `Engine::with_policy`
//! (fire-all) → `run` → `Scenario::validate`.

use crate::gen::{self, BatchKind};
use crate::proc;
use crate::report::{RunReport, Tally};
use crate::sizes::Sizes;
use crate::stats::{self, Op};
use crate::trace::Recorder;
use parulel_core::{Program, Wme, WmeId, WorkingMemory};
use parulel_engine::{Engine, EngineOptions, FiringPolicy, MatcherKind, Snapshot};
use parulel_match::MatcherMetrics;
use parulel_workloads::Scenario;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A batch workload: which instances, under which matcher.
#[derive(Clone, Copy, Debug)]
pub struct BatchWorkload {
    pub name: &'static str,
    pub kind: BatchKind,
    pub matcher: MatcherKind,
}

impl BatchWorkload {
    pub fn named(name: &str) -> Option<BatchWorkload> {
        let closure = BatchKind::Closure {
            nodes: 64,
            edges: 128,
        };
        let (name, kind, matcher) = match name {
            "closure-rete" => ("closure-rete", closure, MatcherKind::Rete),
            "closure-prete2" => ("closure-prete2", closure, MatcherKind::PartitionedRete(2)),
            "market-treat" => (
                "market-treat",
                BatchKind::Market {
                    per_side: 160,
                    symbols: 16,
                },
                MatcherKind::Treat,
            ),
            _ => return None,
        };
        Some(BatchWorkload {
            name,
            kind,
            matcher,
        })
    }

    fn pool_len(&self, sizes: &Sizes) -> usize {
        match self.kind {
            BatchKind::Closure { .. } => sizes.closure_pool,
            BatchKind::Market { .. } => sizes.market_pool,
        }
    }

    fn round_len(&self, sizes: &Sizes) -> usize {
        match self.kind {
            BatchKind::Closure { .. } => sizes.closure_round,
            BatchKind::Market { .. } => sizes.market_round,
        }
    }

    fn options(&self) -> EngineOptions {
        EngineOptions {
            matcher: self.matcher,
            ..EngineOptions::default()
        }
    }

    fn load(&self) -> String {
        format!(
            "in-process, one instance at a time on the harness thread; RAYON_NUM_THREADS={}",
            std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into())
        )
    }
}

/// What one instance's (or session's) run reported.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    pub cycles: u64,
    pub firings: u64,
}

impl std::ops::AddAssign for Work {
    fn add_assign(&mut self, other: Work) {
        self.cycles += other.cycles;
        self.firings += other.firings;
    }
}

impl std::iter::Sum for Work {
    fn sum<I: Iterator<Item = Work>>(iter: I) -> Work {
        iter.fold(Work::default(), |mut total, work| {
            total += work;
            total
        })
    }
}

/// Runs one instance, untraced. Returns its wall time and work.
pub fn run_instance(s: &dyn Scenario, options: &EngineOptions) -> Result<(Duration, Work), String> {
    let started = Instant::now();
    let program = parulel_lang::compile(s.source()).map_err(|e| e.to_string())?;
    let mut engine = Engine::with_policy(
        &program,
        s.initial_wm(),
        FiringPolicy::fire_all(),
        options.clone(),
    );
    let outcome = engine.run().map_err(|e| e.to_string())?;
    if !outcome.quiescent {
        return Err(format!("{}: run ended {}", s.name(), outcome.status()));
    }
    s.validate(engine.wm())?;
    let wall = started.elapsed();
    black_box(&engine);
    Ok((
        wall,
        Work {
            cycles: outcome.cycles,
            firings: outcome.firings,
        },
    ))
}

/// A generated pool and what each instance reported the last time it
/// ran (`None` until it has).
struct Prepared {
    pool: Vec<Box<dyn Scenario>>,
    seen: Vec<Option<Work>>,
}

/// Generates the pool and runs the warm-up prefix: everything a run
/// does before its timed window.
fn set_up(w: &BatchWorkload, seed: u64, sizes: &Sizes, tally: &mut Tally) -> Prepared {
    let pool = gen::batch_pool(w.kind, seed, w.pool_len(sizes));
    let mut seen = vec![None; pool.len()];
    for (s, slot) in pool.iter().zip(&mut seen).take(sizes.batch_warmup) {
        match run_instance(s.as_ref(), &w.options()) {
            Ok((_, work)) => *slot = Some(work),
            Err(e) => tally.violation(format!("warm-up: {e}")),
        }
    }
    Prepared { pool, seen }
}

/// Set-up repeated `setup_reps` times; the warm-up prefix must report
/// the same cycles and firings on every repetition.
fn timed_set_up(
    w: &BatchWorkload,
    seed: u64,
    sizes: &Sizes,
    tally: &mut Tally,
) -> (Prepared, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept: Option<Prepared> = None;
    for _ in 0..sizes.setup_reps {
        let started = Instant::now();
        let prepared = set_up(w, seed, sizes, tally);
        times.push(started.elapsed().as_secs_f64());
        if kept.is_some_and(|previous| previous.seen != prepared.seen) {
            tally.violation("warm-up instances reported different cycles/firings on repetition");
        }
        kept = Some(prepared);
    }
    (kept.expect("setup_reps >= 1"), times)
}

/// Sums the work of the counted prefix (the first `batch_counted`
/// instances after the warm-up), the same prefix the traced run covers.
fn counted_prefix(seen: &[Option<Work>], sizes: &Sizes) -> Option<Work> {
    seen.iter()
        .skip(sizes.batch_warmup)
        .take(sizes.batch_counted)
        .copied()
        .sum()
}

/// The untraced run: end-to-end metrics over a `seconds`-long window.
/// The timing metrics are the quiet quartile (see `stats`) across rounds
/// of `round_len` instances; the plain whole-window statistics are
/// printed beside them as diagnostics.
pub fn run(w: &BatchWorkload, seed: u64, seconds: f64, sizes: &Sizes) -> RunReport {
    let mut report = RunReport::new(w.name, seed, seconds, false, w.load());
    let mut tally = Tally::default();
    let (Prepared { pool, mut seen }, mut setup_times) = timed_set_up(w, seed, sizes, &mut tally);

    let options = w.options();
    let mut ops = Vec::new();
    let window = Instant::now();
    let mut next = sizes.batch_warmup;
    while window.elapsed().as_secs_f64() < seconds {
        let index = next % pool.len();
        next += 1;
        let start_s = window.elapsed().as_secs_f64();
        match run_instance(pool[index].as_ref(), &options) {
            Ok((wall, work)) => {
                tally.ok();
                ops.push(Op {
                    start_s,
                    end_s: start_s + wall.as_secs_f64(),
                    units: work.firings as f64,
                });
                if seen[index].is_some_and(|earlier| earlier != work) {
                    tally.violation(format!("instance {index} changed its cycles/firings"));
                }
                seen[index] = Some(work);
            }
            Err(e) => tally.fail(e),
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    for _ in 0..sizes.setup_reps_late {
        let started = Instant::now();
        drop(set_up(w, seed, sizes, &mut tally));
        setup_times.push(started.elapsed().as_secs_f64());
    }

    let rounds = stats::rounds(&ops, w.round_len(sizes));
    let medians: Vec<f64> = rounds.iter().map(|r| r.median_ms).collect();
    let rates: Vec<f64> = rounds.iter().map(|r| r.units_per_s).collect();
    let walls_ms: Vec<f64> = ops.iter().map(Op::ms).collect();
    let (n, r) = (ops.len() as u64, rounds.len() as u64);
    report.set(
        "setup_s",
        stats::median(&setup_times).unwrap_or(f64::NAN),
        setup_times.len() as u64,
    );
    report.set(
        "op_ms_p50",
        stats::quiet_quartile(&medians, true).unwrap_or(f64::NAN),
        r,
    );
    report.set(
        "ops_per_s",
        stats::quiet_quartile(&rates, false).unwrap_or(f64::NAN),
        r,
    );
    report.set(
        "peak_rss_mib",
        proc::peak_rss_mib(None).unwrap_or(f64::NAN),
        1,
    );
    report.set_extra(
        "op_ms_p50_whole_window",
        stats::median(&walls_ms).unwrap_or(f64::NAN),
        "ms",
        n,
    );
    report.set_tail_diagnostics(&walls_ms);
    report.set_extra("window_s", window_s, "s", 1);
    report.series.insert("round_op_ms", medians);
    report.series.insert("round_ops_per_s", rates);
    report.set_extra(
        "instances_per_s_whole_window",
        n as f64 / window_s.max(1e-9),
        "1/s",
        n,
    );
    match counted_prefix(&seen, sizes) {
        Some(work) => report.count_work(work),
        None => tally.violation("window ended before the counted prefix completed"),
    }
    report.tally = tally;
    report
}

// --- traced run --------------------------------------------------------

/// The working-memory changes one engine cycle made, and the conflict
/// set the engine's matcher held afterwards.
pub struct CycleDelta {
    pub removed: Vec<Wme>,
    pub added: Vec<Wme>,
    pub cs_len: usize,
}

/// One instance's delta stream, captured from outside the engine by
/// diffing `Engine::wm()` ids around `Engine::step`.
pub struct Captured {
    pub program: Program,
    pub initial: WorkingMemory,
    pub initial_cs_len: usize,
    pub cycles: Vec<CycleDelta>,
}

/// Tracks the engine's working memory between steps.
struct WmDiff {
    known: HashMap<WmeId, Wme>,
    next_id: u64,
}

impl WmDiff {
    fn new(wm: &WorkingMemory) -> WmDiff {
        WmDiff {
            known: wm.iter().map(|w| (w.id, w.clone())).collect(),
            next_id: wm.next_id(),
        }
    }

    /// The changes since the last call: ids are handed out in
    /// increasing order, so every WME at or past the old high-water mark
    /// is an add and every known id now absent is a remove.
    fn advance(&mut self, wm: &WorkingMemory) -> (Vec<Wme>, Vec<Wme>) {
        let mut removed: Vec<Wme> = self
            .known
            .values()
            .filter(|w| !wm.contains(w.id))
            .cloned()
            .collect();
        removed.sort_by_key(|w| w.id);
        let mut added: Vec<Wme> = wm
            .iter()
            .filter(|w| w.id.0 >= self.next_id)
            .cloned()
            .collect();
        added.sort_by_key(|w| w.id);
        for w in &removed {
            self.known.remove(&w.id);
        }
        for w in &added {
            self.known.insert(w.id, w.clone());
        }
        self.next_id = wm.next_id();
        (removed, added)
    }
}

/// What the traced run of one instance hands back besides its spans.
pub struct TracedInstance {
    pub work: Work,
    pub captured: Captured,
    pub stats: parulel_engine::RunStats,
    pub snapshot_bytes: usize,
}

/// Runs one instance with a span around every public call, stepping the
/// engine cycle by cycle to capture its delta stream.
pub fn run_instance_traced(
    s: &dyn Scenario,
    options: &EngineOptions,
    rec: &mut Recorder,
    op_id: u64,
) -> Result<TracedInstance, String> {
    let mut engine = None;
    let mut instance = rec.span("instance", op_id, |rec| -> Result<TracedInstance, String> {
        // `compile` first, as the untraced pipeline runs it; `parse` and
        // `compile_program` are called once more only to be timed.
        let program = rec
            .span("lang.compile", op_id, |_| parulel_lang::compile(s.source()))
            .map_err(|e| e.to_string())?;
        rec.span("lang.parse", op_id, |_| {
            parulel_lang::parse(s.source()).map(|ast| drop(black_box(ast)))
        })
        .map_err(|e| e.to_string())?;
        rec.span("vm.codegen", op_id, |_| {
            drop(black_box(parulel_vm::compile_program(&program)))
        });
        let initial = s.initial_wm();
        let engine = engine.insert(rec.span("engine.build", op_id, |_| {
            Engine::with_policy(
                &program,
                initial.clone(),
                FiringPolicy::fire_all(),
                options.clone(),
            )
        }));
        let initial_cs_len = engine.matcher_metrics().conflict_set;
        let mut diff = WmDiff::new(engine.wm());
        let mut cycles = Vec::new();
        rec.span("engine.run", op_id, |rec| -> Result<(), String> {
            loop {
                let fired = rec
                    .span("engine.step", op_id, |_| engine.step())
                    .map_err(|e| e.to_string())?;
                rec.span("trace.capture", op_id, |_| {
                    let (removed, added) = diff.advance(engine.wm());
                    let cs_len = engine.matcher_metrics().conflict_set;
                    cycles.push(CycleDelta {
                        removed,
                        added,
                        cs_len,
                    });
                });
                if !fired || engine.halted() {
                    return Ok(());
                }
            }
        })?;
        rec.span("validate", op_id, |_| s.validate(engine.wm()))?;
        let stats = engine.stats().clone();
        Ok(TracedInstance {
            work: Work {
                cycles: stats.cycles,
                firings: stats.firings,
            },
            captured: Captured {
                program,
                initial,
                initial_cs_len,
                cycles,
            },
            stats,
            snapshot_bytes: 0,
        })
    })?;
    // The snapshot layer, outside the instance span: no untraced run
    // pays for it, so it must not count as tracing overhead.
    let mut engine = engine.expect("built inside the instance span");
    let bytes = rec.span("engine.snapshot", op_id, |_| engine.checkpoint().to_bytes());
    rec.span("engine.restore", op_id, |_| {
        let snapshot = Snapshot::from_bytes(&bytes).map_err(|e| e.to_string())?;
        engine.restore(&snapshot).map_err(|e| e.to_string())
    })?;
    instance.snapshot_bytes = bytes.len();
    Ok(instance)
}

/// The match layer alone: a fresh matcher fed one captured delta stream.
pub struct Replay {
    pub build: Duration,
    pub seed: Duration,
    pub apply: Duration,
    pub adds: u64,
    pub removes: u64,
    /// Conflict-set size after the seed and after every cycle.
    pub cs_sizes: Vec<usize>,
    pub metrics: MatcherMetrics,
}

pub fn replay(kind: MatcherKind, captured: &Captured) -> Replay {
    let program = Arc::new(captured.program.clone());
    let t = Instant::now();
    let mut matcher = kind.build(program);
    let build = t.elapsed();
    let t = Instant::now();
    matcher.seed(&captured.initial);
    let mut cs_sizes = vec![matcher.conflict_set().len()];
    let seed = t.elapsed();
    let (mut adds, mut removes) = (0u64, 0u64);
    let t = Instant::now();
    for cycle in &captured.cycles {
        matcher.apply(&cycle.removed, &cycle.added);
        cs_sizes.push(matcher.conflict_set().len());
        adds += cycle.added.len() as u64;
        removes += cycle.removed.len() as u64;
    }
    let apply = t.elapsed();
    Replay {
        build,
        seed,
        apply,
        adds,
        removes,
        cs_sizes,
        metrics: matcher.metrics(),
    }
}

/// The engine's own conflict-set sizes over a captured run, in the same
/// positions as [`Replay::cs_sizes`].
pub fn engine_cs_sizes(captured: &Captured) -> Vec<usize> {
    std::iter::once(captured.initial_cs_len)
        .chain(captured.cycles.iter().map(|c| c.cs_len))
        .collect()
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The traced run: the counted prefix untraced, then traced, then the
/// match layer replayed alone. Times of spans and replays are medians
/// over the prefix's instances, the engine's own phase split is its mean
/// per instance, shares are ratios of sums, and counts are sums.
pub fn run_traced(
    w: &BatchWorkload,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    out: &Path,
) -> RunReport {
    let mut report = RunReport::new(w.name, seed, seconds, true, w.load());
    let mut tally = Tally::default();
    let Prepared { pool, .. } = set_up(w, seed, sizes, &mut tally);
    let options = w.options();
    let prefix: Vec<&dyn Scenario> = pool
        .iter()
        .skip(sizes.batch_warmup)
        .take(sizes.batch_counted)
        .map(|s| s.as_ref())
        .collect();
    let harness_cpu = proc::cpu_seconds(None).unwrap_or(0.0);

    let mut untraced = Duration::ZERO;
    let mut plain_work = Vec::new();
    for s in &prefix {
        match run_instance(*s, &options) {
            Ok((wall, work)) => {
                untraced += wall;
                plain_work.push(work);
            }
            Err(e) => tally.violation(format!("untraced pass: {e}")),
        }
    }

    let mut rec = Recorder::new(Instant::now());
    let mut traced = Vec::new();
    for (i, s) in prefix.iter().enumerate() {
        match run_instance_traced(*s, &options, &mut rec, i as u64) {
            Ok(instance) => {
                tally.ok();
                traced.push(instance);
            }
            Err(e) => tally.fail(e),
        }
    }
    if traced.iter().map(|t| t.work).collect::<Vec<_>>() != plain_work {
        tally.violation("traced and untraced passes disagree on cycles/firings");
    }

    let n = traced.len().max(1) as f64;
    let mut replay_time = Duration::ZERO;
    let (mut build, mut seed_t, mut apply) = (Vec::new(), Vec::new(), Vec::new());
    let mut apply_total = Duration::ZERO;
    let (mut adds, mut removes, mut cs_peak) = (0u64, 0u64, 0usize);
    let (mut alpha_wmes, mut beta_tokens, mut alpha_nodes) = (0usize, 0usize, 0usize);
    let (mut share_hits, mut reenumerations, mut imbalance) = (0u64, 0u64, 0.0);
    for instance in &traced {
        let r = replay(w.matcher, &instance.captured);
        if r.cs_sizes != engine_cs_sizes(&instance.captured) {
            tally.violation("replayed matcher diverged from the engine's conflict-set sizes");
        }
        build.push(us(r.build));
        seed_t.push(us(r.seed));
        apply.push(us(r.apply));
        apply_total += r.apply;
        replay_time += r.seed + r.apply;
        adds += r.adds;
        removes += r.removes;
        cs_peak = cs_peak.max(r.cs_sizes.iter().copied().max().unwrap_or(0));
        alpha_wmes = alpha_wmes.max(r.metrics.alpha_wmes);
        beta_tokens = beta_tokens.max(r.metrics.beta_tokens);
        alpha_nodes = alpha_nodes.max(r.metrics.alpha_nodes);
        share_hits += r.metrics.alpha_share_hits;
        reenumerations += r.metrics.reenumerations;
        imbalance += r.metrics.imbalance();
    }

    let span_us = |name: &str| rec.median_us(name).1;
    let samples = traced.len() as u64;
    let traced_wall = rec.totals().get("instance").map_or(0, |t| t.total_ns) as f64 / 1e9;
    report.set(
        "trace.overhead_ratio",
        traced_wall / untraced.as_secs_f64().max(1e-9),
        samples,
    );
    report.set("lang.parse_us", span_us("lang.parse"), samples);
    report.set("lang.compile_us", span_us("lang.compile"), samples);
    report.set("vm.codegen_us", span_us("vm.codegen"), samples);
    report.set(
        "match.build_us",
        stats::median(&build).unwrap_or(0.0),
        samples,
    );
    report.set(
        "match.seed_us",
        stats::median(&seed_t).unwrap_or(0.0),
        samples,
    );
    report.set(
        "match.apply_us",
        stats::median(&apply).unwrap_or(0.0),
        samples,
    );
    report.set(
        "match.us_per_change",
        us(apply_total) / (adds + removes).max(1) as f64,
        adds + removes,
    );
    report.set(
        "match.share",
        replay_time.as_secs_f64() / untraced.as_secs_f64().max(1e-9),
        samples,
    );
    report.set_exact("match.adds", adds, samples);
    report.set_exact("match.removes", removes, samples);
    report.set("match.cs_peak", cs_peak as f64, samples);
    report.set("match.alpha_wmes", alpha_wmes as f64, samples);
    report.set("match.beta_tokens", beta_tokens as f64, samples);
    report.set("match.alpha_nodes", alpha_nodes as f64, samples);
    report.set("match.alpha_share_hits", share_hits as f64, samples);
    report.set("match.reenumerations", reenumerations as f64, samples);
    report.set("match.shard_imbalance", imbalance / n, samples);

    let sum = |f: fn(&parulel_engine::RunStats) -> Duration| -> Duration {
        traced.iter().map(|t| f(&t.stats)).sum()
    };
    let (m, r, f, a) = (
        sum(|s| s.match_time),
        sum(|s| s.redact_time),
        sum(|s| s.fire_time),
        sum(|s| s.apply_time),
    );
    let count = |f: fn(&parulel_engine::RunStats) -> u64| -> u64 {
        traced.iter().map(|t| f(&t.stats)).sum()
    };
    report.set("engine.build_us", span_us("engine.build"), samples);
    report.set("engine.run_us", span_us("engine.run"), samples);
    report.set("engine.phase.match_us", us(m) / n, samples);
    report.set("engine.phase.redact_us", us(r) / n, samples);
    report.set("engine.phase.fire_us", us(f) / n, samples);
    report.set("engine.phase.apply_us", us(a) / n, samples);
    report.set(
        "engine.redact_share",
        r.as_secs_f64() / (m + r + f + a).as_secs_f64().max(1e-9),
        samples,
    );
    let (cycles, firings) = (count(|s| s.cycles), count(|s| s.firings));
    let (redactions, meta_rounds) = (count(|s| s.redacted_meta), count(|s| s.meta_rounds));
    report.set_work(Work { cycles, firings }, samples);
    report.set_exact("engine.redactions", redactions, samples);
    report.set_exact("engine.meta_rounds", meta_rounds, samples);
    report.set(
        "engine.peak_eligible",
        traced
            .iter()
            .map(|t| t.stats.peak_eligible)
            .max()
            .unwrap_or(0) as f64,
        samples,
    );
    report.set("engine.snapshot_us", span_us("engine.snapshot"), samples);
    report.set("engine.restore_us", span_us("engine.restore"), samples);
    report.set(
        "engine.snapshot_bytes",
        traced.iter().map(|t| t.snapshot_bytes).sum::<usize>() as f64 / n,
        samples,
    );
    report.set(
        "proc.harness_cpu_s",
        proc::cpu_seconds(None).unwrap_or(0.0) - harness_cpu,
        1,
    );
    report.zero_fill_per_layer();

    if let Err(e) = rec.write_jsonl(&out.join(format!("{}.trace.jsonl", w.name))) {
        tally.violation(format!("writing the trace: {e}"));
    }
    report.tally = tally;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The capture must hand the replayed matcher exactly what the
    /// engine's matcher saw: same conflict-set size after the seed and
    /// after every cycle, adds and removes both.
    #[test]
    fn delta_capture_replay_tracks_the_engine_conflict_set_every_cycle() {
        let cases = [
            (
                BatchKind::Closure {
                    nodes: 16,
                    edges: 28,
                },
                MatcherKind::Rete,
            ),
            (
                BatchKind::Closure {
                    nodes: 16,
                    edges: 28,
                },
                MatcherKind::PartitionedRete(2),
            ),
            (
                BatchKind::Market {
                    per_side: 24,
                    symbols: 4,
                },
                MatcherKind::Treat,
            ),
        ];
        for (kind, matcher) in cases {
            let s = kind.instance(1991, 0);
            let options = EngineOptions {
                matcher,
                ..EngineOptions::default()
            };
            let mut rec = Recorder::new(Instant::now());
            let traced = run_instance_traced(s.as_ref(), &options, &mut rec, 0).unwrap();
            let (_, plain) = run_instance(s.as_ref(), &options).unwrap();
            assert_eq!(traced.work, plain, "{kind:?}");
            let steps = traced.captured.cycles.len() as u64;
            assert!(
                steps >= plain.cycles,
                "one capture per step, the quiescent one included"
            );

            let r = replay(matcher, &traced.captured);
            assert_eq!(
                r.cs_sizes,
                engine_cs_sizes(&traced.captured),
                "{kind:?} {matcher:?}"
            );
            assert!(r.cs_sizes.iter().any(|&n| n > 0));
            assert!(r.adds > 0);
            if matches!(kind, BatchKind::Market { .. }) {
                assert!(r.removes > 0, "market retracts two orders per trade");
            }
            assert_eq!(rec.totals()["engine.step"].count, steps);
        }
    }
}
