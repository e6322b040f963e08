//! Determinism guarantees: a PARULEL run is a pure function of
//! (program, initial WM, options) — independent of thread scheduling,
//! hash iteration order, and how many workers the matcher runs.

use parulel::prelude::*;
use parulel::workloads::{self, Scenario};

fn scenarios() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(workloads::Closure::new(12, 20, 1)),
        Box::new(workloads::LabelProp::new(16, 20, 2)),
        Box::new(workloads::Seating::new(2, 6, 3)),
        Box::new(workloads::Market::new(12, 3, 4)),
        Box::new(workloads::Waltz::new(8, 4, 5)),
        Box::new(workloads::WaltzDb::new(3, 3, 3, 6)),
    ]
}

#[test]
fn identical_runs_are_byte_identical() {
    for s in scenarios() {
        let run = || {
            let mut e = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
            let out = e.run().unwrap();
            (
                out.cycles,
                out.firings,
                e.log().to_vec(),
                e.wm().sorted_snapshot(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0, "{} cycles differ", s.name());
        assert_eq!(a.1, b.1, "{} firings differ", s.name());
        assert_eq!(a.2, b.2, "{} logs differ", s.name());
        assert_eq!(a.3, b.3, "{} final WMs differ", s.name());
    }
}

/// Observability must be read-only: turning metrics collection on (at
/// any level) cannot change a single bit of the run — same cycles, same
/// firings, same log, same final working memory. Conversely, the default
/// `MetricsLevel::Off` run is exactly the uninstrumented hot path.
#[test]
fn metrics_collection_does_not_perturb_the_run() {
    for s in scenarios() {
        let run = |level: MetricsLevel| {
            let mut e = Engine::new(
                s.program(),
                s.initial_wm(),
                EngineOptions {
                    metrics: level,
                    ..Default::default()
                },
            );
            let out = e.run().unwrap();
            (
                out.cycles,
                out.firings,
                e.log().to_vec(),
                e.wm().sorted_snapshot(),
            )
        };
        let off = run(MetricsLevel::Off);
        for level in [MetricsLevel::Rules, MetricsLevel::Full] {
            let on = run(level);
            assert_eq!(off, on, "{} at {level:?} diverged from Off", s.name());
        }
    }
}

/// The per-rule counters must agree with the run totals the engine
/// already reports — firings sum to `Outcome::firings`, and every
/// observed peak is at least the final state's size.
#[test]
fn metrics_counters_are_consistent_with_run_totals() {
    for s in scenarios() {
        let mut e = Engine::new(
            s.program(),
            s.initial_wm(),
            EngineOptions {
                metrics: MetricsLevel::Full,
                ..Default::default()
            },
        );
        let out = e.run().unwrap();
        let m = e.metrics();
        let fired: u64 = m.per_rule.iter().map(|r| r.fired).sum();
        assert_eq!(fired, out.firings, "{}", s.name());
        let redacted: u64 = m.per_rule.iter().map(|r| r.redacted_meta).sum();
        assert_eq!(redacted, e.stats().redacted_meta, "{}", s.name());
        assert!(m.peak_wm >= e.wm().len(), "{}", s.name());
        assert!(
            m.peak_conflict_set >= e.stats().peak_eligible,
            "{}",
            s.name()
        );
    }
}

#[test]
fn worker_count_does_not_change_results() {
    for s in scenarios() {
        let run = |n: usize| {
            let mut e = Engine::new(
                s.program(),
                s.initial_wm(),
                EngineOptions {
                    matcher: MatcherKind::PartitionedRete(n),
                    ..Default::default()
                },
            );
            e.run().unwrap();
            e.wm().sorted_snapshot()
        };
        let one = run(1);
        for n in [2, 5, 16] {
            assert_eq!(run(n), one, "{} with {n} workers", s.name());
        }
    }
}

/// Checkpointing at cycle `k` and resuming from the serialized snapshot
/// must finish with exactly the WM, log, and cycle count of a run that
/// was never interrupted — for every workload and every interruption
/// point, including "before the first cycle" and "after quiescence".
#[test]
fn checkpoint_and_resume_match_uninterrupted_run() {
    for s in scenarios() {
        let mut full = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        let out = full.run().unwrap();
        let reference = (out.cycles, full.log().to_vec(), full.wm().sorted_snapshot());

        for k in 0..=out.cycles {
            let mut head =
                Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
            for _ in 0..k {
                assert!(head.step().unwrap(), "{} stopped before cycle {k}", s.name());
            }
            // Round-trip through the wire format, then resume against a
            // freshly compiled program (as a separate process would).
            let bytes = head.checkpoint().to_bytes();
            let snap = Snapshot::from_bytes(&bytes).unwrap();
            let mut tail =
                Engine::resume(s.program(), &snap, EngineOptions::default()).unwrap();
            let rest = tail.run().unwrap();
            assert_eq!(
                snap.cycle + rest.cycles,
                reference.0,
                "{} resumed at {k}: cycle counts differ",
                s.name()
            );
            assert_eq!(
                tail.log(),
                &reference.1[..],
                "{} resumed at {k}: logs differ",
                s.name()
            );
            assert_eq!(
                tail.wm().sorted_snapshot(),
                reference.2,
                "{} resumed at {k}: final WMs differ",
                s.name()
            );
        }
    }
}

/// A resumed engine is a full citizen: checkpointing *it* mid-flight and
/// resuming again still converges on the uninterrupted result.
#[test]
fn chained_checkpoints_stay_deterministic() {
    for s in scenarios() {
        let mut full = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        full.run().unwrap();
        let want = full.wm().sorted_snapshot();

        let mut head =
            Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        head.step().unwrap();
        let mut mid =
            Engine::resume(s.program(), &head.checkpoint(), Default::default()).unwrap();
        mid.step().unwrap();
        let mut tail =
            Engine::resume(s.program(), &mid.checkpoint(), Default::default()).unwrap();
        tail.run().unwrap();
        assert_eq!(tail.wm().sorted_snapshot(), want, "{}", s.name());
    }
}

/// Pre-refactor behavioral lock-in for the engine-unification refactor.
///
/// These constants were captured from the two hand-written engines
/// (one serial, one parallel) *before* they were folded into the single
/// `Engine` cycle kernel with pluggable firing policies. Every arm —
/// OPS5 select-one under LEX and MEA, and PARULEL fire-all — must
/// reproduce the exact `RunStats`, `Outcome` flags, and final working
/// memory (length + FNV-1a fingerprint of the canonical fact dump) the
/// old engines produced. Any drift here means the refactor changed
/// semantics, not just structure.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    cycles: u64,
    firings: u64,
    redacted_meta: u64,
    redacted_guard: u64,
    meta_rounds: u64,
    peak_eligible: usize,
    total_eligible: u64,
    adds: u64,
    removes: u64,
    halted: bool,
    quiescent: bool,
    hit_cycle_limit: bool,
    wm_len: usize,
    wm_fnv: u64,
}

fn observe(out: &Outcome, stats: &parulel::engine::RunStats, wm: &WorkingMemory) -> Golden {
    Golden {
        cycles: stats.cycles,
        firings: stats.firings,
        redacted_meta: stats.redacted_meta,
        redacted_guard: stats.redacted_guard,
        meta_rounds: stats.meta_rounds,
        peak_eligible: stats.peak_eligible,
        total_eligible: stats.total_eligible,
        adds: stats.adds,
        removes: stats.removes,
        halted: out.halted,
        quiescent: out.quiescent,
        hit_cycle_limit: out.hit_cycle_limit,
        wm_len: wm.len(),
        wm_fnv: parulel::core::fnv1a(format!("{:?}", wm.canonical_facts()).as_bytes()),
    }
}

#[rustfmt::skip]
fn goldens() -> Vec<(&'static str, &'static str, Golden)> {
    vec![
        ("closure(n=12,e=20)", "lex", Golden { cycles: 132, firings: 132, redacted_meta: 0, redacted_guard: 0, meta_rounds: 0, peak_eligible: 22, total_eligible: 1188, adds: 132, removes: 0, halted: false, quiescent: true, hit_cycle_limit: false, wm_len: 152, wm_fnv: 0x3c4ca7fa276198f8 }),
        ("closure(n=12,e=20)", "mea", Golden { cycles: 132, firings: 132, redacted_meta: 0, redacted_guard: 0, meta_rounds: 0, peak_eligible: 22, total_eligible: 1188, adds: 132, removes: 0, halted: false, quiescent: true, hit_cycle_limit: false, wm_len: 152, wm_fnv: 0x3c4ca7fa276198f8 }),
        ("closure(n=12,e=20)", "fire-all", Golden { cycles: 9, firings: 143, redacted_meta: 0, redacted_guard: 0, meta_rounds: 0, peak_eligible: 26, total_eligible: 143, adds: 143, removes: 0, halted: false, quiescent: true, hit_cycle_limit: false, wm_len: 163, wm_fnv: 0xb120feffc9927dcd }),
        ("labelprop(n=16,e=20)", "lex", Golden { cycles: 15, firings: 15, redacted_meta: 0, redacted_guard: 0, meta_rounds: 0, peak_eligible: 20, total_eligible: 194, adds: 15, removes: 15, halted: false, quiescent: true, hit_cycle_limit: false, wm_len: 56, wm_fnv: 0x321599bbd247b293 }),
        ("labelprop(n=16,e=20)", "mea", Golden { cycles: 17, firings: 17, redacted_meta: 0, redacted_guard: 0, meta_rounds: 0, peak_eligible: 20, total_eligible: 198, adds: 17, removes: 17, halted: false, quiescent: true, hit_cycle_limit: false, wm_len: 56, wm_fnv: 0x321599bbd247b293 }),
        ("labelprop(n=16,e=20)", "fire-all", Golden { cycles: 5, firings: 29, redacted_meta: 12, redacted_guard: 0, meta_rounds: 2, peak_eligible: 20, total_eligible: 41, adds: 29, removes: 29, halted: false, quiescent: true, hit_cycle_limit: false, wm_len: 56, wm_fnv: 0x321599bbd247b293 }),
        ("market(n=12x2,sym=3)", "lex", Golden { cycles: 6, firings: 6, redacted_meta: 0, redacted_guard: 0, meta_rounds: 0, peak_eligible: 25, total_eligible: 68, adds: 6, removes: 12, halted: false, quiescent: true, hit_cycle_limit: false, wm_len: 18, wm_fnv: 0xaedbce53855a77d6 }),
        ("market(n=12x2,sym=3)", "mea", Golden { cycles: 6, firings: 6, redacted_meta: 0, redacted_guard: 0, meta_rounds: 0, peak_eligible: 25, total_eligible: 74, adds: 6, removes: 12, halted: false, quiescent: true, hit_cycle_limit: false, wm_len: 18, wm_fnv: 0xaedbce53855a77d6 }),
        ("market(n=12x2,sym=3)", "fire-all", Golden { cycles: 3, firings: 5, redacted_meta: 33, redacted_guard: 0, meta_rounds: 3, peak_eligible: 25, total_eligible: 38, adds: 5, removes: 10, halted: false, quiescent: true, hit_cycle_limit: false, wm_len: 19, wm_fnv: 0xbbc86e6efffde22d }),
    ]
}

fn golden_scenario(name: &str) -> Box<dyn Scenario> {
    match name {
        "closure(n=12,e=20)" => Box::new(workloads::Closure::new(12, 20, 1)),
        "labelprop(n=16,e=20)" => Box::new(workloads::LabelProp::new(16, 20, 2)),
        "market(n=12x2,sym=3)" => Box::new(workloads::Market::new(12, 3, 4)),
        other => panic!("unknown golden scenario {other}"),
    }
}

fn golden_policy(arm: &str) -> FiringPolicy {
    FiringPolicy::from_tag(match arm {
        "lex" => "select-one-lex",
        "mea" => "select-one-mea",
        _ => "fire-all",
    })
    .unwrap()
}

#[test]
fn golden_lock_in_all_policies() {
    for (name, arm, want) in goldens() {
        let s = golden_scenario(name);
        let mut e = Engine::with_policy(
            s.program(),
            s.initial_wm(),
            golden_policy(arm),
            EngineOptions::default(),
        );
        let out = e.run().unwrap();
        let got = observe(&out, e.stats(), e.wm());
        assert_eq!(got, want, "{name}/{arm} drifted from pre-refactor behavior");
    }
}

/// Checkpoint bytes are pinned: FNV-1a of `Snapshot::to_bytes` after one
/// cycle, three cycles and quiescence. The encoding carries no wall-clock
/// field, and everything it does carry (WM, refraction, counters, log,
/// rule hashes) is a pure function of the run, so it must encode to the
/// same bytes forever.
#[test]
fn checkpoint_bytes_are_pinned() {
    let pins: [(&str, [u64; 3]); 2] = [
        ("closure(n=12,e=20)", [0xcb514c49f382d878, 0x913ec4e610193bf4, 0x53f7d31370214631]),
        ("market(n=12x2,sym=3)", [0xe5fabd31490da366, 0x81817c97762d8b82, 0x81817c97762d8b82]),
    ];
    let capture = |e: &Engine| parulel::core::fnv1a(&e.checkpoint().to_bytes());
    for (name, want) in pins {
        let s = golden_scenario(name);
        let mut e = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        e.step().unwrap();
        let one = capture(&e);
        e.step().unwrap();
        e.step().unwrap();
        let three = capture(&e);
        e.run().unwrap();
        assert_eq!([one, three, capture(&e)], want, "{name}");
    }
}

#[test]
fn stepping_equals_running() {
    for s in scenarios() {
        let mut stepped =
            Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        let mut steps = 0u64;
        while stepped.step().unwrap() {
            steps += 1;
        }
        let mut ran = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        let out = ran.run().unwrap();
        assert_eq!(steps, out.cycles, "{}", s.name());
        assert_eq!(
            stepped.wm().sorted_snapshot(),
            ran.wm().sorted_snapshot(),
            "{}",
            s.name()
        );
    }
}
