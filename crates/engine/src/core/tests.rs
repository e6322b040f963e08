//! Unit tests for the cycle kernel: the fire-all policy first, then the
//! select-one (LEX/MEA) baseline over the same [`Engine`].

use super::*;
use crate::fire::EngineError;
use crate::snapshot::Snapshot;
use crate::stats::RunStats;
use crate::{EngineOptions, MatcherKind, Strategy};
use parulel_core::{Value, WorkingMemory};
use parulel_lang::compile;

fn wm_with(p: &Program, facts: &[(&str, Vec<Value>)]) -> WorkingMemory {
    let mut wm = WorkingMemory::new(&p.classes);
    for (class, fields) in facts {
        let cid = p.classes.id_of(p.interner.intern(class)).unwrap();
        wm.insert(cid, fields.clone());
    }
    wm
}

fn engine(src: &str, facts: &[(&str, Vec<Value>)], opts: EngineOptions) -> Engine {
    let p = compile(src).unwrap();
    let wm = wm_with(&p, facts);
    Engine::new(&p, wm, opts)
}

#[test]
fn counter_runs_to_quiescence() {
    let mut e = engine(
        "(literalize count n)
         (p step (count ^n <n>) (test (< <n> 5)) --> (modify 1 ^n (+ <n> 1)))",
        &[("count", vec![Value::Int(0)])],
        EngineOptions::default(),
    );
    let out = e.run().unwrap();
    assert!(out.quiescent);
    assert!(!out.halted);
    assert_eq!(out.cycles, 5);
    assert_eq!(out.firings, 5);
    let final_n = e.wm().iter().next().unwrap().field(0);
    assert_eq!(final_n, Value::Int(5));
}

#[test]
fn set_oriented_firing_runs_all_instantiations_in_one_cycle() {
    let mut e = engine(
        "(literalize cell id v)
         (p bump (cell ^id <i> ^v 0) --> (modify 1 ^v 1))",
        &[
            ("cell", vec![Value::Int(1), Value::Int(0)]),
            ("cell", vec![Value::Int(2), Value::Int(0)]),
            ("cell", vec![Value::Int(3), Value::Int(0)]),
            ("cell", vec![Value::Int(4), Value::Int(0)]),
        ],
        EngineOptions::default(),
    );
    let out = e.run().unwrap();
    assert_eq!(out.cycles, 1, "all four fire simultaneously");
    assert_eq!(out.firings, 4);
    assert!(e.wm().iter().all(|w| w.field(1) == Value::Int(1)));
}

#[test]
fn meta_redaction_serializes_conflicting_work() {
    // Two jobs want the one machine; the meta-rule keeps the shorter.
    let src = "
        (literalize job id len done)
        (literalize machine busy)
        (p run (job ^id <j> ^len <l> ^done no) (machine ^busy no)
         --> (modify 1 ^done yes))
        (mp shortest-first
          (inst run (job ^len <l1>) _)
          (inst run (job ^len <l2>) _)
          (test (> <l1> <l2>))
         --> (redact 1))";
    let p = compile(src).unwrap();
    let mut wm = WorkingMemory::new(&p.classes);
    let i = &p.interner;
    let job = p.classes.id_of(i.intern("job")).unwrap();
    let machine = p.classes.id_of(i.intern("machine")).unwrap();
    let (no, yes) = (i.intern("no"), i.intern("yes"));
    wm.insert(job, vec![Value::Int(1), Value::Int(9), Value::Sym(no)]);
    wm.insert(job, vec![Value::Int(2), Value::Int(3), Value::Sym(no)]);
    wm.insert(machine, vec![Value::Sym(no)]);
    let mut e = Engine::new(&p, wm, EngineOptions::default());
    let out = e.run().unwrap();
    // Cycle 1: both jobs eligible, meta keeps job 2 only. Cycle 2:
    // job 1 (no longer redacted — job 2 is done) fires.
    assert_eq!(out.cycles, 2);
    assert_eq!(out.firings, 2);
    assert_eq!(e.stats().redacted_meta, 1);
    assert!(e
        .wm()
        .iter_class(job)
        .all(|w| w.field(2) == Value::Sym(yes)));
}

#[test]
fn halt_stops_the_run() {
    let mut e = engine(
        "(literalize count n)
         (p step (count ^n <n>) --> (modify 1 ^n (+ <n> 1)))
         (p stop (count ^n 3) --> (halt))",
        &[("count", vec![Value::Int(0)])],
        EngineOptions::default(),
    );
    let out = e.run().unwrap();
    assert!(out.halted);
    assert!(!out.quiescent);
    // count reaches 3, `stop` fires (with `step` also firing that
    // cycle), run ends after that cycle: n == 4.
    let n = e.wm().iter().next().unwrap().field(0);
    assert_eq!(n, Value::Int(4));
}

#[test]
fn cycle_limit_catches_runaways() {
    let mut e = engine(
        "(literalize count n)
         (p grow (count ^n <n>) --> (modify 1 ^n (+ <n> 1)))",
        &[("count", vec![Value::Int(0)])],
        EngineOptions {
            max_cycles: 10,
            ..Default::default()
        },
    );
    let out = e.run().unwrap();
    assert!(out.hit_cycle_limit);
    assert_eq!(out.cycles, 10);
}

/// Drives `e`'s run to its end in slices of `quantum` cycles; returns
/// the whole-run outcome and how many slices it took.
fn run_sliced(e: &mut Engine, quantum: u64) -> (Outcome, usize) {
    for slices in 1.. {
        if let Some(outcome) = e.run_slice(quantum).unwrap() {
            return (outcome, slices);
        }
    }
    unreachable!()
}

/// The `RunEnd` events in `e`'s trace ring, as `(cycles, firings, status)`.
fn run_ends(e: &Engine) -> Vec<(u64, u64, &'static str)> {
    use crate::metrics::TraceEvent;
    let buf = e.trace_events().expect("ring enabled");
    buf.events()
        .filter_map(|ev| match ev {
            TraceEvent::RunEnd {
                cycles,
                firings,
                status,
            } => Some((*cycles, *firings, *status)),
            _ => None,
        })
        .collect()
}

#[test]
fn a_sliced_run_matches_one_uninterrupted_run() {
    let src = "(literalize count id n)
         (p step (count ^id <i> ^n <n>) (test (< <n> 6)) --> (modify 1 ^n (+ <n> 1)))";
    let facts = [
        ("count", vec![Value::Int(1), Value::Int(0)]),
        ("count", vec![Value::Int(2), Value::Int(3)]),
    ];
    let opts = || EngineOptions {
        trace_events: Some(256),
        ..Default::default()
    };
    // Wall times differ run to run; every count must not.
    let counts = |e: &Engine| RunStats {
        match_time: Default::default(),
        redact_time: Default::default(),
        fire_time: Default::default(),
        apply_time: Default::default(),
        ..e.stats().clone()
    };
    let wmes = |e: &Engine| {
        let mut wmes: Vec<Wme> = e.wm().iter().cloned().collect();
        wmes.sort_by_key(|w| w.id);
        wmes
    };
    let mut whole = engine(src, &facts, opts());
    let expected = whole.run().unwrap();
    assert_eq!((expected.cycles, expected.firings), (6, 9));
    assert_eq!(run_ends(&whole), [(6, 9, "quiescent")]);
    for quantum in [1, 2] {
        let mut sliced = engine(src, &facts, opts());
        let (outcome, slices) = run_sliced(&mut sliced, quantum);
        assert!(slices > 1, "quantum {quantum} ran in one slice");
        let fields = |o: &Outcome| {
            (
                o.cycles,
                o.firings,
                o.halted,
                o.quiescent,
                o.hit_cycle_limit,
            )
        };
        assert_eq!(fields(&outcome), fields(&expected), "quantum {quantum}");
        assert_eq!(counts(&sliced), counts(&whole), "quantum {quantum}");
        assert_eq!(wmes(&sliced), wmes(&whole), "quantum {quantum}");
        assert_eq!(run_ends(&sliced), run_ends(&whole), "quantum {quantum}");
    }
}

#[test]
fn a_sliced_run_stops_at_the_runs_cycle_limit() {
    let mut e = engine(
        "(literalize count n)
         (p grow (count ^n <n>) --> (modify 1 ^n (+ <n> 1)))",
        &[("count", vec![Value::Int(0)])],
        EngineOptions {
            max_cycles: 5,
            trace_events: Some(256),
            ..Default::default()
        },
    );
    assert!(
        e.run_slice(2).unwrap().is_none(),
        "2 of 5 cycles: the run goes on"
    );
    // A cycle taken between slices is not the run's: the run still gets
    // its own 5 cycles.
    assert!(e.step().unwrap());
    let (outcome, slices) = run_sliced(&mut e, 2);
    assert_eq!(slices, 2, "2 more cycles, then the last 1");
    assert_eq!((outcome.cycles, outcome.firings), (5, 5));
    assert_eq!(outcome.status(), "cycle-limit");
    assert_eq!(e.stats().cycles, 6);
    assert_eq!(run_ends(&e), [(5, 5, "cycle-limit")]);
}

#[test]
fn refraction_prevents_refiring_pure_makes() {
    let mut e = engine(
        "(literalize seed v)
         (literalize derived v)
         (p derive (seed ^v <x>) --> (make derived ^v <x>))",
        &[("seed", vec![Value::Int(1)]), ("seed", vec![Value::Int(2)])],
        EngineOptions::default(),
    );
    let out = e.run().unwrap();
    assert_eq!(out.cycles, 1);
    assert_eq!(out.firings, 2);
    assert_eq!(e.wm().len(), 4); // 2 seeds + 2 derived, no runaway
}

#[test]
fn write_log_collected_in_key_order() {
    let mut e = engine(
        "(literalize n v)
         (p say (n ^v <x>) --> (write saw <x>) (remove 1))",
        &[("n", vec![Value::Int(10)]), ("n", vec![Value::Int(20)])],
        EngineOptions::default(),
    );
    e.run().unwrap();
    assert_eq!(e.log(), &["saw 10".to_string(), "saw 20".to_string()]);
}

#[test]
fn inject_feeds_the_running_engine() {
    let mut e = engine(
        "(literalize req id)
         (literalize done id)
         (p serve (req ^id <r>) --> (remove 1) (make done ^id <r>))",
        &[("req", vec![Value::Int(1)])],
        EngineOptions::default(),
    );
    let out = e.run().unwrap();
    assert_eq!((out.cycles, out.firings), (1, 1));
    // Inject two more requests into the live engine.
    let req = e
        .program()
        .classes
        .id_of(e.program().interner.intern("req"))
        .unwrap();
    let mut delta = parulel_core::Delta::new();
    delta.adds.push((req, vec![Value::Int(2)].into()));
    delta.adds.push((req, vec![Value::Int(3)].into()));
    let (removed, added) = e.inject(&delta);
    assert!(removed.is_empty());
    assert_eq!(added.len(), 2);
    let out = e.run().unwrap();
    assert_eq!((out.cycles, out.firings), (1, 2), "per-call outcome");
    assert_eq!(e.stats().firings, 3, "lifetime stats keep the total");
    let done = e
        .program()
        .classes
        .id_of(e.program().interner.intern("done"))
        .unwrap();
    assert_eq!(e.wm().iter_class(done).count(), 3);
}

#[test]
fn metrics_collect_per_rule_counters_and_peaks() {
    use crate::metrics::MetricsLevel;
    // Reuse the redaction scenario: job 1 is redacted once, then fires.
    let src = "
        (literalize job id len done)
        (literalize machine busy)
        (p run (job ^id <j> ^len <l> ^done no) (machine ^busy no)
         --> (modify 1 ^done yes))
        (mp shortest-first
          (inst run (job ^len <l1>) _)
          (inst run (job ^len <l2>) _)
          (test (> <l1> <l2>))
         --> (redact 1))";
    let p = compile(src).unwrap();
    let mut wm = WorkingMemory::new(&p.classes);
    let i = &p.interner;
    let job = p.classes.id_of(i.intern("job")).unwrap();
    let machine = p.classes.id_of(i.intern("machine")).unwrap();
    let no = i.intern("no");
    wm.insert(job, vec![Value::Int(1), Value::Int(9), Value::Sym(no)]);
    wm.insert(job, vec![Value::Int(2), Value::Int(3), Value::Sym(no)]);
    wm.insert(machine, vec![Value::Sym(no)]);
    let mut e = Engine::new(
        &p,
        wm,
        EngineOptions {
            metrics: MetricsLevel::Full,
            ..Default::default()
        },
    );
    e.run().unwrap();
    let run_rule = p.rule_by_name(p.interner.intern("run")).unwrap();
    let m = e.metrics().rule(run_rule);
    // Cycle 1: both instantiations eligible, one redacted, one fires.
    // Cycle 2: job 1 eligible again and fires.
    assert_eq!(m.matched, 3);
    assert_eq!(m.fired, 2);
    assert_eq!(m.redacted_meta, 1);
    assert_eq!(m.redacted_guard, 0);
    assert_eq!(e.metrics().peak_wm, 3);
    assert_eq!(e.metrics().peak_conflict_set, 2);
    assert!(e.metrics().peak_alpha_wmes > 0, "Full level samples the matcher");
    // The lifetime totals agree with RunStats.
    let fired_total: u64 = e.metrics().per_rule.iter().map(|r| r.fired).sum();
    assert_eq!(fired_total, e.stats().firings);
    // And a default-options engine collects nothing.
    assert!(Engine::new(&p, WorkingMemory::new(&p.classes), Default::default())
        .metrics()
        .per_rule
        .is_empty());
}

#[test]
fn trace_events_record_spans_and_run_end() {
    use crate::metrics::TraceEvent;
    let mut e = engine(
        "(literalize count n)
         (p step (count ^n <n>) (test (< <n> 3)) --> (modify 1 ^n (+ <n> 1)))",
        &[("count", vec![Value::Int(0)])],
        EngineOptions {
            trace_events: Some(64),
            ..Default::default()
        },
    );
    e.run().unwrap();
    let buf = e.trace_events().expect("ring enabled");
    // 3 cycles x 4 spans + run-end.
    assert_eq!(buf.len(), 13);
    assert_eq!(buf.dropped(), 0);
    let spans = buf
        .events()
        .filter(|ev| matches!(ev, TraceEvent::Span { .. }))
        .count();
    assert_eq!(spans, 12);
    match buf.events().last().unwrap() {
        TraceEvent::RunEnd { cycles, firings, status } => {
            assert_eq!((*cycles, *firings), (3, 3));
            assert_eq!(*status, "quiescent");
        }
        other => panic!("expected run-end, got {other:?}"),
    }
    let jsonl = buf.to_jsonl();
    for line in jsonl.lines() {
        crate::json::Json::parse(line).expect("every trace line parses");
    }
}

#[test]
fn budget_trip_lands_in_the_trace_ring() {
    use crate::metrics::TraceEvent;
    let mut e = engine(
        "(literalize n v)
         (p grow (n ^v <x>) --> (make n ^v (+ <x> 1)))",
        &[("n", vec![Value::Int(0)])],
        EngineOptions {
            trace_events: Some(8),
            budgets: crate::Budgets {
                max_wm: Some(3),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    e.run().unwrap_err();
    let buf = e.trace_events().unwrap();
    assert!(
        buf.events()
            .any(|ev| matches!(ev, TraceEvent::BudgetTrip { kind: "wm", .. })),
        "trip event recorded"
    );
}

#[test]
fn shard_count_reported_is_the_one_in_effect() {
    // API callers can still pass 0 workers; the matcher clamps to 1
    // and *reports* 1 — labels never claim unused shards. Every matcher
    // reports its own kind.
    let p = compile("(literalize a x) (p r (a ^x <v>) --> (halt))").unwrap();
    for (matcher, kind, shards) in [
        (MatcherKind::Naive, "naive", 1),
        (MatcherKind::Rete, "rete", 1),
        (MatcherKind::Treat, "treat", 1),
        (MatcherKind::PartitionedRete(0), "partitioned-rete", 1),
        (MatcherKind::PartitionedTreat(4), "partitioned-treat", 4),
    ] {
        let e = Engine::new(
            &p,
            WorkingMemory::new(&p.classes),
            EngineOptions {
                matcher,
                ..Default::default()
            },
        );
        let mm = e.matcher_metrics();
        assert_eq!((mm.kind, mm.shards), (kind, shards), "{matcher:?}");
    }
}

#[test]
fn trace_records_fired_rules_per_cycle() {
    let mut e = engine(
        "(literalize count n)
         (p step (count ^n <n>) (test (< <n> 3)) --> (modify 1 ^n (+ <n> 1)))",
        &[
            ("count", vec![Value::Int(0)]),
            ("count", vec![Value::Int(1)]),
        ],
        EngineOptions {
            trace: true,
            ..Default::default()
        },
    );
    e.run().unwrap();
    let traces = e.traces();
    assert!(!traces.is_empty());
    assert_eq!(traces[0].cycle, 1);
    assert_eq!(traces[0].fired_rules, vec![("step".to_string(), 2)]);
    let rendered = traces[0].to_string();
    assert!(rendered.contains("stepx2"), "{rendered}");
    // trace off by default
    let mut quiet = engine(
        "(literalize count n)
         (p step (count ^n <n>) (test (< <n> 3)) --> (modify 1 ^n (+ <n> 1)))",
        &[("count", vec![Value::Int(0)])],
        EngineOptions::default(),
    );
    quiet.run().unwrap();
    assert!(quiet.traces().is_empty());
}

#[test]
fn checkpoint_resume_continues_bit_identically() {
    let src = "(literalize count n)
         (p step (count ^n <n>) (test (< <n> 8)) --> (modify 1 ^n (+ <n> 1)) (write at <n>))";
    let facts = [("count", vec![Value::Int(0)])];
    let mut full = engine(src, &facts, EngineOptions::default());
    full.run().unwrap();

    let mut part = engine(src, &facts, EngineOptions::default());
    for _ in 0..3 {
        part.step().unwrap();
    }
    // Roundtrip through the wire format, then resume on a freshly
    // compiled program (interner ids re-derived from strings).
    let snap = Snapshot::from_bytes(&part.checkpoint().to_bytes()).unwrap();
    assert_eq!(snap.cycle, 3);
    let p = compile(src).unwrap();
    let mut resumed = Engine::resume(&p, &snap, EngineOptions::default()).unwrap();
    let out = resumed.run().unwrap();
    assert!(out.quiescent);

    assert_eq!(resumed.wm().sorted_snapshot(), full.wm().sorted_snapshot());
    let counters = |s: &RunStats| {
        (
            s.cycles,
            s.firings,
            s.adds,
            s.removes,
            s.peak_eligible,
            s.total_eligible,
        )
    };
    // Counters are bit-identical; phase times are wall-clock and are
    // deliberately not compared.
    assert_eq!(counters(resumed.stats()), counters(full.stats()));
    assert_eq!(resumed.log(), full.log());
}

#[test]
fn restore_keeps_the_engines_program() {
    let src = "(literalize count n)
         (p step (count ^n <n>) (test (< <n> 6)) --> (modify 1 ^n (+ <n> 1)))";
    let facts = [("count", vec![Value::Int(0)])];
    let mut full = engine(src, &facts, EngineOptions::default());
    full.run().unwrap();

    let mut e = engine(src, &facts, EngineOptions::default());
    e.step().unwrap();
    let snap = e.checkpoint();
    e.run().unwrap();
    let before: *const Program = e.program();
    let hashes = e.code().name_map();
    e.restore(&snap).unwrap();
    // Shared, not cloned and recompiled.
    assert!(std::ptr::eq(e.program(), before));
    assert_eq!(e.code().name_map(), hashes);
    assert_eq!(e.stats().cycles, 1);
    e.run().unwrap();
    assert_eq!(e.wm().sorted_snapshot(), full.wm().sorted_snapshot());
}

#[test]
fn resume_can_switch_matchers() {
    let src = "(literalize count n)
         (p step (count ^n <n>) (test (< <n> 6)) --> (modify 1 ^n (+ <n> 1)))";
    let facts = [("count", vec![Value::Int(0)])];
    let mut full = engine(src, &facts, EngineOptions::default());
    full.run().unwrap();

    let mut part = engine(src, &facts, EngineOptions::default());
    part.step().unwrap();
    let snap = part.checkpoint();
    let p = compile(src).unwrap();
    let opts = EngineOptions {
        matcher: MatcherKind::Treat,
        ..Default::default()
    };
    let mut resumed = Engine::resume(&p, &snap, opts).unwrap();
    resumed.run().unwrap();
    assert_eq!(resumed.wm().sorted_snapshot(), full.wm().sorted_snapshot());
}

#[test]
fn resume_rejects_foreign_programs() {
    let mut e = engine(
        "(literalize count n)
         (p step (count ^n <n>) (test (< <n> 3)) --> (modify 1 ^n (+ <n> 1)))",
        &[("count", vec![Value::Int(0)])],
        EngineOptions::default(),
    );
    e.step().unwrap();
    let snap = e.checkpoint();
    let other = compile("(literalize other x)").unwrap();
    assert_eq!(
        Engine::resume(&other, &snap, EngineOptions::default()).err().unwrap(),
        crate::snapshot::SnapshotError::UnknownClass("count".into())
    );
    // A rule whose firing keeps its own support leaves a live
    // refraction entry; resuming on a program without that rule
    // fails on the refraction keys.
    let src = "(literalize count n)
         (literalize out v)
         (p mk (count ^n <n>) --> (make out ^v <n>))";
    let mut e = engine(src, &[("count", vec![Value::Int(0)])], EngineOptions::default());
    e.step().unwrap();
    let snap = e.checkpoint();
    assert!(!snap.refraction.is_empty());
    let no_rule = compile("(literalize count n) (literalize out v)").unwrap();
    assert_eq!(
        Engine::resume(&no_rule, &snap, EngineOptions::default()).err().unwrap(),
        crate::snapshot::SnapshotError::UnknownRule("mk".into())
    );
}

#[test]
fn wm_budget_trips_with_cycle_number_and_checkpoint() {
    let mut e = engine(
        "(literalize n v)
         (p grow (n ^v <x>) --> (make n ^v (+ <x> 1)))",
        &[("n", vec![Value::Int(0)])],
        EngineOptions {
            budgets: crate::Budgets {
                max_wm: Some(5),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    // Refraction keeps old instantiations from refiring, so only the
    // newest WME spawns a firing: WM grows by one per cycle
    // (2, 3, 4, 5, 6) and trips after cycle 5.
    let err = e.run().unwrap_err();
    match err {
        EngineError::WmBudget { cycle, size, budget } => {
            assert_eq!((cycle, size, budget), (5, 6, 5));
        }
        other => panic!("wrong variant: {other:?}"),
    }
    let snap = e.latest_checkpoint().expect("trip stores a checkpoint");
    assert_eq!(snap.cycle, 5);
    assert_eq!(snap.wmes.len(), 6, "checkpoint captures the committed state");
}

#[test]
fn conflict_set_and_delta_budgets_trip_before_any_mutation() {
    let src = "(literalize cell id v)
         (p bump (cell ^id <i> ^v 0) --> (modify 1 ^v 1))";
    let facts = [
        ("cell", vec![Value::Int(1), Value::Int(0)]),
        ("cell", vec![Value::Int(2), Value::Int(0)]),
        ("cell", vec![Value::Int(3), Value::Int(0)]),
    ];
    let mut e = engine(
        src,
        &facts,
        EngineOptions {
            budgets: crate::Budgets {
                max_conflict_set: Some(2),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    match e.run().unwrap_err() {
        EngineError::ConflictSetBudget { cycle, width, budget, rules } => {
            assert_eq!((cycle, width, budget), (1, 3, 2));
            assert_eq!(rules, vec!["bump"]);
        }
        other => panic!("wrong variant: {other:?}"),
    }
    assert!(e.wm().iter().all(|w| w.field(1) == Value::Int(0)), "nothing fired");

    let mut e = engine(
        src,
        &facts,
        EngineOptions {
            budgets: crate::Budgets {
                max_delta: Some(5),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    match e.run().unwrap_err() {
        // 3 modifies = 3 removes + 3 adds = 6 changes > 5.
        EngineError::DeltaBudget { cycle, size, budget, rules } => {
            assert_eq!((cycle, size, budget), (1, 6, 5));
            assert_eq!(rules, vec!["bump"]);
        }
        other => panic!("wrong variant: {other:?}"),
    }
    assert!(e.wm().iter().all(|w| w.field(1) == Value::Int(0)), "delta not applied");
    // The stored checkpoint is the pre-cycle state and can resume.
    let snap = e.latest_checkpoint().unwrap().clone();
    assert_eq!(snap.cycle, 0);
    let p = compile(src).unwrap();
    let mut resumed = Engine::resume(&p, &snap, EngineOptions::default()).unwrap();
    resumed.run().unwrap();
    assert!(resumed.wm().iter().all(|w| w.field(1) == Value::Int(1)));
}

#[test]
fn timeout_trips_at_a_cycle_boundary() {
    let mut e = engine(
        "(literalize count n)
         (p step (count ^n <n>) --> (modify 1 ^n (+ <n> 1)))",
        &[("count", vec![Value::Int(0)])],
        EngineOptions {
            budgets: crate::Budgets {
                timeout: Some(std::time::Duration::ZERO),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    match e.run().unwrap_err() {
        EngineError::Timeout { cycle, budget, .. } => {
            assert_eq!(cycle, 1);
            assert_eq!(budget, std::time::Duration::ZERO);
        }
        other => panic!("wrong variant: {other:?}"),
    }
    assert_eq!(e.latest_checkpoint().unwrap().cycle, 0);
}

#[test]
fn periodic_checkpoints_are_captured_during_run() {
    let mut e = engine(
        "(literalize count n)
         (p step (count ^n <n>) (test (< <n> 7)) --> (modify 1 ^n (+ <n> 1)))",
        &[("count", vec![Value::Int(0)])],
        EngineOptions {
            checkpoint_every: Some(3),
            ..Default::default()
        },
    );
    e.run().unwrap();
    // 7 cycles run; the last multiple of 3 is cycle 6.
    assert_eq!(e.latest_checkpoint().unwrap().cycle, 6);
}

#[cfg(feature = "fault-inject")]
#[test]
fn injected_rhs_panic_yields_structured_error_not_abort() {
    let mut e = engine(
        "(literalize count n)
         (p step (count ^n <n>) (test (< <n> 9)) --> (modify 1 ^n (+ <n> 1)))",
        &[("count", vec![Value::Int(0)])],
        EngineOptions {
            faults: crate::faults::FaultPlan {
                rhs_panic: Some(crate::faults::FaultPoint::new(3, "step")),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    match e.run().unwrap_err() {
        EngineError::RhsPanic { rule, payload } => {
            assert_eq!(rule, "step");
            assert!(payload.contains("cycle 3"), "{payload}");
        }
        other => panic!("wrong variant: {other:?}"),
    }
    // The engine survives at the last consistent boundary: cycles 1–2
    // committed, cycle 3 did not.
    assert_eq!(e.stats().cycles, 2);
    assert_eq!(e.wm().iter().next().unwrap().field(0), Value::Int(2));
    assert_eq!(e.latest_checkpoint().unwrap().cycle, 2);
}

#[test]
fn all_matcher_kinds_agree_on_final_wm() {
    let src = "
        (literalize edge from to)
        (literalize reach from to)
        (p seed (edge ^from <a> ^to <b>) -(reach ^from <a> ^to <b>)
         --> (make reach ^from <a> ^to <b>))
        (p close (reach ^from <a> ^to <b>) (edge ^from <b> ^to <c>)
                 -(reach ^from <a> ^to <c>)
         --> (make reach ^from <a> ^to <c>))";
    let p = compile(src).unwrap();
    let edge = p.classes.id_of(p.interner.intern("edge")).unwrap();
    let build_wm = || {
        let mut wm = WorkingMemory::new(&p.classes);
        for (a, b) in [(1, 2), (2, 3), (3, 4), (4, 1), (2, 5)] {
            wm.insert(edge, vec![Value::Int(a), Value::Int(b)]);
        }
        wm
    };
    let mut reference = None;
    for kind in [
        MatcherKind::Naive,
        MatcherKind::Rete,
        MatcherKind::Treat,
        MatcherKind::PartitionedRete(3),
        MatcherKind::PartitionedTreat(2),
    ] {
        let mut e = Engine::new(
            &p,
            build_wm(),
            EngineOptions {
                matcher: kind,
                ..Default::default()
            },
        );
        let out = e.run().unwrap();
        assert!(out.quiescent, "{kind:?}");
        let facts = e.wm().canonical_facts();
        match &reference {
            None => reference = Some(facts),
            Some(r) => assert_eq!(&facts, r, "{kind:?} diverged"),
        }
    }
}

#[test]
fn fires_one_per_cycle() {
    let p = compile(
        "(literalize cell id v)
         (p bump (cell ^id <i> ^v 0) --> (modify 1 ^v 1))",
    )
    .unwrap();
    let wm = wm_with(
        &p,
        &[
            ("cell", vec![Value::Int(1), Value::Int(0)]),
            ("cell", vec![Value::Int(2), Value::Int(0)]),
            ("cell", vec![Value::Int(3), Value::Int(0)]),
        ],
    );
    let mut e = Engine::with_policy(
        &p,
        wm,
        FiringPolicy::SelectOne(Strategy::Lex),
        EngineOptions::default(),
    );
    let out = e.run().unwrap();
    assert_eq!(out.cycles, 3, "serial engine needs one cycle per cell");
    assert_eq!(out.firings, 3);
}

#[test]
fn lex_prefers_recency_then_specificity() {
    let p = compile(
        "(literalize a v)
         (p plain (a ^v <x>) --> (remove 1))
         (p specific (a ^v <x>) (test (>= <x> 0)) --> (remove 1) (write specific))",
    )
    .unwrap();
    let wm = wm_with(&p, &[("a", vec![Value::Int(1)])]);
    let mut e = Engine::with_policy(
        &p,
        wm,
        FiringPolicy::SelectOne(Strategy::Lex),
        EngineOptions::default(),
    );
    e.run().unwrap();
    // Same single WME (equal recency): specificity must pick `specific`.
    assert_eq!(e.log(), &["specific".to_string()]);
}

#[test]
fn mea_prefers_recent_first_ce() {
    let p = compile(
        "(literalize goal id)
         (p act (goal ^id <g>) --> (remove 1) (write acted <g>))",
    )
    .unwrap();
    let wm = wm_with(
        &p,
        &[("goal", vec![Value::Int(1)]), ("goal", vec![Value::Int(2)])],
    );
    let mut e = Engine::with_policy(
        &p,
        wm,
        FiringPolicy::SelectOne(Strategy::Mea),
        EngineOptions::default(),
    );
    e.run().unwrap();
    // goal 2 was asserted later ⇒ fires first.
    assert_eq!(e.log(), &["acted 2".to_string(), "acted 1".to_string()]);
}

#[test]
fn inject_gives_continuation_outcomes_and_lifetime_stats() {
    // Satellite regression: the serial engine mirrors
    // Engine::inject — a second run() after injection reports
    // continuation-only numbers while stats() keeps lifetime totals.
    let p = compile(
        "(literalize req id)
         (literalize done id)
         (p serve (req ^id <r>) --> (remove 1) (make done ^id <r>))",
    )
    .unwrap();
    let wm = wm_with(&p, &[("req", vec![Value::Int(1)])]);
    let mut e = Engine::with_policy(
        &p,
        wm,
        FiringPolicy::SelectOne(Strategy::Lex),
        EngineOptions::default(),
    );
    let out = e.run().unwrap();
    assert_eq!((out.cycles, out.firings), (1, 1));
    let req = p.classes.id_of(p.interner.intern("req")).unwrap();
    let mut delta = parulel_core::Delta::new();
    delta.adds.push((req, vec![Value::Int(2)].into()));
    delta.adds.push((req, vec![Value::Int(3)].into()));
    let (removed, added) = e.inject(&delta);
    assert!(removed.is_empty());
    assert_eq!(added.len(), 2);
    let out = e.run().unwrap();
    assert_eq!((out.cycles, out.firings), (2, 2), "per-call outcome");
    assert_eq!(e.stats().cycles, 3, "lifetime stats keep the total");
    assert_eq!(e.stats().firings, 3);
    let done = p.classes.id_of(p.interner.intern("done")).unwrap();
    assert_eq!(e.wm().iter_class(done).count(), 3);
}

#[test]
fn metrics_count_winner_firings_only() {
    use crate::metrics::MetricsLevel;
    let p = compile(
        "(literalize cell id v)
         (p bump (cell ^id <i> ^v 0) --> (modify 1 ^v 1))",
    )
    .unwrap();
    let wm = wm_with(
        &p,
        &[
            ("cell", vec![Value::Int(1), Value::Int(0)]),
            ("cell", vec![Value::Int(2), Value::Int(0)]),
        ],
    );
    let mut e = Engine::with_policy(
        &p,
        wm,
        FiringPolicy::SelectOne(Strategy::Lex),
        EngineOptions {
            metrics: MetricsLevel::Rules,
            ..Default::default()
        },
    );
    e.run().unwrap();
    let bump = p.rule_by_name(p.interner.intern("bump")).unwrap();
    let m = e.metrics().rule(bump);
    assert_eq!(m.fired, 2, "one winner per cycle");
    // Cycle 1 sees 2 eligible, cycle 2 sees 1: matched sums pressure.
    assert_eq!(m.matched, 3);
    assert_eq!(e.metrics().peak_conflict_set, 2);
    assert_eq!(e.metrics().peak_wm, 2);
}

#[test]
fn serial_and_parallel_agree_on_confluent_program() {
    let src = "
        (literalize n v)
        (literalize sq v)
        (p square (n ^v <x>) --> (make sq ^v (* <x> <x>)) (remove 1))";
    let p = compile(src).unwrap();
    let facts: Vec<(&str, Vec<Value>)> = (1..=5).map(|i| ("n", vec![Value::Int(i)])).collect();
    let mut serial = Engine::with_policy(
        &p,
        wm_with(&p, &facts),
        FiringPolicy::SelectOne(Strategy::Lex),
        EngineOptions::default(),
    );
    let s_out = serial.run().unwrap();
    let mut parallel = Engine::new(&p, wm_with(&p, &facts), EngineOptions::default());
    let p_out = parallel.run().unwrap();
    assert_eq!(s_out.firings, 5);
    assert_eq!(p_out.firings, 5);
    assert_eq!(s_out.cycles, 5);
    assert_eq!(p_out.cycles, 1, "PARULEL collapses 5 cycles into 1");
    assert_eq!(
        serial.wm().canonical_facts(),
        parallel.wm().canonical_facts()
    );
}
