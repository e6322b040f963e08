//! Hot-reload contract tests: content-hash diffing, preservation of live
//! match state (alpha nodes / subscriptions) for unchanged rules,
//! refraction survival, and the refusal gallery. The cross-matcher
//! differential suite lives at the workspace root; this file pins the
//! engine-level `reload` semantics.

use parulel_core::{Value, WorkingMemory};
use parulel_engine::core::ReloadError;
use parulel_engine::{Engine, EngineOptions, MatcherKind};
use parulel_lang::{compile, compile_into};

const SRC: &str = "
(literalize job id status)
(literalize cpu id free)
(literalize note v)
(p assign (job ^id <j> ^status waiting) (cpu ^id <c> ^free yes)
 --> (modify 1 ^status running) (modify 2 ^free no))
(p observe (job ^id <j>) --> (make note ^v <j>))
";

fn seeded(src: &str, opts: EngineOptions) -> Engine {
    let p = compile(src).unwrap();
    let mut wm = WorkingMemory::new(&p.classes);
    let i = &p.interner;
    let job = p.classes.id_of(i.intern("job")).unwrap();
    let cpu = p.classes.id_of(i.intern("cpu")).unwrap();
    let (waiting, yes) = (i.intern("waiting"), i.intern("yes"));
    for j in 0..4 {
        wm.insert(job, vec![Value::Int(j), Value::Sym(waiting)]);
    }
    for c in 0..2 {
        wm.insert(cpu, vec![Value::Int(c), Value::Sym(yes)]);
    }
    Engine::new(&p, wm, opts)
}

#[test]
fn identity_reload_is_incremental_and_preserves_alpha_state() {
    let mut engine = seeded(SRC, EngineOptions::default());
    engine.run().unwrap();
    let hashes_before = engine.code().name_map();
    let m_before = engine.matcher_metrics();
    assert!(m_before.alpha_nodes > 0);

    let replacement = compile_into(SRC, &engine.program().interner).unwrap();
    let report = engine.reload(&replacement).unwrap();
    assert!(report.added.is_empty() && report.removed.is_empty() && report.changed.is_empty());
    assert_eq!(report.unchanged, 2);
    assert!(report.incremental);

    // Content hashes are stable and the shared alpha network was not
    // rebuilt: same node count, same subscription count.
    assert_eq!(engine.code().name_map(), hashes_before);
    let m_after = engine.matcher_metrics();
    assert_eq!(m_after.alpha_nodes, m_before.alpha_nodes);
    assert_eq!(m_after.alpha_subscriptions, m_before.alpha_subscriptions);

    // Refraction survived the reload: the quiescent run stays quiescent
    // (`observe` does not re-fire on the jobs it already noted).
    let wm_before: Vec<_> = engine.wm().sorted_snapshot();
    let out = engine.run().unwrap();
    assert_eq!(out.cycles, 0, "reload re-fired already-fired rules");
    assert_eq!(engine.wm().sorted_snapshot(), wm_before);
}

#[test]
fn changed_rule_is_detected_by_content_hash() {
    let mut engine = seeded(SRC, EngineOptions::default());
    engine.run().unwrap();
    let assign_hash = engine.code().hash_of("assign").unwrap();
    let changed_src = SRC.replace("(make note ^v <j>)", "(make note ^v (+ <j> 100))");
    let replacement = compile_into(&changed_src, &engine.program().interner).unwrap();
    let report = engine.reload(&replacement).unwrap();
    assert_eq!(report.changed, vec!["observe".to_string()]);
    assert_eq!(report.unchanged, 1);
    assert!(report.incremental);
    assert_eq!(
        engine.code().hash_of("assign").unwrap(),
        assign_hash,
        "untouched rule's content hash moved"
    );
}

/// A change past the 65 536th `<< … >>` alternative still moves the
/// rule's hash, so reload rebuilds it instead of keeping stale state.
#[test]
fn change_in_a_late_alternative_is_reported_changed() {
    let mut engine = seeded(SRC, EngineOptions::default());
    let with_last = |last: &str| {
        let alts: String = (0..65_536).map(|i| format!("s{i} ")).collect();
        let src = SRC.replace(
            "(job ^id <j>)",
            &format!("(job ^id <j> ^status << {alts}{last} >>)"),
        );
        compile_into(&src, &engine.program().interner).unwrap()
    };
    let (first, second) = (with_last("waiting"), with_last("running"));
    assert_eq!(
        engine.reload(&first).unwrap().changed,
        vec!["observe".to_string()]
    );
    let report = engine.reload(&second).unwrap();
    assert_eq!(report.changed, vec!["observe".to_string()]);
    assert_eq!(report.unchanged, 1);
}

#[test]
fn rename_is_remove_plus_add_and_renamed_rule_refires() {
    let mut engine = seeded(SRC, EngineOptions::default());
    engine.run().unwrap();
    let notes_before = engine.wm().sorted_snapshot().len();
    let renamed = SRC.replace("(p observe ", "(p watch ");
    let replacement = compile_into(&renamed, &engine.program().interner).unwrap();
    let report = engine.reload(&replacement).unwrap();
    assert_eq!(report.removed, vec!["observe".to_string()]);
    assert_eq!(report.added, vec!["watch".to_string()]);
    // Same body, new name: the same content hash...
    assert_eq!(
        engine.code().hash_of("watch"),
        compile_into(SRC, &engine.program().interner)
            .ok()
            .map(|p| parulel_vm::compile_program(&p).hash_of("observe").unwrap())
    );
    // ...but refraction is per-name, so the "new" rule fires afresh.
    engine.run().unwrap();
    assert!(engine.wm().sorted_snapshot().len() > notes_before);
}

#[test]
fn reload_mid_stream_matches_uninterrupted_run() {
    for kind in [
        MatcherKind::Naive,
        MatcherKind::Rete,
        MatcherKind::Treat,
        MatcherKind::PartitionedRete(3),
        MatcherKind::PartitionedTreat(3),
    ] {
        let opts = EngineOptions {
            matcher: kind,
            ..EngineOptions::default()
        };
        let mut control = seeded(SRC, opts.clone());
        control.run().unwrap();

        let mut reloaded = seeded(SRC, opts.clone());
        reloaded.step().unwrap();
        let replacement = compile_into(SRC, &reloaded.program().interner).unwrap();
        reloaded.reload(&replacement).unwrap();
        reloaded.run().unwrap();

        assert_eq!(
            reloaded.wm().sorted_snapshot(),
            control.wm().sorted_snapshot(),
            "identity reload mid-stream diverged under {kind:?}"
        );
        assert_eq!(
            reloaded.stats().firings,
            control.stats().firings,
            "firing count diverged under {kind:?}"
        );
    }
}

#[test]
fn add_only_reload_works_on_every_matcher() {
    // Pure addition: the partitioned matchers cannot place new rules
    // incrementally (no removal anchors an owner), so they fall back to
    // a full rebuild — the result must still be identical.
    let extended = format!("{SRC}(p cleanup (note ^v 99) --> (remove 1))");
    for kind in [
        MatcherKind::Rete,
        MatcherKind::PartitionedRete(2),
        MatcherKind::PartitionedTreat(2),
    ] {
        let opts = EngineOptions {
            matcher: kind,
            ..EngineOptions::default()
        };
        let mut engine = seeded(SRC, opts);
        engine.run().unwrap();
        let replacement = compile_into(&extended, &engine.program().interner).unwrap();
        let report = engine.reload(&replacement).unwrap();
        assert_eq!(report.added, vec!["cleanup".to_string()]);
        assert_eq!(report.unchanged, 2);
        engine.run().unwrap();
        assert_eq!(engine.program().rules().len(), 3, "under {kind:?}");
    }
}

#[test]
fn foreign_interner_is_refused_with_state_intact() {
    let mut engine = seeded(SRC, EngineOptions::default());
    engine.run().unwrap();
    let hashes = engine.code().name_map();
    let wm = engine.wm().sorted_snapshot();
    // Compiled in its own symbol space: symbol ids are not interchangeable.
    let foreign = compile(SRC).unwrap();
    assert_eq!(
        engine.reload(&foreign).unwrap_err(),
        ReloadError::ForeignInterner
    );
    assert_eq!(engine.code().name_map(), hashes);
    assert_eq!(engine.wm().sorted_snapshot(), wm);
}

#[test]
fn class_changes_are_refused_with_state_intact() {
    let mut engine = seeded(SRC, EngineOptions::default());
    engine.run().unwrap();
    let wm = engine.wm().sorted_snapshot();
    // `cpu` loses a field: live WMEs would no longer type-check.
    let narrowed = SRC
        .replace("(literalize cpu id free)", "(literalize cpu id)")
        .replace(" ^free yes)", ")")
        .replace(" (modify 2 ^free no)", "");
    let replacement = compile_into(&narrowed, &engine.program().interner).unwrap();
    assert_eq!(
        engine.reload(&replacement).unwrap_err(),
        ReloadError::ClassMismatch("cpu".to_string())
    );
    assert_eq!(engine.wm().sorted_snapshot(), wm);
}

#[test]
fn class_table_may_grow() {
    let mut engine = seeded(SRC, EngineOptions::default());
    engine.run().unwrap();
    let grown = format!("{SRC}(literalize audit v)(p audit-note (note ^v <v>) --> (make audit ^v <v>) (remove 1))");
    let replacement = compile_into(&grown, &engine.program().interner).unwrap();
    let report = engine.reload(&replacement).unwrap();
    assert_eq!(report.added, vec!["audit-note".to_string()]);
    // Appended class forces a matcher rebuild (alpha network is sized by
    // the class table) — and the new rule can then make instances of it.
    assert!(!report.incremental);
    engine.run().unwrap();
    let audit = engine
        .program()
        .classes
        .id_of(engine.program().interner.intern("audit"))
        .unwrap();
    assert!(engine.wm().iter().any(|w| w.class == audit));
}

#[test]
fn checkpoint_after_reload_round_trips() {
    let mut engine = seeded(SRC, EngineOptions::default());
    engine.step().unwrap();
    let changed_src = SRC.replace("(make note ^v <j>)", "(make note ^v (+ <j> 7))");
    let replacement = compile_into(&changed_src, &engine.program().interner).unwrap();
    engine.reload(&replacement).unwrap();
    engine.run().unwrap();

    let snap = engine.checkpoint();
    assert_eq!(snap.rule_hashes, engine.code().name_map());
    let resumed = Engine::resume(engine.program(), &snap, EngineOptions::default()).unwrap();
    assert_eq!(resumed.wm().sorted_snapshot(), engine.wm().sorted_snapshot());
    assert_eq!(resumed.stats().cycles, engine.stats().cycles);
}
