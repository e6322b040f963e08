//! The durability layer end to end, short of a real `kill -9` (the
//! process-level proof lives in the workspace-root `crash_recovery`
//! test): write-ahead logging, snapshot compaction, crash-point
//! recovery at every byte offset, the `sync` verb, graceful `shutdown`
//! persistence, and the recovery edge cases the issue enumerates.
//!
//! The invariant every test leans on: a durable server dropped without
//! ceremony (the in-process stand-in for SIGKILL) must recover from its
//! WAL directory to the exact working-memory fingerprint a live or
//! uninterrupted run shows. Torn trailing records are truncated, never
//! replayed.

use parulel_engine::Json;
use parulel_server::wal::{self, Record, SessionWal, SnapshotRecord, WalFaults};
use parulel_server::{recover, Reply, Server, ServerConfig, SyncPolicy, WalConfig};
use parulel_workloads::{closure::Closure, Scenario};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "parulel-durability-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn wal_config(dir: &Path) -> WalConfig {
    WalConfig::new(dir, SyncPolicy::Always)
}

fn durable(dir: &Path) -> Server {
    Server::with_wal(ServerConfig::default(), wal_config(dir))
}

/// Sends one frame, asserts `ok:true`, returns the parsed response.
fn ok(server: &mut Server, frame: &str) -> Json {
    let response = server.handle_line(frame).expect("response");
    assert!(response.starts_with(r#"{"ok":true"#), "{frame} -> {response}");
    Json::parse(&response).unwrap()
}

/// Sends one frame expected to fail; returns the error kind.
fn err_kind(server: &mut Server, frame: &str) -> String {
    let response = server.handle_line(frame).expect("response");
    assert!(response.starts_with(r#"{"ok":false"#), "{frame} -> {response}");
    Json::parse(&response)
        .unwrap()
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(|k| k.as_str())
        .unwrap()
        .to_string()
}

/// The session's current WM fingerprint via a (non-logged) metrics frame.
fn fingerprint(server: &mut Server, session: &str) -> String {
    ok(server, &format!(r#"{{"op":"metrics","session":"{session}"}}"#))
        .get("fingerprint")
        .and_then(|f| f.as_str())
        .unwrap()
        .to_string()
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// A small closure workload as a mutating frame sequence: open, then
/// alternating inject batches and runs, ending on an undrained inject —
/// so a crash leaves both applied state and queued state behind.
fn closure_frames(session: &str) -> Vec<String> {
    let scenario = Closure::new(12, 18, 7);
    let mut frames = vec![format!(
        r#"{{"op":"open","session":"{session}","program":"{}"}}"#,
        escape(scenario.source())
    )];
    for (i, batch) in scenario.edges().chunks(6).enumerate() {
        let adds: Vec<String> = batch
            .iter()
            .map(|(a, b)| format!(r#"{{"class":"edge","fields":[{a},{b}]}}"#))
            .collect();
        frames.push(format!(
            r#"{{"op":"inject","session":"{session}","adds":[{}]}}"#,
            adds.join(",")
        ));
        if i % 2 == 1 {
            frames.push(format!(r#"{{"op":"run","session":"{session}"}}"#));
        }
    }
    frames
}

/// Drives `frames` plus a final run through a fresh *non-durable*
/// server: the uninterrupted reference fingerprint.
fn reference_fingerprint(frames: &[String], session: &str) -> String {
    let mut server = Server::new(ServerConfig::default());
    for frame in frames {
        ok(&mut server, frame);
    }
    ok(&mut server, &format!(r#"{{"op":"run","session":"{session}"}}"#))
        .get("fingerprint")
        .and_then(|f| f.as_str())
        .unwrap()
        .to_string()
}

#[test]
fn dropped_durable_server_recovers_to_identical_fingerprint() {
    let dir = tmp_dir("basic");
    let frames = closure_frames("s1");
    let expected = reference_fingerprint(&frames, "s1");

    let mut server = durable(&dir);
    for frame in &frames {
        ok(&mut server, frame);
    }
    let live = fingerprint(&mut server, "s1");
    // Simulated kill -9: drop with no shutdown, no close, no sync verb.
    drop(server);

    let mut restored = durable(&dir);
    let report = recover(&mut restored, &wal_config(&dir));
    assert_eq!(report.sessions_recovered, 1, "{:?}", report.notes);
    assert_eq!(report.sessions_skipped, 0, "{:?}", report.notes);
    assert_eq!(report.torn_records, 0);
    assert_eq!(fingerprint(&mut restored, "s1"), live);

    // The recovered session keeps serving: the queued tail drains and
    // the final state matches the uninterrupted run exactly.
    let run = ok(&mut restored, r#"{"op":"run","session":"s1"}"#);
    assert_eq!(run.get("fingerprint").and_then(|f| f.as_str()), Some(expected.as_str()));

    // Recovery status surfaces in ping.
    let ping = ok(&mut restored, r#"{"op":"ping"}"#);
    assert_eq!(ping.get("wal").and_then(|w| w.as_str()), Some("always"));
    assert_eq!(ping.get("recovered_sessions").and_then(|n| n.as_f64()), Some(1.0));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_is_exact_at_every_crash_point() {
    let dir = tmp_dir("crashpoints");
    let frames = closure_frames("s");
    let mut cfg = wal_config(&dir);
    cfg.snapshot_every = 0; // every record is a frame record: countable
    let mut server = Server::with_wal(ServerConfig::default(), cfg.clone());
    // live[k] = the fingerprint after the (k+1)-th logged record applied.
    let mut live = Vec::new();
    for frame in &frames {
        ok(&mut server, frame);
        live.push(fingerprint(&mut server, "s"));
    }
    drop(server);
    let path = cfg.dir.join(wal::wal_file_name("s"));
    let full = fs::read(&path).unwrap();
    assert!(full.len() > 200, "workload too small to sweep");

    // Cut the log at every byte offset (a kill -9 can land anywhere in
    // an append) and recover: whatever whole records survive must replay
    // to exactly the fingerprint the live server had at that point, and
    // the torn remainder must be dropped.
    for cut in 8..=full.len() {
        fs::write(&path, &full[..cut]).unwrap();
        let mut restored = Server::with_wal(ServerConfig::default(), cfg.clone());
        let report = recover(&mut restored, &cfg);
        let n = report.frames_replayed as usize;
        if report.sessions_recovered == 1 {
            assert!(n >= 1, "cut {cut}: recovered with no frames");
            assert_eq!(
                fingerprint(&mut restored, "s"),
                live[n - 1],
                "cut {cut}: replayed {n} records to a diverged state"
            );
        } else {
            // Only the pre-open prefix cannot recover a session.
            assert_eq!(n, 0, "cut {cut}");
        }
        // The file was truncated to whole records: a second recovery
        // must see no torn tail.
        let mut again = Server::with_wal(ServerConfig::default(), cfg.clone());
        let report2 = recover(&mut again, &cfg);
        assert_eq!(report2.torn_records, 0, "cut {cut}: tail not truncated");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn close_and_engine_death_delete_the_wal() {
    let dir = tmp_dir("lifecycle");
    let mut server = durable(&dir);
    let frames = closure_frames("gone");
    for frame in &frames {
        ok(&mut server, frame);
    }
    let path = dir.join(wal::wal_file_name("gone"));
    assert!(path.exists());
    ok(&mut server, r#"{"op":"close","session":"gone"}"#);
    assert!(!path.exists(), "close left the WAL behind");

    // An engine death (budget trip) is a closed session too.
    ok(
        &mut server,
        r#"{"op":"open","session":"doomed","program":"(literalize c n)\n(p grow (c ^n <n>) --> (make c ^n (+ <n> 1)))","max_wm":3}"#,
    );
    ok(
        &mut server,
        r#"{"op":"inject","session":"doomed","adds":[{"class":"c","fields":[0]}]}"#,
    );
    let doomed_path = dir.join(wal::wal_file_name("doomed"));
    assert!(doomed_path.exists());
    assert_eq!(err_kind(&mut server, r#"{"op":"run","session":"doomed"}"#), "engine");
    assert!(!doomed_path.exists(), "engine death left the WAL behind");

    // So is a death in a later slice of a sliced run: the session, its
    // log and its admission slot all go when the slice that trips ends.
    ok(
        &mut server,
        r#"{"op":"open","session":"sliced","program":"(literalize c n)\n(p grow (c ^n <n>) --> (make c ^n (+ <n> 1)))","max_wm":4}"#,
    );
    ok(
        &mut server,
        r#"{"op":"inject","session":"sliced","adds":[{"class":"c","fields":[0]}]}"#,
    );
    let sliced_path = dir.join(wal::wal_file_name("sliced"));
    assert_eq!(server.session_count(), 1);
    let (tx, rx) = channel();
    let run = Json::parse(r#"{"op":"run","session":"sliced"}"#);
    server.submit(run, reply_to(&tx), 1);
    assert!(server.has_parked_runs(), "the first slice parks");
    assert!(sliced_path.exists());
    let death = Json::parse(&finish_runs(&mut server, &rx)[0]).unwrap();
    let kind = death
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(|k| k.as_str());
    assert_eq!(kind, Some("engine"), "{}", death.render());
    assert!(
        !sliced_path.exists(),
        "a death in a later slice left the WAL behind"
    );
    assert_eq!(server.session_count(), 0);
    let gauge = server.admission_gauge();
    assert_eq!(gauge.load(std::sync::atomic::Ordering::SeqCst), 0);

    // Nothing to recover afterwards.
    drop(server);
    let mut restored = durable(&dir);
    let report = recover(&mut restored, &wal_config(&dir));
    assert_eq!(report.sessions_recovered, 0);
    let _ = fs::remove_dir_all(&dir);
}

/// Opens a closure session with every edge injected and takes one
/// `step`; returns the `run` frame for it.
fn closure_session_after_a_step(server: &mut Server, session: &str) -> String {
    let scenario = Closure::new(12, 18, 7);
    ok(
        server,
        &format!(
            r#"{{"op":"open","session":"{session}","program":"{}"}}"#,
            escape(scenario.source())
        ),
    );
    let adds: Vec<String> = scenario
        .edges()
        .iter()
        .map(|(a, b)| format!(r#"{{"class":"edge","fields":[{a},{b}]}}"#))
        .collect();
    ok(
        server,
        &format!(
            r#"{{"op":"inject","session":"{session}","adds":[{}]}}"#,
            adds.join(",")
        ),
    );
    ok(server, &format!(r#"{{"op":"step","session":"{session}"}}"#));
    format!(r#"{{"op":"run","session":"{session}"}}"#)
}

/// A reply that sends its response down `tx`.
fn reply_to(tx: &Sender<String>) -> Reply {
    let tx = tx.clone();
    Box::new(move |response| tx.send(response).expect("the test holds the receiver"))
}

/// Advances every parked run one cycle at a time until none is left;
/// returns the responses delivered meanwhile, in delivery order.
fn finish_runs(server: &mut Server, rx: &Receiver<String>) -> Vec<String> {
    assert!(rx.try_recv().is_err(), "nothing answers while the run is parked");
    while server.has_parked_runs() {
        server.advance(1);
    }
    rx.try_iter().collect()
}

/// The responses `frames` get from a fresh non-durable server, unsliced,
/// after `closure_session_after_a_step`.
fn unsliced_after_a_step(session: &str, frames: &[&str]) -> Vec<String> {
    let mut server = Server::new(ServerConfig::default());
    closure_session_after_a_step(&mut server, session);
    frames.iter().map(|f| server.handle_line(f).expect("response")).collect()
}

/// A `restore` that arrives while the session's run is parked waits
/// behind the run: the run answers first, exactly as it does unsliced,
/// then the restore answers as it does after an unsliced run, and the
/// recovered session ends where the live one did.
#[test]
fn a_restore_behind_a_parked_run_runs_after_it_and_recovery_agrees() {
    let dir = tmp_dir("parked-restore");
    let mut server = durable(&dir);
    let run = closure_session_after_a_step(&mut server, "p");
    let snapshot = ok(&mut server, r#"{"op":"snapshot","session":"p"}"#);
    let hex = snapshot
        .get("snapshot")
        .and_then(|s| s.as_str())
        .unwrap()
        .to_string();
    let restore = format!(r#"{{"op":"restore","session":"p","snapshot":"{hex}"}}"#);
    let (tx, rx) = channel();
    server.submit(Json::parse(&run), reply_to(&tx), 1);
    assert!(server.has_parked_runs(), "the run parks");
    server.submit(Json::parse(&restore), reply_to(&tx), 1);
    let responses = finish_runs(&mut server, &rx);
    assert_eq!(responses, unsliced_after_a_step("p", &[&run, &restore]));
    let live = fingerprint(&mut server, "p");
    drop(server);

    let mut restored = durable(&dir);
    let report = recover(&mut restored, &wal_config(&dir));
    assert_eq!(report.sessions_recovered, 1, "{:?}", report.notes);
    assert_eq!(fingerprint(&mut restored, "p"), live);
    let _ = fs::remove_dir_all(&dir);
}

/// A run's slices leave its log alone even when a compaction is due: a
/// snapshot taken mid-run would drop the logged `run` frame, and
/// recovery would end at the half-run state. A read that arrives while
/// the run is parked answers after the run does.
#[test]
fn a_read_during_a_parked_run_does_not_compact_its_log() {
    let dir = tmp_dir("parked-compact");
    let mut cfg = wal_config(&dir);
    cfg.snapshot_every = 1;
    let mut server = Server::with_wal(ServerConfig::default(), cfg.clone());
    let run = closure_session_after_a_step(&mut server, "q");
    let query = r#"{"op":"query","session":"q","class":"reach"}"#;
    let (tx, rx) = channel();
    server.submit(Json::parse(&run), reply_to(&tx), 1);
    assert!(server.has_parked_runs(), "the run parks");
    server.submit(Json::parse(query), reply_to(&tx), 1);
    let responses = finish_runs(&mut server, &rx);
    assert_eq!(responses, unsliced_after_a_step("q", &[&run, query]));
    let live = fingerprint(&mut server, "q");
    drop(server);

    let mut restored = Server::with_wal(ServerConfig::default(), cfg.clone());
    let report = recover(&mut restored, &cfg);
    assert_eq!(report.sessions_recovered, 1, "{:?}", report.notes);
    assert_eq!(fingerprint(&mut restored, "q"), live);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compaction_bounds_the_log_and_recovery_stays_exact() {
    let dir = tmp_dir("compaction");
    let frames = closure_frames("c1");
    let expected = reference_fingerprint(&frames, "c1");
    let mut cfg = wal_config(&dir);
    cfg.snapshot_every = 2;
    let mut server = Server::with_wal(ServerConfig::default(), cfg.clone());
    for frame in &frames {
        ok(&mut server, frame);
    }
    let metrics = ok(&mut server, r#"{"op":"metrics"}"#);
    let snapshots = metrics.get("wal_snapshots").and_then(|n| n.as_f64()).unwrap();
    assert!(snapshots >= 1.0, "no compaction happened");
    drop(server);

    // The compacted log starts with a snapshot record.
    let path = cfg.dir.join(wal::wal_file_name("c1"));
    let scan = wal::scan(&path, &WalFaults::none()).unwrap();
    assert!(
        matches!(scan.records.first(), Some(Record::Snapshot(_))),
        "log was never compacted"
    );

    let mut restored = Server::with_wal(ServerConfig::default(), cfg.clone());
    let report = recover(&mut restored, &cfg);
    assert_eq!(report.sessions_recovered, 1, "{:?}", report.notes);
    let run = ok(&mut restored, r#"{"op":"run","session":"c1"}"#);
    assert_eq!(run.get("fingerprint").and_then(|f| f.as_str()), Some(expected.as_str()));
    let _ = fs::remove_dir_all(&dir);
}

/// A logged `reload` must be part of the durable truth — both as a raw
/// frame record (snapshot_every = 0) and riding a compacted snapshot
/// record's reload list (snapshot_every = 1, where the frame itself is
/// compacted away). The replacement program adds a rule that *changes
/// the WM* (self-loops), so recovery replaying the wrong program would
/// produce the wrong fingerprint, not just the wrong log.
#[test]
fn logged_reloads_survive_recovery_and_compaction() {
    let scenario = Closure::new(12, 18, 7);
    let v1 = scenario.source().to_string();
    let v2 = format!(
        "{v1}\n(p selfloop (reach ^from <a> ^to <b>) -(reach ^from <a> ^to <a>) --> (make reach ^from <a> ^to <a>))"
    );
    let mut frames = vec![format!(
        r#"{{"op":"open","session":"r1","program":"{}"}}"#,
        escape(&v1)
    )];
    for (i, batch) in scenario.edges().chunks(6).enumerate() {
        let adds: Vec<String> = batch
            .iter()
            .map(|(a, b)| format!(r#"{{"class":"edge","fields":[{a},{b}]}}"#))
            .collect();
        frames.push(format!(r#"{{"op":"inject","session":"r1","adds":[{}]}}"#, adds.join(",")));
        if i == 0 {
            // Hot-swap mid-stream, with queued injects in flight.
            frames.push(r#"{"op":"run","session":"r1"}"#.to_string());
            frames.push(format!(r#"{{"op":"reload","session":"r1","program":"{}"}}"#, escape(&v2)));
        }
    }
    let expected = reference_fingerprint(&frames, "r1");

    for snapshot_every in [0u64, 1] {
        let dir = tmp_dir(&format!("reload{snapshot_every}"));
        let mut cfg = wal_config(&dir);
        cfg.snapshot_every = snapshot_every;
        let mut server = Server::with_wal(ServerConfig::default(), cfg.clone());
        for frame in &frames {
            ok(&mut server, frame);
        }
        let live = fingerprint(&mut server, "r1");
        drop(server); // kill -9: no shutdown, no close

        if snapshot_every == 1 {
            // The reload frame was compacted away: it must ride in the
            // snapshot record's reload list instead.
            let path = cfg.dir.join(wal::wal_file_name("r1"));
            let scan = wal::scan(&path, &WalFaults::none()).unwrap();
            let Some(Record::Snapshot(snap)) = scan.records.last() else {
                panic!("expected a compacted log, got {:?}", scan.records);
            };
            assert_eq!(snap.reloads.len(), 1, "reload missing from snapshot record");
        }

        let mut restored = Server::with_wal(ServerConfig::default(), cfg.clone());
        let report = recover(&mut restored, &cfg);
        assert_eq!(report.sessions_recovered, 1, "{:?}", report.notes);
        assert_eq!(fingerprint(&mut restored, "r1"), live, "snapshot_every={snapshot_every}");

        // The recovered session runs the *reloaded* program: an identity
        // reload of v2 reports nothing added or changed…
        let r = ok(
            &mut restored,
            &format!(r#"{{"op":"reload","session":"r1","program":"{}"}}"#, escape(&v2)),
        );
        assert_eq!(r.get("added"), Some(&Json::Arr(vec![])), "{r:?}");
        assert_eq!(r.get("changed"), Some(&Json::Arr(vec![])), "{r:?}");
        // …and the drained tail reaches the uninterrupted run's state,
        // self-loops included.
        let run = ok(&mut restored, r#"{"op":"run","session":"r1"}"#);
        assert_eq!(run.get("fingerprint").and_then(|f| f.as_str()), Some(expected.as_str()));
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn queued_injects_survive_compaction() {
    let dir = tmp_dir("pending");
    // Compact after every single frame: the undrained inject must ride
    // in the snapshot record's pending list, not in replayable frames.
    let mut cfg = wal_config(&dir);
    cfg.snapshot_every = 1;
    let open = r#"{"op":"open","session":"p1","program":"(literalize cell v)\n(p bump (cell ^v 0) --> (modify 1 ^v 1))"}"#;
    let inject = r#"{"op":"inject","session":"p1","adds":[{"class":"cell","fields":[0]}]}"#;
    let mut server = Server::with_wal(ServerConfig::default(), cfg.clone());
    ok(&mut server, open);
    ok(&mut server, inject);
    drop(server);

    let path = cfg.dir.join(wal::wal_file_name("p1"));
    let scan = wal::scan(&path, &WalFaults::none()).unwrap();
    assert_eq!(scan.records.len(), 1);
    let Record::Snapshot(snap) = &scan.records[0] else {
        panic!("expected a snapshot-only log, got {:?}", scan.records);
    };
    assert_eq!(snap.pending.len(), 1, "queued inject missing from snapshot record");

    let mut restored = Server::with_wal(ServerConfig::default(), cfg.clone());
    let report = recover(&mut restored, &cfg);
    assert_eq!(report.sessions_recovered, 1, "{:?}", report.notes);
    let run = ok(&mut restored, r#"{"op":"run","session":"p1"}"#);
    assert_eq!(run.get("firings").and_then(|n| n.as_f64()), Some(1.0));

    // Reference: the same three frames uninterrupted.
    let mut reference = Server::new(ServerConfig::default());
    ok(&mut reference, open);
    ok(&mut reference, inject);
    ok(&mut reference, r#"{"op":"run","session":"p1"}"#);
    assert_eq!(fingerprint(&mut restored, "p1"), fingerprint(&mut reference, "p1"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sync_verb_syncs_when_durable_and_refuses_otherwise() {
    let dir = tmp_dir("syncverb");
    let mut server = durable(&dir);
    for frame in &closure_frames("s1") {
        ok(&mut server, frame);
    }
    let all = ok(&mut server, r#"{"op":"sync"}"#);
    assert_eq!(all.get("synced").and_then(|n| n.as_f64()), Some(1.0));
    let one = ok(&mut server, r#"{"op":"sync","session":"s1"}"#);
    assert_eq!(one.get("synced").and_then(|n| n.as_f64()), Some(1.0));
    assert_eq!(
        err_kind(&mut server, r#"{"op":"sync","session":"nope"}"#),
        "unknown-session"
    );

    let mut plain = Server::new(ServerConfig::default());
    let response = plain.handle_line(r#"{"op":"sync"}"#).unwrap();
    assert!(response.contains("durability is not enabled"), "{response}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_frame_persists_sessions_for_the_next_start() {
    let dir = tmp_dir("shutdown");
    let frames = closure_frames("s1");
    let expected = reference_fingerprint(&frames, "s1");
    let mut server = durable(&dir);
    for frame in &frames {
        ok(&mut server, frame);
    }
    let response = ok(&mut server, r#"{"op":"shutdown"}"#);
    assert_eq!(response.get("persisted").and_then(|n| n.as_f64()), Some(1.0));
    drop(server);

    // A protocol shutdown compacts: the log is snapshot-only.
    let path = dir.join(wal::wal_file_name("s1"));
    let scan = wal::scan(&path, &WalFaults::none()).unwrap();
    assert_eq!(scan.records.len(), 1);
    assert!(matches!(scan.records[0], Record::Snapshot(_)));

    let mut restored = durable(&dir);
    let report = recover(&mut restored, &wal_config(&dir));
    assert_eq!(report.sessions_recovered, 1, "{:?}", report.notes);
    let run = ok(&mut restored, r#"{"op":"run","session":"s1"}"#);
    assert_eq!(run.get("fingerprint").and_then(|f| f.as_str()), Some(expected.as_str()));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_edge_cases_refuse_cleanly() {
    // Empty dir and missing dir: quiet no-ops.
    let dir = tmp_dir("edges");
    let mut server = durable(&dir);
    let report = recover(&mut server, &wal_config(&dir));
    assert_eq!(report.sessions_recovered + report.sessions_skipped, 0);
    let missing = dir.join("never-created");
    let report = recover(&mut server, &wal_config(&missing));
    assert_eq!(report.sessions_recovered + report.sessions_skipped, 0);

    // Zero-length WAL: skipped with a clear note, file left in place.
    let zero = dir.join(wal::wal_file_name("zero"));
    fs::write(&zero, b"").unwrap();
    // Foreign file: refused, never replayed, left in place.
    let foreign = dir.join(wal::wal_file_name("alien"));
    fs::write(&foreign, b"some other program's data\n").unwrap();
    // Unsupported version: refused, left in place.
    let versioned = dir.join(wal::wal_file_name("future"));
    let mut bytes = wal::WAL_MAGIC.to_vec();
    bytes.extend_from_slice(&9u32.to_le_bytes());
    fs::write(&versioned, &bytes).unwrap();
    // A name this daemon could not have generated.
    let odd_name = dir.join("not-hex!.wal");
    fs::write(&odd_name, b"whatever").unwrap();

    let mut restored = durable(&dir);
    let report = recover(&mut restored, &wal_config(&dir));
    assert_eq!(report.sessions_recovered, 0);
    assert_eq!(report.sessions_skipped, 4, "{:?}", report.notes);
    let notes = report.notes.join("\n");
    assert!(notes.contains("zero-length"), "{notes}");
    assert!(notes.contains("not a parulel WAL"), "{notes}");
    assert!(notes.contains("unsupported WAL version 9"), "{notes}");
    assert!(notes.contains("not a name this daemon writes"), "{notes}");
    for path in [&zero, &foreign, &versioned, &odd_name] {
        assert!(path.exists(), "recovery deleted {path:?}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// An empty run's engine snapshot in the v4 layout: v5's fields plus four
/// phase durations, a trace count, the empty slot and a `"bytecode"` tag.
fn v4_engine_snapshot() -> Vec<u8> {
    let mut w = parulel_core::Writer::default();
    w.raw(b"PLSN");
    w.u32(4);
    w.str("fire-all");
    w.u64(0); // cycle
    w.u8(0); // halted
    // Next WME id, WMEs, refraction keys, nine counts, four durations,
    // log, traces and the empty slot.
    (0..19).for_each(|_| w.u64(0));
    w.str("bytecode");
    w.u64(0); // rule hashes
    w.into_bytes()
}

#[test]
fn a_v4_snapshot_record_is_skipped_reported_and_left_on_disk() {
    let dir = tmp_dir("v4");
    let cfg = wal_config(&dir);
    let open_line = Json::parse(&closure_frames("old")[0]).unwrap().render();
    let mut wal = SessionWal::create(&cfg, "old", &open_line).unwrap();
    wal.compact(&SnapshotRecord {
        open_line,
        snapshot: v4_engine_snapshot(),
        injected_adds: 0,
        injected_removes: 0,
        pending: Vec::new(),
        reloads: Vec::new(),
    })
    .unwrap();
    wal.sync().unwrap();
    drop(wal);
    let path = dir.join(wal::wal_file_name("old"));
    let before = fs::read(&path).unwrap();

    let mut restored = durable(&dir);
    let report = recover(&mut restored, &cfg);
    assert_eq!(report.sessions_recovered, 0, "{:?}", report.notes);
    assert_eq!(report.sessions_skipped, 1, "{:?}", report.notes);
    let notes = report.notes.join("\n");
    assert!(notes.contains("unsupported snapshot version 4"), "{notes}");
    assert!(notes.contains("left in place"), "{notes}");
    assert_eq!(fs::read(&path).unwrap(), before, "the log is left as it was");
    // Nor is the session half-open: the partial replay is dropped.
    assert_eq!(restored.session_count(), 0);
    let metrics = r#"{"op":"metrics","session":"old"}"#;
    assert_eq!(err_kind(&mut restored, metrics), "unknown-session");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_with_no_tail_and_tail_with_no_snapshot_both_recover() {
    // Tail with no snapshot: compaction disabled entirely.
    let dir = tmp_dir("shapes");
    let frames = closure_frames("t1");
    let expected = reference_fingerprint(&frames, "t1");
    let mut cfg = wal_config(&dir);
    cfg.snapshot_every = 0;
    let mut server = Server::with_wal(ServerConfig::default(), cfg.clone());
    for frame in &frames {
        ok(&mut server, frame);
    }
    drop(server);
    let scan = wal::scan(&cfg.dir.join(wal::wal_file_name("t1")), &WalFaults::none()).unwrap();
    assert!(scan.records.iter().all(|r| matches!(r, Record::Frame(_))));

    // Snapshot with no tail: compact manually through the WAL API.
    let mut reference = Server::new(ServerConfig::default());
    for frame in &frames {
        ok(&mut reference, frame);
    }
    let open_line = Json::parse(&frames[0]).unwrap().render();
    let mut manual = SessionWal::create(&cfg, "t2", &open_line).unwrap();
    // Borrow the reference session's engine state for the record.
    let snap_frame = ok(&mut reference, r#"{"op":"snapshot","session":"t1"}"#);
    let hex = snap_frame.get("snapshot").and_then(|s| s.as_str()).unwrap();
    let snapshot_bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();
    let open_t2 = open_line.replace("\"t1\"", "\"t2\"");
    manual
        .compact(&SnapshotRecord {
            open_line: open_t2,
            snapshot: snapshot_bytes,
            injected_adds: 0,
            injected_removes: 0,
            pending: frames
                .iter()
                .rfind(|f| f.contains(r#""op":"inject""#))
                .map(|f| vec![f.replace("\"t1\"", "\"t2\"")])
                .unwrap_or_default(),
            reloads: Vec::new(),
        })
        .unwrap();
    manual.sync().unwrap();
    drop(manual);

    let mut restored = Server::with_wal(ServerConfig::default(), cfg.clone());
    let report = recover(&mut restored, &cfg);
    assert_eq!(report.sessions_recovered, 2, "{:?}", report.notes);
    let run = ok(&mut restored, r#"{"op":"run","session":"t1"}"#);
    assert_eq!(run.get("fingerprint").and_then(|f| f.as_str()), Some(expected.as_str()));
    let _ = fs::remove_dir_all(&dir);
}

#[cfg(feature = "fault-inject")]
mod faults {
    use super::*;

    #[test]
    fn injected_torn_write_is_truncated_never_replayed() {
        let dir = tmp_dir("torn-write");
        let frames = closure_frames("f1");
        let mut cfg = wal_config(&dir);
        cfg.snapshot_every = 0;
        // Tear the 4th append mid-write: records 4.. are garbage on disk.
        cfg.faults = WalFaults {
            torn_write_at: Some(4),
            short_read_at: None,
        };
        let mut server = Server::with_wal(ServerConfig::default(), cfg.clone());
        let mut live = Vec::new();
        for frame in &frames {
            ok(&mut server, frame);
            live.push(fingerprint(&mut server, "f1"));
        }
        drop(server);

        let mut clean = cfg.clone();
        clean.faults = WalFaults::none();
        let mut restored = Server::with_wal(ServerConfig::default(), clean.clone());
        let report = recover(&mut restored, &clean);
        assert_eq!(report.sessions_recovered, 1, "{:?}", report.notes);
        assert_eq!(report.torn_records, 1);
        // Exactly the 3 whole records replay; the torn 4th never does.
        assert_eq!(report.frames_replayed, 3);
        assert_eq!(fingerprint(&mut restored, "f1"), live[2]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_short_read_truncates_at_the_damaged_record() {
        let dir = tmp_dir("short-read");
        let mut cfg = wal_config(&dir);
        cfg.snapshot_every = 0;
        let mut server = Server::with_wal(ServerConfig::default(), cfg.clone());
        let frames = closure_frames("r1");
        let mut live = Vec::new();
        for frame in &frames {
            ok(&mut server, frame);
            live.push(fingerprint(&mut server, "r1"));
        }
        drop(server);

        // The disk is fine, but reads of record 2 come up short.
        let mut damaged = cfg.clone();
        damaged.faults = WalFaults {
            torn_write_at: None,
            short_read_at: Some(2),
        };
        let mut restored = Server::with_wal(ServerConfig::default(), damaged.clone());
        let report = recover(&mut restored, &damaged);
        assert_eq!(report.sessions_recovered, 1, "{:?}", report.notes);
        assert_eq!(report.frames_replayed, 1);
        assert_eq!(fingerprint(&mut restored, "r1"), live[0]);
        let _ = fs::remove_dir_all(&dir);
    }
}
