//! Daemon-start recovery: rebuild every session the last process left
//! behind in `--wal-dir`.
//!
//! The algorithm leans entirely on determinism. A session's WAL is the
//! sequence of accepted mutating frames (possibly compacted to a
//! snapshot record plus a tail); the protocol core is deterministic; so
//! replaying the records through the very same
//! [`Server::handle_frame`] dispatch rebuilds the exact pre-crash
//! session — a property the crash tests check with WM fingerprints
//! rather than assume.
//!
//! Per file, in deterministic (file-name) order:
//!
//! 1. **Decode** the session name from the file name; refuse files this
//!    daemon could not have written.
//! 2. **Scan** the log, stopping at the first torn or corrupt record.
//!    A torn tail — the partial record a `kill -9` mid-append leaves —
//!    is physically truncated away, never replayed.
//! 3. **Replay**: a snapshot record re-opens the session, replays any
//!    logged `reload` frames (the program swap is not part of the engine
//!    snapshot), and restores engine state via the versioned snapshot
//!    format; frame records run through `handle_frame` with WAL I/O
//!    suppressed (the session has no log handle yet).
//! 4. **Reattach**: a session that survived replay gets a resumed log
//!    handle in its [`Session`](crate::Session) record (appends continue
//!    where the log left off); a session whose replay closed or killed
//!    it has nothing to recover, so its file is deleted.
//!
//! Files that cannot be recovered (foreign magic, unsupported version,
//! zero length, undecodable name) are *left on disk* and reported in
//! the [`RecoveryReport`] — recovery never destroys what it does not
//! understand.

use crate::protocol;
use crate::server::Server;
use crate::wal::{self, Record, SessionWal, WalConfig, WalError};
use parulel_engine::{Json, Snapshot};
use std::fs::OpenOptions;
use std::path::Path;

/// What recovery did, for the daemon's startup banner and `ping`.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Sessions rebuilt and live again.
    pub sessions_recovered: usize,
    /// WAL files skipped (foreign, unreadable, refused open) — left on
    /// disk, reasons in `notes`.
    pub sessions_skipped: usize,
    /// Frame records replayed through the protocol core.
    pub frames_replayed: u64,
    /// Torn trailing records truncated away.
    pub torn_records: u64,
    /// Human-readable notes, one per anomaly.
    pub notes: Vec<String>,
}

impl RecoveryReport {
    /// One-line summary for the startup banner.
    pub fn summary(&self) -> String {
        format!(
            "recovered {} session(s), replayed {} frame(s), truncated {} torn record(s), skipped {}",
            self.sessions_recovered, self.frames_replayed, self.torn_records, self.sessions_skipped
        )
    }
}

/// Scans `config.dir` and rebuilds every recoverable session into
/// `server`. See the [module docs](self).
pub fn recover(server: &mut Server, config: &WalConfig) -> RecoveryReport {
    recover_shard(server, config, 0, 1)
}

/// [`recover`] restricted to the sessions one scheduler shard owns:
/// only WAL files whose decoded session name hashes to `shard` (under
/// [`crate::sched::shard_of`] with `shards` workers) are recovered into
/// `server`; every other file is ignored — not skipped, not noted — so
/// N shards scanning the same directory partition it exactly.
///
/// Undecodable file names are claimed by shard 0 (exactly one shard
/// must report them).
pub fn recover_shard(
    server: &mut Server,
    config: &WalConfig,
    shard: usize,
    shards: usize,
) -> RecoveryReport {
    let mut report = RecoveryReport::default();
    let entries = match std::fs::read_dir(&config.dir) {
        Ok(entries) => entries,
        // A missing WAL dir is the common first boot, not an anomaly.
        Err(_) => return report,
    };
    let mut files: Vec<(String, std::path::PathBuf)> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            name.ends_with(".wal").then(|| (name, e.path()))
        })
        .collect();
    files.sort();
    for (file_name, path) in files {
        let owner = match wal::session_from_file_name(&file_name) {
            Some(session) => crate::sched::shard_of(&session, shards),
            None => 0,
        };
        if owner != shard {
            continue;
        }
        recover_file(server, config, &file_name, &path, &mut report);
    }
    report
}

fn recover_file(
    server: &mut Server,
    config: &WalConfig,
    file_name: &str,
    path: &Path,
    report: &mut RecoveryReport,
) {
    let Some(session) = wal::session_from_file_name(file_name) else {
        report.sessions_skipped += 1;
        report
            .notes
            .push(format!("{file_name}: not a name this daemon writes; left in place"));
        return;
    };
    let scan = match wal::scan(path, &config.faults) {
        Ok(scan) => scan,
        Err(err @ (WalError::Foreign | WalError::UnsupportedVersion(_) | WalError::Empty)) => {
            report.sessions_skipped += 1;
            report.notes.push(format!("{file_name}: {err}; left in place"));
            return;
        }
        Err(err) => {
            report.sessions_skipped += 1;
            report.notes.push(format!("{file_name}: {err}"));
            return;
        }
    };
    if scan.truncated {
        report.torn_records += 1;
        // Physically drop the torn tail so the file is clean even if the
        // session turns out unrecoverable below.
        if let Err(e) = truncate_to(path, scan.valid_len) {
            report
                .notes
                .push(format!("{file_name}: could not truncate torn tail: {e}"));
        } else {
            report
                .notes
                .push(format!("{file_name}: truncated torn tail at byte {}", scan.valid_len));
        }
    }
    if scan.records.is_empty() {
        // Header only: the process died between creating the log and
        // recording the open. No state ever existed.
        let _ = std::fs::remove_file(path);
        report
            .notes
            .push(format!("{file_name}: header only (no records); removed"));
        return;
    }

    // Replay, with the server's WAL I/O suppressed.
    server.set_replaying(true);
    let replay = replay_records(server, &session, &scan.records, report);
    server.set_replaying(false);

    let open_line = match replay {
        Ok(open_line) => open_line,
        Err(why) => {
            report.sessions_skipped += 1;
            report.notes.push(format!("{file_name}: {why}; left in place"));
            return;
        }
    };
    let Some(live) = server.session_mut(&session) else {
        // The log faithfully replays to a closed (or engine-killed)
        // session: nothing is live, nothing to keep.
        let _ = std::fs::remove_file(path);
        report
            .notes
            .push(format!("{file_name}: replays to a closed session; removed"));
        return;
    };
    let tail_records = scan
        .records
        .iter()
        .rev()
        .take_while(|r| matches!(r, Record::Frame(_)))
        .count() as u64;
    match SessionWal::resume(config, &session, &open_line, scan.valid_len, tail_records) {
        Ok(wal) => {
            live.wal = Some(wal);
            server.note_recovered();
            report.sessions_recovered += 1;
        }
        Err(e) => {
            report.sessions_skipped += 1;
            report
                .notes
                .push(format!("{file_name}: recovered but could not reattach log: {e}"));
        }
    }
}

/// Replays one session's records. Returns the session's `open` line
/// (needed to resume the log handle) or a reason the file cannot be
/// replayed.
fn replay_records(
    server: &mut Server,
    session: &str,
    records: &[Record],
    report: &mut RecoveryReport,
) -> Result<String, String> {
    let mut open_line: Option<String> = None;
    for record in records {
        match record {
            Record::Frame(line) => {
                let frame = Json::parse(line)
                    .map_err(|e| format!("unparseable logged frame: {e}"))?;
                if open_line.is_none() {
                    if frame.get("op").and_then(|v| v.as_str()) != Some("open") {
                        return Err("first record is not an open frame".to_string());
                    }
                    open_line = Some(line.clone());
                    let response = server.handle_frame(&frame);
                    if response.get("ok") != Some(&Json::Bool(true)) {
                        return Err(format!(
                            "open refused on replay: {}",
                            response.render()
                        ));
                    }
                } else {
                    // Refused frames refused originally too (replay is
                    // the same deterministic dispatch); no check needed.
                    server.handle_frame(&frame);
                }
                report.frames_replayed += 1;
            }
            Record::Snapshot(snap) => {
                let frame = Json::parse(&snap.open_line)
                    .map_err(|e| format!("unparseable open line in snapshot record: {e}"))?;
                open_line = Some(snap.open_line.clone());
                let response = server.handle_frame(&frame);
                if response.get("ok") != Some(&Json::Bool(true)) {
                    return Err(format!("open refused on replay: {}", response.render()));
                }
                // Program swaps precede the state restore: the engine
                // snapshot carries no program, and `restore` resumes
                // against whatever program the session runs *now*.
                // Replaying every reload in order also re-interns the
                // exact symbol sequence the original session saw.
                for reload in &snap.reloads {
                    let frame = Json::parse(reload)
                        .map_err(|e| format!("unparseable logged reload: {e}"))?;
                    let response = server.handle_frame(&frame);
                    if response.get("ok") != Some(&Json::Bool(true)) {
                        return Err(format!(
                            "reload refused on replay: {}",
                            response.render()
                        ));
                    }
                    report.frames_replayed += 1;
                }
                let snapshot = Snapshot::from_bytes(&snap.snapshot)
                    .map_err(|e| format!("bad engine snapshot in record: {e}"))?;
                let live = server
                    .session_mut(session)
                    .ok_or_else(|| "open replay did not create the session".to_string())?;
                live.engine
                    .restore(&snapshot)
                    .map_err(|e| format!("snapshot restore failed: {e}"))?;
                live.injected_adds = snap.injected_adds;
                live.injected_removes = snap.injected_removes;
                // Queued-but-undrained injects re-enter through the
                // normal inject path (and re-mirror as pendings).
                for pending in &snap.pending {
                    let frame = Json::parse(pending)
                        .map_err(|e| format!("unparseable pending inject: {e}"))?;
                    server.handle_frame(&frame);
                    report.frames_replayed += 1;
                }
            }
        }
    }
    open_line.ok_or_else(|| "no open frame in log".to_string())
}

fn truncate_to(path: &Path, len: u64) -> std::io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_data()
}

/// Convenience for tests and the crash proof: the fingerprint a
/// recovered session should be compared with (re-exported so callers do
/// not need the protocol module).
pub fn fingerprint(server: &mut Server, session: &str) -> Option<String> {
    server
        .session_mut(session)
        .map(|s| protocol::fingerprint_hex(s.engine.wm()))
}
