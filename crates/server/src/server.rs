//! The daemon core: a session table and a synchronous frame handler.
//!
//! [`Server::handle_parsed`] is the whole protocol — [`Server::handle_line`]
//! parses and calls it, the stdio pump and the scheduler's shard workers
//! are thin loops around them, and tests drive them directly. One request
//! frame in, one response frame out; the server never blocks inside a
//! handler (injects queue, runs are bounded by the session's budgets and
//! cycle limit).
//!
//! Every `run` / `run-to-fixpoint` takes one path: it is admitted, then
//! advanced in slices of at most `quantum` cycles, each ending at a
//! match → redact → fire-all cycle boundary. At quantum `0` the first
//! slice is the whole run, which is how [`Server::handle_line`] and WAL
//! replay ([`Server::handle_frame`]) run; the scheduler passes its
//! `--run-quantum` and drives a parked run on with
//! [`Server::resume_run`] while other frames interleave.
//!
//! Graceful degradation: verbs that advance a session's engine run
//! behind `catch_unwind`. A budget trip or RHS failure surfaces as a
//! structured `engine` error frame and removes that one session; a panic
//! that somehow escapes the kernel's own RHS isolation is caught here
//! and does the same. The daemon itself never dies on a frame.
//!
//! Durability (optional, [`Server::with_wal`]): every accepted mutating
//! frame is appended to the owning session's write-ahead log *before* it
//! is applied. Because the core is deterministic, replaying the log
//! through this same dispatch path rebuilds the exact session — that is
//! the whole recovery story (see [`crate::recovery`]). During replay the
//! [`Server`] runs with WAL I/O suppressed so recovery cannot re-log
//! what it replays.

use crate::protocol::{self, kind, ok_frame, Failure};
use crate::session::{engine_failure, Session};
use crate::wal::{SessionWal, SnapshotRecord, WalConfig};
use parulel_core::Delta;
use parulel_engine::{
    Budgets, Engine, EngineOptions, FiringPolicy, GuardMode, Json, MatcherKind,
    MetricsLevel, Snapshot, Strategy,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server-wide policy knobs (CLI flags map onto this).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Admission control: `open` beyond this many live sessions is
    /// refused with an `admission` error.
    pub max_sessions: usize,
    /// Per-session inject-queue capacity, in WME changes.
    pub inject_queue: usize,
    /// Budgets applied to every session unless its `open` frame
    /// overrides them.
    pub default_budgets: Budgets,
    /// Cycle limit per `run` for every session unless overridden.
    pub max_cycles: u64,
    /// Observability level for session engines.
    pub metrics: MetricsLevel,
    /// Capacity of each session's structured trace-event ring.
    pub trace_ring: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            inject_queue: 1024,
            default_budgets: Budgets::unlimited(),
            max_cycles: 1_000_000,
            metrics: MetricsLevel::Rules,
            trace_ring: 4096,
        }
    }
}

/// Verbs that mutate session state and therefore hit the WAL
/// (log-before-apply). `open` is handled separately: its log file does
/// not exist until the open is accepted.
const MUTATING_VERBS: [&str; 7] = [
    "inject",
    "step",
    "run",
    "run-to-fixpoint",
    "restore",
    "reload",
    "close",
];

/// Bookkeeping for an admitted `run`/`run-to-fixpoint` between its
/// slices (see [`Server::resume_run`]).
struct ActiveRun {
    /// The request's verb (`run` or `run-to-fixpoint`), echoed in error
    /// frames.
    op: String,
    /// Injects drained when the run was admitted.
    drained: usize,
    /// The run-level cycle cap (the session's `max_cycles`), enforced
    /// across slices.
    cap: u64,
    /// Cycles executed by completed slices.
    cycles: u64,
    /// Firings by completed slices.
    firings: u64,
    /// When the run was admitted. The wall-clock budget deadline is
    /// measured from here — *including* time spent parked — so a sliced
    /// run sees the same deadline as an uninterrupted one.
    started: Instant,
}

/// The daemon core. See the [module docs](self).
pub struct Server {
    config: ServerConfig,
    /// `BTreeMap` so every listing renders in deterministic name order.
    sessions: BTreeMap<String, Session>,
    /// Live sessions admitted against `config.max_sessions`. Shards of
    /// one daemon share a single gauge ([`Server::share_admission`]) so
    /// the limit stays global and a session closed on any shard frees
    /// its slot immediately — `open` admission never counts
    /// closed-but-not-yet-reaped sessions.
    admission: Arc<AtomicUsize>,
    /// Parked runs (same keys as `sessions` while parked).
    runs: BTreeMap<String, ActiveRun>,
    peak_sessions: usize,
    frames: u64,
    errors: u64,
    /// One flag for the whole daemon: every shard's server holds the
    /// same `Arc` (see [`Server::share_admission`]).
    shutdown: Arc<AtomicBool>,
    /// Durability configuration; `None` means the daemon runs exactly as
    /// before and nothing below touches disk.
    wal: Option<WalConfig>,
    /// One log handle per live session (same keys as `sessions` when
    /// durability is on).
    wals: BTreeMap<String, SessionWal>,
    /// True while recovery replays logged frames: suppresses all WAL
    /// I/O so replay cannot re-log (or compact, or delete) what it
    /// replays.
    replaying: bool,
    /// Lifetime WAL records appended.
    wal_records: u64,
    /// Lifetime compactions performed.
    wal_snapshots: u64,
    /// Sessions rebuilt by recovery at daemon start.
    recovered: usize,
}

impl Server {
    /// An empty server under `config`, no durability.
    pub fn new(config: ServerConfig) -> Server {
        Server {
            config,
            sessions: BTreeMap::new(),
            admission: Arc::new(AtomicUsize::new(0)),
            runs: BTreeMap::new(),
            peak_sessions: 0,
            frames: 0,
            errors: 0,
            shutdown: Arc::new(AtomicBool::new(false)),
            wal: None,
            wals: BTreeMap::new(),
            replaying: false,
            wal_records: 0,
            wal_snapshots: 0,
            recovered: 0,
        }
    }

    /// An empty server with durability: accepted mutating frames are
    /// write-ahead logged under `wal.dir` and sessions survive process
    /// death (run [`crate::recovery::recover`] before serving to pick
    /// survivors back up).
    pub fn with_wal(config: ServerConfig, wal: WalConfig) -> Server {
        let mut server = Server::new(config);
        server.wal = Some(wal);
        server
    }

    /// The durability configuration, if any.
    pub fn wal_config(&self) -> Option<&WalConfig> {
        self.wal.as_ref()
    }

    /// Toggles replay mode (recovery only): while on, the dispatch path
    /// applies frames without any WAL I/O.
    pub(crate) fn set_replaying(&mut self, on: bool) {
        self.replaying = on;
    }

    /// Direct session access for recovery (snapshot restore, counter
    /// reinstatement).
    pub(crate) fn session_mut(&mut self, name: &str) -> Option<&mut Session> {
        self.sessions.get_mut(name)
    }

    /// Attaches a resumed log handle to a recovered session.
    pub(crate) fn attach_wal(&mut self, name: &str, wal: SessionWal) {
        self.wals.insert(name.to_string(), wal);
    }

    /// Bumps the recovered-session counter (reported in `ping`).
    pub(crate) fn note_recovered(&mut self) {
        self.recovered += 1;
    }

    /// True once a `shutdown` frame has been accepted; the stdio pump
    /// stops when it sees it.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// A shared handle on the shutdown flag, for
    /// [`share_admission`](Self::share_admission).
    pub fn shutdown_signal(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The shared live-session gauge (admission control state).
    pub fn admission_gauge(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.admission)
    }

    /// Makes this server admit sessions against `gauge` instead of its
    /// private one. The scheduler shares one gauge (and one shutdown
    /// flag) across every shard's server so
    /// `max_sessions` bounds the *daemon*, not each shard. Call before
    /// any session is opened or recovered.
    pub fn share_admission(&mut self, gauge: Arc<AtomicUsize>, shutdown: Arc<AtomicBool>) {
        debug_assert!(self.sessions.is_empty());
        self.admission = gauge;
        self.shutdown = shutdown;
    }

    /// Live session count on this server (one shard's view when sharded).
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Handles one protocol line: parse, then [`handle_parsed`] at
    /// quantum `0`. Returns `None` for blank lines (they are skipped, not
    /// errors), otherwise exactly one rendered response frame.
    ///
    /// [`handle_parsed`]: Self::handle_parsed
    pub fn handle_line(&mut self, line: &str) -> Option<String> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        self.handle_parsed(&Json::parse(line), 0)
    }

    /// Handles one parsed request frame, or the error that parsing it
    /// produced. A `run` / `run-to-fixpoint` executes its first `quantum`
    /// cycles (the whole run at quantum `0`); a run that has not finished
    /// parks and `None` is returned — the caller drives it on with
    /// [`resume_run`](Self::resume_run) while other frames interleave.
    /// Every other frame returns its rendered response.
    ///
    /// WAL ordering does not depend on slicing: the run frame is logged
    /// before its first cycle executes (log-before-apply).
    pub fn handle_parsed(&mut self, frame: &Result<Json, String>, quantum: u64) -> Option<String> {
        self.frames += 1;
        let response = match frame {
            Err(e) => Failure::new(kind::PARSE, format!("bad frame: {e}")).to_frame(None, None),
            Ok(frame) => self.dispatch(frame, quantum)?,
        };
        Some(self.finish(response))
    }

    /// Counts a failed response frame and renders it.
    fn finish(&mut self, response: Json) -> String {
        if response.get("ok") != Some(&Json::Bool(true)) {
            self.errors += 1;
        }
        response.render()
    }

    /// Advances a parked run by at most `quantum` cycles. Returns the
    /// rendered response frame when the run completes (or kills its
    /// session), `None` while it stays parked or when `name` has no
    /// parked run.
    pub fn resume_run(&mut self, name: &str, quantum: u64) -> Option<String> {
        let response = self.run_slice(name, quantum)?;
        Some(self.finish(response))
    }

    /// Drives every parked run to completion (one unbounded slice each),
    /// returning `(session, response)` pairs in name order. The scheduler
    /// calls this on shutdown so in-flight runs finish at a cycle
    /// boundary and their responses are delivered *before* the server
    /// persists — a shutdown never abandons a run mid-flight.
    pub fn drain_runs(&mut self) -> Vec<(String, String)> {
        let names: Vec<String> = self.runs.keys().cloned().collect();
        names
            .into_iter()
            .filter_map(|name| {
                let response = self.resume_run(&name, 0)?;
                Some((name, response))
            })
            .collect()
    }

    /// Dispatches one parsed frame, running a `run` to completion. Frame
    /// and error counters are left alone: WAL replay and the scheduler's
    /// control broadcasts come through here.
    pub fn handle_frame(&mut self, frame: &Json) -> Json {
        self.dispatch(frame, 0).expect("a run at quantum 0 never parks")
    }

    /// Dispatches one parsed frame; `None` means a run parked.
    fn dispatch(&mut self, frame: &Json, quantum: u64) -> Option<Json> {
        let op = match frame.get("op").and_then(|v| v.as_str()) {
            Some(op) => op.to_string(),
            None => {
                return Some(
                    Failure::new(kind::PROTOCOL, "missing string field \"op\"").to_frame(None, None),
                )
            }
        };
        let session = frame
            .get("session")
            .and_then(|v| v.as_str())
            .map(str::to_string);
        let result = match op.as_str() {
            "ping" => {
                let mut response = ok_frame("ping");
                // Durability status only when the layer exists: with WAL
                // off the frame is byte-identical to every pinned golden
                // transcript.
                if let Some(cfg) = &self.wal {
                    response = response
                        .set("wal", cfg.sync.tag())
                        .set("recovered_sessions", self.recovered);
                }
                Ok(response)
            }
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                // Safety net for direct `handle_line` users: parked runs
                // finish at a cycle boundary before anything persists.
                // (The scheduler drains first via `drain_runs` so the
                // responses are delivered too.)
                let _ = self.drain_runs();
                let closed = self.sessions.len();
                let mut response = ok_frame("shutdown").set("sessions_closed", closed);
                if self.wal.is_some() && !self.replaying {
                    // Protocol-initiated shutdown is still graceful:
                    // every live session is compacted to a snapshot
                    // record and fsynced, so it recovers at restart.
                    response = response.set("persisted", self.persist_all());
                }
                self.admission.fetch_sub(closed, Ordering::SeqCst);
                self.sessions.clear();
                self.wals.clear();
                Ok(response)
            }
            "sync" => self.sync_wal(session.as_deref()),
            "metrics" if session.is_none() => Ok(self.server_metrics()),
            "open" => self.open(frame, session.as_deref()),
            "inject" | "step" | "run" | "run-to-fixpoint" | "query" | "snapshot" | "restore"
            | "reload" | "metrics" | "trace" | "close" => {
                let name = match session.as_deref() {
                    Some(name) => name,
                    None => {
                        return Some(
                            Failure::new(kind::PROTOCOL, "missing string field \"session\"")
                                .to_frame(Some(&op), None),
                        )
                    }
                };
                if matches!(op.as_str(), "run" | "run-to-fixpoint") {
                    match self.admit_run(&op, name, frame) {
                        Ok(()) => return self.run_slice(name, quantum),
                        Err(failure) => Err(failure),
                    }
                } else {
                    // Log-before-apply: an accepted mutating frame must
                    // be on disk before it can change the session.
                    // (Refused frames are logged too — they refuse
                    // identically on replay, because replay drives this
                    // same dispatch with the same state.)
                    if let Err(failure) = self.wal_append(&op, name, frame) {
                        return Some(failure.to_frame(Some(&op), Some(name)));
                    }
                    let result = self.session_verb(&op, name, |server, session| {
                        server.run_session_verb(&op, name, frame, session)
                    });
                    self.wal_after_verb(name);
                    result
                }
            }
            other => Err(Failure::new(kind::PROTOCOL, format!("unknown verb {other:?}"))),
        };
        Some(match result {
            Ok(frame) => frame,
            Err(failure) => failure.to_frame(Some(&op), session.as_deref()),
        })
    }

    /// Admits a run: log-before-apply, drain the inject queue, and record
    /// the run-level cycle cap.
    fn admit_run(&mut self, op: &str, name: &str, frame: &Json) -> Result<(), Failure> {
        // A second run under a parked one would advance the same engine
        // twice. The scheduler defers such frames; a direct caller is
        // refused — before logging, since replay never parks and would
        // run a logged refusal.
        if self.runs.contains_key(name) {
            return Err(Failure::new(
                kind::PROTOCOL,
                format!("session {name:?} already has a run in progress"),
            ));
        }
        self.wal_append(op, name, frame)?;
        let session = self.sessions.get_mut(name).ok_or_else(|| unknown_session(name))?;
        let run = ActiveRun {
            op: op.to_string(),
            drained: session.drain(),
            cap: session.engine.max_cycles(),
            cycles: 0,
            firings: 0,
            started: Instant::now(),
        };
        self.runs.insert(name.to_string(), run);
        Ok(())
    }

    /// Advances an admitted run by one slice of at most `quantum` cycles
    /// (the rest of the run at quantum `0`). `None` while the run stays
    /// parked; otherwise its response frame — the `run` result, or the
    /// engine-failure or panic obituary of its session.
    fn run_slice(&mut self, name: &str, quantum: u64) -> Option<Json> {
        let mut run = self.runs.remove(name)?;
        let op = run.op.clone();
        let result = self.session_verb(&op, name, |_, session| {
            let left = run.cap - run.cycles;
            let slice = if quantum == 0 { left } else { quantum.min(left) };
            let outcome = session
                .engine
                .run_bounded(slice, run.started)
                .map_err(|e| engine_failure(&e))?;
            run.cycles += outcome.cycles;
            run.firings += outcome.firings;
            if !(outcome.halted || outcome.quiescent || run.cycles >= run.cap) {
                return Ok(None);
            }
            session.engine.note_run_end(run.cycles, run.firings, outcome.status());
            Ok(Some(
                ok_frame("run")
                    .set("session", name)
                    .set("drained", run.drained)
                    .set("status", outcome.status())
                    .set("cycles", run.cycles)
                    .set("firings", run.firings)
                    .set("wm", session.engine.wm().len())
                    .set("fingerprint", session.fingerprint()),
            ))
        });
        let response = match result {
            Ok(None) => {
                self.runs.insert(name.to_string(), run);
                return None;
            }
            Ok(Some(response)) => response,
            Err(failure) => failure.to_frame(Some(&op), Some(name)),
        };
        self.wal_after_verb(name);
        Some(response)
    }

    /// Appends a mutating session frame to its WAL, if durability is on,
    /// replay is not running, and the session exists (frames for unknown
    /// sessions mutate nothing and need no record).
    fn wal_append(&mut self, op: &str, name: &str, frame: &Json) -> Result<(), Failure> {
        if self.wal.is_none() || self.replaying || !MUTATING_VERBS.contains(&op) {
            return Ok(());
        }
        let Some(wal) = self.wals.get_mut(name) else {
            return Ok(());
        };
        wal.append_frame(&frame.render())
            .map_err(|e| Failure::new(kind::WAL, format!("WAL append failed: {e}")))?;
        self.wal_records += 1;
        Ok(())
    }

    /// Post-verb WAL lifecycle: a session that no longer exists (closed,
    /// or killed by an engine failure/panic) has nothing left to
    /// recover, so its log is deleted; a surviving session whose replay
    /// tail has grown past `snapshot_every` is compacted.
    fn wal_after_verb(&mut self, name: &str) {
        if self.wal.is_none() || self.replaying {
            return;
        }
        if !self.sessions.contains_key(name) {
            if let Some(wal) = self.wals.remove(name) {
                let _ = wal.delete();
            }
            return;
        }
        let every = self.wal.as_ref().map(|c| c.snapshot_every).unwrap_or(0);
        let due = every > 0
            && self
                .wals
                .get(name)
                .is_some_and(|w| w.records_since_snapshot >= every);
        if due {
            let _ = self.compact_session(name);
        }
    }

    /// Compacts one session's log to `header + snapshot record`.
    fn compact_session(&mut self, name: &str) -> std::io::Result<()> {
        let (Some(session), Some(wal)) = (self.sessions.get(name), self.wals.get_mut(name))
        else {
            return Ok(());
        };
        let record = SnapshotRecord {
            open_line: wal.open_line.clone(),
            snapshot: session.engine.checkpoint().to_bytes(),
            injected_adds: session.injected_adds,
            injected_removes: session.injected_removes,
            pending: session.pending_lines().to_vec(),
            reloads: session.reload_lines().to_vec(),
        };
        wal.compact(&record)?;
        self.wal_snapshots += 1;
        Ok(())
    }

    /// Compacts and fsyncs every live session's log (graceful shutdown:
    /// the `shutdown` frame, and SIGTERM/SIGINT on socket transports).
    /// Returns how many sessions were persisted.
    pub fn persist_all(&mut self) -> usize {
        // Parked runs finish first: a snapshot captured
        // mid-run would persist half-run state while the logged run
        // frame replays *again* at recovery — the fingerprint would
        // diverge from an uninterrupted run.
        let _ = self.drain_runs();
        let names: Vec<String> = self.sessions.keys().cloned().collect();
        let mut persisted = 0;
        for name in names {
            if self.compact_session(&name).is_ok() {
                if let Some(wal) = self.wals.get_mut(&name) {
                    if wal.sync().is_ok() {
                        persisted += 1;
                    }
                }
            }
        }
        persisted
    }

    /// The `sync` verb: fsync one session's log, or every log when no
    /// session is named. A protocol error when durability is off.
    fn sync_wal(&mut self, session: Option<&str>) -> Result<Json, Failure> {
        if self.wal.is_none() {
            return Err(Failure::new(
                kind::PROTOCOL,
                "durability is not enabled (start the daemon with --wal-dir)",
            ));
        }
        let sync_one = |wal: &mut SessionWal| {
            wal.sync()
                .map_err(|e| Failure::new(kind::WAL, format!("fsync failed: {e}")))
        };
        match session {
            Some(name) => {
                let wal = self.wals.get_mut(name).ok_or_else(|| unknown_session(name))?;
                sync_one(wal)?;
                Ok(ok_frame("sync").set("session", name).set("synced", 1usize))
            }
            None => {
                let mut synced = 0usize;
                for wal in self.wals.values_mut() {
                    sync_one(wal)?;
                    synced += 1;
                }
                Ok(ok_frame("sync").set("synced", synced))
            }
        }
    }

    /// The server-level `metrics` frame (no `session` field): admission
    /// and throughput counters plus the live session list.
    fn server_metrics(&self) -> Json {
        let names: Vec<Json> = self.sessions.keys().map(|k| Json::from(k.as_str())).collect();
        let mut response = ok_frame("metrics")
            .set("sessions", self.sessions.len())
            .set("peak_sessions", self.peak_sessions)
            .set("max_sessions", self.config.max_sessions)
            .set("frames", self.frames)
            .set("errors", self.errors);
        // Durability counters only when the layer exists (golden
        // transcripts pin the WAL-off rendering byte-for-byte).
        if let Some(cfg) = &self.wal {
            response = response
                .set("wal_sync", cfg.sync.tag())
                .set("wal_records", self.wal_records)
                .set("wal_bytes", self.wals.values().map(|w| w.bytes).sum::<u64>())
                .set("wal_snapshots", self.wal_snapshots)
                .set("recovered_sessions", self.recovered);
        }
        response.set("session_list", names)
    }

    /// `open`: admission control, compile, build the engine, register
    /// the session.
    fn open(&mut self, frame: &Json, session: Option<&str>) -> Result<Json, Failure> {
        let name = session
            .ok_or_else(|| Failure::new(kind::PROTOCOL, "missing string field \"session\""))?;
        if name.is_empty() || name.len() > 128 {
            return Err(Failure::new(
                kind::PROTOCOL,
                "session names must be 1..=128 characters",
            ));
        }
        if self.sessions.contains_key(name) {
            return Err(Failure::new(
                kind::SESSION_EXISTS,
                format!("session {name:?} is already open"),
            ));
        }
        // Admission: reserve a slot on the (possibly shared) gauge. Only
        // *live* sessions hold slots — close/failure/shutdown release
        // them immediately, so churn against the limit never refuses an
        // open for a session that is already gone.
        if self
            .admission
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.config.max_sessions).then_some(n + 1)
            })
            .is_err()
        {
            return Err(Failure::new(
                kind::ADMISSION,
                format!(
                    "server at capacity ({} sessions); close one first",
                    self.config.max_sessions
                ),
            ));
        }
        let result = self.open_reserved(frame, name);
        if result.is_err() {
            self.admission.fetch_sub(1, Ordering::SeqCst);
        }
        result
    }

    /// The fallible tail of `open`, running with an admission slot
    /// already reserved (released by the caller on error).
    fn open_reserved(&mut self, frame: &Json, name: &str) -> Result<Json, Failure> {
        let source = protocol::req_str(frame, "program")?;
        let (program, wm) = parulel_lang::compile_with_wm(source)
            .map_err(|e| Failure::new(kind::COMPILE, e.to_string()))?;
        let policy = parse_policy(frame)?;
        let opts = self.engine_options(frame)?;
        let engine = Engine::with_policy(&program, wm, policy, opts);
        // Log-before-apply for `open`: the session's log is created and
        // the open frame recorded once the open is known to be accepted,
        // but before the session exists. If the disk refuses, so does
        // the open.
        if let (Some(cfg), false) = (self.wal.as_ref(), self.replaying) {
            let line = frame.render();
            let mut wal = SessionWal::create(cfg, name, &line)
                .map_err(|e| Failure::new(kind::WAL, format!("WAL create failed: {e}")))?;
            wal.append_frame(&line)
                .map_err(|e| Failure::new(kind::WAL, format!("WAL append failed: {e}")))?;
            self.wal_records += 1;
            self.wals.insert(name.to_string(), wal);
        }
        let response = ok_frame("open")
            .set("session", name)
            .set("policy", policy.tag())
            .set("rules", program.rules().len())
            .set("wm", engine.wm().len());
        self.sessions
            .insert(name.to_string(), Session::new(engine, self.config.inject_queue));
        // The gauge is the daemon-wide live count (it equals
        // `sessions.len()` when this server stands alone).
        self.peak_sessions = self.peak_sessions.max(self.admission.load(Ordering::SeqCst));
        Ok(response)
    }

    /// Builds the per-session [`EngineOptions`] from server defaults plus
    /// the `open` frame's overrides.
    fn engine_options(&self, frame: &Json) -> Result<EngineOptions, Failure> {
        let mut budgets = self.config.default_budgets.clone();
        if let Some(ms) = protocol::opt_u64(frame, "timeout_ms")? {
            budgets.timeout = Some(Duration::from_millis(ms));
        }
        if let Some(n) = protocol::opt_u64(frame, "max_wm")? {
            budgets.max_wm = Some(n as usize);
        }
        if let Some(n) = protocol::opt_u64(frame, "max_cs")? {
            budgets.max_conflict_set = Some(n as usize);
        }
        if let Some(n) = protocol::opt_u64(frame, "max_delta")? {
            budgets.max_delta = Some(n as usize);
        }
        let matcher = match frame.get("matcher").and_then(|v| v.as_str()) {
            None => MatcherKind::Rete,
            Some(s) => parse_matcher(s)?,
        };
        let metrics = match frame.get("metrics").and_then(|v| v.as_str()) {
            None => self.config.metrics,
            Some("off") => MetricsLevel::Off,
            Some("rules") => MetricsLevel::Rules,
            Some("full") => MetricsLevel::Full,
            Some(other) => {
                return Err(Failure::new(
                    kind::PROTOCOL,
                    format!("unknown metrics level {other:?}"),
                ))
            }
        };
        Ok(EngineOptions {
            matcher,
            metrics,
            budgets,
            max_cycles: protocol::opt_u64(frame, "max_cycles")?.unwrap_or(self.config.max_cycles),
            // Long-lived sessions must stay bounded: `write` output is
            // dropped unless the client opts in, and trace events live
            // in a fixed ring.
            collect_log: frame.get("log") == Some(&Json::Bool(true)),
            trace_events: Some(self.config.trace_ring),
            ..EngineOptions::default()
        })
    }

    /// Runs `verb` on one existing session, taken out of the table while
    /// its engine runs: on success it is reinserted, on an engine failure
    /// or a panic it is dropped — the structured error frame is the
    /// session's obituary, and every other session is untouched. A
    /// session that does not survive releases its admission slot here:
    /// the gauge counts live sessions only.
    fn session_verb<T>(
        &mut self,
        op: &str,
        name: &str,
        verb: impl FnOnce(&Self, &mut Session) -> Result<T, Failure>,
    ) -> Result<T, Failure> {
        let mut session = self.sessions.remove(name).ok_or_else(|| unknown_session(name))?;
        let result = catch_unwind(AssertUnwindSafe(|| verb(self, &mut session))).unwrap_or_else(
            |_| {
                let mut failure = Failure::new(
                    kind::ENGINE,
                    format!("panic while serving {op:?}; session {name:?} closed"),
                );
                failure.engine = Some(("panic", 0));
                failure.closed = true;
                Err(failure)
            },
        );
        let survives = match &result {
            Ok(_) => op != "close",
            Err(failure) => !failure.closed,
        };
        if survives {
            self.sessions.insert(name.to_string(), session);
        } else {
            self.admission.fetch_sub(1, Ordering::SeqCst);
        }
        result
    }

    fn run_session_verb(
        &self,
        op: &str,
        name: &str,
        frame: &Json,
        session: &mut Session,
    ) -> Result<Json, Failure> {
        match op {
            "inject" => {
                let delta = parse_delta(frame, session.engine.program())?;
                let queued = session.enqueue(delta)?;
                if self.wal.is_some() {
                    // Compaction records carry queued-but-undrained
                    // injects; mirror the accepted frame (replay keeps
                    // the mirror too — the recovered session compacts
                    // later).
                    session.note_pending(frame.render());
                }
                Ok(ok_frame("inject")
                    .set("session", name)
                    .set("queued", queued)
                    .set("depth", session.queue_depth()))
            }
            "step" => {
                let drained = session.drain();
                let fired = session.engine.step().map_err(|e| engine_failure(&e))?;
                Ok(ok_frame("step")
                    .set("session", name)
                    .set("drained", drained)
                    .set("fired", fired)
                    .set("cycles", session.engine.stats().cycles)
                    .set("firings", session.engine.stats().firings)
                    .set("wm", session.engine.wm().len()))
            }
            "query" => self.query(name, frame, session),
            "snapshot" => {
                let bytes = session.engine.checkpoint().to_bytes();
                Ok(ok_frame("snapshot")
                    .set("session", name)
                    .set("cycle", session.engine.stats().cycles)
                    .set("bytes", bytes.len())
                    .set("snapshot", protocol::to_hex(&bytes)))
            }
            "restore" => {
                let hex = protocol::req_str(frame, "snapshot")?;
                let bytes = protocol::from_hex(hex)?;
                let snapshot = Snapshot::from_bytes(&bytes)
                    .map_err(|e| Failure::new(kind::SNAPSHOT, e.to_string()))?;
                session
                    .engine
                    .restore(&snapshot)
                    .map_err(|e| Failure::new(kind::SNAPSHOT, e.to_string()))?;
                Ok(ok_frame("restore")
                    .set("session", name)
                    .set("cycle", session.engine.stats().cycles)
                    .set("wm", session.engine.wm().len()))
            }
            "reload" => {
                let source = protocol::req_str(frame, "program")?;
                // Compile into the running session's symbol space so the
                // replacement's symbol ids are interchangeable with live
                // WMEs. A compile error (or an engine refusal below)
                // leaves the session exactly as it was.
                let replacement =
                    parulel_lang::compile_into(source, &session.engine.program().interner)
                        .map_err(|e| Failure::new(kind::COMPILE, e.to_string()))?;
                let report = session
                    .engine
                    .reload(&replacement)
                    .map_err(|e| Failure::new(kind::RELOAD, e.to_string()))?;
                if self.wal.is_some() {
                    // Compaction records replay the session as
                    // open → reloads → restore: the engine snapshot only
                    // captures state, so the program swap itself must
                    // survive log truncation.
                    session.note_reload(frame.render());
                }
                let names = |v: &[String]| {
                    v.iter().map(|n| Json::from(n.as_str())).collect::<Vec<Json>>()
                };
                Ok(ok_frame("reload")
                    .set("session", name)
                    .set("added", names(&report.added))
                    .set("removed", names(&report.removed))
                    .set("changed", names(&report.changed))
                    .set("unchanged", report.unchanged)
                    .set("incremental", report.incremental)
                    .set("rules", session.engine.program().rules().len())
                    .set("wm", session.engine.wm().len())
                    .set("fingerprint", session.fingerprint()))
            }
            "metrics" => {
                let stats = session.engine.stats();
                let mut response = ok_frame("metrics")
                    .set("session", name)
                    .set("cycles", stats.cycles)
                    .set("firings", stats.firings)
                    .set("redacted_meta", stats.redacted_meta)
                    .set("redacted_guard", stats.redacted_guard)
                    .set("peak_eligible", stats.peak_eligible)
                    .set("wm", session.engine.wm().len())
                    .set("queue_depth", session.queue_depth())
                    .set("injected_adds", session.injected_adds)
                    .set("injected_removes", session.injected_removes)
                    .set("halted", session.engine.halted())
                    .set("fingerprint", session.fingerprint());
                // The full parulel-metrics/v1 report (per-rule counters,
                // matcher internals, phase times) only on request: it
                // carries wall-clock fields, and the compact frame stays
                // deterministic for golden transcripts.
                if frame.get("report") == Some(&Json::Bool(true)) {
                    let report = session.engine.metrics().to_json(
                        session.engine.program(),
                        &session.engine.matcher_metrics(),
                        stats,
                    );
                    response = response.set("report", report);
                }
                Ok(response)
            }
            "trace" => {
                let jsonl = session
                    .engine
                    .trace_events()
                    .map(|buf| buf.to_jsonl())
                    .unwrap_or_default();
                Ok(ok_frame("trace")
                    .set("session", name)
                    .set("events", jsonl.lines().count().saturating_sub(1))
                    .set("jsonl", jsonl))
            }
            "close" => Ok(ok_frame("close")
                .set("session", name)
                .set("cycles", session.engine.stats().cycles)
                .set("firings", session.engine.stats().firings)
                .set("fingerprint", session.fingerprint())),
            other => Err(Failure::new(
                kind::PROTOCOL,
                format!("unknown verb {other:?}"),
            )),
        }
    }

    /// `query`: scan one class's facts, deterministically ordered.
    fn query(&self, name: &str, frame: &Json, session: &mut Session) -> Result<Json, Failure> {
        let class_name = protocol::req_str(frame, "class")?;
        let program = session.engine.program();
        let class = program
            .classes
            .id_of(program.interner.intern(class_name))
            .ok_or_else(|| {
                Failure::new(kind::PROTOCOL, format!("unknown class {class_name:?}"))
            })?;
        let limit = protocol::opt_u64(frame, "limit")?.map(|n| n as usize);
        let interner = &program.interner;
        let mut rows: Vec<(String, Json)> = session
            .engine
            .wm()
            .iter_class(class)
            .map(|w| {
                let fields: Vec<Json> = w
                    .fields
                    .iter()
                    .map(|v| protocol::value_to_json(v, interner))
                    .collect();
                (format!("{:?}", w.fields), Json::Arr(fields))
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        let count = rows.len();
        let facts: Vec<Json> = rows
            .into_iter()
            .take(limit.unwrap_or(usize::MAX))
            .map(|(_, row)| row)
            .collect();
        Ok(ok_frame("query")
            .set("session", name)
            .set("class", class_name)
            .set("count", count)
            .set("returned", facts.len())
            .set("facts", facts))
    }
}

/// The `unknown_session` failure for `name`.
fn unknown_session(name: &str) -> Failure {
    Failure::new(kind::UNKNOWN_SESSION, format!("no session {name:?}"))
}

/// Parses the `open` frame's `policy`/`guard`/`meta` fields into a
/// [`FiringPolicy`].
fn parse_policy(frame: &Json) -> Result<FiringPolicy, Failure> {
    let guard = match frame.get("guard").and_then(|v| v.as_str()) {
        None | Some("off") => GuardMode::Off,
        Some("ww") => GuardMode::WriteWrite,
        Some("serializable") => GuardMode::Serializable,
        Some(other) => {
            return Err(Failure::new(
                kind::PROTOCOL,
                format!("unknown guard {other:?}"),
            ))
        }
    };
    let meta = frame.get("meta") != Some(&Json::Bool(false));
    match frame.get("policy").and_then(|v| v.as_str()) {
        None | Some("parallel") => Ok(FiringPolicy::FireAll { meta, guard }),
        Some("lex") => Ok(FiringPolicy::SelectOne(Strategy::Lex)),
        Some("mea") => Ok(FiringPolicy::SelectOne(Strategy::Mea)),
        Some(other) => Err(Failure::new(
            kind::PROTOCOL,
            format!("unknown policy {other:?} (want parallel|lex|mea)"),
        )),
    }
}

/// Parses the CLI's matcher syntax (`rete`, `treat`, `naive`, `prete:N`,
/// `ptreat:N`).
fn parse_matcher(s: &str) -> Result<MatcherKind, Failure> {
    let workers = |n: &str| -> Result<usize, Failure> {
        match n.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(Failure::new(
                kind::PROTOCOL,
                format!("bad worker count in matcher {s:?} (want an integer >= 1)"),
            )),
        }
    };
    match s {
        "rete" => Ok(MatcherKind::Rete),
        "treat" => Ok(MatcherKind::Treat),
        "naive" => Ok(MatcherKind::Naive),
        _ => {
            if let Some(n) = s.strip_prefix("prete:") {
                Ok(MatcherKind::PartitionedRete(workers(n)?))
            } else if let Some(n) = s.strip_prefix("ptreat:") {
                Ok(MatcherKind::PartitionedTreat(workers(n)?))
            } else {
                Err(Failure::new(
                    kind::PROTOCOL,
                    format!("unknown matcher {s:?}"),
                ))
            }
        }
    }
}

/// Parses an `inject` frame's `adds`/`removes` into a validated
/// [`Delta`] (classes must exist, arities must match — a malformed
/// inject is a protocol error, never a panic inside the kernel).
fn parse_delta(frame: &Json, program: &parulel_core::Program) -> Result<Delta, Failure> {
    let mut delta = Delta::new();
    if let Some(removes) = frame.get("removes") {
        let ids = removes.as_arr().ok_or_else(|| {
            Failure::new(kind::PROTOCOL, "field \"removes\" must be an array of ids")
        })?;
        for id in ids {
            match id.as_f64() {
                Some(n) if n >= 0.0 && n == n.trunc() => {
                    delta.removes.push(parulel_core::WmeId(n as u64))
                }
                _ => {
                    return Err(Failure::new(
                        kind::PROTOCOL,
                        "WME ids in \"removes\" must be non-negative integers",
                    ))
                }
            }
        }
    }
    if let Some(adds) = frame.get("adds") {
        let adds = adds.as_arr().ok_or_else(|| {
            Failure::new(kind::PROTOCOL, "field \"adds\" must be an array of objects")
        })?;
        for add in adds {
            let class_name = protocol::req_str(add, "class")?;
            let class = program
                .classes
                .id_of(program.interner.intern(class_name))
                .ok_or_else(|| {
                    Failure::new(kind::PROTOCOL, format!("unknown class {class_name:?}"))
                })?;
            let fields = add
                .get("fields")
                .and_then(|v| v.as_arr())
                .ok_or_else(|| Failure::new(kind::PROTOCOL, "add needs a \"fields\" array"))?;
            let arity = program.classes.decl(class).arity();
            if fields.len() != arity {
                return Err(Failure::new(
                    kind::PROTOCOL,
                    format!(
                        "class {class_name:?} has arity {arity}, got {} fields",
                        fields.len()
                    ),
                ));
            }
            let values: Vec<parulel_core::Value> = fields
                .iter()
                .map(|f| protocol::json_to_value(f, &program.interner))
                .collect::<Result<_, _>>()?;
            delta.adds.push((class, values.into()));
        }
    }
    if delta.is_empty() {
        return Err(Failure::new(
            kind::PROTOCOL,
            "inject frame has no \"adds\" or \"removes\"",
        ));
    }
    delta.normalize();
    Ok(delta)
}
